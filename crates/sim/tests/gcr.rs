//! GCR admission control on the simulated machine: exact,
//! deterministic proofs of the wrapper's invariants in virtual time.
//!
//! The unit tests in `asl-locks` stress the same properties under
//! real threads, where the scheduler decides what interleavings
//! happen. Here the cooperative virtual-time engine decides, so the
//! claims are exact and reproducible bit-for-bit:
//!
//! * **admitted-set bound** — `peak_active() <= K` when no forced
//!   reintroduction fires (and `K + 1` ever, by construction);
//! * **no lost wakeups** — even at `K = 1` with every passive wait
//!   going through the park/grant protocol, every thread keeps
//!   completing ops (a lost wakeup would show up as a thread stuck
//!   passive for the whole run);
//! * **bounded passive starvation** — with a small reintroduction
//!   period every thread completes work; with reintroduction
//!   effectively disabled the passive LIFO is allowed to starve the
//!   oldest waiters, which the contrast run documents;
//! * **controller shrink** — holds that inflate under back-to-back
//!   contention shrink `K`, and the shrink stands.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use asl_locks::gcr::{Gcr, GcrConfig, GcrPlain};
use asl_locks::{McsLock, RawLock};
use asl_runtime::clock::{busy_wait_ns, now_ns};
use asl_runtime::Topology;
use asl_sim::exec::{run_lock, run_threads, ZooConfig};

/// 12 virtual threads on the 8-core model: oversubscribed, the
/// regime GCR exists for.
const THREADS: usize = 12;

fn cfg(threads: usize) -> ZooConfig {
    ZooConfig::quick(Topology::apple_m1(), threads, 42)
}

fn gcr(limit: u32, reintroduce_period: u32) -> Arc<GcrPlain> {
    Arc::new(GcrPlain::with_config(
        Arc::new(McsLock::new()),
        GcrConfig {
            reintroduce_period,
            ..GcrConfig::fixed(limit)
        },
    ))
}

/// The admitted set never exceeds `K` when reintroduction is
/// disabled (period longer than any run): every admission goes
/// through a bounded CAS, so the peak is exact, and the whole result
/// is deterministic.
#[test]
fn admitted_set_bound_holds_exactly_in_virtual_time() {
    let lock = gcr(3, u32::MAX);
    let a = run_lock(&cfg(THREADS), lock.clone());
    assert!(a.total_ops > 0, "no progress under restriction");
    assert_eq!(
        a.total_ops,
        a.per_thread_ops.iter().sum::<u64>(),
        "per-thread counts out of sync"
    );
    assert!(
        lock.peak_active() <= 3,
        "admitted set exceeded K=3: peak={}",
        lock.peak_active()
    );
    assert_eq!(lock.reintroduced(), 0, "period was disabled");
    assert_eq!(lock.active(), 0, "admissions leaked past the run");
    assert_eq!(lock.passive_len(), 0, "passive waiters leaked");

    // Bit-for-bit determinism: same seed, same grant trace.
    let again = gcr(3, u32::MAX);
    let b = run_lock(&cfg(THREADS), again.clone());
    assert_eq!(a, b, "same seed must reproduce the full result");
    assert_eq!(lock.peak_active(), again.peak_active());
}

/// With a small reintroduction period the passive set cannot starve:
/// every one of the 12 threads (on 8 cores, K = 3) completes ops
/// inside the bounded virtual window. With reintroduction disabled
/// the LIFO keeps recent threads circulating — the fairness pulse is
/// load-bearing, not decorative.
#[test]
fn reintroduction_bounds_passive_starvation() {
    let fair = gcr(3, 8);
    let r = run_lock(&cfg(THREADS), fair.clone());
    assert!(
        fair.reintroduced() > 0,
        "the small period must actually pulse"
    );
    for (tid, &ops) in r.per_thread_ops.iter().enumerate() {
        assert!(
            ops > 0,
            "thread {tid} starved despite reintroduction: {:?}",
            r.per_thread_ops
        );
    }
    // K+1 is the hard ceiling once forced admissions run.
    assert!(
        fair.peak_active() <= 4,
        "K+1 bound violated: peak={}",
        fair.peak_active()
    );

    // Determinism of the fair run too.
    let again = gcr(3, 8);
    let r2 = run_lock(&cfg(THREADS), again);
    assert_eq!(r, r2, "same seed must reproduce the fair run");
}

/// The K = 1 torture case: every admission but one goes through the
/// full publish/park/grant protocol, so a single lost wakeup stalls
/// a thread for the whole run. All threads completing ops proves the
/// Dekker publish/check and the slot-transfer wake protocol leave no
/// window.
#[test]
fn no_lost_wakeups_at_k1() {
    let lock = gcr(1, 4);
    let r = run_lock(&cfg(8), lock.clone());
    assert!(r.total_ops > 0);
    assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
    for (tid, &ops) in r.per_thread_ops.iter().enumerate() {
        assert!(
            ops > 0,
            "thread {tid} never ran at K=1: {:?} (lost wakeup?)",
            r.per_thread_ops
        );
    }
    assert_eq!(lock.peak_active().max(1), lock.peak_active());
    assert!(lock.peak_active() <= 2, "K+1 bound at K=1");
    assert_eq!(lock.active(), 0);
    assert_eq!(lock.passive_len(), 0);

    let again = gcr(1, 4);
    let r2 = run_lock(&cfg(8), again);
    assert_eq!(r, r2, "same seed must reproduce");
}

/// The adaptive controller shrinks `K` once holds inflate while
/// acquisitions run back-to-back contended. Two threads share the
/// lock: 5 µs holds for the first 200 virtual µs set the baseline,
/// then 100 µs holds inflate it. With zero inflation tolerance and a
/// streak of two, the first inflated window must shrink `K`, and
/// both threads stop at the first shrink, before a whole window could
/// grow it back. On real threads the same check raced the grow path.
#[test]
fn controller_shrinks_on_inflated_contended_holds() {
    const INFLATE_AT_NS: u64 = 200_000;
    const GIVE_UP_NS: u64 = 50_000_000;
    let lock = Gcr::with_config(
        McsLock::new(),
        GcrConfig {
            initial_limit: 4,
            min_limit: 1,
            max_limit: 4,
            ctl_period: 8,
            shrink_streak: 2,
            inflation_pct: 0,
            reintroduce_period: 64,
        },
    );
    let stop = AtomicBool::new(false);
    run_threads(&cfg(2), |_| {
        while !stop.load(Ordering::Relaxed) {
            let t = lock.lock();
            busy_wait_ns(if now_ns() < INFLATE_AT_NS {
                5_000
            } else {
                100_000
            });
            lock.unlock(t);
            if lock.shrinks() > 0 || now_ns() > GIVE_UP_NS {
                stop.store(true, Ordering::Relaxed);
            }
        }
    });
    assert!(
        lock.shrinks() >= 1,
        "controller never shrank under inflated contended holds \
         (limit={}, snapshot={:?})",
        lock.limit(),
        lock.telemetry().snapshot()
    );
    assert!(lock.limit() < 4);
}
