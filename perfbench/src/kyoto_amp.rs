//! `kyoto-amp`: a closed loop on one big and one little core.
//!
//! Two pinned threads on `Topology::custom(1, 1, 3.0)` (the little
//! core runs emulated work 3× slower) issue seeded 50/50 put/get
//! scripts of uniform keys against a prefilled `Kyoto` engine whose
//! method and slot locks come from the registry spec `libasl-10us`.
//! Every operation runs inside `epoch::with_epoch_timed` with the
//! spec's SLO. An operation costs about 2 µs, so the two dyn-dispatched
//! lock acquisitions per operation and the epoch calls are a large
//! share of it; the executor is bypassed.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use asl_core::epoch;
use asl_dbsim::kyoto::Kyoto;
use asl_dbsim::{value_for, LockFactory, KEYSPACE};
use asl_harness::locks::LockSpec;
use asl_locks::plain::{PlainLock, PlainRwLock, PlainRwToken};
use asl_runtime::clock::now_ns;
use asl_runtime::spawn::run_on_topology_with_stop;
use asl_runtime::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, Tail, WindowTail, P50, P99};
use crate::trace::{self, span_id, Span};
use crate::{Args, Outcome};

/// Registry spec of every engine lock; its SLO is about twice the p99
/// operation latency this workload shows under it on a 2-CPU x86 host.
const LOCK_SPEC: &str = "libasl-10us";
const SLOTS: usize = 16;
const EPOCH_ID: usize = 1;
const THREADS: usize = 2;
/// Thread index of the little core (threads fill big cores first).
const LITTLE: u32 = 1;
const WARMUP_NS: u64 = 300_000_000;
/// Measurement round: both threads run for this long, then meet at a
/// barrier while the round's latencies are summarised. Tail
/// percentiles are per round; the median over rounds is reported.
const ROUND_NS: u64 = 100_000_000;
const SETUP_REPS: usize = 9;
/// A traced run records spans for one operation in this many.
const TRACE_EVERY: u64 = 512;

/// The benchmark's lock factory: registry locks of [`LOCK_SPEC`],
/// wrapped in [`TimedRw`] when tracing.
struct Factory {
    spec: LockSpec,
    traced: bool,
}

impl LockFactory for Factory {
    fn make(&self) -> Arc<dyn PlainLock> {
        self.spec.make_lock_raw()
    }

    fn make_rw_labeled(&self, label: &'static str) -> Arc<dyn PlainRwLock> {
        let inner = self.spec.make_rw_lock_raw();
        if !self.traced {
            return inner;
        }
        let (wait, hold, idx) = match label {
            "kyoto.method" => ("lock.method.wait", "lock.method.hold", 0),
            "kyoto.slot" => ("lock.slot.wait", "lock.slot.hold", 1),
            other => panic!("unexpected engine lock {other}"),
        };
        Arc::new(TimedRw {
            inner,
            wait,
            hold,
            idx,
        })
    }
}

/// The traced operation this thread is running: request id, id of the
/// span that lock spans hang under, next free span slot.
#[derive(Clone, Copy)]
struct OpCtx {
    tid: u32,
    req: u64,
    parent: u64,
    next_slot: u64,
}

thread_local! {
    static CTX: Cell<Option<OpCtx>> = const { Cell::new(None) };
    /// Grant time of the lock (method, slot) this thread holds.
    static GRANTED: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// Times acquire (wait span, flagged when the lock was held on entry)
/// and the hold until release, for traced operations only.
struct TimedRw {
    inner: Arc<dyn PlainRwLock>,
    wait: &'static str,
    hold: &'static str,
    idx: usize,
}

impl TimedRw {
    fn timed(&self, acquire: impl FnOnce() -> PlainRwToken) -> PlainRwToken {
        let Some(ctx) = CTX.get() else {
            return acquire();
        };
        let t0 = now_ns();
        let contended = self.inner.held();
        let token = acquire();
        let t1 = now_ns();
        self.span(ctx, self.wait, t0, t1, contended);
        GRANTED.with(|g| {
            let mut v = g.get();
            v[self.idx] = t1;
            g.set(v);
        });
        token
    }

    fn released(&self) {
        if let Some(ctx) = CTX.get() {
            let granted = GRANTED.with(|g| g.get()[self.idx]);
            self.span(ctx, self.hold, granted, now_ns(), false);
        }
    }

    fn span(&self, mut ctx: OpCtx, name: &'static str, start: u64, end: u64, flag: bool) {
        trace::record(Span {
            name,
            tid: ctx.tid,
            req: ctx.req,
            id: span_id(ctx.req, ctx.next_slot),
            parent: ctx.parent,
            start,
            end,
            flag,
        });
        ctx.next_slot += 1;
        CTX.set(Some(ctx));
    }
}

impl PlainRwLock for TimedRw {
    fn acquire_read(&self) -> PlainRwToken {
        self.timed(|| self.inner.acquire_read())
    }
    fn try_acquire_read(&self) -> Option<PlainRwToken> {
        self.inner.try_acquire_read()
    }
    fn release_read(&self, token: PlainRwToken) {
        self.released();
        self.inner.release_read(token)
    }
    fn acquire_write(&self) -> PlainRwToken {
        self.timed(|| self.inner.acquire_write())
    }
    fn try_acquire_write(&self) -> Option<PlainRwToken> {
        self.inner.try_acquire_write()
    }
    fn release_write(&self, token: PlainRwToken) {
        self.released();
        self.inner.release_write(token)
    }
    fn held(&self) -> bool {
        self.inner.held()
    }
    fn write_held(&self) -> bool {
        self.inner.write_held()
    }
    fn rw_lock_name(&self) -> &'static str {
        self.inner.rw_lock_name()
    }
}

/// The seeded operation script of one thread: uniform keys, 50% puts.
pub struct Script(SmallRng);

impl Script {
    pub fn new(seed: u64, thread: usize) -> Self {
        Script(SmallRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x6b79_6f74_6f00 + thread as u64),
        ))
    }

    /// Next operation: key and whether it is a put.
    pub fn next(&mut self) -> (u64, bool) {
        (self.0.gen_range(0..KEYSPACE), self.0.gen_bool(0.5))
    }
}

fn build(spec: &LockSpec, traced: bool) -> Kyoto {
    let db = Kyoto::new(
        &Factory {
            spec: spec.clone(),
            traced,
        },
        SLOTS,
    );
    for key in 0..KEYSPACE {
        db.put(key, value_for(key));
    }
    db
}

/// Latency samples one thread can hold in a round.
const ROUND_CAPACITY: usize = 400_000;

/// A sample buffer written through once, so that the resident set does
/// not follow throughput.
fn touched(capacity: usize) -> Vec<u64> {
    let mut v = vec![1u64; capacity];
    v.clear();
    v
}

/// One thread's results for one round; the buffer is reused.
struct Part {
    latencies: Vec<u64>,
    misses: u64,
    failed: u64,
    elapsed_ns: u64,
}

/// Summary of one round (both threads).
struct Round {
    tail: Option<WindowTail>,
    little_p99: u64,
    ops: u64,
    misses: u64,
    failed: u64,
    elapsed_ns: u64,
}

/// Run `rounds` measurement rounds (after a warm-up) on `db`.
fn measure(db: &Kyoto, slo_ns: u64, seed: u64, rounds: usize, traced: bool) -> Vec<Round> {
    let topo = Topology::custom(1, 1, 3.0);
    let barrier = Barrier::new(THREADS);
    let round_end = AtomicU64::new(0);
    let parts: Vec<Mutex<Part>> = (0..THREADS)
        .map(|_| {
            Mutex::new(Part {
                latencies: touched(ROUND_CAPACITY),
                misses: 0,
                failed: 0,
                elapsed_ns: 0,
            })
        })
        .collect();
    let merged = Mutex::new(touched(THREADS * ROUND_CAPACITY));
    let results = Mutex::new(Vec::with_capacity(rounds));
    let stop = Arc::new(AtomicBool::new(false));
    run_on_topology_with_stop(&topo, THREADS, true, stop, |ctx| {
        let tid = ctx.index;
        epoch::reset_thread_epochs();
        if traced {
            // Six spans per traced operation; a thread completes at most
            // about a quarter of ROUND_CAPACITY operations in a round.
            trace::reserve(6 * rounds * (ROUND_CAPACITY / 4) / TRACE_EVERY as usize);
        }
        let mut script = Script::new(seed, tid);
        let mut seq = 0u64;
        for r in 0..=rounds {
            if tid == 0 {
                let len = if r == 0 { WARMUP_NS } else { ROUND_NS };
                round_end.store(now_ns() + len, Ordering::Release);
            }
            barrier.wait();
            {
                let end = round_end.load(Ordering::Acquire);
                let mut part = parts[tid].lock().expect("round results poisoned");
                part.latencies.clear();
                part.misses = 0;
                part.failed = 0;
                let start = now_ns();
                while part.latencies.len() < ROUND_CAPACITY {
                    if part.latencies.len().is_multiple_of(8) && now_ns() >= end {
                        break;
                    }
                    let (key, put) = script.next();
                    seq += 1;
                    let (ok, lat) = if traced && seq.is_multiple_of(TRACE_EVERY) {
                        traced_op(db, slo_ns, tid, seq, key, put)
                    } else {
                        epoch::with_epoch_timed(EPOCH_ID, slo_ns, || op(db, key, put))
                    };
                    part.latencies.push(lat);
                    part.misses += u64::from(lat > slo_ns);
                    part.failed += u64::from(!ok);
                }
                part.elapsed_ns = now_ns() - start;
            }
            barrier.wait();
            if tid == 0 && r > 0 {
                let big = parts[0].lock().expect("round results poisoned");
                let mut little = parts[1].lock().expect("round results poisoned");
                let little_p99 = if P99.supported(little.latencies.len() as u64) {
                    stats::percentile(&mut little.latencies, P99)
                } else {
                    0
                };
                let mut all = merged.lock().expect("round results poisoned");
                all.clear();
                all.extend_from_slice(&big.latencies);
                all.extend_from_slice(&little.latencies);
                results.lock().expect("round results poisoned").push(Round {
                    tail: WindowTail::of(&mut all),
                    little_p99,
                    ops: all.len() as u64,
                    misses: big.misses + little.misses,
                    failed: big.failed + little.failed,
                    elapsed_ns: big.elapsed_ns.max(little.elapsed_ns),
                });
            }
        }
        trace::flush();
    });
    results.into_inner().expect("round results poisoned")
}

/// One operation; `false` when a get did not return the value every
/// put of that key stores (all keys are prefilled).
#[inline]
fn op(db: &Kyoto, key: u64, put: bool) -> bool {
    if put {
        db.put(key, value_for(key));
        true
    } else {
        db.get(key) == Some(value_for(key))
    }
}

/// [`op`] with spans: the whole call (`op`), the engine call inside the
/// epoch (`kyoto.get`/`kyoto.put`) and, through [`TimedRw`], each lock
/// wait and hold.
fn traced_op(db: &Kyoto, slo_ns: u64, tid: usize, seq: u64, key: u64, put: bool) -> (bool, u64) {
    let req = ((tid as u64) << 40) | seq;
    let root = span_id(req, 0);
    let inner = span_id(req, 1);
    CTX.set(Some(OpCtx {
        tid: tid as u32,
        req,
        parent: inner,
        next_slot: 2,
    }));
    let mut bounds = (0, 0);
    let t0 = now_ns();
    let (ok, lat) = epoch::with_epoch_timed(EPOCH_ID, slo_ns, || {
        let t1 = now_ns();
        let ok = op(db, key, put);
        bounds = (t1, now_ns());
        ok
    });
    let t3 = now_ns();
    CTX.set(None);
    let mk = |name, id, parent, start, end| Span {
        name,
        tid: tid as u32,
        req,
        id,
        parent,
        start,
        end,
        flag: false,
    };
    trace::record(mk("op", root, 0, t0, t3));
    let name = if put { "kyoto.put" } else { "kyoto.get" };
    trace::record(mk(name, inner, root, bounds.0, bounds.1));
    (ok, lat)
}

struct Summary {
    rounds: Vec<Round>,
}

impl Summary {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }
    /// Median over rounds of each round's operations per second.
    fn throughput(&self) -> f64 {
        let per: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.ops as f64 / (r.elapsed_ns.max(1) as f64 / 1e9))
            .collect();
        stats::median(&per)
    }
    fn tail(&self) -> Option<Tail> {
        let ws: Vec<WindowTail> = self.rounds.iter().filter_map(|r| r.tail).collect();
        (ws.len() == self.rounds.len())
            .then(|| Tail::of_windows(&ws))
            .flatten()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t_start = Instant::now();
    let spec: LockSpec = LOCK_SPEC.parse().expect("registry lock spec");
    let slo_ns = spec.epoch_slo().expect("libasl spec carries an SLO");

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut db = None;
    for _ in 0..SETUP_REPS {
        drop(db.take());
        let t0 = Instant::now();
        db = Some(build(&spec, false));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let db = db.expect("set up at least once");
    out.metric("setup_s", stats::median(&setup_times), "s");

    let left = args.seconds - t_start.elapsed().as_secs_f64() - 2.0 * WARMUP_NS as f64 / 1e9;
    let rounds = ((left * 1e9 / (ROUND_NS as f64 * 1.02)) as usize).max(4);
    let mut others = Vec::new();
    let main = if args.trace {
        let traced_db = build(&spec, true);
        let plain = Summary {
            rounds: measure(&db, slo_ns, args.seed, rounds / 2, false),
        };
        let traced = Summary {
            rounds: measure(&traced_db, slo_ns, args.seed, rounds / 2, true),
        };
        report_trace(&mut out, &plain, &traced, args);
        others.push(plain);
        traced
    } else {
        Summary {
            rounds: measure(&db, slo_ns, args.seed, rounds, false),
        }
    };

    match main.tail() {
        Some(t) => {
            out.note(format!("epoch latency: {}", t.basis));
            out.metric("latency_p50_us", t.p50_us, "us");
            out.metric("latency_p90_us", t.p90_us, "us");
            out.metric("latency_p99_us", t.p99_us, "us");
            out.metric("latency_p999_us", t.p999_us, "us");
        }
        None => out.check("every round supports p99.9", false),
    }
    let little: Vec<f64> = main
        .rounds
        .iter()
        .map(|r| r.little_p99 as f64 / 1e3)
        .collect();
    out.metric("little_p99_us", stats::median(&little), "us");
    out.check(
        "every round supports the little core's p99",
        main.rounds.iter().all(|r| r.little_p99 > 0),
    );
    let misses: u64 = main.rounds.iter().map(|r| r.misses).sum();
    out.metric(
        "slo_miss_frac",
        misses as f64 / main.ops().max(1) as f64,
        "frac",
    );
    out.metric("throughput_ops_s", main.throughput(), "ops/s");
    out.note(format!(
        "SLO {slo_ns} ns ({LOCK_SPEC}), {} rounds of {} ms",
        main.rounds.len(),
        ROUND_NS / 1_000_000
    ));

    others.push(main);
    let rounds = || others.iter().flat_map(|s| &s.rounds);
    out.attempted += rounds().map(|r| r.ops).sum::<u64>();
    out.failed += rounds().map(|r| r.failed).sum::<u64>();
    out.check(
        "every get returned value_for(key)",
        rounds().all(|r| r.failed == 0),
    );
    out
}

fn report_trace(out: &mut Outcome, plain: &Summary, traced: &Summary, args: &Args) {
    let spans = trace::take();
    let all = |_| true;
    let little = |t| t == LITTLE;
    for (name, metric) in [("kyoto.get", "kyoto.get_us"), ("kyoto.put", "kyoto.put_us")] {
        out.metric(
            &format!("{metric}.p50"),
            stats::us_of(&trace::durations(&spans, name, all), P50),
            "us",
        );
        out.metric(
            &format!("{metric}.p99"),
            stats::us_of(&trace::durations(&spans, name, all), P99),
            "us",
        );
        out.metric(
            &format!("{metric}.little.p99"),
            stats::us_of(&trace::durations(&spans, name, little), P99),
            "us",
        );
    }
    for lock in ["method", "slot"] {
        let wait = format!("lock.{lock}.wait");
        let waits = trace::durations(&spans, &wait, all);
        out.metric(
            &format!("lock.{lock}.wait_ns.p50"),
            stats::ns_of(&waits, P50),
            "ns",
        );
        out.metric(
            &format!("lock.{lock}.wait_ns.p99"),
            stats::ns_of(&waits, P99),
            "ns",
        );
        let holds = trace::durations(&spans, &format!("lock.{lock}.hold"), all);
        out.metric(
            &format!("lock.{lock}.hold_ns.p50"),
            stats::ns_of(&holds, P50),
            "ns",
        );
        let contended = spans.iter().filter(|s| s.name == wait && s.flag).count();
        out.metric(
            &format!("lock.{lock}.contended_frac"),
            contended as f64 / waits.len().max(1) as f64,
            "frac",
        );
    }
    // Epoch overhead: the `op` span minus the engine call it wraps.
    let mut inner_dur = std::collections::HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent != 0 && s.name.starts_with("kyoto."))
    {
        inner_dur.insert(s.parent, s.dur());
    }
    let overhead: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "op")
        .filter_map(|s| inner_dur.get(&s.id).map(|d| s.dur().saturating_sub(*d)))
        .collect();
    out.metric("epoch.overhead_ns.p50", stats::ns_of(&overhead, P50), "ns");
    for (name, frac) in trace::self_fractions(&spans) {
        out.metric(&format!("self_frac.{name}"), frac, "frac");
    }
    out.metric("trace.spans", spans.len() as f64, "count");
    let p50 = |s: &Summary| s.tail().map_or(f64::NAN, |t| t.p50_us);
    out.metric(
        "trace.overhead_p50_frac",
        p50(traced) / p50(plain) - 1.0,
        "frac",
    );
    out.metric(
        "trace.overhead_throughput_frac",
        1.0 - traced.throughput() / plain.throughput(),
        "frac",
    );
    out.note(format!(
        "traced run: spans of 1 operation in {TRACE_EVERY}; overhead compares the traced half with the untraced half of the same run"
    ));
    let path = crate::trace_path(args.workload);
    match trace::write_chrome(&path, &spans) {
        Ok(()) => out.note(format!("wrote {} spans to {}", spans.len(), path.display())),
        Err(e) => out.check(&format!("write {}: {e}", path.display()), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        let draw = |seed, t| {
            let mut s = Script::new(seed, t);
            (0..1_000).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(3, 1));
        assert_ne!(draw(3, 0), draw(4, 0));
        let puts = draw(3, 0).iter().filter(|o| o.1).count();
        assert!((400..600).contains(&puts), "{puts} puts of 1000");
    }
}
