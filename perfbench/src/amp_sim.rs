//! `amp-sim`: the paper's Bench-1 epoch on the virtual-time simulator.
//!
//! Eight virtual threads on a 4 big + 4 little (3× slower) machine run
//! through `asl_sim::exec::run_threads`. Each epoch holds four critical
//! sections over two `AslSpinLock`s that read-modify-write 64 disjoint
//! cache lines, then thinks for a seeded ~1620 work units. Reordering
//! needs at least two waiting big cores, which a 2-CPU host cannot give
//! real threads; in virtual time every figure is exact and the same
//! seed gives the same output.
//!
//! `MicroScenario::bench1` is not reused: it places section `i` at line
//! offset `i * 8`, so lines 16–39 are touched under both locks and only
//! 40 distinct lines are used, not 64.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use asl_core::epoch;
use asl_core::mutex::AslSpinLock;
use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;
use asl_runtime::topology::Topology;
use asl_runtime::work::execute_units;
use asl_runtime::CacheLineArena;
use asl_sim::exec::{run_threads, CostModel, ZooConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, Pct, P50, P90, P99, P999};
use crate::trace::{self, span_id, Span};
use crate::{Args, Outcome};

const BIG: usize = 4;
const LITTLE: usize = 4;
const PERF_RATIO: f64 = 3.0;
const THREADS: usize = BIG + LITTLE;
/// (lock, first line, lines) of the four critical sections: two locks,
/// 64 disjoint lines in total.
const SECTIONS: [(usize, usize, usize); 4] = [(0, 0, 8), (1, 8, 16), (0, 24, 24), (1, 48, 16)];
const LINES: usize = 64;
const CS_UNITS_PER_LINE: u64 = 30;
/// Think time between epochs (the paper's 600·27 NOPs, scaled to work
/// units as the harness does); each epoch draws ±10% around it.
const THINK_UNITS: u64 = 1_620;
const EPOCH_ID: usize = 2;
/// Epoch SLO: between the little cores' p99 under FIFO order (MCS) and
/// their p99 with an unbounded reorder window, so the feedback loop has
/// work to do.
const SLO_NS: u64 = 80_000;
/// Virtual length of one segment; each segment is a separate simulated
/// run with its own seed.
const SEGMENT_NS: u64 = 10_000_000;
/// Segments per second of `--seconds` (about one wall second per
/// segment on a 2-CPU x86 host).
const SEGMENTS_PER_S: f64 = 0.6;
const SETUP_REPS: usize = 11;
/// Think times drawn per virtual thread and segment: more than a thread
/// completes in one segment (a big-core epoch takes at least ≈3.5
/// virtual µs, so at most ≈2 900 fit in 10 virtual ms).
const SCRIPT_LEN: usize = 8_192;
/// A traced segment records spans for one epoch in this many.
const TRACE_EVERY: u64 = 4;

/// Everything the virtual threads of one segment share.
struct Machine {
    locks: [AslSpinLock; 2],
    arena: CacheLineArena,
    /// Threads inside each lock's critical section right now.
    occupancy: [AtomicU32; 2],
    overlaps: AtomicU64,
    /// Core class (big = true) of each grant, per lock, in order.
    grants: [Mutex<Vec<bool>>; 2],
    threads: Mutex<Vec<ThreadOut>>,
}

#[derive(Default)]
struct ThreadOut {
    tid: usize,
    big: bool,
    latencies: Vec<u64>,
    windows: Vec<u64>,
    /// The thread ran out of think times before the segment ended.
    exhausted: bool,
}

/// Result of one segment.
struct Segment {
    ops: u64,
    big: Vec<u64>,
    little: Vec<u64>,
    windows: Vec<u64>,
    overlaps: u64,
    lines_ok: bool,
    exhausted: bool,
    digest: u64,
    grant_batch_max: u64,
    standby_expired: u64,
    standby_observed_free: u64,
    standby_total: u64,
    wall_s: f64,
}

fn config(seed: u64) -> ZooConfig {
    ZooConfig {
        topology: Topology::custom(BIG, LITTLE, PERF_RATIO),
        threads: THREADS,
        cs_units: 0,
        // Start offsets are drawn within one think time.
        ncs_units: THINK_UNITS,
        duration_ns: SEGMENT_NS,
        seed,
        slo_ns: Some(SLO_NS),
        cost: CostModel::default(),
        fault: None,
    }
}

/// The seeded inputs of one segment: the simulator's schedule seed and
/// every virtual thread's think times.
pub struct SegmentInput {
    seed: u64,
    think: Vec<Vec<u32>>,
}

impl SegmentInput {
    /// Inputs of segment `k` of the run with seed `run_seed`.
    pub fn new(run_seed: u64, k: usize) -> Self {
        let seed =
            run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x616d_7073_696d_0000 + k as u64);
        let think = (0..THREADS)
            .map(|tid| {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (tid as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
                );
                (0..SCRIPT_LEN)
                    .map(|_| rng.gen_range(THINK_UNITS * 9 / 10..=THINK_UNITS * 11 / 10) as u32)
                    .collect()
            })
            .collect();
        SegmentInput { seed, think }
    }
}

fn new_machine() -> Machine {
    Machine {
        locks: [AslSpinLock::default(), AslSpinLock::default()],
        arena: CacheLineArena::new(LINES),
        occupancy: [AtomicU32::new(0), AtomicU32::new(0)],
        overlaps: AtomicU64::new(0),
        grants: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        threads: Mutex::new(Vec::new()),
    }
}

/// One virtual thread: epochs until the segment's virtual end.
fn body(m: &Machine, think: &[u32], tid: usize, traced: bool) {
    let big = is_big_core();
    let mut out = ThreadOut {
        tid,
        big,
        ..ThreadOut::default()
    };
    let mut seq = 0u64;
    while now_ns() < SEGMENT_NS {
        let Some(&units) = think.get(seq as usize) else {
            out.exhausted = true;
            break;
        };
        seq += 1;
        let sampled = traced && seq.is_multiple_of(TRACE_EVERY);
        let req = ((tid as u64) << 40) | seq;
        let t_op = if sampled { now_ns() } else { 0 };
        let (_, lat) = epoch::with_epoch_timed(EPOCH_ID, SLO_NS, || {
            if traced && !big {
                out.windows.push(epoch::current_window().unwrap_or(0));
            }
            for (i, &(l, first, lines)) in SECTIONS.iter().enumerate() {
                let t0 = if sampled { now_ns() } else { 0 };
                let token = m.locks[l].lock();
                if m.occupancy[l].fetch_add(1, Ordering::Relaxed) != 0 {
                    m.overlaps.fetch_add(1, Ordering::Relaxed);
                }
                let t1 = if sampled { now_ns() } else { 0 };
                if traced {
                    m.grants[l].lock().expect("grant log poisoned").push(big);
                }
                m.arena.rmw(first, lines);
                execute_units(lines as u64 * CS_UNITS_PER_LINE);
                if sampled {
                    let t2 = now_ns();
                    let root = span_id(req, 0);
                    let mk = |name, slot, start, end| Span {
                        name,
                        tid: tid as u32,
                        req,
                        id: span_id(req, slot),
                        parent: root,
                        start,
                        end,
                        flag: false,
                    };
                    trace::record(mk("sim.lock.acquire", 1 + 2 * i as u64, t0, t1));
                    trace::record(mk("sim.cs", 2 + 2 * i as u64, t1, t2));
                }
                m.occupancy[l].fetch_sub(1, Ordering::Relaxed);
                m.locks[l].unlock(token);
            }
        });
        if sampled {
            trace::record(Span {
                name: "sim.op",
                tid: tid as u32,
                req,
                id: span_id(req, 0),
                parent: 0,
                start: t_op,
                end: now_ns(),
                flag: false,
            });
        }
        out.latencies.push(lat);
        execute_units(u64::from(units));
    }
    trace::flush();
    m.threads.lock().expect("thread results poisoned").push(out);
}

fn longest_class_run(grants: &[bool]) -> u64 {
    let mut best = 0;
    let mut run = 0;
    let mut prev = None;
    for &g in grants {
        run = if prev == Some(g) { run + 1 } else { 1 };
        prev = Some(g);
        best = best.max(run);
    }
    best
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

fn run_segment(input: &SegmentInput, traced: bool) -> Segment {
    let m = new_machine();
    let wall = Instant::now();
    let virtual_end = run_threads(&config(input.seed), |tid| {
        body(&m, &input.think[tid], tid, traced)
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut threads = m.threads.into_inner().expect("thread results poisoned");
    threads.sort_by_key(|t| t.tid);
    let mut digest = fnv(0xcbf2_9ce4_8422_2325, virtual_end);
    let (mut big, mut little, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    for t in &threads {
        digest = fnv(digest, t.latencies.len() as u64);
        for &l in &t.latencies {
            digest = fnv(digest, l);
        }
        if t.big {
            big.extend_from_slice(&t.latencies);
        } else {
            little.extend_from_slice(&t.latencies);
        }
        windows.extend_from_slice(&t.windows);
    }
    let ops = (big.len() + little.len()) as u64;
    let lines_ok = (0..LINES).all(|i| m.arena.line(i) == ops);
    let exhausted = threads.iter().any(|t| t.exhausted);
    let stats: Vec<_> = m.locks.iter().map(|l| l.stats().snapshot()).collect();
    let grants = m
        .grants
        .map(|g| g.into_inner().expect("grant log poisoned"));
    Segment {
        ops,
        big,
        little,
        windows,
        overlaps: m.overlaps.load(Ordering::Relaxed),
        lines_ok,
        exhausted,
        digest,
        grant_batch_max: grants
            .iter()
            .map(|g| longest_class_run(g))
            .max()
            .unwrap_or(0),
        standby_expired: stats.iter().map(|s| s.standby_expired).sum(),
        standby_observed_free: stats.iter().map(|s| s.standby_observed_free).sum(),
        standby_total: stats.iter().map(|s| s.standby_total()).sum(),
        wall_s,
    }
}

/// Pooled results of several segments.
struct Pooled {
    ops: u64,
    virtual_s: f64,
    all: Vec<u64>,
    little: Vec<u64>,
}

impl Pooled {
    fn of(segs: &[Segment]) -> Pooled {
        let mut all = Vec::new();
        let mut little = Vec::new();
        for s in segs {
            all.extend_from_slice(&s.big);
            all.extend_from_slice(&s.little);
            little.extend_from_slice(&s.little);
        }
        Pooled {
            ops: segs.iter().map(|s| s.ops).sum(),
            virtual_s: segs.len() as f64 * SEGMENT_NS as f64 / 1e9,
            all,
            little,
        }
    }

    fn throughput(&self) -> f64 {
        self.ops as f64 / self.virtual_s
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: draw every segment's inputs, build a machine and start
    // the simulator's eight virtual threads (with an empty body).
    let n = ((args.seconds * SEGMENTS_PER_S).round() as usize).max(2);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut inputs));
        let t0 = Instant::now();
        inputs = (0..n)
            .map(|k| SegmentInput::new(args.seed, k))
            .collect::<Vec<_>>();
        let m = new_machine();
        run_threads(&config(inputs[0].seed), |_| {});
        drop(m);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    out.metric("setup_s", stats::median(&setup_times), "s");

    let (measured, others) = if args.trace {
        let half = (n / 2).max(2);
        let plain: Vec<Segment> = inputs[..half]
            .iter()
            .map(|i| run_segment(i, false))
            .collect();
        let traced: Vec<Segment> = inputs[..half]
            .iter()
            .map(|i| run_segment(i, true))
            .collect();
        report_trace(&mut out, &plain, &traced, args);
        (traced, plain)
    } else {
        let segs: Vec<Segment> = inputs.iter().map(|i| run_segment(i, false)).collect();
        (segs, Vec::new())
    };
    // Run the first untraced segment again: same seed, same output.
    let again = run_segment(&inputs[0], false);
    let first = if args.trace { &others[0] } else { &measured[0] };
    out.check(
        "the same seed gives the same virtual-time output",
        again.digest == first.digest,
    );

    let p = Pooled::of(&measured);
    out.note(format!(
        "epoch latency (virtual): {} samples pooled over {} segments of {} virtual ms; highest supported percentile {}",
        p.all.len(),
        measured.len(),
        SEGMENT_NS / 1_000_000,
        stats::highest_supported(p.all.len() as u64).map_or_else(|| "none".into(), Pct::label)
    ));
    out.check(
        "p99.9 of the pooled epoch latency is supported",
        P999.supported(p.all.len() as u64),
    );
    out.check(
        "the little cores' p99 is supported",
        P99.supported(p.little.len() as u64),
    );
    out.metric("throughput_ops_s", p.throughput(), "ops/s");
    out.metric("latency_p50_us", stats::us_of(&p.all, P50), "us");
    out.metric("latency_p90_us", stats::us_of(&p.all, P90), "us");
    out.metric("latency_p99_us", stats::us_of(&p.all, P99), "us");
    out.metric("latency_p999_us", stats::us_of(&p.all, P999), "us");
    out.metric("little_p99_us", stats::us_of(&p.little, P99), "us");
    let misses = p.all.iter().filter(|&&l| l > SLO_NS).count();
    out.metric(
        "slo_miss_frac",
        misses as f64 / p.all.len().max(1) as f64,
        "frac",
    );
    out.note(format!("SLO {} us (virtual)", SLO_NS / 1_000));

    let segs = || {
        measured
            .iter()
            .chain(&others)
            .chain(std::iter::once(&again))
    };
    out.attempted = segs().map(|s| s.ops).sum();
    let bad = |s: &Segment| s.overlaps + u64::from(!s.lines_ok) + u64::from(s.exhausted);
    out.failed = segs().map(bad).sum();
    out.check(
        "no two threads were ever inside one lock's critical section",
        segs().all(|s| s.overlaps == 0),
    );
    out.check(
        "every line was incremented once per epoch",
        segs().all(|s| s.lines_ok),
    );
    out.check(
        "no virtual thread ran out of think times",
        segs().all(|s| !s.exhausted),
    );
    out
}

fn report_trace(out: &mut Outcome, plain: &[Segment], traced: &[Segment], args: &Args) {
    let spans = trace::take();
    let acquire = |want_big: bool| {
        trace::durations(&spans, "sim.lock.acquire", |t| (t < BIG as u32) == want_big)
    };
    out.metric(
        "lock.acquire_us.big.p99",
        stats::us_of(&acquire(true), P99),
        "us",
    );
    out.metric(
        "lock.acquire_us.little.p99",
        stats::us_of(&acquire(false), P99),
        "us",
    );
    out.metric(
        "lock.grant_batch_max",
        traced.iter().map(|s| s.grant_batch_max).max().unwrap_or(0) as f64,
        "count",
    );
    let total: u64 = traced.iter().map(|s| s.standby_total).sum();
    let frac =
        |f: fn(&Segment) -> u64| traced.iter().map(f).sum::<u64>() as f64 / total.max(1) as f64;
    out.metric(
        "asl.standby_expired_frac",
        frac(|s| s.standby_expired),
        "frac",
    );
    out.metric(
        "asl.standby_observed_free_frac",
        frac(|s| s.standby_observed_free),
        "frac",
    );
    let windows: Vec<u64> = traced
        .iter()
        .flat_map(|s| s.windows.iter().copied())
        .collect();
    out.metric(
        "epoch.window_us.little.p50",
        stats::us_of(&windows, P50),
        "us",
    );
    out.metric(
        "sim.wall_s",
        plain.iter().map(|s| s.wall_s).sum::<f64>() / plain.len() as f64,
        "s",
    );
    out.note(format!(
        "sim.wall_s: wall seconds per untraced segment of {} virtual ms",
        SEGMENT_NS / 1_000_000
    ));
    for (name, frac) in trace::self_fractions(&spans) {
        out.metric(&format!("self_frac.{name}"), frac, "frac");
    }
    out.metric("trace.spans", spans.len() as f64, "count");
    let (a, b) = (Pooled::of(plain), Pooled::of(traced));
    out.metric(
        "trace.overhead_p50_frac",
        stats::us_of(&b.all, P50) / stats::us_of(&a.all, P50) - 1.0,
        "frac",
    );
    out.metric(
        "trace.overhead_throughput_frac",
        1.0 - b.throughput() / a.throughput(),
        "frac",
    );
    out.note(format!(
        "traced run: spans of 1 epoch in {TRACE_EVERY}; overhead compares traced and untraced segments of the same seeds (virtual time)"
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
    fn sections_cover_64_disjoint_lines() {
        let mut owner = [None; LINES];
        for &(lock, first, lines) in &SECTIONS {
            for slot in &mut owner[first..first + lines] {
                assert!(slot.is_none(), "line touched by two sections");
                *slot = Some(lock);
            }
        }
        assert!(owner.iter().all(Option::is_some));
        assert_eq!(SECTIONS.iter().map(|s| s.2).sum::<usize>(), LINES);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = SegmentInput::new(5, 3);
        assert_eq!(a.seed, SegmentInput::new(5, 3).seed);
        assert_eq!(a.think, SegmentInput::new(5, 3).think);
        assert_ne!(a.think, SegmentInput::new(5, 4).think);
        assert_ne!(a.think, SegmentInput::new(6, 3).think);
        assert_ne!(a.think[0], a.think[1]);
    }

    #[test]
    fn same_seed_same_segment() {
        let input = SegmentInput::new(9, 0);
        let a = run_segment(&input, false);
        let b = run_segment(&input, false);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ops, b.ops);
        assert!(a.lines_ok && a.overlaps == 0 && !a.exhausted);
    }

    #[test]
    fn class_runs() {
        assert_eq!(longest_class_run(&[]), 0);
        assert_eq!(longest_class_run(&[true, true, false, true, true, true]), 3);
    }
}
