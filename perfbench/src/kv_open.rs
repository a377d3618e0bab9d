//! `kv-open`: open-loop Poisson traffic on `ShardedKv` under the
//! executor.
//!
//! The generator (this thread) spawns each request's task at its due
//! time and the request is timed from that due time, so a stall of the
//! generator or the single executor worker is charged to every request
//! it delays. `openloop::run_open_loop` is not used: it spawns every
//! client before the first arrival behind a fixed 1 µs-per-client
//! headroom, which a loaded host overruns. Here the executor's spawn,
//! queue and wake path does most of the work; the epoch layer and the
//! thread-level locks do none of it.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use asl_dbsim::arrival::{ArrivalGen, ArrivalProcess};
use asl_dbsim::kv::{KvConfig, ShardedKv};
use asl_dbsim::workload::{Mix, Op, Zipfian, YCSB_THETA};
use asl_harness::locks::LockSpec;
use asl_runtime::affinity::pin_to_cpu;
use asl_runtime::clock::now_ns;
use asl_runtime::Executor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::{self, Tail, P50, P99};
use crate::trace::{self, span_id, Span};
use crate::{Args, Outcome};

/// Keys in the prefilled store.
const KEYSPACE: u64 = 1 << 16;
const SHARDS: usize = 4;
const READ_FRACTION: f64 = 0.5;
/// Shard-lock policy; each request's deadline is its due time + SLO.
const LOCK_SPEC: &str = "libasl-100us";
const SLO_NS: u64 = 100_000;
/// Nominal offered load: about a third of the single-worker knee
/// (≈150k req/s on a 2-CPU x86 host).
const NOMINAL_RATE: f64 = 50_000.0;
/// Rate ladder for `max_rate_at_slo_rps`, as multiples of the nominal
/// rate, and the length of each step.
const LADDER: [f64; 5] = [1.0, 1.5, 2.0, 2.5, 3.0];
const LADDER_STEP_S: f64 = 0.4;
/// Latency limit the ladder holds p99 to. The shard-lock SLO is far
/// below what one worker sharing two CPUs with the generator delivers
/// at p99, so the ladder uses a limit it can meet at the nominal rate.
const LADDER_P99_LIMIT_NS: u64 = 1_000_000;
const WARMUP_S: f64 = 0.5;
const SETUP_REPS: usize = 21;
/// CPUs of the generator (this thread) and of the executor worker.
const GENERATOR_CPU: usize = 0;
const WORKER_CPU: usize = 1;
/// A traced run records spans for one request in this many.
const TRACE_EVERY: usize = 16;
/// A phase whose requests have not all completed this long after the
/// last due time has a backlog that does not drain: its missing
/// requests count as failed.
const DRAIN_TIMEOUT_NS: u64 = 10_000_000_000;

/// The seeded request stream: Poisson gaps, Zipf(0.99) keys, 50% reads.
pub struct Schedule {
    rng: SmallRng,
    keys: Zipfian,
    mix: Mix,
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        Schedule {
            rng: SmallRng::seed_from_u64(seed ^ 0x6b76_2d6f_7065_6e00),
            keys: Zipfian::new(KEYSPACE, YCSB_THETA),
            mix: Mix::new(READ_FRACTION),
        }
    }

    /// Next request: gap since the previous one (ns), key, operation.
    pub fn next(&mut self, arrivals: &mut ArrivalGen) -> (u64, u64, Op) {
        let gap = arrivals.next_gap_ns(&mut self.rng);
        (
            gap,
            self.keys.sample(&mut self.rng),
            self.mix.sample(&mut self.rng),
        )
    }
}

fn arrivals(rate: f64) -> ArrivalGen {
    ArrivalGen::new(ArrivalProcess::Poisson, rate)
}

/// Timestamps of one traced request.
#[derive(Default)]
struct Probe {
    spawn_start: AtomicU64,
    spawn_end: AtomicU64,
    first_poll: AtomicU64,
    ready: AtomicU64,
    polls: AtomicU32,
    pending: AtomicBool,
}

/// Per-request completion records of one phase.
struct PhaseState {
    /// Latency from due time to completion, plus one (0 = not done).
    latency: Vec<AtomicU64>,
    completions: Vec<AtomicU32>,
    misses: AtomicU64,
    completed: AtomicU64,
    last_done: AtomicU64,
    probes: Vec<Probe>,
}

/// Counts the executor's polls of a task and stamps the first one.
struct CountPolls<'a, F> {
    inner: Pin<Box<F>>,
    probe: &'a Probe,
}

impl<F: Future> Future for CountPolls<'_, F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        if self.probe.polls.fetch_add(1, Ordering::Relaxed) == 0 {
            self.probe.first_poll.store(now_ns(), Ordering::Relaxed);
        }
        self.inner.as_mut().poll(cx)
    }
}

/// Stamps when a `ShardedKv::request` future is ready and whether it
/// ever returned `Pending`.
struct TimeRequest<'a, F> {
    inner: Pin<Box<F>>,
    probe: &'a Probe,
}

impl<F: Future> Future for TimeRequest<'_, F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let r = self.inner.as_mut().poll(cx);
        match r {
            Poll::Ready(_) => self.probe.ready.store(now_ns(), Ordering::Relaxed),
            Poll::Pending => self.probe.pending.store(true, Ordering::Relaxed),
        }
        r
    }
}

struct PhaseResult {
    rate: f64,
    base: u64,
    spawned: usize,
    state: Arc<PhaseState>,
    dues: Vec<u64>,
    lags: Vec<u64>,
}

impl PhaseResult {
    fn latencies(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dues.iter().enumerate().map(|(i, &due)| {
            let l = self.state.latency[i].load(Ordering::Acquire);
            (due, l.saturating_sub(1))
        })
    }

    fn throughput(&self) -> f64 {
        let last = self.state.last_done.load(Ordering::Acquire);
        self.spawned as f64 / (last.saturating_sub(self.base).max(1) as f64 / 1e9)
    }
}

struct Bench {
    kv: Arc<ShardedKv>,
    exec: Executor,
}

fn setup() -> Bench {
    let spec: LockSpec = LOCK_SPEC.parse().expect("registry lock spec");
    let kv = ShardedKv::new(KvConfig {
        shards: SHARDS,
        policy: spec.async_policy(),
        keyspace: KEYSPACE,
        ..KvConfig::default()
    });
    kv.prefill(1);
    let exec = Executor::new(1);
    // Keep the generator and the worker on CPUs of their own: a worker
    // woken onto the spinning generator's CPU waits out a scheduler
    // time slice (milliseconds) before it runs.
    exec.spawn(async { pin_to_cpu(WORKER_CPU) }).join();
    Bench {
        kv: Arc::new(kv),
        exec,
    }
}

/// Offer `rate` for `secs` seconds, then wait for the backlog to drain.
fn run_phase(
    bench: &Bench,
    sched: &mut Schedule,
    rate: f64,
    secs: f64,
    traced: bool,
) -> PhaseResult {
    let cap = (rate * secs * 1.3) as usize + 1_000;
    let state = Arc::new(PhaseState {
        latency: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        completions: (0..cap).map(|_| AtomicU32::new(0)).collect(),
        misses: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        last_done: AtomicU64::new(0),
        probes: if traced {
            (0..cap.div_ceil(TRACE_EVERY))
                .map(|_| Probe::default())
                .collect()
        } else {
            Vec::new()
        },
    });
    let mut gen = arrivals(rate);
    let end_off = (secs * 1e9) as u64;
    let mut dues = Vec::with_capacity(cap);
    let mut lags = Vec::with_capacity(cap);
    let base = now_ns() + 200_000;
    let mut off = 0u64;
    loop {
        let (gap, key, op) = sched.next(&mut gen);
        off += gap;
        let i = dues.len();
        if off >= end_off || i == cap {
            break;
        }
        let due = base + off;
        let mut t0 = now_ns();
        while t0 < due {
            std::hint::spin_loop();
            t0 = now_ns();
        }
        lags.push(t0 - due);
        dues.push(due);
        let kv = bench.kv.clone();
        let st = state.clone();
        let deadline = Some(due + SLO_NS);
        let finish = move |st: &PhaseState, hit: bool| {
            let done = now_ns();
            st.latency[i].store(done - due + 1, Ordering::Release);
            if !hit {
                st.misses.fetch_add(1, Ordering::Relaxed);
            }
            st.completions[i].fetch_add(1, Ordering::Relaxed);
            st.last_done.fetch_max(done, Ordering::Relaxed);
            st.completed.fetch_add(1, Ordering::Release);
        };
        if traced && i % TRACE_EVERY == 0 {
            state.probes[i / TRACE_EVERY]
                .spawn_start
                .store(t0, Ordering::Relaxed);
            drop(bench.exec.spawn(async move {
                let probe = &st.probes[i / TRACE_EVERY];
                let body = async {
                    let req = kv.request(op, key, deadline);
                    TimeRequest {
                        inner: Box::pin(req),
                        probe,
                    }
                    .await
                };
                let hit = CountPolls {
                    inner: Box::pin(body),
                    probe,
                }
                .await;
                finish(&st, hit);
            }));
            state.probes[i / TRACE_EVERY]
                .spawn_end
                .store(now_ns(), Ordering::Relaxed);
        } else {
            drop(bench.exec.spawn(async move {
                let hit = kv.request(op, key, deadline).await;
                finish(&st, hit);
            }));
        }
    }
    let spawned = dues.len();
    let give_up = base + end_off + DRAIN_TIMEOUT_NS;
    while state.completed.load(Ordering::Acquire) < spawned as u64 && now_ns() < give_up {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    PhaseResult {
        rate,
        base,
        spawned,
        state,
        dues,
        lags,
    }
}

/// Request-level checks: each spawned request completed exactly once,
/// and every read hit (every key is prefilled). Returns the number of
/// failed requests.
fn failures(p: &PhaseResult) -> u64 {
    let once = (0..p.spawned)
        .filter(|&i| p.state.completions[i].load(Ordering::Acquire) != 1)
        .count() as u64;
    once + p.state.misses.load(Ordering::Relaxed)
}

/// Build the spans of the traced requests of `p`; request ids continue
/// from `first_req`.
fn spans_of(p: &PhaseResult, first_req: u64) -> Vec<Span> {
    let mut spans = Vec::new();
    for (k, probe) in p.state.probes.iter().enumerate() {
        let i = k * TRACE_EVERY;
        if i >= p.spawned {
            break;
        }
        let req = first_req + i as u64;
        let due = p.dues[i];
        let done = due + p.state.latency[i].load(Ordering::Acquire).saturating_sub(1);
        let get = |a: &AtomicU64| a.load(Ordering::Acquire);
        let (s0, s1, fp, rd) = (
            get(&probe.spawn_start),
            get(&probe.spawn_end),
            get(&probe.first_poll),
            get(&probe.ready),
        );
        let root = span_id(req, 0);
        let mk = |name, tid, slot, start: u64, end: u64, flag| Span {
            name,
            tid,
            req,
            id: span_id(req, slot),
            parent: if slot == 0 { 0 } else { root },
            start,
            end: end.max(start),
            flag,
        };
        spans.push(mk("req", 0, 0, due, done, false));
        spans.push(mk("exec.spawn", 0, 1, s0, s1, false));
        spans.push(mk("exec.start", 1, 2, s1.min(fp), fp, false));
        spans.push(mk(
            "kv.request",
            1,
            3,
            fp,
            rd,
            probe.pending.load(Ordering::Acquire),
        ));
    }
    spans
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t_start = Instant::now();

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(setup());
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set up at least once");
    out.metric("setup_s", stats::median(&setup_times), "s");

    pin_to_cpu(GENERATOR_CPU);
    let mut sched = Schedule::new(args.seed);
    let mut phases = Vec::new();
    phases.push(run_phase(&bench, &mut sched, NOMINAL_RATE, WARMUP_S, false));

    let used = t_start.elapsed().as_secs_f64();
    let ladder_s = if args.trace {
        0.0
    } else {
        LADDER.len() as f64 * (LADDER_STEP_S + 0.1)
    };
    let measure_s = (args.seconds - used - ladder_s).max(2.0);
    let nominal = if args.trace {
        let plain = run_phase(&bench, &mut sched, NOMINAL_RATE, measure_s / 2.0, false);
        let traced = run_phase(&bench, &mut sched, NOMINAL_RATE, measure_s / 2.0, true);
        report_trace(&mut out, &plain, &traced, args);
        phases.push(plain);
        traced
    } else {
        run_phase(&bench, &mut sched, NOMINAL_RATE, measure_s, false)
    };

    let lat: Vec<u64> = nominal.latencies().map(|(_, l)| l).collect();
    match Tail::of_sequence(&lat) {
        Some(t) => {
            out.note(format!(
                "latency (due time to completion) at {NOMINAL_RATE} req/s offered: {}",
                t.basis
            ));
            out.metric("latency_p50_us", t.p50_us, "us");
            out.metric("latency_p90_us", t.p90_us, "us");
            out.metric("latency_p99_us", t.p99_us, "us");
            out.metric("latency_p999_us", t.p999_us, "us");
        }
        None => out.check("the run fills a p99.9 window", false),
    }
    out.metric("latency_pooled_p99_us", stats::us_of(&lat, P99), "us");
    let misses = lat.iter().filter(|&&l| l > SLO_NS).count();
    out.metric(
        "slo_miss_frac",
        misses as f64 / lat.len().max(1) as f64,
        "frac",
    );
    out.metric("throughput_ops_s", nominal.throughput(), "ops/s");
    out.metric("pacer_lag_p99_us", stats::us_of(&nominal.lags, P99), "us");

    if !args.trace {
        let mut best = None;
        for f in LADDER {
            let step = run_phase(&bench, &mut sched, NOMINAL_RATE * f, LADDER_STEP_S, false);
            let mut lat: Vec<u64> = step.latencies().map(|(_, l)| l).collect();
            let p99 = stats::percentile(&mut lat, P99);
            let keeps_up = step.throughput() >= 0.9 * step.rate;
            out.note(format!(
                "ladder {:.0} req/s: {} requests, p99 {:.1} us, throughput {:.0} req/s",
                step.rate,
                step.spawned,
                p99 as f64 / 1e3,
                step.throughput()
            ));
            if p99 <= LADDER_P99_LIMIT_NS && keeps_up {
                best = Some(step.rate);
            }
            phases.push(step);
        }
        out.metric("max_rate_at_slo_rps", best.unwrap_or(0.0), "1/s");
        out.note(format!(
            "max_rate_at_slo_rps: highest ladder rate with p99 <= {} us and throughput >= 90% of offered (0 = none)",
            LADDER_P99_LIMIT_NS / 1_000
        ));
    }
    phases.push(nominal);

    for p in &phases {
        out.attempted += p.spawned as u64;
        out.failed += failures(p);
    }
    out.check(
        "every request completed exactly once and every read hit",
        phases.iter().all(|p| failures(p) == 0),
    );
    out
}

fn report_trace(out: &mut Outcome, plain: &PhaseResult, traced: &PhaseResult, args: &Args) {
    let spans = spans_of(traced, plain.spawned as u64 + 1);
    let dur = |name| trace::durations(&spans, name, |_| true);
    let spawn = dur("exec.spawn");
    let start = dur("exec.start");
    let request = dur("kv.request");
    out.metric("exec.spawn_ns.p50", stats::ns_of(&spawn, P50), "ns");
    out.metric("exec.spawn_ns.p99", stats::ns_of(&spawn, P99), "ns");
    out.metric("exec.start_us.p50", stats::us_of(&start, P50), "us");
    out.metric("exec.start_us.p99", stats::us_of(&start, P99), "us");
    out.metric("kv.request_us.p50", stats::us_of(&request, P50), "us");
    out.metric("kv.request_us.p99", stats::us_of(&request, P99), "us");
    let probes = &traced.state.probes[..traced.spawned.div_ceil(TRACE_EVERY)];
    let polls: u64 = probes
        .iter()
        .map(|p| u64::from(p.polls.load(Ordering::Acquire)))
        .sum();
    out.metric(
        "exec.polls_per_req",
        polls as f64 / probes.len().max(1) as f64,
        "count",
    );
    let pending = spans
        .iter()
        .filter(|s| s.name == "kv.request" && s.flag)
        .count();
    out.metric(
        "kv.pending_frac",
        pending as f64 / request.len().max(1) as f64,
        "frac",
    );
    for (name, frac) in trace::self_fractions(&spans) {
        out.metric(&format!("self_frac.{name}"), frac, "frac");
    }
    out.metric("trace.spans", spans.len() as f64, "count");
    let p50 = |p: &PhaseResult| {
        let mut l: Vec<u64> = p.latencies().map(|(_, l)| l).collect();
        stats::percentile(&mut l, P50) as f64
    };
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
        "traced run: spans of 1 request in {TRACE_EVERY}; overhead compares the traced half with the untraced half of the same run"
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
    fn same_seed_same_schedule() {
        let draw = |seed| {
            let mut s = Schedule::new(seed);
            let mut gen = arrivals(NOMINAL_RATE);
            (0..2_000).map(|_| s.next(&mut gen)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mean_gap = draw(7).iter().map(|r| r.0).sum::<u64>() as f64 / 2_000.0;
        assert!((mean_gap - 20_000.0).abs() < 2_000.0, "mean gap {mean_gap}");
    }
}
