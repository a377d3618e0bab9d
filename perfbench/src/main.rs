//! Seeded benchmark of the LibASL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-open|kyoto-amp|amp-sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is driven from here through the crates' public APIs.
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run (see `NOTES.md`). The exit code is
//! non-zero when an output check fails.

mod amp_sim;
mod kv_open;
mod kyoto_amp;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// workload reports 0 for a layer it bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.spawn_ns.p50", "ns"),
    ("exec.spawn_ns.p99", "ns"),
    ("exec.start_us.p50", "us"),
    ("exec.start_us.p99", "us"),
    ("exec.polls_per_req", "count"),
    ("kv.request_us.p50", "us"),
    ("kv.request_us.p99", "us"),
    ("kv.pending_frac", "frac"),
    ("kyoto.get_us.p50", "us"),
    ("kyoto.get_us.p99", "us"),
    ("kyoto.get_us.little.p99", "us"),
    ("kyoto.put_us.p50", "us"),
    ("kyoto.put_us.p99", "us"),
    ("kyoto.put_us.little.p99", "us"),
    ("lock.method.wait_ns.p50", "ns"),
    ("lock.method.wait_ns.p99", "ns"),
    ("lock.method.hold_ns.p50", "ns"),
    ("lock.method.contended_frac", "frac"),
    ("lock.slot.wait_ns.p50", "ns"),
    ("lock.slot.wait_ns.p99", "ns"),
    ("lock.slot.hold_ns.p50", "ns"),
    ("lock.slot.contended_frac", "frac"),
    ("epoch.overhead_ns.p50", "ns"),
    ("lock.acquire_us.big.p99", "us"),
    ("lock.acquire_us.little.p99", "us"),
    ("lock.grant_batch_max", "count"),
    ("asl.standby_expired_frac", "frac"),
    ("asl.standby_observed_free_frac", "frac"),
    ("epoch.window_us.little.p50", "us"),
    ("sim.wall_s", "s"),
    ("self_frac.req", "frac"),
    ("self_frac.exec.spawn", "frac"),
    ("self_frac.exec.start", "frac"),
    ("self_frac.kv.request", "frac"),
    ("self_frac.op", "frac"),
    ("self_frac.kyoto.get", "frac"),
    ("self_frac.kyoto.put", "frac"),
    ("self_frac.lock.method.wait", "frac"),
    ("self_frac.lock.method.hold", "frac"),
    ("self_frac.lock.slot.wait", "frac"),
    ("self_frac.lock.slot.hold", "frac"),
    ("self_frac.sim.op", "frac"),
    ("self_frac.sim.lock.acquire", "frac"),
    ("self_frac.sim.cs", "frac"),
    ("trace.spans", "count"),
    ("trace.overhead_p50_frac", "frac"),
    ("trace.overhead_throughput_frac", "frac"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvOpen,
    KyotoAmp,
    AmpSim,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::KvOpen, Workload::KyotoAmp, Workload::AmpSim];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvOpen => "kv-open",
            Workload::KyotoAmp => "kyoto-amp",
            Workload::AmpSim => "amp-sim",
        }
    }
}

/// Validated command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must lie in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Every metric measured, by name: end-to-end, per-layer and the
    /// workload-specific extras that are printed but not gated.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Free-form lines printed before the result (sample counts, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Where traced runs write their Chrome trace.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()))
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_result(out: &Outcome, correct: bool, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(*name).map_or(0.0, |m| m.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv-open|kyoto-amp|amp-sim> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = match args.workload {
        Workload::KvOpen => kv_open::run(&args),
        Workload::KyotoAmp => kyoto_amp::run(&args),
        Workload::AmpSim => amp_sim::run(&args),
    };
    match peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
        None => out.check("peak RSS readable from /proc/self/status", false),
    }
    let attempted = out.attempted.max(1);
    out.metric("failed_frac", out.failed as f64 / attempted as f64, "frac");

    for line in &out.notes {
        println!("# {line}");
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for (name, (value, unit)) in &out.metrics {
        println!("{name} = {value} {unit}");
    }

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.failed == 0 && out.attempted > 0 && out.checks.iter().all(|c| c.1);
    for (name, _) in names {
        match out.metrics.get(*name) {
            Some((v, _)) if !v.is_finite() => {
                println!("check FAIL: metric {name} is not finite");
                correct = false;
            }
            None if !args.trace => {
                println!("check FAIL: end-to-end metric {name} was not measured");
                correct = false;
            }
            _ => {}
        }
    }
    println!("{}", json_result(&out, correct, names));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv("--workload amp-sim --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::AmpSim);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(argv("--workload kv-open --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(argv("--workload kv-open --seed 1 --trace 0")).is_err());
    }

    /// The metric lists compiled in here are the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let (e2e_part, layer_part) = text.split_once("\"per_layer\"").expect("per_layer section");
        let e2e_part = e2e_part.split_once("\"end_to_end\"").expect("end_to_end").1;
        let declared = |part: &str| -> Vec<(String, String)> {
            part.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = if key == "name" {
                            entry
                        } else {
                            entry.split_once(&format!("\"{key}\"")).expect(key).1
                        };
                        rest.split('"').nth(1).expect("quoted value").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(e2e_part), own(END_TO_END));
        assert_eq!(declared(layer_part), own(PER_LAYER));
    }

    #[test]
    fn json_result_lists_every_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        let line = json_result(&out, true, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
