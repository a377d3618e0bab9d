//! In-memory spans for the traced run.
//!
//! A span is one call into a layer: its name, start and end, the span
//! that caused it, and the request it belongs to. Spans are recorded by
//! the benchmark's own code around the calls it makes into the crates,
//! kept in memory, summarised into per-layer metrics and written out at
//! exit as Chrome trace-event JSON (`chrome://tracing`, Perfetto).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// One recorded span. Ids are unique within a run; `parent == 0` marks
/// a request's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
    /// Layer-specific outcome bit: the lock was held on entry (lock
    /// waits) or the request future returned `Pending` (KV requests).
    pub flag: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span id for the `slot`-th span of request `req`.
pub fn span_id(req: u64, slot: u64) -> u64 {
    debug_assert!(slot < 16);
    (req << 4) | slot
}

static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Record a span in this thread's buffer.
pub fn record(span: Span) {
    LOCAL.with(|l| l.borrow_mut().push(span));
}

/// Give this thread's buffer room for `spans` more spans and write
/// through it once, so that recording does not take page faults
/// inside the measured calls.
pub fn reserve(spans: usize) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let len = l.len();
        let filler = Span {
            name: "",
            tid: 0,
            req: 0,
            id: 0,
            parent: 0,
            start: 0,
            end: 0,
            flag: false,
        };
        l.resize(len + spans, filler);
        l.truncate(len);
    });
}

/// Move this thread's buffered spans to the run's collection; call at
/// the end of every thread that recorded.
pub fn flush() {
    let mine = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    COLLECTED
        .lock()
        .expect("span collection poisoned")
        .extend(mine);
}

/// Take every flushed span (and this thread's unflushed ones).
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *COLLECTED.lock().expect("span collection poisoned"))
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once;
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Each span name's share of the total root-span time, by self time.
/// The shares of one workload sum to one.
pub fn self_fractions(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let root_total: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum();
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *by_name.entry(s.name).or_default() += t;
    }
    by_name
        .into_iter()
        .map(|(n, t)| (n, t as f64 / root_total.max(1) as f64))
        .collect()
}

/// Durations (ns) of the spans named `name`, optionally restricted to
/// the threads for which `tid_filter` holds.
pub fn durations(spans: &[Span], name: &str, tid_filter: impl Fn(u32) -> bool) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && tid_filter(s.tid))
        .map(Span::dur)
        .collect()
}

/// Write `spans` as Chrome trace-event JSON (complete events, times in
/// microseconds from the earliest span).
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let base = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"id\":{},\"parent\":{},\"flag\":{}}}}}{sep}",
            s.name,
            s.tid,
            (s.start - base) as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.req,
            s.id,
            s.parent,
            s.flag
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            tid: 0,
            req: 1,
            id,
            parent,
            start,
            end,
            flag: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // cover [10,50) = 40) and [90,120) clipped to [90,100) = 10.
        let spans = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 20, 50),
            span("c", 4, 1, 90, 120),
            span("leaf", 5, 2, 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_fractions_sum_to_one_for_nested_spans() {
        let spans = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            span("leaf", 3, 2, 20, 30),
        ];
        let f = self_fractions(&spans);
        assert_eq!(f["root"], 0.7);
        assert_eq!(f["a"], 0.2);
        assert_eq!(f["leaf"], 0.1);
        let total: f64 = f.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_is_written() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome(&path, &[span("root", 1, 0, 1_000, 3_000)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"root\""));
        assert!(text.contains("\"dur\":2.000"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
