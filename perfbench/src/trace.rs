//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a
//! layer's public functions. Spans stay in memory until the run ends;
//! then [`Tracer::write_jsonl`] writes them out and [`self_times`]
//! charges each span's duration, minus what its children cover, to its
//! name.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `seq.explore`.
    pub name: &'static str,
    /// One id per check (0 for set-up work outside any check).
    pub trace: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Records spans; the open ones form a stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: [`Tracer::time`] just runs.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Later spans belong to trace `id`.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` and any span still open inside it (left
    /// open when a supervised check panicked through it).
    pub fn exit(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span (times in µs).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.trace,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, in ns: each span's duration minus the part
/// of it its direct children cover (the union of their intervals,
/// clipped to the span). Over a tree of properly nested spans the self
/// times sum exactly to the roots' durations; a child that escapes its
/// parent or overlaps a sibling is counted in full but covers less, so
/// the sum comes out larger. Only spans for which `keep` holds are
/// charged.
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children).filter(|(s, _)| keep(s)) {
        kids.sort_unstable();
        let (mut covered, mut reached) = (0, s.start_ns);
        for (start, end) in kids {
            let (start, end) = (start.max(reached), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reached = end;
            }
        }
        *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns - covered;
    }
    out
}

/// The root spans (no parent) for which `keep` holds: how many, and
/// their total duration in ns.
pub fn roots(spans: &[Span], keep: impl Fn(&Span) -> bool) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && keep(s))
        .fold((0, 0), |(n, ns), s| (n + 1, ns + s.end_ns - s.start_ns))
}

/// Number of spans per name, among those for which `keep` holds.
pub fn counts(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        *out.entry(s.name).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("check", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("c", Some(2), 50, 60),
        ];
        let t = self_times(&spans, |_| true);
        assert_eq!(t["check"], 100 - 20 - 50);
        assert_eq!(t["a"], 20);
        assert_eq!(t["b"], 50 - 10);
        assert_eq!(t["c"], 10);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn misnested_spans_do_not_partition_the_root() {
        let total = |spans: &[Span]| self_times(spans, |_| true).values().sum::<u64>();
        let overlapping = vec![
            span("check", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&overlapping, |_| true)["check"], 20);
        assert_eq!(total(&overlapping), 110);
        let escaping = vec![span("check", None, 0, 100), span("a", Some(0), 60, 130)];
        assert_eq!(self_times(&escaping, |_| true)["check"], 60);
        assert_eq!(total(&escaping), 130);
        assert_eq!(roots(&escaping, |_| true), (1, 100));
    }

    #[test]
    fn tracer_nests_and_records_traces() {
        let mut tr = Tracer::new();
        tr.set_trace(7);
        let root = tr.enter("check");
        tr.time("inner", || std::hint::black_box(3 + 4));
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
        let total: u64 = self_times(spans, |_| true).values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }
}
