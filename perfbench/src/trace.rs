//! In-memory spans recorded by the benchmark around its own calls into each
//! layer (never inside the library), written out as JSON when a traced run
//! ends.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the span that caused it, and the request it belongs to. A
//! span's *self time* is its duration minus the part of its interval its
//! direct children cover; overlapping children (concurrent requests) count
//! once.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span wraps, e.g. `core.power_solve`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation or request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with a stack of open spans, so nested calls get parents
/// without threading ids through the benchmark code.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A tracer sharing `origin` with others, so spans of concurrent
    /// connections can be merged onto one time line.
    pub fn with_origin(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn begin(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
        self.spans[id].duration_ns()
    }

    /// Records an interval measured elsewhere (solver iterations timed by
    /// an observer, client requests) under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        });
        id
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), re-basing its parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Share of span `id`'s wall time covered by its child spans — 1 minus
    /// its self time over its duration. Stages that add up to the operation
    /// read close to 1.
    pub fn child_cover(&self, id: usize) -> f64 {
        let total = self.spans[id].duration_ns();
        if total == 0 {
            return 1.0;
        }
        1.0 - self_times(&self.spans)[id] as f64 / total as f64
    }

    /// Writes every span with its self time as JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"self_ns\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request, selfs[i]
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, cover)| s.duration_ns() - union_len(cover))
        .collect()
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children overlap (10..30, 20..40) and one spills
        // past the parent's end (90..120, clipped to 90..100).
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 120, Some(0)),
            span(12, 18, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(
            selfs[1],
            20 - 6,
            "grandchildren count against their own parent"
        );
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn sequential_stages_sum_to_the_operation() {
        // Stages of one operation laid end to end with small gaps: self
        // times over the whole tree add up to the root's wall time exactly.
        let spans = vec![
            span(0, 1000, None),
            span(5, 400, Some(0)),
            span(400, 900, Some(0)),
            span(905, 995, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        assert_eq!(selfs[0], 5 + 5 + 5);
    }

    #[test]
    fn tracer_nests_and_reports_cover() {
        let mut t = Tracer::new();
        let root = t.begin("op", 7);
        let a = t.begin("stage", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        assert_eq!(t.spans()[a].parent, Some(root));
        assert_eq!(t.spans()[a].request, 7);
        let cover = t.child_cover(root);
        assert!(cover > 0.5 && cover <= 1.0, "cover {cover}");
        assert_eq!(t.durations_ms("stage").len(), 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(origin);
        let r = a.begin("a", 0);
        a.end(r);
        let mut b = Tracer::with_origin(origin);
        let p = b.begin("b", 1);
        let c = b.begin("c", 1);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
