//! In-memory spans recorded by the benchmark around its calls into each layer.
//!
//! The crates are not instrumented: every span here starts and ends in the
//! benchmark's own code, around a public function of the layer it is named
//! after. Spans stay in memory for the whole traced pass and are written out
//! once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One timed call: a name, when it ran, the span that caused it, and the
/// operation it belongs to. All spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `ring.forward_ntt`.
    pub name: &'static str,
    /// The span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Identifier of the operation (ladder, chain, request) the span is part of.
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that started at `start` (an open loop opens a request's
    /// span at the instant the request was due, not when it was sent).
    pub fn begin_at(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded under a panic");
        spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            op,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(spans.len() - 1)
    }

    /// Opens a span starting now.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        self.begin_at(name, parent, op, Instant::now())
    }

    /// Closes a span now.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        self.spans
            .lock()
            .expect("no span is recorded under a panic")[id.0]
            .end_ns = end_ns;
    }

    /// The recorded spans, in the order they were opened.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span is recorded under a panic")
    }
}

/// Where a nested call records its span: inside `parent`, as part of `op`.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub parent: SpanId,
    pub op: u64,
}

impl Scope<'_> {
    /// Runs `f` inside a span of this scope.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.begin(name, Some(self.parent), self.op);
        let out = f();
        self.tracer.end(id);
        out
    }
}

/// Runs `f` inside a span of `scope`, or bare when there is none: the call
/// sites a plain and a traced run share.
pub fn span_in<R>(scope: Option<Scope<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match scope {
        Some(s) => s.span(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover. Children may overlap each other (requests in flight
/// together) and may outlive the parent; covered time is counted once and
/// only inside the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Durations (not self times) of every span called `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// The span file: one object per span, plus each span's self time.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
             \"start\": {}, \"end\": {}, \"self\": {self_ns}}}{sep}",
            s.op, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // Children 10..40 and 30..70 overlap on 30..40; 90..130 outlives the
        // parent; 200..210 lies wholly outside it.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 70),
            span(Some(0), 90, 130),
            span(Some(0), 200, 210),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_children_to_parents_and_shares_the_op_id() {
        let tr = Tracer::new();
        let root = tr.begin("op", None, 7);
        let scope = Scope {
            tracer: &tr,
            parent: root,
            op: 7,
        };
        scope.span("part", || std::hint::black_box(1 + 1));
        tr.end(root);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op), (7, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json("w", &spans);
        assert!(json.contains("\"parent\": 0") && json.contains("\"name\": \"part\""));
    }
}
