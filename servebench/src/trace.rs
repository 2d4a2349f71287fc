//! In-memory span recording for the traced run, and the delegating
//! [`InfluenceOracle`] wrapper that times the diffusion layer from outside.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; nothing inside the program is instrumented. A span's
//! self time is its duration minus the part of its interval covered by its
//! direct children.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tcim_diffusion::{Deadline, GroupInfluence, InfluenceCursor, InfluenceOracle};
use tcim_graph::{Graph, NodeId};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `cache.oracle`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the request the span belongs to.
    pub request: usize,
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<usize>,
    cursors: RefCell<Vec<CursorGains>>,
}

/// The marginal-gain calls made on one cursor. A greedy pass runs on one
/// cursor, so this is the gain count of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorGains {
    /// Index of the request the cursor was opened for.
    pub request: usize,
    /// Gain calls made on it.
    pub gains: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            origin: crate::measure::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
            cursors: RefCell::new(Vec::new()),
        }
    }

    /// Tags the spans that follow with request index `request`.
    pub fn set_request(&self, request: usize) {
        self.request.set(request);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        let parent = self.stack.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, start: 0, end: 0, parent, request: self.request.get() });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let start = self.now();
        let result = body();
        let end = self.now();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start = start;
        spans[index].end = end;
        result
    }

    /// Registers a cursor opened for the current request; returns its index.
    fn open_cursor(&self) -> usize {
        let mut cursors = self.cursors.borrow_mut();
        cursors.push(CursorGains { request: self.request.get(), gains: 0 });
        cursors.len() - 1
    }

    fn count_gain(&self, cursor: usize) {
        self.cursors.borrow_mut()[cursor].gains += 1;
    }

    /// The recorded spans, and the gain calls of every cursor in the order
    /// the cursors were opened.
    pub fn finish(self) -> (Vec<Span>, Vec<CursorGains>) {
        (self.spans.into_inner(), self.cursors.into_inner())
    }
}

/// Self time (ns) of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: layer name → (self ns, calls).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

/// Renders spans as JSON lines (the trace file format); `ids[r]` is the
/// wire id of request `r`, already JSON-encoded.
pub fn to_jsonl(spans: &[Span], ids: &[String]) -> String {
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let id = ids.get(span.request).map_or("null", String::as_str);
        let _ = writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{},"id":{id}}}"#,
            span.name, span.start, span.end, span.request
        );
    }
    out
}

/// Delegates every [`InfluenceOracle`] call to `inner`, recording
/// `diffusion.evaluate` around evaluations and `diffusion.cursor` around
/// cursor construction; its cursors record `diffusion.gain` around marginal
/// gains, and count them per cursor, and `diffusion.evaluate` around seed
/// commits.
pub struct TracedOracle<'a> {
    inner: &'a dyn InfluenceOracle,
    tracer: &'a Tracer,
}

impl<'a> TracedOracle<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn InfluenceOracle, tracer: &'a Tracer) -> TracedOracle<'a> {
        TracedOracle { inner, tracer }
    }
}

impl InfluenceOracle for TracedOracle<'_> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn deadline(&self) -> Deadline {
        self.inner.deadline()
    }

    fn evaluate(&self, seeds: &[NodeId]) -> tcim_diffusion::Result<GroupInfluence> {
        self.tracer.span("diffusion.evaluate", || self.inner.evaluate(seeds))
    }

    fn cursor(&self) -> Box<dyn InfluenceCursor + '_> {
        let inner = self.tracer.span("diffusion.cursor", || self.inner.cursor());
        Box::new(TracedCursor { inner, tracer: self.tracer, index: self.tracer.open_cursor() })
    }

    fn group_sizes(&self) -> Vec<usize> {
        self.inner.group_sizes()
    }
}

struct TracedCursor<'a> {
    inner: Box<dyn InfluenceCursor + 'a>,
    tracer: &'a Tracer,
    index: usize,
}

impl InfluenceCursor for TracedCursor<'_> {
    fn seeds(&self) -> &[NodeId] {
        self.inner.seeds()
    }

    fn current(&self) -> &GroupInfluence {
        self.inner.current()
    }

    fn gain(&mut self, candidate: NodeId) -> GroupInfluence {
        self.tracer.count_gain(self.index);
        let inner = &mut self.inner;
        self.tracer.span("diffusion.gain", || inner.gain(candidate))
    }

    fn add_seed(&mut self, candidate: NodeId) {
        let inner = &mut self.inner;
        self.tracer.span("diffusion.evaluate", || inner.add_seed(candidate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10,40) ∪ [45,50) = 35 of 40.
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn layer_totals_sum_self_time_and_count_calls() {
        let spans = vec![
            span("core.solve", 0, 100, None),
            span("diffusion.gain", 10, 20, Some(0)),
            span("diffusion.gain", 30, 45, Some(0)),
            span("core.solve", 200, 210, None),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["core.solve"], (75 + 10, 2));
        assert_eq!(totals["diffusion.gain"], (25, 2));
    }

    #[test]
    fn the_tracer_nests_spans_and_tags_requests() {
        let tracer = Tracer::new();
        tracer.set_request(7);
        let value = tracer.span("outer", || tracer.span("inner", || 41) + 1);
        assert_eq!(value, 42);
        let (spans, cursors) = tracer.finish();
        assert!(cursors.is_empty());
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
