//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into the
//! simulator (workload pass → machine → `Machine::new`, `Machine::run`,
//! `verify_result`, `verify_observability`), keeps them in memory, and
//! writes them out once the run is over. A layer's self time is its
//! span's duration minus the part of that interval its direct children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the span covers (a call boundary name).
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened deeper than `depth` (after a call that
    /// panicked between its `enter` and `exit`).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as a JSON array of
    /// `{"id", "parent", "name", "start_ns", "end_ns"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (same indexing as `spans`): its duration
/// minus the union of its direct children's intervals, clipped to it.
/// Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        let spans = [
            span("workload", None, 0, 100),
            span("machine", Some(0), 10, 50),
            span("run", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("machine", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 70),
            span("c", Some(0), 45, 60),
        ];
        // The children's union is [10, 70): 60 ns covered.
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(self_times(&spans)[1..], [40, 30, 15]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped_and_disjoint_ones_summed() {
        let spans = [
            span("p", None, 100, 200),
            span("early", Some(0), 50, 120),
            span("late", Some(0), 190, 260),
            span("mid", Some(0), 150, 160),
        ];
        // Covered: [100,120) + [150,160) + [190,200) = 40.
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn self_times_sum_by_name_and_tracer_nests() {
        let mut t = Tracer::new(true);
        t.enter("workload");
        for _ in 0..2 {
            t.enter("machine");
            t.enter("run");
            t.exit();
            t.exit();
        }
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        let by = self_time_by_name(s);
        let total: u64 = by.values().sum();
        assert_eq!(total, s[0].duration_ns(), "self times partition the root");
        assert!(t.to_json().contains("\"name\": \"run\""));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_unwind_closes_open_spans() {
        let mut off = Tracer::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        on.enter("a");
        on.enter("b");
        on.unwind_to(0);
        assert_eq!(on.depth(), 0);
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
