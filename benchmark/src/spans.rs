//! Benchmark-side spans: the outside-in layer trace.
//!
//! The step driver wraps each call into a layer's public function in a
//! span `{name, start_ns, end_ns, parent, iter}`. Spans live in memory
//! and are written to `out/<workload>.trace.jsonl` once the run is over.
//! A layer's *self time* is its span minus the part its children cover.
//!
//! The driver is generic over [`Probe`], so the same code runs with
//! [`Recorder`] (spans on) and [`NoSpans`] (compiled away); the
//! difference between the two is `bench.trace_overhead_frac`.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<u32>,
    /// The iteration (or micro-batch) this span belongs to — the
    /// identifier every span of one step shares.
    pub iter: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the step driver calls around each layer boundary.
pub trait Probe {
    fn enter(&mut self, name: &'static str, iter: u32) -> u32;
    fn exit(&mut self, id: u32);
}

/// Spans off: every call is a no-op the optimiser removes.
pub struct NoSpans;

impl Probe for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _iter: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: u32) {}
}

/// Spans on: appends to an in-memory list, nothing else.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was never closed");
        self.spans
    }
}

impl Probe for Recorder {
    fn enter(&mut self, name: &'static str, iter: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            iter,
        });
        id
    }

    fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children of one parent never overlap
/// — the recorder closes innermost first — so the covered part is the
/// sum of their durations, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Sum of self times per span name, over spans of iterations
/// `>= first_iter` (the recorded part; warm-up iterations come first).
pub fn self_time_by_name(spans: &[Span], first_iter: u32) -> Vec<(&'static str, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        if s.iter < first_iter {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// One JSON object per line, in span order.
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.iter
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, iter: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // step [0,100) ├ read [10,40) ─ pull [15,25)
        //              ├ compute [40,90)   (adjacent to read)
        let spans = vec![
            span("step", 0, 100, None, 0),
            span("read", 10, 40, Some(0), 0),
            span("pull", 15, 25, Some(1), 0),
            span("compute", 40, 90, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("a", 5, 9, None, 0)];
        assert_eq!(self_times_ns(&spans), vec![4]);
    }

    #[test]
    fn by_name_skips_warmup_and_sums_across_iterations() {
        let spans = vec![
            span("step", 0, 10, None, 0),
            span("read", 2, 6, Some(0), 0),
            span("step", 10, 30, None, 1),
            span("read", 12, 20, Some(2), 1),
            span("step", 30, 40, None, 2),
            span("read", 31, 33, Some(4), 2),
        ];
        let by = self_time_by_name(&spans, 1);
        assert_eq!(by, vec![("step", 12 + 8), ("read", 8 + 2)]);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut r = Recorder::with_capacity(4);
        let a = r.enter("a", 7);
        let b = r.enter("b", 7);
        r.exit(b);
        let c = r.enter("c", 7);
        r.exit(c);
        r.exit(a);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| het::json::from_str(l).is_ok()));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn recorder_rejects_crossed_spans() {
        let mut r = Recorder::with_capacity(2);
        let a = r.enter("a", 0);
        let _b = r.enter("b", 0);
        r.exit(a);
    }
}
