//! In-memory spans recorded by the harness around its calls into each layer.
//!
//! The engine is not instrumented: a span is opened before a public function
//! is called and closed when it returns. Spans of one op share `op`; `parent`
//! is the span that was open when this one began. Nothing is written until
//! the workload ends.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the op this span belongs to.
    pub op: u32,
    /// `layer.call`, e.g. `sql.parse`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn begin(&mut self, op: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        id
    }

    /// Close `id` (and anything left open beneath it, e.g. after an error).
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// direct children cover (overlapping children are merged, children are
/// clipped to the parent). Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids.iter() {
                let start = (*start).max(cursor);
                if *end > start {
                    covered += end - start;
                    cursor = *end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Json::obj(vec![
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30), // child
            span(2, Some(0), 40, 90), // sibling child
            span(3, Some(2), 50, 60), // grandchild: counts against span 2 only
            span(4, Some(2), 60, 80), // its sibling
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 170), // overlaps span 1 by 10
            span(3, Some(0), 190, 260), // overhangs the parent by 60
        ];
        // covered = [110,170) + [190,200) = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_open_order_and_end_closes_descendants() {
        let mut tracer = Tracer::new();
        let root = tracer.begin(7, "op");
        let a = tracer.begin(7, "a");
        tracer.end(a);
        let b = tracer.begin(7, "b");
        let _leaked = tracer.begin(7, "c");
        tracer.end(b); // also closes c
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(0), Some(2)]
        );
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[3].end_ns <= spans[2].end_ns);
        let next = tracer.begin(8, "op");
        assert_eq!(tracer.spans()[next as usize].parent, None);
    }
}
