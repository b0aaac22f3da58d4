//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory and are written when the run ends. A span's *self
//! time* is its duration minus the part of its interval its direct children
//! cover — children may overlap each other, so their union is taken.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one op share an identifier.
    pub op_id: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in nanoseconds, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            // Only the part inside the parent's interval can be covered.
            let start = span.start_ns.max(spans[parent].start_ns);
            let end = span.end_ns.min(spans[parent].end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // root 0..100 with children 10..50, 30..70 (overlap) and 80..90.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn a_child_reaching_past_its_parent_covers_only_the_inside() {
        let spans = [span(10, 20, None), span(15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recorder_links_spans_of_one_op() {
        let mut rec = Recorder::new();
        let op = rec.begin("op", None, 7);
        let execute = rec.begin("execute", Some(op), 7);
        std::hint::black_box(1 + 1);
        rec.end(execute);
        rec.end(op);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op_id, 7);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let self_ns = self_times(&rec.spans);
        let total = rec.spans[0].end_ns - rec.spans[0].start_ns;
        assert_eq!(self_ns[0] + self_ns[1], total);
    }
}
