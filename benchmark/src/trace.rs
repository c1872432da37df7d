//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls into each layer — the
//! program itself is not instrumented. They are kept in memory and
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//! A disabled recorder records nothing, so the untraced run pays one
//! branch per span.

use crate::json::{arr, obj, s, uint};
use serde::Value;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Seed of the job the span belongs to (shared by all its spans).
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` when the recorder is disabled.
pub type SpanId = Option<usize>;

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            job,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span whose boundaries were read earlier.
    pub fn span_between(
        &mut self,
        name: &str,
        parent: SpanId,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(id) = self.start(name, parent, job) {
            self.spans[id].start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans[id].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self, workload: &str) -> Value {
        obj([
            ("schema", s("csbench-trace/v1")),
            ("workload", s(workload)),
            (
                "spans",
                arr(self.spans.iter().enumerate().map(|(id, sp)| {
                    obj([
                        ("id", uint(id)),
                        ("parent", sp.parent.map_or(Value::Null, uint)),
                        ("name", s(&sp.name)),
                        ("job", Value::U64(sp.job)),
                        ("start_ns", Value::U64(sp.start_ns)),
                        ("end_ns", Value::U64(sp.end_ns)),
                        ("self_ns", Value::U64(self.self_ns(id))),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(true);
        let root = r.start("job", None, 1);
        let child = r.start("engine.run", root, 1);
        let grandchild = r.start("step[0]", child, 1);
        r.end(grandchild);
        r.end(child);
        r.end(root);
        // Pin the clock readings so the arithmetic is exact.
        r.spans[0].start_ns = 0;
        r.spans[0].end_ns = 100;
        r.spans[1].start_ns = 10;
        r.spans[1].end_ns = 90;
        r.spans[2].start_ns = 20;
        r.spans[2].end_ns = 50;
        assert_eq!(r.self_ns(0), 20);
        assert_eq!(r.self_ns(1), 50);
        assert_eq!(r.self_ns(2), 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.start("job", None, 1);
        r.end(id);
        assert!(id.is_none() && r.spans().is_empty());
    }
}
