//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and group: every span
//! of one batch or one experiment point shares the group id of the root
//! span that opened it. Spans stay in memory until the run ends; a layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. A disabled tracer records nothing and only calls through, so
//! the end-to-end run pays a branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name, e.g. `sim.engine`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The id shared by all spans of one batch or experiment point.
    pub group: u64,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
    group: Cell<u64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            group: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a root span that starts group `group`.
    pub fn root<T>(&self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        self.group.set(group);
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                group: self.group.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end_ns;
        out
    }

    /// A copy of every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.borrow().clone()
    }

    /// Self time in seconds per span name.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans.borrow())
    }

    /// The spans as a JSON array, one object per span.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time in seconds per span name: each span's duration minus the
/// durations of its direct children.
#[must_use]
pub fn self_seconds(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_their_parent() {
        let spans = [
            SpanRecord {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                group: 1,
            },
            SpanRecord {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                group: 1,
            },
            SpanRecord {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                group: 1,
            },
            SpanRecord {
                name: "a",
                start_ns: 70,
                end_ns: 80,
                parent: Some(0),
                group: 1,
            },
        ];
        let own = self_seconds(&spans);
        assert!((own["root"] - 50e-9).abs() < 1e-15);
        assert!((own["a"] - 40e-9).abs() < 1e-15);
        assert!((own["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_and_groups_are_recorded() {
        let tracer = Tracer::new(true);
        let value = tracer.root("root", 7, || tracer.span("leaf", || 3));
        assert_eq!(value, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.group == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.root("root", 1, || tracer.span("leaf", || ()));
        assert!(tracer.spans().is_empty());
    }
}
