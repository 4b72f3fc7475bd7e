//! In-memory span recorder for the traced replay.
//!
//! The replay is single-threaded, so spans nest strictly: a span's
//! parent is whatever span was open when it started. Spans are kept in
//! memory while the replay runs and written out as JSON lines once the
//! benchmark is done. A layer's self time is the summed duration of its
//! spans minus the part covered by their direct children.

use gprs_core::codec::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `template.solve_warm`.
    pub name: &'static str,
    /// Point or item the call worked on (`u64::MAX` when none).
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around calls made from the benchmark's own code.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Sentinel id for spans that are not tied to one point or item.
pub const NO_ID: u64 = u64::MAX;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Like [`span`](Self::span) for a call that does not record spans
    /// of its own.
    pub fn leaf<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, id, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            *by_layer.entry(span.name).or_insert(0) += span.duration_ns() - children;
        }
        by_layer
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The spans as JSON lines: name, id, parent, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let num = |x: u64| JsonValue::Num(x as f64);
            let line = JsonValue::Object(vec![
                ("span".into(), num(index as u64)),
                ("name".into(), JsonValue::Str(span.name.into())),
                (
                    "id".into(),
                    if span.id == NO_ID {
                        JsonValue::Null
                    } else {
                        num(span.id)
                    },
                ),
                (
                    "parent".into(),
                    span.parent.map_or(JsonValue::Null, |p| num(p as u64)),
                ),
                ("start_ns".into(), num(span.start_ns)),
                ("end_ns".into(), num(span.end_ns)),
            ]);
            out.push_str(&line.to_json_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        t.span("root", NO_ID, |t| {
            t.leaf("a", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 1, |t| {
                t.leaf("a", 2, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let by_layer = t.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.spans()[0].duration_ns());
        assert!(by_layer["a"] >= 4_000_000);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.durations_ns("a").len(), 2);
    }
}
