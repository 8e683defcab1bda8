//! In-memory span log of a traced run: one span per workload sample,
//! cluster, layer driver and timed call batch, recorded from the
//! benchmark's own files around its calls into the product crates (spans
//! inside those crates are a later change). Written out once, at exit.

use crate::json::Value;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span log. A disabled log records nothing and costs one branch.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// The log as JSON: spans in start order, parents by index, all spans
    /// of the run sharing `workload` as their identifier.
    pub fn to_json(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(&s.name)),
                        ("workload", Value::str(workload)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_log_stays_empty() {
        let mut t = Trace::new(true);
        t.begin("outer");
        t.begin("inner");
        t.end();
        t.end();
        t.begin("sibling");
        t.end();
        let json = t.to_json("w");
        let spans = json.as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[2].get("parent"), Some(&Value::Null));
        let (s, e) = (
            spans[1].get("start_ns").unwrap(),
            spans[1].get("end_ns").unwrap(),
        );
        assert!(e.as_f64() >= s.as_f64());

        let mut off = Trace::new(false);
        off.begin("x");
        off.end();
        assert_eq!(off.to_json("w"), Value::Arr(vec![]));
    }
}
