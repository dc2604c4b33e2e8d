//! The traced run's span recorder: one span per call the benchmark makes
//! into a layer, recording name, start, end and parent. Spans stay in
//! memory and are written out when the run ends. Disabled, [`Recorder::span`]
//! is a plain call and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use mnv_trace::json::Json;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point the call went into.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Self time of every span sharing one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host time spent in the recorder's own bookkeeping: what tracing
    /// adds to the calls it wraps.
    cost_ns: u64,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cost_ns: 0,
        }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let c0 = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: ns(self.origin, c0),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let c1 = Instant::now();
        let out = f(self);
        let c2 = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = ns(self.origin, c2);
        self.cost_ns += ns(c0, c1) + ns(c2, Instant::now());
        out
    }

    /// Host seconds the recorder itself has cost so far.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns as f64 * 1e-9
    }

    /// Self time per span name, in first-seen order: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        self_times(&self.spans)
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans))])
    }
}

pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut order = Vec::new();
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let entry = by_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            SelfTime {
                name: s.name,
                calls: 0,
                self_ns: 0,
            }
        });
        entry.calls += 1;
        entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
    }
    order.into_iter().map(|n| by_name[n].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("window", 0, 100, None),
            span("run", 10, 30, Some(0)),
            span("run", 40, 70, Some(0)),
            span("check", 45, 55, Some(2)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![
                SelfTime {
                    name: "window",
                    calls: 1,
                    self_ns: 50,
                },
                SelfTime {
                    name: "run",
                    calls: 2,
                    self_ns: 40,
                },
                SelfTime {
                    name: "check",
                    calls: 1,
                    self_ns: 10,
                },
            ]
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.cost_s(), 0.0);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        let s = &rec.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
