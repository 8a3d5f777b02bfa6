//! The benchmark's own span recorder.
//!
//! Spans are opened *around* each call into a layer, from the
//! benchmark's side of the public API — nothing under `crates/` is
//! instrumented. They are held in memory and written at exit as
//! Chrome-trace JSON plus a per-layer self-time table. A layer is the
//! part of a span name before the first `.`; a span's self time is its
//! duration minus the part its child spans cover, so the self times of a
//! tree sum to its root exactly.
//!
//! Spans are recorded from the benchmark's single driving thread, so they
//! nest strictly and a stack finds the parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The operation the span belongs to (index into the workload's
    /// operation table); spans of one operation share it.
    pub op: u32,
}

/// Spans outside any one operation (set-up, probes, the pass itself).
pub const NO_OP: u32 = u32::MAX;

/// Events written to the Chrome-trace file. The self-time table always
/// covers every span; the file is capped so a serve run's hundreds of
/// thousands of request spans do not become a 50 MB artifact.
const TRACE_FILE_EVENTS: usize = 50_000;

pub struct Recorder {
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Turns recording on or off; while off, [`Recorder::span`] only
    /// calls its closure.
    pub fn set_enabled(&self, on: bool) {
        self.inner.borrow_mut().enabled = on;
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.inner.borrow_mut();
            if !inner.enabled {
                drop(inner);
                return f();
            }
            let id = inner.spans.len() as u32;
            let parent = inner.stack.last().copied();
            inner.stack.push(id);
            inner.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            id
        };
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.spans[id as usize].end_ns = end;
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans nest strictly");
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Per-span self time: duration minus the summed durations of direct
/// children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub spans: u64,
}

/// Self time and span count per layer.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut table: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let row = table.entry(layer_of(s.name).to_string()).or_default();
        row.self_ns += own;
        row.spans += 1;
    }
    table
}

/// Total duration of the root spans — what the self times must sum to.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

pub fn render_layer_table(spans: &[Span]) -> String {
    let total = root_ns(spans).max(1);
    let mut out = String::from("layer\tself_ms\tshare\tspans\n");
    for (layer, row) in layer_table(spans) {
        out.push_str(&format!(
            "{layer}\t{:.3}\t{:.4}\t{}\n",
            row.self_ns as f64 / 1e6,
            row.self_ns as f64 / total as f64,
            row.spans
        ));
    }
    out.push_str(&format!(
        "(root)\t{:.3}\t1.0000\t{}\n",
        total as f64 / 1e6,
        spans.len()
    ));
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of the spans.
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .take(TRACE_FILE_EVENTS)
        .map(|(i, s)| {
            let mut args = vec![("span", Json::Num(i as f64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Num(f64::from(p))));
            }
            if s.op != NO_OP {
                args.push(("op", Json::Num(f64::from(s.op))));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer_of(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("spansRecorded", Json::Num(spans.len() as f64)),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: NO_OP,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        // root 0..100; a 10..40 with grandchild 15..25; b 50..90
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("core.execute", 10, 40, Some(0)),
            span("engines.giraph.cf", 15, 25, Some(1)),
            span("core.execute", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let table = layer_table(&spans);
        assert_eq!(
            table["core"],
            LayerTime {
                self_ns: 60,
                spans: 2
            }
        );
        assert_eq!(table["engines"].self_ns, 10);
        assert_eq!(table["bench"].self_ns, 30);
        let sum: u64 = table.values().map(|r| r.self_ns).sum();
        assert_eq!(sum, root_ns(&spans), "self times sum to the root exactly");
    }

    #[test]
    fn recorder_nests_by_call_structure_and_is_inert_when_disabled() {
        let rec = Recorder::new();
        assert_eq!(rec.span("bench.off", NO_OP, || 7), 7);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        rec.span("bench.run", NO_OP, || {
            rec.span("core.execute", 3, || {
                rec.span("engines.giraph.cf", 3, || ());
            });
            rec.span("serve.request", 4, || ());
        });
        let spans = rec.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!(spans[2].op, 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap() as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        let trace = Json::parse(&render_chrome_trace(&spans)).unwrap();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
        assert!(render_layer_table(&spans).contains("engines\t"));
    }
}
