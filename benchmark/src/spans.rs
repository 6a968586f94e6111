//! Spans: `{id, parent, name, start_ns, end_ns, rep}`, kept in memory and
//! written as a Chrome trace when the traced run ends.
//!
//! Real spans exist at repetition and run-call granularity (plus the first
//! batch-level calls of each wrapper). Per-slot calls are never spans: the
//! wrappers aggregate them to busy-ns and call counts per (layer, function),
//! which enter the trace as one *aggregated* child per repetition, laid end
//! to end from the parent's start so a viewer shows each layer's share of
//! the parent. A span's self time is its duration minus its children.

use crate::host::{allocations, now_ns};
use serde_json::{Map, Number, Value};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// `layer.function`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// `Some(calls)` for an aggregated child (its interval is synthetic,
    /// its duration is the measured busy time).
    pub aggregated_calls: Option<u64>,
    /// Heap allocations made while the span was open; 0 unless the process
    /// is counting them (`host::count_allocations`).
    pub allocs: u64,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(u32);

/// Records spans in memory. The end-to-end children use it too, but only to
/// time the run calls: two clock reads per call.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Recorder {
    /// Sets the repetition subsequent spans belong to.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now_ns(),
            end_ns: 0,
            rep: self.rep,
            aggregated_calls: None,
            allocs: allocations(),
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `open` and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a harness bug).
    pub fn exit(&mut self, open: Open) -> u64 {
        let end_ns = now_ns();
        assert_eq!(self.open.pop(), Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.allocs = allocations() - span.allocs;
        span.duration_ns()
    }

    /// Adds an aggregated child of `parent`: `busy_ns` of host time spent in
    /// `calls` calls of one function, placed after the children already
    /// added so that siblings do not overlap.
    pub fn add_aggregated(&mut self, parent: u32, name: &'static str, calls: u64, busy_ns: f64) {
        let cursor = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.aggregated_calls.is_some())
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent as usize].start_ns);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns: cursor,
            end_ns: cursor + busy_ns.round() as u64,
            rep: self.spans[parent as usize].rep,
            aggregated_calls: Some(calls),
            allocs: 0,
        });
    }

    /// Adds a real span measured elsewhere (a wrapper's batch-level call)
    /// under the innermost recorded span that contains it.
    pub fn add_measured(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self
            .spans
            .iter()
            .filter(|s| {
                s.aggregated_calls.is_none() && s.start_ns <= start_ns && end_ns <= s.end_ns
            })
            .max_by_key(|s| s.start_ns)
            .map(|s| (s.id, s.rep));
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: parent.map(|(id, _)| id),
            name,
            start_ns,
            end_ns,
            rep: parent.map_or(self.rep, |(_, rep)| rep),
            aggregated_calls: None,
            allocs: 0,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the durations of its
    /// aggregated children (the exact accounting: real chunk spans are a
    /// sample of calls the aggregated children already cover). Negative
    /// when the children overrun the parent.
    pub fn self_ns(&self, id: u32) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.aggregated_calls.is_some())
            .map(Span::duration_ns)
            .sum();
        self.spans[id as usize].duration_ns() as f64 - children as f64
    }

    /// Renders the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, µs timestamps, one track for real spans
    /// and one for aggregated children.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let number = |v: f64| Value::Number(Number::from_f64(v).expect("finite"));
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Map::new();
                args.insert("id", Value::Number(Number::from_u64(u64::from(s.id))));
                args.insert(
                    "parent",
                    s.parent.map_or(Value::Null, |p| {
                        Value::Number(Number::from_u64(u64::from(p)))
                    }),
                );
                args.insert("rep", Value::Number(Number::from_u64(u64::from(s.rep))));
                if let Some(calls) = s.aggregated_calls {
                    args.insert("aggregated", Value::Bool(true));
                    args.insert("calls", Value::Number(Number::from_u64(calls)));
                }
                let mut event = Map::new();
                event.insert("name", Value::String(s.name.to_owned()));
                event.insert("cat", Value::String(workload.to_owned()));
                event.insert("ph", Value::String("X".to_owned()));
                event.insert("ts", number(s.start_ns as f64 / 1e3));
                event.insert("dur", number(s.duration_ns() as f64 / 1e3));
                event.insert("pid", Value::Number(Number::from_u64(1)));
                event.insert(
                    "tid",
                    Value::Number(Number::from_u64(if s.aggregated_calls.is_some() {
                        2
                    } else {
                        1
                    })),
                );
                event.insert("args", Value::Object(args));
                Value::Object(event)
            })
            .collect();
        let mut root = Map::new();
        root.insert("displayTimeUnit", Value::String("ns".to_owned()));
        root.insert("traceEvents", Value::Array(events));
        Value::Object(root).to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_aggregated_children() {
        let mut rec = Recorder::default();
        rec.set_rep(3);
        let rep = rec.enter("bench.rep");
        let run = rec.enter("fabric.switch.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let run_ns = rec.exit(run);
        rec.exit(rep);
        assert!(run_ns >= 2_000_000);
        let run_id = rec
            .spans()
            .iter()
            .find(|s| s.name == "fabric.switch.run")
            .unwrap()
            .id;
        assert_eq!(rec.spans()[run_id as usize].parent, Some(0));
        assert_eq!(rec.spans()[run_id as usize].rep, 3);
        rec.add_aggregated(run_id, "pktbuf.step", 10, 500_000.0);
        rec.add_aggregated(run_id, "traffic.fill_arrivals", 4, 250_000.0);
        let children: Vec<&Span> = rec
            .spans()
            .iter()
            .filter(|s| s.parent == Some(run_id))
            .collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].end_ns, children[1].start_ns, "laid end to end");
        let self_ns = rec.self_ns(run_id);
        assert!((self_ns - (run_ns as f64 - 750_000.0)).abs() < 1.0);
        assert!(self_ns >= 0.0);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut rec = Recorder::default();
        let rep = rec.enter("bench.rep");
        rec.exit(rep);
        rec.add_aggregated(0, "pktbuf.step", 7, 10.0);
        let text = rec.chrome_trace_json("buf_worstcase");
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let first = events[0].as_object().unwrap();
        assert_eq!(first.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(first.get("name").and_then(Value::as_str), Some("bench.rep"));
    }
}
