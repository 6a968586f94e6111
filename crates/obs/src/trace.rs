//! Cell-lifecycle flight recorder.
//!
//! A [`FlightRecorder`] is a bounded, preallocated ring of typed
//! [`TraceEvent`]s stamped with slot time only — no wall clocks anywhere, so
//! a replayed run traces identically. Each pipeline stage owns its own
//! recorder (single-writer, like every other per-stage structure); at dump
//! time the per-stage rings are merged and sorted by
//! [`TraceEvent::sort_key`], which is a total order, so the merged timeline
//! is independent of the order the rings are merged in.
//!
//! [`chrome_trace_json`] renders a merged timeline in the Chrome trace-event
//! format (`chrome://tracing`, Perfetto): stages map to `pid`, switches to
//! `tid`, slots to `ts`.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

/// What happened to a cell (or a fault window) at a given slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A cell entered the fabric at an ingress external port.
    Inject,
    /// A cell was queued into a virtual output queue.
    VoqEnqueue,
    /// The arbiter granted a VOQ head toward an output.
    Grant,
    /// A cell arrived over an inter-stage link at the consuming stage.
    LinkTraverse,
    /// The transport layer re-sent a previously injected cell.
    Retransmit,
    /// A cell left the fabric at an egress external port.
    EgressTransmit,
    /// A scheduled fault window opened.
    FaultOpen,
    /// A scheduled fault window closed.
    FaultClose,
}

impl EventKind {
    /// Stable event name used in trace dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Inject => "inject",
            Self::VoqEnqueue => "voq-enqueue",
            Self::Grant => "grant",
            Self::LinkTraverse => "link-traverse",
            Self::Retransmit => "retransmit",
            Self::EgressTransmit => "egress-transmit",
            Self::FaultOpen => "fault-open",
            Self::FaultClose => "fault-close",
        }
    }
}

/// Largest capacity a [`FlightRecorder`] preallocates, in events (2^22). A
/// [`TraceEvent`] is 40 bytes, so a full ring reserves 160 MiB per stage —
/// four times the CLI's default `--trace-json` ring; a larger requested
/// capacity is clamped to this.
pub const MAX_TRACE_CAPACITY: usize = 1 << 22;

/// One flight-recorder event. All coordinates are integers so dumps need no
/// string escaping and sort keys are total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Slot at which the event happened.
    pub slot: u64,
    /// Event type.
    pub kind: EventKind,
    /// Pipeline stage index (0 = ingress, 1 = middle, 2 = egress).
    pub stage: u8,
    /// Switch index within the stage.
    pub switch: u32,
    /// Port (input, output or link index — whichever the event concerns).
    pub port: u32,
    /// Source external port of the cell's flow (0 for fault events).
    pub src: u32,
    /// Destination external port of the cell's flow (0 for fault events).
    pub dest: u32,
    /// Flow sequence number of the cell (0 for fault events).
    pub seq: u64,
}

impl TraceEvent {
    /// Total order for merging per-stage rings into one deterministic
    /// timeline.
    #[must_use]
    pub fn sort_key(&self) -> (u64, u8, u8, u32, u32, u32, u32, u64) {
        (
            self.slot,
            self.stage,
            self.kind as u8,
            self.switch,
            self.port,
            self.src,
            self.dest,
            self.seq,
        )
    }
}

/// Arming filter for a [`FlightRecorder`]: restrict recording to a slot
/// window (e.g. a fault window plus margin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFilter {
    /// First slot (inclusive) to record.
    pub from_slot: u64,
    /// Last slot (inclusive) to record.
    pub to_slot: u64,
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self {
            from_slot: 0,
            to_slot: u64::MAX,
        }
    }
}

impl TraceFilter {
    /// Does an event at `slot` pass the filter?
    #[inline]
    #[must_use]
    pub fn admits(&self, slot: u64) -> bool {
        (self.from_slot..=self.to_slot).contains(&slot)
    }
}

/// Bounded ring of [`TraceEvent`]s. Preallocated at arm time; once full,
/// further events only bump a drop counter (the earliest `capacity` admitted
/// events are kept, deterministically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    filter: TraceFilter,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` events (clamped to
    /// [`MAX_TRACE_CAPACITY`]) passing `filter`.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(capacity: usize, filter: TraceFilter) -> Self {
        Self {
            filter,
            events: Vec::with_capacity(capacity.min(MAX_TRACE_CAPACITY)),
            dropped: 0,
        }
    }

    /// Record `event` if it passes the filter and the ring has room.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if !self.filter.admits(event.slot) {
            return;
        }
        if self.events.len() < self.events.capacity() {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that passed the filter after the ring filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the recorder, returning its events.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Merge per-stage event batches into one timeline ordered by
/// [`TraceEvent::sort_key`].
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "merges a dump once, when the report is assembled"
)]
pub fn merge_events(parts: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = parts.into_iter().flatten().collect();
    all.sort_unstable_by_key(TraceEvent::sort_key);
    all
}

/// Render events as Chrome trace-event JSON (load in `chrome://tracing` or
/// Perfetto). Slots become microsecond timestamps; stages become processes
/// and switches become threads. All values are integers or fixed names, so
/// the output needs no escaping and is byte-deterministic.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "serialises a dump once, when the report is assembled"
)]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\
             \"args\":{{\"slot\":{},\"port\":{},\"src\":{},\"dest\":{},\"seq\":{}}}}}",
            ev.kind.name(),
            ev.slot,
            ev.stage,
            ev.switch,
            ev.slot,
            ev.port,
            ev.src,
            ev.dest,
            ev.seq
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::{
        chrome_trace_json, merge_events, EventKind, FlightRecorder, TraceEvent, TraceFilter,
    };

    fn ev(slot: u64, kind: EventKind, stage: u8) -> TraceEvent {
        TraceEvent {
            slot,
            kind,
            stage,
            switch: 1,
            port: 2,
            src: 3,
            dest: 4,
            seq: 5,
        }
    }

    #[test]
    fn filter_admits_by_window() {
        let f = TraceFilter {
            from_slot: 10,
            to_slot: 20,
        };
        assert!(f.admits(10));
        assert!(!f.admits(9));
        assert!(!f.admits(21));
        assert!(TraceFilter::default().admits(0));
    }

    #[test]
    fn ring_bounds_and_drop_count() {
        let mut r = FlightRecorder::new(2, TraceFilter::default());
        for slot in 0..5 {
            r.record(ev(slot, EventKind::Inject, 0));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn merged_timeline_is_order_independent() {
        let a = vec![ev(5, EventKind::Grant, 1), ev(1, EventKind::Inject, 0)];
        let b = vec![
            ev(5, EventKind::VoqEnqueue, 0),
            ev(3, EventKind::LinkTraverse, 2),
        ];
        let m1 = merge_events(vec![a.clone(), b.clone()]);
        let m2 = merge_events(vec![b, a]);
        assert_eq!(m1, m2);
        assert_eq!(m1[0].slot, 1);
        assert_eq!(m1.last().map(|e| e.slot), Some(5));
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let json = chrome_trace_json(&[ev(7, EventKind::FaultOpen, 1)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"fault-open\""));
        assert!(json.contains("\"ts\":7"));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
