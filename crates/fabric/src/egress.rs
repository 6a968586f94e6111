//! Egress ports: the output side of the fabric.
//!
//! An egress port transmits at a configurable line rate — one cell every
//! `period` slots (`period == 1` is full line rate) — and throttles the
//! crossbar through a single-credit token: the arbiter may only match an
//! output whose credit is available, and a match consumes it. Cells granted
//! by the ingress buffers land in a short FIFO (pipeline delays differ per
//! ingress design, so two cells matched in different slots can surface in the
//! same one) and leave at the line-rate cadence, where the end-to-end latency
//! — transmit slot minus line-side arrival slot — is recorded.

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

use obs::Log2Histogram;
use pktbuf_model::Cell;
use std::collections::VecDeque;

/// One egress port: line-rate credit, transmit FIFO and delivery statistics.
#[derive(Debug)]
pub struct EgressPort {
    /// Slots per transmitted cell (1 = full line rate).
    period: u64,
    /// Matching credit: at most one, accrued once per period.
    credits: u64,
    /// Granted cells awaiting transmission.
    queue: VecDeque<Cell>,
    /// Cells transmitted onto the output line.
    transmitted: u64,
    /// Sum of end-to-end latencies (slots) over transmitted cells.
    latency_sum: u64,
    /// Largest end-to-end latency (slots) observed.
    latency_max: u64,
    /// Deepest the transmit FIFO has been.
    peak_depth: usize,
    /// Optional log2 latency histogram; `None` (the default) records nothing
    /// and keeps the port byte-identical to the uninstrumented path. Boxed:
    /// it is cold state, and inline it would be most of the port.
    latency_hist: Option<Box<Log2Histogram>>,
}

// The switch walks every port's credit and FIFO each slot, so the port holds
// only hot state: the inline histogram made it 640 bytes, 88 with the box.
const _: () = assert!(
    std::mem::size_of::<EgressPort>() <= 96,
    "EgressPort must stay within 96 bytes (it was 640 with the latency histogram inline, 88 boxed)"
);

/// Number of accrual points (multiples of `period`) in `[0, end)`.
fn accruals_before(end: u64, period: u64) -> u64 {
    end.div_ceil(period)
}

impl EgressPort {
    /// Creates an egress port transmitting one cell every `period` slots
    /// (`0` is treated as `1`).
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(period: u64) -> Self {
        EgressPort {
            period: period.max(1),
            credits: 0,
            queue: VecDeque::new(),
            transmitted: 0,
            latency_sum: 0,
            latency_max: 0,
            peak_depth: 0,
            latency_hist: None,
        }
    }

    /// Arms the per-port latency histogram. Call before the first slot; the
    /// histogram then records every transmitted cell's end-to-end latency.
    pub fn arm_latency_hist(&mut self) {
        self.latency_hist = Some(Box::default());
    }

    /// The armed latency histogram, if any.
    pub fn latency_hist(&self) -> Option<&Log2Histogram> {
        self.latency_hist.as_deref()
    }

    /// Accrues the line-rate credit at the start of slot `slot`.
    #[inline]
    pub fn begin_slot(&mut self, slot: u64) {
        if slot.is_multiple_of(self.period) {
            self.credits = 1;
        }
    }

    /// Whether the arbiter may match this output this slot.
    #[inline]
    pub fn ready(&self) -> bool {
        self.credits > 0
    }

    /// Consumes the matching credit (the arbiter matched this output).
    #[inline]
    pub fn consume_credit(&mut self) {
        debug_assert!(self.credits > 0, "matched an output without credit");
        self.credits = 0;
    }

    /// Enqueues a cell granted by an ingress buffer.
    #[inline]
    pub fn push(&mut self, cell: Cell) {
        self.queue.push_back(cell);
        self.peak_depth = self.peak_depth.max(self.queue.len());
    }

    /// Transmits at the end of slot `slot` if the cadence allows, recording
    /// the transmitted cell's end-to-end latency. Returns the transmitted
    /// cell so that composed fabrics (the Clos layer) can forward it onto an
    /// inter-stage link; standalone switches simply drop it.
    #[inline]
    pub fn end_slot(&mut self, slot: u64) -> Option<Cell> {
        if !slot.is_multiple_of(self.period) {
            return None;
        }
        let cell = self.queue.pop_front()?;
        let latency = slot.saturating_sub(cell.arrival_slot());
        self.transmitted += 1;
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        if let Some(hist) = self.latency_hist.as_mut() {
            hist.record(latency);
        }
        Some(cell)
    }

    /// Fast-forwards over `slots` slots starting at `slot` in which the port
    /// is provably idle (empty FIFO — the caller checks): only the credit
    /// accrual is observable, computed arithmetically.
    pub fn advance_idle(&mut self, slot: u64, slots: u64) {
        debug_assert!(self.queue.is_empty(), "idle fast-forward with queued cells");
        let accrual_points =
            accruals_before(slot + slots, self.period) - accruals_before(slot, self.period);
        if accrual_points > 0 {
            self.credits = 1;
        }
    }

    /// Whether the transmit FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Current transmit-FIFO depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Cells transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Deepest the transmit FIFO has been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Largest end-to-end latency observed (slots).
    pub fn max_latency(&self) -> u64 {
        self.latency_max
    }

    /// Mean end-to-end latency over transmitted cells (slots).
    pub fn mean_latency(&self) -> f64 {
        if self.transmitted == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.transmitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::LogicalQueueId;

    fn cell(seq: u64, arrival: u64) -> Cell {
        Cell::new(LogicalQueueId::new(0), seq, arrival)
    }

    #[test]
    fn full_rate_port_transmits_every_slot() {
        let mut port = EgressPort::new(1);
        for t in 0..4u64 {
            port.begin_slot(t);
            assert!(port.ready());
            port.consume_credit();
            port.push(cell(t, t));
            port.end_slot(t);
        }
        assert_eq!(port.transmitted(), 4);
        assert_eq!(port.max_latency(), 0);
        assert_eq!(port.peak_depth(), 1);
        assert!(port.is_empty());
    }

    #[test]
    fn slower_port_paces_credits_and_transmissions() {
        let mut port = EgressPort::new(4);
        let mut ready_slots = Vec::new();
        port.push(cell(0, 0));
        port.push(cell(1, 0));
        for t in 0..12u64 {
            port.begin_slot(t);
            if port.ready() {
                ready_slots.push(t);
                port.consume_credit();
            }
            port.end_slot(t);
        }
        assert_eq!(ready_slots, vec![0, 4, 8]);
        assert_eq!(port.transmitted(), 2, "one cell per period");
        assert_eq!(port.max_latency(), 4, "second cell waited a period");
    }

    #[test]
    fn idle_fast_forward_matches_stepping() {
        for period in [1u64, 3, 7] {
            for start in [0u64, 1, 5, 6] {
                for gap in [1u64, 2, 12, 30] {
                    let mut stepped = EgressPort::new(period);
                    let mut skipped = EgressPort::new(period);
                    // Drain both ports' initial credit at `start`.
                    for port in [&mut stepped, &mut skipped] {
                        port.begin_slot(start);
                        if port.ready() {
                            port.consume_credit();
                        }
                        port.end_slot(start);
                    }
                    for t in start + 1..start + 1 + gap {
                        stepped.begin_slot(t);
                        stepped.end_slot(t);
                    }
                    skipped.advance_idle(start + 1, gap);
                    assert_eq!(
                        stepped.ready(),
                        skipped.ready(),
                        "period {period}, start {start}, gap {gap}"
                    );
                }
            }
        }
    }
}
