//! The latency shift register (§5.4).

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

use pktbuf_model::LogicalQueueId;

/// A fixed-delay line inserted between the MMA lookahead and the SRAM read.
///
/// Because the DSS may delay and reorder the MMA's replenishment requests, a
/// request leaving the lookahead might ask for a cell whose block has not been
/// written into the SRAM yet. Delaying every grant by the worst-case DSS delay
/// (equation (3)) restores the zero-miss guarantee at the price of a fixed
/// additional latency and a slightly larger SRAM. RADS uses the same line,
/// `B` slots deep, as the stage its `B`-slot DRAM read occupies.
#[derive(Debug, Clone)]
pub struct LatencyRegister {
    /// Fixed ring, pre-filled with idle slots: each push replaces the entry
    /// at the cursor, which entered the line `capacity` pushes earlier. A
    /// line holding no request needs no idle fast-forward: rotating a ring
    /// of `None`s changes nothing a later push can observe.
    slots: Box<[Option<LogicalQueueId>]>,
    head: usize,
}

impl LatencyRegister {
    /// Creates a delay line of `capacity` slots. A capacity of zero forwards
    /// requests immediately.
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    pub fn new(capacity: usize) -> Self {
        LatencyRegister {
            slots: vec![None; capacity].into_boxed_slice(),
            head: 0,
        }
    }

    /// Length of the delay line in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of requests currently in flight inside the register.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|r| r.is_some()).count()
    }

    /// Pushes the request leaving the lookahead this slot and returns the one
    /// that completed its extra delay (`None` while the line is still
    /// passing on the idle slots it started with).
    #[inline(always)]
    pub fn push(&mut self, request: Option<LogicalQueueId>) -> Option<LogicalQueueId> {
        let Some(slot) = self.slots.get_mut(self.head) else {
            return request;
        };
        let out = std::mem::replace(slot, request);
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn zero_capacity_is_passthrough() {
        let mut l = LatencyRegister::new(0);
        assert_eq!(l.push(Some(q(3))), Some(q(3)));
        assert_eq!(l.push(None), None);
        assert_eq!(l.capacity(), 0);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn requests_emerge_after_exactly_capacity_slots() {
        let mut l = LatencyRegister::new(3);
        assert_eq!(l.push(Some(q(1))), None);
        assert_eq!(l.push(Some(q(2))), None);
        assert_eq!(l.push(None), None);
        assert_eq!(l.in_flight(), 2);
        assert_eq!(l.push(Some(q(3))), Some(q(1)));
        assert_eq!(l.push(None), Some(q(2)));
        assert_eq!(l.push(None), None); // the idle slot emerges
        assert_eq!(l.push(None), Some(q(3)));
    }
}
