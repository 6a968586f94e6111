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
/// additional latency and a slightly larger SRAM.
#[derive(Debug, Clone)]
pub struct LatencyRegister {
    /// Fixed ring: the delay line fills once and then every push overwrites
    /// the head slot in place (no deque push/pop pair on the slot path).
    slots: Box<[Option<LogicalQueueId>]>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl LatencyRegister {
    /// Creates a delay line of `capacity` slots. A capacity of zero forwards
    /// requests immediately (the RADS degenerate case).
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    pub fn new(capacity: usize) -> Self {
        LatencyRegister {
            slots: vec![None; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            capacity,
        }
    }

    /// Length of the delay line in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of requests currently in flight inside the register.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|r| r.is_some()).count()
    }

    /// Fast-forwards the delay line by `slots` idle pushes at once: exactly
    /// equivalent to calling [`LatencyRegister::push`]`(None)` `slots` times
    /// while **no request is in flight**, but O(1). With an all-idle line,
    /// pushes only rotate the ring cursor (and grow the fill length before
    /// the line first fills); every stored entry is already `None`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if any request is in flight.
    pub fn advance_idle(&mut self, slots: u64) {
        if self.capacity == 0 {
            return;
        }
        debug_assert_eq!(
            self.in_flight(),
            0,
            "advance_idle on a latency register with requests in flight"
        );
        let fill = ((self.capacity - self.len) as u64).min(slots) as usize;
        self.len += fill;
        let remaining = slots - fill as u64;
        self.head = (self.head + (remaining % self.capacity as u64) as usize) % self.capacity;
    }

    /// Pushes the request leaving the lookahead this slot and returns the one
    /// that completed its extra delay (if the register is full).
    pub fn push(&mut self, request: Option<LogicalQueueId>) -> Option<LogicalQueueId> {
        if self.capacity == 0 {
            return request;
        }
        if self.len < self.capacity {
            let mut at = self.head + self.len;
            if at >= self.capacity {
                at -= self.capacity;
            }
            self.slots[at] = request;
            self.len += 1;
            None
        } else {
            let out = std::mem::replace(&mut self.slots[self.head], request);
            self.head += 1;
            if self.head >= self.capacity {
                self.head = 0;
            }
            out
        }
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
