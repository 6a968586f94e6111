//! Per-queue virtual occupancy counters.

use pktbuf_model::LogicalQueueId;

/// The occupancy counters consulted by the head MMA.
///
/// The counter of a queue does *not* necessarily equal the number of cells
/// physically present in the SRAM (§5.2): it is incremented as soon as a
/// replenishment is *ordered* and decremented when a request leaves the
/// lookahead, so it tracks "cells committed to this queue that the requests
/// currently in the lookahead may consume".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyCounters {
    counters: Vec<i64>,
}

impl OccupancyCounters {
    /// Creates counters for `num_queues` queues, all zero.
    pub fn new(num_queues: usize) -> Self {
        OccupancyCounters {
            counters: vec![0; num_queues],
        }
    }

    /// Number of queues tracked.
    pub fn num_queues(&self) -> usize {
        self.counters.len()
    }

    /// Counter of `queue`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is out of range.
    pub fn get(&self, queue: LogicalQueueId) -> i64 {
        self.counters[queue.as_usize()]
    }

    /// Adds `amount` cells to `queue` (a replenishment of the granularity, or
    /// initial SRAM contents).
    pub fn add(&mut self, queue: LogicalQueueId, amount: i64) {
        self.counters[queue.as_usize()] += amount;
    }

    /// Subtracts one cell from `queue` (a request left the lookahead).
    pub fn take_one(&mut self, queue: LogicalQueueId) {
        self.counters[queue.as_usize()] -= 1;
    }

    /// Direct read-only view of all counters (index = queue index).
    ///
    /// This is the hot-path accessor: the selection policies copy it into a
    /// preallocated scratch buffer instead of cloning a fresh `Vec` per
    /// granularity period.
    pub fn as_slice(&self) -> &[i64] {
        &self.counters
    }

    /// Smallest counter value (useful to assert that no queue went negative,
    /// i.e. that no miss occurred).
    pub fn min(&self) -> i64 {
        self.counters.iter().copied().min().unwrap_or(0)
    }

    /// Sum of all counters.
    pub fn total(&self) -> i64 {
        self.counters.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn add_and_take() {
        let mut c = OccupancyCounters::new(3);
        c.add(q(0), 8);
        c.add(q(2), 4);
        c.take_one(q(0));
        assert_eq!(c.get(q(0)), 7);
        assert_eq!(c.get(q(1)), 0);
        assert_eq!(c.get(q(2)), 4);
        assert_eq!(c.total(), 11);
        assert_eq!(c.min(), 0);
        assert_eq!(c.num_queues(), 3);
        assert_eq!(c.as_slice(), [7, 0, 4]);
    }

    #[test]
    fn counters_may_go_negative_to_reveal_misses() {
        let mut c = OccupancyCounters::new(1);
        c.take_one(q(0));
        assert_eq!(c.get(q(0)), -1);
        assert_eq!(c.min(), -1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let c = OccupancyCounters::new(2);
        let _ = c.get(q(5));
    }
}
