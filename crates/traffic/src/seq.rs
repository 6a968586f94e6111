//! Per-queue sequence-number bookkeeping shared by the arrival generators.

use pktbuf_model::{Cell, LogicalQueueId};

/// Tracks the next per-queue sequence number and mints cells.
#[derive(Debug, Clone)]
pub struct SeqTracker {
    next: Vec<u64>,
}

impl SeqTracker {
    /// Creates a tracker starting every queue at sequence zero.
    pub fn new(num_queues: usize) -> Self {
        SeqTracker {
            next: vec![0; num_queues],
        }
    }

    /// Creates a tracker whose every queue starts at `offset` (used after
    /// preloading `offset` cells per queue).
    pub fn with_offset(num_queues: usize, offset: u64) -> Self {
        SeqTracker {
            next: vec![offset; num_queues],
        }
    }

    /// Number of queues tracked.
    pub fn num_queues(&self) -> usize {
        self.next.len()
    }

    /// Mints the next cell of `queue`, arriving at `slot`.
    pub fn mint(&mut self, queue: LogicalQueueId, slot: u64) -> Cell {
        let seq = self.next[queue.as_usize()];
        self.next[queue.as_usize()] += 1;
        Cell::new(queue, seq, slot)
    }

    /// Cells minted so far for `queue`.
    pub fn minted(&self, queue: LogicalQueueId) -> u64 {
        self.next[queue.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mints_consecutive_sequences_per_queue() {
        let mut t = SeqTracker::new(2);
        let q0 = LogicalQueueId::new(0);
        let q1 = LogicalQueueId::new(1);
        assert_eq!(t.mint(q0, 0).seq(), 0);
        assert_eq!(t.mint(q0, 1).seq(), 1);
        assert_eq!(t.mint(q1, 2).seq(), 0);
        assert_eq!(t.minted(q0), 2);
        assert_eq!(t.minted(q1), 1);
        assert_eq!(t.num_queues(), 2);
    }

    #[test]
    fn offset_constructor_continues_numbering() {
        let mut t = SeqTracker::with_offset(1, 64);
        assert_eq!(t.mint(LogicalQueueId::new(0), 0).seq(), 64);
    }
}
