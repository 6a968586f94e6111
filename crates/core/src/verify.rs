//! Delivery verification: FIFO order and request/grant matching.

use pktbuf_model::{Cell, LogicalQueueId};

/// Checks that every granted cell belongs to the requested queue and that the
/// cells of each queue are delivered in arrival (FIFO) order.
///
/// A cell the tail SRAM dropped leaves a gap in its queue's sequence
/// numbers. The buffer notes each drop ([`DeliveryVerifier::note_drop`]),
/// and a grant that skips no more sequence numbers than its queue has
/// noted drops pending is in order, so a lost cell is counted once, as a
/// drop, and not again as an order violation.
///
/// Drops cover gaps by count per queue, not by sequence number. A tail
/// drop is noted when the cell arrives, before earlier cells of its queue
/// are granted, so a pending drop can cover the gap of an earlier cell lost
/// some other way: that loss then shows as a violation only at the dropped
/// cell's gap, and not at all if the run ends before it is granted past.
///
/// The verifier is part of the library (rather than only of the tests) so that
/// examples and long-running experiments can assert the worst-case guarantees
/// continuously at negligible cost.
#[derive(Debug, Clone)]
pub struct DeliveryVerifier {
    /// Per queue: the next expected sequence number, and the drops noted
    /// that no grant has skipped yet. One allocation for both.
    queues: Vec<(u64, u64)>,
}

impl DeliveryVerifier {
    /// Creates a verifier for `num_queues` queues, expecting each queue's
    /// sequence numbers to start at zero.
    pub fn new(num_queues: usize) -> Self {
        DeliveryVerifier {
            queues: vec![(0, 0); num_queues],
        }
    }

    /// Notes that a cell of `queue` was dropped before it was stored: its
    /// sequence number will never be granted.
    pub fn note_drop(&mut self, queue: LogicalQueueId) {
        if let Some((_, drops)) = self.queues.get_mut(queue.as_usize()) {
            *drops += 1;
        }
    }

    /// Verifies one grant. Returns `true` if the grant is consistent: the
    /// cell belongs to the requested queue and carries that queue's next
    /// sequence number, or skips no more of them than the queue has noted
    /// drops pending.
    ///
    /// A grant ahead of its queue resyncs the queue to it, covered or not,
    /// so one gap is at most one violation. A reordered grant (behind its
    /// queue) and a wrong-queue grant are violations and resync nothing.
    pub fn check(&mut self, requested: LogicalQueueId, cell: &Cell) -> bool {
        let Some((next, drops)) = self.queues.get_mut(requested.as_usize()) else {
            return false;
        };
        if cell.queue() != requested || cell.seq() < *next {
            return false;
        }
        let gap = cell.seq() - *next;
        let covered = gap <= *drops;
        *drops -= gap.min(*drops);
        *next = cell.seq() + 1;
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn in_order_grants_pass() {
        let mut v = DeliveryVerifier::new(2);
        assert!(v.check(q(0), &Cell::new(q(0), 0, 0)));
        assert!(v.check(q(0), &Cell::new(q(0), 1, 0)));
        assert!(v.check(q(1), &Cell::new(q(1), 0, 0)));
    }

    #[test]
    fn out_of_order_and_wrong_queue_are_violations() {
        let mut v = DeliveryVerifier::new(2);
        assert!(!v.check(q(1), &Cell::new(q(0), 0, 0)), "wrong queue");
        assert!(!v.check(q(0), &Cell::new(q(0), 1, 0)), "skipped seq 0");
        assert!(!v.check(q(0), &Cell::new(q(0), 0, 0)), "reordered behind 1");
        assert!(v.check(q(0), &Cell::new(q(0), 2, 0)), "resynced after 1");
    }

    #[test]
    fn out_of_range_queue_is_a_violation() {
        let mut v = DeliveryVerifier::new(1);
        v.note_drop(q(5));
        assert!(!v.check(q(5), &Cell::new(q(5), 0, 0)));
    }

    #[test]
    fn noted_drops_cover_a_gap_once() {
        let mut v = DeliveryVerifier::new(2);
        v.note_drop(q(0));
        v.note_drop(q(0));
        assert!(v.check(q(0), &Cell::new(q(0), 0, 0)));
        // Seqs 1 and 2 were dropped: skipping them is in order.
        assert!(v.check(q(0), &Cell::new(q(0), 3, 0)));
        assert!(v.check(q(0), &Cell::new(q(0), 4, 0)));
        // No drop is left to cover seq 5, and the gap counts once.
        assert!(!v.check(q(0), &Cell::new(q(0), 6, 0)));
        assert!(v.check(q(0), &Cell::new(q(0), 7, 0)));
        // Drops are per queue: queue 1 has none.
        assert!(!v.check(q(1), &Cell::new(q(1), 1, 0)));
    }

    #[test]
    fn an_uncovered_gap_uses_up_the_drops_it_had() {
        let mut v = DeliveryVerifier::new(1);
        v.note_drop(q(0));
        // Three seqs skipped, one drop noted: a violation, and the drop is
        // spent on this gap rather than left to hide a later one.
        assert!(!v.check(q(0), &Cell::new(q(0), 3, 0)));
        assert!(!v.check(q(0), &Cell::new(q(0), 5, 0)));
    }

    #[test]
    fn a_pending_drop_defers_an_earlier_loss_to_its_own_gap() {
        let mut v = DeliveryVerifier::new(1);
        // Seq 3 is tail-dropped (noted on arrival); seq 1 is lost unnoted.
        v.note_drop(q(0));
        assert!(v.check(q(0), &Cell::new(q(0), 0, 0)));
        // The drop is counted per queue, so it covers seq 1's gap ...
        assert!(v.check(q(0), &Cell::new(q(0), 2, 0)));
        // ... and the loss shows at seq 3's gap instead.
        assert!(!v.check(q(0), &Cell::new(q(0), 4, 0)));
    }
}
