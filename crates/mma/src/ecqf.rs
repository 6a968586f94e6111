//! Earliest Critical Queue First (ECQF) head MMA.

use crate::counters::OccupancyCounters;
use crate::lookahead::LookaheadRegister;
use pktbuf_model::LogicalQueueId;

/// The ECQF policy (§3): the queue whose occupancy counter is exhausted
/// *earliest* by the requests in the lookahead is replenished.
///
/// Definitionally this is a head-to-tail walk decrementing a copy of the
/// occupancy counters until one drops below zero. Implementation-wise the
/// same answer falls out of the lookahead's per-queue position index: queue
/// `q` with counter `c` goes critical exactly at its `(max(c, 0) + 1)`-th
/// pending request, so the earliest critical queue is the one whose
/// `(max(c, 0))`-th indexed position is smallest. That turns an O(L) walk
/// (plus an O(Q) counter snapshot) per granularity period into a single O(Q)
/// scan with no copying — the selected queue is identical.
///
/// With a lookahead of `Q·(B−1)+1` slots there is always at least one critical
/// queue whenever the system is busy, and the SRAM never needs to hold more
/// than `Q·(B−1) + B` cells.
///
/// # Incremental selection
///
/// When driven through [`crate::HeadMmaSubsystem`] (which reports every
/// queue whose counter or pending requests it mutates), the policy
/// maintains a min tournament tree over the per-queue critical positions:
/// each mutation updates one leaf in O(log Q) and selection reads the root in
/// O(1). Used standalone — without change notifications — it falls back to a
/// per-call scan. Both paths compute the identical selection (the tree path
/// `debug_assert`s itself against the scan).
#[derive(Debug, Clone)]
pub struct EcqfMma {
    granularity: usize,
    /// 1-indexed implicit min tree of length `2·leaves`; empty until the
    /// first change notification arrives.
    tree: Vec<u64>,
    leaves: usize,
    /// Queues whose critical position may have moved since the last select.
    /// Change notifications only append here (a few entries per granularity
    /// period); the leaves are refreshed lazily at selection time.
    dirty: Vec<u32>,
    /// Bitmask mirror of `dirty` (bit `q % 64` of word `q / 64`): the same
    /// queue is typically touched several times per granularity period (a
    /// request pushed, one due, a replenishment credited), and deduplicating
    /// at notification time keeps the per-select leaf refresh at one
    /// `critical_position` probe per *distinct* queue.
    dirty_mask: Vec<u64>,
}

/// Sentinel for "this queue has no critical request in the lookahead".
const NO_CRITICAL: u64 = u64::MAX;

impl EcqfMma {
    /// Creates an ECQF policy replenishing `granularity` cells at a time.
    pub fn new(granularity: usize) -> Self {
        EcqfMma {
            granularity: granularity.max(1),
            tree: Vec::new(),
            leaves: 0,
            dirty: Vec::new(),
            dirty_mask: Vec::new(),
        }
    }

    /// Stream position at which `queue_index` goes critical, or
    /// [`NO_CRITICAL`]: with counter `c`, the queue runs dry exactly at its
    /// `(max(c, 0) + 1)`-th pending request.
    fn critical_position(
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
        queue_index: usize,
    ) -> u64 {
        let k = counters.as_slice()[queue_index].max(0) as usize;
        lookahead
            .kth_pending_position(queue_index, k)
            .unwrap_or(NO_CRITICAL)
    }

    fn ensure_leaves(&mut self, num_queues: usize) {
        if self.leaves >= num_queues.max(1) {
            return;
        }
        let new_leaves = num_queues.max(1).next_power_of_two();
        let mut tree = vec![NO_CRITICAL; 2 * new_leaves]; // analyze: allow(hotpath-alloc) — tree regrowth on first sight of a larger queue index; settles during warmup
        for i in 0..self.leaves {
            tree[new_leaves + i] = self.tree[self.leaves + i];
        }
        for i in (1..new_leaves).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        self.tree = tree;
        self.leaves = new_leaves;
    }

    fn set_leaf(&mut self, queue_index: usize, value: u64) {
        let mut i = self.leaves + queue_index;
        if self.tree[i] == value {
            return;
        }
        self.tree[i] = value;
        while i > 1 {
            i /= 2;
            let merged = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == merged {
                break;
            }
            self.tree[i] = merged;
        }
    }

    fn tree_select(&self) -> Option<LogicalQueueId> {
        if self.tree[1] == NO_CRITICAL {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            i = if self.tree[2 * i] <= self.tree[2 * i + 1] {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(LogicalQueueId::new((i - self.leaves) as u32))
    }

    /// Reference selection: probe every queue's critical position. Used when
    /// the policy runs standalone (no change notifications) and to
    /// cross-check the tree in debug builds.
    fn scan_select(
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) -> Option<LogicalQueueId> {
        if lookahead.pending_len() == 0 {
            return None;
        }
        let mut best: Option<(u64, usize)> = None;
        for qi in 0..counters.num_queues() {
            let position = Self::critical_position(counters, lookahead, qi);
            if position == NO_CRITICAL {
                continue;
            }
            if best.is_none_or(|(bp, _)| position < bp) {
                best = Some((position, qi));
            }
        }
        best.map(|(_, qi)| LogicalQueueId::new(qi as u32))
    }

    /// Selects the queue to replenish — the earliest critical one — given
    /// the current occupancy counters and lookahead contents. Returns `None`
    /// when no queue goes critical within the lookahead.
    pub fn select(
        &mut self,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) -> Option<LogicalQueueId> {
        if self.dirty.is_empty() && self.tree.len() <= 1 {
            // Standalone use without change notifications.
            return Self::scan_select(counters, lookahead);
        }
        self.ensure_leaves(counters.num_queues());
        while let Some(qi) = self.dirty.pop() {
            self.dirty_mask[qi as usize / 64] &= !(1 << (qi % 64));
            let qi = qi as usize;
            self.set_leaf(qi, Self::critical_position(counters, lookahead, qi));
        }
        let picked = self.tree_select();
        debug_assert_eq!(
            picked,
            Self::scan_select(counters, lookahead),
            "ECQF tree diverged from the reference scan"
        );
        picked
    }

    /// Granularity (cells per replenishment) this policy was configured with.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Policy name (for reports and `Debug`).
    pub fn name(&self) -> &'static str {
        "ECQF"
    }

    /// Notes that `queue`'s counter or pending-request set just changed.
    /// [`crate::HeadMmaSubsystem`] calls this after every mutation so the
    /// critical-position tree stays in sync.
    pub(crate) fn note_queue_changed(&mut self, queue: LogicalQueueId) {
        // Defer the leaf refresh to selection time: notifications arrive every
        // slot, selections once per granularity period. A queue already
        // marked dirty needs no second entry.
        let qi = queue.index();
        let word = qi as usize / 64;
        if word >= self.dirty_mask.len() {
            self.dirty_mask.resize(word + 1, 0);
        }
        let bit = 1u64 << (qi % 64);
        if self.dirty_mask[word] & bit == 0 {
            self.dirty_mask[word] |= bit;
            self.dirty.push(qi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    /// The worked example of Figure 3: Q = 4, B = 3, L = 6, occupancies
    /// (1, 3, 1, 1), lookahead = Q1 Q1 Q1 Q3 Q3 Q6(empty). ECQF must pick Q1.
    #[test]
    fn figure3_example_selects_queue_1() {
        let mut counters = OccupancyCounters::new(4);
        counters.add(q(0), 1);
        counters.add(q(1), 3);
        counters.add(q(2), 1);
        counters.add(q(3), 1);
        let mut l = LookaheadRegister::new(6);
        for i in [0u32, 0, 0, 2, 2] {
            l.push(Some(q(i)));
        }
        l.push(None);
        let mut ecqf = EcqfMma::new(3);
        assert_eq!(ecqf.select(&counters, &l), Some(q(0)));
    }

    #[test]
    fn no_critical_queue_returns_none() {
        let mut counters = OccupancyCounters::new(2);
        counters.add(q(0), 5);
        counters.add(q(1), 5);
        let mut l = LookaheadRegister::new(4);
        for i in [0u32, 1, 0, 1] {
            l.push(Some(q(i)));
        }
        let mut ecqf = EcqfMma::new(3);
        assert_eq!(ecqf.select(&counters, &l), None);
    }

    #[test]
    fn earliest_not_most_starved_queue_wins() {
        // Queue 1 will go critical at lookahead position 2; queue 0 would go
        // critical later even though it has more pending requests overall.
        let mut counters = OccupancyCounters::new(2);
        counters.add(q(0), 3);
        counters.add(q(1), 1);
        let mut l = LookaheadRegister::new(8);
        for i in [0u32, 1, 1, 0, 0, 0, 0, 0] {
            l.push(Some(q(i)));
        }
        let mut ecqf = EcqfMma::new(4);
        assert_eq!(ecqf.select(&counters, &l), Some(q(1)));
    }

    #[test]
    fn idle_slots_are_skipped() {
        let mut counters = OccupancyCounters::new(1);
        counters.add(q(0), 1);
        let mut l = LookaheadRegister::new(4);
        l.push(None);
        l.push(None);
        l.push(Some(q(0)));
        l.push(Some(q(0)));
        let mut ecqf = EcqfMma::new(2);
        assert_eq!(ecqf.select(&counters, &l), Some(q(0)));
        assert_eq!(ecqf.name(), "ECQF");
        assert_eq!(ecqf.granularity(), 2);
    }

    #[test]
    fn zero_granularity_is_clamped() {
        let ecqf = EcqfMma::new(0);
        assert_eq!(ecqf.granularity(), 1);
    }

    /// The incremental tree must select exactly what the reference scan
    /// selects, on every granularity period of random request streams
    /// (idle slots, negative counters and Q > 64 included). The tree checks
    /// itself with a `debug_assert`; this runs the comparison in release.
    #[test]
    fn tree_matches_the_reference_scan() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..40 {
            let num_queues = 1 + next(130) as usize;
            let granularity = 1 + next(6) as usize;
            let lookahead = num_queues * (granularity - 1) + 1;
            let mut mma = crate::HeadMmaSubsystem::with_policy(
                EcqfMma::new(granularity),
                lookahead,
                num_queues,
            );
            for qi in 0..num_queues as u32 {
                mma.preload(q(qi), next(2 * granularity as u64) as i64);
            }
            for slot in 0..2_000u64 {
                let request = (next(8) != 0).then(|| q(next(num_queues as u64) as u32));
                mma.on_request(request);
                if slot % granularity as u64 == 0 {
                    let expected = EcqfMma::scan_select(mma.counters(), mma.lookahead());
                    assert_eq!(
                        mma.select_replenishment(),
                        expected,
                        "case {case} (Q = {num_queues}, B = {granularity}), slot {slot}"
                    );
                }
            }
        }
    }
}
