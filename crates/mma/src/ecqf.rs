//! Earliest Critical Queue First (ECQF) head MMA.

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

use crate::counters::OccupancyCounters;
use crate::lookahead::LookaheadRegister;
use pktbuf_model::LogicalQueueId;

/// The ECQF policy (§3): the queue whose occupancy counter is exhausted
/// *earliest* by the requests in the lookahead is replenished.
///
/// Definitionally this is a head-to-tail walk decrementing a copy of the
/// occupancy counters until one drops below zero. The same answer falls out
/// of the lookahead's per-queue chains of pending requests: queue `q` with
/// counter `c` goes critical exactly at its `(max(c, 0) + 1)`-th pending
/// request, so the earliest critical queue is the one whose
/// `max(c, 0)`-th (0-based) pending position is smallest. [`EcqfMma::select`]
/// probes that position for every queue.
///
/// With a lookahead of `Q·(B−1)+1` slots there is always at least one critical
/// queue whenever the system is busy, and the SRAM never needs to hold more
/// than `Q·(B−1) + B` cells.
///
/// # Incremental selection
///
/// [`crate::HeadMmaSubsystem`] selects without the scan: it keeps each
/// queue's critical request marked in a bitmap over the lookahead ring,
/// moving a mark in O(1) when a request enters or falls due and walking it
/// `B` links at most when a replenishment is credited, and selects the queue
/// at the first set bit after the ring head (⌈L/64⌉ words). Critical
/// requests sit at distinct stream positions, so that is exactly the scan's
/// argmin; in debug builds every selection is checked against the scan.
#[derive(Debug, Clone)]
pub struct EcqfMma {
    granularity: usize,
}

impl EcqfMma {
    /// Creates an ECQF policy replenishing `granularity` cells at a time.
    pub fn new(granularity: usize) -> Self {
        EcqfMma {
            granularity: granularity.max(1),
        }
    }

    /// Selects the queue to replenish — the earliest critical one — given
    /// the current occupancy counters and lookahead contents. Returns `None`
    /// when no queue goes critical within the lookahead. Each probe walks
    /// `max(c, 0)` links; this is the reference the bitmap of
    /// [`crate::HeadMmaSubsystem`] is checked against.
    pub fn select(
        &self,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) -> Option<LogicalQueueId> {
        if lookahead.pending_len() == 0 {
            return None;
        }
        let mut best: Option<(u64, usize)> = None;
        for (qi, &c) in counters.as_slice().iter().enumerate() {
            let Some(position) = lookahead.kth_pending_position(qi, c.max(0) as usize) else {
                continue;
            };
            if best.is_none_or(|(bp, _)| position < bp) {
                best = Some((position, qi));
            }
        }
        best.map(|(_, qi)| LogicalQueueId::new(qi as u32))
    }

    /// Granularity (cells per replenishment) this policy was configured with.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Policy name (for reports and `Debug`).
    pub fn name(&self) -> &'static str {
        "ECQF"
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
        let ecqf = EcqfMma::new(3);
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
        let ecqf = EcqfMma::new(3);
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
        let ecqf = EcqfMma::new(4);
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
        let ecqf = EcqfMma::new(2);
        assert_eq!(ecqf.select(&counters, &l), Some(q(0)));
        assert_eq!(ecqf.name(), "ECQF");
        assert_eq!(ecqf.granularity(), 2);
    }

    #[test]
    fn zero_granularity_is_clamped() {
        let ecqf = EcqfMma::new(0);
        assert_eq!(ecqf.granularity(), 1);
    }

    /// Every chain position the lookahead reports must be the one a naive
    /// head-to-tail walk finds: the first few, the last, one past the end and
    /// the critical one (`max(c, 0)`) of every queue.
    fn assert_positions_match_a_walk(mma: &crate::HeadMmaSubsystem, at: &str) {
        let lookahead = mma.lookahead();
        let mut naive = vec![Vec::new(); mma.counters().num_queues()];
        for (i, request) in lookahead.iter().enumerate() {
            if let Some(queue) = request {
                naive[queue.as_usize()].push(i as u64);
            }
        }
        for (qi, positions) in naive.iter().enumerate() {
            let len = positions.len();
            assert_eq!(lookahead.pending_for(q(qi as u32)), len, "{at}, queue {qi}");
            let critical = mma.counters().as_slice()[qi].max(0) as usize;
            for k in (0..len.min(4)).chain([len.saturating_sub(1), len, critical]) {
                assert_eq!(
                    lookahead.kth_pending_position(qi, k),
                    positions.get(k).copied(),
                    "{at}, queue {qi}, k = {k}"
                );
            }
        }
    }

    /// The subsystem's critical-request bitmap must pick exactly what the
    /// reference scan picks after every call of random request streams, so
    /// that every update rule is reached: idle slots and idle fast-forwards
    /// (the head crossing bitmap words and wrapping the ring), negative
    /// preloads and `-B` rollbacks of a selection, lookaheads shorter than
    /// `Q·(B−1)+1` (requests fall due with `c ≤ 0`) or not a multiple of 64,
    /// `B = 1`, and `Q` up to 130. The subsystem checks itself with a
    /// `debug_assert`; this runs the comparison in release.
    #[test]
    fn critical_bitmap_matches_the_reference_scan() {
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
            let full = num_queues * (granularity - 1) + 1;
            // Every third case runs short of the zero-miss minimum.
            let lookahead = if case % 3 == 2 {
                1 + next(full as u64) as usize
            } else {
                full + next(70) as usize
            };
            let b = granularity as i64;
            let mut mma = crate::HeadMmaSubsystem::with_policy(
                EcqfMma::new(granularity),
                lookahead,
                num_queues,
            );
            let ecqf = EcqfMma::new(granularity);
            let check = |mma: &crate::HeadMmaSubsystem, call: &str, slot: u64| {
                let at = format!(
                    "case {case} (Q = {num_queues}, B = {granularity}, L = {lookahead}), \
                     slot {slot}, after {call}"
                );
                assert_eq!(
                    mma.lookahead().earliest_critical(),
                    ecqf.select(mma.counters(), mma.lookahead()),
                    "{at}"
                );
                assert_positions_match_a_walk(mma, &at);
            };
            for qi in 0..num_queues as u32 {
                mma.preload(q(qi), next(4 * granularity as u64) as i64 - b);
            }
            // Bursts of requests separated by idle stretches long enough to
            // drain the lookahead.
            let mut busy = true;
            for slot in 0..2_000u64 {
                if next(200) == 0 {
                    busy = !busy;
                }
                if !busy && mma.lookahead().pending_len() == 0 && next(4) == 0 {
                    let skip = 1 + next(3 * lookahead as u64 + 130);
                    mma.advance_idle(skip);
                    check(&mma, "advance_idle", slot);
                }
                let request = (busy && next(8) != 0).then(|| q(next(num_queues as u64) as u32));
                mma.on_request(request);
                check(&mma, "on_request", slot);
                if slot % granularity as u64 == 0 {
                    let expected = ecqf.select(mma.counters(), mma.lookahead());
                    let picked = mma.select_replenishment();
                    assert_eq!(picked, expected, "case {case}, slot {slot}: selection");
                    check(&mma, "select_replenishment", slot);
                    if let Some(queue) = picked.filter(|_| next(4) == 0) {
                        mma.preload(queue, -b);
                        check(&mma, "rollback", slot);
                    }
                }
                if next(50) == 0 {
                    let queue = q(next(num_queues as u64) as u32);
                    mma.preload(queue, next(4 * granularity as u64) as i64 - 2 * b);
                    check(&mma, "preload", slot);
                }
            }
        }
    }
}
