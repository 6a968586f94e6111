//! Tail-side Memory Management Algorithm.

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

/// The simple threshold tail MMA of §3: write back (a batch of `B` cells from)
/// any queue whose occupancy reached the granularity. Among eligible queues
/// the fullest one is chosen, which also minimises the tail-SRAM high-water
/// mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdTailMma {
    granularity: usize,
}

impl ThresholdTailMma {
    /// Creates a threshold tail MMA with the given granularity.
    pub fn new(granularity: usize) -> Self {
        ThresholdTailMma {
            granularity: granularity.max(1),
        }
    }

    /// Worst-case tail-SRAM size with this policy: `Q·(B−1) + B` cells
    /// (every queue may sit just below the threshold plus one full batch
    /// arriving before the next writeback opportunity).
    pub fn required_sram_cells(num_queues: usize, granularity: usize) -> usize {
        num_queues * (granularity - 1) + granularity
    }

    /// Selects a queue to write back given the tail-SRAM occupancy of every
    /// queue (in cells), visiting only the queues whose bit is set in
    /// `eligible` (bit `q % 64` of word `q / 64`). Returns `None` when no
    /// queue is eligible.
    ///
    /// When the mask marks exactly the queues at or above the threshold —
    /// the invariant the caller's occupancy tracker maintains — the result
    /// is identical to scanning every queue (highest occupancy wins, ties
    /// break towards the lower index), at O(eligible) instead of O(Q).
    pub fn select_masked(&self, occupancies: &[usize], eligible: &[u64]) -> Option<LogicalQueueId> {
        let mut best: Option<(usize, usize)> = None;
        for (w, word) in eligible.iter().copied().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let occ = occupancies[i];
                debug_assert!(occ >= self.granularity, "mask out of sync");
                if best.is_none_or(|(best_occ, _)| occ > best_occ) {
                    best = Some((occ, i));
                }
            }
        }
        best.map(|(_, i)| LogicalQueueId::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ThresholdTailMma {
        fn granularity(self) -> usize {
            self.granularity
        }

        /// Reference selection: scan every queue, highest occupancy at or
        /// above the threshold wins, ties break towards the lower index.
        fn select(&mut self, occupancies: &[usize]) -> Option<LogicalQueueId> {
            let mut best: Option<(usize, usize)> = None;
            for (i, occ) in occupancies.iter().copied().enumerate() {
                if occ < self.granularity {
                    continue;
                }
                if best.is_none_or(|(best_occ, _)| occ > best_occ) {
                    best = Some((occ, i));
                }
            }
            best.map(|(_, i)| LogicalQueueId::new(i as u32))
        }
    }

    #[test]
    fn selects_fullest_eligible_queue() {
        let mut t = ThresholdTailMma::new(4);
        assert_eq!(t.select(&[3, 7, 5, 2]), Some(LogicalQueueId::new(1)));
        assert_eq!(t.select(&[3, 2, 1, 0]), None);
        assert_eq!(t.granularity(), 4);
    }

    #[test]
    fn ties_break_towards_lower_index() {
        let mut t = ThresholdTailMma::new(2);
        assert_eq!(t.select(&[5, 5, 5]), Some(LogicalQueueId::new(0)));
    }

    #[test]
    fn required_sram_matches_formula() {
        assert_eq!(ThresholdTailMma::required_sram_cells(4, 3), 4 * 2 + 3);
        assert_eq!(
            ThresholdTailMma::required_sram_cells(512, 32),
            512 * 31 + 32
        );
    }

    #[test]
    fn zero_granularity_is_clamped() {
        let t = ThresholdTailMma::new(0);
        assert_eq!(t.granularity(), 1);
    }

    /// `select_masked` with the mask built as "occupancy ≥ B" must pick the
    /// same queue as the full scan. Q runs up to 200 so masks span several
    /// words, and occupancies cluster around the threshold so ties at `B`
    /// (and above it) are common.
    #[test]
    fn select_masked_matches_the_full_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            // xorshift64: enough spread for occupancy vectors.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..2_000 {
            let num_queues = 1 + next(200) as usize;
            let granularity = 1 + next(8) as usize;
            let mut t = ThresholdTailMma::new(granularity);
            let occupancies: Vec<usize> = (0..num_queues)
                .map(|_| match next(4) {
                    0 => 0,
                    1 => granularity,
                    _ => next(2 * granularity as u64 + 2) as usize,
                })
                .collect();
            let mut eligible = vec![0u64; num_queues.div_ceil(64)];
            for (q, occ) in occupancies.iter().enumerate() {
                if *occ >= granularity {
                    eligible[q / 64] |= 1 << (q % 64);
                }
            }
            assert_eq!(
                t.select_masked(&occupancies, &eligible),
                t.select(&occupancies),
                "case {case}: Q = {num_queues}, B = {granularity}, {occupancies:?}"
            );
        }
    }
}
