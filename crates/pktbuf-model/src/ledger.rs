//! The requestable set: which queues the arbiter may still ask for, and how
//! many cells of each.
//!
//! A buffer promises the arbiter only cells that reached its head path (the
//! paper's system model, §2), so every design keeps a per-queue count of
//! "cells committed minus requests accepted". Request generators ask one
//! question of those counts — *which is the first queue with cells, in cyclic
//! order from here?* — which hardware answers with a priority encoder.
//! [`RequestLedger`] is the software analogue: it keeps a non-zero bitmask
//! beside the counts and answers with a shift and `trailing_zeros`.
//! [`RequestOracle`] is the question itself, so a generator is written once
//! and runs against either the ledger or a plain closure.

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

use crate::LogicalQueueId;

/// What a request generator may ask about the requestable set.
///
/// Closures `Fn(LogicalQueueId) -> u64` are oracles through the blanket impl
/// below and answer [`RequestOracle::first_from`] with the default linear
/// probe — the reference the differential tests compare
/// [`RequestLedger`]'s mask scan against. They stay on it on purpose: a
/// closure can only be asked about one queue at a time.
pub trait RequestOracle {
    /// Number of cells of `queue` the arbiter may still request.
    fn cells(&self, queue: LogicalQueueId) -> u64;

    /// The first queue with requestable cells in the cyclic order
    /// `start, …, span − 1, 0, …, start − 1` (only queues below `span` are
    /// considered), or `None` when none of them has any.
    ///
    /// The default probes [`RequestOracle::cells`] queue by queue, at most
    /// `span` times.
    fn first_from(&self, start: usize, span: usize) -> Option<LogicalQueueId> {
        (start..span)
            .chain(0..start.min(span))
            .map(|qi| LogicalQueueId::new(qi as u32))
            .find(|&queue| self.cells(queue) > 0)
    }
}

impl<F: Fn(LogicalQueueId) -> u64 + ?Sized> RequestOracle for F {
    #[inline]
    fn cells(&self, queue: LogicalQueueId) -> u64 {
        self(queue)
    }
}

/// Per-queue requestable counts, their sum, and a bitmask of the non-zero
/// ones (bit `q % 64` of word `q / 64`), kept in lockstep by
/// [`RequestLedger::credit`] and [`RequestLedger::debit`].
///
/// Counts and mask share one allocation, `[counts…, mask words…]`, so the
/// mask word a credit or debit rewrites sits beside the counts the same slot
/// touches rather than on a cache line of its own; the counts come first so
/// that [`RequestLedger::get`] — asked 8–16 times per buffer-step inside a
/// switch — indexes from the base. `credit` and `debit` rewrite the queue's
/// mask bit from its new count unconditionally: a branch on the 0 ↔ non-0
/// crossing would be data-dependent (in-fabric queues hover around zero),
/// and the write goes to a line the count has just dirtied.
#[derive(Debug, Clone)]
pub struct RequestLedger {
    /// `[counts…, mask words…]`, split at `queues`.
    slots: Vec<u64>,
    queues: usize,
    total: u64,
}

impl RequestLedger {
    /// Creates an all-zero ledger over `num_queues` queues.
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    pub fn new(num_queues: usize) -> Self {
        RequestLedger {
            slots: vec![0; num_queues + num_queues.div_ceil(64)],
            queues: num_queues,
            total: 0,
        }
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues
    }

    /// Requestable cells of `queue`.
    #[inline]
    pub fn get(&self, queue: LogicalQueueId) -> u64 {
        self.slots[..self.queues][queue.as_usize()]
    }

    /// Σ counts — the O(1) "is anything requestable at all" probe.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `cells` more cells of `queue` became requestable.
    #[inline]
    pub fn credit(&mut self, queue: LogicalQueueId, cells: u64) {
        let qi = queue.as_usize();
        let (counts, mask) = self.slots.split_at_mut(self.queues);
        counts[qi] += cells;
        self.total += cells;
        mask[qi / 64] |= u64::from(counts[qi] > 0) << (qi % 64);
    }

    /// One request for `queue` was accepted. A request for a queue with no
    /// requestable cells (a misbehaving source) leaves the ledger unchanged.
    #[inline]
    pub fn debit(&mut self, queue: LogicalQueueId) {
        let qi = queue.as_usize();
        let (counts, mask) = self.slots.split_at_mut(self.queues);
        if counts[qi] == 0 {
            return;
        }
        counts[qi] -= 1;
        self.total -= 1;
        mask[qi / 64] &= !(u64::from(counts[qi] == 0) << (qi % 64));
    }

    /// Lowest set mask bit in `lo..hi`; the caller guarantees
    /// `hi <= num_queues`.
    #[inline]
    fn first_set(&self, lo: usize, hi: usize) -> Option<LogicalQueueId> {
        if lo >= hi {
            return None;
        }
        let last = (hi - 1) / 64;
        let below_hi = u64::MAX >> (63 - (hi - 1) % 64);
        let mask = &self.slots[self.queues..];
        let mut word = lo / 64;
        let mut bits = mask[word] & (u64::MAX << (lo % 64));
        while bits == 0 && word < last {
            word += 1;
            bits = mask[word];
        }
        if word == last {
            bits &= below_hi;
        }
        (bits != 0).then(|| LogicalQueueId::new((word * 64) as u32 + bits.trailing_zeros()))
    }
}

impl RequestOracle for RequestLedger {
    #[inline]
    fn cells(&self, queue: LogicalQueueId) -> u64 {
        self.get(queue)
    }

    /// Shift + `trailing_zeros` over the mask words: `start..span` first,
    /// then the wrap `0..start`.
    #[inline]
    fn first_from(&self, start: usize, span: usize) -> Option<LogicalQueueId> {
        if self.total == 0 {
            return None;
        }
        let span = span.min(self.num_queues());
        let start = start.min(span);
        self.first_set(start, span)
            .or_else(|| self.first_set(0, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One word, a partial word, both sides of the word boundary, and a
    /// partial third word.
    const QUEUE_COUNTS: [usize; 6] = [1, 7, 63, 64, 65, 130];

    fn q(i: usize) -> LogicalQueueId {
        LogicalQueueId::new(i as u32)
    }

    /// The reference: the trait's default probe over a closure reading the
    /// same counts.
    fn linear(ledger: &RequestLedger, start: usize, span: usize) -> Option<LogicalQueueId> {
        let counts = |queue: LogicalQueueId| ledger.get(queue);
        counts.first_from(start, span)
    }

    fn assert_consistent(ledger: &RequestLedger) {
        let n = ledger.num_queues();
        for word in 0..n.div_ceil(64) {
            for bit in 0..64 {
                let qi = word * 64 + bit;
                let set = ledger.slots[n + word] >> bit & 1 == 1;
                assert_eq!(set, qi < n && ledger.get(q(qi)) > 0, "bit {qi} of {n}");
            }
        }
        assert_eq!(
            ledger.total(),
            (0..n).map(|qi| ledger.get(q(qi))).sum::<u64>()
        );
    }

    #[test]
    fn a_single_set_queue_is_found_from_every_start() {
        for n in QUEUE_COUNTS {
            for only in 0..n {
                let mut ledger = RequestLedger::new(n);
                ledger.credit(q(only), 3);
                assert_consistent(&ledger);
                for start in 0..n {
                    assert_eq!(ledger.first_from(start, n), Some(q(only)), "Q={n}");
                }
            }
        }
    }

    /// With `start` strictly between two set queues the scan must take the
    /// upper one, and from above the upper one it must wrap to the lower —
    /// seeing, in `start`'s own word, only the bits below `start`.
    #[test]
    fn the_wrap_sees_only_bits_below_start() {
        for n in QUEUE_COUNTS {
            for lower in 0..n {
                for upper in lower + 1..n {
                    let mut ledger = RequestLedger::new(n);
                    ledger.credit(q(lower), 1);
                    ledger.credit(q(upper), 1);
                    for start in 0..n {
                        let want = if start > lower && start <= upper {
                            upper
                        } else {
                            lower
                        };
                        assert_eq!(ledger.first_from(start, n), Some(q(want)));
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_ledger_sets_exactly_the_low_q_bits() {
        for n in QUEUE_COUNTS {
            let mut ledger = RequestLedger::new(n);
            for qi in 0..n {
                ledger.credit(q(qi), 2);
            }
            assert_consistent(&ledger);
            assert_eq!(ledger.total(), 2 * n as u64);
            for start in 0..n {
                assert_eq!(ledger.first_from(start, n), Some(q(start)));
            }
            for qi in 0..n {
                ledger.debit(q(qi));
                ledger.debit(q(qi));
            }
            assert_consistent(&ledger);
            assert_eq!(ledger.total(), 0);
        }
    }

    #[test]
    fn queues_at_or_above_the_span_are_ignored() {
        for n in QUEUE_COUNTS {
            for span in 1..n {
                let mut ledger = RequestLedger::new(n);
                ledger.credit(q(span), 1);
                ledger.credit(q(n - 1), 1);
                for start in 0..span {
                    assert_eq!(ledger.first_from(start, span), None);
                }
                ledger.credit(q(span - 1), 1);
                for start in 0..span {
                    assert_eq!(ledger.first_from(start, span), Some(q(span - 1)));
                }
            }
        }
    }

    #[test]
    fn empty_spans_and_empty_ledgers_find_nothing() {
        let mut ledger = RequestLedger::new(0);
        assert_eq!(ledger.num_queues(), 0);
        assert_eq!(ledger.first_from(0, 0), None);
        assert_eq!(ledger.first_from(0, 5), None);
        for n in QUEUE_COUNTS {
            ledger = RequestLedger::new(n);
            for start in 0..n {
                assert_eq!(ledger.first_from(start, n), None);
            }
            ledger.credit(q(0), 1);
            assert_eq!(ledger.first_from(0, 0), None);
            // A span past the last queue is clamped, never indexed.
            assert_eq!(ledger.first_from(0, n + 64), Some(q(0)));
            assert_eq!(ledger.first_from(n + 64, n + 64), Some(q(0)));
        }
    }

    #[test]
    fn debit_of_an_empty_queue_and_credit_of_nothing_change_nothing() {
        let mut ledger = RequestLedger::new(65);
        ledger.debit(q(64));
        ledger.credit(q(64), 0);
        assert_eq!((ledger.get(q(64)), ledger.total()), (0, 0));
        assert_consistent(&ledger);
        assert_eq!(ledger.first_from(0, 65), None);
        ledger.credit(q(64), 1);
        ledger.debit(q(64));
        ledger.debit(q(64));
        assert_eq!((ledger.get(q(64)), ledger.total()), (0, 0));
        assert_consistent(&ledger);
    }

    /// Index `num_queues` is the first mask word, not a count.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn reads_past_the_last_queue_panic() {
        RequestLedger::new(7).get(q(7));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn writes_past_the_last_queue_panic() {
        RequestLedger::new(7).credit(q(7), 1);
    }

    /// Differential: after every step of a seeded random credit/debit walk
    /// the mask scan answers every `(start, span)` exactly as the linear
    /// probe does, and mask, counts and total agree.
    #[test]
    fn mask_scan_equals_linear_probe_under_random_updates() {
        for n in QUEUE_COUNTS {
            // SplitMix64: this crate has no `rand`, and any fixed stream does.
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
            let mut draw = move |below: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % below as u64) as usize
            };
            let mut ledger = RequestLedger::new(n);
            for _ in 0..200 {
                let queue = q(draw(n));
                // Debits outnumber credits so queues keep crossing zero.
                if draw(3) == 0 {
                    ledger.credit(queue, draw(3) as u64);
                } else {
                    ledger.debit(queue);
                }
                assert_consistent(&ledger);
                for span in 0..=n {
                    for start in 0..=span {
                        assert_eq!(
                            ledger.first_from(start, span),
                            linear(&ledger, start, span),
                            "Q={n} start={start} span={span}"
                        );
                    }
                }
            }
        }
    }
}
