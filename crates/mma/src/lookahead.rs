//! The lookahead shift register of arbiter requests.

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

/// "No slot": the end of a chain, or a queue without a critical request.
pub(crate) const NIL: u32 = u32::MAX;

/// One queue's pending requests, linked oldest-first through the ring.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    /// Ring slot of the oldest pending request (`NIL` when there is none).
    pub(crate) first: u32,
    /// Ring slot of the newest pending request (stale while `len == 0`).
    pub(crate) last: u32,
    /// Number of pending requests.
    pub(crate) len: u32,
    /// Ring slot of the queue's critical request, or `NIL`; maintained by
    /// [`crate::HeadMmaSubsystem`] through [`LookaheadRegister::set_critical`].
    pub(crate) critical: u32,
}

const EMPTY: Chain = Chain {
    first: NIL,
    last: NIL,
    len: 0,
    critical: NIL,
};

/// A fixed-length shift register of arbiter requests.
///
/// Every slot the arbiter pushes one request (or an explicit idle slot) at the
/// tail; the request at the head is the one granted in the current slot. The
/// register therefore delays every request by its length, which is the price
/// paid for letting the MMA see `L` requests into the future.
///
/// Storage is a ring: the register only ever grows to its capacity and then
/// stays there, so a boxed slice with a head cursor replaces push/pop pairs
/// on a deque with a single slot overwrite per slot. Each ring slot holding a
/// request also links to the next pending request of the same queue, so every
/// queue's pending requests form a chain in stream order. The chains carry
/// ECQF's state: one bit per ring slot marks each queue's *critical* request
/// (set by [`crate::HeadMmaSubsystem`]), and the earliest critical queue is
/// the first set bit after the head.
#[derive(Debug, Clone)]
pub struct LookaheadRegister {
    slots: Box<[Option<LogicalQueueId>]>,
    head: usize,
    len: usize,
    /// Number of non-idle entries currently held, maintained on push/shift so
    /// the selection policies can skip scanning an all-idle register.
    pending: usize,
    /// Per ring slot: the slot of the same queue's next pending request, or
    /// `NIL`. Like `chains` and `critical`, empty until the first request, so
    /// building a buffer allocates nothing beyond the ring.
    next: Vec<u32>,
    /// Per queue (grown to the largest queue index seen).
    chains: Vec<Chain>,
    /// One bit per ring slot (bit `s % 64` of word `s / 64`), set at every
    /// queue's critical request.
    critical: Vec<u64>,
}

impl LookaheadRegister {
    /// Creates an empty lookahead of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (ECQF needs at least one slot of
    /// lookahead to see a request before it is due), or if it does not fit
    /// the `u32` ring links.
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lookahead must have at least one slot");
        assert!(
            capacity < NIL as usize,
            "lookahead of {capacity} slots exceeds the ring's u32 links"
        );
        LookaheadRegister {
            slots: vec![None; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            pending: 0,
            next: Vec::new(),
            chains: Vec::new(),
            critical: Vec::new(),
        }
    }

    /// Length of the register in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of requests currently held (including idle slots).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the register holds no requests at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the register is full, i.e. the next push will also pop.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Ring slot of the `i`-th entry from the head.
    fn index(&self, i: usize) -> usize {
        let idx = self.head + i;
        if idx >= self.slots.len() {
            idx - self.slots.len()
        } else {
            idx
        }
    }

    /// Pushes a request (or an idle slot) at the tail. If the register was
    /// full, the head element is shifted out and returned (`Some(head)`),
    /// otherwise `None` is returned and nothing leaves the register yet.
    ///
    /// One pass: the ring slot that receives the new entry is the one the
    /// shifted-out entry leaves, and chains are unlinked or linked only when
    /// a request leaves or enters.
    #[inline]
    pub fn push(&mut self, request: Option<LogicalQueueId>) -> Option<Option<LogicalQueueId>> {
        let (at, shifted) = if self.len < self.slots.len() {
            let at = self.index(self.len);
            self.len += 1;
            (at, None)
        } else {
            let at = self.head;
            self.head = self.index(1);
            (at, Some(self.slots[at]))
        };
        if let Some(Some(due)) = shifted {
            // The due request is the oldest of its queue: unlink the front.
            self.pending -= 1;
            let chain = &mut self.chains[due.as_usize()];
            debug_assert_eq!(chain.first, at as u32, "chain out of stream order");
            chain.first = self.next[at];
            chain.len -= 1;
        }
        self.slots[at] = request;
        if let Some(queue) = request {
            self.link(queue.as_usize(), at as u32);
        }
        shifted
    }

    /// Appends ring slot `at` to the chain of the queue with index `qi`.
    fn link(&mut self, qi: usize, at: u32) {
        if self.next.is_empty() {
            self.next.resize(self.slots.len(), NIL);
            self.critical.resize(self.slots.len().div_ceil(64), 0);
        }
        if qi >= self.chains.len() {
            self.chains.resize(qi + 1, EMPTY);
        }
        self.pending += 1;
        self.next[at as usize] = NIL;
        let chain = &mut self.chains[qi];
        if chain.len == 0 {
            chain.first = at;
        } else {
            self.next[chain.last as usize] = at;
        }
        chain.last = at;
        chain.len += 1;
    }

    /// Fast-forwards the register by `slots` idle pushes at once: exactly
    /// equivalent to calling [`LookaheadRegister::push`]`(None)` `slots`
    /// times, but O(1).
    ///
    /// Only legal while the register holds **no pending requests** — then
    /// every stored entry is an idle slot and no chain or critical bit
    /// exists, so pushing more idle slots only moves the ring cursor (and,
    /// before the register first fills, its length).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if any request is pending.
    pub fn advance_idle(&mut self, slots: u64) {
        debug_assert_eq!(
            self.pending, 0,
            "advance_idle on a lookahead with pending requests"
        );
        let capacity = self.slots.len();
        let fill = ((capacity - self.len) as u64).min(slots) as usize;
        self.len += fill;
        let remaining = slots - fill as u64;
        self.head = (self.head + (remaining % capacity as u64) as usize) % capacity;
    }

    /// The request at the head (the next to be granted), if the register is
    /// non-empty.
    pub fn head(&self) -> Option<Option<LogicalQueueId>> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    /// Iterates over the requests from head (granted soonest) to tail.
    pub fn iter(&self) -> impl Iterator<Item = Option<LogicalQueueId>> + '_ {
        (0..self.len).map(|i| self.slots[self.index(i)])
    }

    /// Number of pending requests for `queue` currently in the register.
    /// O(1): the length of the queue's chain.
    pub fn pending_for(&self, queue: LogicalQueueId) -> usize {
        self.chain(queue.as_usize()).len as usize
    }

    /// Total non-idle requests currently in the register (all queues).
    /// Maintained incrementally — O(1), used by the policies to skip scans of
    /// an all-idle register.
    pub fn pending_len(&self) -> usize {
        self.pending
    }

    /// Position (distance from the head, 0 = granted next) of the `k`-th
    /// (0-based, oldest-first) pending request of the queue with index
    /// `queue_index`, or `None` when the queue has at most `k` requests in
    /// the register. Positions are comparable across queues: a smaller
    /// position is closer to the head. O(k): a walk down the queue's chain.
    pub fn kth_pending_position(&self, queue_index: usize, k: usize) -> Option<u64> {
        let chain = self.chain(queue_index);
        if k >= chain.len as usize {
            return None;
        }
        let mut at = chain.first as usize;
        for _ in 0..k {
            at = self.next[at] as usize;
        }
        let capacity = self.slots.len();
        Some(((at + capacity - self.head) % capacity) as u64)
    }

    /// The chain of the queue with index `qi` (empty for a queue never seen).
    pub(crate) fn chain(&self, qi: usize) -> Chain {
        self.chains.get(qi).copied().unwrap_or(EMPTY)
    }

    /// Makes the request `steps` links down the chain from ring slot `from`
    /// the critical request of the queue with index `qi` (none when the
    /// chain ends first or `from` is `NIL`), moving its bit.
    pub(crate) fn set_critical(&mut self, qi: usize, mut from: u32, steps: usize) {
        for _ in 0..steps {
            if from == NIL {
                break;
            }
            from = self.next[from as usize];
        }
        let Some(chain) = self.chains.get_mut(qi) else {
            return;
        };
        let old = std::mem::replace(&mut chain.critical, from);
        if old != NIL {
            self.critical[old as usize / 64] &= !(1 << (old % 64));
        }
        if from != NIL {
            self.critical[from as usize / 64] |= 1 << (from % 64);
        }
    }

    /// The queue whose critical request is nearest the head: the first set
    /// bit scanning cyclically from the head, ⌈L/64⌉ + 1 word reads at most. Critical
    /// requests sit at distinct slots, so there are no ties.
    pub(crate) fn earliest_critical(&self) -> Option<LogicalQueueId> {
        if self.pending == 0 {
            return None;
        }
        let words = self.critical.len();
        let (head_word, head_bit) = (self.head / 64, self.head % 64);
        // The head's word is visited twice: first its bits from the head on,
        // last (after wrapping) its bits before the head.
        for i in 0..=words {
            let w = if head_word + i >= words {
                head_word + i - words
            } else {
                head_word + i
            };
            let mut bits = self.critical[w];
            if i == 0 {
                bits &= !0u64 << head_bit;
            } else if i == words {
                bits &= !(!0u64 << head_bit);
            }
            if bits != 0 {
                return self.slots[w * 64 + bits.trailing_zeros() as usize];
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn push_fills_then_shifts() {
        let mut l = LookaheadRegister::new(3);
        assert!(l.is_empty());
        assert_eq!(l.push(Some(q(1))), None);
        assert_eq!(l.push(Some(q(2))), None);
        assert_eq!(l.push(None), None);
        assert!(l.is_full());
        assert_eq!(l.len(), 3);
        // Fourth push shifts the head out.
        assert_eq!(l.push(Some(q(3))), Some(Some(q(1))));
        assert_eq!(l.head(), Some(Some(q(2))));
        assert_eq!(l.capacity(), 3);
    }

    #[test]
    fn iteration_is_head_to_tail() {
        let mut l = LookaheadRegister::new(4);
        for i in 0..4 {
            l.push(Some(q(i)));
        }
        let order: Vec<u32> = l.iter().map(|r| r.unwrap().index()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pending_for_counts_matching_requests() {
        let mut l = LookaheadRegister::new(5);
        for i in [0u32, 1, 0, 2, 0] {
            l.push(Some(q(i)));
        }
        assert_eq!(l.pending_for(q(0)), 3);
        assert_eq!(l.pending_for(q(1)), 1);
        assert_eq!(l.pending_for(q(9)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = LookaheadRegister::new(0);
    }

    #[test]
    fn pending_chains_match_iteration_order() {
        // Long same-queue runs, idle slots and many shifts: every k-th
        // chain position must be the k-th matching entry of a naive walk.
        let mut l = LookaheadRegister::new(64);
        for t in 0..200u64 {
            let request = match t % 3 {
                0 => Some(q(0)),
                1 => Some(q(1)),
                _ => (t % 6 != 2).then(|| q(0)),
            };
            l.push(request);
            for queue in [0usize, 1, 2] {
                let naive: Vec<u64> = l
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| *r == Some(q(queue as u32)))
                    .map(|(i, _)| i as u64)
                    .collect();
                assert_eq!(l.pending_for(q(queue as u32)), naive.len());
                for k in 0..naive.len() + 2 {
                    assert_eq!(
                        l.kth_pending_position(queue, k),
                        naive.get(k).copied(),
                        "t={t} q={queue} k={k}"
                    );
                }
            }
        }
    }
}
