//! The lookahead shift register of arbiter requests.

use pktbuf_model::LogicalQueueId;
use std::collections::VecDeque;

/// Fixed-size ring storage: the register is a true shift register whose
/// occupancy only ever grows to `capacity` and then stays there, so a boxed
/// slice with a head cursor replaces push/pop pairs on a deque with a single
/// slot overwrite per slot.
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[Option<LogicalQueueId>]>,
    head: usize,
    len: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: vec![None; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn index(&self, i: usize) -> usize {
        let idx = self.head + i;
        if idx >= self.slots.len() {
            idx - self.slots.len()
        } else {
            idx
        }
    }

    /// Appends at the tail; once full, overwrites and returns the head.
    fn shift(&mut self, entry: Option<LogicalQueueId>) -> Option<Option<LogicalQueueId>> {
        if self.len < self.slots.len() {
            let at = self.index(self.len);
            self.slots[at] = entry;
            self.len += 1;
            None
        } else {
            let out = std::mem::replace(&mut self.slots[self.head], entry);
            self.head = self.index(1);
            Some(out)
        }
    }

    fn get(&self, i: usize) -> Option<LogicalQueueId> {
        self.slots[self.index(i)]
    }
}

/// Per-queue window width of the flat position index (power of two). ECQF
/// only ever asks for the `counter`-th pending position, and counters hover
/// around the replenishment granularity, so a small window covers virtually
/// every lookup; deeper positions spill to a per-queue overflow deque.
const POS_WINDOW: usize = 16;

/// Flat per-queue index of the stream positions of pending requests.
///
/// The hot storage is one contiguous array of `num_queues × POS_WINDOW`
/// ring-buffered positions (plus small head/len arrays), so the ECQF
/// selection scan — which probes one position per queue per granularity
/// period — stays inside a few cache lines instead of chasing a heap pointer
/// per queue. Invariant: a queue's overflow deque is non-empty only while
/// its window is full, and the window always holds the queue's *oldest*
/// pending positions.
#[derive(Debug, Clone, Default)]
struct PositionIndex {
    window: Vec<u64>,
    head: Vec<u16>,
    len: Vec<u16>,
    overflow: Vec<VecDeque<u64>>,
}

impl PositionIndex {
    fn ensure_queue(&mut self, qi: usize) {
        if qi >= self.head.len() {
            self.window.resize((qi + 1) * POS_WINDOW, 0);
            self.head.resize(qi + 1, 0);
            self.len.resize(qi + 1, 0);
            self.overflow.resize_with(qi + 1, VecDeque::new); // analyze: allow(hotpath-alloc) — VecDeque::new does not allocate; the surrounding growth settles during warmup
        }
    }

    fn push_back(&mut self, qi: usize, position: u64) {
        self.ensure_queue(qi);
        let len = self.len[qi] as usize;
        if len < POS_WINDOW {
            let at = (self.head[qi] as usize + len) % POS_WINDOW;
            self.window[qi * POS_WINDOW + at] = position;
            self.len[qi] += 1;
        } else {
            self.overflow[qi].push_back(position);
        }
    }

    fn pop_front(&mut self, qi: usize) -> Option<u64> {
        let len = self.len[qi] as usize;
        if len == 0 {
            return None;
        }
        let head = self.head[qi] as usize;
        let position = self.window[qi * POS_WINDOW + head];
        self.head[qi] = ((head + 1) % POS_WINDOW) as u16;
        self.len[qi] -= 1;
        // Refill from the overflow so the window keeps the oldest positions.
        if let Some(spilled) = self.overflow[qi].pop_front() {
            let at = (self.head[qi] as usize + POS_WINDOW - 1) % POS_WINDOW;
            self.window[qi * POS_WINDOW + at] = spilled;
            self.len[qi] += 1;
        }
        Some(position)
    }

    fn get(&self, qi: usize, k: usize) -> Option<u64> {
        let len = *self.len.get(qi)? as usize;
        if k < len {
            let at = (self.head[qi] as usize + k) % POS_WINDOW;
            Some(self.window[qi * POS_WINDOW + at])
        } else {
            self.overflow[qi].get(k - len).copied()
        }
    }
}

/// A fixed-length shift register of arbiter requests.
///
/// Every slot the arbiter pushes one request (or an explicit idle slot) at the
/// tail; the request at the head is the one granted in the current slot. The
/// register therefore delays every request by its length, which is the price
/// paid for letting the MMA see `L` requests into the future.
#[derive(Debug, Clone)]
pub struct LookaheadRegister {
    slots: Ring,
    capacity: usize,
    /// Number of non-idle entries currently held, maintained on push/shift so
    /// the selection policies can skip scanning an all-idle register.
    pending: usize,
    /// Per-queue stream positions of the pending requests (front = oldest).
    /// This index lets ECQF locate each queue's k-th pending request in O(1)
    /// instead of walking the whole register every granularity period.
    positions: PositionIndex,
    /// Total requests ever pushed (the stream position of the next push).
    pushed: u64,
}

impl LookaheadRegister {
    /// Creates an empty lookahead of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: ECQF needs at least one slot of
    /// lookahead to see a request before it is due.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lookahead must have at least one slot");
        LookaheadRegister {
            slots: Ring::new(capacity),
            capacity,
            pending: 0,
            positions: PositionIndex::default(),
            pushed: 0,
        }
    }

    /// Length of the register in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of requests currently held (including idle slots).
    pub fn len(&self) -> usize {
        self.slots.len
    }

    /// Whether the register holds no requests at all.
    pub fn is_empty(&self) -> bool {
        self.slots.len == 0
    }

    /// Whether the register is full, i.e. the next push will also pop.
    pub fn is_full(&self) -> bool {
        self.slots.len >= self.capacity
    }

    /// Pushes a request (or an idle slot) at the tail. If the register was
    /// full, the head element is shifted out and returned (`Some(head)`),
    /// otherwise `None` is returned and nothing leaves the register yet.
    pub fn push(&mut self, request: Option<LogicalQueueId>) -> Option<Option<LogicalQueueId>> {
        if let Some(queue) = request {
            self.pending += 1;
            self.positions.push_back(queue.as_usize(), self.pushed);
        }
        self.pushed += 1;
        let shifted = self.slots.shift(request);
        if let Some(Some(queue)) = shifted {
            self.pending -= 1;
            let popped = self.positions.pop_front(queue.as_usize());
            debug_assert!(popped.is_some(), "position index out of sync");
        }
        shifted
    }

    /// Fast-forwards the register by `slots` idle pushes at once: exactly
    /// equivalent to calling [`LookaheadRegister::push`]`(None)` `slots`
    /// times, but O(1).
    ///
    /// Only legal while the register holds **no pending requests** — then
    /// every stored entry is an idle slot, so pushing more idle slots only
    /// moves the ring cursor (and, before the register first fills, its
    /// length); the untouched storage is already all-`None`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if any request is pending.
    pub fn advance_idle(&mut self, slots: u64) {
        debug_assert_eq!(
            self.pending, 0,
            "advance_idle on a lookahead with pending requests"
        );
        self.pushed = self.pushed.wrapping_add(slots);
        let capacity = self.slots.slots.len();
        let fill = ((capacity - self.slots.len) as u64).min(slots) as usize;
        self.slots.len += fill;
        let remaining = slots - fill as u64;
        self.slots.head = (self.slots.head + (remaining % capacity as u64) as usize) % capacity;
    }

    /// The request at the head (the next to be granted), if the register is
    /// non-empty.
    pub fn head(&self) -> Option<Option<LogicalQueueId>> {
        if self.slots.len == 0 {
            None
        } else {
            Some(self.slots.get(0))
        }
    }

    /// Iterates over the requests from head (granted soonest) to tail.
    pub fn iter(&self) -> impl Iterator<Item = Option<LogicalQueueId>> + '_ {
        (0..self.slots.len).map(|i| self.slots.get(i))
    }

    /// Number of pending requests for `queue` currently in the register.
    pub fn pending_for(&self, queue: LogicalQueueId) -> usize {
        self.iter().filter(|r| *r == Some(queue)).count()
    }

    /// Total non-idle requests currently in the register (all queues).
    /// Maintained incrementally — O(1), used by the policies to skip scans of
    /// an all-idle register.
    pub fn pending_len(&self) -> usize {
        self.pending
    }

    /// Stream position of the `k`-th (0-based, oldest-first) pending request
    /// of the queue with index `queue_index`, or `None` when the queue has at
    /// most `k` requests in the register. Positions are comparable across
    /// queues: a smaller position is closer to the head. O(1).
    pub fn kth_pending_position(&self, queue_index: usize, k: usize) -> Option<u64> {
        self.positions.get(queue_index, k)
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
    fn position_index_matches_iteration_order() {
        // Push enough same-queue requests to spill past the flat window and
        // check every k-th position against a naive recount, across shifts.
        let mut l = LookaheadRegister::new(64);
        for t in 0..200u64 {
            let request = match t % 3 {
                0 => Some(q(0)),
                1 => Some(q(1)),
                _ => {
                    if t % 6 == 2 {
                        None
                    } else {
                        Some(q(0))
                    }
                }
            };
            l.push(request);
            for queue in [0usize, 1, 2] {
                let naive: Vec<usize> = l
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| *r == Some(q(queue as u32)))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(l.pending_for(q(queue as u32)), naive.len());
                for k in 0..naive.len() + 2 {
                    let indexed = l.kth_pending_position(queue, k);
                    match naive.get(k) {
                        // Positions are stream offsets; compare by rank:
                        // the k-th indexed position must order identically.
                        Some(_) => assert!(indexed.is_some(), "t={t} q={queue} k={k}"),
                        None => assert!(indexed.is_none(), "t={t} q={queue} k={k}"),
                    }
                }
                // Cross-queue ordering: indexed positions of the naive walk
                // must be strictly increasing with k.
                if naive.len() >= 2 {
                    let p0 = l.kth_pending_position(queue, 0).unwrap();
                    let p1 = l.kth_pending_position(queue, 1).unwrap();
                    assert!(p0 < p1);
                }
            }
        }
    }
}
