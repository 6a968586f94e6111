//! Preallocated, index-addressed building blocks of the allocation-free slot
//! loop.
//!
//! Every structure here replaces a heap-churning collection that previously
//! sat on the per-slot (or per-granularity-period) path of the buffer front
//! ends:
//!
//! * [`TailCellArena`] — the tail SRAM as a fixed slab of cell records with
//!   intrusive per-queue FIFO chains and an incrementally maintained
//!   occupancy array, replacing `Vec<VecDeque<Cell>>` plus the per-period
//!   occupancy `collect()`. Slots are stored record-contiguous: every access
//!   is full-record, so one cache line per cell beats the
//!   one-line-per-column cost of a columnar split.
//! * [`BlockPool`] — a free list of `b`-cell block buffers so the
//!   tail → DRAM → head-SRAM block cycle recycles the same allocations
//!   forever instead of allocating and dropping a `Vec<Cell>` per transfer.
//! * [`PendingTable`] — a dense `(queue, ordinal)`-indexed table for
//!   in-flight DRAM requests, replacing `HashMap<(u32, u64), _>`. In-flight
//!   ordinals per queue form a narrow moving window, so `ordinal mod ways`
//!   with a stored tag resolves the entry in O(1) without hashing; the table
//!   rehashes (a warm-up cost) in the rare case two live ordinals collide.
//!
//! All three are sized (or grow to a high-water mark) during warm-up; in
//! steady state none of their operations touches the heap, which the
//! `alloc_free_steady_state` integration test pins down with a counting
//! allocator.

use pktbuf_model::{Cell, LogicalQueueId};

const NIL: u32 = u32::MAX;

/// Fast-forwards a period countdown by `slots` steps. The per-slot update is
/// `if u == 0 { u = period; /* period ops */ } u -= 1`, i.e. a cyclic
/// decrement over `[0, period)`; `slots` such steps land on
/// `(u - slots) mod period`.
pub(crate) fn countdown_after(until_period: u64, slots: u64, period: u64) -> u64 {
    debug_assert!(until_period < period);
    (until_period + period - (slots % period)) % period
}

/// How many of the next `slots` steps of the countdown above start with
/// `u == 0` — i.e. how many granularity-period boundaries the fast-forward
/// crosses. The first boundary is `until_period` steps away, then one every
/// `period`.
pub(crate) fn periods_crossed(until_period: u64, slots: u64, period: u64) -> u64 {
    debug_assert!(until_period < period);
    if slots > until_period {
        (slots - until_period - 1) / period + 1
    } else {
        0
    }
}

/// One arena slot: a cell's three metadata fields plus its intrusive chain
/// link, stored contiguously in 24 bytes (the link and the queue share one
/// word) so a push or pop touches one cache line of cell state instead of
/// one line per column. (The arena is accessed exclusively full-record —
/// there is no columnar scan that would favour a structure-of-arrays split.)
#[derive(Debug)]
struct ArenaSlot {
    /// Next slot in the same queue's FIFO chain (or the free list).
    next: u32,
    queue: u32,
    seq: u64,
    arrival: u64,
}

const _: () = assert!(
    std::mem::size_of::<ArenaSlot>() == 24,
    "the tail arena slot must stay 24 bytes (a cell and its link): going from 40 to 24 cut clos_uniform's ns per buffer-step by 25 %"
);

/// The tail SRAM as a fixed-capacity slab of cell records.
///
/// Cells are chained into per-queue FIFOs through the intrusive `next` link;
/// free slots form an intrusive free list. Capacity equals the tail-SRAM
/// capacity in cells, so the arena never grows after construction.
#[derive(Debug)]
pub struct TailCellArena {
    slots: Vec<ArenaSlot>,
    /// Per-queue FIFO head slot.
    head: Vec<u32>,
    /// Per-queue FIFO tail slot.
    tail: Vec<u32>,
    /// Per-queue occupancy in cells, maintained on push/pop — the tail MMA
    /// reads this directly instead of collecting queue lengths every period.
    occupancy: Vec<usize>,
    /// Writeback batch size: a queue is *eligible* once it holds a full
    /// batch.
    threshold: usize,
    /// Number of queues whose occupancy is at or above the threshold,
    /// maintained on threshold crossings so the per-period MMA scan can be
    /// skipped entirely when no queue has a full batch.
    eligible: usize,
    /// Bitmask of eligible queues (bit `q % 64` of word `q / 64`), kept in
    /// lockstep with `eligible`. The tail MMA visits only set bits instead
    /// of scanning every queue's occupancy.
    eligible_mask: Vec<u64>,
    free_head: u32,
    len: usize,
}

impl TailCellArena {
    /// Creates an arena of `capacity` cell slots shared by `num_queues`
    /// queues; `threshold` is the writeback batch size used for the eligible
    /// count.
    pub fn new(num_queues: usize, capacity: usize, threshold: usize) -> Self {
        let capacity = capacity.min(NIL as usize - 1);
        let slots = (0..capacity)
            .map(|i| ArenaSlot {
                next: if i + 1 < capacity { i as u32 + 1 } else { NIL },
                queue: 0,
                seq: 0,
                arrival: 0,
            })
            .collect();
        TailCellArena {
            slots,
            head: vec![NIL; num_queues],
            tail: vec![NIL; num_queues],
            occupancy: vec![0; num_queues],
            threshold: threshold.max(1),
            eligible: 0,
            eligible_mask: vec![0; num_queues.div_ceil(64)],
            free_head: if capacity == 0 { NIL } else { 0 },
            len: 0,
        }
    }

    /// Total cells currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.free_head == NIL
    }

    /// Per-queue occupancy in cells (index = queue index).
    pub fn occupancies(&self) -> &[usize] {
        &self.occupancy
    }

    /// Whether any queue currently holds at least one full writeback batch.
    /// O(1) — maintained on threshold crossings.
    pub fn any_eligible(&self) -> bool {
        self.eligible > 0
    }

    /// Bitmask of queues holding at least one full batch (bit `q % 64` of
    /// word `q / 64`). Feed to
    /// [`mma::ThresholdTailMma::select_masked`] so selection touches only
    /// eligible queues.
    pub fn eligible_words(&self) -> &[u64] {
        &self.eligible_mask
    }

    /// Appends `cell` to its queue's FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the arena is full or the cell's queue is out of range — the
    /// owning buffer checks capacity before pushing.
    pub fn push(&mut self, cell: Cell) {
        let slot = self.free_head;
        assert!(slot != NIL, "tail arena overflow");
        let qi = cell.queue().as_usize();
        let entry = &mut self.slots[slot as usize];
        self.free_head = entry.next;
        *entry = ArenaSlot {
            next: NIL,
            queue: cell.queue().index(),
            seq: cell.seq(),
            arrival: cell.arrival_slot(),
        };
        if self.tail[qi] == NIL {
            self.head[qi] = slot;
        } else {
            self.slots[self.tail[qi] as usize].next = slot;
        }
        self.tail[qi] = slot;
        self.occupancy[qi] += 1;
        if self.occupancy[qi] == self.threshold {
            self.eligible += 1;
            self.eligible_mask[qi / 64] |= 1 << (qi % 64);
        }
        self.len += 1;
    }

    /// Removes and returns the oldest cell of `queue`.
    pub fn pop_front(&mut self, queue: LogicalQueueId) -> Option<Cell> {
        let qi = queue.as_usize();
        let slot = self.head[qi];
        if slot == NIL {
            return None;
        }
        let entry = &mut self.slots[slot as usize];
        self.head[qi] = entry.next;
        if self.head[qi] == NIL {
            self.tail[qi] = NIL;
        }
        let cell = Cell::new(LogicalQueueId::new(entry.queue), entry.seq, entry.arrival);
        entry.next = self.free_head;
        self.free_head = slot;
        if self.occupancy[qi] == self.threshold {
            self.eligible -= 1;
            self.eligible_mask[qi / 64] &= !(1 << (qi % 64));
        }
        self.occupancy[qi] -= 1;
        self.len -= 1;
        Some(cell)
    }

    /// Moves the `count` oldest cells of `queue` into `out` (appended in FIFO
    /// order). `out` is a reusable scratch/pooled buffer; nothing is
    /// allocated when its capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics if the queue holds fewer than `count` cells — the tail MMA only
    /// selects queues with a full batch.
    pub fn pop_block_into(&mut self, queue: LogicalQueueId, count: usize, out: &mut Vec<Cell>) {
        for _ in 0..count {
            let cell = self
                .pop_front(queue)
                .expect("tail MMA selected a queue with a full batch"); // analyze: allow(panic-freedom) — documented # Panics contract: the tail MMA selects only queues holding a full batch
            out.push(cell);
        }
    }
}

/// A free list of recycled block buffers (`Vec<Cell>`).
///
/// Blocks travel tail SRAM → pending write → DRAM → pending delivery → head
/// SRAM; the pool closes that cycle so the same handful of `Vec`s circulate
/// for the whole run.
#[derive(Debug, Default)]
pub struct BlockPool {
    free: Vec<Vec<Cell>>,
}

impl BlockPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BlockPool::default()
    }

    /// Takes a cleared buffer with room for at least `cells` cells.
    pub fn take(&mut self, cells: usize) -> Vec<Cell> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.reserve(cells);
                buf
            }
            None => Vec::with_capacity(cells), // analyze: allow(hotpath-alloc) — pool-miss path: allocates only until the circulating block set is built during warmup
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, mut buf: Vec<Cell>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

/// One slot of a [`PendingTable`] way set.
type PendingSlot<T> = Option<(u64, T)>;

/// A dense map from `(queue, block ordinal)` to an in-flight payload.
///
/// Layout: `ways` slots per queue, entry for ordinal `o` lives at
/// `queue * ways + (o % ways)` tagged with the full ordinal. Because a
/// queue's in-flight ordinals form a contiguous moving window bounded by the
/// Requests-Register residency, a small power-of-two `ways` almost never
/// collides; when two live ordinals do map to the same slot the table doubles
/// `ways` and reinserts (amortised warm-up, after which lookups are
/// allocation- and hash-free).
#[derive(Debug)]
pub struct PendingTable<T> {
    slots: Vec<PendingSlot<T>>,
    num_queues: usize,
    ways: usize,
    len: usize,
}

impl<T> PendingTable<T> {
    /// Creates a table for `num_queues` queues with a small initial way count.
    pub fn new(num_queues: usize) -> Self {
        let ways = 4;
        PendingTable {
            slots: std::iter::repeat_with(|| None)
                .take(num_queues * ways)
                .collect(),
            num_queues,
            ways,
            len: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current way count (for diagnostics/tests).
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn index(&self, queue: u32, ordinal: u64) -> usize {
        queue as usize * self.ways + (ordinal & (self.ways as u64 - 1)) as usize
    }

    /// Inserts the payload for `(queue, ordinal)`.
    ///
    /// # Panics
    ///
    /// Panics if an entry for the same `(queue, ordinal)` is already present
    /// (in-flight ordinals are unique by construction).
    pub fn insert(&mut self, queue: u32, ordinal: u64, value: T) {
        debug_assert!((queue as usize) < self.num_queues, "queue out of range");
        loop {
            let idx = self.index(queue, ordinal);
            match &self.slots[idx] {
                None => {
                    self.slots[idx] = Some((ordinal, value));
                    self.len += 1;
                    return;
                }
                Some((tag, _)) if *tag == ordinal => {
                    // analyze: allow(panic-freedom) — corruption guard: a duplicate in-flight ordinal breaks the one-outstanding-access contract
                    panic!("duplicate in-flight entry for queue {queue}, ordinal {ordinal}")
                }
                // Two live ordinals of this queue collide: widen the window.
                Some(_) => self.grow(),
            }
        }
    }

    /// Removes and returns the payload for `(queue, ordinal)`, if present.
    pub fn remove(&mut self, queue: u32, ordinal: u64) -> Option<T> {
        let idx = self.index(queue, ordinal);
        if self.slots[idx]
            .as_ref()
            .is_some_and(|(tag, _)| *tag == ordinal)
        {
            let (_, value) = self.slots[idx].take()?;
            self.len -= 1;
            return Some(value);
        }
        None
    }

    fn grow(&mut self) {
        let old_ways = self.ways;
        // Find the smallest doubled way count whose rehash is collision-free
        // (doubling once is not always enough: ordinals that differ by a
        // multiple of the new way count still collide).
        let mut new_ways = old_ways * 2;
        loop {
            let mut used = vec![false; self.num_queues * new_ways]; // analyze: allow(hotpath-alloc) — rare rehash when two live ordinals collide; the window settles during warmup
            let collision = self.slots.iter().enumerate().any(|(old_idx, slot)| {
                let Some((ordinal, _)) = slot else {
                    return false;
                };
                let queue = old_idx / old_ways;
                let idx = queue * new_ways + (*ordinal & (new_ways as u64 - 1)) as usize;
                std::mem::replace(&mut used[idx], true)
            });
            if !collision {
                break;
            }
            new_ways *= 2;
        }
        self.ways = new_ways;
        let mut slots: Vec<PendingSlot<T>> = std::iter::repeat_with(|| None)
            .take(self.num_queues * new_ways)
            .collect(); // analyze: allow(hotpath-alloc) — rare rehash when two live ordinals collide; the window settles during warmup
        for (old_idx, slot) in self.slots.drain(..).enumerate() {
            let Some((ordinal, value)) = slot else {
                continue;
            };
            let queue = old_idx / old_ways;
            let new_idx = queue * new_ways + (ordinal & (new_ways as u64 - 1)) as usize;
            slots[new_idx] = Some((ordinal, value));
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lq(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn countdown_helpers_match_the_stepped_loop() {
        for period in [1u64, 2, 4, 7] {
            for start in 0..period {
                let mut u = start;
                let mut crossings = 0;
                for n in 0..=3 * period + 2 {
                    assert_eq!(
                        countdown_after(start, n, period),
                        u,
                        "countdown start={start} n={n} period={period}"
                    );
                    assert_eq!(
                        periods_crossed(start, n, period),
                        crossings,
                        "crossings start={start} n={n} period={period}"
                    );
                    if u == 0 {
                        u = period;
                        crossings += 1;
                    }
                    u -= 1;
                }
            }
        }
    }

    #[test]
    fn arena_is_fifo_per_queue() {
        let mut arena = TailCellArena::new(2, 8, 2);
        for i in 0..3u64 {
            arena.push(Cell::new(lq(0), i, i));
            arena.push(Cell::new(lq(1), i, i + 10));
        }
        assert_eq!(arena.len(), 6);
        assert_eq!(arena.occupancies(), &[3, 3]);
        for i in 0..3u64 {
            let c = arena.pop_front(lq(0)).unwrap();
            assert_eq!((c.queue(), c.seq(), c.arrival_slot()), (lq(0), i, i));
        }
        assert_eq!(arena.pop_front(lq(0)), None);
        assert_eq!(arena.occupancies(), &[0, 3]);
        assert!(!arena.is_empty());
    }

    #[test]
    fn arena_recycles_slots_at_capacity() {
        let mut arena = TailCellArena::new(1, 4, 4);
        for round in 0..10u64 {
            for i in 0..4u64 {
                arena.push(Cell::new(lq(0), round * 4 + i, 0));
            }
            assert!(arena.is_full());
            let mut out = Vec::new();
            arena.pop_block_into(lq(0), 4, &mut out);
            assert_eq!(out.len(), 4);
            assert_eq!(out[0].seq(), round * 4);
            assert!(arena.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "tail arena overflow")]
    fn arena_overflow_panics() {
        let mut arena = TailCellArena::new(1, 2, 2);
        for i in 0..3 {
            arena.push(Cell::new(lq(0), i, 0));
        }
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut pool = BlockPool::new();
        let mut a = pool.take(4);
        a.push(Cell::new(lq(0), 0, 0));
        pool.put(a);
        assert_eq!(pool.parked(), 1);
        let b = pool.take(4);
        assert!(b.is_empty());
        assert!(b.capacity() >= 4);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn pending_table_round_trips() {
        let mut t: PendingTable<&'static str> = PendingTable::new(3);
        t.insert(1, 0, "a");
        t.insert(1, 1, "b");
        t.insert(2, 0, "c");
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(1, 0), Some("a"));
        assert_eq!(t.remove(1, 0), None);
        assert_eq!(t.remove(1, 1), Some("b"));
        assert_eq!(t.remove(2, 0), Some("c"));
        assert!(t.is_empty());
    }

    #[test]
    fn pending_table_grows_on_collision() {
        let mut t: PendingTable<u64> = PendingTable::new(1);
        let start_ways = t.ways();
        // Ordinals 0 and `ways` collide in the same slot → the table widens.
        t.insert(0, 0, 100);
        t.insert(0, start_ways as u64, 200);
        assert!(t.ways() > start_ways);
        assert_eq!(t.remove(0, 0), Some(100));
        assert_eq!(t.remove(0, start_ways as u64), Some(200));
    }

    #[test]
    fn pending_table_growth_handles_repeat_collisions() {
        let mut t: PendingTable<u64> = PendingTable::new(2);
        let w = t.ways() as u64;
        // 0 and 2w collide at w ways *and* at 2w ways: growth must continue
        // doubling until the rehash is collision-free.
        t.insert(1, 0, 1);
        t.insert(1, 2 * w, 2);
        t.insert(1, 1, 3);
        assert_eq!(t.remove(1, 0), Some(1));
        assert_eq!(t.remove(1, 2 * w), Some(2));
        assert_eq!(t.remove(1, 1), Some(3));
    }

    #[test]
    #[should_panic(expected = "duplicate in-flight entry")]
    fn pending_table_rejects_duplicates() {
        let mut t: PendingTable<u64> = PendingTable::new(1);
        t.insert(0, 5, 1);
        t.insert(0, 5, 2);
    }
}
