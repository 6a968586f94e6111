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
//! * [`BlockSlab`] — every block a buffer has in flight, `b` cells each, in
//!   one `Vec<Cell>` with an intrusive LIFO free list. A block travels tail
//!   SRAM → DRAM → head SRAM as an 8-byte [`SlabBlock`] handle: its cells are
//!   copied in at writeback and out at delivery only. The same links chain
//!   a queue's blocks into a [`BlockFifo`], all RADS's DRAM needs.
//!
//! Both are sized (or grow to a high-water mark) during warm-up; in
//! steady state none of their operations touches the heap, which the
//! `alloc_free_steady_state` integration test pins down with a counting
//! allocator.

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
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
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

    /// Moves the `out.len()` oldest cells of `queue` into `out`, in FIFO
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the queue holds fewer cells — the tail MMA only selects
    /// queues with a full batch.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: the tail MMA selects only queues holding a full batch"
    )]
    pub fn pop_into(&mut self, queue: LogicalQueueId, out: &mut [Cell]) {
        for slot in out {
            *slot = self
                .pop_front(queue)
                .expect("tail MMA selected a queue with a full batch");
        }
    }
}

/// A block of a [`BlockSlab`]: the 8-byte handle the write path, the DRAM
/// and the pending deliveries hold instead of its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabBlock {
    index: u32,
    cells: u32,
}

impl dram_sim::StoredBlock for SlabBlock {
    fn cell_count(&self) -> usize {
        self.cells as usize
    }
}

/// A FIFO of [`SlabBlock`]s chained through their slab's links.
#[derive(Debug, Clone, Copy)]
pub struct BlockFifo {
    head: u32,
    tail: u32,
    /// Blocks popped so far: the head block's index in its queue's stream.
    pub(crate) popped: u64,
}

impl BlockFifo {
    /// A FIFO holding no block.
    pub const EMPTY: BlockFifo = BlockFifo {
        head: NIL,
        tail: NIL,
        popped: 0,
    };
}

/// Every block one buffer has in flight: one `Vec<Cell>` cut into
/// `block_cells`-cell blocks, and one link per block threading the LIFO free
/// list or the block's [`BlockFifo`]. It grows a block whenever the free
/// list runs dry, so it settles at the warm-up's high-water mark.
#[derive(Debug)]
pub struct BlockSlab {
    /// Block `i`'s cells are `cells[i * block_cells..][..block_cells]`.
    cells: Vec<Cell>,
    /// Per block: the next free block, or the next block of its FIFO.
    next: Vec<u32>,
    free_head: u32,
    block_cells: usize,
}

impl BlockSlab {
    /// An empty slab of `block_cells`-cell blocks.
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(block_cells: usize) -> Self {
        BlockSlab {
            cells: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
            block_cells: block_cells.max(1),
        }
    }

    fn handle(&self, index: u32) -> SlabBlock {
        SlabBlock {
            index,
            cells: self.block_cells as u32,
        }
    }

    /// Takes a block, the most recently freed one first, holding whatever
    /// it last carried.
    pub fn alloc(&mut self) -> SlabBlock {
        if self.free_head == NIL {
            // Warm-up growth; both `Vec`s double, so it reallocates rarely.
            self.free_head = self.next.len() as u32;
            assert!(self.free_head != NIL, "block slab overflow");
            self.next.push(NIL);
            let blank = Cell::new(LogicalQueueId::new(0), 0, 0);
            self.cells
                .resize(self.cells.len() + self.block_cells, blank);
        }
        let index = self.free_head;
        self.free_head = std::mem::replace(&mut self.next[index as usize], NIL);
        self.handle(index)
    }

    /// Returns `block` to the free list.
    pub fn free(&mut self, block: SlabBlock) {
        self.next[block.index as usize] = self.free_head;
        self.free_head = block.index;
    }

    /// The cells of `block`.
    pub fn cells(&self, block: SlabBlock) -> &[Cell] {
        let start = block.index as usize * self.block_cells;
        &self.cells[start..start + block.cells as usize]
    }

    /// The cells of `block`, to fill.
    pub fn cells_mut(&mut self, block: SlabBlock) -> &mut [Cell] {
        let start = block.index as usize * self.block_cells;
        &mut self.cells[start..start + block.cells as usize]
    }

    /// Appends `block` (allocated, in no FIFO) to `fifo`.
    pub fn push_back(&mut self, fifo: &mut BlockFifo, block: SlabBlock) {
        match fifo.tail {
            NIL => fifo.head = block.index,
            tail => self.next[tail as usize] = block.index,
        }
        fifo.tail = block.index;
    }

    /// Unlinks and returns the oldest block of `fifo`.
    pub fn pop_front(&mut self, fifo: &mut BlockFifo) -> Option<SlabBlock> {
        let index = fifo.head;
        if index == NIL {
            return None;
        }
        fifo.head = std::mem::replace(&mut self.next[index as usize], NIL);
        if fifo.head == NIL {
            fifo.tail = NIL;
        }
        fifo.popped += 1;
        Some(self.handle(index))
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
            let mut out = [Cell::new(lq(9), 0, 0); 4];
            arena.pop_into(lq(0), &mut out);
            assert_eq!(
                out.map(|c| c.seq()),
                std::array::from_fn(|i| round * 4 + i as u64)
            );
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

    /// Fills `block` with cells `seq..seq + len` of queue 0.
    fn fill(slab: &mut BlockSlab, block: SlabBlock, seq: u64) {
        for (i, cell) in slab.cells_mut(block).iter_mut().enumerate() {
            *cell = Cell::new(lq(0), seq + i as u64, seq);
        }
    }

    fn seqs(slab: &BlockSlab, block: SlabBlock) -> Vec<u64> {
        slab.cells(block).iter().map(|c| c.seq()).collect()
    }

    #[test]
    fn slab_reuses_the_last_freed_block_first() {
        let mut slab = BlockSlab::new(3);
        let blocks: Vec<SlabBlock> = (0..3).map(|_| slab.alloc()).collect();
        assert_eq!(slab.next.len(), 3);
        assert_eq!(dram_sim::StoredBlock::cell_count(&blocks[0]), 3);
        slab.free(blocks[0]);
        slab.free(blocks[2]);
        // LIFO: the most recently freed block comes back first, and no new
        // block is built while any is free.
        assert_eq!(slab.alloc(), blocks[2]);
        assert_eq!(slab.alloc(), blocks[0]);
        assert_eq!(slab.next.len(), 3);
        let fresh = slab.alloc();
        assert!(!blocks.contains(&fresh));
        assert_eq!(slab.next.len(), 4);
    }

    #[test]
    fn slab_blocks_keep_their_cells_through_other_blocks_churn() {
        let mut slab = BlockSlab::new(4);
        let kept = slab.alloc();
        fill(&mut slab, kept, 100);
        // Allocate, fill and free other blocks, growing the slab (and so
        // moving its storage) on the way.
        for round in 0..50u64 {
            let others: Vec<SlabBlock> = (0..=round % 7).map(|_| slab.alloc()).collect();
            for (i, &b) in others.iter().enumerate() {
                fill(&mut slab, b, 1000 * round + 10 * i as u64);
                assert_eq!(seqs(&slab, b)[0], 1000 * round + 10 * i as u64);
            }
            for b in others {
                slab.free(b);
            }
            assert_eq!(seqs(&slab, kept), [100, 101, 102, 103]);
        }
        assert_eq!(slab.next.len(), 8);
    }

    #[test]
    fn block_fifos_chain_through_the_slab_in_order() {
        let mut slab = BlockSlab::new(2);
        let (mut a, mut b) = (BlockFifo::EMPTY, BlockFifo::EMPTY);
        assert_eq!(slab.pop_front(&mut a), None);
        for i in 0..6u64 {
            let block = slab.alloc();
            fill(&mut slab, block, 10 * i);
            let fifo = if i % 2 == 0 { &mut a } else { &mut b };
            slab.push_back(fifo, block);
        }
        for expected in [0, 20, 40] {
            let block = slab.pop_front(&mut a).unwrap();
            assert_eq!(seqs(&slab, block)[0], expected);
            slab.free(block);
        }
        assert!(a.head == NIL && b.head != NIL);
        // Freed blocks rejoin another FIFO without disturbing `b`.
        let block = slab.alloc();
        fill(&mut slab, block, 99);
        slab.push_back(&mut a, block);
        let mut drained = Vec::new();
        while let Some(block) = slab.pop_front(&mut b) {
            drained.push(seqs(&slab, block)[0]);
        }
        assert_eq!(drained, [10, 30, 50]);
        let block = slab.pop_front(&mut a).unwrap();
        assert_eq!(seqs(&slab, block), [99, 100]);
        assert!(a.head == NIL && b.head == NIL);
        assert_eq!(slab.next.len(), 6);
    }
}
