//! The global-CAM shared buffer: cells tagged with `(queue, order)`.

use crate::traits::{BufferError, SharedBuffer};
use pktbuf_model::{Cell, LogicalQueueId};
use std::collections::VecDeque;

/// Per-queue cell storage: a dense ring indexed by `order - head_order`.
///
/// The `(queue, order)` tag space of the CAM maps onto one ring per queue:
/// position 0 is the next cell the arbiter will be granted, holes are cells
/// whose block has not been delivered yet. The window between the head and
/// the youngest resident cell is bounded by the SRAM sizing, so after warm-up
/// the ring never reallocates — the slot path is heap-free, unlike the
/// tree-node churn of a `BTreeMap<(u32, u64), Cell>`.
#[derive(Debug, Clone, Default)]
struct QueueRing {
    /// Cell order of ring position 0 (== next order expected at the head).
    base: u64,
    ring: VecDeque<Option<Cell>>,
}

impl QueueRing {
    /// Inserts `cell` at `order`, mirroring `BTreeMap::insert` semantics
    /// (silent overwrite). Returns whether the slot was previously empty.
    fn put(&mut self, order: u64, cell: Cell) -> bool {
        debug_assert!(order >= self.base, "orders below the head are refused");
        let pos = (order - self.base) as usize;
        // Fast path: in-order delivery appends directly at the window's end.
        if pos == self.ring.len() {
            self.ring.push_back(Some(cell));
            return true;
        }
        while self.ring.len() <= pos {
            self.ring.push_back(None);
        }
        self.ring[pos].replace(cell).is_none()
    }

    fn get(&self, order: u64) -> Option<&Cell> {
        if order < self.base {
            return None;
        }
        self.ring.get((order - self.base) as usize)?.as_ref()
    }
}

/// Fully associative shared buffer.
///
/// Every resident cell is indexed by its `(queue, cell order)` tag, so blocks
/// can be written in any order and the head of each queue is found with a
/// single associative search — the functional counterpart of the paper's
/// "global CAM" organisation. Functionally the tag match is resolved through
/// per-queue order-indexed rings (`QueueRing`). A block whose first cell
/// lies below its queue's head could never be granted (the head only moves
/// forward), so [`SharedBuffer::insert_block`] refuses it as a
/// [`BufferError::DuplicateBlock`].
#[derive(Debug, Clone)]
pub struct GlobalCamBuffer {
    /// One order-indexed ring per queue.
    rings: Vec<QueueRing>,
    /// Resident cells inside the rings.
    ring_cells: usize,
    /// Next cell order to assign at the tail of each queue (for `push_cell`
    /// and for mapping block ordinals to cell orders).
    tail_order: Vec<u64>,
    /// Cells per block, used to convert block ordinals into cell orders.
    cells_per_block: usize,
    capacity: usize,
    peak: usize,
}

impl GlobalCamBuffer {
    /// Creates a buffer for `num_queues` queues and `capacity` cells.
    /// `cells_per_block` is the DRAM transfer granularity (`B` for RADS, `b`
    /// for CFDS) used to translate block ordinals into cell orders.
    pub fn new(num_queues: usize, capacity: usize) -> Self {
        GlobalCamBuffer::with_block_size(num_queues, capacity, 1)
    }

    /// Creates a buffer whose blocks contain `cells_per_block` cells.
    pub fn with_block_size(num_queues: usize, capacity: usize, cells_per_block: usize) -> Self {
        GlobalCamBuffer {
            rings: vec![QueueRing::default(); num_queues],
            ring_cells: 0,
            tail_order: vec![0; num_queues],
            cells_per_block: cells_per_block.max(1),
            capacity,
            peak: 0,
        }
    }

    fn check_queue(&self, queue: LogicalQueueId) -> Result<usize, BufferError> {
        let idx = queue.as_usize();
        if idx >= self.rings.len() {
            return Err(BufferError::QueueOutOfRange {
                queue,
                num_queues: self.rings.len(),
            });
        }
        Ok(idx)
    }

    /// Stores one tagged cell at an order at or above its queue's head.
    fn put(&mut self, idx: usize, order: u64, cell: Cell) {
        if self.rings[idx].put(order, cell) {
            self.ring_cells += 1;
        }
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.occupancy());
    }
}

impl SharedBuffer for GlobalCamBuffer {
    fn insert_block(
        &mut self,
        queue: LogicalQueueId,
        ordinal: u64,
        cells: &[Cell],
    ) -> Result<(), BufferError> {
        let idx = self.check_queue(queue)?;
        if self.occupancy() + cells.len() > self.capacity {
            return Err(BufferError::Full {
                capacity: self.capacity,
            });
        }
        let base = ordinal * self.cells_per_block as u64;
        let ring = &mut self.rings[idx];
        if base < ring.base || ring.get(base).is_some() {
            return Err(BufferError::DuplicateBlock { queue, ordinal });
        }
        if (base - ring.base) as usize == ring.ring.len() {
            // In-order delivery (the overwhelmingly common case): the block
            // extends the window's end, so append the cells in one pass
            // without per-cell position bookkeeping.
            ring.ring.extend(cells.iter().copied().map(Some));
            self.ring_cells += cells.len();
        } else {
            for (i, &cell) in cells.iter().enumerate() {
                self.put(idx, base + i as u64, cell);
            }
        }
        // Keep the tail order monotone so push_cell after block inserts works.
        let end = base + self.cells_per_block as u64;
        if end > self.tail_order[idx] {
            self.tail_order[idx] = end;
        }
        self.note_peak();
        Ok(())
    }

    fn push_cell(&mut self, queue: LogicalQueueId, cell: Cell) -> Result<(), BufferError> {
        let idx = self.check_queue(queue)?;
        if self.occupancy() + 1 > self.capacity {
            return Err(BufferError::Full {
                capacity: self.capacity,
            });
        }
        let order = self.tail_order[idx];
        self.tail_order[idx] += 1;
        self.put(idx, order, cell);
        self.note_peak();
        Ok(())
    }

    fn pop_front(&mut self, queue: LogicalQueueId) -> Option<Cell> {
        let idx = self.check_queue(queue).ok()?;
        let ring = &mut self.rings[idx];
        // The head cell is resident exactly when ring position 0 is occupied;
        // pop it in one move (no take-then-pop, which would write a dead
        // `None` into the slot being discarded).
        if !matches!(ring.ring.front(), Some(Some(_))) {
            return None;
        }
        let cell = ring.ring.pop_front().flatten().expect("front was resident");
        ring.base += 1;
        self.ring_cells -= 1;
        Some(cell)
    }

    fn available(&self, queue: LogicalQueueId) -> usize {
        let Ok(idx) = self.check_queue(queue) else {
            return 0;
        };
        self.rings[idx]
            .ring
            .iter()
            .take_while(|slot| slot.is_some())
            .count()
    }

    fn occupancy(&self) -> usize {
        self.ring_cells
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn peak_occupancy(&self) -> usize {
        self.peak
    }

    fn num_queues(&self) -> usize {
        self.rings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(q: u32, start: u64, n: usize) -> Vec<Cell> {
        (0..n)
            .map(|i| Cell::new(LogicalQueueId::new(q), start + i as u64, 0))
            .collect()
    }

    #[test]
    fn in_order_blocks_drain_fifo() {
        let q = LogicalQueueId::new(0);
        let mut b = GlobalCamBuffer::with_block_size(2, 64, 4);
        b.insert_block(q, 0, &cells(0, 0, 4)).unwrap();
        b.insert_block(q, 1, &cells(0, 4, 4)).unwrap();
        for i in 0..8 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
        assert!(b.pop_front(q).is_none());
    }

    #[test]
    fn out_of_order_blocks_still_drain_fifo() {
        let q = LogicalQueueId::new(1);
        let mut b = GlobalCamBuffer::with_block_size(2, 64, 4);
        b.insert_block(q, 2, &cells(1, 8, 4)).unwrap();
        b.insert_block(q, 0, &cells(1, 0, 4)).unwrap();
        // Block 1 missing: only block 0's cells are available.
        assert_eq!(b.available(q), 4);
        for i in 0..4 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
        assert!(b.pop_front(q).is_none(), "cell 4 not yet resident");
        b.insert_block(q, 1, &cells(1, 4, 4)).unwrap();
        assert_eq!(b.available(q), 8);
        for i in 4..12 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
    }

    #[test]
    fn capacity_and_duplicates_are_enforced() {
        let q = LogicalQueueId::new(0);
        let mut b = GlobalCamBuffer::with_block_size(1, 4, 4);
        b.insert_block(q, 0, &cells(0, 0, 4)).unwrap();
        assert!(matches!(
            b.insert_block(q, 1, &cells(0, 4, 4)),
            Err(BufferError::Full { .. })
        ));
        let mut b = GlobalCamBuffer::with_block_size(1, 64, 4);
        b.insert_block(q, 0, &cells(0, 0, 4)).unwrap();
        assert!(matches!(
            b.insert_block(q, 0, &cells(0, 0, 4)),
            Err(BufferError::DuplicateBlock { .. })
        ));
        // An out-of-order block is detected as a duplicate too.
        b.insert_block(q, 9, &cells(0, 36, 4)).unwrap();
        assert!(matches!(
            b.insert_block(q, 9, &cells(0, 36, 4)),
            Err(BufferError::DuplicateBlock { .. })
        ));
    }

    #[test]
    fn a_block_below_the_head_is_refused() {
        let q = LogicalQueueId::new(0);
        let mut b = GlobalCamBuffer::with_block_size(1, 64, 4);
        b.insert_block(q, 0, &cells(0, 0, 4)).unwrap();
        b.insert_block(q, 1, &cells(0, 4, 4)).unwrap();
        for i in 0..6 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
        // Block 0 is consumed and block 1 half consumed: both start below
        // the head, so neither can be stored again, and nothing is counted.
        for ordinal in [0, 1] {
            assert_eq!(
                b.insert_block(q, ordinal, &cells(0, 4 * ordinal, 4)),
                Err(BufferError::DuplicateBlock { queue: q, ordinal })
            );
        }
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.available(q), 2);
        // The next block still lands behind the resident cells.
        b.insert_block(q, 2, &cells(0, 8, 4)).unwrap();
        assert_eq!(b.occupancy(), 6);
        for i in 6..12 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
    }

    #[test]
    fn push_cell_appends_at_tail() {
        let q = LogicalQueueId::new(0);
        let mut b = GlobalCamBuffer::new(1, 16);
        for i in 0..5 {
            b.push_cell(q, Cell::new(q, i, 0)).unwrap();
        }
        assert_eq!(b.occupancy(), 5);
        assert_eq!(b.available(q), 5);
        for i in 0..5 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
    }

    #[test]
    fn queue_out_of_range() {
        let mut b = GlobalCamBuffer::new(2, 16);
        let bad = LogicalQueueId::new(9);
        assert!(matches!(
            b.push_cell(bad, Cell::new(bad, 0, 0)),
            Err(BufferError::QueueOutOfRange { .. })
        ));
        assert_eq!(b.available(bad), 0);
        assert!(b.pop_front(bad).is_none());
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let q = LogicalQueueId::new(0);
        let mut b = GlobalCamBuffer::new(1, 16);
        for i in 0..6 {
            b.push_cell(q, Cell::new(q, i, 0)).unwrap();
        }
        for _ in 0..6 {
            b.pop_front(q);
        }
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.peak_occupancy(), 6);
        assert_eq!(b.capacity(), 16);
        assert_eq!(b.num_queues(), 1);
    }
}
