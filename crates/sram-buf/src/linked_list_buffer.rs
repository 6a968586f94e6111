//! The unified linked-list shared buffer.

use crate::pointer_table::PointerTable;
use crate::traits::{BufferError, SharedBuffer};
use pktbuf_model::{Cell, LogicalQueueId};

/// One entry of the direct-mapped array: a cell plus a next pointer.
#[derive(Debug, Clone)]
struct Entry {
    cell: Cell,
    next: Option<u32>,
}

/// Direct-mapped shared buffer organised as linked lists.
///
/// Each queue owns `lanes` linked lists (the CFDS variant uses
/// `lanes = B/b`, one per bank of the queue's group, because blocks from the
/// same bank always arrive in order; RADS uses a single lane). A head/tail
/// [`PointerTable`] locates each list; free entries are kept on a free list.
#[derive(Debug, Clone)]
pub struct UnifiedLinkedListBuffer {
    entries: Vec<Option<Entry>>,
    free_head: Option<u32>,
    free_count: usize,
    pointers: PointerTable,
    lanes: usize,
    cells_per_block: usize,
    num_queues: usize,
    /// Lane from which the next pop of each queue must come, plus how many
    /// cells of the current block remain to be taken from that lane.
    pop_lane: Vec<usize>,
    pop_remaining: Vec<usize>,
    /// Lane that the next inserted in-order cell (push_cell) belongs to, plus
    /// how many cells of the current block have been pushed.
    push_lane: Vec<usize>,
    push_filled: Vec<usize>,
    occupancy: usize,
    peak: usize,
}

impl UnifiedLinkedListBuffer {
    /// Creates a single-lane buffer (RADS-style in-order arrivals).
    pub fn new(num_queues: usize, capacity: usize) -> Self {
        UnifiedLinkedListBuffer::with_lanes(num_queues, capacity, 1, 1)
    }

    /// Creates a buffer with `lanes` lists per queue and blocks of
    /// `cells_per_block` cells.
    pub fn with_lanes(
        num_queues: usize,
        capacity: usize,
        lanes: usize,
        cells_per_block: usize,
    ) -> Self {
        let lanes = lanes.max(1);
        let mut entries = Vec::with_capacity(capacity);
        entries.resize_with(capacity, || None);
        // Build the free list 0 → 1 → 2 → …
        let mut buf = UnifiedLinkedListBuffer {
            entries,
            free_head: None,
            free_count: 0,
            pointers: PointerTable::new(num_queues * lanes),
            lanes,
            cells_per_block: cells_per_block.max(1),
            num_queues,
            pop_lane: vec![0; num_queues],
            pop_remaining: vec![0; num_queues],
            push_lane: vec![0; num_queues],
            push_filled: vec![0; num_queues],
            occupancy: 0,
            peak: 0,
        };
        for i in (0..capacity).rev() {
            buf.entries[i] = None;
            buf.push_free(i as u32);
        }
        buf
    }

    fn push_free(&mut self, idx: u32) {
        self.entries[idx as usize] = Some(Entry {
            // A placeholder cell is never observed: the entry is overwritten
            // before being linked into a queue list.
            cell: Cell::new(LogicalQueueId::new(0), u64::MAX, 0),
            next: self.free_head,
        });
        self.free_head = Some(idx);
        self.free_count += 1;
    }

    fn pop_free(&mut self) -> Option<u32> {
        let idx = self.free_head?;
        let next = self.entries[idx as usize].as_ref().and_then(|e| e.next);
        self.free_head = next;
        self.free_count -= 1;
        Some(idx)
    }

    fn list_index(&self, queue: usize, lane: usize) -> usize {
        queue * self.lanes + lane
    }

    fn check_queue(&self, queue: LogicalQueueId) -> Result<usize, BufferError> {
        let idx = queue.as_usize();
        if idx >= self.num_queues {
            return Err(BufferError::QueueOutOfRange {
                queue,
                num_queues: self.num_queues,
            });
        }
        Ok(idx)
    }

    fn append_to_list(&mut self, list: usize, cell: Cell) -> Result<(), BufferError> {
        let idx = self.pop_free().ok_or(BufferError::Full {
            capacity: self.entries.len(),
        })?;
        self.entries[idx as usize] = Some(Entry { cell, next: None });
        if let Some(prev_tail) = self.pointers.push_tail(list, idx) {
            if let Some(e) = self.entries[prev_tail as usize].as_mut() {
                e.next = Some(idx);
            }
        }
        self.occupancy += 1;
        self.peak = self.peak.max(self.occupancy);
        Ok(())
    }

    fn pop_from_list(&mut self, list: usize) -> Option<Cell> {
        if self.pointers.is_empty(list) {
            return None;
        }
        let head = self.pointers.head(list).expect("non-empty list has a head");
        let entry = self.entries[head as usize]
            .take()
            .expect("head entry is occupied");
        self.pointers.pop_head(list, entry.next);
        self.push_free(head);
        self.occupancy -= 1;
        Some(entry.cell)
    }

    /// Number of lanes per queue.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Free entries remaining.
    pub fn free_entries(&self) -> usize {
        self.free_count
    }
}

impl SharedBuffer for UnifiedLinkedListBuffer {
    fn insert_block(
        &mut self,
        queue: LogicalQueueId,
        ordinal: u64,
        cells: &[Cell],
    ) -> Result<(), BufferError> {
        let qi = self.check_queue(queue)?;
        if cells.len() > self.free_count {
            return Err(BufferError::Full {
                capacity: self.entries.len(),
            });
        }
        let lane = (ordinal % self.lanes as u64) as usize;
        let list = self.list_index(qi, lane);
        for &cell in cells {
            self.append_to_list(list, cell)?;
        }
        Ok(())
    }

    fn push_cell(&mut self, queue: LogicalQueueId, cell: Cell) -> Result<(), BufferError> {
        let qi = self.check_queue(queue)?;
        if self.free_count == 0 {
            return Err(BufferError::Full {
                capacity: self.entries.len(),
            });
        }
        let lane = self.push_lane[qi];
        let list = self.list_index(qi, lane);
        self.append_to_list(list, cell)?;
        self.push_filled[qi] += 1;
        if self.push_filled[qi] == self.cells_per_block {
            self.push_filled[qi] = 0;
            self.push_lane[qi] = (lane + 1) % self.lanes;
        }
        Ok(())
    }

    fn pop_front(&mut self, queue: LogicalQueueId) -> Option<Cell> {
        let qi = self.check_queue(queue).ok()?;
        let lane = self.pop_lane[qi];
        let list = self.list_index(qi, lane);
        let cell = self.pop_from_list(list)?;
        if self.pop_remaining[qi] == 0 {
            self.pop_remaining[qi] = self.cells_per_block;
        }
        self.pop_remaining[qi] -= 1;
        if self.pop_remaining[qi] == 0 {
            self.pop_lane[qi] = (lane + 1) % self.lanes;
        }
        Some(cell)
    }

    fn available(&self, queue: LogicalQueueId) -> usize {
        let Ok(qi) = self.check_queue(queue) else {
            return 0;
        };
        // Walk the lanes in pop order, counting cells until a lane runs dry
        // before a full block was available.
        let mut total = 0usize;
        let mut lane = self.pop_lane[qi];
        let mut needed = if self.pop_remaining[qi] == 0 {
            self.cells_per_block
        } else {
            self.pop_remaining[qi]
        };
        for _ in 0..(self.lanes * 2).max(2) {
            let len = self.pointers.len(self.list_index(qi, lane));
            if len >= needed {
                total += needed;
                let leftover = len - needed;
                // Continue only if the lane held exactly one block boundary;
                // deeper look-ahead of later blocks in the same lane is not
                // needed for correctness of `available`, so count leftovers
                // conservatively when this is the only lane.
                if self.lanes == 1 {
                    total += leftover;
                    break;
                }
                lane = (lane + 1) % self.lanes;
                needed = self.cells_per_block;
            } else {
                total += len;
                break;
            }
        }
        total
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn peak_occupancy(&self) -> usize {
        self.peak
    }

    fn num_queues(&self) -> usize {
        self.num_queues
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
    fn single_lane_fifo() {
        let q = LogicalQueueId::new(0);
        let mut b = UnifiedLinkedListBuffer::new(2, 32);
        for i in 0..10 {
            b.push_cell(q, Cell::new(q, i, 0)).unwrap();
        }
        assert_eq!(b.available(q), 10);
        for i in 0..10 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
        assert!(b.pop_front(q).is_none());
        assert_eq!(b.free_entries(), 32);
    }

    #[test]
    fn multi_lane_out_of_order_blocks_drain_in_order() {
        // 4 lanes (B/b = 4), blocks of 2 cells.
        let q = LogicalQueueId::new(1);
        let mut b = UnifiedLinkedListBuffer::with_lanes(2, 64, 4, 2);
        // Blocks arrive out of order: 1, 0, 3, 2 (same-lane blocks stay in
        // order, which the DRAM banking guarantees).
        b.insert_block(q, 1, &cells(1, 2, 2)).unwrap();
        b.insert_block(q, 0, &cells(1, 0, 2)).unwrap();
        b.insert_block(q, 3, &cells(1, 6, 2)).unwrap();
        b.insert_block(q, 2, &cells(1, 4, 2)).unwrap();
        for i in 0..8 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i, "cell {i}");
        }
    }

    #[test]
    fn available_respects_missing_block() {
        let q = LogicalQueueId::new(0);
        let mut b = UnifiedLinkedListBuffer::with_lanes(1, 64, 4, 2);
        b.insert_block(q, 0, &cells(0, 0, 2)).unwrap();
        b.insert_block(q, 2, &cells(0, 4, 2)).unwrap();
        // Block 1 missing: only the first block is contiguously available.
        assert_eq!(b.available(q), 2);
        assert_eq!(b.pop_front(q).unwrap().seq(), 0);
        assert_eq!(b.pop_front(q).unwrap().seq(), 1);
        assert!(b.pop_front(q).is_none());
        b.insert_block(q, 1, &cells(0, 2, 2)).unwrap();
        assert_eq!(b.available(q), 4);
        for i in 2..6 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let q = LogicalQueueId::new(0);
        let mut b = UnifiedLinkedListBuffer::new(1, 3);
        for i in 0..3 {
            b.push_cell(q, Cell::new(q, i, 0)).unwrap();
        }
        assert!(matches!(
            b.push_cell(q, Cell::new(q, 3, 0)),
            Err(BufferError::Full { .. })
        ));
        assert!(matches!(
            b.insert_block(q, 5, &cells(0, 10, 2)),
            Err(BufferError::Full { .. })
        ));
        assert_eq!(b.peak_occupancy(), 3);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn queues_do_not_interfere() {
        let qa = LogicalQueueId::new(0);
        let qb = LogicalQueueId::new(1);
        let mut b = UnifiedLinkedListBuffer::with_lanes(2, 64, 2, 2);
        b.insert_block(qa, 0, &cells(0, 0, 2)).unwrap();
        b.insert_block(qb, 0, &cells(1, 0, 2)).unwrap();
        b.insert_block(qb, 1, &cells(1, 2, 2)).unwrap();
        assert_eq!(b.pop_front(qa).unwrap().queue(), qa);
        assert_eq!(b.pop_front(qb).unwrap().queue(), qb);
        assert_eq!(b.occupancy(), 4);
        assert_eq!(b.num_queues(), 2);
        assert_eq!(b.lanes(), 2);
    }

    #[test]
    fn out_of_range_queue() {
        let mut b = UnifiedLinkedListBuffer::new(1, 8);
        let bad = LogicalQueueId::new(4);
        assert!(matches!(
            b.push_cell(bad, Cell::new(bad, 0, 0)),
            Err(BufferError::QueueOutOfRange { .. })
        ));
        assert!(b.pop_front(bad).is_none());
        assert_eq!(b.available(bad), 0);
    }

    #[test]
    fn push_cell_with_lanes_rotates_like_blocks() {
        // In-order arrivals through push_cell must be retrievable in order
        // even when the buffer is configured with several lanes.
        let q = LogicalQueueId::new(0);
        let mut b = UnifiedLinkedListBuffer::with_lanes(1, 64, 4, 2);
        for i in 0..16 {
            b.push_cell(q, Cell::new(q, i, 0)).unwrap();
        }
        for i in 0..16 {
            assert_eq!(b.pop_front(q).unwrap().seq(), i);
        }
    }

    #[test]
    fn interleaved_push_pop_reuses_entries() {
        let q = LogicalQueueId::new(0);
        let mut b = UnifiedLinkedListBuffer::new(1, 4);
        for round in 0..50u64 {
            b.push_cell(q, Cell::new(q, round, 0)).unwrap();
            assert_eq!(b.pop_front(q).unwrap().seq(), round);
        }
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.free_entries(), 4);
    }
}
