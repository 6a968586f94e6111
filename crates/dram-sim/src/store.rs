//! Per-queue DRAM block storage with group capacity accounting.
//!
//! The storage view of the DRAM: each physical queue is a FIFO of `b`-cell
//! blocks that lives entirely inside its statically assigned bank group. The
//! store tracks per-group occupancy so the fragmentation experiments (§6) can
//! observe how much of the DRAM is actually usable with and without renaming.
//! A block is any [`StoredBlock`]: a `Vec<Cell>` by default, or a handle to
//! cells the caller keeps (a buffer's block slab).

use crate::mapping::AddressMapper;
use crate::request::GroupId;
use pktbuf_model::{Cell, PhysicalQueueId};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors raised by the [`DramStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The bank group that the queue is assigned to has no free block.
    GroupFull {
        /// Group that is full.
        group: GroupId,
        /// Capacity of the group in blocks.
        capacity_blocks: usize,
    },
    /// A read was attempted on a queue with no blocks in DRAM.
    QueueEmpty {
        /// The empty queue.
        queue: PhysicalQueueId,
    },
    /// The requested block ordinal is not resident.
    BlockMissing {
        /// Queue of the missing block.
        queue: PhysicalQueueId,
        /// Requested ordinal.
        ordinal: u64,
    },
    /// A block was written twice at the same ordinal.
    BlockAlreadyPresent {
        /// Queue of the duplicate block.
        queue: PhysicalQueueId,
        /// Duplicate ordinal.
        ordinal: u64,
    },
    /// Queue index outside the configured range.
    QueueOutOfRange {
        /// The offending queue.
        queue: PhysicalQueueId,
        /// Configured number of physical queues.
        num_queues: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::GroupFull {
                group,
                capacity_blocks,
            } => write!(f, "{group} is full ({capacity_blocks} blocks)"),
            StoreError::QueueEmpty { queue } => write!(f, "{queue} has no blocks in DRAM"),
            StoreError::BlockMissing { queue, ordinal } => {
                write!(f, "block {ordinal} of {queue} is not in DRAM")
            }
            StoreError::BlockAlreadyPresent { queue, ordinal } => {
                write!(f, "block {ordinal} of {queue} is already in DRAM")
            }
            StoreError::QueueOutOfRange { queue, num_queues } => {
                write!(f, "{queue} out of range ({num_queues} physical queues)")
            }
        }
    }
}

impl Error for StoreError {}

/// What a [`DramStore`] holds per block: anything that knows its cell count.
pub trait StoredBlock {
    /// Cells in the block.
    fn cell_count(&self) -> usize;
}

impl StoredBlock for Vec<Cell> {
    fn cell_count(&self) -> usize {
        self.len()
    }
}

/// State of one ordinal position in a queue's block ring.
#[derive(Debug, Clone)]
enum BlockSlot<T> {
    /// Never written at this ordinal (a scheduler hole awaiting its write).
    Vacant,
    /// Resident block.
    Present(T),
    /// Written and later read; kept only while trapped behind a vacant hole.
    Consumed,
}

impl<T> BlockSlot<T> {
    fn is_present(&self) -> bool {
        matches!(self, BlockSlot::Present(_))
    }
}

/// Block storage of one physical queue: a dense ring indexed by
/// `ordinal - base` instead of a `BTreeMap<u64, T>`.
///
/// The CFDS scheduler may commit and fetch blocks out of ordinal order, but
/// the live ordinals of a FIFO queue always form a narrow moving window, so a
/// ring with a base offset gives O(1) index-addressed access with no per-block
/// tree nodes to allocate or free on the simulation hot path.
#[derive(Debug, Clone)]
struct QueueBlocks<T> {
    /// The bank group the queue is statically mapped to, resolved once at
    /// construction so a block access costs no division.
    group: GroupId,
    /// Ordinal of ring position 0.
    base: u64,
    ring: VecDeque<BlockSlot<T>>,
    resident_blocks: usize,
    resident_cells: usize,
}

impl<T> QueueBlocks<T> {
    fn slot(&self, ordinal: u64) -> Option<&BlockSlot<T>> {
        if ordinal < self.base {
            return None;
        }
        self.ring.get((ordinal - self.base) as usize)
    }

    /// Grows the ring (front or back) so `ordinal` has a slot, and returns its
    /// index. Growth is a warm-up cost: once the window covers the queue's
    /// steady-state span no further allocation happens.
    fn slot_index_for_write(&mut self, ordinal: u64) -> usize {
        if self.ring.is_empty() {
            self.base = ordinal;
        }
        if ordinal < self.base {
            for _ in 0..(self.base - ordinal) {
                self.ring.push_front(BlockSlot::Vacant);
            }
            self.base = ordinal;
        }
        let idx = (ordinal - self.base) as usize;
        while self.ring.len() <= idx {
            self.ring.push_back(BlockSlot::Vacant);
        }
        idx
    }

    /// Drops consumed slots from the front so the ring tracks the live window.
    fn trim_front(&mut self) {
        while matches!(self.ring.front(), Some(BlockSlot::Consumed)) {
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

/// FIFO block storage for every physical queue, constrained by per-group
/// capacity. Blocks are `Vec<Cell>` unless the caller stores handles.
#[derive(Debug, Clone)]
pub struct DramStore<T = Vec<Cell>> {
    mapper: AddressMapper,
    /// Per-queue block rings (see [`QueueBlocks`]). The CFDS scheduler may
    /// commit blocks to the DRAM out of ordinal order, which the ring absorbs
    /// as transient vacant holes.
    queues: Vec<QueueBlocks<T>>,
    /// Next block ordinal to be written, per queue (monotonically increasing).
    tail_ordinal: Vec<u64>,
    /// Ordinal of the block currently at the head, per queue.
    head_ordinal: Vec<u64>,
    /// Blocks currently resident, per group.
    group_occupancy: Vec<usize>,
    /// Capacity of each group in blocks.
    group_capacity_blocks: usize,
}

impl<T: StoredBlock> DramStore<T> {
    /// Creates a store where each of the `G` groups can hold
    /// `group_capacity_blocks` blocks.
    pub fn new(mapper: AddressMapper, group_capacity_blocks: usize) -> Self {
        let nq = mapper.config().num_physical_queues();
        let ng = mapper.config().num_groups();
        DramStore {
            queues: (0..nq)
                .map(|q| QueueBlocks {
                    group: mapper.group_of_queue(PhysicalQueueId::new(q as u32)),
                    base: 0,
                    ring: VecDeque::new(),
                    resident_blocks: 0,
                    resident_cells: 0,
                })
                .collect(),
            mapper,
            tail_ordinal: vec![0; nq],
            head_ordinal: vec![0; nq],
            group_occupancy: vec![0; ng],
            group_capacity_blocks,
        }
    }

    /// Creates a store sized from a total DRAM capacity in cells, split evenly
    /// over the groups (blocks of `cells_per_block` cells).
    pub fn with_total_capacity(
        mapper: AddressMapper,
        total_capacity_cells: usize,
        cells_per_block: usize,
    ) -> Self {
        let ng = mapper.config().num_groups();
        let blocks = total_capacity_cells / cells_per_block.max(1);
        DramStore::new(mapper, blocks / ng.max(1))
    }

    fn check_queue(&self, queue: PhysicalQueueId) -> Result<usize, StoreError> {
        let idx = queue.as_usize();
        if idx >= self.queues.len() {
            return Err(StoreError::QueueOutOfRange {
                queue,
                num_queues: self.queues.len(),
            });
        }
        Ok(idx)
    }

    /// Appends a block to `queue`.
    ///
    /// Returns the ordinal assigned to the block (which determines the bank it
    /// lives in).
    ///
    /// # Errors
    ///
    /// [`StoreError::GroupFull`] when the queue's group has no free block;
    /// [`StoreError::QueueOutOfRange`] for an unknown queue.
    pub fn write_block(&mut self, queue: PhysicalQueueId, block: T) -> Result<u64, StoreError> {
        let ordinal = self.tail_ordinal[self.check_queue(queue)?];
        self.write_block_at(queue, ordinal, block)?;
        Ok(ordinal)
    }

    /// Writes a block at an explicit ordinal (used by the CFDS scheduler,
    /// which assigns ordinals at submit time and may commit them out of
    /// order).
    ///
    /// # Errors
    ///
    /// [`StoreError::GroupFull`], [`StoreError::BlockAlreadyPresent`] or
    /// [`StoreError::QueueOutOfRange`].
    pub fn write_block_at(
        &mut self,
        queue: PhysicalQueueId,
        ordinal: u64,
        block: T,
    ) -> Result<(), StoreError> {
        let idx = self.check_queue(queue)?;
        let q = &mut self.queues[idx];
        let group = q.group;
        if self.group_occupancy[group.index()] >= self.group_capacity_blocks {
            return Err(StoreError::GroupFull {
                group,
                capacity_blocks: self.group_capacity_blocks,
            });
        }
        if q.slot(ordinal).is_some_and(BlockSlot::is_present) {
            return Err(StoreError::BlockAlreadyPresent { queue, ordinal });
        }
        let pos = q.slot_index_for_write(ordinal);
        q.resident_blocks += 1;
        q.resident_cells += block.cell_count();
        q.ring[pos] = BlockSlot::Present(block);
        if ordinal >= self.tail_ordinal[idx] {
            self.tail_ordinal[idx] = ordinal + 1;
        }
        self.group_occupancy[group.index()] += 1;
        Ok(())
    }

    /// Removes and returns the block at the head of `queue` together with its
    /// ordinal.
    ///
    /// # Errors
    ///
    /// [`StoreError::QueueEmpty`] when the queue holds no block;
    /// [`StoreError::QueueOutOfRange`] for an unknown queue.
    pub fn read_block(&mut self, queue: PhysicalQueueId) -> Result<(u64, T), StoreError> {
        let idx = self.check_queue(queue)?;
        let q = &self.queues[idx];
        let ordinal = q
            .ring
            .iter()
            .position(BlockSlot::is_present)
            .map(|pos| q.base + pos as u64)
            .ok_or(StoreError::QueueEmpty { queue })?;
        let block = self.read_block_at(queue, ordinal)?;
        Ok((ordinal, block))
    }

    /// Removes and returns the block stored at `ordinal` for `queue`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BlockMissing`] or [`StoreError::QueueOutOfRange`].
    pub fn read_block_at(&mut self, queue: PhysicalQueueId, ordinal: u64) -> Result<T, StoreError> {
        let idx = self.check_queue(queue)?;
        let q = &mut self.queues[idx];
        if !q.slot(ordinal).is_some_and(BlockSlot::is_present) {
            return Err(StoreError::BlockMissing { queue, ordinal });
        }
        let pos = (ordinal - q.base) as usize;
        let BlockSlot::Present(block) = std::mem::replace(&mut q.ring[pos], BlockSlot::Consumed)
        else {
            // The is_present probe above makes this unreachable; returning
            // the miss error keeps the hot path free of panicking branches.
            return Err(StoreError::BlockMissing { queue, ordinal });
        };
        q.resident_blocks -= 1;
        q.resident_cells -= block.cell_count();
        q.trim_front();
        if ordinal >= self.head_ordinal[idx] {
            self.head_ordinal[idx] = ordinal + 1;
        }
        self.group_occupancy[q.group.index()] -= 1;
        Ok(block)
    }

    /// Records that the block at `ordinal` of `queue` was *forwarded* around
    /// the DRAM (its read was issued before its producing write — possible
    /// only under the ablation scheduler policies) and will therefore never
    /// become resident. Without this the ordinal would stay a vacant hole at
    /// the front of the queue's ring forever, pinning the ring's base and
    /// growing it by one retained slot per later block.
    ///
    /// No observable state changes: the block was never resident, so group
    /// occupancy and the per-queue block/cell counts are untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError::QueueOutOfRange`] for an unknown queue.
    pub fn note_forwarded(
        &mut self,
        queue: PhysicalQueueId,
        ordinal: u64,
    ) -> Result<(), StoreError> {
        let idx = self.check_queue(queue)?;
        let q = &mut self.queues[idx];
        if ordinal < q.base {
            return Ok(());
        }
        let pos = q.slot_index_for_write(ordinal);
        if matches!(q.ring[pos], BlockSlot::Vacant) {
            q.ring[pos] = BlockSlot::Consumed;
            q.trim_front();
        }
        Ok(())
    }

    /// Whether a block is resident at `ordinal` for `queue`.
    pub fn has_block(&self, queue: PhysicalQueueId, ordinal: u64) -> bool {
        self.queues
            .get(queue.as_usize())
            .and_then(|q| q.slot(ordinal))
            .is_some_and(BlockSlot::is_present)
    }

    /// Ordinal that the *next* written block of `queue` will receive.
    pub fn next_write_ordinal(&self, queue: PhysicalQueueId) -> u64 {
        self.tail_ordinal[queue.as_usize()]
    }

    /// Ordinal of the block currently at the head of `queue`.
    pub fn head_ordinal(&self, queue: PhysicalQueueId) -> u64 {
        self.head_ordinal[queue.as_usize()]
    }

    /// Number of blocks currently stored for `queue`.
    pub fn blocks_in_queue(&self, queue: PhysicalQueueId) -> usize {
        self.queues[queue.as_usize()].resident_blocks
    }

    /// Number of cells currently stored for `queue`.
    pub fn cells_in_queue(&self, queue: PhysicalQueueId) -> usize {
        self.queues[queue.as_usize()].resident_cells
    }

    /// Blocks currently resident in `group`.
    pub fn group_occupancy(&self, group: GroupId) -> usize {
        self.group_occupancy[group.index()]
    }

    /// Capacity of each group in blocks.
    pub fn group_capacity_blocks(&self) -> usize {
        self.group_capacity_blocks
    }

    /// Total blocks resident across all groups.
    pub fn total_blocks(&self) -> usize {
        self.group_occupancy.iter().sum()
    }

    /// Fraction of the total DRAM block capacity currently used.
    pub fn utilisation(&self) -> f64 {
        let cap = self.group_capacity_blocks * self.group_occupancy.len();
        if cap == 0 {
            return 0.0;
        }
        self.total_blocks() as f64 / cap as f64
    }

    /// The address mapper used by this store.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Groups that currently have free space, ordered by ascending occupancy
    /// (ties resolve to the lower group index). Allocates — used on cold
    /// paths only; the per-period writeback path ranks groups in one pass
    /// without materialising a list (the renaming layer's ranked allocation
    /// over [`DramStore::group_occupancy`]).
    pub fn groups_with_room(&self) -> Vec<GroupId> {
        let mut out: Vec<GroupId> = self
            .group_occupancy
            .iter()
            .enumerate()
            .filter(|(_, occ)| **occ < self.group_capacity_blocks)
            .map(|(i, _)| GroupId::new(i as u32))
            .collect(); // analyze: allow(hotpath-alloc) — documented cold-path accessor; the per-period writeback path ranks groups without materialising a list
                        // (occupancy, index) keys are distinct, so the unstable in-place sort
                        // produces exactly the stable by-occupancy order.
        out.sort_unstable_by_key(|g| (self.group_occupancy[g.index()], g.index()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InterleavingConfig;
    use pktbuf_model::LogicalQueueId;

    fn store(group_blocks: usize) -> DramStore {
        let mapper = AddressMapper::new(InterleavingConfig::new(16, 4, 8).unwrap());
        DramStore::new(mapper, group_blocks)
    }

    fn mk_cells(q: u32, start_seq: u64, n: usize) -> Vec<Cell> {
        (0..n)
            .map(|i| Cell::new(LogicalQueueId::new(q), start_seq + i as u64, 0))
            .collect()
    }

    #[test]
    fn write_then_read_is_fifo() {
        let mut s = store(8);
        let q = PhysicalQueueId::new(1);
        assert_eq!(s.write_block(q, mk_cells(1, 0, 4)).unwrap(), 0);
        assert_eq!(s.write_block(q, mk_cells(1, 4, 4)).unwrap(), 1);
        assert_eq!(s.blocks_in_queue(q), 2);
        assert_eq!(s.cells_in_queue(q), 8);
        let (o0, b0) = s.read_block(q).unwrap();
        assert_eq!(o0, 0);
        assert_eq!(b0[0].seq(), 0);
        let (o1, b1) = s.read_block(q).unwrap();
        assert_eq!(o1, 1);
        assert_eq!(b1[0].seq(), 4);
        assert!(matches!(
            s.read_block(q),
            Err(StoreError::QueueEmpty { .. })
        ));
    }

    #[test]
    fn group_capacity_is_enforced() {
        let mut s = store(2);
        // Queues 0 and 4 both map to group 0 (4 groups).
        let q0 = PhysicalQueueId::new(0);
        let q4 = PhysicalQueueId::new(4);
        s.write_block(q0, mk_cells(0, 0, 4)).unwrap();
        s.write_block(q4, mk_cells(4, 0, 4)).unwrap();
        let err = s.write_block(q0, mk_cells(0, 4, 4)).unwrap_err();
        assert!(matches!(err, StoreError::GroupFull { .. }));
        assert_eq!(
            s.group_occupancy(GroupId::new(0)),
            s.group_capacity_blocks()
        );
        assert!(s.group_occupancy(GroupId::new(1)) < s.group_capacity_blocks());
        // Draining frees space.
        s.read_block(q4).unwrap();
        assert!(s.group_occupancy(GroupId::new(0)) < s.group_capacity_blocks());
        s.write_block(q0, mk_cells(0, 4, 4)).unwrap();
    }

    #[test]
    fn occupancy_and_utilisation() {
        let mut s = store(4);
        assert_eq!(s.total_blocks(), 0);
        assert_eq!(s.utilisation(), 0.0);
        s.write_block(PhysicalQueueId::new(0), mk_cells(0, 0, 4))
            .unwrap();
        s.write_block(PhysicalQueueId::new(1), mk_cells(1, 0, 4))
            .unwrap();
        assert_eq!(s.total_blocks(), 2);
        assert_eq!(s.group_occupancy(GroupId::new(0)), 1);
        assert_eq!(s.group_occupancy(GroupId::new(1)), 1);
        assert!((s.utilisation() - 2.0 / 16.0).abs() < 1e-12);
        assert_eq!(s.group_capacity_blocks(), 4);
    }

    #[test]
    fn groups_with_room_rank_the_emptiest_first() {
        let mut s = store(2);
        s.write_block(PhysicalQueueId::new(0), mk_cells(0, 0, 1))
            .unwrap();
        s.write_block(PhysicalQueueId::new(0), mk_cells(0, 1, 1))
            .unwrap();
        s.write_block(PhysicalQueueId::new(1), mk_cells(1, 0, 1))
            .unwrap();
        // Group 0 full, group 1 half, groups 2 and 3 empty.
        let rooms = s.groups_with_room();
        assert!(!rooms.contains(&GroupId::new(0)));
        assert_eq!(rooms.len(), 3);
        // Empty groups come first, ties to the lower index.
        assert_eq!(rooms, [2, 3, 1].map(GroupId::new));
    }

    #[test]
    fn out_of_range_queue_is_rejected() {
        let mut s = store(2);
        let bad = PhysicalQueueId::new(999);
        assert!(matches!(
            s.write_block(bad, vec![]),
            Err(StoreError::QueueOutOfRange { .. })
        ));
        assert!(matches!(
            s.read_block(bad),
            Err(StoreError::QueueOutOfRange { .. })
        ));
    }

    #[test]
    fn ordinals_track_head_and_tail() {
        let mut s = store(8);
        let q = PhysicalQueueId::new(2);
        assert_eq!(s.next_write_ordinal(q), 0);
        s.write_block(q, mk_cells(2, 0, 4)).unwrap();
        s.write_block(q, mk_cells(2, 4, 4)).unwrap();
        assert_eq!(s.next_write_ordinal(q), 2);
        assert_eq!(s.head_ordinal(q), 0);
        s.read_block(q).unwrap();
        assert_eq!(s.head_ordinal(q), 1);
    }

    #[test]
    fn explicit_ordinal_writes_and_reads() {
        let mut s = store(8);
        let q = PhysicalQueueId::new(3);
        // Commit out of order (ordinal 1 before 0), as the CFDS DSA may do.
        s.write_block_at(q, 1, mk_cells(3, 4, 4)).unwrap();
        s.write_block_at(q, 0, mk_cells(3, 0, 4)).unwrap();
        assert!(s.has_block(q, 0));
        assert!(s.has_block(q, 1));
        assert!(!s.has_block(q, 2));
        assert_eq!(s.next_write_ordinal(q), 2);
        // FIFO read still returns the lowest ordinal first.
        let (o, b) = s.read_block(q).unwrap();
        assert_eq!(o, 0);
        assert_eq!(b[0].seq(), 0);
        let b1 = s.read_block_at(q, 1).unwrap();
        assert_eq!(b1[0].seq(), 4);
        assert!(matches!(
            s.read_block_at(q, 1),
            Err(StoreError::BlockMissing { .. })
        ));
        // Duplicate write is rejected.
        s.write_block_at(q, 5, mk_cells(3, 20, 4)).unwrap();
        assert!(matches!(
            s.write_block_at(q, 5, mk_cells(3, 20, 4)),
            Err(StoreError::BlockAlreadyPresent { .. })
        ));
    }

    #[test]
    fn forwarded_ordinals_do_not_pin_the_ring() {
        let mut s = store(8);
        let q = PhysicalQueueId::new(1);
        // Ordinal 0 is forwarded around the DRAM (never written); ordinal 1
        // commits out of order, leaving a vacant hole in front of it.
        s.write_block_at(q, 1, mk_cells(1, 4, 4)).unwrap();
        s.note_forwarded(q, 0).unwrap();
        assert!(!s.has_block(q, 0));
        assert_eq!(s.blocks_in_queue(q), 1);
        // The hole is tombstoned: the FIFO read finds ordinal 1 and, once it
        // is consumed, the queue is fully drained (nothing retained).
        let (ordinal, block) = s.read_block(q).unwrap();
        assert_eq!(ordinal, 1);
        assert_eq!(block[0].seq(), 4);
        assert_eq!(s.blocks_in_queue(q), 0);
        assert!(matches!(
            s.read_block(q),
            Err(StoreError::QueueEmpty { .. })
        ));
        // Forwarding an already-trimmed ordinal is a no-op, and out-of-range
        // queues are rejected.
        s.note_forwarded(q, 0).unwrap();
        assert!(matches!(
            s.note_forwarded(PhysicalQueueId::new(999), 0),
            Err(StoreError::QueueOutOfRange { .. })
        ));
    }

    /// A handle to cells kept elsewhere, as a buffer's block slab hands out.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Handle {
        index: u32,
        cells: u32,
    }

    impl StoredBlock for Handle {
        fn cell_count(&self) -> usize {
            self.cells as usize
        }
    }

    #[test]
    fn handle_payloads_count_their_cells_and_forward() {
        let mapper = AddressMapper::new(InterleavingConfig::new(16, 4, 8).unwrap());
        let mut s: DramStore<Handle> = DramStore::new(mapper, 8);
        let q = PhysicalQueueId::new(2);
        let handle = |index, cells| Handle { index, cells };
        assert_eq!(s.write_block(q, handle(7, 4)).unwrap(), 0);
        s.write_block_at(q, 2, handle(3, 2)).unwrap();
        assert_eq!(s.blocks_in_queue(q), 2);
        assert_eq!(s.cells_in_queue(q), 6);
        // Ordinal 1 was forwarded around the DRAM: reading past it finds
        // ordinal 2, and the queue drains to nothing retained.
        s.note_forwarded(q, 1).unwrap();
        assert_eq!(s.read_block(q).unwrap(), (0, handle(7, 4)));
        assert_eq!(s.cells_in_queue(q), 2);
        assert_eq!(s.read_block(q).unwrap(), (2, handle(3, 2)));
        assert_eq!((s.blocks_in_queue(q), s.cells_in_queue(q)), (0, 0));
        assert!(matches!(
            s.read_block(q),
            Err(StoreError::QueueEmpty { .. })
        ));
        assert_eq!(s.total_blocks(), 0);
    }

    #[test]
    fn with_total_capacity_divides_evenly() {
        let mapper = AddressMapper::new(InterleavingConfig::new(16, 4, 8).unwrap());
        let s: DramStore = DramStore::with_total_capacity(mapper, 1024, 4);
        // 1024 cells / 4 cells per block = 256 blocks / 4 groups = 64.
        assert_eq!(s.group_capacity_blocks(), 64);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(StoreError::QueueEmpty {
            queue: PhysicalQueueId::new(3)
        }
        .to_string()
        .contains("Qp3"));
        assert!(StoreError::GroupFull {
            group: GroupId::new(1),
            capacity_blocks: 7
        }
        .to_string()
        .contains('7'));
    }
}
