//! Per-queue DRAM block storage with group capacity accounting.
//!
//! The storage view of the DRAM: each physical queue is a FIFO of `b`-cell
//! blocks that lives entirely inside its statically assigned bank group. The
//! store tracks per-group occupancy so the fragmentation experiments (§6) can
//! observe how much of the DRAM is actually usable with and without renaming.
//! A block is any [`StoredBlock`]: a `Vec<Cell>` by default, or a handle to
//! cells the caller keeps (a buffer's block slab).
//!
//! A scheduled DRAM (CFDS) keeps each block here from its write's submission
//! to its read's issue: [`DramStore::reserve`] appends it when the write
//! request is submitted, [`DramStore::commit`] makes it resident when the
//! write issues, and [`DramStore::take_block`] removes it when the read
//! issues, even if that read overtook the write. [`DramStore::write_block`]
//! and [`DramStore::read_block`] are the unscheduled forms.

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
    /// The requested block ordinal is not in the store.
    BlockMissing {
        /// Queue of the missing block.
        queue: PhysicalQueueId,
        /// Requested ordinal.
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

/// One block in a queue's ring: reserved (its write submitted, not issued
/// yet) or resident.
#[derive(Debug, Clone)]
struct Entry<T> {
    block: T,
    resident: bool,
}

/// Block storage of one physical queue: a dense ring indexed by
/// `ordinal - base` instead of a `BTreeMap<u64, T>`.
///
/// Blocks are appended in ordinal order, so the ring has no holes; reads
/// may take them out of order (the CFDS scheduler reorders requests), which
/// leaves a `None` in the ring until every older block has gone too.
#[derive(Debug, Clone)]
struct QueueBlocks<T> {
    /// The bank group the queue is statically mapped to, resolved once at
    /// construction so a block access costs no division.
    group: GroupId,
    /// Ordinal of ring position 0.
    base: u64,
    ring: VecDeque<Option<Entry<T>>>,
    resident_blocks: usize,
    resident_cells: usize,
}

impl<T> QueueBlocks<T> {
    fn slot_mut(&mut self, ordinal: u64) -> Option<&mut Option<Entry<T>>> {
        let pos = ordinal.checked_sub(self.base)?;
        self.ring.get_mut(pos as usize)
    }
}

/// FIFO block storage for every physical queue, constrained by per-group
/// capacity. Blocks are `Vec<Cell>` unless the caller stores handles.
#[derive(Debug, Clone)]
pub struct DramStore<T = Vec<Cell>> {
    mapper: AddressMapper,
    /// Per-queue block rings (see [`QueueBlocks`]).
    queues: Vec<QueueBlocks<T>>,
    /// Blocks currently resident, per group.
    group_occupancy: Vec<usize>,
    /// Blocks reserved and not yet resident, per group.
    group_reserved: Vec<usize>,
    /// Capacity of each group in blocks.
    group_capacity_blocks: usize,
}

impl<T: StoredBlock> DramStore<T> {
    /// Creates a store where each of the `G` groups can hold
    /// `group_capacity_blocks` blocks.
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
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
            group_occupancy: vec![0; ng],
            group_reserved: vec![0; ng],
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

    /// Whether `group` has room for one more block: its resident and
    /// reserved blocks together are below its capacity.
    pub fn group_has_room(&self, group: GroupId) -> bool {
        self.group_occupancy[group.index()] + self.group_reserved[group.index()]
            < self.group_capacity_blocks
    }

    /// Appends a *reserved* block to `queue`: it takes room in the queue's
    /// group, but is not resident until [`DramStore::commit`].
    ///
    /// Returns the ordinal assigned to the block (which determines the bank it
    /// lives in).
    ///
    /// # Errors
    ///
    /// [`StoreError::GroupFull`] when the queue's group has no room;
    /// [`StoreError::QueueOutOfRange`] for an unknown queue.
    pub fn reserve(&mut self, queue: PhysicalQueueId, block: T) -> Result<u64, StoreError> {
        let idx = self.check_queue(queue)?;
        let group = self.queues[idx].group;
        if !self.group_has_room(group) {
            return Err(StoreError::GroupFull {
                group,
                capacity_blocks: self.group_capacity_blocks,
            });
        }
        self.group_reserved[group.index()] += 1;
        let q = &mut self.queues[idx];
        q.ring.push_back(Some(Entry {
            block,
            resident: false,
        }));
        Ok(q.base + q.ring.len() as u64 - 1)
    }

    /// Makes the reserved block at `ordinal` of `queue` resident. Returns
    /// whether it did: `false` when no block is reserved there, as when a
    /// read took it first.
    pub fn commit(&mut self, queue: PhysicalQueueId, ordinal: u64) -> bool {
        let Some(q) = self.queues.get_mut(queue.as_usize()) else {
            return false;
        };
        let Some(entry) = q
            .slot_mut(ordinal)
            .and_then(|slot| slot.as_mut())
            .filter(|e| !e.resident)
        else {
            return false;
        };
        entry.resident = true;
        let cells = entry.block.cell_count();
        q.resident_blocks += 1;
        q.resident_cells += cells;
        self.group_reserved[q.group.index()] -= 1;
        self.group_occupancy[q.group.index()] += 1;
        true
    }

    /// Appends a resident block to `queue`: [`DramStore::reserve`] and
    /// [`DramStore::commit`] in one step.
    ///
    /// Returns the ordinal assigned to the block.
    ///
    /// # Errors
    ///
    /// As [`DramStore::reserve`].
    pub fn write_block(&mut self, queue: PhysicalQueueId, block: T) -> Result<u64, StoreError> {
        let ordinal = self.reserve(queue, block)?;
        self.commit(queue, ordinal);
        Ok(ordinal)
    }

    /// Removes and returns the oldest resident block of `queue` together with
    /// its ordinal.
    ///
    /// # Errors
    ///
    /// [`StoreError::QueueEmpty`] when the queue holds no resident block;
    /// [`StoreError::QueueOutOfRange`] for an unknown queue.
    pub fn read_block(&mut self, queue: PhysicalQueueId) -> Result<(u64, T), StoreError> {
        let q = &self.queues[self.check_queue(queue)?];
        let ordinal = q
            .ring
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.resident))
            .map(|pos| q.base + pos as u64)
            .ok_or(StoreError::QueueEmpty { queue })?;
        let block = self.take_block(queue, ordinal)?;
        Ok((ordinal, block))
    }

    /// Removes and returns the block at `ordinal` of `queue`, resident or
    /// reserved, releasing its residency or its reservation.
    ///
    /// # Errors
    ///
    /// [`StoreError::BlockMissing`] or [`StoreError::QueueOutOfRange`].
    pub fn take_block(&mut self, queue: PhysicalQueueId, ordinal: u64) -> Result<T, StoreError> {
        let idx = self.check_queue(queue)?;
        let q = &mut self.queues[idx];
        let Some(Entry { block, resident }) = q.slot_mut(ordinal).and_then(Option::take) else {
            return Err(StoreError::BlockMissing { queue, ordinal });
        };
        let g = q.group.index();
        if resident {
            q.resident_blocks -= 1;
            q.resident_cells -= block.cell_count();
            self.group_occupancy[g] -= 1;
        } else {
            self.group_reserved[g] -= 1;
        }
        while matches!(q.ring.front(), Some(None)) {
            q.ring.pop_front();
            q.base += 1;
        }
        Ok(block)
    }

    /// Ordinal that the *next* block of `queue` will receive.
    pub fn next_write_ordinal(&self, queue: PhysicalQueueId) -> u64 {
        let q = &self.queues[queue.as_usize()];
        q.base + q.ring.len() as u64
    }

    /// Ordinal of the oldest block still stored for `queue` (its next
    /// ordinal when it holds none).
    pub fn head_ordinal(&self, queue: PhysicalQueueId) -> u64 {
        self.queues[queue.as_usize()].base
    }

    /// Number of blocks currently resident for `queue`.
    pub fn blocks_in_queue(&self, queue: PhysicalQueueId) -> usize {
        self.queues[queue.as_usize()].resident_blocks
    }

    /// Number of cells currently resident for `queue`.
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

    /// Fraction of the total DRAM block capacity currently resident.
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
    fn a_reservation_takes_room_but_is_not_resident() {
        let mut s = store(2);
        // Queues 0 and 4 both map to group 0 (4 groups).
        let (q0, q4) = (PhysicalQueueId::new(0), PhysicalQueueId::new(4));
        let g0 = GroupId::new(0);
        assert_eq!(s.reserve(q0, mk_cells(0, 0, 4)).unwrap(), 0);
        assert!(s.group_has_room(g0));
        assert_eq!(s.reserve(q4, mk_cells(4, 0, 4)).unwrap(), 0);
        // Full by reservation alone, yet nothing is resident.
        assert!(!s.group_has_room(g0));
        assert!(matches!(
            s.reserve(q0, mk_cells(0, 4, 4)),
            Err(StoreError::GroupFull { .. })
        ));
        assert!(matches!(
            s.write_block(q0, mk_cells(0, 4, 4)),
            Err(StoreError::GroupFull { .. })
        ));
        assert_eq!(s.group_occupancy(g0), 0);
        assert_eq!(s.utilisation(), 0.0);
        assert_eq!((s.blocks_in_queue(q0), s.cells_in_queue(q0)), (0, 0));
        assert_eq!(s.next_write_ordinal(q0), 1);
        // A FIFO read sees only resident blocks.
        assert!(matches!(
            s.read_block(q0),
            Err(StoreError::QueueEmpty { .. })
        ));
    }

    #[test]
    fn committing_a_reservation_makes_it_resident() {
        let mut s = store(2);
        let q = PhysicalQueueId::new(1);
        let g1 = GroupId::new(1);
        s.reserve(q, mk_cells(1, 0, 4)).unwrap();
        s.reserve(q, mk_cells(1, 4, 4)).unwrap();
        // Writes may issue out of ordinal order.
        assert!(s.commit(q, 1));
        assert_eq!(s.group_occupancy(g1), 1);
        assert!(!s.commit(q, 1), "a block is committed once");
        assert!(s.commit(q, 0));
        assert!(!s.commit(q, 2), "ordinal 2 was never reserved");
        assert_eq!(s.group_occupancy(g1), 2);
        assert!(!s.group_has_room(g1));
        assert_eq!((s.blocks_in_queue(q), s.cells_in_queue(q)), (2, 8));
        assert!((s.utilisation() - 2.0 / 8.0).abs() < 1e-12);
        let (o, b) = s.read_block(q).unwrap();
        assert_eq!((o, b[0].seq()), (0, 0));
        assert!(s.group_has_room(g1));
    }

    #[test]
    fn a_read_that_takes_a_reservation_voids_its_commit() {
        let mut s = store(2);
        let q = PhysicalQueueId::new(3);
        let g3 = GroupId::new(3);
        s.reserve(q, mk_cells(3, 0, 4)).unwrap();
        // The read overtakes its write: it takes the reserved block and
        // releases the reservation.
        assert_eq!(s.take_block(q, 0).unwrap()[0].seq(), 0);
        assert!(s.group_has_room(g3));
        assert!(!s.commit(q, 0), "the write issue finds nothing to commit");
        assert_eq!(s.group_occupancy(g3), 0);
        // The ring is empty and the queue runs on from ordinal 1.
        assert_eq!((s.head_ordinal(q), s.next_write_ordinal(q)), (1, 1));
        assert_eq!(s.reserve(q, mk_cells(3, 4, 4)).unwrap(), 1);
        assert!(s.commit(q, 1));
        assert_eq!(s.read_block(q).unwrap().0, 1);
        assert_eq!(s.total_blocks(), 0);
    }

    #[test]
    fn taking_an_absent_ordinal_is_block_missing() {
        let mut s = store(8);
        let q = PhysicalQueueId::new(2);
        for seq in [0, 4, 8] {
            s.write_block(q, mk_cells(2, seq, 4)).unwrap();
        }
        assert!(matches!(
            s.take_block(q, 3),
            Err(StoreError::BlockMissing { ordinal: 3, .. })
        ));
        // Reads may take blocks out of order; a taken ordinal is missing,
        // trapped behind an older block or trimmed from the ring's front.
        assert_eq!(s.take_block(q, 1).unwrap()[0].seq(), 4);
        assert!(matches!(
            s.take_block(q, 1),
            Err(StoreError::BlockMissing { ordinal: 1, .. })
        ));
        assert_eq!(s.head_ordinal(q), 0);
        assert_eq!(s.take_block(q, 0).unwrap()[0].seq(), 0);
        assert_eq!(s.head_ordinal(q), 2);
        assert!(matches!(
            s.take_block(q, 0),
            Err(StoreError::BlockMissing { ordinal: 0, .. })
        ));
        assert_eq!(s.read_block(q).unwrap().0, 2);
        assert!(matches!(
            s.take_block(PhysicalQueueId::new(999), 0),
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
    fn handle_payloads_count_their_cells() {
        let mapper = AddressMapper::new(InterleavingConfig::new(16, 4, 8).unwrap());
        let mut s: DramStore<Handle> = DramStore::new(mapper, 8);
        let q = PhysicalQueueId::new(2);
        let handle = |index, cells| Handle { index, cells };
        assert_eq!(s.write_block(q, handle(7, 4)).unwrap(), 0);
        assert_eq!(s.reserve(q, handle(5, 3)).unwrap(), 1);
        assert_eq!(s.reserve(q, handle(3, 2)).unwrap(), 2);
        assert!(s.commit(q, 2));
        assert_eq!(s.blocks_in_queue(q), 2);
        assert_eq!(s.cells_in_queue(q), 6);
        // Ordinal 1 is taken while still reserved: its cells never count.
        assert_eq!(s.take_block(q, 1).unwrap(), handle(5, 3));
        assert_eq!(s.read_block(q).unwrap(), (0, handle(7, 4)));
        assert_eq!(s.cells_in_queue(q), 2);
        assert_eq!(s.read_block(q).unwrap(), (2, handle(3, 2)));
        assert_eq!((s.blocks_in_queue(q), s.cells_in_queue(q)), (0, 0));
        assert!(matches!(
            s.read_block(q),
            Err(StoreError::QueueEmpty { .. })
        ));
        assert_eq!(s.total_blocks(), 0);
        assert_eq!(s.head_ordinal(q), 3);
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
