//! Queue renaming: sharing the DRAM among groups (§6).
//!
//! The static queue → group assignment fragments the DRAM: a logical queue can
//! only ever use the capacity of its own group. Renaming fixes this by mapping
//! each *logical* queue onto a chain of *physical* queues, possibly living in
//! different groups, recorded in a circular renaming register per logical
//! queue. Writes extend the chain at its tail (allocating a new physical queue
//! from a group that still has room when the current one fills up); reads
//! consume from its head (releasing the physical queue when its last block has
//! been read).

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

use dram_sim::GroupId;
use pktbuf_model::{LogicalQueueId, PhysicalQueueId};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors raised by the renaming layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenamingError {
    /// Every group that still has DRAM space has run out of free physical
    /// queue names (the residual fragmentation case discussed in §6).
    NoUsablePhysicalQueue,
    /// The logical queue index is out of range.
    LogicalOutOfRange {
        /// Offending queue.
        queue: LogicalQueueId,
        /// Configured number of logical queues.
        num_queues: usize,
    },
}

impl fmt::Display for RenamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenamingError::NoUsablePhysicalQueue => {
                write!(f, "no free physical queue in any group with DRAM space")
            }
            RenamingError::LogicalOutOfRange { queue, num_queues } => {
                write!(f, "{queue} out of range ({num_queues} logical queues)")
            }
        }
    }
}

impl Error for RenamingError {}

/// One element of a circular renaming register: a physical queue and the
/// number of blocks of the logical queue stored under that name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RenameEntry {
    physical: PhysicalQueueId,
    blocks: u64,
}

/// The renaming table: one circular renaming register per logical queue plus
/// per-group free lists of physical queue names.
#[derive(Debug, Clone)]
pub struct RenamingTable {
    /// Chain of (physical queue, block count) per logical queue; the front is
    /// the read head, the back is the write tail.
    registers: Vec<VecDeque<RenameEntry>>,
    /// Free physical queue names, per group.
    free: Vec<Vec<PhysicalQueueId>>,
    num_groups: usize,
    allocations: u64,
    releases: u64,
}

impl RenamingTable {
    /// Creates a table for `num_logical` logical queues over a pool of
    /// `num_physical` physical queue names spread over `num_groups` groups
    /// (physical queue `p` belongs to group `p mod num_groups`).
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub fn new(num_logical: usize, num_physical: usize, num_groups: usize) -> Self {
        let num_groups = num_groups.max(1);
        let mut free = vec![Vec::new(); num_groups];
        // Hand out names from the highest index down so that pops (from the
        // back) return the lowest-numbered free name first — stable and easy
        // to reason about in tests.
        for p in (0..num_physical).rev() {
            free[p % num_groups].push(PhysicalQueueId::new(p as u32));
        }
        RenamingTable {
            registers: vec![VecDeque::new(); num_logical],
            free,
            num_groups,
            allocations: 0,
            releases: 0,
        }
    }

    fn check(&self, queue: LogicalQueueId) -> Result<usize, RenamingError> {
        let idx = queue.as_usize();
        if idx >= self.registers.len() {
            return Err(RenamingError::LogicalOutOfRange {
                queue,
                num_queues: self.registers.len(),
            });
        }
        Ok(idx)
    }

    /// Group a physical queue name belongs to.
    pub fn group_of(&self, physical: PhysicalQueueId) -> GroupId {
        GroupId::new((physical.as_usize() % self.num_groups) as u32)
    }

    fn allocate_in(&mut self, group: GroupId) -> Option<PhysicalQueueId> {
        let name = self.free[group.index()].pop()?;
        self.allocations += 1;
        Some(name)
    }

    /// Chooses the physical queue that the next written block of `logical`
    /// should go to.
    ///
    /// `group_has_room` reports whether a group still has free DRAM blocks;
    /// `preferred_groups` is the caller's preference order for *new*
    /// allocations (typically emptiest group first). Unlisted groups are
    /// never allocated from.
    ///
    /// # Errors
    ///
    /// [`RenamingError::NoUsablePhysicalQueue`] when the current tail's group
    /// is full and no group with room has a free physical name.
    pub fn physical_for_write(
        &mut self,
        logical: LogicalQueueId,
        group_has_room: impl Fn(GroupId) -> bool,
        preferred_groups: &[GroupId],
    ) -> Result<PhysicalQueueId, RenamingError> {
        self.physical_for_write_ranked(logical, None, group_has_room, |group| {
            preferred_groups.iter().position(|&g| g == group)
        })
    }

    /// Chooses the physical queue that the next written block of `logical`
    /// should go to, when possible outside `avoid_group`.
    ///
    /// The current chain tail is kept while its group has room and is not
    /// avoided. Otherwise a new name is allocated from the group with room
    /// and a free name that has the lowest `(rank, group index)`; `rank`
    /// returns `None` for a group that must not be allocated from. Trying
    /// groups in rank order and allocating from the first one with a free
    /// name is the same thing, computed in one pass, so the per-period
    /// writeback path neither sorts nor materialises a group list.
    ///
    /// The CFDS buffer avoids the group a queue's *read* stream is currently
    /// draining: a bank group sustains at most one access per `b` slots, so
    /// a backlogged queue that both fills and drains at the line rate needs
    /// its two streams in different groups. The avoidance is best-effort —
    /// if no other group has room and a free physical name, the avoided group
    /// is used after all.
    ///
    /// # Errors
    ///
    /// [`RenamingError::NoUsablePhysicalQueue`] when no group with room has a
    /// free physical name.
    pub fn physical_for_write_ranked(
        &mut self,
        logical: LogicalQueueId,
        avoid_group: Option<GroupId>,
        group_has_room: impl Fn(GroupId) -> bool,
        rank: impl Fn(GroupId) -> Option<usize>,
    ) -> Result<PhysicalQueueId, RenamingError> {
        let idx = self.check(logical)?;
        // The chain tail, if its group has room.
        let tail = self.registers[idx]
            .back()
            .map(|e| e.physical)
            .filter(|&p| group_has_room(self.group_of(p)));
        if let Some(tail) = tail.filter(|&p| Some(self.group_of(p)) != avoid_group) {
            return Ok(tail);
        }
        let mut best: Option<(usize, usize)> = None;
        let mut any_candidate = false;
        for g in 0..self.num_groups {
            let group = GroupId::new(g as u32);
            if !group_has_room(group) || Some(group) == avoid_group {
                continue;
            }
            let Some(r) = rank(group) else {
                continue;
            };
            any_candidate = true;
            // Groups are walked in index order, so a tie keeps the lower
            // index, and nothing after a rank-0 group ranks below it.
            if !self.free[g].is_empty() && best.is_none_or(|(br, _)| r < br) {
                best = Some((r, g));
                if r == 0 {
                    break;
                }
            }
        }
        let mut allocated = best.and_then(|(_, g)| self.allocate_in(GroupId::new(g as u32)));
        if allocated.is_none() && !any_candidate {
            if let Some(avoid) = avoid_group {
                // Fall back to the current tail (even in the avoided group)
                // before burning a fresh name on it.
                if let Some(tail) = tail {
                    return Ok(tail);
                }
                if group_has_room(avoid) {
                    allocated = self.allocate_in(avoid);
                }
            }
        }
        let name = allocated.ok_or(RenamingError::NoUsablePhysicalQueue)?;
        self.registers[idx].push_back(RenameEntry {
            physical: name,
            blocks: 0,
        });
        Ok(name)
    }

    /// Records that one block was written to DRAM under the current tail name
    /// of `logical` (which must have been obtained via
    /// [`RenamingTable::physical_for_write`]).
    ///
    /// # Panics
    ///
    /// Panics if `logical` has no physical queue assigned.
    pub fn note_block_written(&mut self, logical: LogicalQueueId) {
        let idx = logical.as_usize();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: callers write only to queues with an assigned physical chain"
        )]
        let tail = self.registers[idx]
            .back_mut()
            .expect("note_block_written without an assigned physical queue");
        tail.blocks += 1;
    }

    /// Physical queue holding the *oldest* blocks of `logical` (the one reads
    /// must use), or `None` if the logical queue has nothing in DRAM.
    pub fn physical_for_read(&self, logical: LogicalQueueId) -> Option<PhysicalQueueId> {
        self.registers[logical.as_usize()]
            .front()
            .filter(|e| e.blocks > 0)
            .map(|e| e.physical)
    }

    /// Records that one block was read from DRAM for `logical`. When the head
    /// physical queue runs out of blocks it is released back to the free pool
    /// and returned.
    ///
    /// # Panics
    ///
    /// Panics if `logical` has no blocks recorded in DRAM.
    pub fn note_block_read(&mut self, logical: LogicalQueueId) -> Option<PhysicalQueueId> {
        let idx = logical.as_usize();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: callers read only queues with recorded DRAM blocks"
        )]
        let head = self.registers[idx]
            .front_mut()
            .expect("note_block_read on a logical queue with no DRAM blocks");
        assert!(head.blocks > 0, "note_block_read with zero recorded blocks");
        head.blocks -= 1;
        if head.blocks == 0 {
            #[expect(
                clippy::expect_used,
                reason = "the front_mut above proved the chain non-empty"
            )]
            let released = self.registers[idx]
                .pop_front()
                .expect("head exists")
                .physical;
            let group = self.group_of(released);
            self.free[group.index()].push(released);
            self.releases += 1;
            Some(released)
        } else {
            None
        }
    }

    /// Total blocks of `logical` recorded in DRAM (across all its physical
    /// queues).
    pub fn blocks_in_dram(&self, logical: LogicalQueueId) -> u64 {
        self.registers[logical.as_usize()]
            .iter()
            .map(|e| e.blocks)
            .sum()
    }

    /// Number of physical queues currently assigned to `logical`.
    pub fn chain_length(&self, logical: LogicalQueueId) -> usize {
        self.registers[logical.as_usize()].len()
    }

    /// Total allocations performed.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total physical queues released back to the pool.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lq(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }
    fn g(i: u32) -> GroupId {
        GroupId::new(i)
    }

    fn table() -> RenamingTable {
        // 4 logical queues, 8 physical names, 4 groups (2 names per group).
        RenamingTable::new(4, 8, 4)
    }

    #[test]
    fn first_write_allocates_preferred_group() {
        let mut t = table();
        let p = t
            .physical_for_write(lq(0), |_| true, &[g(2), g(0), g(1), g(3)])
            .unwrap();
        assert_eq!(t.group_of(p), g(2));
        t.note_block_written(lq(0));
        assert_eq!(t.blocks_in_dram(lq(0)), 1);
        assert_eq!(t.chain_length(lq(0)), 1);
        assert_eq!(t.allocations(), 1);
        // Subsequent writes reuse the same physical queue while its group has
        // room.
        let p2 = t
            .physical_for_write(lq(0), |_| true, &[g(0), g(1), g(2), g(3)])
            .unwrap();
        assert_eq!(p2, p);
    }

    #[test]
    fn full_group_spills_to_another_group() {
        let mut t = table();
        let order = [g(0), g(1), g(2), g(3)];
        let p0 = t.physical_for_write(lq(1), |_| true, &order).unwrap();
        t.note_block_written(lq(1));
        // Now pretend p0's group is full: the next write must allocate a new
        // physical queue elsewhere.
        let full = t.group_of(p0);
        let p1 = t
            .physical_for_write(lq(1), move |grp| grp != full, &order)
            .unwrap();
        assert_ne!(t.group_of(p1), full);
        t.note_block_written(lq(1));
        assert_eq!(t.chain_length(lq(1)), 2);
        assert_eq!(t.blocks_in_dram(lq(1)), 2);
        // Reads drain the chain head first and release the first name.
        assert_eq!(t.physical_for_read(lq(1)), Some(p0));
        assert_eq!(t.note_block_read(lq(1)), Some(p0));
        assert_eq!(t.physical_for_read(lq(1)), Some(p1));
        assert_eq!(t.note_block_read(lq(1)), Some(p1));
        assert_eq!(t.physical_for_read(lq(1)), None);
        assert_eq!(t.releases(), 2);
    }

    #[test]
    fn exhaustion_of_physical_names_is_reported() {
        // 1 logical queue, 2 physical names, 2 groups: one name per group.
        let mut t = RenamingTable::new(1, 2, 2);
        let order = [g(0), g(1)];
        let p0 = t.physical_for_write(lq(0), |_| true, &order).unwrap();
        t.note_block_written(lq(0));
        let full0 = t.group_of(p0);
        let p1 = t
            .physical_for_write(lq(0), move |grp| grp != full0, &order)
            .unwrap();
        t.note_block_written(lq(0));
        let full1 = t.group_of(p1);
        // Both groups' names are in use and we pretend both previous groups
        // are out of DRAM space.
        let err = t
            .physical_for_write(lq(0), move |grp| grp != full0 && grp != full1, &order)
            .unwrap_err();
        assert_eq!(err, RenamingError::NoUsablePhysicalQueue);
        assert!(err.to_string().contains("physical queue"));
    }

    #[test]
    fn reads_follow_fifo_order_across_physical_queues() {
        let mut t = table();
        let order = [g(0), g(1), g(2), g(3)];
        // Three blocks under name A, then the group "fills" and two more go
        // under name B.
        let pa = t.physical_for_write(lq(2), |_| true, &order).unwrap();
        for _ in 0..3 {
            t.note_block_written(lq(2));
        }
        let ga = t.group_of(pa);
        let pb = t
            .physical_for_write(lq(2), move |grp| grp != ga, &order)
            .unwrap();
        for _ in 0..2 {
            t.note_block_written(lq(2));
        }
        assert_eq!(t.blocks_in_dram(lq(2)), 5);
        // First three reads come from A, the rest from B.
        for i in 0..5u32 {
            let expect = if i < 3 { pa } else { pb };
            assert_eq!(t.physical_for_read(lq(2)), Some(expect), "read {i}");
            t.note_block_read(lq(2));
        }
        assert_eq!(t.blocks_in_dram(lq(2)), 0);
        // Both names went back to their groups once drained.
        assert_eq!(t.releases(), 2);
    }

    #[test]
    fn out_of_range_logical_queue() {
        let mut t = table();
        assert!(matches!(
            t.physical_for_write(lq(99), |_| true, &[g(0)]),
            Err(RenamingError::LogicalOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "no DRAM blocks")]
    fn read_without_blocks_panics() {
        let mut t = table();
        t.note_block_read(lq(0));
    }

    #[test]
    fn num_groups_accessor() {
        assert_eq!(table().num_groups(), 4);
    }
}
