//! Selection of the head-SRAM organisation used by a buffer front end.

use serde::{Deserialize, Serialize};
use sram_buf::{GlobalCamBuffer, SharedBuffer, UnifiedLinkedListBuffer};

/// Which functional head-SRAM organisation a buffer instantiates.
///
/// Both uphold the same [`SharedBuffer`] contract; they differ in how they
/// locate cells internally (and, physically, in area and access time — see the
/// `cacti-lite` crate and the Figure 8/10 experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum HeadSramKind {
    /// Fully associative (queue, order)-tagged store. Robust to arbitrary
    /// out-of-order block arrival, which CFDS with renaming requires.
    #[default]
    GlobalCam,
    /// Direct-mapped linked lists with one lane per bank of a group. Assumes
    /// same-lane blocks arrive in order (true for RADS and for CFDS without
    /// renaming).
    UnifiedLinkedList,
}

impl HeadSramKind {
    /// Builds the head SRAM of the buffer front end: `lanes` is `B/b` (1 for
    /// RADS) and `cells_per_block` is the DRAM transfer granularity.
    pub(crate) fn build(
        self,
        num_queues: usize,
        capacity_cells: usize,
        lanes: usize,
        cells_per_block: usize,
    ) -> HeadSram {
        match self {
            HeadSramKind::GlobalCam => HeadSram::Cam(GlobalCamBuffer::with_block_size(
                num_queues,
                capacity_cells,
                cells_per_block,
            )),
            HeadSramKind::UnifiedLinkedList => {
                HeadSram::LinkedList(UnifiedLinkedListBuffer::with_lanes(
                    num_queues,
                    // The linked list is a direct-mapped array and must be
                    // allocated up front; cap the functional capacity at 2^20
                    // cells (far above any analytical bound used in practice).
                    capacity_cells.min(1 << 20),
                    lanes,
                    cells_per_block,
                ))
            }
        }
    }
}

/// The head SRAM of a buffer front end, dispatched by enum instead of through
/// a `Box<dyn SharedBuffer>`: `pop_front` sits on the per-grant hot path and
/// `insert_block` on the per-delivery path, and a two-variant match is
/// a perfectly predicted branch where a vtable call is an optimization
/// barrier inside the fused batch loops.
#[derive(Debug)]
pub(crate) enum HeadSram {
    /// Fully associative (queue, order)-tagged store.
    Cam(sram_buf::GlobalCamBuffer),
    /// Direct-mapped linked lists, one lane per bank of a group.
    LinkedList(sram_buf::UnifiedLinkedListBuffer),
}

macro_rules! dispatch {
    ($self:expr, $buffer:ident => $body:expr) => {
        match $self {
            HeadSram::Cam($buffer) => $body,
            HeadSram::LinkedList($buffer) => $body,
        }
    };
}

impl SharedBuffer for HeadSram {
    fn insert_block(
        &mut self,
        queue: pktbuf_model::LogicalQueueId,
        ordinal: u64,
        cells: &[pktbuf_model::Cell],
    ) -> Result<(), sram_buf::BufferError> {
        dispatch!(self, b => b.insert_block(queue, ordinal, cells))
    }

    fn push_cell(
        &mut self,
        queue: pktbuf_model::LogicalQueueId,
        cell: pktbuf_model::Cell,
    ) -> Result<(), sram_buf::BufferError> {
        dispatch!(self, b => b.push_cell(queue, cell))
    }

    #[inline]
    fn pop_front(&mut self, queue: pktbuf_model::LogicalQueueId) -> Option<pktbuf_model::Cell> {
        dispatch!(self, b => b.pop_front(queue))
    }

    #[inline]
    fn available(&self, queue: pktbuf_model::LogicalQueueId) -> usize {
        dispatch!(self, b => b.available(queue))
    }

    fn occupancy(&self) -> usize {
        dispatch!(self, b => b.occupancy())
    }

    fn capacity(&self) -> usize {
        dispatch!(self, b => b.capacity())
    }

    fn peak_occupancy(&self) -> usize {
        dispatch!(self, b => b.peak_occupancy())
    }

    fn num_queues(&self) -> usize {
        dispatch!(self, b => b.num_queues())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::{Cell, LogicalQueueId};

    #[test]
    fn both_kinds_build_working_buffers() {
        for kind in [HeadSramKind::GlobalCam, HeadSramKind::UnifiedLinkedList] {
            let mut b = kind.build(2, 64, 2, 4);
            let q = LogicalQueueId::new(1);
            let block: Vec<Cell> = (0..4).map(|i| Cell::new(q, i, 0)).collect();
            b.insert_block(q, 0, &block).unwrap();
            assert_eq!(b.pop_front(q).unwrap().seq(), 0);
            assert_eq!(b.capacity(), 64);
        }
        assert_eq!(HeadSramKind::default(), HeadSramKind::GlobalCam);
    }
}
