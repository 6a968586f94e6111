//! The abstract interface of a shared SRAM cell buffer.

use pktbuf_model::{Cell, LogicalQueueId};
use std::error::Error;
use std::fmt;

/// Errors raised by a [`SharedBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// The shared buffer has no free entry left.
    Full {
        /// Configured capacity in cells.
        capacity: usize,
    },
    /// A block was inserted twice for the same (queue, block ordinal).
    DuplicateBlock {
        /// Queue of the duplicate block.
        queue: LogicalQueueId,
        /// Ordinal of the duplicate block.
        ordinal: u64,
    },
    /// The queue index is outside the configured range.
    QueueOutOfRange {
        /// The offending queue.
        queue: LogicalQueueId,
        /// Number of configured queues.
        num_queues: usize,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::Full { capacity } => {
                write!(f, "shared SRAM buffer full ({capacity} cells)")
            }
            BufferError::DuplicateBlock { queue, ordinal } => {
                write!(f, "duplicate block {ordinal} for {queue}")
            }
            BufferError::QueueOutOfRange { queue, num_queues } => {
                write!(f, "{queue} out of range ({num_queues} queues)")
            }
        }
    }
}

impl Error for BufferError {}

/// A shared SRAM buffer holding cells of many queues.
///
/// Blocks are inserted with their per-queue *block ordinal* so the buffer can
/// restore FIFO order even when the DRAM delivers blocks out of order (CFDS).
/// Single cells arriving from the line (tail SRAM use) are inserted with
/// [`SharedBuffer::push_cell`], which is equivalent to a one-cell block with
/// the next ordinal.
pub trait SharedBuffer {
    /// Inserts a block of cells belonging to `queue` with per-queue block
    /// ordinal `ordinal`. Blocks may arrive out of ordinal order; cells inside
    /// a block are in FIFO order.
    ///
    /// The cells are copied into the buffer's own storage, so the caller
    /// keeps its block (typically a block of the buffer's block slab) and
    /// nothing is allocated per block.
    ///
    /// # Errors
    ///
    /// Returns [`BufferError::Full`] when the buffer has insufficient space,
    /// [`BufferError::DuplicateBlock`] if the ordinal was already inserted and
    /// not yet consumed, or [`BufferError::QueueOutOfRange`].
    fn insert_block(
        &mut self,
        queue: LogicalQueueId,
        ordinal: u64,
        cells: &[Cell],
    ) -> Result<(), BufferError>;

    /// Appends one cell at the tail of `queue` (in-order path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SharedBuffer::insert_block`].
    fn push_cell(&mut self, queue: LogicalQueueId, cell: Cell) -> Result<(), BufferError>;

    /// Removes and returns the cell at the head of `queue`, or `None` if the
    /// next-in-FIFO-order cell is not resident (a *miss* in MMA terms).
    fn pop_front(&mut self, queue: LogicalQueueId) -> Option<Cell>;

    /// Number of cells of `queue` that are resident *and* contiguous from the
    /// head (i.e. immediately available to the arbiter).
    fn available(&self, queue: LogicalQueueId) -> usize;

    /// Total number of resident cells (including out-of-order ones).
    fn occupancy(&self) -> usize;

    /// Configured capacity in cells.
    fn capacity(&self) -> usize;

    /// Largest occupancy ever observed (for dimensioning experiments).
    fn peak_occupancy(&self) -> usize;

    /// Number of configured queues.
    fn num_queues(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BufferError::Full { capacity: 7 }.to_string().contains('7'));
        assert!(BufferError::DuplicateBlock {
            queue: LogicalQueueId::new(2),
            ordinal: 9
        }
        .to_string()
        .contains('9'));
        assert!(BufferError::QueueOutOfRange {
            queue: LogicalQueueId::new(8),
            num_queues: 4
        }
        .to_string()
        .contains("Ql8"));
    }
}
