//! The fixed-size cell: the unit of storage and transfer inside the buffer.
//!
//! A simulated cell is metadata only — its queue, sequence number and arrival
//! slot. The paper's buffers move opaque 64-byte cells and every guarantee
//! they claim (zero miss, FIFO order, bounded SRAM) is a statement about
//! which cell moves where and when, never about its bytes, so the model
//! carries the identity and not the contents. [`CELL_BYTES`] still drives
//! every rate, bandwidth and area computation.

use crate::queue::LogicalQueueId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of bytes in a cell.
///
/// The paper fragments IP packets internally into fixed-length 64-byte units
/// (§2, "Basic time-slot"). All bandwidth and timing computations in the
/// workspace derive from this constant.
pub const CELL_BYTES: usize = 64;

/// A fixed-size cell travelling through the packet buffer.
///
/// Cells are handled as independent units: they are written to the tail SRAM,
/// batched into DRAM, read back into the head SRAM and finally granted to the
/// switch-fabric arbiter. The `(queue, seq)` pair is the identity used by the
/// verification layer to check FIFO order and zero-miss delivery.
///
/// A cell is metadata-only and `Copy`: the 64 bytes it stands for are
/// accounted through [`CELL_BYTES`], not stored, so every layer moves it as
/// a plain 24-byte value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Logical VOQ this cell belongs to.
    queue: LogicalQueueId,
    /// Per-queue arrival sequence number (0, 1, 2, …).
    seq: u64,
    /// Slot at which the cell arrived at the line interface.
    arrival_slot: u64,
}

// Every layer moves cells by value (tail arena → DRAM block → head SRAM →
// slot outcome → egress FIFO → Clos link), so a field added here is paid on
// each of those copies: going from 40 bytes to 24 cut `clos_uniform`'s time
// per buffer-step by 25 %.
const _: () = assert!(
    std::mem::size_of::<Cell>() == 24,
    "Cell must stay 24 bytes (queue, seq, arrival_slot): going from 40 to 24 cut clos_uniform's ns per buffer-step by 25 %"
);
const _: () = assert!(
    std::mem::size_of::<Option<Cell>>() == 32,
    "Option<Cell> must stay 32 bytes (48 with a 40-byte Cell): the arrival rings and SlotOutcome hold it by value"
);
const _: fn() = || {
    fn moved_by_copy<T: Copy>() {}
    moved_by_copy::<Cell>();
};

impl Cell {
    /// Creates a cell.
    pub fn new(queue: LogicalQueueId, seq: u64, arrival_slot: u64) -> Self {
        Cell {
            queue,
            seq,
            arrival_slot,
        }
    }

    /// Logical VOQ of the cell.
    pub fn queue(&self) -> LogicalQueueId {
        self.queue
    }

    /// Per-queue FIFO sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Arrival slot at the line interface.
    pub fn arrival_slot(&self) -> u64 {
        self.arrival_slot
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell(q={}, seq={})", self.queue.index(), self.seq)
    }
}

// Hand-written (decoding must go through the constructor): a cell is its
// three metadata fields.
impl Serialize for Cell {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Cell", 3)?;
        s.serialize_field("queue", &self.queue)?;
        s.serialize_field("seq", &self.seq)?;
        s.serialize_field("arrival_slot", &self.arrival_slot)?;
        s.end()
    }
}

impl<'de> Deserialize<'de> for Cell {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            queue: LogicalQueueId,
            seq: u64,
            arrival_slot: u64,
        }
        let raw = Raw::deserialize(deserializer)?;
        Ok(Cell::new(raw.queue, raw.seq, raw.arrival_slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_bytes_is_64() {
        assert_eq!(CELL_BYTES, 64);
    }

    #[test]
    fn cell_accessors() {
        let q = LogicalQueueId::new(5);
        let c = Cell::new(q, 42, 100);
        assert_eq!(c.queue(), q);
        assert_eq!(c.seq(), 42);
        assert_eq!(c.arrival_slot(), 100);
        assert_eq!(format!("{c}"), "cell(q=5, seq=42)");
    }

    #[test]
    fn cell_equality_ignores_nothing() {
        let q = LogicalQueueId::new(2);
        assert_eq!(Cell::new(q, 1, 3), Cell::new(q, 1, 3));
        assert_ne!(Cell::new(q, 1, 3), Cell::new(q, 2, 3));
    }
}
