//! The fixed-size cell: the unit of storage and transfer inside the buffer.

use crate::queue::LogicalQueueId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of bytes in a cell.
///
/// The paper fragments IP packets internally into fixed-length 64-byte units
/// (§2, "Basic time-slot"). All bandwidth and timing computations in the
/// workspace derive from this constant.
pub const CELL_BYTES: usize = 64;

/// Optional payload carried by a [`Cell`].
///
/// Simulation experiments usually do not care about the actual bytes, so the
/// payload is optional and cheap to clone ([`Bytes`] is reference counted).
/// When present it must be exactly [`CELL_BYTES`] long; shorter payloads are
/// zero-padded by [`CellPayload::from_slice`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CellPayload(Option<Bytes>);

impl CellPayload {
    /// An empty payload (metadata-only simulation).
    pub fn empty() -> Self {
        CellPayload(None)
    }

    /// Builds a payload from a byte slice, zero-padding or truncating to
    /// [`CELL_BYTES`].
    pub fn from_slice(data: &[u8]) -> Self {
        let mut buf = vec![0u8; CELL_BYTES];
        let n = data.len().min(CELL_BYTES);
        buf[..n].copy_from_slice(&data[..n]);
        CellPayload(Some(Bytes::from(buf)))
    }

    /// Returns the payload bytes, if any.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        self.0.as_deref()
    }

    /// Whether the payload carries actual bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

/// A fixed-size cell travelling through the packet buffer.
///
/// Cells are handled as independent units: they are written to the tail SRAM,
/// batched into DRAM, read back into the head SRAM and finally granted to the
/// switch-fabric arbiter. The `(queue, seq)` pair is the identity used by the
/// verification layer to check FIFO order and zero-miss delivery.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Logical VOQ this cell belongs to.
    queue: LogicalQueueId,
    /// Per-queue arrival sequence number (0, 1, 2, …).
    seq: u64,
    /// Slot at which the cell arrived at the line interface.
    arrival_slot: u64,
    /// Optional payload bytes.
    payload: CellPayload,
}

impl Cell {
    /// Creates a new metadata-only cell.
    pub fn new(queue: LogicalQueueId, seq: u64, arrival_slot: u64) -> Self {
        Cell {
            queue,
            seq,
            arrival_slot,
            payload: CellPayload::empty(),
        }
    }

    /// Creates a cell carrying payload bytes.
    pub fn with_payload(
        queue: LogicalQueueId,
        seq: u64,
        arrival_slot: u64,
        payload: CellPayload,
    ) -> Self {
        Cell {
            queue,
            seq,
            arrival_slot,
            payload,
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

    /// Payload accessor.
    pub fn payload(&self) -> &CellPayload {
        &self.payload
    }

    /// Decomposes the cell into `(queue, seq, arrival_slot, payload)`.
    ///
    /// Structure-of-arrays stores (e.g. the tail-SRAM arena in `pktbuf`) use
    /// this to scatter a cell into parallel columns without cloning the
    /// payload.
    pub fn into_parts(self) -> (LogicalQueueId, u64, u64, CellPayload) {
        (self.queue, self.seq, self.arrival_slot, self.payload)
    }

    /// Size of the cell on the wire, in bits.
    pub fn size_bits() -> u64 {
        (CELL_BYTES as u64) * 8
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell(q={}, seq={})", self.queue.index(), self.seq)
    }
}

// Hand-written (the derive has no `skip`, and decoding must go through the
// constructor): a cell is its three metadata fields, without the payload.
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
        assert_eq!(Cell::size_bits(), 512);
    }

    #[test]
    fn payload_pads_and_truncates() {
        let short = CellPayload::from_slice(&[1, 2, 3]);
        assert_eq!(short.as_bytes().unwrap().len(), CELL_BYTES);
        assert_eq!(&short.as_bytes().unwrap()[..3], &[1, 2, 3]);
        assert_eq!(short.as_bytes().unwrap()[3], 0);

        let long = CellPayload::from_slice(&[7u8; 200]);
        assert_eq!(long.as_bytes().unwrap().len(), CELL_BYTES);
        assert!(long.as_bytes().unwrap().iter().all(|&b| b == 7));
    }

    #[test]
    fn empty_payload_is_empty() {
        assert!(CellPayload::empty().is_empty());
        assert!(CellPayload::empty().as_bytes().is_none());
        assert!(CellPayload::default().is_empty());
    }

    #[test]
    fn cell_accessors() {
        let q = LogicalQueueId::new(5);
        let c = Cell::new(q, 42, 100);
        assert_eq!(c.queue(), q);
        assert_eq!(c.seq(), 42);
        assert_eq!(c.arrival_slot(), 100);
        assert!(c.payload().is_empty());
        assert_eq!(format!("{c}"), "cell(q=5, seq=42)");
    }

    #[test]
    fn cell_with_payload_round_trips() {
        let q = LogicalQueueId::new(1);
        let p = CellPayload::from_slice(b"hello");
        let c = Cell::with_payload(q, 0, 0, p.clone());
        assert_eq!(c.payload(), &p);
    }

    #[test]
    fn cell_equality_ignores_nothing() {
        let q = LogicalQueueId::new(2);
        assert_eq!(Cell::new(q, 1, 3), Cell::new(q, 1, 3));
        assert_ne!(Cell::new(q, 1, 3), Cell::new(q, 2, 3));
    }
}
