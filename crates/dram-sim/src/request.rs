//! DRAM access requests and bank/group identifiers.

use pktbuf_model::PhysicalQueueId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a DRAM bank (global, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BankId(pub u32);

impl BankId {
    /// Creates a bank id.
    pub fn new(i: u32) -> Self {
        BankId(i)
    }
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Identifier of a bank group.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Creates a group id.
    pub fn new(i: u32) -> Self {
        GroupId(i)
    }
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// Direction of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// DRAM → head SRAM transfer (replenish on behalf of the h-MMA).
    Read,
    /// Tail SRAM → DRAM transfer (writeback on behalf of the t-MMA).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// A request for one DRAM access of `b` cells of a physical queue.
///
/// `block_ordinal` is the per-queue block sequence number; the address mapper
/// turns `(queue, block_ordinal)` into a concrete bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramRequest {
    /// Physical queue the block belongs to.
    pub queue: PhysicalQueueId,
    /// Per-queue block sequence number (0, 1, 2, …).
    pub block_ordinal: u64,
    /// Read (replenish) or write (writeback).
    pub kind: AccessKind,
    /// Slot at which the MMA issued the request (for latency accounting).
    pub issued_slot: u64,
}

impl DramRequest {
    /// Creates a read (DRAM → SRAM) request.
    pub fn read(queue: PhysicalQueueId, block_ordinal: u64, issued_slot: u64) -> Self {
        DramRequest {
            queue,
            block_ordinal,
            kind: AccessKind::Read,
            issued_slot,
        }
    }

    /// Creates a write (SRAM → DRAM) request.
    pub fn write(queue: PhysicalQueueId, block_ordinal: u64, issued_slot: u64) -> Self {
        DramRequest {
            queue,
            block_ordinal,
            kind: AccessKind::Write,
            issued_slot,
        }
    }
}

impl fmt::Display for DramRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} block {} (issued @{})",
            self.kind, self.queue, self.block_ordinal, self.issued_slot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let q = PhysicalQueueId::new(3);
        let r = DramRequest::read(q, 5, 100);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.block_ordinal, 5);
        let w = DramRequest::write(q, 6, 101);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.issued_slot, 101);
    }

    #[test]
    fn display_formats() {
        let q = PhysicalQueueId::new(3);
        let r = DramRequest::read(q, 5, 100);
        let s = r.to_string();
        assert!(s.contains("read"));
        assert!(s.contains("Qp3"));
        assert_eq!(BankId::new(4).to_string(), "bank4");
        assert_eq!(GroupId::new(2).to_string(), "group2");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn ids_expose_indices() {
        assert_eq!(BankId::new(7).index(), 7);
        assert_eq!(GroupId::new(9).index(), 9);
    }
}
