//! Block-cyclic bank interleaving (§5.1, Figure 6).
//!
//! Banks are organised into `G` groups of `B/b` banks. Each group stores the
//! cells of a fixed subset of physical queues (queue → group is a static
//! modulo mapping on the low-order bits of the queue identifier). Inside a
//! group, consecutive `b`-cell blocks of the same queue are laid out
//! round-robin over the banks of the group, so `B/b` consecutive accesses to
//! the same queue touch `B/b` distinct banks and can be fully overlapped.

use crate::request::{BankId, GroupId};
use pktbuf_model::{CfdsConfig, PhysicalQueueId, CELL_BYTES};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error raised when constructing an [`InterleavingConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A parameter that must be strictly positive was zero.
    Zero(&'static str),
    /// `banks_per_group` does not divide `num_banks`.
    NotDivisible {
        /// Total number of banks.
        num_banks: usize,
        /// Banks per group.
        banks_per_group: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Zero(p) => write!(f, "`{p}` must be strictly positive"),
            MappingError::NotDivisible {
                num_banks,
                banks_per_group,
            } => write!(
                f,
                "banks per group ({banks_per_group}) must divide the number of banks ({num_banks})"
            ),
        }
    }
}

impl Error for MappingError {}

/// Static parameters of the block-cyclic interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterleavingConfig {
    num_banks: usize,
    banks_per_group: usize,
    num_physical_queues: usize,
}

impl InterleavingConfig {
    /// Creates an interleaving over `num_banks` banks with `banks_per_group`
    /// banks per group (`B/b`) serving `num_physical_queues` physical queues.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError`] if any parameter is zero or `banks_per_group`
    /// does not divide `num_banks`.
    pub fn new(
        num_banks: usize,
        banks_per_group: usize,
        num_physical_queues: usize,
    ) -> Result<Self, MappingError> {
        if num_banks == 0 {
            return Err(MappingError::Zero("num_banks"));
        }
        if banks_per_group == 0 {
            return Err(MappingError::Zero("banks_per_group"));
        }
        if num_physical_queues == 0 {
            return Err(MappingError::Zero("num_physical_queues"));
        }
        if !num_banks.is_multiple_of(banks_per_group) {
            return Err(MappingError::NotDivisible {
                num_banks,
                banks_per_group,
            });
        }
        Ok(InterleavingConfig {
            num_banks,
            banks_per_group,
            num_physical_queues,
        })
    }

    /// Derives the interleaving from a full [`CfdsConfig`].
    pub fn from_cfds(cfg: &CfdsConfig) -> Self {
        InterleavingConfig {
            num_banks: cfg.num_banks,
            banks_per_group: cfg.banks_per_group(),
            num_physical_queues: cfg.num_physical_queues(),
        }
    }

    /// Total number of banks `M`.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Banks per group `B/b`.
    pub fn banks_per_group(&self) -> usize {
        self.banks_per_group
    }

    /// Number of groups `G`.
    pub fn num_groups(&self) -> usize {
        self.num_banks / self.banks_per_group
    }

    /// Number of physical queues served.
    pub fn num_physical_queues(&self) -> usize {
        self.num_physical_queues
    }

    /// Physical queues that map to each group (ceiling; the last group may
    /// serve fewer when the division is not exact).
    pub fn queues_per_group(&self) -> usize {
        self.num_physical_queues.div_ceil(self.num_groups())
    }
}

/// A fully decoded DRAM address (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedAddress {
    /// Group the block lives in.
    pub group: GroupId,
    /// Bank inside the group (0 .. `B/b`).
    pub bank_in_group: usize,
    /// Global bank identifier.
    pub bank: BankId,
    /// Row/column part: the block's sequence number within its (queue, bank)
    /// stream, i.e. `ordinal / (B/b)`.
    pub row: u64,
}

/// Maps `(physical queue, block ordinal)` pairs onto banks and linear
/// addresses according to the block-cyclic interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapper {
    cfg: InterleavingConfig,
    block_bytes_log2: u32,
}

impl AddressMapper {
    /// Creates a mapper for `cfg`, assuming `b = banks-per-group`-independent
    /// block payloads of `b × 64` bytes. The block size only affects the
    /// low-order zero bits of the linear address and defaults to one cell.
    pub fn new(cfg: InterleavingConfig) -> Self {
        AddressMapper {
            cfg,
            block_bytes_log2: (CELL_BYTES as u32).trailing_zeros(),
        }
    }

    /// Creates a mapper whose linear addresses account for `b`-cell blocks.
    pub fn with_block_cells(cfg: InterleavingConfig, cells_per_block: usize) -> Self {
        let bytes = (cells_per_block.max(1) * CELL_BYTES).next_power_of_two();
        AddressMapper {
            cfg,
            block_bytes_log2: bytes.trailing_zeros(),
        }
    }

    /// The interleaving parameters.
    pub fn config(&self) -> &InterleavingConfig {
        &self.cfg
    }

    /// Group a physical queue is statically assigned to: low-order bits
    /// (modulo) of the queue identifier, which spreads queues over the maximum
    /// number of groups.
    pub fn group_of_queue(&self, queue: PhysicalQueueId) -> GroupId {
        GroupId::new((queue.as_usize() % self.cfg.num_groups()) as u32)
    }

    /// Group a global bank belongs to.
    pub fn group_of_bank(&self, bank: BankId) -> GroupId {
        GroupId::new((bank.index() / self.cfg.banks_per_group) as u32)
    }

    /// Bank that holds block `ordinal` of `queue`: the queue's group, then
    /// round-robin over the banks of that group by block ordinal.
    pub fn bank_for(&self, queue: PhysicalQueueId, ordinal: u64) -> BankId {
        let group = self.group_of_queue(queue).index();
        let bank_in_group = (ordinal % self.cfg.banks_per_group as u64) as usize;
        BankId::new((group * self.cfg.banks_per_group + bank_in_group) as u32)
    }

    /// Full decomposition of the location of block `ordinal` of `queue`.
    pub fn decode(&self, queue: PhysicalQueueId, ordinal: u64) -> DecodedAddress {
        let group = self.group_of_queue(queue);
        let bank_in_group = (ordinal % self.cfg.banks_per_group as u64) as usize;
        let bank = self.bank_for(queue, ordinal);
        DecodedAddress {
            group,
            bank_in_group,
            bank,
            row: ordinal / self.cfg.banks_per_group as u64,
        }
    }

    /// Linear byte address of the block, following the bit layout of Figure 6:
    /// low-order zero bits for the block payload, then the bank-in-group
    /// index, then the group index, then the remaining queue/ordinal bits.
    pub fn linear_address(&self, queue: PhysicalQueueId, ordinal: u64) -> u64 {
        let d = self.decode(queue, ordinal);
        let groups = self.cfg.num_groups() as u64;
        let bpg = self.cfg.banks_per_group as u64;
        let queue_high = queue.as_usize() as u64 / groups;
        // Row index within the bank combines the per-bank block row and the
        // high-order queue bits (each queue owns a contiguous row range).
        let row = queue_high.wrapping_mul(1 << 20).wrapping_add(d.row);
        let mut addr = row;
        addr = addr * groups + d.group.index() as u64;
        addr = addr * bpg + d.bank_in_group as u64;
        addr << self.block_bytes_log2
    }

    /// Maximum number of *distinct* banks touched by `count` consecutive
    /// blocks of the same queue (used by conflict-freedom arguments).
    pub fn distinct_banks_in_window(&self, count: usize) -> usize {
        count.min(self.cfg.banks_per_group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(InterleavingConfig::new(256, 8, 512).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            InterleavingConfig::new(0, 8, 512),
            Err(MappingError::Zero("num_banks"))
        ));
        assert!(matches!(
            InterleavingConfig::new(256, 0, 512),
            Err(MappingError::Zero("banks_per_group"))
        ));
        assert!(matches!(
            InterleavingConfig::new(256, 8, 0),
            Err(MappingError::Zero("num_physical_queues"))
        ));
        let err = InterleavingConfig::new(100, 8, 512).unwrap_err();
        assert!(matches!(err, MappingError::NotDivisible { .. }));
        assert!(err.to_string().contains("100"));
    }

    #[test]
    fn groups_and_queue_assignment() {
        let m = mapper();
        assert_eq!(m.config().num_groups(), 32);
        assert_eq!(m.config().queues_per_group(), 16);
        // Queue q maps to group q mod 32.
        assert_eq!(m.group_of_queue(PhysicalQueueId::new(0)), GroupId::new(0));
        assert_eq!(m.group_of_queue(PhysicalQueueId::new(33)), GroupId::new(1));
        assert_eq!(
            m.group_of_queue(PhysicalQueueId::new(511)),
            GroupId::new(31)
        );
    }

    #[test]
    fn consecutive_blocks_rotate_over_group_banks() {
        let m = mapper();
        let q = PhysicalQueueId::new(5);
        let banks: Vec<BankId> = (0..8).map(|o| m.bank_for(q, o)).collect();
        // All 8 banks are distinct and belong to the queue's group.
        let group = m.group_of_queue(q);
        for (i, b) in banks.iter().enumerate() {
            assert_eq!(m.group_of_bank(*b), group);
            for other in &banks[..i] {
                assert_ne!(b, other);
            }
        }
        // Block 8 wraps around to the same bank as block 0.
        assert_eq!(m.bank_for(q, 8), banks[0]);
    }

    #[test]
    fn queues_in_different_groups_use_disjoint_banks() {
        let m = mapper();
        let qa = PhysicalQueueId::new(0); // group 0
        let qb = PhysicalQueueId::new(1); // group 1
        for oa in 0..16 {
            for ob in 0..16 {
                assert_ne!(m.bank_for(qa, oa), m.bank_for(qb, ob));
            }
        }
    }

    #[test]
    fn decode_is_consistent_with_bank_for() {
        let m = mapper();
        let q = PhysicalQueueId::new(77);
        for o in 0..40 {
            let d = m.decode(q, o);
            assert_eq!(d.bank, m.bank_for(q, o));
            assert_eq!(d.group, m.group_of_queue(q));
            assert_eq!(d.bank_in_group, (o % 8) as usize);
            assert_eq!(d.row, o / 8);
        }
    }

    #[test]
    fn linear_addresses_are_block_aligned_and_distinct() {
        let m = AddressMapper::with_block_cells(InterleavingConfig::new(32, 4, 64).unwrap(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for q in 0..64u32 {
            for o in 0..8u64 {
                let a = m.linear_address(PhysicalQueueId::new(q), o);
                assert_eq!(a % 256, 0, "addresses are 4-cell (256 B) aligned");
                assert!(seen.insert(a), "address collision for q={q} o={o}");
            }
        }
    }

    #[test]
    fn distinct_banks_in_window_saturates() {
        let m = mapper();
        assert_eq!(m.distinct_banks_in_window(3), 3);
        assert_eq!(m.distinct_banks_in_window(8), 8);
        assert_eq!(m.distinct_banks_in_window(100), 8);
    }

    #[test]
    fn from_cfds_matches_manual_construction() {
        let cfg = CfdsConfig::builder().build().unwrap();
        let ic = InterleavingConfig::from_cfds(&cfg);
        assert_eq!(ic.num_banks(), 256);
        assert_eq!(ic.banks_per_group(), 8);
        assert_eq!(ic.num_physical_queues(), 512);
    }
}
