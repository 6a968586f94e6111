//! Slot-accurate banked DRAM simulator.
//!
//! This crate provides the DRAM substrate that both memory architectures of the
//! paper are built on:
//!
//! * [`SdramChip`] — a single-/multi-chip SDRAM bandwidth model used for the
//!   introduction's DRAM-only baseline (peak vs. worst-case guaranteed
//!   bandwidth, diminishing returns of wider buses).
//! * [`Bank`] / [`BankArray`] — per-bank busy/idle timing state machines with
//!   conflict detection. A bank that is accessed again before its random access
//!   time has elapsed reports a [`BankConflict`].
//! * [`AddressMapper`] — the block-cyclic interleaving of §5.1 / Figure 6:
//!   banks are organised in `G` groups of `B/b` banks, each group holds a fixed
//!   set of physical queues and consecutive `b`-cell blocks of a queue rotate
//!   round-robin over the banks of its group.
//! * [`DramStore`] — per-physical-queue block storage with per-group capacity
//!   accounting (used to study DRAM fragmentation, §6), over any
//!   [`StoredBlock`]: `Vec<Cell>` by default, or a caller's block handle. A
//!   ring entry runs from its write's submission (reserved: it takes room)
//!   through the write's issue (resident) to its read's issue, so a read
//!   that overtakes its write still finds the block.
//!
//! # Example
//!
//! ```
//! use dram_sim::{AddressMapper, BankArray, InterleavingConfig};
//! use pktbuf_model::PhysicalQueueId;
//!
//! // 256 banks, groups of 8 (B = 32, b = 4), 512 physical queues.
//! let cfg = InterleavingConfig::new(256, 8, 512).unwrap();
//! let mapper = AddressMapper::new(cfg);
//! let q = PhysicalQueueId::new(17);
//!
//! // Consecutive blocks of the same queue land on different banks of the
//! // same group, so B/b consecutive accesses never conflict.
//! let b0 = mapper.bank_for(q, 0);
//! let b1 = mapper.bank_for(q, 1);
//! assert_ne!(b0, b1);
//! assert_eq!(mapper.group_of_bank(b0), mapper.group_of_bank(b1));
//!
//! let mut banks = BankArray::new(256, 32);
//! banks.start_access(b0, 0).unwrap();
//! banks.start_access(b1, 4).unwrap();
//! assert!(banks.start_access(b0, 8).is_err()); // still busy until slot 32
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod bank;
mod chip;
mod mapping;
mod request;
mod stats;
mod store;

pub use array::BankArray;
pub use bank::{Bank, BankConflict, BankState};
pub use chip::{MultiChipConfig, SdramChip, SdramTimingCycles};
pub use mapping::{AddressMapper, DecodedAddress, InterleavingConfig, MappingError};
pub use request::{AccessKind, BankId, DramRequest, GroupId};
pub use stats::DramStats;
pub use store::{DramStore, StoreError, StoredBlock};
