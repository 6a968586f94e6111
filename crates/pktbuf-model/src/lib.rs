//! Fundamental types shared by every crate of the *future-packet-buffers*
//! workspace.
//!
//! This crate models the vocabulary of the paper *"Design and Implementation of
//! High-Performance Memory Systems for Future Packet Buffers"* (García, Corbal,
//! Cerdà, Valero — MICRO 2003):
//!
//! * [`Cell`] — the fixed 64-byte unit into which packets are segmented (§2),
//!   modelled by its identity alone (a 24-byte `Copy` value).
//! * [`LogicalQueueId`] / [`PhysicalQueueId`] — Virtual Output Queue identifiers.
//!   Logical names are what the switch-fabric scheduler uses; physical names are
//!   what the CFDS renaming layer maps them onto (§6).
//! * [`LineRate`] — OC-192 / OC-768 / OC-3072 line rates and the derived
//!   time-slot duration (§2).
//! * [`Slot`] — the synchronous time base of the buffer (one cell transmission
//!   time at the line rate).
//! * [`RequestLedger`] / [`RequestOracle`] — the set of cells the arbiter may
//!   still request (§2: only cells that are in the buffer), and the question
//!   request generators ask of it.
//! * [`RadsConfig`] / [`CfdsConfig`] — dimensioning parameters of the two memory
//!   architectures (Table 1 of the paper).
//!
//! # Example
//!
//! ```
//! use pktbuf_model::{CfdsConfig, LineRate, RadsConfig};
//!
//! // The paper's OC-3072 design point: Q = 512 queues, B = 32 cells.
//! let rads = RadsConfig::for_line_rate(LineRate::Oc3072, 512);
//! assert_eq!(rads.granularity, 32);
//!
//! // A CFDS refinement with b = 4 and M = 256 banks.
//! let cfds = CfdsConfig::builder()
//!     .num_queues(512)
//!     .granularity(4)
//!     .num_banks(256)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(cfds.banks_per_group(), 8);
//! assert_eq!(cfds.num_groups(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cell;
mod config;
mod error;
mod ledger;
mod queue;
mod rate;
mod time;

pub use cell::{Cell, CELL_BYTES};
pub use config::{
    CfdsConfig, CfdsConfigBuilder, ConfigOverrides, RadsConfig, MAX_BANKS, MAX_LOOKAHEAD_SLOTS,
    MAX_PHYSICAL_QUEUES,
};
pub use error::{ConfigError, ModelError};
pub use ledger::{RequestLedger, RequestOracle};
pub use queue::{LogicalQueueId, PhysicalQueueId, QueueKind};
pub use rate::LineRate;
pub use time::{Nanoseconds, Slot, SlotDuration};
