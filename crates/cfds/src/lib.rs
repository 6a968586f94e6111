//! Conflict-Free DRAM System (CFDS) building blocks — the paper's
//! contribution (§5, §6).
//!
//! The CFDS keeps the SRAM/MMA structure of the RADS baseline but interposes a
//! *DRAM Scheduler Subsystem* between the MMA and a banked DRAM, so that
//! transfers can use a granularity of `b` cells (instead of the full DRAM
//! random-access time worth of `B` cells) while still never hitting a busy
//! bank:
//!
//! * [`RequestsRegister`] / [`OngoingRequestsRegister`] / [`DsaPolicy`] — the
//!   issue-queue-like reorder stage and its selection policy (§5.3, §8.1).
//! * [`DramSchedulerSubsystem`] — the assembled DSS: submits MMA requests,
//!   assigns block ordinals and banks, and issues the oldest conflict-free
//!   request every `b` slots.
//! * [`LatencyRegister`] — the extra fixed delay that restores exact in-order
//!   delivery to the arbiter despite the reordering (§5.4).
//! * [`RenamingTable`] — logical→physical queue renaming that lets any logical
//!   queue use the whole DRAM despite the static queue→group assignment (§6).
//! * [`sizing`] — equations (1)–(4): RR size, worst-case skips, latency and
//!   SRAM size.
//!
//! # Example
//!
//! ```
//! use cfds::{DramSchedulerSubsystem, DsaPolicy};
//! use dram_sim::{AddressMapper, InterleavingConfig};
//! use pktbuf_model::PhysicalQueueId;
//!
//! let mapper = AddressMapper::new(InterleavingConfig::new(256, 8, 512).unwrap());
//! let mut dss = DramSchedulerSubsystem::new(mapper, 8, DsaPolicy::OldestFirst);
//! let q = PhysicalQueueId::new(3);
//! dss.submit_read(q, 0);
//! dss.submit_read(q, 0);
//! // Consecutive blocks of one queue live in different banks of its group,
//! // so both issue back to back without a conflict.
//! assert!(dss.issue(0).is_some());
//! assert!(dss.issue(4).is_some());
//! assert_eq!(dss.stats().stalls, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dsa;
mod latency;
mod orr;
mod renaming;
mod rr;
mod scheduler;
pub mod sizing;

pub use dsa::DsaPolicy;
pub use latency::LatencyRegister;
pub use orr::OngoingRequestsRegister;
pub use renaming::{RenamingError, RenamingTable};
pub use rr::{RequestsRegister, RrEntry};
pub use scheduler::{DramSchedulerSubsystem, DssStats, IssuedRequest};
