//! Memory Management Algorithms (MMAs) for hybrid SRAM/DRAM packet buffers.
//!
//! This crate implements the MMA subsystem of §3 of the paper (shared by the
//! RADS baseline and by CFDS, which merely changes the granularity it works
//! at):
//!
//! * [`LookaheadRegister`] — the shift register holding the next `L` arbiter
//!   requests, which lets the head MMA anticipate which queue will become
//!   *critical* first. Its ring links each queue's pending requests in
//!   stream order and carries one bit per slot marking each queue's critical
//!   request.
//! * [`OccupancyCounters`] — the per-queue virtual occupancy counters:
//!   incremented by the transfer granularity when a replenishment is ordered,
//!   decremented when a request leaves the lookahead.
//! * [`EcqfMma`] — Earliest Critical Queue First, the head MMA that minimises
//!   SRAM size (requires the full lookahead `Q·(B−1)+1`). Its `select` is the
//!   reference scan over every queue.
//! * [`HeadMmaSubsystem`] — lookahead, counters and ECQF assembled, as the
//!   RADS and CFDS front ends drive them: it moves the critical marks in O(1)
//!   per request (O(B) per replenishment) and selects the first marked slot
//!   after the ring head, which is exactly the scan's choice.
//! * [`ThresholdTailMma`] — the simple tail MMA: write back any queue whose
//!   tail-SRAM occupancy reached the granularity.
//! * [`sizing`] — the RADS dimensioning formulas used by the evaluation
//!   (minimum lookahead, SRAM size as a function of the lookahead).
//!
//! # Example
//!
//! ```
//! use mma::{EcqfMma, LookaheadRegister, OccupancyCounters};
//! use pktbuf_model::LogicalQueueId;
//!
//! // Q = 4 queues, granularity B = 3, lookahead of 6 slots (the example of
//! // Figure 3 in the paper).
//! let mut lookahead = LookaheadRegister::new(6);
//! let mut counters = OccupancyCounters::new(4);
//! // SRAM occupancies: Q1 = 1, Q2 = 3, Q3 = 1, Q4 = 1.
//! for (q, occ) in [(0, 1), (1, 3), (2, 1), (3, 1)] {
//!     counters.add(LogicalQueueId::new(q), occ);
//! }
//! // Lookahead (head → tail): 1 1 1 3 3 6 → queue indices 0,0,0,2,2,(empty).
//! for q in [0u32, 0, 0, 2, 2] {
//!     lookahead.push(Some(LogicalQueueId::new(q)));
//! }
//! lookahead.push(None);
//! let ecqf = EcqfMma::new(3);
//! let decision = ecqf.select(&counters, &lookahead).expect("a critical queue");
//! // Queue 1 of the paper (index 0 here) is the earliest critical queue.
//! assert_eq!(decision.index(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod ecqf;
mod lookahead;
pub mod sizing;
mod subsystem;
mod tail;

pub use counters::OccupancyCounters;
pub use ecqf::EcqfMma;
pub use lookahead::LookaheadRegister;
pub use subsystem::{HeadMmaSubsystem, MmaEvent};
pub use tail::ThresholdTailMma;
