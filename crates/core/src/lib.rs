//! `pktbuf`: hybrid SRAM/DRAM packet buffers with worst-case bandwidth
//! guarantees.
//!
//! This is the core library of the reproduction of *"Design and Implementation
//! of High-Performance Memory Systems for Future Packet Buffers"* (García,
//! Corbal, Cerdà, Valero — MICRO 2003). It assembles the substrate crates into
//! three complete, slot-synchronous packet-buffer designs behind one trait:
//!
//! * [`DramOnlyBuffer`] — the introduction's baseline; shows why DRAM alone
//!   cannot give worst-case guarantees at high line rates.
//! * [`RadsBuffer`] — the Random Access DRAM System of §3 (the hybrid
//!   SRAM/DRAM baseline of Iyer, Kompella, McKeown): ECQF-managed head and
//!   tail SRAMs around a DRAM accessed with granularity `B`.
//! * [`CfdsBuffer`] — the paper's Conflict-Free DRAM System: the same MMA
//!   structure at granularity `b < B`, a banked DRAM with block-cyclic
//!   interleaving, an issue-queue-like DRAM scheduler that guarantees no bank
//!   conflicts, a latency register that restores in-order delivery, and queue
//!   renaming that defeats DRAM fragmentation.
//!
//! RADS and CFDS are one SRAM front end (tail SRAM and tail MMA, ECQF
//! lookahead, the delay line behind it, head SRAM) over two DRAM back ends,
//! as in the paper: their slot — deliver, arrive, request, delay line, DRAM
//! period ops, serve — is written once, in the crate-private `front`
//! module. The delay line is `B` slots deep for RADS (its DRAM read) and
//! the latency register of equation (3) for CFDS. Each back end supplies
//! only its period ops, its share of idle fast-forward and quiescence, and
//! preload. The DRAM-only
//! baseline has a slot body of its own. Each design's `step` and fused
//! [`PacketBuffer::step_batch`] run its one body through one shared
//! skeleton.
//!
//! Every buffer continuously checks its own worst-case guarantees (zero miss,
//! zero drop, FIFO order, zero bank conflicts) through [`BufferStats`] and the
//! built-in [`DeliveryVerifier`].
//!
//! The slot loop of every buffer is allocation-free in steady state: the tail
//! SRAM is an intrusive fixed-slab cell arena, every block in flight lives in
//! one block slab per buffer and travels as a handle into it (RADS's DRAM is
//! a per-queue FIFO of such handles), and in-flight DRAM requests live in
//! dense index-addressed tables — see the [`hotpath`] module for the building
//! blocks and the layout rationale.
//!
//! # Quickstart
//!
//! ```
//! use pktbuf::{CfdsBuffer, PacketBuffer};
//! use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId};
//!
//! // A small CFDS instance: 8 queues, b = 2, B = 8, 16 banks.
//! let cfg = CfdsConfig {
//!     num_queues: 8,
//!     granularity: 2,
//!     rads_granularity: 8,
//!     num_banks: 16,
//!     ..CfdsConfig::default()
//! };
//! cfg.validate()?;
//! let mut buf = CfdsBuffer::new(cfg);
//!
//! // Preload a backlog and drain it round-robin, checking worst-case
//! // behaviour as we go.
//! for q in 0..8u32 {
//!     let queue = LogicalQueueId::new(q);
//!     let cells = (0..16).map(|s| Cell::new(queue, s, 0)).collect();
//!     buf.preload_dram(queue, cells);
//! }
//! let mut granted = 0;
//! for t in 0..(8 * 16 + buf.pipeline_delay_slots() as u64 + 64) {
//!     let queue = LogicalQueueId::new((t % 8) as u32);
//!     let request = (buf.requestable_cells(queue) > 0).then_some(queue);
//!     let outcome = buf.step(None, request);
//!     assert!(outcome.miss.is_none());
//!     if outcome.granted.is_some() {
//!         granted += 1;
//!     }
//! }
//! assert_eq!(granted, 8 * 16);
//! assert!(buf.stats().is_loss_free());
//! # Ok::<(), pktbuf_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cfds_buffer;
mod dram_only;
mod front;
pub mod hotpath;
mod rads;
mod stats;
mod traits;
mod verify;

pub use cfds_buffer::{CfdsBuffer, CfdsBufferOptions};
pub use dram_only::DramOnlyBuffer;
pub use pktbuf_model::RequestSource;
pub use rads::RadsBuffer;
pub use stats::BufferStats;
pub use traits::{BatchReport, GrantSink, PacketBuffer, SlotOutcome};
pub use verify::DeliveryVerifier;
