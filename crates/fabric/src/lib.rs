//! `fabric`: an `N×N` virtual-output-queued switch that composes the
//! workspace's packet buffers into a whole router.
//!
//! Every experiment below this crate simulates **one** packet buffer in
//! isolation. A router line card, however, is one of `N` ingress ports
//! feeding a crossbar: each ingress keeps a *virtual output queue* (VOQ) per
//! egress port, a scheduler matches VOQs to egress ports every slot, and the
//! interesting behaviour — head-of-line-free throughput, incast contention,
//! end-to-end latency — only appears when the independently-correct buffers
//! contend for shared outputs.
//!
//! This crate provides that system layer:
//!
//! * [`VoqSwitch`] — the fabric: one [`pktbuf::PacketBuffer`] per ingress
//!   port (any design; [`PortBuffer`] mixes them per port), a crossbar
//!   arbiter and rate-limited egress ports, advanced slot-synchronously with
//!   chunked arrival generation and an idle fast-forward.
//! * [`CrossbarArbiter`] — iSLIP-style iterative matching
//!   ([`ArbiterKind::Islip`]) and a greedy maximal-matching baseline
//!   ([`ArbiterKind::Maximal`]) over one `u64` mask per row, so a crossbar
//!   takes up to [`MAX_CROSSBAR_PORTS`] = 64 ports; [`ClosFabric`] builds
//!   larger fabrics from such crossbars.
//! * [`EgressPort`] — credit-throttled output lines with end-to-end latency
//!   accounting.
//! * [`FabricRunReport`] — per-port, per-output and traffic-matrix-level
//!   results, with a built-in cell-conservation check.
//! * [`faults`] — deterministic, slot-scheduled fault injection for the
//!   Clos fabric ([`FaultPlan`]), with every fault's impact accounted in a
//!   per-fault [`FaultLedger`] so conservation still closes under failure.
//! * [`transport`] — end-to-end reliable delivery over the Clos: egress
//!   ports ack and deduplicate, closed-loop sources
//!   ([`traffic::ClosedLoopSource`]) retransmit what the fault layer killed,
//!   and [`RecoveryReport`] measures how fast goodput returns to baseline.
//! * observability — deterministic probes armed via
//!   [`ClosFabric::arm_obs`] with an [`obs::ObsConfig`]: end-to-end latency
//!   and occupancy histograms, slot-sampled per-stage time-series and a
//!   cell-lifecycle flight recorder, reported in [`ClosObsReport`]. Off by
//!   default, and the off path is byte-identical to an unarmed run.
//!
//! # Example
//!
//! ```
//! use fabric::{FabricConfig, VoqSwitch};
//! use pktbuf::RadsBuffer;
//! use pktbuf_model::RadsConfig;
//! use traffic::{stream_seed, UniformArrivals};
//!
//! let ports = 4;
//! let buffers: Vec<RadsBuffer> = (0..ports)
//!     .map(|_| {
//!         RadsBuffer::new(RadsConfig {
//!             num_queues: ports,
//!             granularity: 4,
//!             lookahead: None,
//!         })
//!     })
//!     .collect();
//! let mut arrivals: Vec<UniformArrivals> = (0..ports)
//!     .map(|p| UniformArrivals::new(ports, 0.6, stream_seed(1, p as u64)))
//!     .collect();
//! let mut switch = VoqSwitch::new(FabricConfig::new(ports), buffers);
//! let report = switch.run(&mut arrivals, 2_000);
//! assert!(report.zero_loss);
//! assert!(report.conservation_holds());
//! assert_eq!(report.transmitted + report.resident_cells, report.arrivals);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
pub mod clos;
mod egress;
pub mod faults;
mod port;
mod report;
mod switch;
pub mod transport;

pub use arbiter::{ArbiterKind, CrossbarArbiter, MAX_CROSSBAR_PORTS};
pub use clos::{
    ClosConfig, ClosConfigError, ClosFabric, ClosObsReport, ClosRunReport, ClosStage,
    ClosStageObsReport, ClosStageReport, DispatchPolicy, SeriesReport, TraceReport,
    MAX_LINK_CAPACITY, MAX_LINK_LATENCY,
};
pub use egress::EgressPort;
pub use faults::{
    FaultEvent, FaultImpact, FaultKind, FaultLedger, FaultPlan, FaultPlanError, LinkBoundary,
};
pub use port::PortBuffer;
pub use report::{EgressReport, FabricRunReport, HistogramReport, PortReport};
pub use switch::{
    FabricConfig, FabricConfigError, NullSink, StageSink, VoqSwitch, FABRIC_CHUNK_SLOTS,
};
pub use transport::{RecoveryReport, TransportConfig, TransportReport};
