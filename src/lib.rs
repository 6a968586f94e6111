//! `future-packet-buffers`: umbrella crate of the reproduction of
//! *"Design and Implementation of High-Performance Memory Systems for Future
//! Packet Buffers"* (García, Corbal, Cerdà, Valero — MICRO 2003).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them so that the examples and integration tests can use a single
//! dependency:
//!
//! * [`model`] — cells, queues, line rates, configurations.
//! * [`dram`] — banked DRAM simulator and the SDRAM baseline.
//! * [`cacti`] — the 0.13 µm SRAM/CAM area and access-time model.
//! * [`srambuf`] — functional shared-buffer organisations (CAM, linked list).
//! * [`mma`] — lookahead, occupancy counters, ECQF, tail MMA, sizing.
//! * [`cfds`] — requests register, DRAM scheduler, latency register, renaming.
//! * [`buffers`] — the assembled `RadsBuffer`, `CfdsBuffer`, `DramOnlyBuffer`.
//! * [`fabric`] — the `N×N` VOQ switch composing per-port buffers with a
//!   crossbar arbiter and rate-limited egress ports.
//! * [`traffic`] — arrival and arbiter-request workload generators.
//! * [`sim`] — slot-level engine, scenarios, the declarative experiment layer
//!   (`sim::spec::ExperimentSpec` + `sim::lab::LabRunner`, the substrate of
//!   the `pktbuf-lab` CLI) and the technology evaluation.
//!
//! See `README.md` for a tour of the workspace, the design notes, and how to
//! run the tests, the benchmark and the `pktbuf-lab` experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cacti_lite as cacti;
pub use cfds;
pub use dram_sim as dram;
pub use fabric;
pub use mma;
pub use pktbuf as buffers;
pub use pktbuf_model as model;
pub use sim;
pub use sram_buf as srambuf;
pub use traffic;

/// The paper's two evaluation design points, used throughout the examples and
/// the benchmark harness.
pub mod design_points {
    use pktbuf_model::{CfdsConfig, LineRate, RadsConfig};

    /// OC-768 RADS design point: 128 queues, granularity `B = 8`.
    pub fn oc768_rads() -> RadsConfig {
        RadsConfig::for_line_rate(LineRate::Oc768, 128)
    }

    /// OC-3072 RADS design point: 512 queues, granularity `B = 32`.
    pub fn oc3072_rads() -> RadsConfig {
        RadsConfig::for_line_rate(LineRate::Oc3072, 512)
    }

    /// OC-3072 CFDS design point: `Q = 512`, `b = 4`, `B = 32`, `M = 256`.
    pub fn oc3072_cfds() -> CfdsConfig {
        CfdsConfig::builder()
            .num_queues(512)
            .granularity(4)
            .rads_granularity(32)
            .num_banks(256)
            .build()
            .expect("the paper's design point is valid")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn design_points_match_the_paper() {
            assert_eq!(oc768_rads().granularity, 8);
            assert_eq!(oc3072_rads().granularity, 32);
            let cfds = oc3072_cfds();
            assert_eq!(cfds.banks_per_group(), 8);
            assert_eq!(cfds.num_groups(), 32);
        }
    }
}
