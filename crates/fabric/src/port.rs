//! Heterogeneous ingress ports: one buffer design per port, mixed freely.
//!
//! A fabric whose ports all share one design runs [`crate::VoqSwitch`]
//! monomorphized over that concrete buffer type. [`PortBuffer`] is the
//! mixed-design alternative: a three-variant enum (one per shipped design)
//! that forwards the [`PacketBuffer`] contract with a single predictable
//! branch per call — no heap indirection, no virtual dispatch.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use pktbuf::{
    BatchReport, BufferStats, CfdsBuffer, DramOnlyBuffer, GrantSink, PacketBuffer, RadsBuffer,
    RequestSource, SlotOutcome,
};
use pktbuf_model::{Cell, LogicalQueueId};

/// An ingress buffer of any of the three shipped designs.
///
/// The variants hold their (large) buffers inline deliberately: ports live
/// in a per-fabric `Vec<PortBuffer>` whose element size is dominated by the
/// largest design either way, and boxing would put a pointer chase in front
/// of every per-slot call.
#[expect(
    clippy::large_enum_variant,
    reason = "inline variants, no pointer chase per slot"
)]
#[derive(Debug)]
pub enum PortBuffer {
    /// DRAM-only baseline (can miss under back-to-back requests).
    DramOnly(DramOnlyBuffer),
    /// Hybrid SRAM/DRAM RADS buffer.
    Rads(RadsBuffer),
    /// The paper's conflict-free DRAM system.
    Cfds(CfdsBuffer),
}

impl From<DramOnlyBuffer> for PortBuffer {
    fn from(buffer: DramOnlyBuffer) -> Self {
        PortBuffer::DramOnly(buffer)
    }
}

impl From<RadsBuffer> for PortBuffer {
    fn from(buffer: RadsBuffer) -> Self {
        PortBuffer::Rads(buffer)
    }
}

impl From<CfdsBuffer> for PortBuffer {
    fn from(buffer: CfdsBuffer) -> Self {
        PortBuffer::Cfds(buffer)
    }
}

/// Forwards one method to the three variants.
macro_rules! delegate {
    ($self:ident, $buffer:ident => $body:expr) => {
        match $self {
            PortBuffer::DramOnly($buffer) => $body,
            PortBuffer::Rads($buffer) => $body,
            PortBuffer::Cfds($buffer) => $body,
        }
    };
}

impl PacketBuffer for PortBuffer {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        delegate!(self, b => b.step(arrival, request))
    }

    fn current_slot(&self) -> u64 {
        delegate!(self, b => b.current_slot())
    }

    fn num_queues(&self) -> usize {
        delegate!(self, b => b.num_queues())
    }

    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        delegate!(self, b => b.requestable_cells(queue))
    }

    fn pipeline_delay_slots(&self) -> usize {
        delegate!(self, b => b.pipeline_delay_slots())
    }

    fn stats(&self) -> &BufferStats {
        delegate!(self, b => b.stats())
    }

    fn design_name(&self) -> &'static str {
        delegate!(self, b => b.design_name())
    }

    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        delegate!(self, b => b.step_batch(arrivals, requests, grants))
    }

    fn advance_idle(&mut self, slots: u64) {
        delegate!(self, b => b.advance_idle(slots));
    }

    fn is_quiescent(&self) -> bool {
        delegate!(self, b => b.is_quiescent())
    }

    fn requestable_total(&self) -> u64 {
        delegate!(self, b => b.requestable_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::{RadsConfig, RequestOracle};

    #[test]
    fn port_buffer_forwards_the_contract() {
        let cfg = RadsConfig {
            num_queues: 4,
            granularity: 4,
            lookahead: None,
        };
        let mut port: PortBuffer = RadsBuffer::new(cfg).into();
        assert_eq!(port.design_name(), "RADS");
        assert_eq!(port.num_queues(), 4);
        assert_eq!(port.current_slot(), 0);
        assert_eq!(port.requestable_total(), 0);
        let q = LogicalQueueId::new(1);
        let outcome = port.step(Some(Cell::new(q, 0, 0)), None);
        assert!(outcome.is_clean());
        port.advance_idle(8);
        assert_eq!(port.current_slot(), 9);
        assert_eq!(port.stats().arrivals, 1);
    }

    /// Requests queue 0 whenever the buffer reports it requestable.
    struct Greedy;

    impl RequestSource for Greedy {
        fn next_request<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
        where
            O: RequestOracle + ?Sized,
        {
            let q = LogicalQueueId::new(0);
            (requestable.cells(q) > 0).then_some(q)
        }
    }

    #[test]
    fn step_batch_through_the_enum_matches_the_per_slot_reference() {
        let cfg = RadsConfig {
            num_queues: 4,
            granularity: 4,
            lookahead: None,
        };
        let q = LogicalQueueId::new(0);
        let slots = 256u64;

        let mut port: PortBuffer = RadsBuffer::new(cfg).into();
        let mut arrivals: Vec<Option<Cell>> =
            (0..slots).map(|s| Some(Cell::new(q, s, s))).collect();
        let mut grants = GrantSink::new(true);
        port.step_batch(&mut arrivals, &mut Greedy, &mut grants);

        let mut reference = RadsBuffer::new(cfg);
        let mut reference_grants = 0usize;
        for s in 0..slots {
            let request = (reference.requestable_cells(q) > 0).then_some(q);
            let outcome = reference.step(Some(Cell::new(q, s, s)), request);
            reference_grants += usize::from(outcome.granted.is_some());
        }

        assert_eq!(port.stats(), reference.stats());
        assert_eq!(grants.recorded(), reference_grants);
    }
}
