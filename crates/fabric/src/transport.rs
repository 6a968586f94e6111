//! End-to-end reliable transport over the Clos fabric: ack/dedup sink
//! state, the transport-level report, and the recovery metric.
//!
//! The fabric carries cells; it never *recovers* them — PR 8's fault layer
//! accounts every loss in a ledger but nothing retries. This module is the
//! delivery half of the closed-loop transport (the sending half is
//! [`traffic::ClosedLoopSource`]): egress ports acknowledge every delivered
//! cell on the existing credit-return path and deduplicate retransmitted
//! copies, so the run as a whole provides exactly-once delivery on top of a
//! lossy fabric. [`TransportConfig`] holds the senders' parameters as the
//! `traffic` crate declares them ([`traffic::ClosedLoopConfig`]) next to the
//! sink's goodput bucket.
//!
//! End-to-end conservation nests the PR-8 fault ledger one level up. The
//! fabric-level identity (arrivals = delivered + resident + drops + …) still
//! closes per run; the transport identity closes over the *retry loop*:
//!
//! ```text
//! injected = acked + in_flight + retransmissions_outstanding + gave_up
//! acked    = delivered_unique       (every unique delivery acks exactly once)
//! delivered (fabric) = delivered_unique + duplicates_filtered
//! duplicate_deliveries == 0
//! ```
//!
//! checked by `ClosRunReport::transport_conservation_holds`. Every
//! retransmission is attributable: a copy is only ever sent after a timer
//! fires (`retransmitted ≤ timeouts`), and a timer only fires when the
//! original was lost, stranded, refused (all ledgered by the fault layer) or
//! late.
//!
//! [`RecoveryReport`] turns "the fabric healed" into a number: slots from
//! the close of the last finite fault window until goodput regains ≥95% of a
//! fault-free twin run's, bucket by bucket.
//!
//! # Cut-through buffers required
//!
//! Closed-loop runs need fabric buffers whose accepted cells always become
//! requestable — for RADS buffers, granularity 1. Batched writeback
//! (granularity > 1) parks a sub-batch tail as a *permanent resident*: the
//! open-loop drain correctly reports it as resident-not-lost, but a reliable
//! sender keeps retransmitting it until the stale copies themselves fill a
//! DRAM batch, which turns every trickle flow into a timeout storm.

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

use serde::Serialize;
use std::collections::BTreeSet;

/// Parameters of the reliable transport layered over a Clos run: the
/// sending sources' [`traffic::ClosedLoopConfig`] and the sink-side
/// histogram resolution the recovery metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Timers and window of every closed-loop source.
    pub sender: traffic::ClosedLoopConfig,
    /// Goodput histogram bucket width, in slots (clamped to ≥ 1).
    pub goodput_bucket: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            sender: traffic::ClosedLoopConfig::default(),
            goodput_bucket: 200,
        }
    }
}

impl TransportConfig {
    /// The sender parameters clamped into their valid ranges
    /// ([`traffic::ClosedLoopConfig::normalized`]), for building
    /// [`traffic::ClosedLoopSource`]s.
    pub fn source_params(&self) -> traffic::ClosedLoopConfig {
        self.sender.normalized()
    }
}

/// Receiver-side transport state attached to the egress stage: per-flow
/// dedup (cumulative prefix + out-of-order set) and the goodput histogram.
#[derive(Debug, Clone)]
pub(crate) struct SinkState {
    ext_ports: usize,
    bucket: u64,
    /// `cum[flow]` = all seqs `< cum` delivered, where
    /// `flow = src * ext_ports + dest`.
    cum: Vec<u64>,
    /// Out-of-order delivered seqs (`≥ cum`) per flow.
    ooo: Vec<BTreeSet<u64>>,
    delivered_unique: u64,
    duplicates_filtered: u64,
    /// Unique deliveries per `bucket`-slot window, indexed by `slot/bucket`.
    goodput: Vec<u64>,
}

impl SinkState {
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub(crate) fn new(ext_ports: usize, goodput_bucket: u64) -> Self {
        SinkState {
            ext_ports,
            bucket: goodput_bucket.max(1),
            cum: vec![0; ext_ports * ext_ports],
            ooo: vec![BTreeSet::new(); ext_ports * ext_ports],
            delivered_unique: 0,
            duplicates_filtered: 0,
            goodput: Vec::new(),
        }
    }

    /// Accepts one delivery; returns `true` if the cell was new (first
    /// delivery of this `(src, dest, seq)`), `false` for a filtered
    /// duplicate.
    pub(crate) fn deliver(&mut self, src: u32, dest: u32, seq: u64, slot: u64) -> bool {
        let flow = src as usize * self.ext_ports + dest as usize;
        if seq < self.cum[flow] || self.ooo[flow].contains(&seq) {
            self.duplicates_filtered += 1;
            return false;
        }
        if seq == self.cum[flow] {
            self.cum[flow] += 1;
            while self.ooo[flow].remove(&self.cum[flow]) {
                self.cum[flow] += 1;
            }
        } else {
            self.ooo[flow].insert(seq);
        }
        self.delivered_unique += 1;
        let b = (slot / self.bucket) as usize;
        if b >= self.goodput.len() {
            self.goodput.resize(b + 1, 0);
        }
        self.goodput[b] += 1;
        true
    }

    pub(crate) fn delivered_unique(&self) -> u64 {
        self.delivered_unique
    }

    pub(crate) fn duplicates_filtered(&self) -> u64 {
        self.duplicates_filtered
    }

    /// Deliveries the dedup state cannot account for: any accepted-as-unique
    /// cell not present in the per-flow structures. Always 0 unless the
    /// sink itself is buggy — reported so the invariant is *checked*, not
    /// assumed.
    pub(crate) fn duplicate_deliveries(&self) -> u64 {
        let accounted: u64 = self
            .cum
            .iter()
            .zip(&self.ooo)
            .map(|(c, o)| c + o.len() as u64)
            .sum();
        self.delivered_unique.saturating_sub(accounted)
    }

    pub(crate) fn goodput(&self) -> &[u64] {
        &self.goodput
    }

    pub(crate) fn bucket(&self) -> u64 {
        self.bucket
    }
}

/// Transport-level results of a closed-loop Clos run, attached to
/// `ClosRunReport` when the transport is enabled.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TransportReport {
    /// Initial/minimum RTO the sources ran with, in slots.
    pub rto_initial: u64,
    /// RTO backoff cap, in slots.
    pub rto_cap: u64,
    /// Retry budget per cell.
    pub max_retries: u32,
    /// Initial congestion window, in cells.
    pub cwnd_init: u64,
    /// Maximum congestion window, in cells.
    pub cwnd_max: u64,
    /// Goodput histogram bucket width, in slots.
    pub goodput_bucket: u64,
    /// Fresh cells injected across all sources (first transmissions).
    pub injected_cells: u64,
    /// Retransmission copies sent across all sources.
    pub retransmitted_cells: u64,
    /// Retransmission timers fired across all sources.
    pub timeouts_fired: u64,
    /// Unique cells acknowledged back to their source.
    pub acked_cells: u64,
    /// Unique cells the sinks delivered (first copies).
    pub delivered_unique: u64,
    /// Retransmitted copies the sinks filtered as duplicates.
    pub duplicates_filtered: u64,
    /// Deliveries that escaped dedup — the exactly-once violation count,
    /// gated to 0.
    pub duplicate_deliveries: u64,
    /// Cells whose retry budget was exhausted without an ack.
    pub gave_up_cells: u64,
    /// Cells still carrying a live retransmission timer at end of run.
    pub in_flight_at_end: u64,
    /// Cells queued for retransmission (timer fired, copy not yet sent) at
    /// end of run.
    pub retransmissions_outstanding_at_end: u64,
    /// Unique deliveries per `goodput_bucket`-slot window.
    pub goodput: Vec<u64>,
    /// Transport-layer latency (first injection to ack) merged over every
    /// source, when the latency probes were armed via `ClosFabric::arm_obs`.
    /// Unlike the fabric-level latency histogram — which times each
    /// *delivered copy* from its last injection — this spans retransmissions
    /// and resurrections, so recovery tails are not under-counted. Omitted
    /// when unarmed, keeping uninstrumented transport reports byte-identical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub first_injection_latency: Option<crate::HistogramReport>,
}

/// Time-to-recover: how long after the last fault window closed did the
/// faulted run's goodput regain ≥95% of the fault-free twin's?
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Slot at which the last finite fault window closed.
    pub fault_close_slot: u64,
    /// Goodput bucket width both runs were measured with, in slots.
    pub bucket_slots: u64,
    /// Whether goodput recovered within the measured horizon.
    pub recovered: bool,
    /// First slot (bucket boundary) at which the ≥95% criterion held, if
    /// recovery was observed.
    pub recovery_slot: Option<u64>,
    /// `recovery_slot - fault_close_slot`, if recovery was observed.
    pub slots_to_recover: Option<u64>,
    /// Faulted run's transport-layer latency median (first injection to
    /// ack), in slots; present when its latency probes were armed (the
    /// percentiles are omitted otherwise, keeping pre-obs recovery reports
    /// byte-identical; the two recovery slots above print `null`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p50_slots: Option<u64>,
    /// Faulted run's transport-layer 95th-percentile latency, when armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p95_slots: Option<u64>,
    /// Faulted run's transport-layer 99th-percentile latency, when armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p99_slots: Option<u64>,
}

impl RecoveryReport {
    /// Measures time-to-recover from a fault-free `baseline` run and a
    /// `faulted` twin (same geometry, sources and transport config; only the
    /// fault plan differs).
    ///
    /// Returns `None` when the comparison is not meaningful: either run
    /// lacks a transport report, the goodput buckets differ, or the faulted
    /// run has no finite fault window to recover *from*.
    ///
    /// The scan starts at the first full bucket after the last finite fault
    /// window closes and accepts the first bucket where
    /// `faulted ≥ 95% · baseline`; only buckets within the baseline's
    /// recorded horizon count (a bucket past it has no reference value).
    pub fn measure(
        baseline: &crate::ClosRunReport,
        faulted: &crate::ClosRunReport,
    ) -> Option<RecoveryReport> {
        let base_t = baseline.transport.as_ref()?;
        let fault_t = faulted.transport.as_ref()?;
        if base_t.goodput_bucket != fault_t.goodput_bucket {
            return None;
        }
        let bucket = base_t.goodput_bucket.max(1);
        let close = faulted
            .faults
            .as_ref()?
            .events
            .iter()
            .filter_map(|e| e.duration.map(|d| e.start.saturating_add(d)))
            .max()?;
        let first_bucket = close.div_ceil(bucket) as usize;
        let horizon = base_t.goodput.len().min(fault_t.goodput.len());
        let hist = fault_t.first_injection_latency.as_ref();
        let mut report = RecoveryReport {
            fault_close_slot: close,
            bucket_slots: bucket,
            recovered: false,
            recovery_slot: None,
            slots_to_recover: None,
            latency_p50_slots: hist.map(|h| h.p50),
            latency_p95_slots: hist.map(|h| h.p95),
            latency_p99_slots: hist.map(|h| h.p99),
        };
        for b in first_bucket..horizon {
            if fault_t.goodput[b] * 100 >= base_t.goodput[b] * 95 {
                let slot = (b as u64 + 1) * bucket;
                report.recovered = true;
                report.recovery_slot = Some(slot);
                report.slots_to_recover = Some(slot - close);
                break;
            }
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_dedups_and_tracks_goodput() {
        let mut sink = SinkState::new(2, 10);
        assert!(sink.deliver(0, 1, 0, 0));
        assert!(sink.deliver(0, 1, 2, 5), "out of order is still unique");
        assert!(!sink.deliver(0, 1, 0, 7), "retransmit copy filtered");
        assert!(sink.deliver(0, 1, 1, 12), "gap fill drains the ooo set");
        assert!(!sink.deliver(0, 1, 2, 13), "late copy of ooo cell filtered");
        assert_eq!(sink.delivered_unique(), 3);
        assert_eq!(sink.duplicates_filtered(), 2);
        assert_eq!(sink.duplicate_deliveries(), 0);
        assert_eq!(sink.goodput(), &[2, 1]);
        assert_eq!(sink.bucket(), 10);
    }

    #[test]
    fn sink_keeps_flows_independent() {
        let mut sink = SinkState::new(3, 100);
        assert!(sink.deliver(0, 1, 0, 0));
        // Same seq, different (src, dest): distinct flows, both unique.
        assert!(sink.deliver(1, 0, 0, 0));
        assert!(sink.deliver(0, 2, 0, 0));
        assert_eq!(sink.delivered_unique(), 3);
        assert_eq!(sink.duplicates_filtered(), 0);
    }

    #[test]
    fn source_params_round_trips_the_sender_fields() {
        let sender = traffic::ClosedLoopConfig {
            rto_initial: 7,
            rto_cap: 70,
            max_retries: 5,
            cwnd_init: 3,
            cwnd_max: 9,
        };
        let cfg = TransportConfig {
            sender,
            goodput_bucket: 50,
        };
        assert_eq!(cfg.source_params(), sender, "in-range fields pass as given");
        let clamped = TransportConfig {
            sender: traffic::ClosedLoopConfig {
                rto_initial: 0,
                rto_cap: 0,
                cwnd_init: 0,
                cwnd_max: 0,
                ..sender
            },
            ..cfg
        };
        let p = clamped.source_params();
        assert_eq!(
            (
                p.rto_initial,
                p.rto_cap,
                p.max_retries,
                p.cwnd_init,
                p.cwnd_max
            ),
            (1, 1, 5, 1, 1)
        );
    }
}
