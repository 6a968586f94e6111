//! Structured results of one fabric run: per-port, per-output and
//! matrix-level accounting.

use obs::Log2Histogram;
use pktbuf::BufferStats;
use serde::Serialize;

/// Serializable summary of a [`Log2Histogram`]: sample count, exact extrema,
/// integer-rank percentiles and the raw log2 bucket counts. Derived at report
/// time; absent from reports when the corresponding probe was not armed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramReport {
    /// Recorded samples.
    pub count: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Integer-rank median (see `obs::Log2Histogram::percentile`).
    pub p50: u64,
    /// Integer-rank 95th percentile.
    pub p95: u64,
    /// Integer-rank 99th percentile.
    pub p99: u64,
    /// Log2 bucket counts; index `i` counts samples of bit length `i`.
    pub buckets: Vec<u64>,
}

impl HistogramReport {
    /// Summarizes a histogram for inclusion in a report.
    pub fn from_hist(hist: &Log2Histogram) -> Self {
        HistogramReport {
            count: hist.count(),
            min: hist.min(),
            max: hist.max(),
            p50: hist.p50(),
            p95: hist.p95(),
            p99: hist.p99(),
            buckets: hist.buckets().to_vec(),
        }
    }
}

/// One ingress port's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortReport {
    /// Design of the port's buffer ("RADS", "CFDS", "DRAM-only").
    pub design: &'static str,
    /// Cells offered on this port's line (the buffer accepts these minus
    /// its tail drops).
    pub arrivals: u64,
    /// Cells granted out of this port's buffer (departed the ingress side).
    pub grants: u64,
    /// Cells still inside the buffer when the run ended (a residual partial
    /// tail batch, never lost — see cell conservation).
    pub resident_cells: u64,
    /// The buffer's own statistics.
    pub stats: BufferStats,
}

/// One egress port's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EgressReport {
    /// Cells transmitted onto the output line.
    pub transmitted: u64,
    /// Deepest the transmit FIFO has been.
    pub peak_queue_depth: u64,
    /// Largest end-to-end latency (arrival to transmission) observed, slots.
    pub max_latency_slots: u64,
    /// Mean end-to-end latency over transmitted cells, slots.
    pub mean_latency_slots: f64,
    /// Histogram-derived median latency in slots; present only when the
    /// port's latency histogram was armed (`ObsConfig` latency probes).
    /// Like every instrumented-only field it is omitted (not `null`) when
    /// unarmed, so the off path serializes byte-identically to the pre-obs
    /// schema.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p50_slots: Option<u64>,
    /// Histogram-derived 95th-percentile latency, when armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p95_slots: Option<u64>,
    /// Histogram-derived 99th-percentile latency, when armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p99_slots: Option<u64>,
}

/// The result of one whole fabric run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FabricRunReport {
    /// Number of ports.
    pub ports: usize,
    /// Arbiter label ("islip" / "maximal").
    pub arbiter: &'static str,
    /// Slots simulated, including the drain phase.
    pub slots: u64,
    /// Slots of the live-arrival phase.
    pub active_slots: u64,
    /// Cells offered across all ingress lines (includes cells a dropping
    /// design refused at its tail SRAM).
    pub arrivals: u64,
    /// Crossbar matches made (= requests issued to ingress buffers).
    pub matches: u64,
    /// Cells granted out of the ingress buffers.
    pub grants: u64,
    /// Cells transmitted on the output lines.
    pub transmitted: u64,
    /// Cells lost (drops + misses + order violations over every port); the
    /// smoke gates require 0.
    pub lost_cells: u64,
    /// Cells still resident in ingress buffers when the run ended.
    pub resident_cells: u64,
    /// Matches made *during the active phase* per port-slot of the active
    /// phase — how much of the crossbar's capacity the scheduler actually
    /// sustained while traffic was offered (an admissible load `ρ` sustains
    /// utilisation `≈ ρ`; drain-phase matches are excluded, so a saturated
    /// scheduler that only catches up during the drain scores low).
    pub crossbar_utilization: f64,
    /// Mean end-to-end latency over all transmitted cells, slots.
    pub mean_latency_slots: f64,
    /// Largest end-to-end latency observed on any output, slots.
    pub max_latency_slots: u64,
    /// Whether every worst-case guarantee held on every port.
    pub zero_loss: bool,
    /// Per-ingress-port outcomes.
    pub per_port: Vec<PortReport>,
    /// Per-egress-port outcomes.
    pub per_output: Vec<EgressReport>,
    /// Row-major `ports × ports` traffic matrix: arrivals at input `i`
    /// destined to output `j`.
    pub arrivals_matrix: Vec<u64>,
    /// Row-major `ports × ports`: departures from input `i`'s VOQ `j`.
    pub departures_matrix: Vec<u64>,
    /// Merged end-to-end latency histogram over every output (count, min,
    /// max, p50/p95/p99, log2 buckets); present only when the latency
    /// probes were armed, and omitted otherwise.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_histogram: Option<HistogramReport>,
}

impl FabricRunReport {
    /// Checks cell conservation end to end: per flow `(i, j)`, departures
    /// never exceed arrivals; per port, offered arrivals = departures +
    /// residents + tail drops; per output, transmissions equal the
    /// departures aimed at it (egress FIFOs are flushed before a report is
    /// built); and fabric-wide, arrivals = transmitted + resident + dropped.
    pub fn conservation_holds(&self) -> bool {
        self.conservation_deficit() == Some(0)
    }

    /// The same check, but tolerating cells granted to an egress FIFO and
    /// never transmitted — exactly what a mid-run switch death freezes in
    /// place. Returns `None` when some balance is outright wrong (counts
    /// that no fault can explain), otherwise `Some(deficit)` where
    /// `deficit` is the number of frozen egress cells: per output
    /// `transmitted ≤ aimed` with the shortfalls summed, and fabric-wide
    /// `arrivals = transmitted + resident + dropped + deficit`. A healthy
    /// run has deficit 0 ([`FabricRunReport::conservation_holds`]); a
    /// faulted Clos run must account every deficit cell as stranded in its
    /// fault ledger.
    pub fn conservation_deficit(&self) -> Option<u64> {
        let p = self.ports;
        let flows_ok = self
            .arrivals_matrix
            .iter()
            .zip(&self.departures_matrix)
            .all(|(a, d)| d <= a);
        let ports_ok = self.per_port.iter().enumerate().all(|(i, port)| {
            let arrivals: u64 = self.arrivals_matrix[i * p..(i + 1) * p].iter().sum();
            let departures: u64 = self.departures_matrix[i * p..(i + 1) * p].iter().sum();
            arrivals == port.arrivals
                && departures == port.grants
                && port.arrivals == port.grants + port.resident_cells + port.stats.drops
        });
        let mut deficit = 0u64;
        let outputs_ok = self.per_output.iter().enumerate().all(|(j, output)| {
            let aimed: u64 = (0..p).map(|i| self.departures_matrix[i * p + j]).sum();
            deficit += aimed.saturating_sub(output.transmitted);
            output.transmitted <= aimed
        });
        let dropped: u64 = self.per_port.iter().map(|port| port.stats.drops).sum();
        let balanced = flows_ok
            && ports_ok
            && outputs_ok
            && self.arrivals == self.transmitted + self.resident_cells + dropped + deficit;
        balanced.then_some(deficit)
    }
}
