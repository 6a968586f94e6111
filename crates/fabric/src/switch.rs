//! The virtual-output-queued switch: N ingress packet buffers, a crossbar
//! arbiter and N rate-limited egress ports, advanced slot-synchronously.
//!
//! # Slot anatomy
//!
//! Every slot the fabric (in this order): accrues egress credits into one
//! ready word, computes a crossbar matching
//! ([`crate::CrossbarArbiter::schedule_rows`]) over one request word per
//! input, steps every ingress buffer once — the matched ports with a request
//! for their matched VOQ, all ports with their line-side arrival — hands
//! granted cells to their egress FIFO, and transmits at the egress cadence.
//!
//! The request words are the previous slot's outcomes: each `step` returns
//! its buffer's requestable set as [`pktbuf::SlotOutcome::requestable`], and
//! the switch keeps it as that input's row until the buffer's next `step`.
//! A buffer holds one VOQ per output and a crossbar at most 64 outputs, so
//! the word is the whole set, and no slot probes
//! [`pktbuf::PacketBuffer::requestable_cells`]: only [`VoqSwitch::new`] does,
//! once per buffer, since buffers may arrive preloaded. Debug builds check
//! every row against that probe at the start of every slot.
//!
//! # Batch hot path
//!
//! Arbitration couples the ports: a slot's matching depends on every
//! buffer's state *at that slot*, so — unlike the single-buffer engine —
//! multi-slot `step_batch` fusion cannot cross an arbitration boundary.
//! What the fabric does inherit from the chunked engine:
//!
//! * arrivals are generated a whole chunk at a time per port
//!   ([`traffic::ArrivalGenerator::fill_arrivals`], register-resident RNG);
//! * chunks in which provably nothing can happen — no arrival anywhere, all
//!   buffers quiescent with nothing requestable, all egress FIFOs empty —
//!   collapse to one [`pktbuf::PacketBuffer::advance_idle`] fast-forward per
//!   port (the arbiter is unobservable on matchless slots by construction);
//! * the drain tail terminates through the same quiescence probes.
//!
//! [`VoqSwitch::run_reference`] is the skip-free per-slot reference; the
//! differential tests pin the two paths bit-identical.

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

use crate::arbiter::{ArbiterKind, CrossbarArbiter, MAX_CROSSBAR_PORTS};
use crate::egress::EgressPort;
use crate::report::{EgressReport, FabricRunReport, PortReport};
use pktbuf::PacketBuffer;
use pktbuf_model::{Cell, LogicalQueueId};
use traffic::ArrivalGenerator;

/// Slots per arrival-generation chunk (mirrors the single-buffer engine's
/// chunk size; one ring of this length exists per ingress port).
pub const FABRIC_CHUNK_SLOTS: usize = 256;

/// Observer of the cell movements of one [`VoqSwitch::step_coupled`] slot.
///
/// A standalone switch only counts its cells; a *composed* switch (a stage
/// of a Clos — see [`crate::ClosFabric`]) must see them move: which input's
/// VOQ a grant left (to advance flow metadata riding beside the buffer),
/// which output line a cell was transmitted on (to forward it onto an
/// inter-stage link) and which arrival was refused at a full tail SRAM (to
/// roll the metadata back). All methods default to no-ops so a sink
/// implements only what it observes.
pub trait StageSink {
    /// A granted cell left input `input`'s VOQ `cell.queue()` for its egress
    /// FIFO.
    fn granted(&mut self, input: usize, cell: &Cell) {
        let _ = (input, cell);
    }
    /// A cell was transmitted on output `output`'s line this slot.
    fn transmitted(&mut self, output: usize, cell: Cell) {
        let _ = (output, cell);
    }
    /// Input `input`'s arriving cell was dropped at a full tail SRAM.
    fn dropped(&mut self, input: usize, cell: &Cell) {
        let _ = (input, cell);
    }
}

/// The sink of a standalone switch: observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl StageSink for NullSink {}

/// Static configuration of a fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Number of ingress (= egress) ports.
    pub ports: usize,
    /// Slots per transmitted cell at each egress port (1 = full line rate).
    pub egress_period: u64,
    /// Crossbar scheduling algorithm.
    pub arbiter: ArbiterKind,
}

impl FabricConfig {
    /// A full-line-rate iSLIP fabric of `ports` ports.
    pub fn new(ports: usize) -> Self {
        FabricConfig {
            ports,
            egress_period: 1,
            arbiter: ArbiterKind::Islip { iterations: 0 },
        }
    }

    /// Checks that a switch of this shape can be built.
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError`] when the port count is outside
    /// `2..=`[`MAX_CROSSBAR_PORTS`].
    pub fn validate(&self) -> Result<(), FabricConfigError> {
        if (2..=MAX_CROSSBAR_PORTS).contains(&self.ports) {
            Ok(())
        } else {
            Err(FabricConfigError::PortsOutOfRange(self.ports))
        }
    }
}

/// Why a [`FabricConfig`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfigError {
    /// A switch is one crossbar: 2 to [`MAX_CROSSBAR_PORTS`] ports (one mask
    /// word per arbiter row; build larger fabrics as a [`crate::ClosFabric`]).
    PortsOutOfRange(usize),
}

impl std::fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FabricConfigError::PortsOutOfRange(p) = self;
        write!(
            f,
            "a crossbar takes 2 to {MAX_CROSSBAR_PORTS} ports, got {p}"
        )
    }
}

impl std::error::Error for FabricConfigError {}

/// An `N×N` virtual-output-queued switch over any [`PacketBuffer`] design.
///
/// Ingress port `i`'s buffer holds `N` logical queues; queue `j` is the VOQ
/// of egress port `j`. Homogeneous fabrics monomorphize over the concrete
/// buffer type; mixed-design fabrics use [`crate::PortBuffer`].
#[derive(Debug)]
pub struct VoqSwitch<B: PacketBuffer> {
    ports: usize,
    buffers: Vec<B>,
    arbiter: CrossbarArbiter,
    egress: Vec<EgressPort>,
    clock: u64,
    matches: u64,
    arrivals_total: u64,
    grants_total: u64,
    /// Row-major `ports × ports`: cells arrived at input `i` for output `j`.
    arrivals_matrix: Vec<u64>,
    /// Row-major `ports × ports`: cells granted out of input `i`'s VOQ `j`.
    departures_matrix: Vec<u64>,
    /// Per input: the request word its buffer's last `step` returned (bit
    /// `j`: VOQ `j` has requestable cells).
    rows: Vec<u64>,
    // Per-slot scratch, sized once.
    match_in: Vec<Option<u32>>,
    match_out: Vec<Option<u32>>,
}

impl<B: PacketBuffer> VoqSwitch<B> {
    /// Builds a fabric from one ingress buffer per port.
    ///
    /// # Panics
    ///
    /// Panics with the [`FabricConfigError`] message when `config` fails
    /// [`FabricConfig::validate`], or when the buffer count does not match
    /// the port count or any buffer's queue count differs from it (VOQ
    /// shape).
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::panic,
        reason = "setup, not the slot loop"
    )]
    pub fn new(config: FabricConfig, buffers: Vec<B>) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let ports = config.ports;
        assert_eq!(buffers.len(), ports, "one ingress buffer per port");
        for (i, buffer) in buffers.iter().enumerate() {
            assert_eq!(
                buffer.num_queues(),
                ports,
                "ingress buffer {i} must hold one VOQ per egress port"
            );
        }
        VoqSwitch {
            ports,
            rows: buffers.iter().map(|b| probe_row(b, ports)).collect(),
            arbiter: CrossbarArbiter::new(config.arbiter, ports),
            egress: (0..ports)
                .map(|_| EgressPort::new(config.egress_period))
                .collect(),
            buffers,
            clock: 0,
            matches: 0,
            arrivals_total: 0,
            grants_total: 0,
            arrivals_matrix: vec![0; ports * ports],
            departures_matrix: vec![0; ports * ports],
            match_in: vec![None; ports],
            match_out: vec![None; ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The fabric clock (slots advanced so far).
    pub fn current_slot(&self) -> u64 {
        self.clock
    }

    /// Runs the fabric: `active_slots` slots with live arrivals (generator
    /// `p` feeds ingress port `p`; its queue ids are egress ports), then a
    /// drain phase until every deliverable cell has left on an output line.
    ///
    /// This is the production path: chunked arrival generation plus the idle
    /// fast-forward described in the module docs. Bit-identical to
    /// [`VoqSwitch::run_reference`] on the same inputs.
    ///
    /// # Panics
    ///
    /// Panics when the generator count or any generator's queue count does
    /// not match the port count.
    pub fn run<A: ArrivalGenerator>(
        &mut self,
        arrivals: &mut [A],
        active_slots: u64,
    ) -> FabricRunReport {
        self.check_generators(arrivals);
        #[expect(clippy::disallowed_macros, reason = "once per run, before the loop")]
        let mut rings: Vec<Vec<Option<Cell>>> = vec![vec![None; FABRIC_CHUNK_SLOTS]; self.ports];
        #[expect(clippy::disallowed_macros, reason = "once per run, before the loop")]
        let mut slot_arrivals: Vec<Option<Cell>> = vec![None; self.ports];
        let mut done = 0u64;
        while done < active_slots {
            let len = FABRIC_CHUNK_SLOTS.min((active_slots - done) as usize);
            let base = self.clock;
            let mut produced = 0usize;
            for (generator, ring) in arrivals.iter_mut().zip(rings.iter_mut()) {
                produced += generator.fill_arrivals(base, &mut ring[..len]);
            }
            if produced == 0 && self.is_idle() {
                // No arrival in the whole chunk, nothing requestable, all
                // pipelines quiescent, all egress FIFOs empty: the arbiter
                // cannot match (all-false eligibility) and a matchless
                // schedule is unobservable, so the chunk is pure idle.
                self.advance_idle(len as u64);
            } else {
                for s in 0..len {
                    for (slot_arrival, ring) in slot_arrivals.iter_mut().zip(rings.iter_mut()) {
                        *slot_arrival = ring[s];
                    }
                    self.step_slot(&mut slot_arrivals);
                }
            }
            done += len as u64;
        }
        let active_matches = self.matches;
        self.drain();
        self.build_report(active_slots, active_matches)
    }

    /// Runs the fabric slot by slot with no batching and no fast-forward:
    /// the reference the chunked path is differentially tested against.
    ///
    /// # Panics
    ///
    /// Panics when the generator count or any generator's queue count does
    /// not match the port count.
    pub fn run_reference<A: ArrivalGenerator>(
        &mut self,
        arrivals: &mut [A],
        active_slots: u64,
    ) -> FabricRunReport {
        self.check_generators(arrivals);
        #[expect(clippy::disallowed_macros, reason = "once per run, before the loop")]
        let mut slot_arrivals: Vec<Option<Cell>> = vec![None; self.ports];
        for _ in 0..active_slots {
            let t = self.clock;
            for (slot_arrival, generator) in slot_arrivals.iter_mut().zip(arrivals.iter_mut()) {
                *slot_arrival = generator.next(t);
            }
            self.step_slot(&mut slot_arrivals);
        }
        let active_matches = self.matches;
        self.drain();
        self.build_report(active_slots, active_matches)
    }

    fn check_generators<A: ArrivalGenerator>(&self, arrivals: &[A]) {
        assert_eq!(arrivals.len(), self.ports, "one arrival generator per port");
        for (p, generator) in arrivals.iter().enumerate() {
            assert_eq!(
                generator.num_queues(),
                self.ports,
                "generator {p} must target one destination per egress port"
            );
        }
    }

    /// Advances the fabric by one slot; `arrivals[p]` is port `p`'s line-side
    /// arrival. Returns the number of crossbar matches made.
    fn step_slot(&mut self, arrivals: &mut [Option<Cell>]) -> u64 {
        self.step_coupled(arrivals, &[], &mut NullSink)
    }

    /// Advances the fabric by one slot as a *stage of a larger fabric*:
    /// `arrivals[p]` is port `p`'s line-side arrival, `output_gate` gates
    /// each output line on downstream readiness and `sink` observes every
    /// cell movement (see [`StageSink`]).
    ///
    /// An empty `output_gate` leaves every output ungated (the standalone
    /// behaviour — [`VoqSwitch::run`] uses exactly this path). A gated-out
    /// output `j` neither transmits this slot (its head-of-line cell waits
    /// for downstream credit) nor accepts a crossbar match (matching more
    /// cells into a stalled FIFO would only move the congestion forward:
    /// backpressure instead holds them in the VOQs, where the arbiter can
    /// still match the same input to a different, uncongested output).
    ///
    /// Returns the number of crossbar matches made.
    ///
    /// # Panics
    ///
    /// Panics when `output_gate` is neither empty nor `ports` long.
    pub fn step_coupled<S: StageSink>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        output_gate: &[bool],
        sink: &mut S,
    ) -> u64 {
        assert!(
            output_gate.is_empty() || output_gate.len() == self.ports,
            "output gate must cover every output"
        );
        let clock = self.clock;
        let ports = self.ports;
        let ungated = output_gate.is_empty();
        #[cfg(debug_assertions)]
        self.assert_rows_match_probes();
        let mut ready = 0u64;
        for (j, egress) in self.egress.iter_mut().enumerate() {
            egress.begin_slot(clock);
            ready |= u64::from(egress.ready() && (ungated || output_gate[j])) << j;
        }
        let matched = self.arbiter.schedule_rows(
            clock,
            &self.rows,
            ready,
            &mut self.match_in,
            &mut self.match_out,
        );
        self.matches += matched;
        for (i, arrival_slot) in arrivals.iter_mut().enumerate() {
            let request = self.match_in[i].map(LogicalQueueId::new);
            if let Some(j) = self.match_in[i] {
                self.egress[j as usize].consume_credit();
            }
            let arrival = arrival_slot.take();
            if let Some(cell) = &arrival {
                self.arrivals_matrix[i * ports + cell.queue().as_usize()] += 1;
                self.arrivals_total += 1;
            }
            let outcome = self.buffers[i].step(arrival, request);
            self.rows[i] = outcome.requestable;
            if let Some(cell) = outcome.granted {
                let dst = cell.queue().as_usize();
                self.departures_matrix[i * ports + dst] += 1;
                self.grants_total += 1;
                sink.granted(i, &cell);
                self.egress[dst].push(cell);
            }
            if let Some(cell) = outcome.dropped_arrival {
                sink.dropped(i, &cell);
            }
        }
        for (j, egress) in self.egress.iter_mut().enumerate() {
            if ungated || output_gate[j] {
                if let Some(cell) = egress.end_slot(clock) {
                    sink.transmitted(j, cell);
                }
            }
        }
        self.clock += 1;
        matched
    }

    /// Whether an idle slot provably changes nothing observable: every
    /// ingress pipeline quiescent with an empty requestable set (so the
    /// eligibility matrix is all-false and frozen) and every egress FIFO
    /// empty.
    pub fn is_idle(&self) -> bool {
        self.egress.iter().all(EgressPort::is_empty)
            && self.rows.iter().all(|&row| row == 0)
            && self.buffers.iter().all(PacketBuffer::is_quiescent)
    }

    /// Panics, naming the row and the slot, when a request word differs from
    /// the one [`probe_row`] builds from its buffer.
    #[cfg(debug_assertions)]
    fn assert_rows_match_probes(&self) {
        for (i, (buffer, &row)) in self.buffers.iter().zip(&self.rows).enumerate() {
            let probed = probe_row(buffer, self.ports);
            debug_assert_eq!(
                row, probed,
                "row {i} left its requestable_cells probe at slot {}",
                self.clock
            );
        }
    }

    /// Total requestable cells over every VOQ of every ingress buffer.
    pub fn requestable_total(&self) -> u64 {
        self.buffers
            .iter()
            .map(PacketBuffer::requestable_total)
            .sum()
    }

    /// Whether every ingress buffer's pipeline is quiescent.
    pub fn buffers_quiescent(&self) -> bool {
        self.buffers.iter().all(PacketBuffer::is_quiescent)
    }

    /// The largest head-pipeline delay of any ingress buffer, in slots.
    pub fn max_pipeline_delay(&self) -> usize {
        self.buffers
            .iter()
            .map(PacketBuffer::pipeline_delay_slots)
            .max()
            .unwrap_or(0)
    }

    /// Current depth of output `output`'s transmit FIFO.
    pub fn egress_depth(&self, output: usize) -> usize {
        self.egress[output].depth()
    }

    /// Total cells waiting in the transmit FIFOs across all outputs.
    pub fn egress_backlog(&self) -> u64 {
        self.egress.iter().map(|e| e.depth() as u64).sum()
    }

    /// Crossbar matches made so far (the composed-fabric layer snapshots
    /// this at the end of the active phase for its utilisation metric).
    pub fn matches_so_far(&self) -> u64 {
        self.matches
    }

    /// Arms the per-output latency histograms (the `obs` latency probe).
    /// Call before the first slot; unarmed switches stay byte-identical to
    /// the uninstrumented path.
    pub fn arm_latency_obs(&mut self) {
        for egress in &mut self.egress {
            egress.arm_latency_hist();
        }
    }

    /// End-to-end latency histogram merged across every output, when the
    /// latency probes are armed.
    pub fn merged_latency_hist(&self) -> Option<obs::Log2Histogram> {
        let mut merged: Option<obs::Log2Histogram> = None;
        for egress in &self.egress {
            let hist = egress.latency_hist()?;
            merged
                .get_or_insert_with(obs::Log2Histogram::new)
                .merge(hist);
        }
        merged
    }

    /// Builds this switch's [`FabricRunReport`] for a run driven externally
    /// through [`VoqSwitch::step_coupled`]: `active_slots` and
    /// `active_matches` carry the composed run's active-phase boundary (see
    /// [`FabricRunReport::crossbar_utilization`]).
    pub fn snapshot_report(&self, active_slots: u64, active_matches: u64) -> FabricRunReport {
        self.build_report(active_slots, active_matches)
    }

    /// Fast-forwards `slots` provably idle slots: O(1) per buffer (their own
    /// quiescent fast-forward) plus an arithmetic egress-credit update.
    ///
    /// The caller must have checked [`VoqSwitch::is_idle`]; the composed
    /// (Clos) engine additionally checks that no cell is in flight on any
    /// inter-stage link before skipping a chunk.
    pub fn advance_idle(&mut self, slots: u64) {
        debug_assert!(
            self.rows.iter().all(|&row| row == 0),
            "advance_idle at slot {} with requestable cells",
            self.clock
        );
        for buffer in &mut self.buffers {
            buffer.advance_idle(slots);
        }
        let clock = self.clock;
        for egress in &mut self.egress {
            egress.advance_idle(clock, slots);
        }
        self.clock += slots;
    }

    /// Drains the fabric after the active phase: keeps matching while any
    /// VOQ is requestable (tail-SRAM cells become requestable as their
    /// writebacks land), flushes the head pipelines, and empties the egress
    /// FIFOs at the line-rate cadence.
    ///
    /// Cells that can never become requestable again — a residual partial
    /// tail batch below the writeback threshold — are *residents*, not
    /// losses; the flush horizon (max pipeline delay + 4 requestless slots)
    /// bounds how long the fabric waits for stragglers, exactly like the
    /// single-buffer engine's drain rule.
    fn drain(&mut self) {
        let flush = self
            .buffers
            .iter()
            .map(|b| b.pipeline_delay_slots())
            .max()
            .unwrap_or(0) as u64
            + 4;
        #[expect(clippy::disallowed_macros, reason = "once per drain, before its loop")]
        let mut slot_arrivals: Vec<Option<Cell>> = vec![None; self.ports];
        let mut idle_streak = 0u64;
        loop {
            if self.rows.iter().any(|&row| row != 0) {
                idle_streak = 0;
            } else {
                let quiescent = self.buffers.iter().all(PacketBuffer::is_quiescent);
                if (quiescent || idle_streak > flush)
                    && self.egress.iter().all(EgressPort::is_empty)
                {
                    break;
                }
                idle_streak += 1;
            }
            self.step_slot(&mut slot_arrivals);
        }
    }

    #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
    fn build_report(&self, active_slots: u64, active_matches: u64) -> FabricRunReport {
        let ports = self.ports;
        let per_port: Vec<PortReport> = self
            .buffers
            .iter()
            .enumerate()
            .map(|(i, buffer)| {
                let row = &self.arrivals_matrix[i * ports..(i + 1) * ports];
                let arrivals: u64 = row.iter().sum();
                let grants: u64 = self.departures_matrix[i * ports..(i + 1) * ports]
                    .iter()
                    .sum();
                // The matrix counts *offered* cells; the buffer accepts
                // offered minus tail drops (zero for the worst-case designs).
                debug_assert_eq!(
                    arrivals,
                    buffer.stats().arrivals + buffer.stats().drops,
                    "port {i}: matrix row diverged from the buffer's own count"
                );
                PortReport {
                    design: buffer.design_name(),
                    arrivals,
                    grants,
                    resident_cells: buffer.stats().arrivals - grants,
                    stats: *buffer.stats(),
                }
            })
            .collect();
        let per_output: Vec<EgressReport> = self
            .egress
            .iter()
            .map(|egress| EgressReport {
                transmitted: egress.transmitted(),
                peak_queue_depth: egress.peak_depth() as u64,
                max_latency_slots: egress.max_latency(),
                mean_latency_slots: egress.mean_latency(),
                latency_p50_slots: egress.latency_hist().map(obs::Log2Histogram::p50),
                latency_p95_slots: egress.latency_hist().map(obs::Log2Histogram::p95),
                latency_p99_slots: egress.latency_hist().map(obs::Log2Histogram::p99),
            })
            .collect();
        let transmitted: u64 = per_output.iter().map(|o| o.transmitted).sum();
        let lost_cells: u64 = per_port
            .iter()
            .map(|p| p.stats.drops + p.stats.misses + p.stats.order_violations)
            .sum();
        let resident_cells: u64 = per_port.iter().map(|p| p.resident_cells).sum();
        let weighted_latency: f64 = per_output
            .iter()
            .map(|o| o.mean_latency_slots * o.transmitted as f64)
            .sum();
        let latency_histogram = self
            .merged_latency_hist()
            .as_ref()
            .map(crate::HistogramReport::from_hist);
        FabricRunReport {
            ports,
            arbiter: self.arbiter.kind().label(),
            slots: self.clock,
            active_slots,
            arrivals: self.arrivals_total,
            matches: self.matches,
            grants: self.grants_total,
            transmitted,
            lost_cells,
            resident_cells,
            // Active-phase matches only: counting the drain's matches against
            // an active-slot denominator would collapse the metric to the
            // offered load for any conserving run (a saturated scheduler
            // that delivers everything late would still score high).
            crossbar_utilization: if active_slots == 0 {
                0.0
            } else {
                active_matches as f64 / (ports as u64 * active_slots) as f64
            },
            mean_latency_slots: if transmitted == 0 {
                0.0
            } else {
                weighted_latency / transmitted as f64
            },
            max_latency_slots: per_output
                .iter()
                .map(|o| o.max_latency_slots)
                .max()
                .unwrap_or(0),
            latency_histogram,
            zero_loss: lost_cells == 0 && per_port.iter().all(|p| p.stats.is_loss_free()),
            per_port,
            per_output,
            arrivals_matrix: self.arrivals_matrix.clone(),
            departures_matrix: self.departures_matrix.clone(),
        }
    }
}

/// `buffer`'s request word, probed VOQ by VOQ: bit `j` iff output `j`'s
/// queue has requestable cells. What each row mirrors.
fn probe_row<B: PacketBuffer>(buffer: &B, ports: usize) -> u64 {
    (0..ports).fold(0, |row, j| {
        row | u64::from(buffer.requestable_cells(LogicalQueueId::new(j as u32)) > 0) << j
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf::RadsBuffer;
    use pktbuf_model::RadsConfig;
    use traffic::{stream_seed, BurstyArrivals, UniformArrivals};

    fn rads_ports(ports: usize) -> Vec<RadsBuffer> {
        (0..ports)
            .map(|_| {
                RadsBuffer::new(RadsConfig {
                    num_queues: ports,
                    granularity: 4,
                    lookahead: None,
                })
            })
            .collect()
    }

    fn uniform_generators(ports: usize, load: f64, seed: u64) -> Vec<UniformArrivals> {
        (0..ports)
            .map(|p| UniformArrivals::new(ports, load, stream_seed(seed, p as u64)))
            .collect()
    }

    #[test]
    fn uniform_fabric_delivers_every_cell() {
        let ports = 4;
        let mut switch = VoqSwitch::new(FabricConfig::new(ports), rads_ports(ports));
        let mut arrivals = uniform_generators(ports, 0.7, 11);
        let report = switch.run(&mut arrivals, 3_000);
        assert!(report.zero_loss, "{report:?}");
        assert!(report.arrivals > 1_000);
        assert_eq!(report.grants, report.arrivals - report.resident_cells);
        assert_eq!(report.transmitted, report.grants);
        assert!(report.conservation_holds());
        assert!(report.crossbar_utilization > 0.5);
        assert!(report.mean_latency_slots > 0.0);
    }

    #[test]
    fn chunked_run_matches_the_reference_engine() {
        // Long idle gaps make most chunks pure-idle, exercising the
        // fast-forward against the skip-free reference. The wider crossbars
        // (the shipped 16 ports, a non-power-of-two count and the 64-port
        // word edge: bit 63 and the full input mask) get shorter gaps — 700
        // slots at 3 ports — so that bursts of different inputs overlap
        // there and the arbiter has contention to resolve.
        for arbiter in [ArbiterKind::Islip { iterations: 0 }, ArbiterKind::Maximal] {
            for ports in [3, 13, 16, 64] {
                let config = FabricConfig {
                    ports,
                    egress_period: 2,
                    arbiter,
                };
                let gap = 2_100.0 / ports as f64;
                let generators = |_| -> Vec<BurstyArrivals> {
                    (0..ports)
                        .map(|p| BurstyArrivals::new(ports, 12.0, gap, stream_seed(5, p as u64)))
                        .collect()
                };
                let mut fast = VoqSwitch::new(config, rads_ports(ports));
                let fast_report = fast.run(&mut generators(()), 6_000);
                let mut reference = VoqSwitch::new(config, rads_ports(ports));
                let reference_report = reference.run_reference(&mut generators(()), 6_000);
                assert_eq!(fast_report, reference_report, "{arbiter:?}, {ports} ports");
                assert!(fast_report.zero_loss);
                assert!(fast_report.matches > 0);
            }
        }
    }

    #[test]
    fn egress_rate_throttles_the_crossbar() {
        let ports = 4;
        let config = FabricConfig {
            ports,
            egress_period: 2, // half line rate per output
            arbiter: ArbiterKind::Islip { iterations: 0 },
        };
        let mut switch = VoqSwitch::new(config, rads_ports(ports));
        // Offered load 0.4 per port is admissible at half-rate outputs.
        let mut arrivals = uniform_generators(ports, 0.4, 3);
        let report = switch.run(&mut arrivals, 4_000);
        assert!(report.zero_loss);
        assert!(
            report.crossbar_utilization <= 0.5 + 1e-9,
            "matches cannot outrun the egress line rate: {}",
            report.crossbar_utilization
        );
        assert!(report.conservation_holds());
    }

    #[test]
    #[should_panic(expected = "one VOQ per egress port")]
    fn mismatched_voq_shape_is_rejected() {
        let buffers = rads_ports(4);
        let _ = VoqSwitch::new(FabricConfig::new(3), buffers.into_iter().take(3).collect());
    }
}
