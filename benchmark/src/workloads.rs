//! The five workloads: what is built, what is run, what is checked.
//!
//! Each is sized from an existing `pktbuf-lab bench` design point, so the
//! history in `BENCH_hotpath.json` stays comparable. `--seed` is the only
//! source of randomness: it selects the generators' streams (and, for the
//! transport workload whose sources draw no random numbers, which middle
//! switch dies and which link flaps). The program receives constructed
//! generators, buffers and fabrics only.

use crate::instrument::Instrument;
use crate::spans::Recorder;
use fabric::{
    ClosFabric, ClosRunReport, FabricRunReport, FaultEvent, FaultKind, FaultPlan, LinkBoundary,
    VoqSwitch,
};
use pktbuf::{BufferStats, CfdsBuffer, PacketBuffer, RadsBuffer};
use sim::clos::{ClosScenario, TransportScenario};
use sim::fabric::{FabricDesign, FabricScenario};
use sim::scenario::{DesignKind, Scenario};
use sim::{SimulationEngine, SimulationReport};
use traffic::{
    plane_seed, stream_seed, AdversarialRoundRobin, ArrivalGenerator, BurstyArrivals,
    ClosedLoopSource, UniformArrivals,
};

/// Spreads `--seed` values far apart before per-port streams are derived:
/// `stream_seed(base, k)` is `base + k`, so adjacent bases would hand seed 2
/// the very streams seed 1 uses one port over (see `traffic::stream_seed`).
pub fn seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Exact, seed-deterministic counts a repetition's reports carry: the
/// simulated side of the per-layer metrics. A simulator-only change must not
/// move any of them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Cells offered to the system (`traffic.cells_offered`).
    pub cells_offered: u64,
    /// DRAM reads + writes over every buffer.
    pub dram_accesses: u64,
    /// Cells the buffers accepted (the denominator of accesses per cell).
    pub buffer_arrivals: u64,
    /// Highest head-SRAM occupancy of any buffer, cells.
    pub peak_head_sram_cells: u64,
    /// Highest tail-SRAM occupancy of any buffer, cells.
    pub peak_tail_sram_cells: u64,
    /// Drops + misses + order violations over every buffer.
    pub failed_cells: u64,
    /// Bank conflicts over every buffer (must stay 0).
    pub bank_conflicts: u64,
    /// Largest DSS queueing delay of any buffer, slots.
    pub max_dss_delay_slots: u64,
    /// Highest requests-register occupancy of any buffer.
    pub peak_rr_entries: u64,
    /// Matches per port-slot of the active phase (mean over stages).
    pub crossbar_utilization: f64,
    /// Output-slots spent gated on a credit (Clos).
    pub credit_stall_slots: u64,
    /// Deepest inter-stage link FIFO (Clos).
    pub peak_link_depth: u64,
    /// Cells the reliable sources sent again.
    pub retransmitted_cells: u64,
    /// Retransmission timers that fired.
    pub timeouts_fired: u64,
    /// Duplicate copies the sink filtered.
    pub duplicates_filtered: u64,
    /// Cells abandoned after the retry budget.
    pub gave_up_cells: u64,
    /// Cells the fault ledger lists as refused, dropped or stranded.
    pub fault_lost_cells: u64,
}

impl SimCounts {
    fn add_buffer(&mut self, stats: &BufferStats) {
        self.dram_accesses += stats.dram_reads + stats.dram_writes;
        self.buffer_arrivals += stats.arrivals;
        self.peak_head_sram_cells = self.peak_head_sram_cells.max(stats.peak_head_sram_cells);
        self.peak_tail_sram_cells = self.peak_tail_sram_cells.max(stats.peak_tail_sram_cells);
        self.failed_cells += stats.drops + stats.misses + stats.order_violations;
        self.bank_conflicts += stats.bank_conflicts;
        self.max_dss_delay_slots = self.max_dss_delay_slots.max(stats.max_dss_delay_slots);
        self.peak_rr_entries = self.peak_rr_entries.max(stats.peak_rr_entries);
    }

    fn add_switch(&mut self, report: &FabricRunReport) {
        for port in &report.per_port {
            self.add_buffer(&port.stats);
        }
    }

    fn add_clos(&mut self, report: &ClosRunReport) {
        for switch in report.stages.iter().flat_map(|s| s.switches.iter()) {
            self.add_switch(switch);
        }
        self.cells_offered = report.arrivals;
        self.crossbar_utilization = report
            .stages
            .iter()
            .map(|s| s.crossbar_utilization)
            .sum::<f64>()
            / report.stages.len().max(1) as f64;
        self.credit_stall_slots = report.credit_stall_slots;
        self.peak_link_depth = report.peak_link_depth;
        if let Some(t) = &report.transport {
            self.retransmitted_cells = t.retransmitted_cells;
            self.timeouts_fired = t.timeouts_fired;
            self.duplicates_filtered = t.duplicates_filtered;
            self.gave_up_cells = t.gave_up_cells;
        }
        if let Some(ledger) = &report.faults {
            self.fault_lost_cells =
                ledger.refused_cells + ledger.dropped_cells + ledger.stranded_cells;
        }
    }
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Host ns inside the program's run calls (construction excluded).
    pub run_ns: u64,
    /// Simulated slots including the drain, summed over the run calls.
    pub slots: u64,
    /// `slots` × packet buffers stepped per slot: the denominator of
    /// `ns_per_buffer_step`.
    pub buffer_steps: u64,
    /// The reports' `serde_json` text, one per line: what `sim_fingerprint`
    /// hashes and the transparency tests compare byte for byte.
    pub report_json: String,
    /// Cells delivered (grants / transmitted / delivered / unique acked).
    pub delivered_cells: u64,
    /// External ports × simulated slots.
    pub port_slots: u64,
    /// Worst simulated latency, slots.
    pub latency_max_slots: u64,
    /// Operations the simulated system was asked to perform.
    pub ops_attempted: u64,
    /// Operations it failed.
    pub ops_failed: u64,
    /// Output checks that did not hold (empty on a correct run).
    pub failed_checks: Vec<&'static str>,
    /// The exact per-layer counts.
    pub sim: SimCounts,
}

impl Outcome {
    fn check(&mut self, holds: bool, what: &'static str) {
        if !holds {
            self.failed_checks.push(what);
        }
    }

    fn push_report<T: serde::Serialize>(&mut self, report: &T) {
        let text = serde_json::to_string(report).expect("reports encode");
        self.report_json.push_str(&text);
        self.report_json.push('\n');
    }
}

/// One workload: a fixed design point, built from a seed and run to a
/// report.
pub trait Workload {
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Packet buffers stepped per simulated slot.
    const BUFFERS_PER_SLOT: u64;
    /// Active (arrival) slots per run call. A repetition is short (0.1–0.2 s
    /// on the reference box; `buf_bursty_idle`, whose statistics need the
    /// slots, 0.6 s): what steadies a run is how many samples it holds of
    /// each piece of the work, and a run's wall time is fixed.
    const ACTIVE_SLOTS: u64;
    /// Slots a lead buffer advances between two clock marks, sized so a
    /// segment is 60–90 µs of host time on the reference box.
    const MARK_EVERY: u64;
    /// Timed repetitions per end-to-end child, sized so a child lasts about
    /// a second: a run still gets through a dozen or more fresh processes.
    const REPS_PER_CHILD: u32;
    /// Constructions per set-up batch, sized so the batch takes about
    /// 60 ms: one construction takes 27 µs to 0.4 ms, a single timing of
    /// that swings by 30 %, and a child reports a quartile of the batch.
    const SETUP_BATCH: u32;
    /// The constructed object graph.
    type Graph<I: Instrument>;
    /// Constructs everything a repetition needs: buffers, switch or fabric,
    /// fault plan, transport, generators.
    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I>;
    /// Runs the graph to its report and checks the outputs.
    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome;
}

/// Q = 64, b = 4, B = 16, M = 64 at OC-3072: the §7 validation design point
/// of the `pktbuf-lab bench` suite.
fn buffer_scenario() -> Scenario {
    Scenario {
        num_queues: 64,
        granularity: 4,
        rads_granularity: 16,
        num_banks: 64,
        preload_cells_per_queue: 0,
        ..Scenario::small_cfds()
    }
}

/// A standalone RADS and a standalone CFDS buffer with their generators.
pub struct BufferGraph<I: Instrument, A: ArrivalGenerator + Send> {
    rads: I::Buf<RadsBuffer>,
    cfds: I::Buf<CfdsBuffer>,
    arrivals: [I::Arr<A>; 2],
    requests: [AdversarialRoundRobin; 2],
    active_slots: u64,
}

fn build_buffers<I: Instrument, A: ArrivalGenerator + Send>(
    active_slots: u64,
    inst: &I,
    arrivals: impl Fn() -> A,
) -> BufferGraph<I, A> {
    let scenario = buffer_scenario();
    let q = scenario.num_queues;
    BufferGraph {
        rads: inst.lead_buffer(scenario.build_rads()),
        cfds: inst.lead_buffer(scenario.build_cfds()),
        // Both designs see the same arrival stream, as in `Scenario::run`.
        arrivals: [inst.arrivals(arrivals()), inst.arrivals(arrivals())],
        requests: [AdversarialRoundRobin::new(q), AdversarialRoundRobin::new(q)],
        active_slots,
    }
}

/// Which single-buffer engine loop drives a buffer workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SimulationEngine::run_chunked`: the production path the workloads
    /// measure.
    Chunked,
    /// `SimulationEngine::run`: the per-slot reference, measured only by the
    /// `sim.per_slot_engine_ratio` probe.
    PerSlot,
}

/// Runs both buffers of `graph` through `engine`.
pub fn run_buffers<I: Instrument, A: ArrivalGenerator + Send>(
    graph: BufferGraph<I, A>,
    rec: &mut Recorder,
    engine: Engine,
) -> Outcome {
    let BufferGraph {
        mut rads,
        mut cfds,
        arrivals: [mut rads_arrivals, mut cfds_arrivals],
        requests: [mut rads_requests, mut cfds_requests],
        active_slots,
    } = graph;
    let mut out = Outcome::default();
    let account = |out: &mut Outcome, report: &SimulationReport, pipeline_delay: usize| {
        let stats = &report.stats;
        out.slots += report.slots;
        out.delivered_cells += stats.grants;
        out.latency_max_slots = out
            .latency_max_slots
            .max(pipeline_delay as u64 + stats.max_dss_delay_slots);
        out.ops_attempted += stats.arrivals + stats.drops + stats.requests;
        out.ops_failed += stats.drops + stats.misses + stats.order_violations;
        out.sim.cells_offered += stats.arrivals + stats.drops;
        out.sim.add_buffer(stats);
        out.check(stats.is_loss_free(), "buffer run is loss-free");
        out.check(
            stats.arrivals >= stats.grants && stats.grants > 0,
            "grants are positive and never exceed arrivals",
        );
        out.push_report(report);
    };

    macro_rules! drive {
        ($buffer:ident, $arrivals:ident, $requests:ident) => {{
            let sim = SimulationEngine::new_mono(&mut $buffer);
            let span = rec.enter(match engine {
                Engine::Chunked => "sim.engine.run_chunked",
                Engine::PerSlot => "sim.engine.run",
            });
            let report = match engine {
                Engine::Chunked => sim.run_chunked(&mut $arrivals, &mut $requests, active_slots),
                Engine::PerSlot => sim.run(&mut $arrivals, &mut $requests, active_slots),
            };
            out.run_ns += rec.exit(span);
            account(&mut out, &report, $buffer.pipeline_delay_slots());
        }};
    }
    drive!(rads, rads_arrivals, rads_requests);
    drive!(cfds, cfds_arrivals, cfds_requests);

    out.buffer_steps = out.slots;
    out.port_slots = out.slots;
    out
}

/// The paper's ECQF worst case: writes and reads every slot.
#[derive(Debug, Clone, Copy)]
pub struct BufWorstcase;

impl Workload for BufWorstcase {
    const NAME: &'static str = "buf_worstcase";
    const BUFFERS_PER_SLOT: u64 = 1;
    const ACTIVE_SLOTS: u64 = 500_000;
    const MARK_EVERY: u64 = 512;
    const REPS_PER_CHILD: u32 = 8;
    const SETUP_BATCH: u32 = 2_000;
    type Graph<I: Instrument> = BufferGraph<I, UniformArrivals>;

    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I> {
        let stream = stream_seed(seed_base(seed), 0);
        build_buffers(active_slots, inst, || UniformArrivals::new(64, 0.9, stream))
    }

    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome {
        run_buffers(graph, rec, Engine::Chunked)
    }
}

/// The same buffers and engine used the other way: almost every slot is
/// fast-forwarded.
#[derive(Debug, Clone, Copy)]
pub struct BufBurstyIdle;

impl Workload for BufBurstyIdle {
    const NAME: &'static str = "buf_bursty_idle";
    const BUFFERS_PER_SLOT: u64 = 1;
    const ACTIVE_SLOTS: u64 = 20_000_000;
    const MARK_EVERY: u64 = 8_192;
    const REPS_PER_CHILD: u32 = 1;
    const SETUP_BATCH: u32 = 2_000;
    type Graph<I: Instrument> = BufferGraph<I, BurstyArrivals>;

    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I> {
        let stream = stream_seed(seed_base(seed), 0);
        // Mean burst 32 cells, mean gap 2 048 slots: the bench suite's
        // bursty-idle showcase point.
        build_buffers(active_slots, inst, || {
            BurstyArrivals::new(64, 32.0, 2048.0, stream)
        })
    }

    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome {
        run_buffers(graph, rec, Engine::Chunked)
    }
}

/// The 16-port CFDS switch of the bench suite's fabric points, at 90 % load.
pub fn switch_scenario() -> FabricScenario {
    FabricScenario {
        ports: 16,
        design: FabricDesign::Fixed(DesignKind::Cfds),
        granularity: 4,
        rads_granularity: 16,
        num_banks: 64,
        load_percent: 90,
        ..FabricScenario::small()
    }
}

/// A switch and its per-port generators.
pub struct SwitchGraph<I: Instrument> {
    switch: VoqSwitch<I::Buf<CfdsBuffer>>,
    arrivals: Vec<I::Arr<UniformArrivals>>,
    active_slots: u64,
}

/// 16×16 `VoqSwitch<CfdsBuffer>`, uniform 90 %, iSLIP: where the N²
/// eligibility refill and the arbiter iterations are largest.
#[derive(Debug, Clone, Copy)]
pub struct SwitchIslip;

impl Workload for SwitchIslip {
    const NAME: &'static str = "switch_islip";
    const BUFFERS_PER_SLOT: u64 = 16;
    const ACTIVE_SLOTS: u64 = 25_000;
    const MARK_EVERY: u64 = 16;
    const REPS_PER_CHILD: u32 = 8;
    const SETUP_BATCH: u32 = 800;
    type Graph<I: Instrument> = SwitchGraph<I>;

    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I> {
        let scenario = switch_scenario();
        let ports = scenario.ports;
        let config = scenario
            .try_cfds_config()
            .expect("the switch design point is a valid CFDS configuration");
        let buffers = (0..ports)
            .map(|port| {
                let buffer = CfdsBuffer::new(config);
                if port == 0 {
                    inst.lead_buffer(buffer)
                } else {
                    inst.buffer(buffer)
                }
            })
            .collect();
        let base = seed_base(seed);
        SwitchGraph {
            switch: VoqSwitch::new(scenario.fabric_config(), buffers),
            arrivals: (0..ports)
                .map(|p| {
                    inst.arrivals(UniformArrivals::new(
                        ports,
                        scenario.load(),
                        stream_seed(base, p as u64),
                    ))
                })
                .collect(),
            active_slots,
        }
    }

    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome {
        let SwitchGraph {
            mut switch,
            mut arrivals,
            active_slots,
        } = graph;
        let mut out = Outcome::default();
        let span = rec.enter("fabric.switch.run");
        let report = switch.run(&mut arrivals, active_slots);
        out.run_ns = rec.exit(span);
        out.slots = report.slots;
        out.buffer_steps = report.slots * Self::BUFFERS_PER_SLOT;
        out.port_slots = report.slots * report.ports as u64;
        out.delivered_cells = report.transmitted;
        out.latency_max_slots = report.max_latency_slots;
        out.ops_attempted = report.arrivals;
        out.ops_failed = report.lost_cells;
        out.sim.add_switch(&report);
        out.sim.cells_offered = report.arrivals;
        out.sim.crossbar_utilization = report.crossbar_utilization;
        out.check(report.zero_loss, "switch run is zero-loss");
        out.check(report.conservation_holds(), "switch conserves cells");
        out.check(report.transmitted > 0, "switch transmitted cells");
        out.push_report(&report);
        out
    }
}

/// The repo's headline Clos geometry: r = m = N = 8, 64 external ports, 192
/// RADS buffers, link capacity 8, latency 1, spray, iSLIP.
pub fn clos_scenario() -> ClosScenario {
    ClosScenario {
        radix: 8,
        ingress_switches: 8,
        middle_switches: 8,
        load_percent: 85,
        ..ClosScenario::small()
    }
}

/// The cut-through (B = 1) twin of [`clos_scenario`]: reliable senders need
/// it, because batched writeback parks sub-batch tails as permanent
/// residents that a sender would retransmit forever.
pub fn cut_through_clos_scenario() -> ClosScenario {
    ClosScenario {
        rads_granularity: 1,
        ..clos_scenario()
    }
}

fn build_clos<I: Instrument>(scenario: &ClosScenario, inst: &I) -> ClosFabric<I::Buf<RadsBuffer>> {
    let mut first = true;
    ClosFabric::new(scenario.clos_config(), |stage| {
        let buffer = RadsBuffer::new(scenario.rads_config(scenario.stage_queue_count(stage)));
        if std::mem::take(&mut first) {
            inst.lead_buffer(buffer)
        } else {
            inst.buffer(buffer)
        }
    })
}

fn clos_outcome(report: &ClosRunReport, buffers_per_slot: u64) -> Outcome {
    let mut out = Outcome {
        slots: report.slots,
        buffer_steps: report.slots * buffers_per_slot,
        port_slots: report.slots * report.external_ports as u64,
        latency_max_slots: report.max_latency_slots,
        ..Outcome::default()
    };
    out.sim.add_clos(report);
    out.check(report.conservation_holds(), "Clos conserves cells");
    out.check(report.delivered > 0, "Clos delivered cells");
    out.push_report(report);
    out
}

/// A Clos and its per-external-port generators.
pub struct ClosGraph<I: Instrument> {
    /// The fabric (public so a probe can arm `obs` before the run).
    pub fabric: ClosFabric<I::Buf<RadsBuffer>>,
    arrivals: Vec<I::Arr<UniformArrivals>>,
    active_slots: u64,
}

/// Builds an open-loop uniform Clos run of `scenario`'s geometry and load.
pub fn build_open_clos<I: Instrument>(
    scenario: &ClosScenario,
    seed: u64,
    active_slots: u64,
    inst: &I,
) -> ClosGraph<I> {
    let ext = scenario.external_ports();
    let n = scenario.radix as u64;
    let base = seed_base(seed);
    ClosGraph {
        fabric: build_clos(scenario, inst),
        arrivals: (0..ext as u64)
            .map(|g| {
                inst.arrivals(UniformArrivals::new(
                    ext,
                    scenario.load(),
                    plane_seed(base, g / n, g % n),
                ))
            })
            .collect(),
        active_slots,
    }
}

/// Runs an open-loop Clos graph on `workers` threads (the workloads use 1).
pub fn run_open_clos<I: Instrument>(
    graph: ClosGraph<I>,
    rec: &mut Recorder,
    workers: usize,
) -> Outcome {
    let ClosGraph {
        mut fabric,
        mut arrivals,
        active_slots,
    } = graph;
    let span = rec.enter("fabric.clos.run");
    let report = fabric.run(&mut arrivals, active_slots, workers);
    let run_ns = rec.exit(span);
    let mut out = clos_outcome(&report, ClosUniform::BUFFERS_PER_SLOT);
    out.run_ns = run_ns;
    out.delivered_cells = report.delivered;
    out.ops_attempted = report.arrivals;
    out.ops_failed = report.lost_cells;
    out.check(report.zero_loss, "Clos run is zero-loss");
    out
}

/// Open-loop uniform 85 % through the headline Clos on one worker.
#[derive(Debug, Clone, Copy)]
pub struct ClosUniform;

impl Workload for ClosUniform {
    const NAME: &'static str = "clos_uniform";
    const BUFFERS_PER_SLOT: u64 = 192;
    const ACTIVE_SLOTS: u64 = 2_000;
    const MARK_EVERY: u64 = 1;
    const REPS_PER_CHILD: u32 = 8;
    const SETUP_BATCH: u32 = 150;
    type Graph<I: Instrument> = ClosGraph<I>;

    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I> {
        build_open_clos(&clos_scenario(), seed, active_slots, inst)
    }

    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome {
        run_open_clos(graph, rec, 1)
    }
}

/// The transport workload's fault plan: the CI recovery leg's shape with
/// shorter windows — a middle switch dead over slots [1 000, 1 600), then an
/// ingress→middle link flapping over [1 800, 1 920) — with the victims
/// chosen by the seed. Seed 1 gives the CI leg's victims (middle 1, link
/// 2→1). The death starts where the CI leg's does, after the sources'
/// windows have left their lock-step start: struck at slot 400 the same
/// death leaves the fabric at 0.60 cells per port-slot for one victim and
/// 0.76 for the others, struck at 1 000 at 0.746–0.776 for all 64 victim
/// pairs. It still outlasts four back-offs of the 32-slot initial timeout.
pub fn transport_fault_plan(seed: u64) -> FaultPlan {
    let m = clos_scenario().middle_switches as u64;
    let r = clos_scenario().ingress_switches as u64;
    let dead = (seed % m) as usize;
    FaultPlan::new([
        FaultEvent::windowed(FaultKind::MiddleDeath { switch: dead }, 1_000, 600),
        FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::IngressMiddle,
                switch: ((seed / m + 2) % r) as usize,
                output: dead,
            },
            1_800,
            120,
        ),
    ])
}

/// A transport-enabled, fault-armed Clos and its closed-loop sources.
pub struct TransportGraph<I: Instrument> {
    fabric: ClosFabric<I::Buf<RadsBuffer>>,
    sources: Vec<ClosedLoopSource>,
    active_slots: u64,
}

/// The second Clos driver: reliable sources, ack relay, dedup and two fault
/// windows, over cut-through buffers.
#[derive(Debug, Clone, Copy)]
pub struct ClosTransportFaults;

impl Workload for ClosTransportFaults {
    const NAME: &'static str = "clos_transport_faults";
    const BUFFERS_PER_SLOT: u64 = 192;
    const ACTIVE_SLOTS: u64 = 2_600;
    const MARK_EVERY: u64 = 1;
    const REPS_PER_CHILD: u32 = 6;
    const SETUP_BATCH: u32 = 250;
    type Graph<I: Instrument> = TransportGraph<I>;

    fn build<I: Instrument>(seed: u64, active_slots: u64, inst: &I) -> Self::Graph<I> {
        let scenario = cut_through_clos_scenario();
        let transport = TransportScenario::default();
        let mut fabric = build_clos(&scenario, inst);
        fabric.arm_faults(&transport_fault_plan(seed));
        fabric.enable_transport(transport.to_config());
        TransportGraph {
            fabric,
            sources: transport.sources(scenario.external_ports()),
            active_slots,
        }
    }

    fn run<I: Instrument>(graph: Self::Graph<I>, rec: &mut Recorder) -> Outcome {
        let TransportGraph {
            mut fabric,
            mut sources,
            active_slots,
        } = graph;
        let span = rec.enter("fabric.clos.run_transport");
        let report = fabric.run_transport(&mut sources, active_slots, 1);
        let run_ns = rec.exit(span);
        let mut out = clos_outcome(&report, Self::BUFFERS_PER_SLOT);
        out.run_ns = run_ns;
        match &report.transport {
            Some(t) => {
                out.delivered_cells = t.delivered_unique;
                out.ops_attempted = t.injected_cells;
                out.ops_failed = t.gave_up_cells + t.duplicate_deliveries;
                out.sim.cells_offered = t.injected_cells;
                out.check(t.duplicate_deliveries == 0, "delivery is exactly-once");
                out.check(
                    t.retransmitted_cells > 0,
                    "the faults forced retransmissions",
                );
            }
            None => out.check(false, "transport report present"),
        }
        out.check(
            report.transport_conservation_holds(),
            "transport conserves cells end to end",
        );
        out
    }
}

/// The workloads' names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    BufWorstcase::NAME,
    BufBurstyIdle::NAME,
    SwitchIslip::NAME,
    ClosUniform::NAME,
    ClosTransportFaults::NAME,
];

/// Runs `$body` with `$W` bound to the workload type named `$name`, or
/// evaluates to `None` for an unknown name.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {{
        use $crate::workloads::{
            BufBurstyIdle, BufWorstcase, ClosTransportFaults, ClosUniform, SwitchIslip, Workload,
        };
        match $name {
            n if n == BufWorstcase::NAME => {
                type $W = BufWorstcase;
                Some($body)
            }
            n if n == BufBurstyIdle::NAME => {
                type $W = BufBurstyIdle;
                Some($body)
            }
            n if n == SwitchIslip::NAME => {
                type $W = SwitchIslip;
                Some($body)
            }
            n if n == ClosUniform::NAME => {
                type $W = ClosUniform;
                Some($body)
            }
            n if n == ClosTransportFaults::NAME => {
                type $W = ClosTransportFaults;
                Some($body)
            }
            _ => None,
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{Bare, Timed, Tracing};
    use crate::stats::fnv1a;

    /// Builds and runs one repetition at a test-sized slot count.
    fn rep<W: Workload, I: Instrument>(seed: u64, slots: u64, inst: &I) -> Outcome {
        let mut rec = Recorder::default();
        W::run(W::build(seed, slots, inst), &mut rec)
    }

    fn assert_correct(out: &Outcome) {
        assert!(out.failed_checks.is_empty(), "{:?}", out.failed_checks);
        assert_eq!(out.ops_failed, 0);
        assert!(out.ops_attempted > 0 && out.buffer_steps > 0 && out.run_ns > 0);
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_differs_and_stays_correct() {
        fn check<W: Workload>(slots: u64) {
            let a = rep::<W, _>(1, slots, &Bare);
            let b = rep::<W, _>(1, slots, &Bare);
            let c = rep::<W, _>(2, slots, &Bare);
            assert_eq!(
                fnv1a(a.report_json.as_bytes()),
                fnv1a(b.report_json.as_bytes()),
                "{}: seed 1 twice",
                W::NAME
            );
            assert_ne!(a.report_json, c.report_json, "{}: seed 2 differs", W::NAME);
            for out in [&a, &b, &c] {
                assert_correct(out);
            }
        }
        check::<BufWorstcase>(20_000);
        check::<BufBurstyIdle>(400_000);
        check::<SwitchIslip>(3_000);
        check::<ClosUniform>(1_000);
        // Long enough to contain both fault windows.
        check::<ClosTransportFaults>(2_200);
    }

    #[test]
    fn wrappers_are_behaviour_transparent() {
        fn check<W: Workload>(slots: u64) {
            let bare = rep::<W, _>(1, slots, &Bare);
            let tracing = Tracing::new(0.0);
            let traced = rep::<W, _>(1, slots, &tracing);
            assert_eq!(bare.report_json, traced.report_json, "{}", W::NAME);
            assert_correct(&traced);
            let timed = rep::<W, _>(1, slots, &Timed::new(slots / 16));
            assert_eq!(bare.report_json, timed.report_json, "{}", W::NAME);
        }
        check::<BufWorstcase>(2_000);
        check::<ClosUniform>(2_000);
        check::<SwitchIslip>(2_000);
    }

    #[test]
    fn wrapper_slot_counts_match_the_reports() {
        fn check<W: Workload>(slots: u64) {
            let tracing = Tracing::new(0.0);
            let out = rep::<W, _>(1, slots, &tracing);
            let collected = tracing.take();
            let totals = collected.all_buffers();
            assert_eq!(
                totals.step.calls + totals.batch_slots + totals.idle_slots,
                out.slots * W::BUFFERS_PER_SLOT,
                "{}: step + batch slots + idle slots == report.slots × buffers",
                W::NAME
            );
            assert_eq!(out.buffer_steps, out.slots * W::BUFFERS_PER_SLOT);
        }
        check::<BufWorstcase>(5_000);
        check::<BufBurstyIdle>(200_000);
        check::<SwitchIslip>(2_000);
        check::<ClosUniform>(1_000);
        check::<ClosTransportFaults>(1_500);
    }

    #[test]
    fn the_slot_clock_stamps_every_mark_of_every_run_call() {
        fn check<W: Workload>(slots: u64, run_calls: u64) {
            let timed = Timed::new(slots / 16);
            let out = rep::<W, _>(1, slots, &timed);
            let stamps = timed.take();
            // One lead buffer per run call, a stamp at every 16th of the
            // arrival slots and on through the drain.
            let marks = stamps.len() as u64;
            assert!(
                (16 * run_calls..=out.slots / (slots / 16)).contains(&marks),
                "{}: {marks} stamps, {} slots over {run_calls} run calls",
                W::NAME,
                out.slots
            );
            assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
            // Deterministic: a second repetition crosses the same marks.
            rep::<W, _>(1, slots, &timed);
            assert_eq!(timed.take().len(), stamps.len());
        }
        check::<BufWorstcase>(4_000, 2);
        check::<SwitchIslip>(1_600, 1);
        check::<ClosUniform>(800, 1);
        check::<ClosTransportFaults>(1_600, 1);
    }

    #[test]
    fn buffers_per_slot_match_the_constructed_geometry() {
        assert_eq!(BufWorstcase::BUFFERS_PER_SLOT, 1);
        assert_eq!(BufBurstyIdle::BUFFERS_PER_SLOT, 1);
        assert_eq!(
            SwitchIslip::BUFFERS_PER_SLOT,
            switch_scenario().ports as u64
        );
        let c = clos_scenario();
        let clos_buffers =
            2 * c.ingress_switches * c.radix + c.middle_switches * c.ingress_switches;
        assert_eq!(ClosUniform::BUFFERS_PER_SLOT, clos_buffers as u64);
        assert_eq!(ClosTransportFaults::BUFFERS_PER_SLOT, clos_buffers as u64);
        // The wrappers agree: one wrapper is built per buffer.
        let tracing = Tracing::new(0.0);
        drop(ClosUniform::build(1, 10, &tracing));
        assert_eq!(tracing.take().buffers.len(), 1, "one design: RADS");
    }

    #[test]
    fn seed_one_has_the_ci_recovery_victims() {
        let plan = transport_fault_plan(1);
        let expected = FaultPlan::new([
            FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 1_000, 600),
            FaultEvent::windowed(
                FaultKind::LinkFlap {
                    boundary: LinkBoundary::IngressMiddle,
                    switch: 2,
                    output: 1,
                },
                1_800,
                120,
            ),
        ]);
        assert_eq!(plan, expected);
        let c = clos_scenario();
        for seed in 0..40 {
            transport_fault_plan(seed)
                .validate(c.radix, c.ingress_switches, c.middle_switches)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn with_workload_dispatches_every_name() {
        for name in NAMES {
            assert_eq!(with_workload!(name, W => W::NAME), Some(name));
        }
        assert_eq!(with_workload!("nope", W => W::NAME), None);
    }
}
