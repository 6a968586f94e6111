//! Declarative fabric experiments: whole-router scenarios, sweepable specs
//! and the lab integration.
//!
//! This module is the fabric-level mirror of [`crate::scenario`] /
//! [`crate::spec`]: a [`FabricScenario`] fully describes one `N×N`
//! VOQ-switch run (a `fabric::VoqSwitch`) — port count, per-port buffer
//! design (mixed allowed), traffic pattern, arbiter, egress line rate — and
//! a [`FabricSpec`] sweeps those axes into a cartesian product that
//! [`LabRunner::run`](crate::lab::LabRunner::run) executes deterministically
//! across worker threads — the switch layer of the shared stack in
//! [`crate::experiment`].
//!
//! The four fabric workloads:
//!
//! * [`FabricWorkload::Uniform`] — every ingress port offers Bernoulli
//!   traffic spread uniformly over the outputs; admissible up to load 1.
//! * [`FabricWorkload::Hotspot`] — a fraction of every port's traffic
//!   converges on a few hot outputs (inadmissible at high load: backlog
//!   grows, the fabric must stay loss-free anyway).
//! * [`FabricWorkload::Incast`] — sustained many-to-one pressure on one
//!   output, auto-scaled to the admissibility edge
//!   ([`traffic::IncastArrivals::admissible_fraction`]).
//! * [`FabricWorkload::Bursty`] — per-port on/off trains with independent
//!   per-port phases (each port seeds its own generator), mean burst
//!   32 cells, gap length derived from the offered load.
//!
//! # The zero-loss envelope
//!
//! The worst-case designs (RADS, CFDS, mixed) lose no cell on any workload
//! above at up to 95% of the line rate per port, which is what the
//! `pktbuf-lab fabric --smoke` gate checks on 16 ports. Small fabrics hold
//! too: `--ports 2,4 --designs cfds,mixed --workloads bursty,hotspot,incast
//! --arbiters all --load 85,95,100 --seeds 1,2,3,4 --slots 100000` gives 288
//! runs and 0 lost cells.
//!
//! At exactly 100% stochastic load the fabric is critically loaded (no
//! arbiter sustains unit throughput on a random matrix), so the backlog
//! grows with the run: in that sweep the worst 4-port bursty mean latency
//! rises from 373 slots at 85% load to 2 114 at 100%, with no cell lost.
//! Use a deterministic matrix or back off the load.

use crate::experiment::{Axis, Experiment};
use crate::lab::{LabReport, RunRecord};
use crate::ports::{BuildPorts, DriveArrivals, Provisioning, Traffic};
use crate::scenario::{normalize_name, serde_via_string, DesignKind, ParseNameError};
use crate::spec::Sweep;
pub use ::fabric::FabricRunReport;
use ::fabric::{ArbiterKind, FabricConfig, VoqSwitch, MAX_CROSSBAR_PORTS};
use pktbuf::PacketBuffer;
use pktbuf_model::{CfdsConfig, ConfigError, ConfigOverrides};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;
use traffic::ArrivalGenerator;

/// Which traffic matrix a fabric scenario applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricWorkload {
    /// Uniform Bernoulli arrivals over all outputs.
    Uniform,
    /// A few hot outputs absorb most of every port's traffic.
    Hotspot,
    /// Many-to-one convergence on one output at the admissibility edge.
    Incast,
    /// On/off trains with independent per-port phase.
    Bursty,
}

impl FabricWorkload {
    /// All fabric workloads.
    pub fn all() -> [FabricWorkload; 4] {
        [
            FabricWorkload::Uniform,
            FabricWorkload::Hotspot,
            FabricWorkload::Incast,
            FabricWorkload::Bursty,
        ]
    }

    /// Kebab-case canonical name.
    pub fn label(self) -> &'static str {
        match self {
            FabricWorkload::Uniform => "uniform",
            FabricWorkload::Hotspot => "hotspot",
            FabricWorkload::Incast => "incast",
            FabricWorkload::Bursty => "bursty",
        }
    }
}

impl fmt::Display for FabricWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for FabricWorkload {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize_name(s).as_str() {
            "uniform" => Ok(FabricWorkload::Uniform),
            "hotspot" => Ok(FabricWorkload::Hotspot),
            "incast" => Ok(FabricWorkload::Incast),
            "bursty" => Ok(FabricWorkload::Bursty),
            _ => Err(ParseNameError::new(
                "fabric workload",
                s,
                "uniform, hotspot, incast, bursty",
            )),
        }
    }
}

/// How a fabric's ingress buffers are designed, port by port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricDesign {
    /// Every port runs the same design.
    Fixed(DesignKind),
    /// Ports alternate CFDS and RADS (port `i` runs CFDS when `i` is even):
    /// the mixed-design case where per-port pipeline delays differ.
    Mixed,
}

impl FabricDesign {
    /// All fabric design choices, baselines first.
    pub fn all() -> [FabricDesign; 4] {
        [
            FabricDesign::Fixed(DesignKind::DramOnly),
            FabricDesign::Fixed(DesignKind::Rads),
            FabricDesign::Fixed(DesignKind::Cfds),
            FabricDesign::Mixed,
        ]
    }

    /// The design of port `port` under this choice.
    pub fn design_for_port(self, port: usize) -> DesignKind {
        match self {
            FabricDesign::Fixed(kind) => kind,
            FabricDesign::Mixed => {
                if port.is_multiple_of(2) {
                    DesignKind::Cfds
                } else {
                    DesignKind::Rads
                }
            }
        }
    }
}

impl fmt::Display for FabricDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricDesign::Fixed(kind) => kind.fmt(f),
            FabricDesign::Mixed => f.write_str("mixed"),
        }
    }
}

impl FromStr for FabricDesign {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if normalize_name(s) == "mixed" {
            return Ok(FabricDesign::Mixed);
        }
        s.parse::<DesignKind>()
            .map(FabricDesign::Fixed)
            .map_err(|_| ParseNameError::new("fabric design", s, "dram-only, rads, cfds, mixed"))
    }
}

/// Which crossbar arbiter a fabric scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterChoice {
    /// iSLIP-style iterative matching.
    Islip,
    /// Greedy maximal-matching baseline.
    Maximal,
}

impl ArbiterChoice {
    /// Both arbiters, iSLIP first.
    pub fn all() -> [ArbiterChoice; 2] {
        [ArbiterChoice::Islip, ArbiterChoice::Maximal]
    }

    /// The fabric-crate arbiter kind, with `iterations` iSLIP iterations
    /// (`0` = auto).
    pub fn to_kind(self, iterations: usize) -> ArbiterKind {
        match self {
            ArbiterChoice::Islip => ArbiterKind::Islip { iterations },
            ArbiterChoice::Maximal => ArbiterKind::Maximal,
        }
    }
}

impl fmt::Display for ArbiterChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArbiterChoice::Islip => "islip",
            ArbiterChoice::Maximal => "maximal",
        })
    }
}

impl FromStr for ArbiterChoice {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize_name(s).as_str() {
            "islip" => Ok(ArbiterChoice::Islip),
            "maximal" | "maximalmatching" => Ok(ArbiterChoice::Maximal),
            _ => Err(ParseNameError::new("arbiter", s, "islip, maximal")),
        }
    }
}

serde_via_string!(FabricWorkload, "a fabric workload name");
serde_via_string!(
    FabricDesign,
    "a fabric design name (dram-only, rads, cfds, mixed)"
);
serde_via_string!(ArbiterChoice, "an arbiter name (islip, maximal)");

/// Why a fabric scenario is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricScenarioError {
    /// A fabric is one crossbar: 2 to [`MAX_CROSSBAR_PORTS`] ports.
    PortsOutOfRange(usize),
    /// Offered load must stay in (0, 100] percent.
    BadLoad(u64),
    /// A per-port buffer configuration is invalid.
    Config(ConfigError),
}

impl fmt::Display for FabricScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricScenarioError::PortsOutOfRange(p) => {
                write!(
                    f,
                    "a crossbar takes 2 to {MAX_CROSSBAR_PORTS} ports, got {p}"
                )
            }
            FabricScenarioError::BadLoad(pct) => {
                write!(f, "offered load must be in (0, 100] percent, got {pct}")
            }
            FabricScenarioError::Config(e) => write!(f, "port buffer configuration: {e}"),
        }
    }
}

impl std::error::Error for FabricScenarioError {}

/// A fully specified fabric run: one expanded point of a [`FabricSpec`], or
/// a hand-built one-off.
///
/// As JSON, omitted keys keep the [`FabricScenario::small`] values and
/// unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FabricScenario {
    /// Number of ingress (= egress) ports; each ingress buffer holds one VOQ
    /// per egress port.
    pub ports: usize,
    /// Per-port buffer design.
    pub design: FabricDesign,
    /// Traffic matrix.
    pub workload: FabricWorkload,
    /// Crossbar arbiter.
    pub arbiter: ArbiterChoice,
    /// iSLIP iterations per slot (`0` = auto: `⌈log₂ ports⌉`).
    pub islip_iterations: u64,
    /// CFDS granularity `b` of CFDS ports.
    pub granularity: usize,
    /// RADS granularity `B` (all designs).
    pub rads_granularity: usize,
    /// DRAM banks `M` of CFDS ports.
    pub num_banks: usize,
    /// Offered load per ingress port, in percent of the line rate.
    pub load_percent: u64,
    /// Slots per transmitted cell at each egress port (1 = full line rate).
    pub egress_period: u64,
    /// Slots of the live-arrival phase (the drain runs until delivery).
    pub arrival_slots: u64,
    /// Base RNG seed; ingress port `p` seeds its generator with
    /// [`traffic::stream_seed`]`(seed, p)` (space multi-seed sweeps by more
    /// than the port count).
    pub seed: u64,
    /// Configuration knobs applied to every port buffer.
    pub overrides: ConfigOverrides,
}

impl Default for FabricScenario {
    fn default() -> Self {
        FabricScenario::small()
    }
}

impl FabricScenario {
    /// A small CFDS fabric useful as a smoke test: 4 ports, uniform traffic
    /// at 80% load, 4 000 active slots.
    pub fn small() -> Self {
        FabricScenario {
            ports: 4,
            design: FabricDesign::Fixed(DesignKind::Cfds),
            workload: FabricWorkload::Uniform,
            arbiter: ArbiterChoice::Islip,
            islip_iterations: 0,
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            load_percent: 80,
            egress_period: 1,
            arrival_slots: 4_000,
            seed: 1,
            overrides: ConfigOverrides::none(),
        }
    }

    /// Offered load per port as a fraction.
    pub fn load(&self) -> f64 {
        (self.load_percent as f64 / 100.0).clamp(0.0, 1.0)
    }

    fn provisioning(&self) -> Provisioning {
        Provisioning {
            granularity: self.granularity,
            rads_granularity: self.rads_granularity,
            num_banks: self.num_banks,
            overrides: self.overrides,
        }
    }

    /// The CFDS configuration of this scenario's CFDS ports, or the reason
    /// it is invalid: `B` slots of lookahead above the ECQF minimum (a
    /// margin RADS ports do without; see `Provisioning::cfds_lookahead` in
    /// `sim::ports`) and `k = 2` physical queues per VOQ, both overridable
    /// through [`ConfigOverrides`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the parameters violate the CFDS
    /// constraints (sweeps may produce such combinations; the spec layer
    /// skips them).
    pub fn try_cfds_config(&self) -> Result<CfdsConfig, ConfigError> {
        self.provisioning().try_cfds_config(self.ports)
    }

    /// Checks that the scenario can be built and run.
    ///
    /// # Errors
    ///
    /// Returns [`FabricScenarioError`] when the port count, load or any
    /// per-port buffer configuration is invalid.
    pub fn validate(&self) -> Result<(), FabricScenarioError> {
        if !(2..=MAX_CROSSBAR_PORTS).contains(&self.ports) {
            return Err(FabricScenarioError::PortsOutOfRange(self.ports));
        }
        if self.load_percent == 0 || self.load_percent > 100 {
            return Err(FabricScenarioError::BadLoad(self.load_percent));
        }
        self.provisioning()
            .validate(self.design, &[self.ports])
            .map_err(FabricScenarioError::Config)
    }

    /// The fabric configuration (ports, egress rate, arbiter).
    pub fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            ports: self.ports,
            egress_period: self.egress_period.max(1),
            arbiter: self.arbiter.to_kind(self.islip_iterations as usize),
        }
    }

    /// Runs the scenario to completion.
    ///
    /// Homogeneous fabrics monomorphize the switch over the concrete buffer
    /// type; mixed fabrics run over the `fabric::PortBuffer` enum.
    ///
    /// # Panics
    ///
    /// Panics when [`FabricScenario::validate`] would return an error.
    pub fn run(&self) -> FabricRunReport {
        self.provisioning().dispatch(self.design, self)
    }
}

impl BuildPorts for &FabricScenario {
    type Output = FabricRunReport;

    fn build<B: PacketBuffer>(self, mut build: impl FnMut(usize) -> B) -> FabricRunReport {
        let buffers = (0..self.ports).map(|_| build(self.ports)).collect();
        let traffic = Traffic {
            workload: self.workload,
            ports: self.ports,
            radix: self.ports,
            load: self.load(),
            seed: self.seed,
            arrival_slots: self.arrival_slots,
        };
        traffic.drive(VoqSwitch::new(self.fabric_config(), buffers))
    }
}

impl<B: PacketBuffer> DriveArrivals for VoqSwitch<B> {
    type Output = FabricRunReport;

    fn drive<A: ArrivalGenerator>(mut self, arrivals: &mut [A], slots: u64) -> FabricRunReport {
        self.run(arrivals, slots)
    }
}

/// A declarative, serializable fabric experiment: designs × workloads ×
/// arbiters × swept parameters × seeds, expanded into [`FabricScenario`]s by
/// [`crate::experiment::expand`]. The axes expand in field order, designs
/// outermost and seeds innermost; `granularity` and `num_banks` collapse to
/// their first value for fabrics without CFDS ports.
///
/// As JSON, omitted keys keep the spec's defaults, unknown keys are
/// rejected, and the document carries a `"kind": "fabric"` tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FabricSpec {
    /// Experiment name (used in reports and file names).
    pub name: String,
    /// Per-port design choices to cross (outermost axis).
    pub designs: Vec<FabricDesign>,
    /// Traffic matrices to cross.
    pub workloads: Vec<FabricWorkload>,
    /// Arbiters to cross.
    pub arbiters: Vec<ArbiterChoice>,
    /// Sweep of the port count `N`.
    pub ports: Sweep,
    /// Sweep of the per-port offered load, percent.
    pub load_percent: Sweep,
    /// Sweep of the CFDS granularity `b`.
    pub granularity: Sweep,
    /// Sweep of the RADS granularity `B`.
    pub rads_granularity: Sweep,
    /// Sweep of the DRAM banks `M`.
    pub num_banks: Sweep,
    /// iSLIP iterations per slot (`0` = auto).
    pub islip_iterations: u64,
    /// Slots per transmitted cell at each egress port.
    pub egress_period: u64,
    /// Live-arrival slots per run.
    pub arrival_slots: u64,
    /// Seeds to cross (innermost axis).
    pub seeds: Vec<u64>,
    /// Configuration knobs applied to every port buffer.
    pub overrides: ConfigOverrides,
}

impl Default for FabricSpec {
    /// The spec's defaults: an 8-port CFDS fabric, uniform traffic at 90%
    /// load under iSLIP, 10 000 live slots, seed 1.
    fn default() -> Self {
        FabricSpec {
            name: "fabric".to_owned(),
            designs: vec![FabricDesign::Fixed(DesignKind::Cfds)],
            workloads: vec![FabricWorkload::Uniform],
            arbiters: vec![ArbiterChoice::Islip],
            ports: Sweep::Fixed(8),
            load_percent: Sweep::Fixed(90),
            granularity: Sweep::Fixed(4),
            rads_granularity: Sweep::Fixed(16),
            num_banks: Sweep::Fixed(64),
            islip_iterations: 0,
            egress_period: 1,
            arrival_slots: 10_000,
            seeds: vec![1],
            overrides: ConfigOverrides::none(),
        }
    }
}

/// Aggregate statistics over every run of a fabric experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FabricAggregate {
    /// Number of runs executed.
    pub runs: u64,
    /// Runs that lost no cell (and upheld every per-port guarantee).
    pub zero_loss_runs: u64,
    /// Whether every run was zero-loss.
    pub all_zero_loss: bool,
    /// Total cells arrived across runs.
    pub total_arrivals: u64,
    /// Total cells transmitted across runs.
    pub total_transmitted: u64,
    /// Total cells lost across runs (must stay 0).
    pub total_lost_cells: u64,
    /// Total cells resident in ingress buffers at run end.
    pub total_resident_cells: u64,
    /// Mean crossbar utilisation over runs (unweighted).
    pub mean_crossbar_utilization: f64,
    /// Smallest crossbar utilisation any run saw.
    pub min_crossbar_utilization: f64,
    /// Largest end-to-end latency any run saw (slots).
    pub max_latency_slots: u64,
    /// Deepest egress FIFO any run saw (cells).
    pub peak_egress_depth: u64,
}

/// The structured result of executing a whole [`FabricSpec`].
pub type FabricLabReport = LabReport<FabricSpec>;

impl Experiment for FabricSpec {
    type Scenario = FabricScenario;
    type Report = FabricRunReport;
    type Aggregate = FabricAggregate;
    type Invalid = FabricScenarioError;

    const KIND: Option<&'static str> = Some("fabric");
    // `line_rate`: written while configurations carried a line rate that no
    // run read; `--print-spec` always emitted it.
    const RETIRED_KEYS: &'static [&'static str] = &["line_rate"];
    const CSV_HEADER: &'static [&'static str] = &[
        "index",
        "ports",
        "design",
        "workload",
        "arbiter",
        "load_percent",
        "egress_period",
        "seed",
        "slots",
        "arrivals",
        "transmitted",
        "lost_cells",
        "resident_cells",
        "matches",
        "crossbar_utilization",
        "mean_latency_slots",
        "max_latency_slots",
        "zero_loss",
    ];

    fn axes(&self) -> Vec<Axis<'_>> {
        vec![
            Axis::Choices("designs", self.designs.len()),
            Axis::Choices("workloads", self.workloads.len()),
            Axis::Choices("arbiters", self.arbiters.len()),
            Axis::Sweep("ports", &self.ports),
            Axis::Sweep("load_percent", &self.load_percent),
            Axis::CfdsSweep("granularity", &self.granularity),
            Axis::Sweep("rads_granularity", &self.rads_granularity),
            Axis::CfdsSweep("num_banks", &self.num_banks),
            Axis::Choices("seeds", self.seeds.len()),
        ]
    }

    fn has_cfds(scenario: &FabricScenario) -> bool {
        match scenario.design {
            FabricDesign::Fixed(DesignKind::DramOnly | DesignKind::Rads) => false,
            FabricDesign::Fixed(DesignKind::Cfds) | FabricDesign::Mixed => true,
        }
    }

    fn scenario_at(&self, point: &[u64]) -> FabricScenario {
        let &[design, workload, arbiter, n, load, b, big_b, m, seed] = point else {
            unreachable!("one value per axis");
        };
        FabricScenario {
            ports: n as usize,
            design: self.designs[design as usize],
            workload: self.workloads[workload as usize],
            arbiter: self.arbiters[arbiter as usize],
            islip_iterations: self.islip_iterations,
            granularity: b as usize,
            rads_granularity: big_b as usize,
            num_banks: m as usize,
            load_percent: load,
            egress_period: self.egress_period,
            arrival_slots: self.arrival_slots,
            seed: self.seeds[seed as usize],
            overrides: self.overrides,
        }
    }

    fn validate(scenario: &FabricScenario) -> Result<(), FabricScenarioError> {
        scenario.validate()
    }

    fn run_scenario(&self, scenario: &FabricScenario) -> FabricRunReport {
        scenario.run()
    }

    fn aggregate(runs: &[RunRecord<Self>]) -> FabricAggregate {
        let mut agg = FabricAggregate {
            all_zero_loss: true,
            min_crossbar_utilization: f64::INFINITY,
            ..FabricAggregate::default()
        };
        let mut utilization_sum = 0.0f64;
        for run in runs {
            let r = &run.report;
            agg.runs += 1;
            if r.zero_loss {
                agg.zero_loss_runs += 1;
            } else {
                agg.all_zero_loss = false;
            }
            agg.total_arrivals += r.arrivals;
            agg.total_transmitted += r.transmitted;
            agg.total_lost_cells += r.lost_cells;
            agg.total_resident_cells += r.resident_cells;
            utilization_sum += r.crossbar_utilization;
            agg.min_crossbar_utilization = agg.min_crossbar_utilization.min(r.crossbar_utilization);
            agg.max_latency_slots = agg.max_latency_slots.max(r.max_latency_slots);
            agg.peak_egress_depth = agg.peak_egress_depth.max(
                r.per_output
                    .iter()
                    .map(|o| o.peak_queue_depth)
                    .max()
                    .unwrap_or(0),
            );
        }
        if agg.runs > 0 {
            agg.mean_crossbar_utilization = utilization_sum / agg.runs as f64;
        } else {
            agg.min_crossbar_utilization = 0.0;
        }
        agg
    }

    fn csv_row(run: &RunRecord<Self>) -> Vec<String> {
        let s = &run.scenario;
        let r = &run.report;
        vec![
            run.index.to_string(),
            s.ports.to_string(),
            s.design.to_string(),
            s.workload.to_string(),
            s.arbiter.to_string(),
            s.load_percent.to_string(),
            s.egress_period.to_string(),
            s.seed.to_string(),
            r.slots.to_string(),
            r.arrivals.to_string(),
            r.transmitted.to_string(),
            r.lost_cells.to_string(),
            r.resident_cells.to_string(),
            r.matches.to_string(),
            format!("{:.6}", r.crossbar_utilization),
            format!("{:.3}", r.mean_latency_slots),
            r.max_latency_slots.to_string(),
            r.zero_loss.to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{self, checks};
    use crate::lab::LabRunner;
    use crate::spec::SpecError;

    #[test]
    fn small_fabric_scenario_is_zero_loss_and_conserving() {
        let report = FabricScenario::small().run();
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        assert_eq!(report.ports, 4);
        assert!(report.arrivals > 2_000);
        assert!(report.crossbar_utilization > 0.5);
    }

    #[test]
    fn every_workload_runs_zero_loss_on_every_design() {
        for design in FabricDesign::all() {
            for workload in FabricWorkload::all() {
                let scenario = FabricScenario {
                    design,
                    workload,
                    arrival_slots: 1_200,
                    load_percent: 70,
                    ..FabricScenario::small()
                };
                let report = scenario.run();
                // The DRAM-only baseline misses under back-to-back requests
                // — that is its point; every worst-case design must not.
                if design == FabricDesign::Fixed(DesignKind::DramOnly) {
                    assert!(report.conservation_holds(), "{design}/{workload}");
                } else {
                    assert!(
                        report.zero_loss && report.conservation_holds(),
                        "{design}/{workload}: {report:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn both_arbiters_and_slow_egress_stay_zero_loss() {
        for arbiter in ArbiterChoice::all() {
            let scenario = FabricScenario {
                arbiter,
                egress_period: 3,
                load_percent: 30,
                arrival_slots: 2_000,
                ..FabricScenario::small()
            };
            let report = scenario.run();
            assert!(report.zero_loss, "{arbiter}: {report:?}");
            assert_eq!(report.arbiter, arbiter.to_string());
            assert!(report.crossbar_utilization <= 1.0 / 3.0 + 1e-9);
        }
    }

    #[test]
    fn fabric_names_round_trip() {
        for workload in FabricWorkload::all() {
            let text = workload.to_string();
            assert_eq!(text.parse::<FabricWorkload>().unwrap(), workload, "{text}");
        }
        for design in FabricDesign::all() {
            let text = design.to_string();
            assert_eq!(text.parse::<FabricDesign>().unwrap(), design, "{text}");
        }
        for arbiter in ArbiterChoice::all() {
            let text = arbiter.to_string();
            assert_eq!(text.parse::<ArbiterChoice>().unwrap(), arbiter, "{text}");
        }
        assert!("warp".parse::<FabricDesign>().is_err());
        assert!("chaos".parse::<FabricWorkload>().is_err());
        assert!("random".parse::<ArbiterChoice>().is_err());
    }

    #[test]
    fn mixed_design_alternates_cfds_and_rads() {
        assert_eq!(FabricDesign::Mixed.design_for_port(0), DesignKind::Cfds);
        assert_eq!(FabricDesign::Mixed.design_for_port(1), DesignKind::Rads);
        let report = FabricScenario {
            design: FabricDesign::Mixed,
            arrival_slots: 800,
            ..FabricScenario::small()
        }
        .run();
        assert_eq!(report.per_port[0].design, "CFDS");
        assert_eq!(report.per_port[1].design, "RADS");
        assert!(report.zero_loss);
    }

    #[test]
    fn scenario_validation_catches_bad_parameters() {
        assert!(FabricScenario::small().validate().is_ok());
        let too_small = FabricScenario {
            ports: 1,
            ..FabricScenario::small()
        };
        assert_eq!(
            too_small.validate(),
            Err(FabricScenarioError::PortsOutOfRange(1))
        );
        // One word per arbiter row: 64 ports is the widest crossbar.
        for (ports, verdict) in [
            (64, Ok(())),
            (65, Err(FabricScenarioError::PortsOutOfRange(65))),
        ] {
            let scenario = FabricScenario {
                ports,
                design: FabricDesign::Fixed(DesignKind::Rads),
                ..FabricScenario::small()
            };
            assert_eq!(scenario.validate(), verdict, "{ports} ports");
        }
        let silly_load = FabricScenario {
            load_percent: 150,
            ..FabricScenario::small()
        };
        assert_eq!(
            silly_load.validate(),
            Err(FabricScenarioError::BadLoad(150))
        );
        let bad_cfds = FabricScenario {
            granularity: 3, // does not divide B = 8
            ..FabricScenario::small()
        };
        assert!(bad_cfds.validate().is_err());
        // A zero granularity is a configuration error, not an overflow.
        let zero_b = FabricScenario {
            granularity: 0,
            ..FabricScenario::small()
        };
        let zero_big_b = FabricScenario {
            design: FabricDesign::Fixed(DesignKind::Rads),
            rads_granularity: 0,
            ..FabricScenario::small()
        };
        for zeroed in [zero_b, zero_big_b] {
            assert!(
                matches!(
                    zeroed.validate(),
                    Err(FabricScenarioError::Config(ConfigError::ZeroParameter(_)))
                ),
                "{zeroed:?}"
            );
        }
    }

    #[test]
    fn spec_expands_and_collapses_cfds_axes() {
        let spec = FabricSpec {
            designs: vec![
                FabricDesign::Fixed(DesignKind::Rads),
                FabricDesign::Fixed(DesignKind::Cfds),
            ],
            workloads: vec![FabricWorkload::Uniform, FabricWorkload::Incast],
            ports: Sweep::list([4, 8]),
            granularity: Sweep::list([2, 4]),
            rads_granularity: Sweep::fixed(8),
            num_banks: Sweep::fixed(16),
            arrival_slots: 500,
            ..FabricSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        let rads_runs = expansion
            .runs
            .iter()
            .filter(|r| r.design == FabricDesign::Fixed(DesignKind::Rads))
            .count();
        let cfds_runs = expansion
            .runs
            .iter()
            .filter(|r| r.design == FabricDesign::Fixed(DesignKind::Cfds))
            .count();
        assert_eq!(rads_runs, 2 * 2, "granularity axis collapses for RADS");
        assert_eq!(cfds_runs, 2 * 2 * 2, "CFDS keeps the granularity axis");
        assert_eq!(expansion.skipped_invalid, 0);
    }

    #[test]
    fn port_sweeps_stop_at_the_widest_crossbar() {
        let spec = FabricSpec {
            ports: "32..128*2".parse().unwrap(),
            arrival_slots: 100,
            ..FabricSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        let ports: Vec<usize> = expansion.runs.iter().map(|r| r.ports).collect();
        assert_eq!(ports, [32, 64]);
        assert_eq!(expansion.skipped_invalid, 1, "128 ports is refused");
        // With no valid point left, the refusal says why.
        let too_wide = FabricSpec {
            ports: Sweep::fixed(128),
            ..spec
        };
        assert_eq!(
            experiment::expand(&too_wide).unwrap_err(),
            SpecError::NoValidRuns("a crossbar takes 2 to 64 ports, got 128".into())
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FabricSpec {
            name: "fabric-sweep".into(),
            designs: FabricDesign::all().to_vec(),
            workloads: FabricWorkload::all().to_vec(),
            arbiters: ArbiterChoice::all().to_vec(),
            ports: Sweep::doubling(4, 16),
            load_percent: Sweep::list([60, 90]),
            arrival_slots: 2_000,
            seeds: vec![1, 101],
            ..FabricSpec::default()
        };
        experiment::expand(&spec).unwrap();
        checks::spec_documents_round_trip(&spec);
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = FabricScenario {
            design: FabricDesign::Mixed,
            workload: FabricWorkload::Incast,
            arbiter: ArbiterChoice::Maximal,
            seed: 99,
            ..FabricScenario::small()
        };
        let json = serde_json::to_string_pretty(scenario).unwrap();
        let back: FabricScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        let minimal: FabricScenario = serde_json::from_str("{\"ports\": 8}").unwrap();
        assert_eq!(minimal.ports, 8);
        assert_eq!(minimal.workload, FabricWorkload::Uniform);
        assert!(serde_json::from_str::<FabricScenario>("{\"mystery\": 1}").is_err());
    }

    #[test]
    fn lab_runner_report_is_thread_count_invariant() {
        let spec = FabricSpec {
            designs: vec![FabricDesign::Fixed(DesignKind::Rads), FabricDesign::Mixed],
            workloads: vec![FabricWorkload::Uniform, FabricWorkload::Bursty],
            ports: Sweep::fixed(4),
            load_percent: Sweep::fixed(75),
            granularity: Sweep::fixed(2),
            rads_granularity: Sweep::fixed(8),
            num_banks: Sweep::fixed(16),
            arrival_slots: 600,
            ..FabricSpec::default()
        };
        checks::thread_count_does_not_change_the_report(&spec, 4);
        let report = LabRunner::new().run(&spec).unwrap();
        assert!(report.aggregate.all_zero_loss);
        assert!(report.aggregate.mean_crossbar_utilization > 0.0);
    }

    #[test]
    fn oversized_sweeps_are_refused_not_materialised() {
        checks::oversized_products_are_refused::<FabricSpec>(|spec, [a, b, c]| {
            (spec.ports, spec.load_percent, spec.num_banks) = (a, b, c);
        });
    }
}
