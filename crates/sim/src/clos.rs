//! Declarative Clos experiments: multi-chassis scenarios, sweepable specs
//! and the lab integration.
//!
//! This module is the Clos-level mirror of [`crate::fabric`]: a
//! [`ClosScenario`] fully describes one three-stage folded-Clos run (a
//! [`fabric::ClosFabric`] of `r` ingress, `m` middle and `r` egress
//! [`fabric::VoqSwitch`]es — see the `fabric::clos` module docs for the
//! topology and the credit flow control), and a [`ClosSpec`] sweeps those
//! axes into a cartesian product that
//! [`LabRunner::run`](crate::lab::LabRunner::run) executes deterministically
//! across worker threads — the Clos layer of the shared stack in
//! [`crate::experiment`].
//!
//! The scenario reuses the fabric axes wholesale — [`FabricDesign`] for the
//! per-stage buffer designs, [`FabricWorkload`] for the external traffic
//! matrix, [`ArbiterChoice`] for every stage's crossbar — and adds the
//! Clos-only ones: the geometry (`radix`, `ingress_switches`,
//! `middle_switches`), the ingress [`DispatchChoice`] and the inter-stage
//! link provisioning (`link_capacity`, `link_latency`).
//!
//! External traffic targets *global* destinations in `0..r·N`; generator
//! seeds are derived hierarchically with [`traffic::plane_seed`] (one plane
//! per ingress switch, one stream per port) so that sweeping the geometry
//! never makes two ports share an RNG stream.

use crate::experiment::{self, Axis, Experiment};
use crate::fabric::{ArbiterChoice, FabricDesign, FabricWorkload};
use crate::lab::{LabReport, RunRecord};
use crate::ports::{BuildPorts, DriveArrivals, Provisioning, Traffic};
use crate::scenario::{normalize_name, serde_via_string, DesignKind, ParseNameError};
use crate::spec::{SpecError, Sweep};
pub use ::fabric::ClosRunReport;
use ::fabric::{
    ClosConfig, ClosFabric, ClosStage, DispatchPolicy, FaultPlan, FaultPlanError,
    MAX_CROSSBAR_PORTS, MAX_LINK_CAPACITY, MAX_LINK_LATENCY,
};
use pktbuf::PacketBuffer;
use pktbuf_model::{ConfigError, ConfigOverrides, RadsConfig};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;
use traffic::ArrivalGenerator;

/// Which ingress dispatch policy a Clos scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchChoice {
    /// Round-robin spraying over the middle switches (may reorder flows).
    Spray,
    /// Flow-hash pinning to one middle switch (never reorders).
    FlowHash,
    /// Credit-occupancy-aware spraying on every slot (spray's fault-time
    /// steering promoted to a steady-state policy).
    OccupancySpray,
}

impl DispatchChoice {
    /// Every dispatch policy, spray first.
    pub fn all() -> [DispatchChoice; 3] {
        [
            DispatchChoice::Spray,
            DispatchChoice::FlowHash,
            DispatchChoice::OccupancySpray,
        ]
    }

    /// The fabric-crate dispatch policy.
    pub fn to_policy(self) -> DispatchPolicy {
        match self {
            DispatchChoice::Spray => DispatchPolicy::Spray,
            DispatchChoice::FlowHash => DispatchPolicy::FlowHash,
            DispatchChoice::OccupancySpray => DispatchPolicy::OccupancySpray,
        }
    }
}

impl fmt::Display for DispatchChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_policy().label())
    }
}

impl FromStr for DispatchChoice {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize_name(s).as_str() {
            "spray" => Ok(DispatchChoice::Spray),
            "flowhash" => Ok(DispatchChoice::FlowHash),
            "occupancyspray" => Ok(DispatchChoice::OccupancySpray),
            _ => Err(ParseNameError::new(
                "dispatch policy",
                s,
                "spray, flowhash, occupancy-spray",
            )),
        }
    }
}

serde_via_string!(
    DispatchChoice,
    "a dispatch policy name (spray, flowhash, occupancy-spray)"
);

/// Demand pattern of the closed-loop sources of a transport scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportMode {
    /// Each source sweeps destinations round-robin (skipping itself).
    Sweep,
    /// Every source hammers one destination — the synchronized-retry-storm
    /// worst case.
    Incast,
}

impl TransportMode {
    /// The traffic-crate demand pattern (`target` only matters for incast).
    pub fn to_pattern(self, target: u32) -> traffic::DemandPattern {
        match self {
            TransportMode::Sweep => traffic::DemandPattern::Sweep,
            TransportMode::Incast => traffic::DemandPattern::Incast { target },
        }
    }
}

impl fmt::Display for TransportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportMode::Sweep => "sweep",
            TransportMode::Incast => "incast",
        })
    }
}

impl FromStr for TransportMode {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize_name(s).as_str() {
            "sweep" => Ok(TransportMode::Sweep),
            "incast" => Ok(TransportMode::Incast),
            _ => Err(ParseNameError::new("transport mode", s, "sweep, incast")),
        }
    }
}

serde_via_string!(TransportMode, "a transport mode name (sweep, incast)");

/// The closed-loop reliable-transport layer of a Clos scenario: when
/// present, the run replaces the open-loop workload with one
/// [`traffic::ClosedLoopSource`] per external port
/// ([`fabric::ClosFabric::run_transport`]); the open-loop `workload`,
/// `load_percent` and `seed` axes are ignored (closed-loop demand is
/// deterministic).
///
/// Transport runs need cut-through stage buffers — a RADS-family design
/// with `rads_granularity = 1` — because batched writeback parks sub-batch
/// tails as permanent residents that a reliable sender would retransmit
/// forever; [`ClosScenario::validate`] enforces this.
///
/// As JSON, omitted keys keep the [`Default`] values and unknown keys are
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct TransportScenario {
    /// Demand pattern of every source.
    pub mode: TransportMode,
    /// Destination port every source targets in incast mode.
    pub incast_target: u32,
    /// Initial / minimum retransmission timeout, slots.
    pub rto_initial: u64,
    /// Upper bound on any backed-off RTO, slots.
    pub rto_cap: u64,
    /// Retransmission attempts before a cell is abandoned.
    pub max_retries: u32,
    /// Initial AIMD congestion window, cells.
    pub cwnd_init: u64,
    /// Maximum AIMD congestion window, cells.
    pub cwnd_max: u64,
    /// Goodput histogram bucket width, slots.
    pub goodput_bucket: u64,
}

impl Default for TransportScenario {
    fn default() -> Self {
        let t = ::fabric::TransportConfig::default();
        TransportScenario {
            mode: TransportMode::Sweep,
            incast_target: 0,
            rto_initial: t.rto_initial,
            rto_cap: t.rto_cap,
            max_retries: t.max_retries,
            cwnd_init: t.cwnd_init,
            cwnd_max: t.cwnd_max,
            goodput_bucket: t.goodput_bucket,
        }
    }
}

impl TransportScenario {
    /// The fabric-crate transport configuration.
    pub fn to_config(self) -> ::fabric::TransportConfig {
        ::fabric::TransportConfig {
            rto_initial: self.rto_initial,
            rto_cap: self.rto_cap,
            max_retries: self.max_retries,
            cwnd_init: self.cwnd_init,
            cwnd_max: self.cwnd_max,
            goodput_bucket: self.goodput_bucket,
        }
    }

    /// One closed-loop source per external port of the scenario.
    pub fn sources(&self, external_ports: usize) -> Vec<traffic::ClosedLoopSource> {
        let params = self.to_config().source_params();
        (0..external_ports)
            .map(|g| {
                traffic::ClosedLoopSource::new(
                    g as u32,
                    external_ports,
                    self.mode.to_pattern(self.incast_target),
                    params,
                )
            })
            .collect()
    }
}

/// The observability layer of a Clos scenario: which deterministic probes
/// ([`obs::ObsConfig`]) the run arms before slot 0. The default arms
/// nothing, and an all-off scenario leaves the run byte-identical to an
/// unarmed one (the same discipline as an empty fault plan).
///
/// The flight recorder filters by slot window only: a scenario records
/// every flow inside the window or none.
///
/// As JSON, omitted keys keep the [`Default`] (all-off) values and unknown
/// keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ObsScenario {
    /// Arm end-to-end latency histograms (and first-injection latency under
    /// transport).
    pub latency_hist: bool,
    /// Arm per-VOQ backlog and per-link credit-occupancy histograms.
    pub occupancy_hist: bool,
    /// Time-series sampling stride in slots; 0 disables the series probes.
    pub series_stride: u64,
    /// Maximum samples kept per stage series ring.
    pub series_capacity: usize,
    /// Flight-recorder ring capacity per stage; 0 disables the recorder.
    pub trace_capacity: usize,
    /// First slot (inclusive) the flight recorder is armed for.
    pub trace_from_slot: u64,
    /// Last slot (inclusive) the flight recorder is armed for.
    pub trace_to_slot: u64,
}

impl Default for ObsScenario {
    fn default() -> Self {
        let c = obs::ObsConfig::off();
        ObsScenario {
            latency_hist: c.latency_hist,
            occupancy_hist: c.occupancy_hist,
            series_stride: c.series_stride,
            series_capacity: c.series_capacity,
            trace_capacity: c.trace_capacity,
            trace_from_slot: c.trace_from_slot,
            trace_to_slot: c.trace_to_slot,
        }
    }
}

impl ObsScenario {
    /// The histogram + series preset ([`obs::ObsConfig::standard`]).
    pub fn standard() -> Self {
        let c = obs::ObsConfig::standard();
        ObsScenario {
            latency_hist: c.latency_hist,
            occupancy_hist: c.occupancy_hist,
            series_stride: c.series_stride,
            series_capacity: c.series_capacity,
            trace_capacity: c.trace_capacity,
            trace_from_slot: c.trace_from_slot,
            trace_to_slot: c.trace_to_slot,
        }
    }

    /// The obs-crate probe configuration.
    pub fn to_config(self) -> obs::ObsConfig {
        obs::ObsConfig {
            latency_hist: self.latency_hist,
            occupancy_hist: self.occupancy_hist,
            series_stride: self.series_stride,
            series_capacity: self.series_capacity,
            trace_capacity: self.trace_capacity,
            trace_from_slot: self.trace_from_slot,
            trace_to_slot: self.trace_to_slot,
        }
    }

    /// True when no probe is armed (the scenario is then a no-op).
    pub fn is_off(self) -> bool {
        self.to_config().is_off()
    }
}

/// Why a Clos scenario is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosScenarioError {
    /// Ingress/egress switches are `N`-port crossbars: 2 ≤ `N` ≤
    /// [`MAX_CROSSBAR_PORTS`].
    BadRadix(usize),
    /// The `r` ingress switches make the middle switches `r`-port crossbars:
    /// 2 ≤ `r` ≤ [`MAX_CROSSBAR_PORTS`].
    IngressOutOfRange(usize),
    /// The middle stage must satisfy `1 ≤ m ≤ N`.
    BadMiddle(usize, usize),
    /// Offered load must stay in (0, 100] percent.
    BadLoad(u64),
    /// Inter-stage links need at least one credit.
    BadLinkCapacity(usize),
    /// A link field is above its bound ([`MAX_LINK_CAPACITY`] or
    /// [`MAX_LINK_LATENCY`]): the field, the bound, the value.
    LinkOutOfRange(&'static str, u64, u64),
    /// A per-stage buffer configuration is invalid.
    Config(ConfigError),
    /// The fault plan does not fit the geometry or is malformed.
    Faults(FaultPlanError),
    /// Closed-loop transport needs cut-through stage buffers (a RADS-family
    /// design with `rads_granularity = 1`).
    TransportNeedsCutThrough,
    /// The incast target must be an external port of the geometry.
    BadIncastTarget(u32, usize),
    /// A transport field is above its bound ([`traffic::MAX_RTO_SLOTS`] or
    /// [`traffic::MAX_CWND_CELLS`]): the field, the bound, the value.
    TransportOutOfRange(&'static str, u64, u64),
    /// An obs ring capacity is above its bound ([`obs::MAX_SERIES_CAPACITY`]
    /// or [`obs::MAX_TRACE_CAPACITY`]): the field, the bound, the value.
    ObsOutOfRange(&'static str, usize, usize),
}

impl fmt::Display for ClosScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosScenarioError::BadRadix(n) => write!(
                f,
                "the radix N sizes the ingress and egress switches: a crossbar takes 2 to \
                 {MAX_CROSSBAR_PORTS} ports, got {n}"
            ),
            ClosScenarioError::IngressOutOfRange(r) => write!(
                f,
                "the ingress switch count r sizes the middle switches: a crossbar takes 2 to \
                 {MAX_CROSSBAR_PORTS} ports, got {r}"
            ),
            ClosScenarioError::BadMiddle(m, n) => {
                write!(
                    f,
                    "middle switches must satisfy 1 <= m <= N, got m={m}, N={n}"
                )
            }
            ClosScenarioError::BadLoad(pct) => {
                write!(f, "offered load must be in (0, 100] percent, got {pct}")
            }
            ClosScenarioError::BadLinkCapacity(c) => {
                write!(f, "inter-stage links need at least one credit, got {c}")
            }
            ClosScenarioError::LinkOutOfRange(field, bound, value) => {
                write!(
                    f,
                    "{field} must be at most {bound}, got {value} (a larger value overflows \
                     the link's credit or slot arithmetic)"
                )
            }
            ClosScenarioError::Config(e) => write!(f, "stage buffer configuration: {e}"),
            ClosScenarioError::Faults(e) => write!(f, "fault plan: {e}"),
            ClosScenarioError::TransportNeedsCutThrough => {
                write!(
                    f,
                    "closed-loop transport needs cut-through stage buffers: a RADS-family \
                     design with rads_granularity = 1 (batched writeback parks sub-batch \
                     tails as permanent residents that a reliable sender would retransmit \
                     forever)"
                )
            }
            ClosScenarioError::BadIncastTarget(t, ext) => {
                write!(
                    f,
                    "incast target {t} is not an external port of the geometry (0..{ext})"
                )
            }
            ClosScenarioError::TransportOutOfRange(field, bound, value) => {
                write!(
                    f,
                    "transport {field} must be at most {bound}, got {value} (a larger value \
                     overflows the source's timer or window arithmetic)"
                )
            }
            ClosScenarioError::ObsOutOfRange(field, bound, value) => {
                write!(
                    f,
                    "obs {field} must be at most {bound}, got {value} (each stage preallocates \
                     its ring at arm time)"
                )
            }
        }
    }
}

impl std::error::Error for ClosScenarioError {}

/// A fully specified Clos run: one expanded point of a [`ClosSpec`], or a
/// hand-built one-off.
///
/// As JSON, omitted keys keep the [`ClosScenario::small`] values and unknown
/// keys are rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClosScenario {
    /// Radix `N` of each ingress/egress switch; external ports = `r·N`.
    pub radix: usize,
    /// Number `r` of ingress (= egress) switches.
    pub ingress_switches: usize,
    /// Number `m` of middle switches (`1 ≤ m ≤ N`).
    pub middle_switches: usize,
    /// Per-stage buffer design ([`FabricDesign::Mixed`] alternates CFDS and
    /// RADS over the build order).
    pub design: FabricDesign,
    /// External traffic matrix, over `r·N` global destinations.
    pub workload: FabricWorkload,
    /// Ingress load-balancing policy.
    pub dispatch: DispatchChoice,
    /// Crossbar arbiter of every switch of every stage.
    pub arbiter: ArbiterChoice,
    /// iSLIP iterations per slot (`0` = auto).
    pub islip_iterations: u64,
    /// CFDS granularity `b` of CFDS buffers.
    pub granularity: usize,
    /// RADS granularity `B` (all designs).
    pub rads_granularity: usize,
    /// DRAM banks `M` of CFDS buffers.
    pub num_banks: usize,
    /// Offered load per external ingress port, percent of the line rate.
    pub load_percent: u64,
    /// Slots per transmitted cell at each external output (1 = line rate).
    pub egress_period: u64,
    /// Cells (= credits) per inter-stage link FIFO.
    pub link_capacity: usize,
    /// One-way inter-stage link latency, slots.
    pub link_latency: u64,
    /// Slots of the live-arrival phase (the drain runs until delivery).
    pub arrival_slots: u64,
    /// Base RNG seed; the port `i` of ingress switch `s` seeds its
    /// generator with [`traffic::plane_seed`]`(seed, s, i)`.
    pub seed: u64,
    /// Configuration knobs applied to every stage buffer.
    pub overrides: ConfigOverrides,
    /// Deterministic fault plan armed before slot 0 (empty = fault-free; an
    /// empty plan leaves the run byte-identical to an unarmed one, and is
    /// not written — as `transport` and `obs` are not when `None`).
    #[serde(skip_serializing_if = "FaultPlan::is_empty")]
    pub faults: FaultPlan,
    /// Closed-loop reliable transport (`None` = open-loop; the run is then
    /// byte-identical to a pre-transport one). When present, the open-loop
    /// `workload`, `load_percent` and `seed` axes are ignored.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub transport: Option<TransportScenario>,
    /// Deterministic probes armed before slot 0 (`None` or all-off leaves
    /// the run byte-identical to an unarmed one).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs: Option<ObsScenario>,
}

impl Default for ClosScenario {
    fn default() -> Self {
        ClosScenario::small()
    }
}

impl ClosScenario {
    /// A small RADS Clos useful as a smoke test: `N = r = m = 4`
    /// (16 external ports), uniform traffic at 80% load, 3 000 active slots.
    pub fn small() -> Self {
        ClosScenario {
            radix: 4,
            ingress_switches: 4,
            middle_switches: 4,
            design: FabricDesign::Fixed(DesignKind::Rads),
            workload: FabricWorkload::Uniform,
            dispatch: DispatchChoice::Spray,
            arbiter: ArbiterChoice::Islip,
            islip_iterations: 0,
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            load_percent: 80,
            egress_period: 1,
            link_capacity: 8,
            link_latency: 1,
            arrival_slots: 3_000,
            seed: 1,
            overrides: ConfigOverrides::none(),
            faults: FaultPlan::none(),
            transport: None,
            obs: None,
        }
    }

    /// The [`ClosScenario::small`] geometry rebuilt for closed-loop
    /// transport: cut-through RADS buffers (`rads_granularity = 1`) and a
    /// default sweep-mode [`TransportScenario`].
    pub fn small_transport() -> Self {
        ClosScenario {
            rads_granularity: 1,
            transport: Some(TransportScenario::default()),
            ..ClosScenario::small()
        }
    }

    /// External (line-side) port count `r·N`.
    pub fn external_ports(&self) -> usize {
        self.ingress_switches * self.radix
    }

    /// Offered load per external port as a fraction.
    pub fn load(&self) -> f64 {
        (self.load_percent as f64 / 100.0).clamp(0.0, 1.0)
    }

    /// VOQ count of a buffer serving `stage`: `N` at the edges, `r` in the
    /// middle.
    pub fn stage_queue_count(&self, stage: ClosStage) -> usize {
        match stage {
            ClosStage::Middle => self.ingress_switches,
            ClosStage::Ingress | ClosStage::Egress => self.radix,
        }
    }

    fn provisioning(&self) -> Provisioning {
        Provisioning {
            granularity: self.granularity,
            rads_granularity: self.rads_granularity,
            num_banks: self.num_banks,
            overrides: self.overrides,
        }
    }

    /// The RADS configuration of a `num_queues`-VOQ stage buffer: the ECQF
    /// minimum lookahead, with the `B`-slot DRAM read as the stage behind
    /// it, like every switch and Clos port.
    pub fn rads_config(&self, num_queues: usize) -> RadsConfig {
        self.provisioning().rads_config(num_queues)
    }

    /// The fabric-crate Clos configuration (geometry, dispatch, links,
    /// arbiter; always credit flow control — the lossy drop-on-full mode is
    /// requested through [`fabric::FaultKind::DropOnFull`] in the
    /// scenario's fault plan, not an experiment axis).
    pub fn clos_config(&self) -> ClosConfig {
        ClosConfig {
            radix: self.radix,
            ingress_switches: self.ingress_switches,
            middle_switches: self.middle_switches,
            dispatch: self.dispatch.to_policy(),
            link_capacity: self.link_capacity,
            link_latency: self.link_latency,
            egress_period: self.egress_period.max(1),
            arbiter: self.arbiter.to_kind(self.islip_iterations as usize),
        }
    }

    /// Checks that the scenario can be built and run.
    ///
    /// # Errors
    ///
    /// Returns [`ClosScenarioError`] when the geometry, load, link
    /// provisioning, a transport parameter or any stage buffer configuration
    /// is invalid.
    pub fn validate(&self) -> Result<(), ClosScenarioError> {
        let crossbar = 2..=MAX_CROSSBAR_PORTS;
        if !crossbar.contains(&self.radix) {
            return Err(ClosScenarioError::BadRadix(self.radix));
        }
        if !crossbar.contains(&self.ingress_switches) {
            return Err(ClosScenarioError::IngressOutOfRange(self.ingress_switches));
        }
        if !(1..=self.radix).contains(&self.middle_switches) {
            return Err(ClosScenarioError::BadMiddle(
                self.middle_switches,
                self.radix,
            ));
        }
        if self.load_percent == 0 || self.load_percent > 100 {
            return Err(ClosScenarioError::BadLoad(self.load_percent));
        }
        if self.link_capacity < 1 {
            return Err(ClosScenarioError::BadLinkCapacity(self.link_capacity));
        }
        if let Some((field, bound, value)) = [
            (
                "link_capacity",
                MAX_LINK_CAPACITY as u64,
                self.link_capacity as u64,
            ),
            ("link_latency", MAX_LINK_LATENCY, self.link_latency),
        ]
        .into_iter()
        .find(|&(_, bound, value)| value > bound)
        {
            return Err(ClosScenarioError::LinkOutOfRange(field, bound, value));
        }
        self.faults
            .validate(self.radix, self.ingress_switches, self.middle_switches)
            .map_err(ClosScenarioError::Faults)?;
        if let Some(t) = &self.transport {
            let cutthrough = matches!(
                self.design,
                FabricDesign::Fixed(DesignKind::Rads) | FabricDesign::Fixed(DesignKind::DramOnly)
            ) && self.rads_granularity == 1;
            if !cutthrough {
                return Err(ClosScenarioError::TransportNeedsCutThrough);
            }
            if t.mode == TransportMode::Incast && t.incast_target as usize >= self.external_ports()
            {
                return Err(ClosScenarioError::BadIncastTarget(
                    t.incast_target,
                    self.external_ports(),
                ));
            }
            // The fields as given: `source_params` would clamp them.
            let given = traffic::ClosedLoopConfig {
                rto_initial: t.rto_initial,
                rto_cap: t.rto_cap,
                max_retries: t.max_retries,
                cwnd_init: t.cwnd_init,
                cwnd_max: t.cwnd_max,
            };
            if let Some((field, bound, value)) = given.out_of_range() {
                return Err(ClosScenarioError::TransportOutOfRange(field, bound, value));
            }
        }
        if let Some((field, bound, value)) = self.obs.and_then(|o| o.to_config().out_of_range()) {
            return Err(ClosScenarioError::ObsOutOfRange(field, bound, value));
        }
        self.provisioning()
            .validate(self.design, &[self.radix, self.ingress_switches])
            .map_err(ClosScenarioError::Config)
    }

    /// Runs the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics when [`ClosScenario::validate`] would return an error.
    pub fn run(&self) -> ClosRunReport {
        self.run_in(RunMode::Driver)
    }

    /// Runs the skip-free reference twin ([`ClosFabric::run_reference`]; a
    /// closed-loop scenario has no such twin and runs the driver).
    ///
    /// # Panics
    ///
    /// Panics when [`ClosScenario::validate`] would return an error.
    pub fn run_reference(&self) -> ClosRunReport {
        self.run_in(RunMode::Reference)
    }

    fn run_in(&self, mode: RunMode) -> ClosRunReport {
        self.provisioning()
            .dispatch(self.design, ClosRun(self, mode))
    }
}

/// Which execution engine a scenario run uses.
#[derive(Debug, Clone, Copy)]
enum RunMode {
    /// The production slot-loop driver.
    Driver,
    /// The skip-free reference twin.
    Reference,
}

/// A Clos run in progress — first the scenario, then the fabric built from
/// it — and the engine that runs it.
#[derive(Debug)]
struct ClosRun<T>(T, RunMode);

impl BuildPorts for ClosRun<&ClosScenario> {
    type Output = ClosRunReport;

    fn build<B: PacketBuffer>(self, mut build: impl FnMut(usize) -> B) -> ClosRunReport {
        let ClosRun(s, mode) = self;
        let mut fabric =
            ClosFabric::new(s.clos_config(), |stage| build(s.stage_queue_count(stage)));
        if !s.faults.is_empty() {
            fabric.arm_faults(&s.faults);
        }
        if let Some(o) = &s.obs {
            fabric.arm_obs(&o.to_config());
        }
        let ext = s.external_ports();
        if let Some(t) = &s.transport {
            fabric.enable_transport(t.to_config());
            return fabric.run_transport(&mut t.sources(ext), s.arrival_slots, 1);
        }
        let traffic = Traffic {
            workload: s.workload,
            ports: ext,
            radix: s.radix,
            load: s.load(),
            seed: s.seed,
            arrival_slots: s.arrival_slots,
        };
        traffic.drive(ClosRun(fabric, mode))
    }
}

impl<B: PacketBuffer> DriveArrivals for ClosRun<ClosFabric<B>> {
    type Output = ClosRunReport;

    fn drive<A: ArrivalGenerator>(self, arrivals: &mut [A], slots: u64) -> ClosRunReport {
        let ClosRun(mut fabric, mode) = self;
        match mode {
            RunMode::Driver => fabric.run(arrivals, slots, 1),
            RunMode::Reference => fabric.run_reference(arrivals, slots),
        }
    }
}

/// A declarative, serializable Clos experiment: designs × workloads ×
/// dispatches × arbiters × swept geometry/provisioning × seeds, expanded
/// into [`ClosScenario`]s by [`experiment::expand`]. The axes expand in
/// field order, designs outermost and seeds innermost; invalid combinations
/// (e.g. `m > N` from crossed geometry sweeps) are skipped and counted.
///
/// As JSON, omitted keys keep the spec's defaults, unknown keys are
/// rejected, and the document carries a `"kind": "clos"` tag; an empty fault
/// plan and absent `transport` / `obs` layers are not written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClosSpec {
    /// Experiment name (used in reports and file names).
    pub name: String,
    /// Per-stage design choices to cross (outermost axis).
    pub designs: Vec<FabricDesign>,
    /// Traffic matrices to cross.
    pub workloads: Vec<FabricWorkload>,
    /// Ingress dispatch policies to cross.
    pub dispatches: Vec<DispatchChoice>,
    /// Arbiters to cross.
    pub arbiters: Vec<ArbiterChoice>,
    /// Sweep of the switch radix `N`.
    pub radix: Sweep,
    /// Sweep of the ingress (= egress) switch count `r`.
    pub ingress_switches: Sweep,
    /// Sweep of the middle switch count `m` (combinations with `m > N` are
    /// skipped).
    pub middle_switches: Sweep,
    /// Sweep of the per-port offered load, percent.
    pub load_percent: Sweep,
    /// Sweep of the inter-stage link capacity (credits per link).
    pub link_capacity: Sweep,
    /// CFDS granularity `b` shared by every run.
    pub granularity: u64,
    /// RADS granularity `B` shared by every run.
    pub rads_granularity: u64,
    /// DRAM banks `M` shared by every run.
    pub num_banks: u64,
    /// iSLIP iterations per slot (`0` = auto).
    pub islip_iterations: u64,
    /// Slots per transmitted cell at each external output.
    pub egress_period: u64,
    /// One-way inter-stage link latency, slots.
    pub link_latency: u64,
    /// Live-arrival slots per run.
    pub arrival_slots: u64,
    /// Seeds to cross (innermost axis).
    pub seeds: Vec<u64>,
    /// Configuration knobs applied to every stage buffer.
    pub overrides: ConfigOverrides,
    /// Fault plan armed in every expanded run (empty = fault-free;
    /// combinations whose geometry the plan does not fit are skipped like
    /// any other invalid point).
    #[serde(skip_serializing_if = "FaultPlan::is_empty")]
    pub faults: FaultPlan,
    /// Closed-loop transport layered over every expanded run (`None` =
    /// open-loop; combinations without cut-through buffers are skipped like
    /// any other invalid point).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub transport: Option<TransportScenario>,
    /// Deterministic probes armed in every expanded run (`None` or all-off
    /// leaves each run byte-identical to an unarmed one).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs: Option<ObsScenario>,
}

impl ClosSpec {
    /// A builder over [`ClosSpec::default`]. Kept only because the fenced
    /// `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
    pub fn builder() -> ClosSpecBuilder {
        ClosSpecBuilder::default()
    }

    /// [`experiment::to_json`]. Kept only because the fenced
    /// `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
    pub fn to_json(&self) -> String {
        experiment::to_json(self)
    }

    /// [`experiment::from_json`]. Kept only because the fenced
    /// `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
    ///
    /// # Errors
    ///
    /// As [`experiment::from_json`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        experiment::from_json(text)
    }
}

impl Default for ClosSpec {
    /// The spec's defaults: the [`ClosScenario::small`] geometry, uniform
    /// spray traffic at 80% load under iSLIP, 3 000 live slots, seed 1.
    fn default() -> Self {
        ClosSpec {
            name: "clos".to_owned(),
            designs: vec![FabricDesign::Fixed(DesignKind::Rads)],
            workloads: vec![FabricWorkload::Uniform],
            dispatches: vec![DispatchChoice::Spray],
            arbiters: vec![ArbiterChoice::Islip],
            radix: Sweep::Fixed(4),
            ingress_switches: Sweep::Fixed(4),
            middle_switches: Sweep::Fixed(4),
            load_percent: Sweep::Fixed(80),
            link_capacity: Sweep::Fixed(8),
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            islip_iterations: 0,
            egress_period: 1,
            link_latency: 1,
            arrival_slots: 3_000,
            seeds: vec![1],
            overrides: ConfigOverrides::none(),
            faults: FaultPlan::none(),
            transport: None,
            obs: None,
        }
    }
}

/// Field setters over [`ClosSpec::default`]. Kept only because the fenced
/// `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
#[derive(Debug, Clone, Default)]
pub struct ClosSpecBuilder {
    spec: ClosSpec,
}

impl ClosSpecBuilder {
    /// Sets the experiment name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Sets the switch-radix axis.
    pub fn radix(mut self, sweep: Sweep) -> Self {
        self.spec.radix = sweep;
        self
    }

    /// Sets the ingress-switch-count axis.
    pub fn ingress_switches(mut self, sweep: Sweep) -> Self {
        self.spec.ingress_switches = sweep;
        self
    }

    /// Sets the middle-switch-count axis.
    pub fn middle_switches(mut self, sweep: Sweep) -> Self {
        self.spec.middle_switches = sweep;
        self
    }

    /// Sets the offered-load axis (percent).
    pub fn load_percent(mut self, sweep: Sweep) -> Self {
        self.spec.load_percent = sweep;
        self
    }

    /// Sets the number of live-arrival slots.
    pub fn arrival_slots(mut self, slots: u64) -> Self {
        self.spec.arrival_slots = slots;
        self
    }

    /// Sets the seeds axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.spec.seeds = seeds.into_iter().collect();
        self
    }

    /// Finalises the spec, checking that it expands to at least one run.
    ///
    /// # Errors
    ///
    /// Propagates any [`SpecError`] from [`experiment::expand`].
    pub fn build(self) -> Result<ClosSpec, SpecError> {
        experiment::expand(&self.spec)?;
        Ok(self.spec)
    }
}

/// Aggregate statistics over every run of a Clos experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ClosAggregate {
    /// Number of runs executed.
    pub runs: u64,
    /// Runs that lost no cell anywhere in the fabric.
    pub zero_loss_runs: u64,
    /// Whether every run was zero-loss.
    pub all_zero_loss: bool,
    /// Runs whose fabric-wide conservation check held.
    pub conserving_runs: u64,
    /// Whether every run conserved cells.
    pub all_conserving: bool,
    /// Total cells offered across runs.
    pub total_arrivals: u64,
    /// Total cells delivered on external output lines across runs.
    pub total_delivered: u64,
    /// Total cells lost across runs (must stay 0).
    pub total_lost_cells: u64,
    /// Total reordered deliveries across runs (spray dispatch only).
    pub total_reordered_cells: u64,
    /// Total output-slots spent gated awaiting a link credit.
    pub total_credit_stall_slots: u64,
    /// Deepest any inter-stage link FIFO got in any run.
    pub peak_link_depth: u64,
    /// Largest external end-to-end latency any run saw (slots).
    pub max_latency_slots: u64,
    /// Mean of the runs' mean end-to-end latencies (unweighted, slots).
    pub mean_latency_slots: f64,
}

/// The structured result of executing a whole [`ClosSpec`].
pub type ClosLabReport = LabReport<ClosSpec>;

impl Experiment for ClosSpec {
    type Scenario = ClosScenario;
    type Report = ClosRunReport;
    type Aggregate = ClosAggregate;
    type Invalid = ClosScenarioError;

    const KIND: Option<&'static str> = Some("clos");
    // `workers`: written while a per-stage worker pipeline existed
    // (`--print-spec` always emitted 1); reports never depended on it.
    // `line_rate`: written while configurations carried a line rate that no
    // run read.
    const RETIRED_KEYS: &'static [&'static str] = &["workers", "line_rate"];
    const CSV_HEADER: &'static [&'static str] = &[
        "index",
        "radix",
        "ingress_switches",
        "middle_switches",
        "external_ports",
        "design",
        "workload",
        "dispatch",
        "arbiter",
        "load_percent",
        "link_capacity",
        "seed",
        "slots",
        "arrivals",
        "delivered",
        "lost_cells",
        "resident_cells",
        "link_resident_cells",
        "reordered_cells",
        "credit_stall_slots",
        "peak_link_depth",
        "mean_latency_slots",
        "max_latency_slots",
        "latency_p50_slots",
        "latency_p95_slots",
        "latency_p99_slots",
        "zero_loss",
        "conserving",
    ];

    fn axes(&self) -> Vec<Axis<'_>> {
        vec![
            Axis::Choices("designs", self.designs.len()),
            Axis::Choices("workloads", self.workloads.len()),
            Axis::Choices("dispatches", self.dispatches.len()),
            Axis::Choices("arbiters", self.arbiters.len()),
            Axis::Sweep("radix", &self.radix),
            Axis::Sweep("ingress_switches", &self.ingress_switches),
            Axis::Sweep("middle_switches", &self.middle_switches),
            Axis::Sweep("load_percent", &self.load_percent),
            Axis::Sweep("link_capacity", &self.link_capacity),
            Axis::Choices("seeds", self.seeds.len()),
        ]
    }

    fn scenario_at(&self, point: &[u64]) -> ClosScenario {
        let &[design, workload, dispatch, arbiter, n, r, m, load, capacity, seed] = point else {
            unreachable!("one value per axis");
        };
        ClosScenario {
            radix: n as usize,
            ingress_switches: r as usize,
            middle_switches: m as usize,
            design: self.designs[design as usize],
            workload: self.workloads[workload as usize],
            dispatch: self.dispatches[dispatch as usize],
            arbiter: self.arbiters[arbiter as usize],
            islip_iterations: self.islip_iterations,
            granularity: self.granularity as usize,
            rads_granularity: self.rads_granularity as usize,
            num_banks: self.num_banks as usize,
            load_percent: load,
            egress_period: self.egress_period,
            link_capacity: capacity as usize,
            link_latency: self.link_latency,
            arrival_slots: self.arrival_slots,
            seed: self.seeds[seed as usize],
            overrides: self.overrides,
            faults: self.faults.clone(),
            transport: self.transport,
            obs: self.obs,
        }
    }

    fn validate(scenario: &ClosScenario) -> Result<(), ClosScenarioError> {
        scenario.validate()
    }

    fn run_scenario(&self, scenario: &ClosScenario) -> ClosRunReport {
        scenario.run()
    }

    fn aggregate(runs: &[RunRecord<Self>]) -> ClosAggregate {
        let mut agg = ClosAggregate {
            all_zero_loss: true,
            all_conserving: true,
            ..ClosAggregate::default()
        };
        let mut latency_sum = 0.0f64;
        for run in runs {
            let r = &run.report;
            agg.runs += 1;
            if r.zero_loss {
                agg.zero_loss_runs += 1;
            } else {
                agg.all_zero_loss = false;
            }
            if r.conservation_holds() {
                agg.conserving_runs += 1;
            } else {
                agg.all_conserving = false;
            }
            agg.total_arrivals += r.arrivals;
            agg.total_delivered += r.delivered;
            agg.total_lost_cells += r.lost_cells;
            agg.total_reordered_cells += r.reordered_cells;
            agg.total_credit_stall_slots += r.credit_stall_slots;
            agg.peak_link_depth = agg.peak_link_depth.max(r.peak_link_depth);
            agg.max_latency_slots = agg.max_latency_slots.max(r.max_latency_slots);
            latency_sum += r.mean_latency_slots;
        }
        if agg.runs > 0 {
            agg.mean_latency_slots = latency_sum / agg.runs as f64;
        }
        agg
    }

    fn csv_row(run: &RunRecord<Self>) -> Vec<String> {
        let s = &run.scenario;
        let r = &run.report;
        // Percentile columns are empty unless the run armed the latency
        // probes (obs is an opt-in axis, not a default cost).
        let latency = r.obs.as_ref().and_then(|o| o.latency.as_ref());
        let pct = |f: fn(&::fabric::HistogramReport) -> u64| {
            latency.map(|h| f(h).to_string()).unwrap_or_default()
        };
        vec![
            run.index.to_string(),
            s.radix.to_string(),
            s.ingress_switches.to_string(),
            s.middle_switches.to_string(),
            r.external_ports.to_string(),
            s.design.to_string(),
            s.workload.to_string(),
            s.dispatch.to_string(),
            s.arbiter.to_string(),
            s.load_percent.to_string(),
            s.link_capacity.to_string(),
            s.seed.to_string(),
            r.slots.to_string(),
            r.arrivals.to_string(),
            r.delivered.to_string(),
            r.lost_cells.to_string(),
            r.resident_cells.to_string(),
            r.link_resident_cells.to_string(),
            r.reordered_cells.to_string(),
            r.credit_stall_slots.to_string(),
            r.peak_link_depth.to_string(),
            format!("{:.3}", r.mean_latency_slots),
            r.max_latency_slots.to_string(),
            pct(|h| h.p50),
            pct(|h| h.p95),
            pct(|h| h.p99),
            r.zero_loss.to_string(),
            r.conservation_holds().to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::checks;
    use crate::lab::LabRunner;
    use crate::scenario::Workload;
    use crate::spec::ExperimentSpec;

    fn quick() -> ClosScenario {
        ClosScenario {
            radix: 3,
            ingress_switches: 3,
            middle_switches: 3,
            arrival_slots: 1_200,
            load_percent: 70,
            ..ClosScenario::small()
        }
    }

    #[test]
    fn small_clos_scenario_is_zero_loss_and_conserving() {
        let report = ClosScenario::small().run();
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        assert_eq!(report.external_ports, 16);
        assert!(report.arrivals > 10_000);
        assert_eq!(report.delivered + report.resident_cells, report.arrivals);
    }

    #[test]
    fn every_design_and_dispatch_runs_zero_loss() {
        for design in FabricDesign::all() {
            for dispatch in DispatchChoice::all() {
                let scenario = ClosScenario {
                    design,
                    dispatch,
                    ..quick()
                };
                let report = scenario.run();
                assert!(
                    report.conservation_holds(),
                    "{design}/{dispatch}: {report:?}"
                );
                // The DRAM-only baseline misses under back-to-back requests
                // — that is its point; every worst-case design must not.
                if design != FabricDesign::Fixed(DesignKind::DramOnly) {
                    assert!(report.zero_loss, "{design}/{dispatch}: {report:?}");
                }
                if dispatch == DispatchChoice::FlowHash {
                    assert_eq!(report.reordered_cells, 0, "{design}: pinned flows");
                }
            }
        }
    }

    #[test]
    fn every_workload_runs_conserving() {
        for workload in FabricWorkload::all() {
            let scenario = ClosScenario {
                workload,
                ..quick()
            };
            let report = scenario.run();
            assert!(
                report.zero_loss && report.conservation_holds(),
                "{workload}: {report:?}"
            );
        }
    }

    #[test]
    fn worker_counts_and_reference_agree() {
        let scenario = quick();
        let reference = scenario.run_reference();
        assert_eq!(scenario.run(), reference);
        assert!(reference.zero_loss);
    }

    #[test]
    fn dispatch_names_round_trip() {
        for dispatch in DispatchChoice::all() {
            let text = dispatch.to_string();
            assert_eq!(text.parse::<DispatchChoice>().unwrap(), dispatch, "{text}");
        }
        assert_eq!(
            "occupancy-spray".parse::<DispatchChoice>().unwrap(),
            DispatchChoice::OccupancySpray
        );
        assert!("shotgun".parse::<DispatchChoice>().is_err());
    }

    #[test]
    fn transport_scenario_runs_conserving_across_schedules() {
        let scenario = ClosScenario {
            radix: 3,
            ingress_switches: 3,
            middle_switches: 3,
            arrival_slots: 1_200,
            ..ClosScenario::small_transport()
        };
        assert!(scenario.validate().is_ok());
        let report = scenario.run();
        let transport = report.transport.as_ref().expect("transport report");
        assert!(transport.injected_cells > 1_000, "{transport:?}");
        assert_eq!(transport.duplicate_deliveries, 0);
        assert!(report.transport_conservation_holds());
        assert!(report.conservation_holds());
    }

    #[test]
    fn transport_requires_cut_through_buffers() {
        // The plain small() geometry batches writebacks (B = 8): layering
        // transport over it must be refused, not run pathologically.
        let batched = ClosScenario {
            transport: Some(TransportScenario::default()),
            ..ClosScenario::small()
        };
        assert_eq!(
            batched.validate().unwrap_err(),
            ClosScenarioError::TransportNeedsCutThrough
        );
        let cfds = ClosScenario {
            design: FabricDesign::Fixed(DesignKind::Cfds),
            ..ClosScenario::small_transport()
        };
        assert_eq!(
            cfds.validate().unwrap_err(),
            ClosScenarioError::TransportNeedsCutThrough
        );
        let bad_target = ClosScenario {
            transport: Some(TransportScenario {
                mode: TransportMode::Incast,
                incast_target: 99,
                ..TransportScenario::default()
            }),
            ..ClosScenario::small_transport()
        };
        assert_eq!(
            bad_target.validate().unwrap_err(),
            ClosScenarioError::BadIncastTarget(99, 16)
        );
        let huge_window = ClosScenario {
            transport: Some(TransportScenario {
                cwnd_max: 1 << 54,
                ..TransportScenario::default()
            }),
            ..ClosScenario::small_transport()
        };
        assert_eq!(
            huge_window.validate().unwrap_err(),
            ClosScenarioError::TransportOutOfRange("cwnd_max", traffic::MAX_CWND_CELLS, 1 << 54)
        );
    }

    #[test]
    fn validate_rejects_links_past_their_bounds() {
        let at_bounds = ClosScenario {
            link_capacity: MAX_LINK_CAPACITY,
            link_latency: MAX_LINK_LATENCY,
            ..ClosScenario::small()
        };
        assert_eq!(at_bounds.validate(), Ok(()));
        let wide = ClosScenario {
            link_capacity: MAX_LINK_CAPACITY + 1,
            ..ClosScenario::small()
        };
        assert_eq!(
            wide.validate().unwrap_err(),
            ClosScenarioError::LinkOutOfRange("link_capacity", u64::from(u32::MAX), 1 << 32)
        );
        let slow = ClosScenario {
            link_latency: u64::MAX,
            ..ClosScenario::small()
        };
        assert_eq!(
            slow.validate().unwrap_err(),
            ClosScenarioError::LinkOutOfRange("link_latency", 1 << 32, u64::MAX)
        );
    }

    #[test]
    fn transport_scenario_round_trips_through_json() {
        let scenario = ClosScenario {
            transport: Some(TransportScenario {
                mode: TransportMode::Incast,
                incast_target: 3,
                rto_initial: 16,
                ..TransportScenario::default()
            }),
            ..ClosScenario::small_transport()
        };
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        assert!(json.contains("\"transport\""));
        assert!(json.contains("\"incast\""));
        let back: ClosScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        // Open-loop scenarios keep their pre-transport shape on the wire.
        let open = serde_json::to_string_pretty(ClosScenario::small()).unwrap();
        assert!(!open.contains("\"transport\""));
        // And a spec carries the layer into every expanded run.
        let spec = ClosSpec {
            rads_granularity: 1,
            load_percent: Sweep::list([60, 85]),
            arrival_slots: 400,
            transport: Some(TransportScenario::default()),
            ..ClosSpec::default()
        };
        let spec_json = experiment::to_json(&spec);
        assert_eq!(experiment::from_json::<ClosSpec>(&spec_json).unwrap(), spec);
        let expansion = experiment::expand(&spec).unwrap();
        assert!(expansion
            .runs
            .iter()
            .all(|run| run.transport == spec.transport));
    }

    #[test]
    fn obs_scenario_round_trips_and_reaches_every_expanded_run() {
        let scenario = ClosScenario {
            obs: Some(ObsScenario {
                series_stride: 50,
                series_capacity: 32,
                ..ObsScenario::standard()
            }),
            ..quick()
        };
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        assert!(json.contains("\"obs\""));
        let back: ClosScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        // Unarmed scenarios keep their pre-obs shape on the wire.
        let unarmed = serde_json::to_string_pretty(ClosScenario::small()).unwrap();
        assert!(!unarmed.contains("\"obs\""));
        assert!(
            serde_json::from_str::<ClosScenario>("{\"radix\": 4, \"obs\": {\"x\": 1}}").is_err()
        );
        // A spec carries the probes into every expanded run.
        let spec = ClosSpec {
            load_percent: Sweep::list([60, 85]),
            arrival_slots: 400,
            obs: Some(ObsScenario::standard()),
            ..ClosSpec::default()
        };
        let spec_json = experiment::to_json(&spec);
        assert_eq!(experiment::from_json::<ClosSpec>(&spec_json).unwrap(), spec);
        let expansion = experiment::expand(&spec).unwrap();
        assert!(expansion.runs.iter().all(|run| run.obs == spec.obs));
    }

    #[test]
    fn armed_scenario_reports_probes_and_fills_the_csv_percentiles() {
        let armed = ClosScenario {
            obs: Some(ObsScenario::standard()),
            ..quick()
        };
        let report = armed.run();
        let obs = report.obs.as_ref().expect("armed run reports probes");
        let latency = obs.latency.as_ref().expect("latency histogram");
        assert_eq!(latency.count, report.delivered);
        assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
        // An all-off obs layer leaves the run byte-identical to `None`.
        let off = ClosScenario {
            obs: Some(ObsScenario::default()),
            ..quick()
        };
        let baseline = quick().run();
        assert_eq!(off.run(), baseline);
        assert!(baseline.obs.is_none());
        // The lab CSV exposes the percentiles for armed runs and leaves the
        // columns empty for unarmed ones.
        let lab = ClosLabReport {
            spec: ClosSpec::default(),
            skipped_invalid: 0,
            runs: vec![
                RunRecord {
                    index: 0,
                    scenario: armed,
                    report: report.clone(),
                },
                RunRecord {
                    index: 1,
                    scenario: quick(),
                    report: baseline,
                },
            ],
            aggregate: ClosAggregate::default(),
        };
        let csv = lab.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("latency_p50_slots,latency_p95_slots,latency_p99_slots"));
        let armed_row = lines.next().unwrap();
        assert!(armed_row.contains(&format!(
            ",{},{},{},",
            latency.p50, latency.p95, latency.p99
        )));
        let unarmed_row = lines.next().unwrap();
        assert!(unarmed_row.contains(",,,"));
    }

    #[test]
    fn scenario_validation_catches_bad_parameters() {
        assert!(ClosScenario::small().validate().is_ok());
        let bad = |s: ClosScenario| s.validate().unwrap_err();
        assert_eq!(
            bad(ClosScenario {
                radix: 1,
                ..ClosScenario::small()
            }),
            ClosScenarioError::BadRadix(1)
        );
        assert_eq!(
            bad(ClosScenario {
                ingress_switches: 1,
                ..ClosScenario::small()
            }),
            ClosScenarioError::IngressOutOfRange(1)
        );
        // One word per arbiter row: N sizes the outer switches and r the
        // middle ones, so each stops at 64.
        for (radix, ingress_switches, verdict) in [
            (64, 4, Ok(())),
            (4, 64, Ok(())),
            (65, 4, Err(ClosScenarioError::BadRadix(65))),
            (4, 65, Err(ClosScenarioError::IngressOutOfRange(65))),
        ] {
            let scenario = ClosScenario {
                radix,
                ingress_switches,
                ..ClosScenario::small()
            };
            assert_eq!(
                scenario.validate(),
                verdict,
                "N = {radix}, r = {ingress_switches}"
            );
        }
        assert_eq!(
            bad(ClosScenario {
                middle_switches: 5,
                ..ClosScenario::small()
            }),
            ClosScenarioError::BadMiddle(5, 4)
        );
        assert_eq!(
            bad(ClosScenario {
                load_percent: 0,
                ..ClosScenario::small()
            }),
            ClosScenarioError::BadLoad(0)
        );
        assert_eq!(
            bad(ClosScenario {
                link_capacity: 0,
                ..ClosScenario::small()
            }),
            ClosScenarioError::BadLinkCapacity(0)
        );
        let bad_cfds = ClosScenario {
            design: FabricDesign::Fixed(DesignKind::Cfds),
            granularity: 3, // does not divide B = 8
            ..ClosScenario::small()
        };
        assert!(matches!(
            bad_cfds.validate(),
            Err(ClosScenarioError::Config(_))
        ));
        // A zero granularity is a configuration error, not an overflow.
        let zero_b = ClosScenario {
            granularity: 0,
            ..bad_cfds
        };
        let zero_big_b = ClosScenario {
            rads_granularity: 0,
            ..ClosScenario::small()
        };
        for zeroed in [zero_b, zero_big_b] {
            assert!(
                matches!(
                    zeroed.validate(),
                    Err(ClosScenarioError::Config(ConfigError::ZeroParameter(_)))
                ),
                "{zeroed:?}"
            );
        }
    }

    #[test]
    fn spec_expansion_skips_invalid_geometry() {
        let spec = ClosSpec {
            radix: Sweep::list([3, 4]),
            middle_switches: Sweep::list([3, 4]),
            ingress_switches: Sweep::fixed(3),
            arrival_slots: 400,
            ..ClosSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        // m = 4 > N = 3 is skipped; the other three combinations survive.
        assert_eq!(expansion.runs.len(), 3);
        assert_eq!(expansion.skipped_invalid, 1);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ClosSpec {
            name: "clos-sweep".into(),
            designs: vec![
                FabricDesign::Fixed(DesignKind::Rads),
                FabricDesign::Fixed(DesignKind::Cfds),
            ],
            dispatches: DispatchChoice::all().to_vec(),
            arbiters: ArbiterChoice::all().to_vec(),
            radix: Sweep::list([3, 4]),
            load_percent: Sweep::list([60, 90]),
            link_capacity: Sweep::list([2, 8]),
            arrival_slots: 500,
            seeds: vec![1, 101],
            ..ClosSpec::default()
        };
        experiment::expand(&spec).unwrap();
        checks::spec_documents_round_trip(&spec);
        // Specs saved before the per-stage worker pipeline was removed carry
        // `"workers": 1`: the key still loads, its value is discarded, and
        // it is never written again.
        let json = experiment::to_json(&spec);
        assert!(!json.contains("\"workers\""));
        let legacy = json.replacen('{', "{\n  \"workers\": 1,", 1);
        assert_eq!(experiment::from_json::<ClosSpec>(&legacy).unwrap(), spec);
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = ClosScenario {
            design: FabricDesign::Mixed,
            workload: FabricWorkload::Incast,
            dispatch: DispatchChoice::FlowHash,
            seed: 99,
            ..ClosScenario::small()
        };
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        assert!(!json.contains("\"faults\""), "empty plan stays implicit");
        let back: ClosScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        let minimal: ClosScenario = serde_json::from_str("{\"radix\": 8}").unwrap();
        assert_eq!(minimal.radix, 8);
        assert_eq!(minimal.dispatch, DispatchChoice::Spray);
        assert!(serde_json::from_str::<ClosScenario>("{\"mystery\": 1}").is_err());
    }

    #[test]
    fn faulted_scenario_round_trips_and_validates_geometry() {
        use ::fabric::{FaultEvent, FaultKind, LinkBoundary};
        let scenario = ClosScenario {
            faults: FaultPlan::new([
                FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 300, 200),
                FaultEvent::windowed(
                    FaultKind::LinkFlap {
                        boundary: LinkBoundary::MiddleEgress,
                        switch: 0,
                        output: 1,
                    },
                    600,
                    100,
                ),
            ]),
            ..quick()
        };
        assert!(scenario.validate().is_ok());
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        assert!(json.contains("\"middle-death\""));
        let back: ClosScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        // A plan that targets a middle switch the geometry lacks is caught
        // at validation, before any fabric is built.
        let misfit = ClosScenario {
            faults: FaultPlan::new([FaultEvent::permanent(
                FaultKind::MiddleDeath { switch: 9 },
                100,
            )]),
            ..quick()
        };
        assert!(matches!(
            misfit.validate(),
            Err(ClosScenarioError::Faults(_))
        ));
    }

    #[test]
    fn faulted_scenario_runs_conserving_with_a_ledger() {
        use ::fabric::{FaultEvent, FaultKind};
        let scenario = ClosScenario {
            faults: FaultPlan::new([FaultEvent::windowed(
                FaultKind::MiddleDeath { switch: 1 },
                300,
                250,
            )]),
            ..quick()
        };
        let reference = scenario.run_reference();
        assert!(reference.zero_loss, "{reference:?}");
        assert!(reference.conservation_holds(), "{reference:?}");
        let ledger = reference.faults.as_ref().expect("armed plans report");
        assert_eq!(ledger.events.len(), 1);
        assert!(ledger.stalled_cell_slots > 0, "{ledger:?}");
        assert_eq!(scenario.run(), reference);
    }

    #[test]
    fn spec_faults_reach_every_expanded_run() {
        use ::fabric::{FaultEvent, FaultKind};
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 0 },
            100,
            50,
        )]);
        let spec = ClosSpec {
            radix: Sweep::fixed(3),
            ingress_switches: Sweep::fixed(3),
            middle_switches: Sweep::fixed(3),
            load_percent: Sweep::list([60, 85]),
            arrival_slots: 400,
            faults: plan.clone(),
            ..ClosSpec::default()
        };
        let json = experiment::to_json(&spec);
        assert_eq!(experiment::from_json::<ClosSpec>(&json).unwrap(), spec);
        let expansion = experiment::expand(&spec).unwrap();
        assert_eq!(expansion.runs.len(), 2);
        assert!(expansion.runs.iter().all(|run| run.faults == plan));
        let report = LabRunner::new().with_threads(2).run(&spec).unwrap();
        assert!(report.aggregate.all_conserving, "{:?}", report.aggregate);
        assert!(report.runs.iter().all(|run| run.report.faults.is_some()));
    }

    #[test]
    fn lab_runner_report_is_thread_count_invariant() {
        let spec = ClosSpec {
            dispatches: DispatchChoice::all().to_vec(),
            load_percent: Sweep::list([60, 85]),
            radix: Sweep::fixed(3),
            ingress_switches: Sweep::fixed(3),
            middle_switches: Sweep::fixed(3),
            arrival_slots: 600,
            ..ClosSpec::default()
        };
        checks::thread_count_does_not_change_the_report(&spec, 6);
        let report = LabRunner::new().run(&spec).unwrap();
        assert!(report.aggregate.all_zero_loss);
        assert!(report.aggregate.all_conserving);
    }

    /// The benchmark package still writes its two specs through
    /// `ExperimentSpec::builder` and `ClosSpec::builder`, and round-trips the
    /// Clos one through `ClosSpec::{to_json, from_json}`: those chains must
    /// build what the struct literals do, and the wrappers must encode and
    /// decode as `experiment::{to_json, from_json}`.
    #[test]
    fn the_benchmark_builder_chains_equal_their_struct_literals() {
        let built = ExperimentSpec::builder()
            .name("lab-overhead")
            .designs([DesignKind::Cfds])
            .workloads([Workload::AdversarialRoundRobin])
            .num_queues(Sweep::fixed(32))
            .granularity(Sweep::fixed(4))
            .rads_granularity(Sweep::fixed(16))
            .num_banks(Sweep::fixed(64))
            .arrival_slots(1_024)
            .seeds(0..64)
            .build()
            .unwrap();
        let literal = ExperimentSpec {
            name: "lab-overhead".into(),
            designs: vec![DesignKind::Cfds],
            workloads: vec![Workload::AdversarialRoundRobin],
            num_queues: Sweep::fixed(32),
            granularity: Sweep::fixed(4),
            rads_granularity: Sweep::fixed(16),
            num_banks: Sweep::fixed(64),
            arrival_slots: 1_024,
            seeds: (0..64).collect(),
            ..ExperimentSpec::default()
        };
        assert_eq!(built, literal);

        let built = ClosSpec::builder()
            .name("roundtrip")
            .radix(Sweep::fixed(8))
            .ingress_switches(Sweep::fixed(8))
            .middle_switches(Sweep::fixed(8))
            .load_percent(Sweep::list([50, 85]))
            .arrival_slots(400)
            .seeds([1, 101, 201])
            .build()
            .unwrap();
        let literal = ClosSpec {
            name: "roundtrip".into(),
            radix: Sweep::fixed(8),
            ingress_switches: Sweep::fixed(8),
            middle_switches: Sweep::fixed(8),
            load_percent: Sweep::list([50, 85]),
            arrival_slots: 400,
            seeds: vec![1, 101, 201],
            ..ClosSpec::default()
        };
        assert_eq!(built, literal);
        let text = literal.to_json();
        assert_eq!(text, experiment::to_json(&literal));
        assert_eq!(
            ClosSpec::from_json(&text),
            experiment::from_json::<ClosSpec>(&text)
        );
        assert_eq!(ClosSpec::from_json(&text).unwrap(), literal);
        let refused = "{\"kind\": \"fabric\"}";
        assert_eq!(
            ClosSpec::from_json(refused),
            experiment::from_json::<ClosSpec>(refused)
        );
        assert!(ClosSpec::from_json(refused).is_err());
        let built = ClosSpec::builder().middle_switches(Sweep::fixed(5)).build();
        assert!(matches!(built, Err(SpecError::NoValidRuns(_))), "{built:?}");
    }

    #[test]
    fn oversized_sweeps_are_refused_not_materialised() {
        checks::oversized_products_are_refused::<ClosSpec>(|spec, [a, b, c]| {
            (spec.radix, spec.load_percent, spec.link_capacity) = (a, b, c);
        });
    }
}
