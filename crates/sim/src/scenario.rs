//! Ready-made experiment scenarios shared by tests, examples and benches.

use crate::engine::{SimulationEngine, SimulationReport};
use pktbuf::{CfdsBuffer, CfdsBufferOptions, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{CfdsConfig, ConfigError, ConfigOverrides, RadsConfig};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;
use traffic::{
    stream_seed, AdversarialRoundRobin, ArrivalGenerator, BurstyArrivals, GreedyQueueDrain,
    HotspotArrivals, HotspotRequests, RequestGenerator, UniformArrivals, UniformRandomRequests,
};

/// Error returned when a design or workload name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNameError {
    what: &'static str,
    input: String,
    expected: String,
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as a {} (expected one of: {})",
            self.input, self.what, self.expected
        )
    }
}

impl std::error::Error for ParseNameError {}

/// Lower-cases and strips `-`/`_` so that `"DRAM-only"`, `"dram_only"` and
/// `"dramonly"` all compare equal.
fn normalize_name(s: &str) -> String {
    s.trim()
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// The one `FromStr` of the name enums (shared with the fabric and Clos
/// layers): `s` names the value of `all` whose `Display` form it matches,
/// or the value of an `aliases` entry (a normalized spelling), where
/// matching ignores case, `-` and `_`. The error names `what` was parsed
/// and lists the `Display` names, lower-cased.
pub(crate) fn parse_name<T: Copy + fmt::Display>(
    s: &str,
    what: &'static str,
    all: &[T],
    aliases: &[(&str, T)],
) -> Result<T, ParseNameError> {
    let name = normalize_name(s);
    let by_alias = || aliases.iter().find(|(a, _)| *a == name).map(|&(_, v)| v);
    all.iter()
        .copied()
        .find(|v| normalize_name(&v.to_string()) == name)
        .or_else(by_alias)
        .ok_or_else(|| ParseNameError {
            what,
            input: s.to_owned(),
            expected: all
                .iter()
                .map(|v| v.to_string().to_lowercase())
                .collect::<Vec<_>>()
                .join(", "),
        })
}

/// Which packet-buffer design a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// DRAM-only baseline (§1).
    DramOnly,
    /// Hybrid SRAM/DRAM baseline (§3).
    Rads,
    /// The paper's conflict-free DRAM system (§5).
    Cfds,
}

impl DesignKind {
    /// All designs, baseline first.
    pub fn all() -> [DesignKind; 3] {
        [DesignKind::DramOnly, DesignKind::Rads, DesignKind::Cfds]
    }
}

impl fmt::Display for DesignKind {
    /// The canonical name, matching what the buffers report as
    /// `design_name()` ("DRAM-only", "RADS", "CFDS").
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DesignKind::DramOnly => "DRAM-only",
            DesignKind::Rads => "RADS",
            DesignKind::Cfds => "CFDS",
        })
    }
}

impl FromStr for DesignKind {
    type Err = ParseNameError;

    /// Case-insensitive; `-` and `_` are ignored, so `dram-only`,
    /// `DRAM_only` and the `Display` form all parse.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let aliases = [("dram", DesignKind::DramOnly)];
        parse_name(s, "design", &DesignKind::all(), &aliases)
    }
}

/// Which workload a scenario applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The ECQF worst case: round-robin drain over all queues.
    AdversarialRoundRobin,
    /// Uniform random arrivals and requests.
    UniformRandom,
    /// Bursty (on/off) arrivals with round-robin requests.
    Bursty,
    /// Hot-spotted arrivals and requests.
    Hotspot,
    /// Drain one queue at a time (long same-queue runs).
    GreedyDrain,
}

impl Workload {
    /// All workloads.
    pub fn all() -> [Workload; 5] {
        [
            Workload::AdversarialRoundRobin,
            Workload::UniformRandom,
            Workload::Bursty,
            Workload::Hotspot,
            Workload::GreedyDrain,
        ]
    }
}

impl fmt::Display for Workload {
    /// Kebab-case canonical name (`adversarial-round-robin`, …).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::AdversarialRoundRobin => "adversarial-round-robin",
            Workload::UniformRandom => "uniform-random",
            Workload::Bursty => "bursty",
            Workload::Hotspot => "hotspot",
            Workload::GreedyDrain => "greedy-drain",
        })
    }
}

impl FromStr for Workload {
    type Err = ParseNameError;

    /// Case-insensitive; `-` and `_` are ignored, so the `Display` form, the
    /// Rust variant name and obvious abbreviations all parse.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let aliases = [
            ("arr", Workload::AdversarialRoundRobin),
            ("uniform", Workload::UniformRandom),
            ("greedy", Workload::GreedyDrain),
        ];
        parse_name(s, "workload", &Workload::all(), &aliases)
    }
}

/// Implements string-shaped serde for a type with `Display` + `FromStr`:
/// the documents spell names the `Display` way (`"DRAM-only"`, `"greedy-drain"`)
/// and read them leniently, where a derived enum is its variant name only.
macro_rules! serde_via_string {
    ($ty:ty, $expecting:literal) => {
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_str(&self.to_string())
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> de::Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str($expecting)
                    }
                    fn visit_str<E: de::Error>(self, v: &str) -> Result<Self::Value, E> {
                        v.parse().map_err(|e: ParseNameError| E::custom(e))
                    }
                }
                deserializer.deserialize_any(V)
            }
        }
    };
}

serde_via_string!(DesignKind, "a design name (dram-only, rads, cfds)");
serde_via_string!(Workload, "a workload name");

pub(crate) use serde_via_string;

/// A fully specified experiment scenario: one expanded run of an
/// [`crate::spec::ExperimentSpec`], or a hand-built one-off.
///
/// As JSON a scenario is a flat object. The design, the workload and the
/// four dimensioning parameters are required; `overrides` (none),
/// `preload_cells_per_queue` (0), `arrival_slots` (0) and `seed` (1) may be
/// omitted; unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Design under test.
    pub design: DesignKind,
    /// Workload applied.
    pub workload: Workload,
    /// Number of logical queues `Q`.
    pub num_queues: usize,
    /// CFDS granularity `b` (ignored by RADS and DRAM-only).
    pub granularity: usize,
    /// RADS granularity `B` (DRAM random access time in slots).
    pub rads_granularity: usize,
    /// Number of DRAM banks `M` (CFDS only).
    pub num_banks: usize,
    /// Cells preloaded into the DRAM per queue before the run (rounded down to
    /// a multiple of the transfer granularity).
    #[serde(default)]
    pub preload_cells_per_queue: u64,
    /// Slots during which the arrival generator is active. Preload and live
    /// arrivals are mutually exclusive (sequence numbers would clash).
    #[serde(default)]
    pub arrival_slots: u64,
    /// Seed for the random workloads (arrivals use
    /// [`traffic::stream_seed`]`(seed, 0)`, requests stream 1).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Optional configuration knobs applied on top of the parameters above.
    #[serde(default)]
    pub overrides: ConfigOverrides,
}

/// The seed of a scenario document that does not name one.
fn default_seed() -> u64 {
    1
}

/// Arrival load of the drain-style workloads (adversarial round-robin,
/// greedy drain, hotspot).
const DRAIN_ARRIVAL_LOAD: f64 = 0.9;
/// Arrival load of the uniform-random workload.
const UNIFORM_ARRIVAL_LOAD: f64 = 0.8;
/// Request load of the uniform-random workload.
const REQUEST_LOAD: f64 = 0.9;
/// Mean on-burst length (slots) of the bursty workload.
const BURST_ON_SLOTS: f64 = 32.0;
/// Mean off-gap length (slots) of the bursty workload.
const BURST_OFF_SLOTS: f64 = 8.0;
/// Fraction of hotspot traffic aimed at the hot queues.
const HOT_FRACTION: f64 = 0.8;

/// Number of hot queues in the hotspot workload.
fn hot_queue_count(num_queues: usize) -> usize {
    num_queues.div_ceil(8)
}

impl Scenario {
    /// A small CFDS scenario useful as a smoke test.
    pub fn small_cfds() -> Self {
        Scenario {
            design: DesignKind::Cfds,
            workload: Workload::AdversarialRoundRobin,
            num_queues: 8,
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            preload_cells_per_queue: 32,
            arrival_slots: 0,
            seed: 1,
            overrides: ConfigOverrides::none(),
        }
    }

    /// The RADS configuration implied by this scenario.
    pub fn rads_config(&self) -> RadsConfig {
        self.overrides.apply_rads(RadsConfig {
            num_queues: self.num_queues,
            granularity: self.rads_granularity,
            lookahead: None,
        })
    }

    /// The CFDS configuration implied by this scenario, or the reason it is
    /// invalid.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the parameters violate the divisibility
    /// or lookahead constraints (a sweep's cartesian product may contain such
    /// combinations; the spec layer skips them).
    pub fn try_cfds_config(&self) -> Result<CfdsConfig, ConfigError> {
        let cfg = self.overrides.apply_cfds(CfdsConfig {
            num_queues: self.num_queues,
            granularity: self.granularity,
            rads_granularity: self.rads_granularity,
            num_banks: self.num_banks,
            ..CfdsConfig::default()
        });
        cfg.validate()?;
        Ok(cfg)
    }

    /// The CFDS configuration implied by this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not form a valid CFDS configuration.
    pub fn cfds_config(&self) -> CfdsConfig {
        self.try_cfds_config()
            .expect("scenario parameters form a valid CFDS configuration")
    }

    /// Checks that this scenario's parameters form a valid configuration for
    /// its design.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] exactly when building the buffer would panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.design {
            DesignKind::Cfds => self.try_cfds_config().map(drop),
            DesignKind::DramOnly | DesignKind::Rads => self.rads_config().validate(),
        }
    }

    /// Cells preloaded per queue, rounded down to the design's transfer
    /// granularity.
    fn preload_amount(&self) -> u64 {
        let granularity = match self.design {
            DesignKind::Cfds => self.granularity,
            _ => self.rads_granularity,
        };
        self.preload_cells_per_queue - self.preload_cells_per_queue % granularity as u64
    }

    /// Builds the DRAM-only baseline for this scenario, preloaded as
    /// requested.
    pub fn build_dram_only(&self) -> DramOnlyBuffer {
        let mut buf = DramOnlyBuffer::new(self.rads_config());
        for (q, cells) in traffic::preload_cells(self.num_queues, self.preload_amount()) {
            buf.preload(q, cells);
        }
        buf
    }

    /// Builds the RADS buffer for this scenario, preloaded as requested.
    pub fn build_rads(&self) -> RadsBuffer {
        let mut buf = RadsBuffer::new(self.rads_config());
        for (q, cells) in traffic::preload_cells(self.num_queues, self.preload_amount()) {
            buf.preload_dram(q, cells);
        }
        buf
    }

    /// Builds the CFDS buffer for this scenario, preloaded as requested.
    pub fn build_cfds(&self) -> CfdsBuffer {
        let mut buf = CfdsBuffer::with_options(self.cfds_config(), cfds_options(&self.overrides));
        for (q, cells) in traffic::preload_cells(self.num_queues, self.preload_amount()) {
            buf.preload_dram(q, cells);
        }
        buf
    }

    /// Runs the scenario to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if both a preload and live arrivals are requested (their
    /// sequence numbers would clash).
    pub fn run(&self) -> SimulationReport {
        self.run_with_grant_log(false)
    }

    fn assert_exclusive(&self) {
        assert!(
            self.preload_cells_per_queue == 0 || self.arrival_slots == 0,
            "preload and live arrivals are mutually exclusive in a scenario"
        );
    }

    /// Drives one concrete buffer through the monomorphized engine,
    /// dispatching once per run to concrete generator types: this and
    /// [`Scenario::run_with_requests`] are the one workload → generator
    /// mapping (requests here, arrivals there).
    fn run_engine<B: PacketBuffer>(
        &self,
        buffer: &mut B,
        record: bool,
        mode: EngineMode,
    ) -> SimulationReport {
        let q = self.num_queues;
        let seed = stream_seed(self.seed, 1);
        match self.workload {
            Workload::AdversarialRoundRobin | Workload::Bursty => {
                self.run_with_requests(buffer, AdversarialRoundRobin::new(q), record, mode)
            }
            Workload::UniformRandom => self.run_with_requests(
                buffer,
                UniformRandomRequests::new(q, REQUEST_LOAD, seed),
                record,
                mode,
            ),
            Workload::Hotspot => self.run_with_requests(
                buffer,
                HotspotRequests::new(q, hot_queue_count(q), HOT_FRACTION, seed),
                record,
                mode,
            ),
            Workload::GreedyDrain => {
                self.run_with_requests(buffer, GreedyQueueDrain::new(q), record, mode)
            }
        }
    }

    fn run_with_requests<B: PacketBuffer, R: RequestGenerator>(
        &self,
        buffer: &mut B,
        mut requests: R,
        record: bool,
        mode: EngineMode,
    ) -> SimulationReport {
        let q = self.num_queues;
        let engine = SimulationEngine::new_mono(buffer).record_grants(record);
        if self.arrival_slots == 0 {
            let mut no_arrivals = NoArrivals { num_queues: q };
            return dispatch_engine(mode, engine, &mut no_arrivals, &mut requests, 0);
        }
        let seed = stream_seed(self.seed, 0);
        match self.workload {
            Workload::AdversarialRoundRobin | Workload::GreedyDrain => dispatch_engine(
                mode,
                engine,
                &mut UniformArrivals::new(q, DRAIN_ARRIVAL_LOAD, seed),
                &mut requests,
                self.arrival_slots,
            ),
            Workload::UniformRandom => dispatch_engine(
                mode,
                engine,
                &mut UniformArrivals::new(q, UNIFORM_ARRIVAL_LOAD, seed),
                &mut requests,
                self.arrival_slots,
            ),
            Workload::Bursty => dispatch_engine(
                mode,
                engine,
                &mut BurstyArrivals::new(q, BURST_ON_SLOTS, BURST_OFF_SLOTS, seed),
                &mut requests,
                self.arrival_slots,
            ),
            Workload::Hotspot => dispatch_engine(
                mode,
                engine,
                &mut HotspotArrivals::new(
                    q,
                    DRAIN_ARRIVAL_LOAD,
                    hot_queue_count(q),
                    HOT_FRACTION,
                    seed,
                ),
                &mut requests,
                self.arrival_slots,
            ),
        }
    }

    /// Runs the scenario, optionally recording the per-grant queue log.
    ///
    /// Dispatches once on the design and then runs the monomorphized
    /// **chunked** engine ([`SimulationEngine::run_chunked`]) for the
    /// concrete buffer type: batch arrival generation, fused slot batches,
    /// idle fast-forward. [`Scenario::run_per_slot_with_grant_log`] keeps the
    /// monomorphized per-slot engine; the two produce bit-identical reports
    /// (pinned by the `chunked_equivalence` suite).
    ///
    /// # Panics
    ///
    /// Panics if both a preload and live arrivals are requested.
    pub fn run_with_grant_log(&self, record: bool) -> SimulationReport {
        self.run_mono(record, EngineMode::Chunked)
    }

    /// Runs the scenario through the monomorphized **per-slot** engine — the
    /// reference the chunked engine is differentially tested (and
    /// benchmarked) against.
    ///
    /// # Panics
    ///
    /// Panics if both a preload and live arrivals are requested.
    pub fn run_per_slot_with_grant_log(&self, record: bool) -> SimulationReport {
        self.run_mono(record, EngineMode::PerSlot)
    }

    fn run_mono(&self, record: bool, mode: EngineMode) -> SimulationReport {
        self.assert_exclusive();
        match self.design {
            DesignKind::DramOnly => self.run_engine(&mut self.build_dram_only(), record, mode),
            DesignKind::Rads => self.run_engine(&mut self.build_rads(), record, mode),
            DesignKind::Cfds => self.run_engine(&mut self.build_cfds(), record, mode),
        }
    }
}

/// The CFDS buffer options `overrides` asks for: the buffer-level
/// `dram_capacity_cells` limit that [`ConfigOverrides::apply_cfds`] leaves to
/// the construction site.
pub(crate) fn cfds_options(overrides: &ConfigOverrides) -> CfdsBufferOptions {
    CfdsBufferOptions {
        dram_capacity_cells: overrides
            .dram_capacity_cells
            .map(|c| usize::try_from(c).unwrap_or(usize::MAX)),
        ..CfdsBufferOptions::default()
    }
}

/// Which monomorphized engine loop a scenario run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineMode {
    /// Chunked batch loop with idle fast-forward (the default).
    Chunked,
    /// Slot-by-slot reference loop.
    PerSlot,
}

/// Monomorphizes the engine-mode choice: one branch per run, then a fully
/// concrete engine/generator/buffer loop either way.
fn dispatch_engine<B, A, R>(
    mode: EngineMode,
    engine: SimulationEngine<'_, B>,
    arrivals: &mut A,
    requests: &mut R,
    slots: u64,
) -> SimulationReport
where
    B: PacketBuffer,
    A: ArrivalGenerator + ?Sized,
    R: RequestGenerator,
{
    match mode {
        EngineMode::Chunked => engine.run_chunked(arrivals, requests, slots),
        EngineMode::PerSlot => engine.run(arrivals, requests, slots),
    }
}

/// An arrival generator that never produces a cell (preload-only scenarios).
#[derive(Debug, Clone, Copy)]
struct NoArrivals {
    num_queues: usize,
}

impl ArrivalGenerator for NoArrivals {
    fn next(&mut self, _slot: u64) -> Option<pktbuf_model::Cell> {
        None
    }

    fn num_queues(&self) -> usize {
        self.num_queues
    }

    fn name(&self) -> &'static str {
        "preload-only"
    }
}

/// Runs the same preloaded drain against every design and checks that the
/// delivered per-queue cell counts agree. Returns the reports in
/// [`DesignKind::all`] order.
pub fn run_design_comparison(base: &Scenario) -> Vec<SimulationReport> {
    DesignKind::all()
        .iter()
        .map(|design| {
            let scenario = Scenario {
                design: *design,
                ..*base
            };
            scenario.run_with_grant_log(true)
        })
        .collect()
}

/// Convenience: how many cells each queue received in a grant log.
pub fn grants_per_queue(report: &SimulationReport, num_queues: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_queues];
    if let Some(log) = &report.grant_log {
        for q in log {
            counts[*q as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cfds_scenario_is_loss_free() {
        let report = Scenario::small_cfds().run();
        assert!(report.stats.is_loss_free(), "{:?}", report.stats);
        assert_eq!(report.stats.grants, 8 * 32);
        assert_eq!(report.design, "CFDS");
    }

    #[test]
    fn rads_scenario_with_live_arrivals() {
        let scenario = Scenario {
            design: DesignKind::Rads,
            workload: Workload::UniformRandom,
            preload_cells_per_queue: 0,
            arrival_slots: 2_000,
            num_queues: 4,
            granularity: 2,
            rads_granularity: 4,
            num_banks: 8,
            seed: 3,
            ..Scenario::small_cfds()
        };
        let report = scenario.run();
        assert_eq!(report.design, "RADS");
        assert!(report.stats.is_loss_free(), "{:?}", report.stats);
        assert!(report.stats.grants > 100);
    }

    #[test]
    fn design_comparison_grants_the_same_cells() {
        let base = Scenario {
            preload_cells_per_queue: 16,
            ..Scenario::small_cfds()
        };
        let reports = run_design_comparison(&base);
        assert_eq!(reports.len(), 3);
        // RADS and CFDS deliver every preloaded cell; the DRAM-only baseline
        // cannot keep up with back-to-back requests and misses instead.
        let per_queue_rads = grants_per_queue(&reports[1], base.num_queues);
        let per_queue_cfds = grants_per_queue(&reports[2], base.num_queues);
        assert_eq!(per_queue_rads, per_queue_cfds);
        assert!(per_queue_rads.iter().all(|&c| c == 16));
        assert!(reports[0].stats.misses > 0, "DRAM-only must fall behind");
        assert!(reports[1].stats.is_loss_free());
        assert!(reports[2].stats.is_loss_free());
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn preload_and_arrivals_are_exclusive() {
        let scenario = Scenario {
            arrival_slots: 100,
            ..Scenario::small_cfds()
        };
        let _ = scenario.run();
    }

    #[test]
    fn enumerations_cover_all_variants() {
        assert_eq!(DesignKind::all().len(), 3);
        assert_eq!(Workload::all().len(), 5);
    }

    #[test]
    fn design_names_round_trip_exhaustively() {
        for design in DesignKind::all() {
            let text = design.to_string();
            assert_eq!(text.parse::<DesignKind>().unwrap(), design, "{text}");
            // Variant-name and mangled spellings parse too.
            assert_eq!(format!("{design:?}").parse::<DesignKind>().unwrap(), design);
            assert_eq!(
                text.to_uppercase()
                    .replace('-', "_")
                    .parse::<DesignKind>()
                    .unwrap(),
                design
            );
        }
        assert!("quantum".parse::<DesignKind>().is_err());
    }

    #[test]
    fn workload_names_round_trip_exhaustively() {
        for workload in Workload::all() {
            let text = workload.to_string();
            assert_eq!(text.parse::<Workload>().unwrap(), workload, "{text}");
            assert_eq!(
                format!("{workload:?}").parse::<Workload>().unwrap(),
                workload
            );
        }
        assert_eq!(
            "ARR".parse::<Workload>().unwrap(),
            Workload::AdversarialRoundRobin
        );
        assert_eq!("greedy".parse::<Workload>().unwrap(), Workload::GreedyDrain);
        assert!("chaos".parse::<Workload>().is_err());
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = Scenario {
            workload: Workload::Hotspot,
            seed: 99,
            overrides: pktbuf_model::ConfigOverrides {
                lookahead: Some(64),
                ..Default::default()
            },
            ..Scenario::small_cfds()
        };
        let json = serde_json::to_string_pretty(scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        // Omitted optional fields take their defaults.
        let minimal: Scenario = serde_json::from_str(
            "{\"design\":\"cfds\",\"workload\":\"bursty\",\"num_queues\":8,\
             \"granularity\":2,\"rads_granularity\":8,\"num_banks\":16}",
        )
        .unwrap();
        assert_eq!(minimal.seed, 1);
        assert!(minimal.overrides.is_none());
    }

    #[test]
    fn scenario_validate_matches_buffer_construction() {
        assert!(Scenario::small_cfds().validate().is_ok());
        let bad = Scenario {
            granularity: 3, // does not divide B = 8
            ..Scenario::small_cfds()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn every_workload_runs_on_cfds_without_loss() {
        for workload in Workload::all() {
            let scenario = Scenario {
                workload,
                preload_cells_per_queue: 0,
                arrival_slots: 1_500,
                ..Scenario::small_cfds()
            };
            let report = scenario.run();
            assert!(
                report.stats.is_loss_free(),
                "{workload:?}: {:?}",
                report.stats
            );
        }
    }
}
