//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is the serializable description of a whole
//! experiment: which designs and workloads to cross, which parameter axes to
//! sweep ([`Sweep`]), how long to run, and which seeds to use. It expands into
//! a cartesian product of [`Scenario`]s that [`crate::lab::LabRunner`]
//! executes — experiments are *data*, not hand-wired binaries. It is the
//! single-buffer layer of the shared stack in [`crate::experiment`].
//!
//! Specs round-trip through JSON (see [`experiment::to_json`] /
//! [`experiment::from_json`]) and every axis value also parses from the
//! compact CLI syntax of [`Sweep`]'s `FromStr` (`64`, `64,128,256`,
//! `64..1024*2`, `64..256+64`).

use crate::experiment::{self, Axis, Experiment};
use crate::lab::RunRecord;
use crate::scenario::{DesignKind, Scenario, Workload};
use crate::SimulationReport;
use pktbuf_model::{ConfigError, ConfigOverrides};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;

/// Error produced when building, parsing or expanding a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An axis that must contribute at least one value is empty.
    EmptyAxis(&'static str),
    /// A sweep's parameters cannot produce values (zero step, factor < 2, …).
    BadSweep(String),
    /// Preload and live arrivals were both requested.
    PreloadAndArrivals,
    /// Every combination in the cartesian product was invalid; the first
    /// one's validation error.
    NoValidRuns(String),
    /// The axes multiply to more combinations than
    /// [`MAX_COMBINATIONS`](crate::experiment::MAX_COMBINATIONS).
    TooManyCombinations {
        /// Product of the axis lengths (saturating).
        combinations: u128,
        /// The fixed limit.
        limit: u64,
    },
    /// The JSON text was malformed or did not match the spec shape.
    Json(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyAxis(axis) => write!(f, "axis {axis:?} has no values"),
            SpecError::BadSweep(msg) => write!(f, "bad sweep: {msg}"),
            SpecError::PreloadAndArrivals => write!(
                f,
                "preload_cells_per_queue and arrival_slots are mutually exclusive \
                 (their sequence numbers would clash)"
            ),
            SpecError::NoValidRuns(first) => write!(
                f,
                "no combination of the swept parameters forms a valid configuration; \
                 first invalid point: {first}"
            ),
            SpecError::TooManyCombinations {
                combinations,
                limit,
            } => write!(
                f,
                "the swept axes multiply to {combinations} combinations; \
                 the limit is {limit}"
            ),
            SpecError::Json(msg) => write!(f, "spec JSON: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One sweep axis: the values a single numeric parameter takes across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sweep {
    /// A single value (the axis does not vary).
    Fixed(u64),
    /// An explicit list of values.
    List(Vec<u64>),
    /// `start, start+step, …` up to and including `end` where reached.
    Linear {
        /// First value.
        start: u64,
        /// Inclusive upper bound.
        end: u64,
        /// Increment (must be > 0).
        step: u64,
    },
    /// `start, start*factor, …` up to and including `end` where reached.
    Geometric {
        /// First value.
        start: u64,
        /// Inclusive upper bound.
        end: u64,
        /// Multiplier (must be ≥ 2).
        factor: u64,
    },
}

impl Sweep {
    /// A non-varying axis.
    pub fn fixed(value: u64) -> Self {
        Sweep::Fixed(value)
    }

    /// An explicit list axis.
    pub fn list(values: impl IntoIterator<Item = u64>) -> Self {
        Sweep::List(values.into_iter().collect())
    }

    /// The doubling sweep `start, 2·start, … ≤ end` (the shape of most of the
    /// paper's axes: queues, banks, granularities).
    pub fn doubling(start: u64, end: u64) -> Self {
        Sweep::Geometric {
            start,
            end,
            factor: 2,
        }
    }

    /// How many values the axis has, worked out without listing them (a
    /// linear range counts as `(end − start) / step + 1`, saturating).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::BadSweep`] when the parameters cannot produce a
    /// non-empty, finite list.
    pub fn count(&self) -> Result<u64, SpecError> {
        match self {
            Sweep::Fixed(_) => Ok(1),
            Sweep::List(vs) if vs.is_empty() => Err(SpecError::BadSweep("empty value list".into())),
            Sweep::List(vs) => Ok(vs.len() as u64),
            Sweep::Linear { start, end, step } => {
                if *step == 0 {
                    return Err(SpecError::BadSweep("linear step must be > 0".into()));
                }
                if end < start {
                    return Err(SpecError::BadSweep(format!(
                        "linear range {start}..{end} is empty"
                    )));
                }
                Ok(((end - start) / step).saturating_add(1))
            }
            Sweep::Geometric { start, end, factor } => {
                if *factor < 2 {
                    return Err(SpecError::BadSweep("geometric factor must be ≥ 2".into()));
                }
                if *start == 0 || end < start {
                    return Err(SpecError::BadSweep(format!(
                        "geometric range {start}..{end} is empty"
                    )));
                }
                Ok(geometric(*start, *end, *factor).count() as u64)
            }
        }
    }

    /// Expands the axis into its values, in sweep order. The list is
    /// allocated as [`Sweep::count`] says: bound that first where the sweep
    /// comes from outside the program, as [`experiment::expand`] does.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::BadSweep`] when the parameters cannot produce a
    /// non-empty, finite list.
    pub fn values(&self) -> Result<Vec<u64>, SpecError> {
        self.count()?;
        Ok(match self {
            Sweep::Fixed(v) => vec![*v],
            Sweep::List(vs) => vs.clone(),
            Sweep::Linear { start, end, step } => (*start..=*end).step_by(*step as usize).collect(),
            Sweep::Geometric { start, end, factor } => geometric(*start, *end, *factor).collect(),
        })
    }
}

/// `start, start·factor, … ≤ end`, stopping where the next value would not
/// fit a `u64` (so at most 64 values).
fn geometric(start: u64, end: u64, factor: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(start), move |v| v.checked_mul(factor))
        .take_while(move |v| *v <= end)
}

impl fmt::Display for Sweep {
    /// The compact CLI syntax: `64`, `64,128,256`, `64..256+64`, `64..1024*2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sweep::Fixed(v) => write!(f, "{v}"),
            Sweep::List(vs) => {
                let mut first = true;
                for v in vs {
                    if !first {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                    first = false;
                }
                Ok(())
            }
            Sweep::Linear { start, end, step } => write!(f, "{start}..{end}+{step}"),
            Sweep::Geometric { start, end, factor } => write!(f, "{start}..{end}*{factor}"),
        }
    }
}

impl FromStr for Sweep {
    type Err = SpecError;

    /// Parses the compact syntax rendered by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let bad = |msg: String| SpecError::BadSweep(msg);
        let int = |txt: &str| -> Result<u64, SpecError> {
            txt.trim()
                .parse()
                .map_err(|_| bad(format!("{txt:?} is not an unsigned integer")))
        };
        if let Some((range, tail)) = s.split_once("..") {
            let start = int(range)?;
            return if let Some((end, factor)) = tail.split_once('*') {
                Ok(Sweep::Geometric {
                    start,
                    end: int(end)?,
                    factor: int(factor)?,
                })
            } else if let Some((end, step)) = tail.split_once('+') {
                Ok(Sweep::Linear {
                    start,
                    end: int(end)?,
                    step: int(step)?,
                })
            } else {
                Err(bad(format!(
                    "range {s:?} needs '*factor' (geometric) or '+step' (linear)"
                )))
            };
        }
        if s.contains(',') {
            let values = s
                .split(',')
                .filter(|part| !part.trim().is_empty())
                .map(int)
                .collect::<Result<Vec<u64>, SpecError>>()?;
            if values.is_empty() {
                return Err(bad("empty value list".into()));
            }
            return Ok(Sweep::List(values));
        }
        Ok(Sweep::Fixed(int(s)?))
    }
}

// Hand-written (the derive has no untagged enums): a sweep is a JSON number
// (fixed), array (list), object (linear/geometric, told apart by their
// "step"/"factor" key), or a string in the CLI syntax.
impl Serialize for Sweep {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        match self {
            Sweep::Fixed(v) => serializer.serialize_u64(*v),
            Sweep::List(vs) => vs.serialize(serializer),
            Sweep::Linear { start, end, step } => {
                let mut st = serializer.serialize_struct("Sweep", 3)?;
                st.serialize_field("start", start)?;
                st.serialize_field("end", end)?;
                st.serialize_field("step", step)?;
                st.end()
            }
            Sweep::Geometric { start, end, factor } => {
                let mut st = serializer.serialize_struct("Sweep", 3)?;
                st.serialize_field("start", start)?;
                st.serialize_field("end", end)?;
                st.serialize_field("factor", factor)?;
                st.end()
            }
        }
    }
}

impl<'de> Deserialize<'de> for Sweep {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = Sweep;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a number, an array of numbers, a range object, or a sweep string")
            }
            fn visit_u64<E: de::Error>(self, v: u64) -> Result<Sweep, E> {
                Ok(Sweep::Fixed(v))
            }
            fn visit_str<E: de::Error>(self, v: &str) -> Result<Sweep, E> {
                v.parse().map_err(|e: SpecError| E::custom(e))
            }
            fn visit_seq<A: de::SeqAccess<'de>>(self, mut seq: A) -> Result<Sweep, A::Error> {
                let mut values = Vec::new();
                while let Some(v) = seq.next_element::<u64>()? {
                    values.push(v);
                }
                Ok(Sweep::List(values))
            }
            fn visit_map<A: de::MapAccess<'de>>(self, mut map: A) -> Result<Sweep, A::Error> {
                let (mut start, mut end, mut step, mut factor) = (None, None, None, None);
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "start" => start = Some(map.next_value()?),
                        "end" => end = Some(map.next_value()?),
                        "step" => step = Some(map.next_value()?),
                        "factor" => factor = Some(map.next_value()?),
                        other => {
                            return Err(de::Error::custom(format_args!(
                                "unknown sweep field {other:?}"
                            )))
                        }
                    }
                }
                let start =
                    start.ok_or_else(|| de::Error::custom("sweep object is missing \"start\""))?;
                let end =
                    end.ok_or_else(|| de::Error::custom("sweep object is missing \"end\""))?;
                match (step, factor) {
                    (Some(step), None) => Ok(Sweep::Linear { start, end, step }),
                    (None, Some(factor)) => Ok(Sweep::Geometric { start, end, factor }),
                    _ => Err(de::Error::custom(
                        "sweep object needs exactly one of \"step\" or \"factor\"",
                    )),
                }
            }
        }
        deserializer.deserialize_any(V)
    }
}

/// A declarative, serializable experiment: designs × workloads × swept
/// parameters × seeds, expanded into [`Scenario`]s by
/// [`experiment::expand`]. The axes expand in field order, designs outermost
/// and seeds innermost; `granularity` and `num_banks` collapse to their first
/// value for RADS and DRAM-only runs, which do not read them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentSpec {
    /// Experiment name (used in reports and file names).
    pub name: String,
    /// Designs to cross (outermost expansion axis).
    pub designs: Vec<DesignKind>,
    /// Workloads to cross.
    pub workloads: Vec<Workload>,
    /// Sweep of the number of logical queues `Q`.
    pub num_queues: Sweep,
    /// Sweep of the CFDS granularity `b`.
    pub granularity: Sweep,
    /// Sweep of the RADS granularity `B`.
    pub rads_granularity: Sweep,
    /// Sweep of the number of DRAM banks `M`.
    pub num_banks: Sweep,
    /// Cells preloaded per queue (mutually exclusive with `arrival_slots`).
    pub preload_cells_per_queue: u64,
    /// Live-arrival slots (mutually exclusive with the preload).
    pub arrival_slots: u64,
    /// Seeds to cross (innermost expansion axis).
    pub seeds: Vec<u64>,
    /// Whether each run records its per-grant queue log.
    pub record_grants: bool,
    /// Configuration knobs applied to every run.
    pub overrides: ConfigOverrides,
}

impl ExperimentSpec {
    /// A builder over [`ExperimentSpec::default`]. Kept only because the
    /// fenced `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
    pub fn builder() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::default()
    }
}

/// Aggregate statistics over every run of an experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LabAggregate {
    /// Number of runs executed.
    pub runs: u64,
    /// Runs that upheld every worst-case guarantee.
    pub loss_free_runs: u64,
    /// Total cells granted across runs.
    pub total_grants: u64,
    /// Total misses across runs (0 wherever the paper claims zero-miss).
    pub total_misses: u64,
    /// Total drops across runs.
    pub total_drops: u64,
    /// Total bank conflicts across runs (must stay 0 for CFDS).
    pub total_bank_conflicts: u64,
    /// Largest head-SRAM occupancy any run observed (cells).
    pub peak_head_sram_cells: u64,
    /// Largest requests-register occupancy any run observed (entries).
    pub peak_rr_entries: u64,
    /// Mean grants/slot over the runs (unweighted).
    pub mean_grants_per_slot: f64,
    /// Whether every run was loss-free.
    pub all_loss_free: bool,
}

impl Experiment for ExperimentSpec {
    type Scenario = Scenario;
    type Report = SimulationReport;
    type Aggregate = LabAggregate;
    type Invalid = ConfigError;

    // `line_rate`: written while configurations carried a line rate that no
    // run read; `--print-spec` always emitted it.
    const RETIRED_KEYS: &'static [&'static str] = &["line_rate"];
    const CSV_HEADER: &'static [&'static str] = &[
        "index",
        "design",
        "workload",
        "num_queues",
        "granularity",
        "rads_granularity",
        "num_banks",
        "preload_cells_per_queue",
        "arrival_slots",
        "seed",
        "slots",
        "grants",
        "misses",
        "drops",
        "bank_conflicts",
        "peak_head_sram_cells",
        "peak_rr_entries",
        "grants_per_slot",
        "loss_free",
    ];

    fn axes(&self) -> Vec<Axis<'_>> {
        vec![
            Axis::Choices("designs", self.designs.len()),
            Axis::Choices("workloads", self.workloads.len()),
            Axis::Sweep("num_queues", &self.num_queues),
            Axis::CfdsSweep("granularity", &self.granularity),
            Axis::Sweep("rads_granularity", &self.rads_granularity),
            Axis::CfdsSweep("num_banks", &self.num_banks),
            Axis::Choices("seeds", self.seeds.len()),
        ]
    }

    fn check(&self) -> Result<(), SpecError> {
        if self.preload_cells_per_queue > 0 && self.arrival_slots > 0 {
            return Err(SpecError::PreloadAndArrivals);
        }
        Ok(())
    }

    fn has_cfds(scenario: &Scenario) -> bool {
        scenario.design == DesignKind::Cfds
    }

    fn scenario_at(&self, point: &[u64]) -> Scenario {
        let &[design, workload, q, b, big_b, m, seed] = point else {
            unreachable!("one value per axis");
        };
        Scenario {
            design: self.designs[design as usize],
            workload: self.workloads[workload as usize],
            num_queues: q as usize,
            granularity: b as usize,
            rads_granularity: big_b as usize,
            num_banks: m as usize,
            preload_cells_per_queue: self.preload_cells_per_queue,
            arrival_slots: self.arrival_slots,
            seed: self.seeds[seed as usize],
            overrides: self.overrides,
        }
    }

    fn validate(scenario: &Scenario) -> Result<(), ConfigError> {
        scenario.validate()
    }

    fn run_scenario(&self, scenario: &Scenario) -> SimulationReport {
        scenario.run_with_grant_log(self.record_grants)
    }

    fn aggregate(runs: &[RunRecord<Self>]) -> LabAggregate {
        let mut agg = LabAggregate {
            all_loss_free: true,
            ..LabAggregate::default()
        };
        let mut grants_per_slot_sum = 0.0f64;
        for run in runs {
            let stats = &run.report.stats;
            agg.runs += 1;
            if stats.is_loss_free() {
                agg.loss_free_runs += 1;
            } else {
                agg.all_loss_free = false;
            }
            agg.total_grants += stats.grants;
            agg.total_misses += stats.misses;
            agg.total_drops += stats.drops;
            agg.total_bank_conflicts += stats.bank_conflicts;
            agg.peak_head_sram_cells = agg.peak_head_sram_cells.max(stats.peak_head_sram_cells);
            agg.peak_rr_entries = agg.peak_rr_entries.max(stats.peak_rr_entries);
            grants_per_slot_sum += run.report.grants_per_slot();
        }
        if agg.runs > 0 {
            agg.mean_grants_per_slot = grants_per_slot_sum / agg.runs as f64;
        }
        agg
    }

    fn csv_row(run: &RunRecord<Self>) -> Vec<String> {
        let s = &run.scenario;
        let r = &run.report;
        vec![
            run.index.to_string(),
            s.design.to_string(),
            s.workload.to_string(),
            s.num_queues.to_string(),
            s.granularity.to_string(),
            s.rads_granularity.to_string(),
            s.num_banks.to_string(),
            s.preload_cells_per_queue.to_string(),
            s.arrival_slots.to_string(),
            s.seed.to_string(),
            r.slots.to_string(),
            r.stats.grants.to_string(),
            r.stats.misses.to_string(),
            r.stats.drops.to_string(),
            r.stats.bank_conflicts.to_string(),
            r.stats.peak_head_sram_cells.to_string(),
            r.stats.peak_rr_entries.to_string(),
            format!("{:.6}", r.grants_per_slot()),
            r.stats.is_loss_free().to_string(),
        ]
    }
}

impl Default for ExperimentSpec {
    /// The spec's defaults: CFDS, the adversarial round-robin workload, 32
    /// queues, `b = 4`, `B = 16`, 64 banks, 10 000 live-arrival slots, seed 1.
    fn default() -> Self {
        ExperimentSpec {
            name: "experiment".to_owned(),
            designs: vec![DesignKind::Cfds],
            workloads: vec![Workload::AdversarialRoundRobin],
            num_queues: Sweep::Fixed(32),
            granularity: Sweep::Fixed(4),
            rads_granularity: Sweep::Fixed(16),
            num_banks: Sweep::Fixed(64),
            preload_cells_per_queue: 0,
            arrival_slots: 10_000,
            seeds: vec![1],
            record_grants: false,
            overrides: ConfigOverrides::none(),
        }
    }
}

/// Field setters over [`ExperimentSpec::default`]. Kept only because the
/// fenced `benchmark/src/layers.rs` calls it; goes with ROADMAP item 3.
#[derive(Debug, Clone, Default)]
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpecBuilder {
    /// Sets the experiment name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Sets the designs axis.
    pub fn designs(mut self, designs: impl IntoIterator<Item = DesignKind>) -> Self {
        self.spec.designs = designs.into_iter().collect();
        self
    }

    /// Sets the workloads axis.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.spec.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the queues axis.
    pub fn num_queues(mut self, sweep: Sweep) -> Self {
        self.spec.num_queues = sweep;
        self
    }

    /// Sets the CFDS granularity axis.
    pub fn granularity(mut self, sweep: Sweep) -> Self {
        self.spec.granularity = sweep;
        self
    }

    /// Sets the RADS granularity axis.
    pub fn rads_granularity(mut self, sweep: Sweep) -> Self {
        self.spec.rads_granularity = sweep;
        self
    }

    /// Sets the DRAM banks axis.
    pub fn num_banks(mut self, sweep: Sweep) -> Self {
        self.spec.num_banks = sweep;
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
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        experiment::expand(&self.spec)?;
        Ok(self.spec)
    }
}

// Hand-written (the derive has no rule that looks at two keys): omitted keys
// keep the spec's defaults, except that a preload turns an *unwritten*
// `arrival_slots` off.
impl<'de> Deserialize<'de> for ExperimentSpec {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = ExperimentSpec;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an experiment-spec object")
            }
            fn visit_map<A: de::MapAccess<'de>>(
                self,
                mut map: A,
            ) -> Result<ExperimentSpec, A::Error> {
                // Unknown fields are rejected; omitted fields keep the
                // spec's defaults, so a minimal spec file stays minimal.
                let mut spec = ExperimentSpec::default();
                let mut arrival_slots_written = false;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "name" => spec.name = map.next_value()?,
                        "designs" => spec.designs = map.next_value()?,
                        "workloads" => spec.workloads = map.next_value()?,
                        "num_queues" => spec.num_queues = map.next_value()?,
                        "granularity" => spec.granularity = map.next_value()?,
                        "rads_granularity" => spec.rads_granularity = map.next_value()?,
                        "num_banks" => spec.num_banks = map.next_value()?,
                        "preload_cells_per_queue" => {
                            spec.preload_cells_per_queue = map.next_value()?;
                        }
                        "arrival_slots" => {
                            spec.arrival_slots = map.next_value()?;
                            arrival_slots_written = true;
                        }
                        "seeds" => spec.seeds = map.next_value()?,
                        "record_grants" => spec.record_grants = map.next_value()?,
                        "overrides" => spec.overrides = map.next_value()?,
                        other => {
                            return Err(de::Error::custom(format_args!(
                                "unknown spec field {other:?}"
                            )))
                        }
                    }
                }
                // A preload spec that never mentioned live arrivals drops the
                // defaulted arrival_slots; an *explicitly written* nonzero
                // value is kept as-is, so expand() reports the conflict
                // instead of a silent, value-dependent rewrite.
                if spec.preload_cells_per_queue > 0 && !arrival_slots_written {
                    spec.arrival_slots = 0;
                }
                Ok(spec)
            }
        }
        deserializer.deserialize_any(V)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::checks;

    #[test]
    fn sweeps_expand_in_order() {
        assert_eq!(Sweep::fixed(64).values().unwrap(), vec![64]);
        assert_eq!(
            Sweep::list([3, 1, 2]).values().unwrap(),
            vec![3, 1, 2],
            "lists keep their order"
        );
        assert_eq!(
            Sweep::doubling(64, 1024).values().unwrap(),
            vec![64, 128, 256, 512, 1024]
        );
        assert_eq!(
            Sweep::Linear {
                start: 10,
                end: 30,
                step: 10
            }
            .values()
            .unwrap(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn sweeps_count_their_values_without_listing_them() {
        for sweep in [
            Sweep::fixed(64),
            Sweep::list([3, 1, 2]),
            Sweep::doubling(64, 1000),
            Sweep::doubling(1, u64::MAX),
            Sweep::Linear {
                start: 10,
                end: 35,
                step: 10,
            },
        ] {
            let values = sweep.values().unwrap();
            assert_eq!(sweep.count().unwrap(), values.len() as u64, "{sweep}");
        }
        let whole_range = Sweep::Linear {
            start: 0,
            end: u64::MAX,
            step: 1,
        };
        assert_eq!(whole_range.count().unwrap(), u64::MAX, "saturates");
    }

    #[test]
    fn oversized_sweeps_are_refused_not_materialised() {
        checks::oversized_products_are_refused::<ExperimentSpec>(|spec, [a, b, c]| {
            (spec.num_queues, spec.rads_granularity, spec.num_banks) = (a, b, c);
        });
    }

    #[test]
    fn sweeps_reject_degenerate_parameters() {
        assert!(Sweep::List(Vec::new()).values().is_err());
        assert!(Sweep::Linear {
            start: 1,
            end: 10,
            step: 0
        }
        .values()
        .is_err());
        assert!(Sweep::Geometric {
            start: 0,
            end: 10,
            factor: 2
        }
        .values()
        .is_err());
        assert!(Sweep::Geometric {
            start: 1,
            end: 10,
            factor: 1
        }
        .values()
        .is_err());
    }

    #[test]
    fn sweep_strings_round_trip() {
        for sweep in [
            Sweep::fixed(64),
            Sweep::list([64, 128, 256]),
            Sweep::Linear {
                start: 8,
                end: 64,
                step: 8,
            },
            Sweep::doubling(64, 1024),
        ] {
            let text = sweep.to_string();
            assert_eq!(text.parse::<Sweep>().unwrap(), sweep, "{text}");
        }
        assert!("".parse::<Sweep>().is_err());
        assert!(
            "64..128".parse::<Sweep>().is_err(),
            "range needs +step or *factor"
        );
        assert!("a,b".parse::<Sweep>().is_err());
    }

    #[test]
    fn spec_expands_the_cartesian_product_in_document_order() {
        let spec = ExperimentSpec {
            designs: vec![DesignKind::Rads, DesignKind::Cfds],
            workloads: vec![Workload::AdversarialRoundRobin, Workload::Bursty],
            num_queues: Sweep::list([8, 16]),
            granularity: Sweep::fixed(2),
            rads_granularity: Sweep::fixed(8),
            num_banks: Sweep::fixed(16),
            seeds: vec![1, 2],
            ..ExperimentSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        assert_eq!(expansion.runs.len(), 2 * 2 * 2 * 2);
        assert_eq!(expansion.skipped_invalid, 0);
        // Designs are the outermost axis, seeds the innermost.
        assert!(expansion.runs[..8]
            .iter()
            .all(|r| r.design == DesignKind::Rads));
        assert_eq!(expansion.runs[0].seed, 1);
        assert_eq!(expansion.runs[1].seed, 2);
        assert_eq!(expansion.runs[0].workload, Workload::AdversarialRoundRobin);
        assert_eq!(expansion.runs[4].workload, Workload::Bursty);
    }

    #[test]
    fn invalid_combinations_are_skipped_not_fatal() {
        // b = 3 does not divide B = 8 → invalid for CFDS, irrelevant to RADS.
        let spec = ExperimentSpec {
            designs: vec![DesignKind::Rads, DesignKind::Cfds],
            granularity: Sweep::list([2, 3]),
            rads_granularity: Sweep::fixed(8),
            ..ExperimentSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        assert_eq!(expansion.runs.len(), 2, "RADS once + CFDS b=2");
        assert_eq!(expansion.skipped_invalid, 1);
    }

    #[test]
    fn cfds_only_axes_collapse_for_other_designs() {
        // b and M do not affect RADS/DRAM-only; sweeping them must not
        // duplicate those runs.
        let spec = ExperimentSpec {
            designs: vec![DesignKind::DramOnly, DesignKind::Rads, DesignKind::Cfds],
            granularity: Sweep::list([2, 4, 8]),
            num_banks: Sweep::list([32, 64]),
            rads_granularity: Sweep::fixed(16),
            ..ExperimentSpec::default()
        };
        let expansion = experiment::expand(&spec).unwrap();
        let count =
            |design: DesignKind| expansion.runs.iter().filter(|r| r.design == design).count();
        assert_eq!(count(DesignKind::DramOnly), 1);
        assert_eq!(count(DesignKind::Rads), 1);
        assert_eq!(count(DesignKind::Cfds), 3 * 2, "CFDS keeps the full cross");
    }

    #[test]
    fn empty_axes_and_conflicting_phases_error() {
        let expand = |spec| experiment::expand(&spec).unwrap_err();
        assert_eq!(
            expand(ExperimentSpec {
                designs: vec![],
                ..ExperimentSpec::default()
            }),
            SpecError::EmptyAxis("designs")
        );
        assert_eq!(
            expand(ExperimentSpec {
                seeds: vec![],
                ..ExperimentSpec::default()
            }),
            SpecError::EmptyAxis("seeds")
        );
        assert_eq!(
            expand(ExperimentSpec {
                preload_cells_per_queue: 8,
                ..ExperimentSpec::default()
            }),
            SpecError::PreloadAndArrivals
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ExperimentSpec {
            name: "fig-sweep".into(),
            designs: vec![DesignKind::DramOnly, DesignKind::Rads, DesignKind::Cfds],
            workloads: Workload::all().to_vec(),
            num_queues: Sweep::doubling(64, 1024),
            granularity: Sweep::list([1, 2, 4, 8, 16]),
            rads_granularity: Sweep::fixed(32),
            num_banks: Sweep::fixed(256),
            arrival_slots: 5_000,
            seeds: vec![7, 11, 13],
            record_grants: true,
            overrides: ConfigOverrides {
                physical_queue_factor: Some(2),
                dram_capacity_cells: Some(1 << 20),
                ..Default::default()
            },
            ..ExperimentSpec::default()
        };
        experiment::expand(&spec).unwrap();
        checks::spec_documents_round_trip(&spec);
    }

    #[test]
    fn minimal_json_gets_builder_defaults() {
        let spec: ExperimentSpec = experiment::from_json("{\"name\": \"tiny\"}").unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.designs, vec![DesignKind::Cfds]);
        assert_eq!(spec.arrival_slots, 10_000);
        let preload: ExperimentSpec =
            experiment::from_json("{\"preload_cells_per_queue\": 64}").unwrap();
        assert_eq!(preload.arrival_slots, 0, "preload implies no live arrivals");
        assert!(experiment::expand(&preload).is_ok());
        // …but an *explicit* arrival_slots is never silently rewritten, even
        // when it happens to equal the default.
        let conflicted: ExperimentSpec =
            experiment::from_json("{\"preload_cells_per_queue\": 64, \"arrival_slots\": 10000}")
                .unwrap();
        assert_eq!(conflicted.arrival_slots, 10_000);
        assert_eq!(
            experiment::expand(&conflicted).unwrap_err(),
            SpecError::PreloadAndArrivals
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "{\"designs\": [\"warp\"]}",
            "{\"num_queues\": {\"start\": 1, \"end\": 8}}",
            "{\"mystery\": 1}",
            "{\"workloads\": \"bursty\"}",
            "not json",
        ] {
            assert!(
                experiment::from_json::<ExperimentSpec>(bad).is_err(),
                "accepted {bad}"
            );
        }
    }
}
