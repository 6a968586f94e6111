//! The one experiment stack every layer shares.
//!
//! A layer — single buffer ([`crate::spec::ExperimentSpec`]), `N×N` switch
//! ([`crate::fabric::FabricSpec`]), three-stage Clos
//! ([`crate::clos::ClosSpec`]) — is a spec type implementing [`Experiment`]:
//! the trait names what differs between layers and nothing else. Everything
//! around it is written once, here and in [`crate::lab`]: the cartesian
//! expansion ([`expand`]), the spec document envelope ([`to_json`] /
//! [`from_json`]), the run records and report
//! ([`RunRecord`], [`LabReport`](crate::lab::LabReport))
//! and the runner ([`LabRunner::run`](crate::lab::LabRunner::run)).

use crate::lab::RunRecord;
use crate::spec::{SpecError, Sweep};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::{self, Debug};

/// Most combinations a spec's axes may multiply to. [`expand`] visits every
/// combination (valid or not) and keeps the valid ones in memory, so the
/// product is bounded before the first axis is materialised; a sweep typed
/// with three zeros too many is refused, not run out of memory.
pub const MAX_COMBINATIONS: u64 = 1 << 20;

/// One axis of a spec's cartesian product, named after the spec field it is
/// read from.
#[derive(Debug, Clone, Copy)]
pub enum Axis<'a> {
    /// A list field of this many entries; the axis value is the index.
    Choices(&'static str, usize),
    /// A numeric sweep; the axis value is the swept number.
    Sweep(&'static str, &'a Sweep),
    /// A sweep of a parameter only CFDS buffers read: where
    /// [`Experiment::has_cfds`] is false it collapses to its first value,
    /// since crossing it would repeat one simulation and over-weight that
    /// design in the aggregate.
    CfdsSweep(&'static str, &'a Sweep),
}

impl Axis<'_> {
    fn count(&self) -> Result<u64, SpecError> {
        match *self {
            Axis::Choices(_, len) => Ok(len as u64),
            Axis::Sweep(_, sweep) | Axis::CfdsSweep(_, sweep) => sweep.count(),
        }
    }

    fn values(&self) -> Result<Vec<u64>, SpecError> {
        match *self {
            Axis::Choices(_, len) => Ok((0..len as u64).collect()),
            Axis::Sweep(_, sweep) | Axis::CfdsSweep(_, sweep) => sweep.values(),
        }
    }
}

/// A declarative, serializable experiment: what one layer has to say for the
/// shared stack to expand it, run it, aggregate it and print it.
///
/// # Contracts the generic code relies on
///
/// * **Expansion order is axis order.** [`expand`] walks the product of
///   [`Experiment::axes`] with the first axis outermost and the last
///   innermost, and [`Experiment::scenario_at`] receives one value per axis
///   in that order: the index for an [`Axis::Choices`], the swept number for
///   a sweep. Run indices, report order and CSV row order all follow from it.
/// * **[`Experiment::has_cfds`] looks left.** It may read only what axes
///   declared before every [`Axis::CfdsSweep`] put into the scenario.
/// * **A run depends on its scenario alone.**
///   [`Experiment::run_scenario`] is called from several threads at once, in
///   any order; the report must be a function of the spec and the scenario,
///   which is what makes a [`LabReport`](crate::lab::LabReport) independent
///   of the thread count.
/// * **`Default` is what an omitted key means.** It is the layer's builder
///   defaults: a spec document with no keys decodes to it, and `pktbuf-lab`
///   starts from it when no `--spec` is given.
/// * **The document is the derived one.** `Serialize` / `Deserialize`
///   describe the spec's own fields; the `"kind"` tag and keys retired from
///   older versions are handled by [`to_json`] / [`from_json`], not by the
///   impls.
pub trait Experiment:
    Debug + Clone + Default + PartialEq + Serialize + for<'de> Deserialize<'de> + Sync
{
    /// One fully specified run: a point of the expansion.
    type Scenario: Debug + Clone + PartialEq + Serialize + Send + Sync;
    /// What one run produces.
    type Report: Debug + Clone + PartialEq + Serialize + Send;
    /// Statistics over every run of the experiment.
    type Aggregate: Debug + Clone + PartialEq + Serialize;
    /// Why a scenario is invalid.
    type Invalid: fmt::Display;

    /// The `"kind"` tag the layer's spec documents carry as their last key
    /// (`None`: untagged). A document tagged otherwise is refused.
    const KIND: Option<&'static str> = None;
    /// Keys an older version wrote into spec documents and no version reads:
    /// they still load, and are discarded.
    const RETIRED_KEYS: &'static [&'static str] = &[];
    /// The CSV column names, `index` first.
    const CSV_HEADER: &'static [&'static str];

    /// The axes of the cartesian product, outermost first.
    fn axes(&self) -> Vec<Axis<'_>>;

    /// A constraint on the spec as a whole, checked before any axis is
    /// expanded.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] naming the violated constraint.
    fn check(&self) -> Result<(), SpecError> {
        Ok(())
    }

    /// Whether `scenario`'s design has CFDS buffers; where it has none every
    /// [`Axis::CfdsSweep`] collapses.
    fn has_cfds(_scenario: &Self::Scenario) -> bool {
        true
    }

    /// The scenario at `point`: one value per axis, in axis order.
    fn scenario_at(&self, point: &[u64]) -> Self::Scenario;

    /// Checks that `scenario` forms a valid configuration. Sweeps cross
    /// freely, so some points do not: [`expand`] skips and counts them, and
    /// keeps the first one's reason for [`SpecError::NoValidRuns`].
    ///
    /// # Errors
    ///
    /// Returns the layer's reason the point is invalid.
    fn validate(scenario: &Self::Scenario) -> Result<(), Self::Invalid>;

    /// Runs one scenario to completion.
    fn run_scenario(&self, scenario: &Self::Scenario) -> Self::Report;

    /// Aggregates the executed runs.
    fn aggregate(runs: &[RunRecord<Self>]) -> Self::Aggregate;

    /// One CSV row, matching [`Experiment::CSV_HEADER`].
    fn csv_row(run: &RunRecord<Self>) -> Vec<String>;
}

/// The result of expanding a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion<S> {
    /// The valid runs, in expansion order.
    pub runs: Vec<S>,
    /// Combinations skipped because they violated a configuration constraint.
    pub skipped_invalid: usize,
}

/// Expands `spec` into the cartesian product of its axes, first axis
/// outermost. Combinations that do not form a valid configuration are
/// skipped and counted; axes only CFDS reads collapse to their first value
/// for designs without CFDS buffers.
///
/// # Errors
///
/// Returns [`SpecError`] when an axis is empty or malformed, when
/// [`Experiment::check`] fails, when the axes multiply to more than
/// [`MAX_COMBINATIONS`], or when *every* combination is invalid (naming the
/// first one's reason).
pub fn expand<E: Experiment>(spec: &E) -> Result<Expansion<E::Scenario>, SpecError> {
    let axes = spec.axes();
    for axis in &axes {
        if let Axis::Choices(name, 0) = *axis {
            return Err(SpecError::EmptyAxis(name));
        }
    }
    spec.check()?;
    let mut combinations = 1u128;
    for axis in &axes {
        combinations = combinations.saturating_mul(u128::from(axis.count()?));
    }
    if combinations > u128::from(MAX_COMBINATIONS) {
        return Err(SpecError::TooManyCombinations {
            combinations,
            limit: MAX_COMBINATIONS,
        });
    }
    let values = axes
        .iter()
        .map(Axis::values)
        .collect::<Result<Vec<_>, _>>()?;
    let mut index = vec![0usize; axes.len()];
    let mut point: Vec<u64> = values.iter().map(|axis| axis[0]).collect();
    let mut runs = Vec::new();
    let mut skipped_invalid = 0usize;
    let mut first_invalid = None;
    'product: loop {
        let scenario = spec.scenario_at(&point);
        let collapse = !E::has_cfds(&scenario);
        match E::validate(&scenario) {
            Ok(()) => runs.push(scenario),
            Err(reason) => {
                skipped_invalid += 1;
                first_invalid.get_or_insert_with(|| reason.to_string());
            }
        }
        // Odometer step, innermost axis fastest.
        let mut k = axes.len();
        loop {
            if k == 0 {
                break 'product;
            }
            k -= 1;
            let len = match axes[k] {
                Axis::CfdsSweep(..) if collapse => 1,
                _ => values[k].len(),
            };
            index[k] += 1;
            if index[k] < len {
                point[k] = values[k][index[k]];
                break;
            }
            index[k] = 0;
            point[k] = values[k][0];
        }
    }
    if runs.is_empty() {
        return Err(SpecError::NoValidRuns(first_invalid.unwrap_or_default()));
    }
    Ok(Expansion {
        runs,
        skipped_invalid,
    })
}

/// The spec as a document tree: its own fields, then the `"kind"` tag.
pub(crate) fn to_value<E: Experiment>(spec: &E) -> Value {
    let mut document = serde_json::to_value(spec).expect("a spec always serializes");
    if let (Some(kind), Value::Object(fields)) = (E::KIND, &mut document) {
        fields.insert("kind", Value::String(kind.to_owned()));
    }
    document
}

/// Renders `spec` as pretty JSON.
pub fn to_json<E: Experiment>(spec: &E) -> String {
    to_value(spec).to_json_string_pretty()
}

/// Parses a spec from JSON text: omitted keys keep the layer's defaults,
/// unknown keys are rejected.
///
/// # Errors
///
/// Returns [`SpecError::Json`] on malformed JSON, on unknown or ill-typed
/// fields, and on a document tagged as another layer's.
pub fn from_json<E: Experiment>(text: &str) -> Result<E, SpecError> {
    let json = |e: serde_json::Error| SpecError::Json(e.to_string());
    let mut document: Value = text.parse().map_err(json)?;
    if let Value::Object(fields) = &mut document {
        // An untagged layer leaves the key in place, to be refused as unknown.
        if let Some(kind) = E::KIND {
            match fields.remove("kind") {
                Some(found) if found.as_str() != Some(kind) => {
                    let found = found.to_json_string();
                    return Err(SpecError::Json(format!("not a {kind} spec (kind {found})")));
                }
                _ => {}
            }
        }
        for key in E::RETIRED_KEYS {
            fields.remove(key);
        }
    }
    serde_json::from_value(document).map_err(json)
}

/// Checks every layer's tests run, taking the layer as an input.
#[cfg(test)]
pub(crate) mod checks {
    use super::*;
    use crate::lab::LabRunner;

    /// The report, its JSON and its CSV are the same from one worker and
    /// from four, with one record and one CSV row per expanded run.
    pub(crate) fn thread_count_does_not_change_the_report<E: Experiment>(spec: &E, runs: usize) {
        assert!(LabRunner::new().with_threads(4).threads() >= 2);
        let single = LabRunner::new().with_threads(1).run(spec).unwrap();
        let multi = LabRunner::new().with_threads(4).run(spec).unwrap();
        assert_eq!(single, multi);
        // Byte-identical serialized artefacts, not just PartialEq.
        assert_eq!(single.to_json(), multi.to_json());
        assert_eq!(single.to_csv(), multi.to_csv());
        assert_eq!(single.runs.len(), runs);
        for (i, run) in single.runs.iter().enumerate() {
            assert_eq!(run.index, i);
        }
        let csv = single.to_csv();
        assert_eq!(csv.lines().count(), 1 + runs);
        assert_eq!(csv.lines().next().unwrap(), E::CSV_HEADER.join(","));
    }

    /// `spec` survives JSON unchanged and the JSON survives a second trip; a
    /// document with no keys is the layer's default spec; unknown keys and
    /// documents tagged as another layer's are refused.
    pub(crate) fn spec_documents_round_trip<E: Experiment>(spec: &E) {
        let text = to_json(spec);
        let back: E = from_json(&text).unwrap();
        assert_eq!(&back, spec);
        assert_eq!(to_json(&back), text);
        // The report echoes the same document, tag included.
        assert_eq!(to_value(spec).to_json_string_pretty(), text);
        assert_eq!(text.contains("\"kind\""), E::KIND.is_some());
        assert_eq!(from_json::<E>("{}").unwrap(), E::default());
        assert!(from_json::<E>("{\"mystery\": 1}").is_err());
        assert!(from_json::<E>("{\"kind\": \"mystery\"}").is_err());
        assert!(from_json::<E>("not json").is_err());
        if let Some(kind) = E::KIND {
            let tagged = format!("{{\"kind\": \"{kind}\"}}");
            assert_eq!(from_json::<E>(&tagged).unwrap(), E::default());
            let refusal = from_json::<E>("{\"kind\": \"mystery\"}").unwrap_err();
            assert!(refusal.to_string().contains("(kind \"mystery\")"));
        }
    }

    /// A sweep far past [`MAX_COMBINATIONS`] — alone, or as several modest
    /// axes multiplied — is an error before anything is materialised.
    pub(crate) fn oversized_products_are_refused<E: Experiment>(
        set_axes: impl Fn(&mut E, [Sweep; 3]),
    ) {
        let linear = |end| Sweep::Linear {
            start: 2,
            end,
            step: 1,
        };
        for axes in [
            [linear(u64::MAX), Sweep::fixed(2), Sweep::fixed(2)],
            [linear(400_000_001), Sweep::fixed(2), Sweep::fixed(2)],
            [linear(2_001), linear(2_001), linear(2_001)],
        ] {
            let mut oversized = E::default();
            set_axes(&mut oversized, axes);
            let SpecError::TooManyCombinations {
                combinations,
                limit,
            } = expand(&oversized).unwrap_err()
            else {
                panic!("expected TooManyCombinations");
            };
            assert_eq!(limit, MAX_COMBINATIONS);
            assert!(combinations > u128::from(limit));
            // The same axes in a spec file are refused the same way.
            let reloaded: E = from_json(&to_json(&oversized)).unwrap();
            assert!(matches!(
                expand(&reloaded),
                Err(SpecError::TooManyCombinations { .. })
            ));
        }
    }
}
