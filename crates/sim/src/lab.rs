//! The experiment runner: executes an expanded spec of any layer
//! ([`Experiment`]) across a pool of worker threads and collects structured
//! results.
//!
//! [`LabRunner`] is deliberately simple: every run owns its buffers and its
//! generators, so runs are embarrassingly parallel. Workers pull run indices
//! from a shared atomic counter and write each [`RunRecord`] back into its
//! slot, which makes the report **bit-identical regardless of the worker
//! count** — the property the determinism tests pin down.

use crate::experiment::{self, Experiment};
use crate::report::TextTable;
use crate::spec::{ExperimentSpec, SpecError};
use serde::ser::SerializeStruct as _;
use serde::{Serialize, Serializer};
use serde_json::{Map, Value};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One executed run: the scenario that was run and what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord<E: Experiment> {
    /// Index of this run in the spec's expansion order.
    pub index: usize,
    /// The exact parameters of the run.
    pub scenario: E::Scenario,
    /// The outcome.
    pub report: E::Report,
}

// Hand-written (the derive takes no type parameters).
impl<E: Experiment> Serialize for RunRecord<E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("RunRecord", 3)?;
        st.serialize_field("index", &self.index)?;
        st.serialize_field("scenario", &self.scenario)?;
        st.serialize_field("report", &self.report)?;
        st.end()
    }
}

/// The structured result of executing a whole spec.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport<E: Experiment> {
    /// The spec that was executed (echoed so a report is self-describing).
    pub spec: E,
    /// Combinations skipped during expansion (invalid configurations).
    pub skipped_invalid: usize,
    /// Aggregates over `runs`.
    pub aggregate: E::Aggregate,
    /// Per-run results, in expansion order.
    pub runs: Vec<RunRecord<E>>,
}

/// The report of a single-buffer experiment.
pub type ExperimentReport = LabReport<ExperimentSpec>;

impl<E: Experiment> LabReport<E> {
    /// Renders the report as pretty JSON; the echoed `"spec"` is the
    /// document [`experiment::to_json`] writes, `"kind"` tag included.
    pub fn to_json(&self) -> String {
        fn value(part: impl Serialize) -> Value {
            serde_json::to_value(part).expect("a report always serializes")
        }
        let mut document = Map::new();
        document.insert("spec", experiment::to_value(&self.spec));
        document.insert("skipped_invalid", value(self.skipped_invalid));
        document.insert("aggregate", value(&self.aggregate));
        document.insert("runs", value(&self.runs));
        Value::Object(document).to_json_string_pretty()
    }

    /// Renders one CSV row per run (with a header), for spreadsheet-side
    /// analysis.
    pub fn to_csv(&self) -> String {
        let mut table = TextTable::new(E::CSV_HEADER.to_vec());
        for run in &self.runs {
            table.push_row(E::csv_row(run));
        }
        table.to_csv()
    }
}

/// Executes expanded experiment specs across `std::thread` workers.
#[derive(Debug, Clone)]
pub struct LabRunner {
    threads: NonZeroUsize,
}

impl Default for LabRunner {
    fn default() -> Self {
        LabRunner::new()
    }
}

impl LabRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        LabRunner {
            threads: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero")),
        }
    }

    /// Limits the runner to `threads` workers (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1");
        self
    }

    /// Number of worker threads this runner will use.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Expands `spec` and executes every run.
    ///
    /// Runs are distributed over the workers through an atomic cursor and the
    /// results are stored by run index, so the returned report is identical
    /// whatever the worker count or scheduling order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec does not expand.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a run itself panicking is a bug in
    /// the system under test, and hiding it would taint the whole report).
    pub fn run<E: Experiment>(&self, spec: &E) -> Result<LabReport<E>, SpecError> {
        let expansion = experiment::expand(spec)?;
        let runs = run_sharded(self.threads.get(), expansion.runs.len(), |index| {
            let scenario = expansion.runs[index].clone();
            let report = spec.run_scenario(&scenario);
            RunRecord {
                index,
                scenario,
                report,
            }
        });
        Ok(LabReport {
            spec: spec.clone(),
            skipped_invalid: expansion.skipped_invalid,
            aggregate: E::aggregate(&runs),
            runs,
        })
    }
}

/// Executes `total` independent runs across up to `workers` threads.
///
/// Workers pull indices from a shared atomic cursor and results are stored
/// by index, so the output is **identical whatever the worker count or
/// scheduling order** — the substrate of [`LabRunner::run`], and the
/// property the determinism tests pin down.
///
/// # Panics
///
/// Panics if a worker thread panics (a run panicking is a bug in the system
/// under test, and hiding it would taint the whole report).
fn run_sharded<T, F>(workers: usize, total: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(total).max(1);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let result = run(index);
                results.lock().expect("no worker panicked holding the lock")[index] = Some(result);
            }));
        }
        for handle in handles {
            handle.join().expect("experiment worker panicked");
        }
    });
    results
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| slot.expect("every run index was executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::checks;
    use crate::scenario::{DesignKind, Workload};
    use crate::spec::Sweep;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "lab-test".into(),
            designs: vec![DesignKind::Rads, DesignKind::Cfds],
            workloads: vec![Workload::AdversarialRoundRobin, Workload::UniformRandom],
            num_queues: Sweep::list([4, 8]),
            granularity: Sweep::fixed(2),
            rads_granularity: Sweep::fixed(8),
            num_banks: Sweep::fixed(16),
            arrival_slots: 1_000,
            seeds: vec![5],
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn runner_executes_every_run_in_order() {
        let report = LabRunner::new().run(&small_spec()).unwrap();
        assert_eq!(report.runs.len(), 8);
        for (i, run) in report.runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert!(run.report.stats.grants > 0);
        }
        assert_eq!(report.aggregate.runs, 8);
        assert!(report.aggregate.all_loss_free);
        assert_eq!(report.aggregate.loss_free_runs, 8);
        assert!(report.aggregate.mean_grants_per_slot > 0.0);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        checks::thread_count_does_not_change_the_report(&small_spec(), 8);
    }

    #[test]
    fn identical_seeds_give_bit_identical_reports() {
        let mut spec = small_spec();
        spec.record_grants = true;
        let a = LabRunner::new().run(&spec).unwrap();
        let b = LabRunner::new().run(&spec).unwrap();
        assert_eq!(a, b);
        // And a different seed really changes the stochastic runs.
        let mut other = spec;
        other.seeds = vec![6];
        let c = LabRunner::new().run(&other).unwrap();
        assert_ne!(
            a.runs.last().unwrap().report.grant_log,
            c.runs.last().unwrap().report.grant_log,
            "uniform-random grant order must depend on the seed"
        );
    }

    #[test]
    fn csv_has_one_row_per_run() {
        let report = LabRunner::new().run(&small_spec()).unwrap();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + report.runs.len());
        assert!(csv.starts_with("index,design,workload"));
        assert!(csv.contains("RADS"));
        assert!(csv.contains("uniform-random"));
    }

    #[test]
    fn json_report_parses_back_as_a_value() {
        let report = LabRunner::new().with_threads(2).run(&small_spec()).unwrap();
        let json = report.to_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let object = value.as_object().unwrap();
        assert_eq!(
            object
                .get("aggregate")
                .unwrap()
                .as_object()
                .unwrap()
                .get("runs")
                .unwrap()
                .as_u64(),
            Some(8)
        );
        assert_eq!(object.get("runs").unwrap().as_array().unwrap().len(), 8);
        // The echoed spec inside the report parses back into the same spec.
        let spec_json = object.get("spec").unwrap().to_json_string();
        let spec: ExperimentSpec = experiment::from_json(&spec_json).unwrap();
        assert_eq!(spec, small_spec());
    }
}
