//! The experiment runner: executes an expanded [`ExperimentSpec`] across a
//! pool of worker threads and collects structured results.
//!
//! [`LabRunner`] is deliberately simple: every run owns its buffer and its
//! generators (a [`crate::SimulationEngine`] drives exactly one run), so runs
//! are embarrassingly parallel. Workers pull run indices from a shared atomic
//! counter and write each [`RunRecord`] back into its slot, which makes the
//! report **bit-identical regardless of the worker count** — the property the
//! determinism tests pin down.

use crate::scenario::Scenario;
use crate::spec::{ExperimentSpec, SpecError};
use crate::SimulationReport;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One executed run: the scenario that was run and what happened.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRecord {
    /// Index of this run in the spec's expansion order.
    pub index: usize,
    /// The exact parameters of the run.
    pub scenario: Scenario,
    /// The simulation outcome.
    pub report: SimulationReport,
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

/// The structured result of executing a whole [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentReport {
    /// The spec that was executed (echoed so a report is self-describing).
    pub spec: ExperimentSpec,
    /// Combinations skipped during expansion (invalid configurations).
    pub skipped_invalid: usize,
    /// Aggregates over `runs`.
    pub aggregate: LabAggregate,
    /// Per-run results, in expansion order.
    pub runs: Vec<RunRecord>,
}

impl ExperimentReport {
    /// Renders the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("an experiment report always serializes")
    }

    /// Renders one CSV row per run (with a header), for spreadsheet-side
    /// analysis.
    pub fn to_csv(&self) -> String {
        let mut table = crate::report::TextTable::new(vec![
            "index",
            "design",
            "workload",
            "line_rate_gbps",
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
        ]);
        for run in &self.runs {
            let s = &run.scenario;
            let r = &run.report;
            table.push_row(vec![
                run.index.to_string(),
                s.design.to_string(),
                s.workload.to_string(),
                format!("{}", s.line_rate.gbps()),
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
            ]);
        }
        table.to_csv()
    }
}

/// Executes expanded experiment specs across `std::thread` workers.
#[derive(Debug, Clone)]
pub struct LabRunner {
    threads: NonZeroUsize,
    record_grants: Option<bool>,
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
            record_grants: None,
        }
    }

    /// Limits the runner to `threads` workers (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1");
        self
    }

    /// Overrides the spec's `record_grants` flag for every run.
    pub fn record_grants(mut self, record: bool) -> Self {
        self.record_grants = Some(record);
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
    /// the buffer under test, and hiding it would taint the whole report).
    pub fn run(&self, spec: &ExperimentSpec) -> Result<ExperimentReport, SpecError> {
        let expansion = spec.expand()?;
        let record = self.record_grants.unwrap_or(spec.record_grants);
        let runs = run_sharded(self.threads.get(), expansion.runs.len(), |index| {
            let scenario = expansion.runs[index];
            let report = scenario.run_with_grant_log(record);
            RunRecord {
                index,
                scenario,
                report,
            }
        });
        let aggregate = aggregate(&runs);
        // Echo the *effective* spec: if the runner overrode record_grants,
        // the self-describing report must say so, or re-running the echoed
        // spec would produce a different artifact.
        let mut spec = spec.clone();
        spec.record_grants = record;
        Ok(ExperimentReport {
            spec,
            skipped_invalid: expansion.skipped_invalid,
            runs,
            aggregate,
        })
    }
}

/// Executes `total` independent runs across up to `workers` threads.
///
/// Workers pull indices from a shared atomic cursor and results are stored
/// by index, so the output is **identical whatever the worker count or
/// scheduling order** — the shared substrate of [`LabRunner::run`] and
/// [`LabRunner::run_fabric`](crate::fabric), and the property the
/// determinism tests pin down.
///
/// # Panics
///
/// Panics if a worker thread panics (a run panicking is a bug in the system
/// under test, and hiding it would taint the whole report).
pub(crate) fn run_sharded<T, F>(workers: usize, total: usize, run: F) -> Vec<T>
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

fn aggregate(runs: &[RunRecord]) -> LabAggregate {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DesignKind, Workload};
    use crate::spec::Sweep;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::builder()
            .name("lab-test")
            .designs([DesignKind::Rads, DesignKind::Cfds])
            .workloads([Workload::AdversarialRoundRobin, Workload::UniformRandom])
            .num_queues(Sweep::list([4, 8]))
            .granularity(Sweep::fixed(2))
            .rads_granularity(Sweep::fixed(8))
            .num_banks(Sweep::fixed(16))
            .arrival_slots(1_000)
            .seeds([5])
            .build()
            .unwrap()
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
        let spec = small_spec();
        let single = LabRunner::new().with_threads(1).run(&spec).unwrap();
        let multi = LabRunner::new().with_threads(4).run(&spec).unwrap();
        assert!(LabRunner::new().with_threads(4).threads() >= 2);
        assert_eq!(single, multi);
        // Byte-identical serialized artefacts, not just PartialEq.
        assert_eq!(single.to_json(), multi.to_json());
        assert_eq!(single.to_csv(), multi.to_csv());
    }

    #[test]
    fn identical_seeds_give_bit_identical_reports() {
        let spec = small_spec();
        let a = LabRunner::new().record_grants(true).run(&spec).unwrap();
        let b = LabRunner::new().record_grants(true).run(&spec).unwrap();
        assert_eq!(a, b);
        // And a different seed really changes the stochastic runs.
        let mut other = spec;
        other.seeds = vec![6];
        let c = LabRunner::new().record_grants(true).run(&other).unwrap();
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
        assert_eq!(ExperimentSpec::from_json(&spec_json).unwrap(), small_spec());
    }
}
