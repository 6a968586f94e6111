//! The run protocol: what one *run* of one workload is.
//!
//! Measured on the 2-CPU sandbox before this was written: within one
//! process, identical repetitions differ by 10–70 % — a co-tenant on the
//! same physical core keeps evicting the caches (a 1 MiB dependent walk
//! that fits the L2 reads 7.3 ns a load at its fastest and 10–50 ns on
//! average; the cycle time of register arithmetic never moves, and on-CPU
//! time equals wall time), in spells that last from microseconds to a
//! minute and strike the two CPUs independently; `buf_bursty_idle` has a
//! per-*process* slow mode (one process in six to one in two runs
//! everything 1.7× slower; gone under `setarch -R`, so it is address-space
//! layout) that no in-process estimator can remove; and one construction of
//! a workload takes 25 µs to 0.3 ms. Hence: a run is, for `--seconds` of
//! wall time, a sequence of fresh processes on each of up to [`MAX_LANES`]
//! CPUs, each process timing a set-up batch and the workload's
//! `REPS_PER_CHILD` short repetitions cut into segments of 60–90 µs, and the
//! run's value of `ns_per_buffer_step` is the fastest composite of all of
//! them (see [`crate::stats::fastest_composite`]).

use crate::host::{self, CalibReading, Calibration};
use crate::json::{array_field, f64_field, field, strings_field, u64_field};
use crate::stats::{fastest_composite, iqr_over_median, lower_quartile, median, minimum};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`: the wall time of a nominal run. A lane
/// starts fresh children for as long as the next one can be expected to end
/// within this (20 to 90 in all on a calm host, fewer on a slow one — the
/// time is fixed, not the work). The driver's budget is 114 runs and two
/// builds in 3 420 s.
pub const RUN_SECONDS: u64 = 24;
/// A run has at least this many children, however short `--seconds` is:
/// the address-space layout must be re-rolled at least a few times.
const MIN_CHILDREN: usize = 3;
/// A run keeps at most this many CPUs busy, one lane of children pinned to
/// each. Measured on the 2-CPU sandbox with a 1 MiB dependent walk pinned
/// to either CPU for five minutes: the spells in which a co-tenant keeps a
/// core's caches dirty for seconds on end (the walk's fastest 10 µs of a
/// whole second above 10 ns a load, against 7.3 when calm) covered 45 s on
/// one CPU and 19 s on the other, and 2 s on both at once. The fastest
/// composite takes each segment from whichever lane ran it on a clean core.
const MAX_LANES: usize = 2;
/// A child whose median repetition sits this far above the lower quartile
/// of the run's repetitions landed in a slow layout (or a noisy spell).
const SLOW_CHILD_RATIO: f64 = 1.3;

/// Interleaved (bare, traced) repetition pairs of a traced run asked to
/// measure for `seconds`.
pub fn trace_pairs_for(seconds: u64) -> u32 {
    (seconds / 6).clamp(1, 6) as u32
}

/// A host-time metric of one run: the value and how steady its samples
/// were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The run's value.
    pub value: f64,
    /// The lower quartile of the samples.
    pub lower_quartile: f64,
    /// Their median.
    pub median: f64,
    /// Their inter-quartile range over their median.
    pub spread: f64,
    /// How many samples.
    pub n: usize,
}

impl Estimate {
    fn of(value: f64, samples: &[f64]) -> Self {
        Estimate {
            value,
            lower_quartile: lower_quartile(samples),
            median: median(samples),
            spread: iqr_over_median(samples),
            n: samples.len(),
        }
    }
}

/// Everything one end-to-end run of one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs were made from.
    pub seed: u64,
    /// Host ns per simulated buffer-step: the fastest composite of every
    /// timed repetition; the samples are the whole repetitions.
    pub ns_per_buffer_step: Estimate,
    /// Host seconds per construction of the object graph: the smallest of
    /// the children's values (each the lower quartile of its set-up batch);
    /// the samples are those values.
    pub setup_s: Estimate,
    /// Largest `VmHWM` of any child, MiB.
    pub peak_rss_mb: f64,
    /// Cells delivered per external port per simulated slot.
    pub sim_cells_per_port_slot: f64,
    /// Worst simulated latency, slots.
    pub sim_latency_max_slots: u64,
    /// FNV-1a of the reports' JSON text, identical across all repetitions.
    pub sim_fingerprint: u64,
    /// Simulated operations attempted over every repetition of the run.
    pub ops_attempted: u64,
    /// Simulated operations that failed.
    pub ops_failed: u64,
    /// Output checks that failed, deduplicated; empty on a correct run.
    pub failures: Vec<String>,
    /// Fresh processes the run was made of.
    pub children: usize,
    /// Children whose median repetition sat above `1.3 ×` the lower
    /// quartile of the run's repetitions.
    pub slow_children: u32,
    /// Calibration readings taken before the first and after every child.
    pub calibration: Vec<CalibReading>,
}

impl RunSummary {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }

    /// The end-to-end metrics as `(name, value, unit)`, in catalogue order.
    pub fn end_to_end(&self) -> [(&'static str, f64, &'static str); 5] {
        let values = [
            self.ns_per_buffer_step.value,
            self.setup_s.value,
            self.peak_rss_mb,
            self.sim_cells_per_port_slot,
            self.sim_latency_max_slots as f64,
        ];
        let mut out = [("", 0.0, ""); 5];
        for ((slot, (name, unit, _)), value) in
            out.iter_mut().zip(crate::catalog::END_TO_END).zip(values)
        {
            *slot = (name, value, unit);
        }
        out
    }

    /// Prints the run for a human: every metric by name with its unit and
    /// sample count, the attempts and failures, and the contamination
    /// guards.
    pub fn print(&self) {
        println!(
            "workload {} seed {}: {} fresh processes",
            self.workload, self.seed, self.children
        );
        for (name, estimate, unit, how) in [
            (
                "ns_per_buffer_step",
                &self.ns_per_buffer_step,
                "ns",
                "fastest composite of",
            ),
            ("setup_s", &self.setup_s, "s", "smallest of"),
        ] {
            println!(
                "  {name:<26} {:>14.6e} {unit:<10} {how} n={} (lower quartile {:.6e}, median {:.6e}, IQR/median {:.4})",
                estimate.value, estimate.n, estimate.lower_quartile, estimate.median, estimate.spread
            );
        }
        println!(
            "  {:<26} {:>14.3} {:<10} largest of n={}",
            "peak_rss_mb", self.peak_rss_mb, "MiB", self.children
        );
        println!(
            "  {:<26} {:>14.6} {:<10} exact in the seed",
            "sim_cells_per_port_slot", self.sim_cells_per_port_slot, "cells/slot"
        );
        println!(
            "  {:<26} {:>14} {:<10} exact in the seed",
            "sim_latency_max_slots", self.sim_latency_max_slots, "slots"
        );
        println!(
            "  ops_attempted {}  ops_failed {}  sim_fingerprint {:#018x}",
            self.ops_attempted, self.ops_failed, self.sim_fingerprint
        );
        let mem: Vec<f64> = self.calibration.iter().map(|c| c.mem_ns).collect();
        let cpu: Vec<f64> = self.calibration.iter().map(|c| c.cpu_ns).collect();
        let range = |v: &[f64]| {
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("{:.2}/{:.2}/{hi:.2}", minimum(v), median(v))
        };
        println!(
            "  host.slow_children {}/{}  calibration min/median/max: mem {} ns  cpu {} ns",
            self.slow_children,
            self.children,
            range(&mem),
            range(&cpu)
        );
        for failure in &self.failures {
            println!("  FAILED CHECK: {failure}");
        }
    }
}

/// Runs this executable again as a child with `args` and parses the JSON
/// object on the last line of its standard output. The child is waited for
/// before this returns, whatever happens.
fn spawn_child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("child {args:?} printed invalid JSON: {e}"))
}

fn child_args(kind: &str, workload: &str, seed: u64) -> Vec<String> {
    vec![
        kind.to_owned(),
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
    ]
}

/// What one end-to-end child reported.
struct ChildReport {
    pid: u64,
    /// The CPUs the child was allowed to run on.
    cpus: Vec<u64>,
    buffer_steps: u64,
    /// ns per buffer-step of each whole repetition.
    reps: Vec<f64>,
    /// Per segment, the fastest sample over the child's repetitions, ns.
    fastest_segments: Vec<u64>,
    setup_s: f64,
    peak_rss_mib: f64,
    sim_fingerprint: u64,
    sim_cells_per_port_slot: f64,
    sim_latency_max_slots: u64,
    ops_attempted: u64,
    ops_failed: u64,
    failed_checks: Vec<String>,
}

impl ChildReport {
    fn parse(child: &Value) -> Result<Self, String> {
        let buffer_steps = u64_field(child, "buffer_steps")?;
        let u64s = |key| -> Result<Vec<u64>, String> {
            Ok(array_field(child, key)?
                .iter()
                .filter_map(Value::as_u64)
                .collect())
        };
        Ok(ChildReport {
            pid: u64_field(child, "pid")?,
            cpus: u64s("cpus")?,
            buffer_steps,
            reps: u64s("rep_ns")?
                .into_iter()
                .map(|ns| ns as f64 / buffer_steps as f64)
                .collect(),
            fastest_segments: u64s("fastest_segments_ns")?,
            setup_s: f64_field(child, "setup_ns")? / 1e9,
            peak_rss_mib: f64_field(child, "peak_rss_mib")?,
            sim_fingerprint: u64_field(child, "sim_fingerprint")?,
            sim_cells_per_port_slot: f64_field(child, "sim_cells_per_port_slot")?,
            sim_latency_max_slots: u64_field(child, "sim_latency_max_slots")?,
            ops_attempted: u64_field(child, "ops_attempted")?,
            ops_failed: u64_field(child, "ops_failed")?,
            failed_checks: strings_field(child, "failed_checks")?,
        })
    }
}

/// One lane of a run: fresh children one after the other on `cpu` (the
/// thread pins itself and its children inherit the mask) until the next
/// one would overrun `budget`, with a calibration reading on the same CPU
/// before the first and after every child.
fn run_lane(
    cpu: Option<usize>,
    args: &[String],
    started: Instant,
    budget: Duration,
    min_children: usize,
) -> Result<(Vec<ChildReport>, Vec<CalibReading>), String> {
    // A refusal leaves the lane where the scheduler puts it.
    let pinned = cpu.filter(|cpu| host::pin_this_thread(*cpu));
    // Calibration runs here, between children, not inside them: its 16 MiB
    // array would otherwise be most of every child's `VmHWM`.
    let mut calibration = Calibration::new();
    let mut readings = vec![calibration.read()];
    let mut children = Vec::new();
    let mut longest_child = Duration::ZERO;
    while children.len() < min_children || started.elapsed() + longest_child < budget {
        let child_started = Instant::now();
        let mut child = ChildReport::parse(&spawn_child(args)?)?;
        if pinned.is_some_and(|cpu| child.cpus != [cpu as u64]) {
            child
                .failed_checks
                .push("every child runs on its lane's CPU".to_owned());
        }
        children.push(child);
        readings.push(calibration.read());
        longest_child = longest_child.max(child_started.elapsed());
    }
    Ok((children, readings))
}

/// One end-to-end run of `workload`: for `seconds` of wall time, one lane
/// of fresh processes on each of up to [`MAX_LANES`] CPUs; never more busy
/// threads than lanes.
pub fn run_workload(workload: &str, seed: u64, seconds: u64) -> Result<RunSummary, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let args = child_args("child", workload, seed);
    let mut cpus: Vec<Option<usize>> = host::allowed_cpus().into_iter().map(Some).collect();
    cpus.truncate(MAX_LANES);
    if cpus.is_empty() {
        cpus.push(None);
    }
    let min_children = MIN_CHILDREN.div_ceil(cpus.len());
    // Every lane is joined, so every child has ended, before an error of
    // any of them is returned.
    let lanes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = cpus
            .iter()
            .map(|cpu| {
                let args = &args;
                scope.spawn(move || run_lane(*cpu, args, started, budget, min_children))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a lane panicked".to_owned()))
            })
            .collect()
    });
    let mut children = Vec::new();
    let mut calibration = Vec::new();
    for lane in lanes {
        let (lane_children, readings) = lane?;
        children.extend(lane_children);
        calibration.extend(readings);
    }

    let first = &children[0];
    let mut failures: Vec<String> = children
        .iter()
        .flat_map(|c| c.failed_checks.iter().cloned())
        .collect();
    // Layout guard: the protocol only re-rolls the address space if every
    // child really was a process of its own.
    let mut pids: Vec<u64> = children.iter().map(|c| c.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    if pids.len() != children.len() || pids.contains(&u64::from(std::process::id())) {
        failures.push("every child is a fresh process with its own pid".to_owned());
    }
    if children.iter().any(|c| {
        c.sim_fingerprint != first.sim_fingerprint
            || c.sim_cells_per_port_slot.to_bits() != first.sim_cells_per_port_slot.to_bits()
            || c.sim_latency_max_slots != first.sim_latency_max_slots
            || c.buffer_steps != first.buffer_steps
    }) {
        failures.push("every child reproduces the same simulated statistics".to_owned());
    }
    let segments: Vec<&[u64]> = children
        .iter()
        .map(|c| c.fastest_segments.as_slice())
        .collect();
    let composite_ns = fastest_composite(&segments).unwrap_or_else(|| {
        failures.push("every repetition crosses the same slot marks".to_owned());
        0
    });
    failures.sort();
    failures.dedup();

    let rep_samples: Vec<f64> = children
        .iter()
        .flat_map(|c| c.reps.iter().copied())
        .collect();
    let setup_samples: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
    let ns_per_buffer_step = Estimate::of(
        composite_ns as f64 / first.buffer_steps as f64,
        &rep_samples,
    );
    let slow_children = children
        .iter()
        .filter(|c| median(&c.reps) > SLOW_CHILD_RATIO * ns_per_buffer_step.lower_quartile)
        .count() as u32;
    Ok(RunSummary {
        workload: workload.to_owned(),
        seed,
        ns_per_buffer_step,
        setup_s: Estimate::of(minimum(&setup_samples), &setup_samples),
        peak_rss_mb: children.iter().map(|c| c.peak_rss_mib).fold(0.0, f64::max),
        sim_cells_per_port_slot: first.sim_cells_per_port_slot,
        sim_latency_max_slots: first.sim_latency_max_slots,
        sim_fingerprint: first.sim_fingerprint,
        ops_attempted: children.iter().map(|c| c.ops_attempted).sum(),
        ops_failed: children.iter().map(|c| c.ops_failed).sum(),
        failures,
        children: children.len(),
        slow_children,
        calibration,
    })
}

/// What one traced run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Workload name.
    pub workload: String,
    /// Every per-layer metric, in the order the child reported them.
    pub metrics: Vec<(String, f64)>,
    /// Where the Chrome trace was written.
    pub trace_file: PathBuf,
    /// Simulated operations attempted.
    pub ops_attempted: u64,
    /// Simulated operations that failed.
    pub ops_failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl TraceSummary {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }

    /// Prints every per-layer metric by name.
    pub fn print(&self) {
        println!(
            "traced run of {} (trace file {})",
            self.workload,
            self.trace_file.display()
        );
        for (name, value) in &self.metrics {
            println!("  {name:<38} {value:>16.6}");
        }
        for failure in &self.failures {
            println!("  FAILED CHECK: {failure}");
        }
    }
}

/// Where the traced run of `workload` writes its Chrome trace.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// The separate traced run of `workload`: one child with the wrappers
/// installed (and, on `clos_uniform` only, a two-worker probe).
pub fn trace_workload(workload: &str, seed: u64, seconds: u64) -> Result<TraceSummary, String> {
    let mut args = child_args("traced-child", workload, seed);
    args.extend(["--pairs".to_owned(), trace_pairs_for(seconds).to_string()]);
    let child = spawn_child(&args)?;
    let metrics = field(&child, "metrics")?
        .as_object()
        .ok_or("\"metrics\" is not an object")?
        .iter()
        .map(|(name, value)| {
            value
                .as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name:?} is not a number"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut failures = strings_field(&child, "failed_checks")?;
    failures.sort();
    failures.dedup();
    Ok(TraceSummary {
        workload: workload.to_owned(),
        metrics,
        trace_file: trace_path(workload),
        ops_attempted: u64_field(&child, "ops_attempted")?,
        ops_failed: u64_field(&child, "ops_failed")?,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_the_traced_pairs() {
        assert_eq!(trace_pairs_for(RUN_SECONDS), 4);
        assert_eq!(trace_pairs_for(1), 1);
        assert_eq!(trace_pairs_for(60), 6);
    }

    #[test]
    fn estimate_reports_value_quartile_median_and_spread() {
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let e = Estimate::of(0.5, &samples);
        assert_eq!(
            (e.value, e.lower_quartile, e.median, e.n),
            (0.5, 2.25, 4.5, 8)
        );
        assert!((e.spread - 1.0).abs() < 1e-12);
    }
}
