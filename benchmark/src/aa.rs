//! The A/A self-test: is the benchmark steadier than its own bounds?
//!
//! Two sets of runs of the *same* binary are interleaved (`A B B A …`), run
//! `i` of either set on seed `i + 1` — exactly what the driver does with a
//! parent commit and a change. `AA.json` records what was measured (per
//! metric and workload: both sets' medians, quartiles, spread and values,
//! and the gap between the medians); the verdict is taken against the bounds
//! in `BENCHMARK.json`: a metric passes when the medians differ by no more
//! than its bound and each set's inter-quartile range over its median stays
//! within both that bound and [`SPREAD_LIMIT`]. The simulated metrics and
//! the fingerprint must agree bit for bit between the two runs of a seed.
//! The committed `AA.json` is where the bounds come from, and a unit test
//! keeps the two consistent.

use crate::json::{array_field, f64_field, field, num, obj, uint};
use crate::run::{run_workload, RunSummary, RUN_SECONDS};
use crate::stats::quartiles;
use serde_json::Value;
use std::path::PathBuf;

/// Runs per set and workload.
const RUNS_PER_SET: usize = 10;
/// No set of any end-to-end metric may spread (IQR/median) further than
/// this, whatever its bound.
const SPREAD_LIMIT: f64 = 0.10;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn text_field(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

/// `(name, unit, lower_is_better, bound)` of every end-to-end metric, from
/// `BENCHMARK.json`: the bounds live there and nowhere else.
fn bounds() -> Result<Vec<(String, String, bool, f64)>, String> {
    let json = read_json(&manifest_dir().join("../BENCHMARK.json"))?;
    array_field(&json, "end_to_end")?
        .iter()
        .map(|m| {
            Ok((
                text_field(m, "name")?,
                text_field(m, "unit")?,
                text_field(m, "better")? == "lower",
                f64_field(m, "bound")?,
            ))
        })
        .collect()
}

/// One set's values of one metric.
fn set_json(values: &[f64]) -> Value {
    let [q1, q2, q3] = quartiles(values);
    obj([
        ("median", num(q2)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("spread", num(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 })),
        ("n", uint(values.len() as u64)),
        (
            "values",
            Value::Array(values.iter().map(|v| num(*v)).collect()),
        ),
    ])
}

fn metric_values(set: &[RunSummary], name: &str) -> Vec<f64> {
    set.iter()
        .map(|run| {
            run.end_to_end()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |(_, value, _)| value)
        })
        .collect()
}

/// Judges an `AA.json` document against `bounds`: one line per (workload,
/// metric), and whether all of them passed.
fn judge(
    aa: &Value,
    bounds: &[(String, String, bool, f64)],
) -> Result<(Vec<String>, bool), String> {
    let mut lines = Vec::new();
    let mut pass = true;
    for workload in array_field(aa, "workloads")? {
        let name = text_field(workload, "name")?;
        if field(workload, "sim_identical_between_sets")? != &Value::Bool(true) {
            lines.push(format!(
                "aa {name}: FAIL the two runs of a seed disagree on a simulated statistic"
            ));
            pass = false;
        }
        for metric in array_field(workload, "metrics")? {
            let metric_name = text_field(metric, "name")?;
            let (_, unit, _, bound) = bounds
                .iter()
                .find(|(n, _, _, _)| *n == metric_name)
                .ok_or(format!("BENCHMARK.json has no bound for {metric_name}"))?;
            let a = field(metric, "a")?;
            let b = field(metric, "b")?;
            let gap = f64_field(metric, "gap")?;
            let (a_spread, b_spread) = (f64_field(a, "spread")?, f64_field(b, "spread")?);
            let limit = bound.min(SPREAD_LIMIT);
            let within = gap.abs() <= *bound && a_spread <= limit && b_spread <= limit;
            // The driver asks for every spread below a third of its bound.
            let steady = a_spread.max(b_spread) < bound / 3.0;
            pass &= within;
            lines.push(format!(
                "aa {name:<22} {metric_name:<24} A {:>13.6e} B {:>13.6e} {unit:<10} gap {gap:>+8.4} spread {a_spread:.4}/{b_spread:.4} bound {bound:.3} {}",
                f64_field(a, "median")?,
                f64_field(b, "median")?,
                match (within, steady) {
                    (true, true) => "ok",
                    (true, false) => "ok (spread above a third of the bound)",
                    (false, _) => "FAIL",
                }
            ));
        }
    }
    Ok((lines, pass))
}

/// Runs the self-test over every workload and writes `AA.json`. `Ok(false)`
/// when a run was incorrect, a metric's two sets disagree or a set is too
/// spread out.
pub fn aa_command() -> Result<bool, String> {
    let (workloads, runs, seconds) = (crate::workloads::NAMES, RUNS_PER_SET, RUN_SECONDS);
    let bounds = bounds()?;
    let mut all_correct = true;
    // Seed by seed, the workloads take turns: a noisy quarter of an hour on
    // the host then costs every workload a run or two, which the quartiles
    // shrug off, and not one workload most of a set.
    let mut sets: Vec<[Vec<RunSummary>; 2]> =
        workloads.iter().map(|_| Default::default()).collect();
    for i in 0..runs {
        let seed = i as u64 + 1;
        for (w, workload) in workloads.iter().enumerate() {
            // A B B A A B B A …: neither set always runs first.
            let order = if (i + w) % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let summary = run_workload(workload, seed, seconds)?;
                println!(
                    "aa {workload} {} seed {seed}: {:.4} ns/step (repetitions: median {:.4}, spread {:.4}), set-up {:.3e} s, {:.3} MiB, {} of {} children slow{}",
                    ["A", "B"][set],
                    summary.ns_per_buffer_step.value,
                    summary.ns_per_buffer_step.median,
                    summary.ns_per_buffer_step.spread,
                    summary.setup_s.value,
                    summary.peak_rss_mb,
                    summary.slow_children,
                    summary.children,
                    if summary.correct() { "" } else { "  INCORRECT" },
                );
                all_correct &= summary.correct();
                sets[w][set].push(summary);
            }
        }
    }

    let mut workloads_json = Vec::new();
    for (workload, [a, b]) in workloads.iter().zip(&sets) {
        let sim_identical = a.iter().zip(b).all(|(x, y)| {
            x.sim_fingerprint == y.sim_fingerprint
                && x.sim_cells_per_port_slot.to_bits() == y.sim_cells_per_port_slot.to_bits()
                && x.sim_latency_max_slots == y.sim_latency_max_slots
        });
        let metrics_json = bounds
            .iter()
            .map(|(name, unit, lower_is_better, _)| {
                let (va, vb) = (metric_values(a, name), metric_values(b, name));
                let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
                // Positive: set B reads worse than set A.
                let gap = if ma == 0.0 {
                    0.0
                } else if *lower_is_better {
                    (mb - ma) / ma
                } else {
                    (ma - mb) / ma
                };
                obj([
                    ("name", Value::String(name.clone())),
                    ("unit", Value::String(unit.clone())),
                    ("a", set_json(&va)),
                    ("b", set_json(&vb)),
                    ("gap", num(gap)),
                ])
            })
            .collect();
        let slow: u64 = a.iter().chain(b).map(|r| u64::from(r.slow_children)).sum();
        workloads_json.push(obj([
            ("name", Value::String((*workload).to_owned())),
            ("sim_identical_between_sets", Value::Bool(sim_identical)),
            ("slow_children_total", uint(slow)),
            ("metrics", Value::Array(metrics_json)),
        ]));
    }

    let out = obj([
        (
            "protocol",
            Value::String(
                "two interleaved sets (A B B A ...) of runs of the same binary, the workloads \
                 taking turns seed by seed; run i of either set uses seed i+1; gap = (median B - median A) / median A, signed so \
                 that positive means B reads worse; spread = (q3 - q1) / median with Python's \
                 statistics.quantiles(n=4)"
                    .to_owned(),
            ),
        ),
        ("runs_per_set", uint(runs as u64)),
        ("seconds", uint(seconds)),
        (
            "host_cpus",
            uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Value::Array(workloads_json)),
    ]);
    let path = manifest_dir().join("AA.json");
    std::fs::write(&path, out.to_json_string_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let (lines, within_bounds) = judge(&out, &bounds)?;
    for line in lines {
        println!("{line}");
    }
    let pass = all_correct && within_bounds;
    println!(
        "aa: wrote {} ({})",
        path.display(),
        if pass { "pass" } else { "FAIL" }
    );
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(pass)),
            (
                "attempted",
                uint((2 * runs * workloads.len()).max(1) as u64)
            ),
            ("failed", uint(u64::from(!pass))),
            ("metrics", obj(Vec::<(String, Value)>::new())),
        ])
        .to_json_string()
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_statistics_use_the_quartile_helpers() {
        let values: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        let json = set_json(&values);
        assert_eq!(f64_field(&json, "median"), Ok(55.0));
        assert_eq!(f64_field(&json, "q1"), Ok(27.5));
        assert_eq!(f64_field(&json, "q3"), Ok(82.5));
        assert_eq!(f64_field(&json, "spread"), Ok(1.0));
        assert_eq!(array_field(&json, "values").unwrap().len(), 10);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bounds = bounds().expect("BENCHMARK.json is readable");
        let names: Vec<&str> = bounds.iter().map(|(n, _, _, _)| n.as_str()).collect();
        let catalogue: Vec<&str> = crate::catalog::END_TO_END
            .iter()
            .map(|(n, _, _)| *n)
            .collect();
        assert_eq!(names, catalogue);
        let setup = bounds.iter().find(|(n, _, _, _)| n == "setup_s").unwrap();
        assert!(setup.2, "set-up time: lower is better");
        assert!(
            bounds.iter().all(|(_, _, _, b)| *b <= setup.3),
            "set-up has the largest bound"
        );
    }

    /// The committed measurement and the committed bounds agree: every
    /// (metric, workload) pair of `AA.json` passes under `BENCHMARK.json`,
    /// all five workloads are there with at least ten runs a set, and every
    /// bound covers what the A/A gaps and spreads call for.
    #[test]
    fn committed_aa_passes_under_the_committed_bounds() {
        let aa = read_json(&manifest_dir().join("AA.json")).expect("AA.json is committed");
        let bounds = bounds().unwrap();
        let (lines, pass) = judge(&aa, &bounds).unwrap();
        assert!(pass, "{}", lines.join("\n"));
        assert_eq!(
            crate::json::u64_field(&aa, "runs_per_set").unwrap(),
            RUNS_PER_SET as u64
        );
        let workloads = array_field(&aa, "workloads").unwrap();
        let names: Vec<String> = workloads
            .iter()
            .map(|w| text_field(w, "name").unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);

        // What the A/A run calls for: a bound covers 2 x the largest gap
        // between set medians and 3 x the largest set spread (the driver
        // refuses a benchmark whose spread exceeds a bound and asks for
        // spreads below a third of it). A committed bound may be wider
        // than that (one hour does not sample every mood of the host),
        // never narrower; the contract's ceiling of 0.25 is checked where
        // `BENCHMARK.json` is, so a protocol too noisy for any legal bound
        // fails here.
        for (name, _, _, bound) in &bounds {
            let mut needed = 0.0f64;
            for workload in workloads {
                let metric = array_field(workload, "metrics")
                    .unwrap()
                    .iter()
                    .find(|m| text_field(m, "name").unwrap() == *name)
                    .unwrap();
                let spread = |set: &str| f64_field(field(metric, set).unwrap(), "spread").unwrap();
                needed = needed
                    .max(2.0 * f64_field(metric, "gap").unwrap().abs())
                    .max(3.0 * spread("a").max(spread("b")));
            }
            assert!(
                *bound >= needed,
                "{name}: bound {bound} but the A/A run calls for {needed:.4}"
            );
        }
    }
}
