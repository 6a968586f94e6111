//! `pktbuf-benchmark`: the benchmark of `BENCHMARK.json`. See
//! `benchmark/README.md` for the metrics, the workloads, the run protocol
//! and the commands.

mod aa;
mod catalog;
mod child;
mod host;
mod instrument;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod workloads;

use json::{num, obj, uint};
use serde_json::Value;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage: pktbuf-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1]
       pktbuf-benchmark aa

  --trace 0  (default) the end-to-end run of W (default: all five): for N seconds
             of wall time, fresh child processes one after the other on each of
             up to two CPUs
  --trace 1  the separate traced run: per-layer metrics and out/trace-W.json
  aa         the A/A self-test: two interleaved sets of 10 runs per workload,
             written to AA.json; fails when a metric's sets disagree or spread

Prints every metric by name and, as the last line, one JSON object; exits
non-zero when an output check fails. Workloads: buf_worstcase buf_bursty_idle
switch_islip clos_uniform clos_transport_faults.";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// `aa`, or the internal `child` / `traced-child` a run re-executes
    /// itself as.
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Interleaved (bare, traced) repetition pairs of an internal traced
    /// child.
    pairs: u32,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: run::RUN_SECONDS,
        pairs: 1,
        ..Args::default()
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = number(&arg, &value("a number")?)?,
            "--seconds" => {
                parsed.seconds = number(&arg, &value("a number")?)?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--pairs" => parsed.pairs = number(&arg, &value("a number")?)?,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            "aa" | "child" | "traced-child" if parsed.command.is_none() => {
                parsed.command = Some(arg);
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The result object the driver reads from the last line of standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, String)>,
) -> String {
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", uint(attempted.max(1))),
        ("failed", uint(failed)),
        (
            "metrics",
            obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    obj([("value", num(value)), ("unit", Value::String(unit))]),
                )
            })),
        ),
    ])
    .to_json_string()
}

fn selected(args: &Args) -> Vec<String> {
    match &args.workload {
        Some(name) => vec![name.clone()],
        None => workloads::NAMES.iter().map(|n| (*n).to_owned()).collect(),
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in selected(args) {
        let summary = run::run_workload(&workload, args.seed, args.seconds)?;
        summary.print();
        all_correct &= summary.correct();
        println!(
            "{}",
            result_line(
                summary.correct(),
                summary.ops_attempted,
                summary.ops_failed,
                summary.end_to_end().into_iter().map(|(name, value, unit)| (
                    name.to_owned(),
                    value,
                    unit.to_owned()
                )),
            )
        );
    }
    Ok(all_correct)
}

fn trace_command(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in selected(args) {
        let summary = run::trace_workload(&workload, args.seed, args.seconds)?;
        summary.print();
        all_correct &= summary.correct();
        // The contract wants every catalogued metric, and only those.
        let metrics = catalog::PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                summary
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, value)| ((*name).to_owned(), *value, (*unit).to_owned()))
                    .ok_or(format!("the traced child did not report {name}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if summary.metrics.len() != metrics.len() {
            return Err("the traced child reported a metric the catalogue lacks".to_owned());
        }
        println!(
            "{}",
            result_line(
                summary.correct(),
                summary.ops_attempted,
                summary.ops_failed,
                metrics
            )
        );
    }
    Ok(all_correct)
}

fn child_command(args: &Args, traced: bool) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("a child needs --workload")?;
    let value = with_workload!(workload, W => if traced {
        child::traced::<W>(args.seed, args.pairs, &run::trace_path(workload))
    } else {
        child::end_to_end::<W>(args.seed)
    })
    .ok_or(format!("unknown workload {workload:?}"))?;
    println!("{}", value.to_json_string());
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        Some("aa") => aa::aa_command(),
        Some("child") => child_command(&args, false),
        Some("traced-child") => child_command(&args, true),
        _ if args.trace => trace_command(&args),
        _ => run_command(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pktbuf-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_driver_contract_parses() {
        let args = parse("--workload clos_uniform --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(args.command, None);
        assert_eq!(args.workload.as_deref(), Some("clos_uniform"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12, true));
        let args = parse("").unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (1, run::RUN_SECONDS, false)
        );
        assert_eq!(selected(&args).len(), 5);
        assert_eq!(parse("aa").unwrap().command.as_deref(), Some("aa"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("run").is_err());
        assert!(parse("aa aa").is_err());
        assert!(parse("aa --runs 2").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, [("setup_s".to_owned(), 2.5e-5, "s".to_owned())]);
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json::u64_field(&parsed, "attempted"), Ok(1), "at least 1");
        let metric = json::field(json::field(&parsed, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(json::f64_field(metric, "value"), Ok(2.5e-5));
        assert_eq!(json::field(metric, "unit").unwrap().as_str(), Some("s"));
    }
}
