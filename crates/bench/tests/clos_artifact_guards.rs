//! `pktbuf-lab clos` artifact flags, driven through the real binary: every
//! `'-'` destination keeps stdout machine-clean, and a flag combination that
//! cannot be honoured is refused *before* the sweep runs (an empty stdout is
//! the witness — the run's summary table would have been printed there).

use std::process::Command;

/// Runs `pktbuf-lab clos` on a toy 4-port Clos with `extra` flags appended;
/// returns (exit success, stdout, stderr).
fn clos(extra: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_pktbuf-lab"))
        .args(["clos", "--radix", "2", "--ingress", "2", "--middle", "2"])
        .args(["--slots", "200", "--threads", "1"])
        .args(extra)
        .output()
        .expect("pktbuf-lab runs");
    let text = |bytes| String::from_utf8(bytes).expect("output is UTF-8");
    (
        output.status.success(),
        text(output.stdout),
        text(output.stderr),
    )
}

fn assert_refused_before_the_run(extra: &[&str], message: &str) {
    let (ok, stdout, stderr) = clos(extra);
    assert!(!ok, "{extra:?} was accepted");
    assert!(stdout.is_empty(), "the sweep ran first:\n{stdout}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn an_extra_artifact_on_stdout_moves_the_summary_to_stderr() {
    let (ok, stdout, stderr) = clos(&["--faults-json", "-"]);
    assert!(ok, "{stderr}");
    serde_json::from_str::<serde_json::Value>(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not the JSON artifact alone ({e}):\n{stdout}"));
    assert!(stderr.contains("zero-loss"), "{stderr}");
    // Same for the CSV artifact, once its probes are armed.
    let (ok, stdout, stderr) = clos(&["--series", "50", "--series-csv", "-"]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("index,stage,slot,"), "{stdout}");
}

#[test]
fn two_artifacts_on_stdout_are_refused_before_the_run() {
    assert_refused_before_the_run(
        &["--faults-json", "-", "--trace-json", "-"],
        "cannot both write to stdout",
    );
}

#[test]
fn recovery_json_without_smoke_is_refused_before_the_run() {
    assert_refused_before_the_run(
        &["--recovery-json", "unwritten.json"],
        "--recovery-json needs --smoke",
    );
}

#[test]
fn series_csv_without_series_probes_is_refused_before_the_run() {
    assert_refused_before_the_run(
        &["--series-csv", "unwritten.csv"],
        "--series-csv needs armed series probes",
    );
}
