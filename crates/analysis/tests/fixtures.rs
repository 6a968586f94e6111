//! Fixture tests: every rule family must *fire* on a seeded violation.
//!
//! The unit tests in `src/` pin lexing and parsing; these tests pin the
//! user-visible contract — feed a small source tree to [`analysis::analyze_sources`]
//! with a fixture config and check which diagnostics come out, including the
//! full waiver lifecycle and the JSON artifact round-trip.

use analysis::analyze_sources;
use analysis::config::Config;
use analysis::report::{AnalysisReport, Severity};

fn config(toml: &str) -> Config {
    Config::from_toml(toml).expect("fixture config parses")
}

fn hot_config() -> Config {
    config("[hotpath]\nfiles = [\"hot.rs\"]\nsetup_functions = [\"new\", \"with_*\"]\n")
}

fn sources(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(p, t)| ((*p).to_owned(), (*t).to_owned()))
        .collect()
}

fn rules_fired(report: &AnalysisReport) -> Vec<(&str, u32, bool)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule.as_str(), d.line, d.waived))
        .collect()
}

// ---------------------------------------------------------------- hotpath-alloc

#[test]
fn hotpath_alloc_fires_on_every_allocating_construct_family() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let a = Vec::new();\n\
             let b = vec![0u8; 64];\n\
             let c = format!(\"{a:?}\");\n\
             let d = items.iter().collect::<Vec<_>>();\n\
             let e = Box::new(c);\n\
             let f = s.to_owned();\n\
             }\n",
        )]),
        &hot_config(),
    );
    // One finding per allocating line, all errors, none waived.
    let fired = rules_fired(&report);
    for line in 2..=7 {
        assert!(
            fired.contains(&("hotpath-alloc", line, false)),
            "line {line} should fire: {fired:?}"
        );
    }
    assert_eq!(report.error_count(), 6);
}

#[test]
fn hotpath_alloc_exempts_setup_functions_and_test_code() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn new() -> Self { Self { buf: Vec::new() } }\n\
             fn with_capacity(n: usize) -> Self { Self { buf: vec![0; n] } }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn grows() { let v = vec![1, 2, 3]; assert_eq!(v.len(), 3); }\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 0, "{:?}", report.diagnostics);
}

/// The acceptance demonstration from the issue: reverting a hot-path file to
/// an allocating construct must fail at `analyze`. `grow_window` mimics a
/// pre-PR-3 per-slot `collect()` sneaking back into a steady-state function.
#[test]
fn reintroducing_an_allocation_into_a_hot_function_fails() {
    let clean = "fn step(&mut self) { self.len += 1; }\n";
    let reverted = "fn step(&mut self) {\n\
                    let occupancies: Vec<usize> = self.queues.iter().map(Vec::len).collect();\n\
                    self.scan(&occupancies);\n\
                    }\n";
    let cfg = hot_config();
    assert_eq!(
        analyze_sources(&sources(&[("hot.rs", clean)]), &cfg).error_count(),
        0
    );
    let report = analyze_sources(&sources(&[("hot.rs", reverted)]), &cfg);
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.diagnostics[0].rule, "hotpath-alloc");
    assert_eq!(report.diagnostics[0].line, 2);
}

// ---------------------------------------------------------------- panic-freedom

#[test]
fn panic_freedom_fires_on_unwrap_expect_and_panic_macros() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let a = x.unwrap();\n\
             let b = y.expect(\"y\");\n\
             panic!(\"boom\");\n\
             unreachable!();\n\
             }\n",
        )]),
        &hot_config(),
    );
    let fired = rules_fired(&report);
    for line in 2..=5 {
        assert!(
            fired.contains(&("panic-freedom", line, false)),
            "line {line} should fire: {fired:?}"
        );
    }
}

#[test]
fn panic_freedom_exempts_debug_assert_arguments_and_tests() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             debug_assert!(self.map.get(&k).unwrap().alive, \"dead entry\");\n\
             assert_eq!(self.tail.last().unwrap().seq, seq);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn probes() { probe().unwrap(); }\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 0, "{:?}", report.diagnostics);
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_fires_on_hash_containers_clocks_and_unseeded_rngs() {
    let cfg = config("[determinism]\npaths = [\"det\"]\n");
    let report = analyze_sources(
        &sources(&[(
            "det/report.rs",
            "fn build(&mut self) {\n\
             let mut seen = HashMap::new();\n\
             let started = std::time::Instant::now();\n\
             let mut rng = thread_rng();\n\
             seen.insert(started, rng.gen::<u64>());\n\
             }\n",
        )]),
        &cfg,
    );
    let fired = rules_fired(&report);
    for line in 2..=4 {
        assert!(
            fired.contains(&("determinism", line, false)),
            "line {line} should fire: {fired:?}"
        );
    }
}

#[test]
fn truncating_cast_warns_on_narrowed_ordinal_arithmetic() {
    let cfg = config("[determinism]\npaths = [\"det\"]\nordinal_stems = [\"slot\", \"seq\"]\n");
    let report = analyze_sources(
        &sources(&[(
            "det/engine.rs",
            "fn label(&self) -> u32 {\n\
             let compact = self.current_slot as u32;\n\
             compact\n\
             }\n",
        )]),
        &cfg,
    );
    let warn = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "truncating-cast")
        .expect("cast warning fires");
    assert_eq!(warn.severity, Severity::Warning);
    assert_eq!(warn.line, 2);
    // Warnings are advisory: they never gate.
    assert_eq!(report.error_count(), 0);
}

// ---------------------------------------------------------------- config drift

#[test]
fn a_hot_file_missing_from_the_scanned_tree_is_config_drift() {
    let report = analyze_sources(&sources(&[("other.rs", "fn f() {}\n")]), &hot_config());
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.diagnostics[0].rule, "config-drift");
    assert_eq!(report.diagnostics[0].file, "hot.rs");
}

// ---------------------------------------------------------------- waiver lifecycle

#[test]
fn a_justified_waiver_suppresses_and_survives_into_the_artifact() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let d = q.pop_front().expect(\"front checked\"); \
             // analyze: allow(panic-freedom) — pop follows a front() check\n\
             drop(d);\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 0);
    assert_eq!(report.waived_count(), 1);
    let waived = &report.diagnostics[0];
    assert!(waived.waived);
    assert_eq!(
        waived.justification.as_deref(),
        Some("pop follows a front() check")
    );
}

#[test]
fn an_own_line_waiver_covers_the_next_code_line() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             // analyze: allow(hotpath-alloc) — scratch built once at run entry\n\
             let ring = vec![0u8; 64];\n\
             drop(ring);\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 0, "{:?}", report.diagnostics);
    assert_eq!(report.waived_count(), 1);
}

#[test]
fn a_stale_waiver_is_an_error_so_waivers_cannot_outlive_their_code() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             // analyze: allow(panic-freedom) — the unwrap this excused is gone\n\
             let d = q.pop_front();\n\
             drop(d);\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.diagnostics[0].rule, "unused-waiver");
    assert_eq!(report.diagnostics[0].line, 2);
}

#[test]
fn a_waiver_without_a_justification_is_malformed() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let a = x.unwrap(); // analyze: allow(panic-freedom)\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == "malformed-waiver" && d.severity == Severity::Error));
}

#[test]
fn a_waiver_only_covers_the_rules_it_names() {
    // The waiver names hotpath-alloc, but the line holds a panic-freedom
    // violation: nothing is suppressed and the waiver itself goes stale.
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let a = x.unwrap(); // analyze: allow(hotpath-alloc) — wrong rule\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == "panic-freedom" && !d.waived));
    assert!(report.diagnostics.iter().any(|d| d.rule == "unused-waiver"));
}

// ---------------------------------------------------------------- JSON artifact

#[test]
fn the_json_artifact_round_trips_through_the_vendored_serde_json() {
    let report = analyze_sources(
        &sources(&[(
            "hot.rs",
            "fn step(&mut self) {\n\
             let a = x.unwrap();\n\
             let b = q.pop().expect(\"q\"); // analyze: allow(panic-freedom) — guarded\n\
             }\n",
        )]),
        &hot_config(),
    );
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.waived_count(), 1);
    let json = report.to_json();
    let restored = AnalysisReport::from_json(&json).expect("artifact parses back");
    assert_eq!(restored, report);
    // The derived counts are recomputed, not trusted, on the way back in.
    assert_eq!(restored.error_count(), 1);
    assert_eq!(restored.waived_count(), 1);
}
