//! Flag → spec oracle for `pktbuf-lab run`/`fabric`/`clos`, driven through
//! the real binary. `tests/schema_fixtures.rs` pins what a spec or a report
//! looks like as bytes; nothing there says that `--load` still reaches
//! `load_percent`. Here every spec flag of a subcommand is set to a
//! non-default value and the document the binary prints is compared byte for
//! byte with a committed fixture under the workspace's `tests/fixtures/`, next
//! to the exact text of the parser's own errors.
//!
//! On a mismatch the test names the first differing line and leaves the fresh
//! bytes under `CARGO_TARGET_TMPDIR`; copy that file over the fixture when
//! the change is intended.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `pktbuf-lab` with `args`; returns (exit code, stdout, stderr).
fn lab(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_pktbuf-lab"))
        .args(args)
        .output()
        .expect("pktbuf-lab runs");
    let text = |bytes| String::from_utf8(bytes).expect("output is UTF-8");
    (
        output.status.code(),
        text(output.stdout),
        text(output.stderr),
    )
}

/// The stdout of a `pktbuf-lab` call that must succeed.
fn lab_stdout(args: &[&str]) -> String {
    let (code, stdout, stderr) = lab(args);
    assert_eq!(code, Some(0), "{args:?} failed:\n{stderr}");
    stdout
}

/// The stderr of a `pktbuf-lab` call that must be refused with nothing on
/// stdout (no run started, no document printed).
fn lab_refusal(args: &[&str]) -> String {
    let (code, stdout, stderr) = lab(args);
    assert_eq!(code, Some(2), "{args:?} was not refused:\n{stdout}");
    assert!(
        stdout.is_empty(),
        "{args:?} printed before failing:\n{stdout}"
    );
    stderr
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn assert_matches_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"));
    if actual == committed {
        return;
    }
    let line = actual
        .lines()
        .zip(committed.lines())
        .position(|(a, c)| a != c)
        .unwrap_or_else(|| actual.lines().count().min(committed.lines().count()));
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(fresh.parent().expect("a file under the tmpdir"))
        .and_then(|()| std::fs::write(&fresh, actual))
        .expect("the test tmpdir is writable");
    panic!(
        "tests/fixtures/{name} differs from what the binary printed, first at line {}:\n  \
         committed: {:?}\n  printed:   {:?}\nthe printed bytes are in {fresh:?}",
        line + 1,
        committed.lines().nth(line),
        actual.lines().nth(line),
    );
}

/// Writes `content` to a file of this test's own under the target tmpdir.
fn scratch_file(name: &str, content: &str) -> String {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, content).expect("the test tmpdir is writable");
    path.to_str().expect("the tmpdir is UTF-8").to_owned()
}

/// Splits a command line written as one string.
fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Every `fabric` spec flag, each at a non-default value.
const FABRIC_FLAGS: &str = "fabric --name cli-fabric --ports 4,6 --designs rads,mixed \
    --workloads hotspot,bursty --arbiters maximal,islip --iters 3 --load 50..70+10 \
    --egress-period 2 -b 2,4 -B 8..16*2 --banks 16,32 --slots 1234 --seeds 3,5 \
    --print-spec";

/// Every `clos` spec flag but `--transport` (it needs cut-through buffers,
/// so it cannot sit beside a non-default `-B`; see
/// `clos_transport_flag_forces_cut_through_in_command_line_order`), each at a
/// non-default value. `--faults <file>` is appended by the test.
const CLOS_FLAGS: &str = "clos --name cli-clos --radix 2,3 --ingress 2..4+1 --middle 2 \
    --designs rads,dram-only --workloads incast,hotspot --dispatches flowhash,occupancy-spray \
    --arbiters maximal --iters 2 --load 40,60 --link-capacity 4..16*4 --link-latency 3 \
    --egress-period 2 -b 4 -B 16 --banks 32 --slots 777 --seeds 9,11 --obs \
    --series 25 --trace-json unwritten.json --print-spec";

/// Every `run` spec flag at toy size. `--slots` then `--preload`: the later
/// phase flag switches the earlier one off, so the spec runs the preload with
/// no live arrivals.
const RUN_FLAGS: &str = "run --name cli-run --designs rads,cfds --workloads bursty \
    --queues 4 -b 2 -B 4 --banks 8 --slots 300 --preload 8 --seeds 2,4 --record-grants \
    --threads 1 --json -";

const FAULT_PLAN: &str = r#"[
  {"fault": "middle-death", "switch": 1, "start": 100, "duration": 50},
  {"fault": "link-flap", "boundary": "middle-egress", "switch": 0, "output": 1, "start": 300, "duration": 20}
]"#;

/// Every paper artefact prints the bytes committed under
/// `tests/fixtures/paper/`.
#[test]
fn paper_artefacts_print_their_committed_bytes() {
    for name in bench::paper::ARTEFACTS {
        let printed = lab_stdout(&["paper", name]);
        assert_matches_fixture(&format!("paper/{name}.txt"), &printed);
    }
}

#[test]
fn every_fabric_flag_reaches_its_field() {
    let printed = lab_stdout(&words(FABRIC_FLAGS));
    assert_matches_fixture("cli_fabric_print_spec.json", &printed);
}

#[test]
fn every_clos_flag_reaches_its_field() {
    let plan = scratch_file("cli_clos_faults.json", FAULT_PLAN);
    let mut args = words(CLOS_FLAGS);
    args.extend(["--faults", &plan]);
    assert_matches_fixture("cli_clos_print_spec.json", &lab_stdout(&args));
}

#[test]
fn every_run_flag_reaches_its_field_and_the_report() {
    assert_matches_fixture("cli_run_report.json", &lab_stdout(&words(RUN_FLAGS)));
}

#[test]
fn clos_transport_flag_forces_cut_through_in_command_line_order() {
    let spec = |args: &[&str]| sim::ClosSpec::from_json(&lab_stdout(args)).expect("a Clos spec");
    let forced = spec(&["clos", "-B", "16", "--transport", "--print-spec"]);
    assert_eq!(forced.rads_granularity, 1);
    assert_eq!(forced.transport, Some(sim::TransportScenario::default()));
    // The other way round `-B` wins, and no combination is cut-through.
    let stderr = lab_refusal(&["clos", "--transport", "-B", "16", "--print-spec"]);
    assert_eq!(
        stderr,
        "pktbuf-lab: no combination of the swept parameters forms a valid configuration; \
         first invalid point: closed-loop transport needs cut-through stage buffers: a \
         RADS-family design with rads_granularity = 1 (batched writeback parks sub-batch \
         tails as permanent residents that a reliable sender would retransmit forever)\n"
    );
}

#[test]
fn oversized_crossbars_are_refused_with_the_reason() {
    let no_valid = "pktbuf-lab: no combination of the swept parameters forms a valid \
                    configuration; first invalid point: ";
    for (args, reason) in [
        (
            &["fabric", "--ports", "128"][..],
            "a crossbar takes 2 to 64 ports, got 128",
        ),
        (
            &["clos", "--radix", "65"],
            "the radix N sizes the ingress and egress switches: a crossbar takes 2 to 64 \
             ports, got 65",
        ),
        (
            &["clos", "--ingress", "65"],
            "the ingress switch count r sizes the middle switches: a crossbar takes 2 to 64 \
             ports, got 65",
        ),
    ] {
        assert_eq!(
            lab_refusal(args),
            format!("{no_valid}{reason}\n"),
            "{args:?}"
        );
    }
}

#[test]
fn transport_parameters_past_their_bounds_are_refused() {
    let full = std::fs::read_to_string(fixture_path("clos_spec_full.json")).unwrap();
    for (field, value) in [
        ("cwnd_max", "18014398509481984"),
        ("rto_initial", "9223372036854775000"),
    ] {
        let spec = full.replacen(
            &format!("\"{field}\": 32"),
            &format!("\"{field}\": {value}"),
            1,
        );
        assert_ne!(spec, full, "{field} is 32 in the fixture");
        let path = scratch_file(&format!("cli_clos_huge_{field}.json"), &spec);
        assert_eq!(
            lab_refusal(&["clos", "--spec", &path]),
            format!(
                "pktbuf-lab: no combination of the swept parameters forms a valid \
                 configuration; first invalid point: transport {field} must be at most \
                 4294967296, got {value} (a larger value overflows the source's timer or \
                 window arithmetic)\n"
            )
        );
    }
}

#[test]
fn link_provisioning_past_its_bounds_is_refused() {
    let full = std::fs::read_to_string(fixture_path("clos_spec_full.json")).unwrap();
    for (name, from, field, bound, value) in [
        (
            "capacity_wraps_to_zero",
            "\"link_capacity\": 8,",
            "link_capacity",
            "4294967295",
            "4294967296",
        ),
        (
            "capacity_wraps_to_one",
            "\"link_capacity\": 8,",
            "link_capacity",
            "4294967295",
            "4294967297",
        ),
        (
            "latency",
            "\"link_latency\": 1,",
            "link_latency",
            "4294967296",
            "18446744073709551615",
        ),
    ] {
        assert!(full.contains(from), "the fixture has {from}");
        let spec = full.replacen(from, &format!("\"{field}\": {value},"), 1);
        let path = scratch_file(&format!("cli_clos_link_{name}.json"), &spec);
        assert_eq!(
            lab_refusal(&["clos", "--spec", &path]),
            format!(
                "pktbuf-lab: no combination of the swept parameters forms a valid \
                 configuration; first invalid point: {field} must be at most {bound}, got \
                 {value} (a larger value overflows the link's credit or slot arithmetic)\n"
            )
        );
    }
}

#[test]
fn obs_ring_capacities_past_their_bounds_are_refused() {
    let full = std::fs::read_to_string(fixture_path("clos_spec_full.json")).unwrap();
    for (name, edits, field, value) in [
        (
            "trace",
            &[(
                "\"trace_capacity\": 4,",
                "\"trace_capacity\": 18446744073709551615,",
            )][..],
            "trace_capacity",
            "18446744073709551615",
        ),
        (
            "series",
            &[
                ("\"series_stride\": 100,", "\"series_stride\": 1,"),
                (
                    "\"series_capacity\": 8,",
                    "\"series_capacity\": 4611686018427387904,",
                ),
            ],
            "series_capacity",
            "4611686018427387904",
        ),
    ] {
        let mut spec = full.clone();
        for (from, to) in edits {
            assert!(spec.contains(from), "the fixture has {from}");
            spec = spec.replacen(from, to, 1);
        }
        let path = scratch_file(&format!("cli_clos_huge_{name}.json"), &spec);
        assert_eq!(
            lab_refusal(&["clos", "--spec", &path]),
            format!(
                "pktbuf-lab: no combination of the swept parameters forms a valid \
                 configuration; first invalid point: obs {field} must be at most 4194304, got \
                 {value} (each stage preallocates its ring at arm time)\n"
            )
        );
    }
}

#[test]
fn overrides_past_their_allocation_bounds_are_refused() {
    let no_valid = "pktbuf-lab: no combination of the swept parameters forms a valid \
                    configuration; first invalid point: ";
    let bound = "(a buffer allocates them up front)";
    let lookahead = |value: &str| {
        format!("lookahead of {value} slots is above the maximum of 4194304 slots {bound}")
    };
    let run_spec = |name: &str, designs: &str, overrides: &str| {
        scratch_file(
            &format!("cli_run_{name}.json"),
            &format!(
                r#"{{"name": "{name}", "designs": [{designs}], "num_queues": 4,
                    "granularity": 2, "rads_granularity": 4, "num_banks": 8,
                    "arrival_slots": 200, "seeds": [1], "overrides": {{{overrides}}}}}"#
            ),
        )
    };
    for (name, designs, overrides, reason) in [
        (
            "rads_long_lookahead",
            r#""RADS""#,
            r#""lookahead": 2147483648"#,
            lookahead("2147483648"),
        ),
        (
            "cfds_long_lookahead",
            r#""CFDS""#,
            r#""lookahead": 2147483648"#,
            lookahead("2147483648"),
        ),
        (
            "huge_lookahead",
            r#""RADS", "CFDS""#,
            r#""lookahead": 1000000000000"#,
            lookahead("1000000000000"),
        ),
        (
            "huge_physical_queue_factor",
            r#""CFDS""#,
            r#""physical_queue_factor": 1099511627776"#,
            format!(
                "k·Q of 4398046511104 physical queues is above the maximum of 1048576 \
                 physical queues {bound}"
            ),
        ),
    ] {
        let path = run_spec(name, designs, overrides);
        assert_eq!(
            lab_refusal(&["run", "--spec", &path]),
            format!("{no_valid}{reason}\n"),
            "{name}"
        );
    }
    let full = std::fs::read_to_string(fixture_path("clos_spec_full.json")).unwrap();
    let spec = full.replacen(
        "\"overrides\": {},",
        "\"overrides\": {\"lookahead\": 2147483648},",
        1,
    );
    assert_ne!(spec, full, "the fixture overrides nothing");
    let path = scratch_file("cli_clos_long_lookahead.json", &spec);
    assert_eq!(
        lab_refusal(&["clos", "--spec", &path]),
        format!(
            "{no_valid}stage buffer configuration: {}\n",
            lookahead("2147483648")
        )
    );
}

#[test]
fn bank_counts_past_their_allocation_bound_are_refused() {
    let refusal = |context: &str, banks: &str| {
        format!(
            "pktbuf-lab: no combination of the swept parameters forms a valid configuration; \
             first invalid point: {context}num_banks of {banks} banks is above the maximum of \
             65536 banks (a buffer allocates them up front)\n"
        )
    };
    let fabric = std::fs::read_to_string(fixture_path("cli_fabric_print_spec.json")).unwrap();
    let clos = std::fs::read_to_string(fixture_path("clos_spec_minimal.json")).unwrap();
    for banks in ["2147483648", "4294967296", "9223372036854775808"] {
        let run = format!(
            r#"{{"name": "banks", "designs": ["CFDS"], "num_queues": 4, "granularity": 2,
                "rads_granularity": 4, "num_banks": {banks}, "arrival_slots": 200,
                "seeds": [1]}}"#
        );
        let fabric = fabric
            .replacen("\"RADS\",\n    \"mixed\"", "\"CFDS\"", 1)
            .replacen("16,\n    32", banks, 1);
        let clos = clos
            .replacen("\"RADS\"", "\"CFDS\"", 1)
            .replacen("\"rads_granularity\": 1", "\"rads_granularity\": 4", 1)
            .replacen("\"num_banks\": 16", &format!("\"num_banks\": {banks}"), 1);
        for (command, spec, context) in [
            ("run", run, ""),
            ("fabric", fabric, "port buffer configuration: "),
            ("clos", clos, "stage buffer configuration: "),
        ] {
            assert!(
                spec.contains(banks) && spec.contains("\"CFDS\""),
                "{command}: the spec was not edited"
            );
            let path = scratch_file(&format!("cli_{command}_banks_{banks}.json"), &spec);
            assert_eq!(
                lab_refusal(&[command, "--spec", &path]),
                refusal(context, banks),
                "{command} with {banks} banks"
            );
        }
    }
}

#[test]
fn a_saved_spec_is_the_base_and_flags_edit_it_wherever_they_stand() {
    let tiny = scratch_file(
        "cli_tiny_run_spec.json",
        r#"{"name": "tiny", "num_queues": 4, "granularity": 2, "rads_granularity": 4,
            "num_banks": 8, "arrival_slots": 200, "seeds": [1, 2, 3]}"#,
    );
    let after = lab_stdout(&["run", "--spec", &tiny, "--seeds", "9", "--json", "-"]);
    let before = lab_stdout(&["run", "--seeds", "9", "--spec", &tiny, "--json", "-"]);
    assert_eq!(after, before);
    assert!(after.contains("\"seeds\": [\n      9\n    ]"), "{after}");
    assert!(after.contains("\"name\": \"tiny\""), "{after}");
    // The print-spec fixtures are documents a parent build wrote: they load
    // as `--spec`, print back unchanged, and take edits from either side.
    for (command, fixture) in [
        ("fabric", "cli_fabric_print_spec.json"),
        ("clos", "cli_clos_print_spec.json"),
    ] {
        let saved = fixture_path(fixture);
        let saved = saved.to_str().expect("the fixture path is UTF-8");
        assert_matches_fixture(
            fixture,
            &lab_stdout(&[command, "--spec", saved, "--print-spec"]),
        );
        let after = lab_stdout(&[command, "--spec", saved, "--seeds", "9", "--print-spec"]);
        let before = lab_stdout(&[command, "--seeds", "9", "--spec", saved, "--print-spec"]);
        assert_eq!(after, before, "{command}");
        assert!(after.contains("\"seeds\": [\n    9\n  ]"), "{after}");
    }
}

#[test]
fn legacy_and_foreign_spec_documents() {
    let clos = std::fs::read_to_string(fixture_path("cli_clos_print_spec.json")).unwrap();
    // A Clos spec saved while the per-stage worker pipeline existed.
    let legacy = scratch_file(
        "cli_clos_legacy_workers.json",
        &clos.replacen('{', "{\n  \"workers\": 1,", 1),
    );
    assert_matches_fixture(
        "cli_clos_print_spec.json",
        &lab_stdout(&["clos", "--spec", &legacy, "--print-spec"]),
    );
    // Specs saved while every layer carried a line rate that no run read.
    let with_line_rate =
        |spec: &str| spec.replacen('{', "{\n  \"line_rate\": \"OC-768 (40 Gb/s)\",", 1);
    for (command, name) in [
        ("fabric", "cli_fabric_print_spec.json"),
        ("clos", "cli_clos_print_spec.json"),
    ] {
        let committed = std::fs::read_to_string(fixture_path(name)).unwrap();
        let legacy = scratch_file(
            &format!("cli_{command}_legacy_line_rate.json"),
            &with_line_rate(&committed),
        );
        assert_matches_fixture(
            name,
            &lab_stdout(&[command, "--spec", &legacy, "--print-spec"]),
        );
    }
    // `run` prints no spec alone; its report echoes the spec it ran.
    let report = std::fs::read_to_string(fixture_path("cli_run_report.json")).unwrap();
    let serde_json::Value::Object(report) = serde_json::from_str(&report).unwrap() else {
        panic!("a run report is a JSON object");
    };
    let spec: sim::ExperimentSpec = serde_json::from_value(report.get("spec").unwrap().clone())
        .expect("the report echoes its spec");
    let legacy = scratch_file(
        "cli_run_legacy_line_rate.json",
        &with_line_rate(&spec.to_json()),
    );
    assert_matches_fixture(
        "cli_run_report.json",
        &lab_stdout(&["run", "--spec", &legacy, "--threads", "1", "--json", "-"]),
    );
    // Each layer refuses the others' documents, whole or by the tag alone.
    let clos_path = fixture_path("cli_clos_print_spec.json");
    let fabric_path = fixture_path("cli_fabric_print_spec.json");
    for (command, foreign) in [
        ("fabric", &clos_path),
        ("clos", &fabric_path),
        ("run", &fabric_path),
    ] {
        let stderr = lab_refusal(&[command, "--spec", foreign.to_str().unwrap()]);
        assert!(stderr.starts_with("pktbuf-lab: spec JSON: "), "{stderr}");
    }
    let tag_only = |kind: &str| {
        scratch_file(
            &format!("cli_kind_{kind}.json"),
            &format!("{{\"kind\": \"{kind}\"}}"),
        )
    };
    let stderr = lab_refusal(&["fabric", "--spec", &tag_only("clos")]);
    assert!(stderr.contains("(kind \"clos\")"), "{stderr}");
    let stderr = lab_refusal(&["clos", "--spec", &tag_only("fabric")]);
    assert!(stderr.contains("(kind \"fabric\")"), "{stderr}");
    lab_refusal(&["run", "--spec", &tag_only("fabric")]);
    lab_stdout(&["fabric", "--spec", &tag_only("fabric"), "--print-spec"]);
}

#[test]
fn parser_errors_keep_their_exact_text() {
    for (args, message) in [
        (
            &["run", "--bogus"][..],
            "unknown flag \"--bogus\" (try `pktbuf-lab help`)",
        ),
        (
            &["sweep", "--bogus"],
            "unknown flag \"--bogus\" (try `pktbuf-lab help`)",
        ),
        (&["fabric", "--bogus"], "unknown fabric flag \"--bogus\""),
        (&["clos", "--bogus"], "unknown clos flag \"--bogus\""),
        // `run`/`sweep` have no gate suite and nothing to print but reports.
        (
            &["run", "--smoke"],
            "unknown flag \"--smoke\" (try `pktbuf-lab help`)",
        ),
        (
            &["run", "--print-spec"],
            "unknown flag \"--print-spec\" (try `pktbuf-lab help`)",
        ),
        (&["fabric", "--ports"], "--ports needs a value"),
        (&["clos", "--radix"], "--radix needs a value"),
        (&["run", "--queues"], "--queues needs a value"),
        // A short alias reports under the long name.
        (&["fabric", "-b"], "--granularity needs a value"),
        (&["clos", "-B"], "--rads-granularity needs a value"),
        (&["fabric", "--json"], "--json needs a value"),
        (
            &["fabric", "--ports", "4..8"],
            "--ports: bad sweep: range \"4..8\" needs '*factor' (geometric) or '+step' (linear)",
        ),
        (
            &["clos", "--link-capacity", "x"],
            "--link-capacity: bad sweep: \"x\" is not an unsigned integer",
        ),
        (
            &["run", "--slots", "many"],
            "--slots: \"many\" is not an unsigned integer",
        ),
        (
            &["clos", "--seeds", "1,x"],
            "--seeds: \"x\" is not an unsigned integer",
        ),
        (
            &["clos", "--series", "0"],
            "--series needs a stride of at least 1 slot",
        ),
        // Values are parsed after the whole line is read: an unknown flag
        // further right is reported first.
        (
            &["fabric", "--ports", "4..8", "--bogus"],
            "unknown fabric flag \"--bogus\"",
        ),
    ] {
        assert_eq!(
            lab_refusal(args),
            format!("pktbuf-lab: {message}\n"),
            "{args:?}"
        );
    }
}

#[test]
fn smoke_refuses_spec_flags() {
    let fixed = "pktbuf-lab: --smoke runs the fixed gate suite; drop --spec and the spec flags \
                 (--threads/--json/--csv remain available)\n";
    assert_eq!(lab_refusal(&["fabric", "--smoke", "--ports", "4"]), fixed);
    assert_eq!(lab_refusal(&["fabric", "--ports", "4", "--smoke"]), fixed);
    assert_eq!(lab_refusal(&["clos", "--smoke", "--radix", "4"]), fixed);
    assert_eq!(lab_refusal(&["clos", "--obs", "--smoke"]), fixed);
    let saved = fixture_path("cli_clos_print_spec.json");
    assert_eq!(
        lab_refusal(&["clos", "--smoke", "--spec", saved.to_str().unwrap()]),
        fixed
    );
}
