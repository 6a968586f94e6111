//! Byte-level schema fixtures: the committed spec documents, one small
//! seeded report per layer and the switch and Clos design matrices under
//! `tests/fixtures/`, rebuilt here from spec struct literals and
//! `LabRunner::with_threads(1)` and compared byte for byte. A change to a
//! serde impl (derived or hand-written), a report field, a workload label or
//! a simulated number shows up as a `git diff` of a fixture instead of
//! having to be spotted by eye.
//!
//! Each fixture holds exactly what the CLI would print: `to_json` plus the
//! trailing newline, or `to_csv()`. On a mismatch the test names the first
//! differing line and leaves the fresh bytes under `CARGO_TARGET_TMPDIR`;
//! copy that file over the fixture when the change is intended. (`spec_template.json`, the
//! output of `pktbuf-lab spec`, is pinned to its spec by a unit test next
//! to `template_spec` in the `pktbuf-lab` binary; here it only round-trips.)

use future_packet_buffers::fabric::RecoveryReport;
use future_packet_buffers::model::ConfigOverrides;
use future_packet_buffers::sim::clos::{ClosSpec, ObsScenario, TransportMode, TransportScenario};
use future_packet_buffers::sim::experiment;
use future_packet_buffers::sim::fabric::{FabricDesign, FabricSpec, FabricWorkload};
use future_packet_buffers::sim::lab::LabRunner;
use future_packet_buffers::sim::scenario::{DesignKind, Workload};
use future_packet_buffers::sim::{
    ExperimentSpec, FaultEvent, FaultKind, FaultPlan, LinkBoundary, Sweep,
};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// Compares `json` (plus the CLI's trailing newline) to the committed bytes.
fn assert_matches_fixture(name: &str, json: &str) {
    let actual = format!("{json}\n");
    let committed = fixture(name);
    if actual == committed {
        return;
    }
    let line = actual
        .lines()
        .zip(committed.lines())
        .position(|(a, c)| a != c)
        .unwrap_or_else(|| actual.lines().count().min(committed.lines().count()));
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh, &actual).expect("the test tmpdir is writable");
    panic!(
        "tests/fixtures/{name} differs from the rebuilt document, first at line {}:\n  \
         committed: {:?}\n  rebuilt:   {:?}\nthe rebuilt bytes are in {fresh:?}",
        line + 1,
        committed.lines().nth(line),
        actual.lines().nth(line),
    );
}

/// The toy Clos every Clos fixture shares: 4 external ports (r = m = N = 2),
/// cut-through RADS (what the transport requires), 300 live slots.
fn toy_clos() -> ClosSpec {
    ClosSpec {
        name: "fixture-clos".into(),
        designs: vec![FabricDesign::Fixed(DesignKind::Rads)],
        workloads: vec![FabricWorkload::Uniform],
        radix: Sweep::fixed(2),
        ingress_switches: Sweep::fixed(2),
        middle_switches: Sweep::fixed(2),
        rads_granularity: 1,
        arrival_slots: 300,
        seeds: vec![7],
        ..ClosSpec::default()
    }
}

/// The toy Clos with every omit-when-default section set: a fault plan that
/// uses each fault kind once (windowed and permanent), a non-default
/// transport and the standard probes plus a short flight-recorder window.
fn full_clos_spec() -> ClosSpec {
    let flap = FaultKind::LinkFlap {
        boundary: LinkBoundary::IngressMiddle,
        switch: 1,
        output: 0,
    };
    ClosSpec {
        faults: FaultPlan::new([
            FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 60, 50),
            FaultEvent::windowed(flap, 150, 30),
            FaultEvent::windowed(FaultKind::EgressSlowdown { port: 1, factor: 2 }, 100, 40),
            FaultEvent::permanent(FaultKind::DropOnFull, 0),
            FaultEvent::permanent(FaultKind::IngressPortDeath { port: 3 }, 250),
        ]),
        transport: Some(TransportScenario {
            mode: TransportMode::Incast,
            incast_target: 1,
            max_retries: 6,
            ..TransportScenario::default()
        }),
        obs: Some(ObsScenario {
            series_stride: 100,
            series_capacity: 8,
            trace_capacity: 4,
            trace_from_slot: 60,
            trace_to_slot: 80,
            ..ObsScenario::standard()
        }),
        ..toy_clos()
    }
}

fn experiment_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fixture-experiment".into(),
        designs: DesignKind::all().to_vec(),
        workloads: vec![Workload::Bursty],
        num_queues: Sweep::fixed(4),
        granularity: Sweep::fixed(2),
        rads_granularity: Sweep::fixed(4),
        num_banks: Sweep::fixed(8),
        arrival_slots: 300,
        seeds: vec![7],
        ..ExperimentSpec::default()
    }
}

/// The experiment fixture with every [`ConfigOverrides`] knob set (the
/// other fixtures leave all three at "keep the configuration's value").
fn overrides_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fixture-overrides".into(),
        designs: vec![DesignKind::Rads, DesignKind::Cfds],
        arrival_slots: 200,
        overrides: ConfigOverrides {
            lookahead: Some(64),
            physical_queue_factor: Some(2),
            dram_capacity_cells: Some(4_096),
        },
        ..experiment_spec()
    }
}

/// The toy Clos under the default closed-loop transport, measured against
/// its fault-free twin: once over a windowed middle-switch death with the
/// latency probes armed (goodput recovers, percentile keys present) and once
/// with a port that never comes back and no probes (never recovers: `null`
/// slots, percentile keys absent).
fn recovery_reports() -> [RecoveryReport; 2] {
    let transport = ClosSpec {
        transport: Some(TransportScenario::default()),
        ..toy_clos()
    };
    let flap = FaultKind::LinkFlap {
        boundary: LinkBoundary::IngressMiddle,
        switch: 1,
        output: 0,
    };
    let runner = LabRunner::new().with_threads(1);
    let run = |spec: ClosSpec| {
        let report = runner.run(&spec).expect("the spec expands");
        report.runs.into_iter().next().expect("one run").report
    };
    let healthy = run(transport.clone());
    let recovered = run(ClosSpec {
        faults: FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 1 },
            60,
            50,
        )]),
        obs: Some(ObsScenario {
            latency_hist: true,
            ..ObsScenario::default()
        }),
        ..transport.clone()
    });
    let lost = run(ClosSpec {
        faults: FaultPlan::new([
            FaultEvent::windowed(flap, 60, 30),
            FaultEvent::permanent(FaultKind::IngressPortDeath { port: 3 }, 100),
        ]),
        ..transport
    });
    [&recovered, &lost].map(|faulted| {
        RecoveryReport::measure(&healthy, faulted).expect("both twins ran the transport")
    })
}

fn fabric_spec() -> FabricSpec {
    FabricSpec {
        name: "fixture-fabric".into(),
        ports: Sweep::fixed(2),
        arrival_slots: 300,
        seeds: vec![7],
        ..FabricSpec::default()
    }
}

#[test]
fn spec_documents_match_their_builders_and_round_trip() {
    let template = fixture("spec_template.json");
    let parsed: ExperimentSpec = experiment::from_json(&template).expect("the template parses");
    assert_matches_fixture("spec_template.json", &experiment::to_json(&parsed));

    let overrides = overrides_spec();
    let json = experiment::to_json(&overrides);
    assert_matches_fixture("experiment_spec_overrides.json", &json);
    let parsed =
        experiment::from_json::<ExperimentSpec>(&fixture("experiment_spec_overrides.json"));
    assert_eq!(parsed.expect("the overrides fixture parses"), overrides);

    let fabric = FabricSpec::default();
    experiment::expand(&fabric).expect("the default is valid");
    assert_matches_fixture("fabric_spec_default.json", &experiment::to_json(&fabric));
    let parsed = experiment::from_json::<FabricSpec>(&fixture("fabric_spec_default.json"));
    assert_eq!(parsed.expect("the fabric fixture parses"), fabric);

    // Every omit-when-default key present once, and every one omitted.
    let full = full_clos_spec();
    let minimal = toy_clos();
    for (name, spec, sections_written) in [
        ("clos_spec_full.json", &full, true),
        ("clos_spec_minimal.json", &minimal, false),
    ] {
        experiment::expand(spec).expect("the Clos fixture spec is valid");
        let json = experiment::to_json(spec);
        assert_matches_fixture(name, &json);
        let parsed: ClosSpec =
            experiment::from_json(&fixture(name)).expect("the Clos fixture parses");
        assert_eq!(&parsed, spec, "{name}");
        for key in ["\"faults\"", "\"transport\"", "\"obs\""] {
            assert_eq!(json.contains(key), sections_written, "{name}: {key}");
        }
    }
}

#[test]
fn seeded_reports_match_their_fixtures_byte_for_byte() {
    let runner = LabRunner::new().with_threads(1);
    let report = runner.run(&experiment_spec()).expect("the spec expands");
    assert_matches_fixture("experiment_report.json", &report.to_json());
    let report = runner.run(&overrides_spec()).expect("the spec expands");
    assert_matches_fixture("experiment_report_overrides.json", &report.to_json());
    let report = runner.run(&fabric_spec()).expect("the spec expands");
    assert_matches_fixture("fabric_report.json", &report.to_json());
    // Transport, faults and obs all armed: every optional report section.
    let report = runner.run(&full_clos_spec()).expect("the spec expands");
    assert_matches_fixture("clos_report.json", &report.to_json());
}

/// Every fabric design × every fabric workload on a 4-port switch and on a
/// Clos with r = m = N = 2: the oracle for the code that turns a design
/// into port buffers and a workload into generators (`Mixed` included,
/// which no other fixture runs).
#[test]
fn design_matrices_match_their_fixtures() {
    let runner = LabRunner::new().with_threads(1);
    let fabric = FabricSpec {
        name: "fixture-fabric-matrix".into(),
        designs: FabricDesign::all().to_vec(),
        workloads: FabricWorkload::all().to_vec(),
        ports: Sweep::fixed(4),
        granularity: Sweep::fixed(2),
        rads_granularity: Sweep::fixed(8),
        num_banks: Sweep::fixed(16),
        arrival_slots: 300,
        seeds: vec![7],
        ..FabricSpec::default()
    };
    let clos = ClosSpec {
        name: "fixture-clos-matrix".into(),
        designs: FabricDesign::all().to_vec(),
        workloads: FabricWorkload::all().to_vec(),
        radix: Sweep::fixed(2),
        ingress_switches: Sweep::fixed(2),
        middle_switches: Sweep::fixed(2),
        arrival_slots: 300,
        seeds: vec![7],
        ..ClosSpec::default()
    };
    let fabric = runner.run(&fabric).expect("the spec expands");
    let clos = runner.run(&clos).expect("the spec expands");
    for (name, skipped, runs, csv) in [
        (
            "fabric_design_matrix.csv",
            fabric.skipped_invalid,
            fabric.runs.len(),
            fabric.to_csv(),
        ),
        (
            "clos_design_matrix.csv",
            clos.skipped_invalid,
            clos.runs.len(),
            clos.to_csv(),
        ),
    ] {
        assert_eq!((skipped, runs), (0, 16), "{name}: every pair runs");
        assert_matches_fixture(name, csv.trim_end());
    }
}

#[test]
fn recovery_reports_match_their_fixture_in_both_shapes() {
    let [recovered, lost] = recovery_reports();
    assert!(recovered.recovered && recovered.latency_p50_slots.is_some());
    assert!(!lost.recovered && lost.latency_p50_slots.is_none());
    let json = serde_json::to_string_pretty(&[recovered, lost][..]).expect("reports encode");
    assert_matches_fixture("recovery_reports.json", &json);
    for key in ["\"recovery_slot\": null", "\"slots_to_recover\": null"] {
        assert!(json.contains(key), "a missed recovery prints {key}");
    }
    assert_eq!(json.matches("latency_p50_slots").count(), 1);
}
