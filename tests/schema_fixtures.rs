//! Byte-level schema fixtures: the committed spec documents, one small
//! seeded report per layer and the switch and Clos design matrices under
//! `tests/fixtures/`, rebuilt here through the public builders and
//! `LabRunner::with_threads(1)` and compared byte for byte. A change to a
//! serde impl (derived or hand-written), a report field, a workload label or
//! a simulated number shows up as a `git diff` of a fixture instead of
//! having to be spotted by eye.
//!
//! Each fixture holds exactly what the CLI would print: `to_json()` plus the
//! trailing newline, or `to_csv()`. On a mismatch the test names the first
//! differing line and leaves the fresh bytes under `CARGO_TARGET_TMPDIR`;
//! copy that file over the fixture when the change is intended. (`spec_template.json`, the
//! output of `pktbuf-lab spec`, is pinned to its builder by a unit test next
//! to `template_spec` in the `pktbuf-lab` binary; here it only round-trips.)

use future_packet_buffers::fabric::RecoveryReport;
use future_packet_buffers::model::ConfigOverrides;
use future_packet_buffers::sim::clos::{
    ClosSpec, ClosSpecBuilder, ObsScenario, TransportMode, TransportScenario,
};
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
fn toy_clos() -> ClosSpecBuilder {
    ClosSpec::builder()
        .name("fixture-clos")
        .designs([FabricDesign::Fixed(DesignKind::Rads)])
        .workloads([FabricWorkload::Uniform])
        .radix(Sweep::fixed(2))
        .ingress_switches(Sweep::fixed(2))
        .middle_switches(Sweep::fixed(2))
        .rads_granularity(1)
        .arrival_slots(300)
        .seeds([7])
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
    toy_clos()
        .faults(FaultPlan::new([
            FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 60, 50),
            FaultEvent::windowed(flap, 150, 30),
            FaultEvent::windowed(FaultKind::EgressSlowdown { port: 1, factor: 2 }, 100, 40),
            FaultEvent::permanent(FaultKind::DropOnFull, 0),
            FaultEvent::permanent(FaultKind::IngressPortDeath { port: 3 }, 250),
        ]))
        .transport(TransportScenario {
            mode: TransportMode::Incast,
            incast_target: 1,
            max_retries: 6,
            ..TransportScenario::default()
        })
        .obs(ObsScenario {
            series_stride: 100,
            series_capacity: 8,
            trace_capacity: 4,
            trace_from_slot: 60,
            trace_to_slot: 80,
            ..ObsScenario::standard()
        })
        .build()
        .expect("the full Clos fixture spec is valid")
}

fn experiment_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .name("fixture-experiment")
        .designs(DesignKind::all())
        .workloads([Workload::Bursty])
        .num_queues(Sweep::fixed(4))
        .granularity(Sweep::fixed(2))
        .rads_granularity(Sweep::fixed(4))
        .num_banks(Sweep::fixed(8))
        .arrival_slots(300)
        .seeds([7])
        .build()
        .expect("the experiment fixture spec is valid")
}

/// The experiment fixture with every [`ConfigOverrides`] knob set (the
/// other fixtures leave all three at "keep the configuration's value").
fn overrides_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .name("fixture-overrides")
        .designs([DesignKind::Rads, DesignKind::Cfds])
        .workloads([Workload::Bursty])
        .num_queues(Sweep::fixed(4))
        .granularity(Sweep::fixed(2))
        .rads_granularity(Sweep::fixed(4))
        .num_banks(Sweep::fixed(8))
        .arrival_slots(200)
        .seeds([7])
        .overrides(ConfigOverrides {
            lookahead: Some(64),
            physical_queue_factor: Some(2),
            dram_capacity_cells: Some(4_096),
        })
        .build()
        .expect("the overrides fixture spec is valid")
}

/// The toy Clos under the default closed-loop transport, measured against
/// its fault-free twin: once over a windowed middle-switch death with the
/// latency probes armed (goodput recovers, percentile keys present) and once
/// with a port that never comes back and no probes (never recovers: `null`
/// slots, percentile keys absent).
fn recovery_reports() -> [RecoveryReport; 2] {
    let transport = || toy_clos().transport(TransportScenario::default());
    let flap = FaultKind::LinkFlap {
        boundary: LinkBoundary::IngressMiddle,
        switch: 1,
        output: 0,
    };
    let runner = LabRunner::new().with_threads(1);
    let run = |builder: ClosSpecBuilder| {
        let spec = builder.build().expect("the recovery fixture spec is valid");
        let report = runner.run(&spec).expect("the spec expands");
        report.runs.into_iter().next().expect("one run").report
    };
    let healthy = run(transport());
    let recovered = run(transport()
        .faults(FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 1 },
            60,
            50,
        )]))
        .obs(ObsScenario {
            latency_hist: true,
            ..ObsScenario::default()
        }));
    let lost = run(transport().faults(FaultPlan::new([
        FaultEvent::windowed(flap, 60, 30),
        FaultEvent::permanent(FaultKind::IngressPortDeath { port: 3 }, 100),
    ])));
    [&recovered, &lost].map(|faulted| {
        RecoveryReport::measure(&healthy, faulted).expect("both twins ran the transport")
    })
}

fn fabric_spec() -> FabricSpec {
    FabricSpec::builder()
        .name("fixture-fabric")
        .ports(Sweep::fixed(2))
        .arrival_slots(300)
        .seeds([7])
        .build()
        .expect("the fabric fixture spec is valid")
}

#[test]
fn spec_documents_match_their_builders_and_round_trip() {
    let template = fixture("spec_template.json");
    let parsed = ExperimentSpec::from_json(&template).expect("the template parses");
    assert_matches_fixture("spec_template.json", &parsed.to_json());

    let overrides = overrides_spec();
    assert_matches_fixture("experiment_spec_overrides.json", &overrides.to_json());
    let parsed = ExperimentSpec::from_json(&fixture("experiment_spec_overrides.json"));
    assert_eq!(parsed.expect("the overrides fixture parses"), overrides);

    let fabric = FabricSpec::builder().build().expect("the default is valid");
    assert_matches_fixture("fabric_spec_default.json", &fabric.to_json());
    let parsed = FabricSpec::from_json(&fixture("fabric_spec_default.json"));
    assert_eq!(parsed.expect("the fabric fixture parses"), fabric);

    // Every omit-when-default key present once, and every one omitted.
    let full = full_clos_spec();
    let minimal = toy_clos().build().expect("the minimal Clos spec is valid");
    for (name, spec, sections_written) in [
        ("clos_spec_full.json", &full, true),
        ("clos_spec_minimal.json", &minimal, false),
    ] {
        let json = spec.to_json();
        assert_matches_fixture(name, &json);
        let parsed = ClosSpec::from_json(&fixture(name)).expect("the Clos fixture parses");
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
    let fabric = FabricSpec::builder()
        .name("fixture-fabric-matrix")
        .designs(FabricDesign::all())
        .workloads(FabricWorkload::all())
        .ports(Sweep::fixed(4))
        .granularity(Sweep::fixed(2))
        .rads_granularity(Sweep::fixed(8))
        .num_banks(Sweep::fixed(16))
        .arrival_slots(300)
        .seeds([7])
        .build()
        .expect("the fabric matrix spec is valid");
    let clos = ClosSpec::builder()
        .name("fixture-clos-matrix")
        .designs(FabricDesign::all())
        .workloads(FabricWorkload::all())
        .radix(Sweep::fixed(2))
        .ingress_switches(Sweep::fixed(2))
        .middle_switches(Sweep::fixed(2))
        .arrival_slots(300)
        .seeds([7])
        .build()
        .expect("the Clos matrix spec is valid");
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
