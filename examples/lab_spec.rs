//! The declarative experiment pipeline, end to end: write an
//! `ExperimentSpec` as a struct literal, round-trip it through JSON (the same text
//! `pktbuf-lab run --spec` would read), execute it on a `LabRunner`, and
//! inspect the structured report.
//!
//! Run with `cargo run --example lab_spec`.

use future_packet_buffers::sim::experiment;
use future_packet_buffers::sim::lab::LabRunner;
use future_packet_buffers::sim::scenario::{DesignKind, Workload};
use future_packet_buffers::sim::spec::{ExperimentSpec, Sweep};

fn main() {
    // Designs × workloads × queue counts × seeds — 2 × 2 × 2 × 1 = 8 runs.
    // Fields left out keep `ExperimentSpec::default()`.
    let spec = ExperimentSpec {
        name: "example-lab-sweep".into(),
        designs: vec![DesignKind::Rads, DesignKind::Cfds],
        workloads: vec![Workload::AdversarialRoundRobin, Workload::Hotspot],
        num_queues: Sweep::doubling(16, 32),
        granularity: Sweep::fixed(4),
        rads_granularity: Sweep::fixed(16),
        num_banks: Sweep::fixed(64),
        arrival_slots: 5_000,
        seeds: vec![13],
        ..ExperimentSpec::default()
    };

    // The spec is data: this JSON is exactly what a spec file contains.
    let json = experiment::to_json(&spec);
    println!("-- the experiment, as data --\n{json}\n");
    let reparsed: ExperimentSpec = experiment::from_json(&json).expect("round-trips");
    assert_eq!(reparsed, spec);

    // Execute across worker threads; the report is deterministic regardless.
    let report = LabRunner::new().run(&reparsed).expect("spec expands");
    println!("-- per-run results (CSV) --\n{}", report.to_csv());
    let agg = &report.aggregate;
    println!(
        "-- aggregate -- {} runs, all loss-free: {}, mean {:.3} grants/slot, peak RR {} entries",
        agg.runs, agg.all_loss_free, agg.mean_grants_per_slot, agg.peak_rr_entries
    );
    assert!(
        agg.all_loss_free,
        "the paper's guarantees hold on every run"
    );
}
