//! Acceptance tests for the declarative experiment layer: cross-design
//! equivalence, sweep-scale loss-freedom, and determinism of the runner.

use sim::lab::LabRunner;
use sim::scenario::{grants_per_queue, DesignKind, Scenario, Workload};
use sim::spec::{ExperimentSpec, Sweep};

/// RADS and CFDS must deliver the *same grant sequence per queue* under every
/// workload at a small design point: same per-queue cell counts, in FIFO
/// order (order violations are counted by the buffers themselves and must be
/// zero). The DRAM-only baseline is excluded — it misses by design.
#[test]
fn rads_and_cfds_grant_logs_are_equivalent_under_every_workload() {
    for workload in Workload::all() {
        let base = Scenario {
            workload,
            preload_cells_per_queue: 32,
            ..Scenario::small_cfds()
        };
        let run = |design: DesignKind| Scenario { design, ..base }.run_with_grant_log(true);
        let rads = run(DesignKind::Rads);
        let cfds = run(DesignKind::Cfds);
        assert!(rads.stats.is_loss_free(), "{workload}: {:?}", rads.stats);
        assert!(cfds.stats.is_loss_free(), "{workload}: {:?}", cfds.stats);
        assert_eq!(rads.stats.order_violations, 0);
        assert_eq!(cfds.stats.order_violations, 0);
        // Same cells per queue…
        let per_queue_rads = grants_per_queue(&rads, base.num_queues);
        let per_queue_cfds = grants_per_queue(&cfds, base.num_queues);
        assert_eq!(per_queue_rads, per_queue_cfds, "{workload}");
        // …and every preloaded cell was delivered.
        assert!(per_queue_rads.iter().all(|&c| c == 32), "{workload}");
        // With per-queue FIFO delivery (order_violations == 0), equal
        // per-queue counts mean the grant sequence each queue observes is
        // identical: cells 0..32 of that queue, in order.
    }
}

/// The acceptance sweep: ≥ 24 expanded runs across designs, workloads and
/// queue counts, all zero-miss / zero-drop / conflict-free where the paper
/// claims it.
#[test]
fn a_two_dozen_run_sweep_is_loss_free() {
    let spec = ExperimentSpec::builder()
        .name("acceptance-sweep")
        .designs([DesignKind::Rads, DesignKind::Cfds])
        .workloads(Workload::all())
        .num_queues(Sweep::list([8, 16, 32]))
        .granularity(Sweep::fixed(2))
        .rads_granularity(Sweep::fixed(8))
        .num_banks(Sweep::fixed(32))
        .arrival_slots(1_200)
        .seeds([9])
        .build()
        .unwrap();
    let expansion = spec.expand().unwrap();
    assert!(
        expansion.runs.len() >= 24,
        "need a sweep of at least 24 runs, got {}",
        expansion.runs.len()
    );

    let report = LabRunner::new().run(&spec).unwrap();
    assert!(
        report.aggregate.all_loss_free,
        "every run must be loss-free: {:?}",
        report
            .runs
            .iter()
            .filter(|r| !r.report.stats.is_loss_free())
            .map(|r| (r.scenario.design, r.scenario.workload, r.report.stats))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.aggregate.total_misses, 0);
    assert_eq!(report.aggregate.total_drops, 0);
    assert_eq!(report.aggregate.total_bank_conflicts, 0);
}

/// Identical seeds must reproduce bit-identical `SimulationReport`s through
/// the whole stack (generators → engine → runner → serialization), and the
/// spec must round-trip through JSON before running.
#[test]
fn reports_are_bit_identical_for_identical_seeds_even_via_json() {
    let spec = ExperimentSpec::builder()
        .name("determinism")
        .designs([DesignKind::Cfds])
        .workloads([Workload::UniformRandom, Workload::Bursty, Workload::Hotspot])
        .num_queues(Sweep::fixed(16))
        .granularity(Sweep::fixed(2))
        .rads_granularity(Sweep::fixed(8))
        .num_banks(Sweep::fixed(32))
        .arrival_slots(2_000)
        .seeds([21])
        .record_grants(true)
        .build()
        .unwrap();
    // Round-trip the spec through JSON first: the executed experiment is the
    // *serialized* description, not just the in-memory one.
    let reparsed = ExperimentSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(reparsed, spec);

    let a = LabRunner::new().run(&spec).unwrap();
    let b = LabRunner::new().run(&reparsed).unwrap();
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.report, y.report, "{}", x.scenario.workload);
        assert!(x.report.grant_log.is_some());
    }
    assert_eq!(a.to_json(), b.to_json());
}
