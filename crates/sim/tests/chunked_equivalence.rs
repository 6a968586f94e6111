//! The chunked engine (fused batch loops + idle fast-forward) must be
//! observationally identical to the per-slot reference engine: bit-identical
//! `SimulationReport`s — including grant logs — for every design × workload,
//! with live arrivals and with preloaded drains, and at chunk-boundary edge
//! cases (runs shorter than a chunk, runs one slot off a chunk multiple).

use sim::scenario::{DesignKind, Scenario, Workload};
use sim::{SimulationReport, CHUNK_SLOTS};

fn base() -> Scenario {
    Scenario {
        num_queues: 16,
        granularity: 2,
        rads_granularity: 8,
        num_banks: 16,
        seed: 23,
        ..Scenario::small_cfds()
    }
}

fn assert_identical(scenario: &Scenario) {
    let chunked: SimulationReport = scenario.run_with_grant_log(true);
    let per_slot: SimulationReport = scenario.run_per_slot_with_grant_log(true);
    assert_eq!(
        chunked, per_slot,
        "chunked vs per-slot mismatch for {:?}/{:?}",
        scenario.design, scenario.workload
    );
    // Bit-identical serialized artifacts, not just PartialEq: the JSON is
    // what downstream tooling diffs.
    let chunked_json = serde_json::to_string_pretty(&chunked).unwrap();
    let per_slot_json = serde_json::to_string_pretty(&per_slot).unwrap();
    assert_eq!(chunked_json, per_slot_json);
    assert!(chunked.grant_log.is_some(), "grant log must be recorded");
}

#[test]
fn live_arrivals_reports_are_byte_identical() {
    for design in DesignKind::all() {
        for workload in Workload::all() {
            let scenario = Scenario {
                design,
                workload,
                preload_cells_per_queue: 0,
                arrival_slots: 2_000,
                ..base()
            };
            assert_identical(&scenario);
        }
    }
}

#[test]
fn preloaded_drain_reports_are_byte_identical() {
    for design in DesignKind::all() {
        for workload in Workload::all() {
            let scenario = Scenario {
                design,
                workload,
                preload_cells_per_queue: 32,
                arrival_slots: 0,
                ..base()
            };
            assert_identical(&scenario);
        }
    }
}

/// Chunk-boundary edge cases: active phases that are empty, shorter than one
/// chunk, exactly one chunk, and one slot to either side of a chunk multiple.
#[test]
fn chunk_boundary_slot_counts_are_byte_identical() {
    let chunk = CHUNK_SLOTS as u64;
    for design in DesignKind::all() {
        for slots in [1, chunk - 1, chunk, chunk + 1, 3 * chunk, 3 * chunk + 7] {
            let scenario = Scenario {
                design,
                workload: Workload::AdversarialRoundRobin,
                preload_cells_per_queue: 0,
                arrival_slots: slots,
                ..base()
            };
            assert_identical(&scenario);
        }
    }
}

/// Different seeds shift where the drain's request stream dries up relative
/// to chunk boundaries; sweep a few to exercise the drain termination rule
/// (and the idle fast-forward that collapses the flush tail).
#[test]
fn drain_termination_is_seed_robust() {
    for design in DesignKind::all() {
        for seed in [1u64, 7, 101, 1009] {
            let scenario = Scenario {
                design,
                workload: Workload::UniformRandom,
                preload_cells_per_queue: 0,
                arrival_slots: 1_500,
                seed,
                ..base()
            };
            assert_identical(&scenario);
        }
    }
}

/// Queue counts beyond one 64-bit word: the chunked engine's generators scan
/// the buffers' requestable bitmask across word boundaries (and, for the
/// hotspot workload, a hot prefix shorter than a word), while the per-slot
/// engine probes `requestable_cells` queue by queue.
#[test]
fn multi_word_queue_counts_are_byte_identical() {
    for num_queues in [65, 130] {
        for design in DesignKind::all() {
            for workload in Workload::all() {
                // Live arrivals, then a preloaded drain (all queues run dry
                // together: the scan's sparse end).
                for (preload_cells_per_queue, arrival_slots) in [(0, 1_500), (8, 0)] {
                    let scenario = Scenario {
                        num_queues,
                        design,
                        workload,
                        preload_cells_per_queue,
                        arrival_slots,
                        ..base()
                    };
                    assert_identical(&scenario);
                }
            }
        }
    }
}
