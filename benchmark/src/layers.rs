//! Isolated per-layer kernels: each times a layer's public functions on
//! inputs of the workloads' shape (Q = 64, b = 4, B = 16, M = 64; 16- and
//! 8-port arbiters; the 64-port Clos report).
//!
//! They complement the in-situ wrapper numbers: a wrapper says how much of a
//! workload's time a layer takes, a kernel says what one operation of that
//! layer costs with nothing else in the cache. An optimisation of a layer
//! should move its kernel first and the end-to-end metric named beside it in
//! `README.md` second.

use crate::host::{time_per_op, xorshift};
use cacti_lite::ProcessNode;
use cfds::{DramSchedulerSubsystem, DsaPolicy, RenamingTable};
use dram_sim::{AddressMapper, DramStore, GroupId, InterleavingConfig};
use fabric::{ArbiterKind, CrossbarArbiter};
use mma::{EcqfMma, HeadMmaSubsystem, ThresholdTailMma};
use obs::Log2Histogram;
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, PhysicalQueueId};
use sim::clos::{ClosScenario, ClosSpec};
use sim::scenario::{DesignKind, Scenario, Workload as SimWorkload};
use sim::spec::{ExperimentSpec, Sweep};
use sim::LabRunner;
use sram_buf::{GlobalCamBuffer, SharedBuffer, UnifiedLinkedListBuffer};
use std::hint::black_box;
use std::time::Instant;
use traffic::{AdversarialRoundRobin, ClosedLoopConfig, ClosedLoopSource, RequestGenerator};

/// Host-time budget of one kernel, ms.
const KERNEL_MS: u64 = 40;
/// Operations per timed batch of the nanosecond-scale kernels.
const BATCH: u64 = 4_096;

const Q: usize = 64;
const BIG_B: usize = 16;

fn design_point() -> CfdsConfig {
    Scenario {
        num_queues: Q,
        granularity: 4,
        rads_granularity: BIG_B,
        num_banks: 64,
        ..Scenario::small_cfds()
    }
    .cfds_config()
}

/// The isolated kernels' results, by `BENCHMARK.json` metric name.
pub fn isolated_kernels(eligibility_density: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("traffic.request_next_ns", request_next_ns()),
        ("traffic.closedloop_poll_ns", closedloop_poll_ns()),
        ("mma.ecqf_slot_ns", ecqf_slot_ns()),
        ("mma.tail_select_ns", tail_select_ns()),
        ("cfds.dss_issue_ns", dss_issue_ns()),
        ("cfds.renaming_block_ns", renaming_block_ns()),
        ("dram_sim.store_block_ns", store_block_ns()),
        (
            "sram_buf.cam_cell_ns",
            shared_buffer_cell_ns(GlobalCamBuffer::new(Q, 4 * Q)),
        ),
        (
            "sram_buf.linked_list_cell_ns",
            shared_buffer_cell_ns(UnifiedLinkedListBuffer::new(Q, 4 * Q)),
        ),
        (
            "fabric.arbiter_schedule_n16_ns",
            arbiter_schedule_ns(16, eligibility_density),
        ),
        (
            "fabric.arbiter_schedule_n8_ns",
            arbiter_schedule_ns(8, eligibility_density),
        ),
        ("sim.lab_overhead_us_per_run", lab_overhead_us_per_run()),
        ("sim.report_json_us", report_json_us()),
        ("sim.spec_roundtrip_us", spec_roundtrip_us()),
        ("obs.hist_record_ns", hist_record_ns()),
        ("cacti_lite.design_point_us", design_point_us()),
    ]
}

/// `AdversarialRoundRobin::next_inline` against a frozen oracle in which
/// every queue has cells: the request side of `buf_worstcase`.
fn request_next_ns() -> f64 {
    let available = [1u64; Q];
    let mut requests = AdversarialRoundRobin::new(Q);
    let mut slot = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            black_box(requests.next_inline(slot, &|q: LogicalQueueId| available[q.as_usize()]));
            slot += 1;
        }
        BATCH
    })
}

/// One slot of a `ClosedLoopSource` under the driver contract
/// (`on_ack` → `expire_timers` → `poll`), acks returning 8 slots later.
fn closedloop_poll_ns() -> f64 {
    const RTT: usize = 8;
    let mut source = ClosedLoopSource::new(
        0,
        64,
        traffic::DemandPattern::Sweep,
        ClosedLoopConfig::default(),
    );
    let mut in_flight = [None; RTT];
    let mut slot = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let lane = slot as usize % RTT;
            if let Some((dest, seq)) = in_flight[lane].take() {
                source.on_ack(dest, seq, slot);
            }
            source.expire_timers(slot);
            in_flight[lane] = source.poll(slot, true);
            slot += 1;
        }
        BATCH
    })
}

/// One slot of the ECQF head MMA at the RADS design point: `on_request`
/// every slot, `select_replenishment` every `B` slots, round-robin requests.
fn ecqf_slot_ns() -> f64 {
    let lookahead = Q * (BIG_B - 1) + 1;
    let mut mma = HeadMmaSubsystem::with_policy(EcqfMma::new(BIG_B), lookahead, Q);
    for q in 0..Q as u32 {
        mma.preload(LogicalQueueId::new(q), BIG_B as i64);
    }
    let mut slot = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let queue = LogicalQueueId::new((slot % Q as u64) as u32);
            black_box(mma.on_request(Some(queue)));
            if slot.is_multiple_of(BIG_B as u64) {
                black_box(mma.select_replenishment());
            }
            slot += 1;
        }
        BATCH
    })
}

/// `ThresholdTailMma::select_masked` with one queue in eight at the
/// threshold.
fn tail_select_ns() -> f64 {
    let tail = ThresholdTailMma::new(BIG_B);
    let occupancies: Vec<usize> = (0..Q)
        .map(|q| if q % 8 == 3 { BIG_B + q } else { q % BIG_B })
        .collect();
    let mut eligible = [0u64; Q.div_ceil(64)];
    for (q, occ) in occupancies.iter().enumerate() {
        if *occ >= BIG_B {
            eligible[q / 64] |= 1 << (q % 64);
        }
    }
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            black_box(tail.select_masked(black_box(&occupancies), black_box(&eligible)));
        }
        BATCH
    })
}

/// One DSS issue opportunity with the requests register held at 64 entries:
/// `issue`, then `submit_read` to refill.
fn dss_issue_ns() -> f64 {
    let cfg = design_point();
    let physical = cfg.num_physical_queues() as u64;
    let mapper = AddressMapper::new(InterleavingConfig::from_cfds(&cfg));
    let mut dss =
        DramSchedulerSubsystem::new(mapper, 2 * cfg.banks_per_group(), DsaPolicy::OldestFirst);
    let mut next = 0u64;
    let mut now = 0u64;
    for _ in 0..64 {
        dss.submit_read(PhysicalQueueId::new((next % physical) as u32), now);
        next += 1;
    }
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            now += cfg.granularity as u64;
            if black_box(dss.issue(now)).is_some() {
                dss.submit_read(PhysicalQueueId::new((next % physical) as u32), now);
                next += 1;
            }
        }
        BATCH
    })
}

/// One block through the renaming table: name it for a write, note the
/// write, name it for the read, note the read.
fn renaming_block_ns() -> f64 {
    let cfg = design_point();
    let mut table = RenamingTable::new(Q, cfg.num_physical_queues(), cfg.num_groups());
    let preferred: Vec<GroupId> = (0..cfg.num_groups() as u32).map(GroupId::new).collect();
    let mut block = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let queue = LogicalQueueId::new((block % Q as u64) as u32);
            black_box(
                table
                    .physical_for_write(queue, |_| true, &preferred)
                    .expect("an empty DRAM always has a usable name"),
            );
            table.note_block_written(queue);
            black_box(table.physical_for_read(queue));
            black_box(table.note_block_read(queue));
            block += 1;
        }
        BATCH
    })
}

/// One b-cell block written to and read back from the `DramStore`.
fn store_block_ns() -> f64 {
    let cfg = design_point();
    let physical = cfg.num_physical_queues() as u64;
    let mapper = AddressMapper::new(InterleavingConfig::from_cfds(&cfg));
    let mut store = DramStore::new(mapper, usize::MAX / 4);
    let mut block = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let queue = PhysicalQueueId::new((block % physical) as u32);
            let logical = LogicalQueueId::new((block % Q as u64) as u32);
            let cells: Vec<Cell> = (0..cfg.granularity as u64)
                .map(|i| Cell::new(logical, block * 4 + i, block))
                .collect();
            store.write_block(queue, cells).expect("the store has room");
            black_box(store.read_block(queue).expect("the block was just written"));
            block += 1;
        }
        BATCH
    })
}

/// One cell pushed into and popped from a shared SRAM buffer.
fn shared_buffer_cell_ns<S: SharedBuffer>(mut buffer: S) -> f64 {
    let mut seqs = [0u64; Q];
    let mut n = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let qi = (n % Q as u64) as usize;
            let queue = LogicalQueueId::new(qi as u32);
            buffer
                .push_cell(queue, Cell::new(queue, seqs[qi], n))
                .expect("the buffer never holds more than one cell");
            seqs[qi] += 1;
            black_box(buffer.pop_front(queue));
            n += 1;
        }
        BATCH
    })
}

/// One iSLIP `schedule` call over an `n`×`n` eligibility matrix of the
/// given density, every output ready.
fn arbiter_schedule_ns(n: usize, density: f64) -> f64 {
    const MATRICES: usize = 64;
    let mut arbiter = CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let threshold = (density.clamp(0.0, 1.0) * u32::MAX as f64) as u64;
    let matrices: Vec<Vec<bool>> = (0..MATRICES)
        .map(|_| {
            (0..n * n)
                .map(|_| {
                    x = xorshift(x);
                    (x >> 32) <= threshold
                })
                .collect()
        })
        .collect();
    let ready = vec![true; n];
    let mut match_in = vec![None; n];
    let mut match_out = vec![None; n];
    let mut slot = 0u64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            let eligible = &matrices[slot as usize % MATRICES];
            black_box(arbiter.schedule(
                slot,
                |i, j| eligible[i * n + j],
                &ready,
                &mut match_in,
                &mut match_out,
            ));
            slot += 1;
        }
        BATCH
    })
}

fn tiny_scenario(seed: u64) -> Scenario {
    Scenario {
        design: DesignKind::Cfds,
        workload: SimWorkload::AdversarialRoundRobin,
        num_queues: 32,
        granularity: 4,
        rads_granularity: BIG_B,
        num_banks: 64,
        preload_cells_per_queue: 0,
        arrival_slots: 1_024,
        seed,
        ..Scenario::small_cfds()
    }
}

/// What `LabRunner::run` adds per run over calling `Scenario::run`
/// directly, on 64 tiny runs (expansion, boxing, aggregation), µs. The
/// median of paired differences; it can read slightly below zero when the
/// overhead is inside the noise.
fn lab_overhead_us_per_run() -> f64 {
    const RUNS: u64 = 64;
    let s = tiny_scenario(0);
    let spec = ExperimentSpec::builder()
        .name("lab-overhead")
        .designs([s.design])
        .workloads([s.workload])
        .num_queues(Sweep::fixed(s.num_queues as u64))
        .granularity(Sweep::fixed(s.granularity as u64))
        .rads_granularity(Sweep::fixed(s.rads_granularity as u64))
        .num_banks(Sweep::fixed(s.num_banks as u64))
        .arrival_slots(s.arrival_slots)
        .seeds(0..RUNS)
        .build()
        .expect("the overhead spec is valid");
    let runner = LabRunner::new().with_threads(1);
    let mut diffs = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let report = runner.run(&spec).expect("the overhead spec runs");
        let lab_ns = start.elapsed().as_nanos() as f64;
        assert_eq!(report.runs.len() as u64, RUNS);
        let start = Instant::now();
        for seed in 0..RUNS {
            black_box(tiny_scenario(seed).run());
        }
        let direct_ns = start.elapsed().as_nanos() as f64;
        diffs.push((lab_ns - direct_ns) / RUNS as f64 / 1e3);
    }
    crate::stats::median(&diffs)
}

fn small_clos() -> ClosScenario {
    ClosScenario {
        arrival_slots: 400,
        ..crate::workloads::clos_scenario()
    }
}

/// `serde_json::to_string` of a 64-port Clos report, µs.
fn report_json_us() -> f64 {
    let report = small_clos().run();
    time_per_op(KERNEL_MS, || {
        black_box(serde_json::to_string(black_box(&report)).expect("reports encode"));
        1
    }) / 1e3
}

/// A `ClosSpec` through `to_json` and back through `from_json`, µs.
fn spec_roundtrip_us() -> f64 {
    let s = small_clos();
    let spec = ClosSpec::builder()
        .name("roundtrip")
        .radix(Sweep::fixed(s.radix as u64))
        .ingress_switches(Sweep::fixed(s.ingress_switches as u64))
        .middle_switches(Sweep::fixed(s.middle_switches as u64))
        .load_percent(Sweep::list([50, 85]))
        .arrival_slots(s.arrival_slots)
        .seeds([1, 101, 201])
        .build()
        .expect("the round-trip spec is valid");
    time_per_op(KERNEL_MS, || {
        let text = spec.to_json();
        black_box(ClosSpec::from_json(&text).expect("a spec parses its own JSON"));
        1
    }) / 1e3
}

/// `Log2Histogram::record` of a latency-like value.
fn hist_record_ns() -> f64 {
    let mut hist = Log2Histogram::default();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    time_per_op(KERNEL_MS, || {
        for _ in 0..BATCH {
            x = xorshift(x);
            hist.record(x & 0xffff);
        }
        black_box(hist.count());
        BATCH
    })
}

/// One CFDS technology design point (`sim::techeval::cfds_point`), µs: the
/// paper-artefact regeneration path, outside every slot loop.
fn design_point_us() -> f64 {
    let cfg = design_point();
    let node = ProcessNode::node_130nm();
    let lookahead = cfg.num_queues * (cfg.granularity - 1) + 1;
    time_per_op(KERNEL_MS, || {
        black_box(sim::techeval::cfds_point(black_box(&cfg), lookahead, &node));
        1
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_finite_time() {
        // `lab_overhead` is a difference and may be inside the noise; every
        // other kernel times real work.
        for (name, value) in isolated_kernels(0.6) {
            assert!(value.is_finite(), "{name} = {value}");
            if name != "sim.lab_overhead_us_per_run" {
                assert!(value > 0.0, "{name} = {value}");
            }
        }
    }
}
