//! Integration tests: the worst-case guarantees the paper claims (zero miss,
//! zero drop, FIFO order, zero bank conflicts, bounded reordering state) hold
//! end to end, across designs and workloads.

use future_packet_buffers::buffers::{CfdsBuffer, PacketBuffer, RadsBuffer, RequestSource};
use future_packet_buffers::model::{CfdsConfig, LogicalQueueId, RadsConfig};
use future_packet_buffers::sim::scenario::{
    grants_per_queue, run_design_comparison, DesignKind, Scenario, Workload,
};
use future_packet_buffers::traffic::{preload_cells, AdversarialRoundRobin};

fn cfds_cfg(q: usize, b: usize, big_b: usize, m: usize) -> CfdsConfig {
    let cfg = CfdsConfig {
        num_queues: q,
        granularity: b,
        rads_granularity: big_b,
        num_banks: m,
        ..CfdsConfig::default()
    };
    cfg.validate().unwrap();
    cfg
}

#[test]
fn every_workload_is_loss_free_on_rads_and_cfds() {
    for design in [DesignKind::Rads, DesignKind::Cfds] {
        for workload in Workload::all() {
            let scenario = Scenario {
                design,
                workload,
                num_queues: 16,
                granularity: 2,
                rads_granularity: 8,
                num_banks: 32,
                preload_cells_per_queue: 0,
                arrival_slots: 8_000,
                seed: 23,
                ..Scenario::small_cfds()
            };
            let report = scenario.run();
            assert!(
                report.stats.is_loss_free(),
                "{design:?}/{workload:?}: {:?}",
                report.stats
            );
            assert!(
                report.stats.grants > 1_000,
                "{design:?}/{workload:?} made progress"
            );
        }
    }
}

#[test]
fn designs_deliver_identical_per_queue_grant_counts() {
    let base = Scenario {
        design: DesignKind::Cfds,
        workload: Workload::AdversarialRoundRobin,
        num_queues: 16,
        granularity: 2,
        rads_granularity: 8,
        num_banks: 32,
        preload_cells_per_queue: 48,
        arrival_slots: 0,
        seed: 5,
        ..Scenario::small_cfds()
    };
    let reports = run_design_comparison(&base);
    let rads = grants_per_queue(&reports[1], base.num_queues);
    let cfds = grants_per_queue(&reports[2], base.num_queues);
    assert_eq!(rads, cfds);
    assert!(rads.iter().all(|&c| c == 48));
    assert!(reports[1].stats.is_loss_free());
    assert!(reports[2].stats.is_loss_free());
    // The DRAM-only baseline cannot sustain back-to-back requests.
    assert!(reports[0].stats.misses > 0);
}

#[test]
fn cfds_peak_rr_and_delay_respect_the_analytical_bounds() {
    // Several (b, B, M, Q) combinations; the empirical maxima from the
    // adversarial drain must stay within equations (1)–(3).
    for (q, b, big_b, m) in [
        (8, 2, 8, 16),
        (16, 4, 16, 64),
        (32, 2, 16, 64),
        (24, 4, 8, 32),
    ] {
        let cfg = cfds_cfg(q, b, big_b, m);
        let mut buf = CfdsBuffer::new(cfg);
        for (queue, cells) in preload_cells(q, 64) {
            buf.preload_dram(queue, cells);
        }
        let mut requests = AdversarialRoundRobin::new(q);
        let total = q as u64 * 64;
        for t in 0..(total + buf.pipeline_delay_slots() as u64 + 512) {
            let request = requests.next_request(t, &|qq: LogicalQueueId| buf.requestable_cells(qq));
            let out = buf.step(None, request);
            assert!(out.miss.is_none(), "miss (Q={q}, b={b}, B={big_b}, M={m})");
        }
        assert!(buf.stats().is_loss_free());
        assert_eq!(buf.stats().grants, total);
        assert!(
            buf.peak_rr_occupancy() <= buf.analytical_rr_size().max(2),
            "RR peak {} > bound {} (Q={q}, b={b})",
            buf.peak_rr_occupancy(),
            buf.analytical_rr_size()
        );
        assert!(
            (buf.stats().peak_head_sram_cells as usize) <= buf.analytical_head_sram(),
            "head SRAM peak {} > bound {} (Q={q}, b={b})",
            buf.stats().peak_head_sram_cells,
            buf.analytical_head_sram()
        );
    }
}

#[test]
fn rads_peak_head_sram_respects_the_ecqf_bound() {
    for (q, big_b) in [(8usize, 4usize), (16, 8), (32, 4)] {
        let cfg = RadsConfig {
            num_queues: q,
            granularity: big_b,
            lookahead: None,
        };
        let mut buf = RadsBuffer::new(cfg);
        for (queue, cells) in preload_cells(q, 64) {
            buf.preload_dram(queue, cells);
        }
        let mut requests = AdversarialRoundRobin::new(q);
        let total = q as u64 * 64;
        for t in 0..(total + buf.pipeline_delay_slots() as u64 + 64) {
            let request = requests.next_request(t, &|qq: LogicalQueueId| buf.requestable_cells(qq));
            assert!(buf.step(None, request).miss.is_none());
        }
        assert!(buf.stats().is_loss_free());
        assert!(
            buf.peak_head_sram() <= buf.analytical_head_sram(),
            "peak {} vs analytical {} (Q={q}, B={big_b})",
            buf.peak_head_sram(),
            buf.analytical_head_sram()
        );
    }
}

#[test]
fn cfds_handles_interleaved_arrivals_and_requests_for_long_runs() {
    let cfg = cfds_cfg(12, 2, 8, 24);
    let mut buf = CfdsBuffer::new(cfg);
    let mut seqs = [0u64; 12];
    let mut requests = AdversarialRoundRobin::new(12);
    // 30k slots of full-load arrivals round-robin over the queues, requests as
    // aggressive as the availability rule allows.
    for t in 0..30_000u64 {
        let qi = (t % 12) as usize;
        let cell =
            future_packet_buffers::model::Cell::new(LogicalQueueId::new(qi as u32), seqs[qi], t);
        seqs[qi] += 1;
        let request = requests.next_request(t, &|qq: LogicalQueueId| buf.requestable_cells(qq));
        let out = buf.step(Some(cell), request);
        assert!(out.miss.is_none(), "miss at slot {t}");
        assert!(out.dropped_arrival.is_none(), "drop at slot {t}");
    }
    assert!(buf.stats().is_loss_free());
    assert!(buf.stats().grants > 20_000);
    assert_eq!(buf.stats().bank_conflicts, 0);
}
