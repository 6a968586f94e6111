//! Integration tests for the dimensioning formulas and the headline claims of
//! the evaluation sections (§7, §8, §10).

use future_packet_buffers::cacti::ProcessNode;
use future_packet_buffers::cfds::sizing as cfds_sizing;
use future_packet_buffers::design_points;
use future_packet_buffers::mma::sizing as rads_sizing;
use future_packet_buffers::model::{CfdsConfig, LineRate};
use future_packet_buffers::sim::techeval;

#[test]
fn section_7_2_sram_size_quotes() {
    // OC-3072: 1.0 MB at the maximum lookahead, several MB at short lookahead.
    let max_l = rads_sizing::min_lookahead(512, 32);
    let at_max = techeval::rads_head_sram_bytes(512, 32, max_l) as f64 / 1e6;
    assert!((0.9..1.2).contains(&at_max), "{at_max} MB");
    let at_short = techeval::rads_head_sram_bytes(512, 32, 512) as f64 / 1e6;
    assert!(at_short > 3.0, "{at_short} MB");
    // OC-768: ~60 kB at the maximum lookahead, a few hundred kB at short.
    let at_max_768 = techeval::rads_head_sram_bytes(128, 8, rads_sizing::min_lookahead(128, 8));
    assert!((50_000..70_000).contains(&at_max_768));
}

#[test]
fn table2_rr_sizes_match_the_paper_for_the_main_design_points() {
    let rr = |b: usize| {
        let cfg = CfdsConfig::builder()
            .num_queues(512)
            .granularity(b)
            .rads_granularity(32)
            .num_banks(256)
            .build()
            .unwrap();
        cfds_sizing::rr_size(&cfg)
    };
    assert_eq!(rr(8), 64);
    assert_eq!(rr(4), 256);
    assert_eq!(rr(2), 1024);
    assert_eq!(rr(1), 4096);
}

#[test]
fn headline_claim_cfds_meets_oc3072_where_rads_cannot() {
    let node = ProcessNode::node_130nm();
    let rads = techeval::rads_point(512, 32, rads_sizing::min_lookahead(512, 32), &node);
    let cfds_cfg = design_points::oc3072_cfds();
    let cfds = techeval::cfds_point(&cfds_cfg, cfds_cfg.min_lookahead(), &node);
    // §10: the constraint is fulfilled by CFDS with ~10 µs of delay, while
    // RADS cannot reach 3.2 ns even with > 50 µs of delay.
    assert!(cfds.meets(LineRate::Oc3072));
    assert!(!rads.meets(LineRate::Oc3072));
    assert!(cfds.delay_seconds(LineRate::Oc3072) < 2.0e-5);
    assert!(rads.delay_seconds(LineRate::Oc3072) > 4.0e-5);
    // SRAM an order of magnitude smaller (cells), area several times smaller.
    assert!(rads.head_sram_cells as f64 / cfds.head_sram_cells as f64 > 4.0);
    assert!(rads.total_area_cm2() / cfds.total_area_cm2() > 2.0);
}

#[test]
fn figure_11_shape_cfds_supports_several_times_more_queues() {
    let node = ProcessNode::node_130nm();
    let rads_max = techeval::max_queues_meeting_target(LineRate::Oc3072, 32, 32, 256, &node);
    let best_cfds = [8usize, 4, 2]
        .iter()
        .map(|b| techeval::max_queues_meeting_target(LineRate::Oc3072, *b, 32, 256, &node))
        .max()
        .unwrap();
    assert!(best_cfds >= 3 * rads_max.max(1));
    assert!(best_cfds >= 512);
}

#[test]
fn figure_10_shape_optimum_granularity_is_interior() {
    // Sweeping b at the minimum-SRAM point, the best access time is achieved
    // at an intermediate granularity, not at either extreme (§8.3).
    let node = ProcessNode::node_130nm();
    let access = |b: usize| {
        let cfg = CfdsConfig::builder()
            .num_queues(512)
            .granularity(b)
            .rads_granularity(32)
            .num_banks(256)
            .build()
            .unwrap();
        techeval::cfds_point(&cfg, cfg.min_lookahead(), &node).best_access_time_ns()
    };
    let coarse = access(16);
    let mid = access(4);
    let fine = access(1);
    assert!(mid < coarse, "mid {mid} vs coarse {coarse}");
    assert!(mid < fine, "mid {mid} vs fine {fine}");
}

#[test]
fn dram_only_baseline_motivation_numbers() {
    use future_packet_buffers::dram::{MultiChipConfig, SdramChip};
    let chip = SdramChip::reference_16mb();
    let single = MultiChipConfig::new(chip, 1);
    let eight = MultiChipConfig::new(chip, 8);
    assert!((single.peak_bandwidth_bps() - 1.6e9).abs() < 1e6);
    assert!(single.guaranteed_bandwidth_bps() < 1.4e9);
    assert!(eight.guaranteed_bandwidth_bps() < 6.5e9);
    assert!(eight.guaranteed_bandwidth_bps() > 3.0e9);
}
