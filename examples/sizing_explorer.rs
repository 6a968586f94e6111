//! Explore the dimensioning space: for a line rate and queue count, print how
//! the SRAM size, the reorder latency and the physical cost (area, access
//! time) evolve as the CFDS granularity `b` sweeps from the RADS value `B`
//! down to a single cell — the trade-off behind Figures 10 and 11.
//!
//! Run with: `cargo run --release --example sizing_explorer -- [num_queues]`

use future_packet_buffers::cacti::ProcessNode;
use future_packet_buffers::cfds::sizing as cfds_sizing;
use future_packet_buffers::mma::sizing as rads_sizing;
use future_packet_buffers::model::{CfdsConfig, LineRate};
use future_packet_buffers::sim::report::{format_bytes, TextTable};
use future_packet_buffers::sim::techeval;

fn main() {
    let num_queues: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(512);
    let line_rate = LineRate::Oc3072;
    let big_b = 32usize;
    let banks = 256usize;
    let node = ProcessNode::node_130nm();

    println!("Dimensioning sweep at {line_rate}, Q = {num_queues}, B = {big_b}, M = {banks}\n");
    let mut table = TextTable::new(vec![
        "b",
        "lookahead",
        "latency",
        "delay(us)",
        "head SRAM",
        "RR",
        "access(ns)",
        "area(cm2)",
        "meets 3.2ns",
    ]);
    for b in [32usize, 16, 8, 4, 2, 1] {
        if !big_b.is_multiple_of(b) || !banks.is_multiple_of(big_b / b) {
            continue;
        }
        // b = B is the RADS baseline: no reorder latency, no Requests Register.
        let cfds = (b < big_b).then(|| {
            CfdsConfig::builder()
                .num_queues(num_queues)
                .granularity(b)
                .rads_granularity(big_b)
                .num_banks(banks)
                .build()
                .expect("valid configuration")
        });
        let point = match &cfds {
            Some(cfg) => techeval::cfds_point(cfg, cfg.min_lookahead(), &node),
            None => techeval::rads_point(
                num_queues,
                big_b,
                rads_sizing::min_lookahead(num_queues, big_b),
                &node,
            ),
        };
        let latency = cfds.as_ref().map_or(0, cfds_sizing::latency_slots);
        let rr = cfds.as_ref().map_or(0, cfds_sizing::rr_size);
        table.push_row(vec![
            format!("{b}"),
            format!("{}", point.lookahead_slots),
            format!("{latency}"),
            format!("{:.1}", point.delay_seconds(line_rate) * 1e6),
            format_bytes((point.head_sram_cells * 64) as f64),
            format!("{rr}"),
            format!("{:.2}", point.best_access_time_ns()),
            format!("{:.2}", point.total_area_cm2()),
            format!("{}", point.meets(line_rate)),
        ]);
    }
    println!("{}", table.render());
    println!("(b = {big_b} is the RADS baseline; smaller b is CFDS.)");
}
