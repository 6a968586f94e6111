//! Quickstart: build a small CFDS packet buffer, push cells through it and
//! verify the worst-case guarantees as it runs.
//!
//! Run with: `cargo run --example quickstart`

use future_packet_buffers::buffers::{CfdsBuffer, PacketBuffer};
use future_packet_buffers::model::{CfdsConfig, LogicalQueueId};
use future_packet_buffers::traffic::{
    AdversarialRoundRobin, ArrivalGenerator, RequestGenerator, RoundRobinArrivals,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A modest CFDS instance: 16 VOQs, transfers of b = 2 cells over a DRAM
    // whose random access time is B = 8 slots, 32 banks.
    let cfg = CfdsConfig::builder()
        .num_queues(16)
        .granularity(2)
        .rads_granularity(8)
        .num_banks(32)
        .build()?;
    println!(
        "CFDS: Q={} b={} B={} M={} (groups of {} banks)",
        cfg.num_queues,
        cfg.granularity,
        cfg.rads_granularity,
        cfg.num_banks,
        cfg.banks_per_group()
    );

    let mut buf = CfdsBuffer::new(cfg);
    let mut arrivals = RoundRobinArrivals::new(cfg.num_queues);
    let mut requests = AdversarialRoundRobin::new(cfg.num_queues);

    // Run 20 000 slots of line-rate arrivals with an adversarial round-robin
    // scheduler on the head side, then drain the pipeline.
    let active = 20_000u64;
    let drain = buf.pipeline_delay_slots() as u64 + 512;
    for t in 0..(active + drain) {
        let arrival = (t < active).then(|| arrivals.next(t)).flatten();
        let request = requests.next(t, &|q: LogicalQueueId| buf.requestable_cells(q));
        let outcome = buf.step(arrival, request);
        assert!(
            outcome.miss.is_none(),
            "a miss would violate the worst-case guarantee"
        );
    }

    let stats = buf.stats();
    println!("slots simulated        : {}", stats.slots);
    println!(
        "cells through the buffer: {} in / {} out",
        stats.arrivals, stats.grants
    );
    println!(
        "misses / drops / conflicts: {} / {} / {}",
        stats.misses, stats.drops, stats.bank_conflicts
    );
    println!(
        "peak head SRAM (cells) : {} (analytical bound {})",
        stats.peak_head_sram_cells,
        buf.analytical_head_sram()
    );
    println!(
        "peak requests register : {} (analytical bound {})",
        buf.peak_rr_occupancy(),
        buf.analytical_rr_size()
    );
    println!("loss-free              : {}", stats.is_loss_free());
    Ok(())
}
