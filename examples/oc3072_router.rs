//! The paper's headline scenario: an OC-3072 (160 Gb/s) line card buffer with
//! 512 VOQs, compared across the three designs on the same backlog drain.
//!
//! This is a scaled version of the evaluation of §7/§8: every queue starts
//! with a DRAM backlog and the switch-fabric arbiter drains the buffer with
//! the ECQF worst-case round-robin pattern. The DRAM-only baseline misses
//! almost immediately; RADS and CFDS both uphold the zero-miss guarantee, but
//! CFDS does it with an order of magnitude less SRAM.
//!
//! Run with: `cargo run --release --example oc3072_router`

use future_packet_buffers::buffers::{
    CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer, RequestSource,
};
use future_packet_buffers::cacti::ProcessNode;
use future_packet_buffers::model::{CfdsConfig, LineRate, LogicalQueueId, RadsConfig};
use future_packet_buffers::sim::techeval;
use future_packet_buffers::traffic::{preload_cells, AdversarialRoundRobin};

const QUEUES: usize = 64; // scaled from 512 to keep the example fast
const CELLS_PER_QUEUE: u64 = 64;

fn drain(buf: &mut dyn PacketBuffer, label: &str) {
    let mut requests = AdversarialRoundRobin::new(QUEUES);
    let total = QUEUES as u64 * CELLS_PER_QUEUE;
    let horizon = total + buf.pipeline_delay_slots() as u64 + 4_096;
    for t in 0..horizon {
        let request = requests.next_request(t, &|q: LogicalQueueId| buf.requestable_cells(q));
        buf.step(None, request);
    }
    let s = buf.stats();
    println!(
        "{label:10} grants {:6} / {total:6}   misses {:6}   miss rate {:5.1}%   loss-free {}",
        s.grants,
        s.misses,
        100.0 * s.miss_rate(),
        s.is_loss_free()
    );
}

fn main() {
    println!("== OC-3072 line card, {QUEUES} VOQs, {CELLS_PER_QUEUE} backlogged cells each ==\n");

    // DRAM-only baseline.
    let rads_cfg = RadsConfig {
        num_queues: QUEUES,
        granularity: 32,
        lookahead: None,
    };
    let mut dram_only = DramOnlyBuffer::new(rads_cfg);
    for (q, cells) in preload_cells(QUEUES, CELLS_PER_QUEUE) {
        dram_only.preload(q, cells);
    }
    drain(&mut dram_only, "DRAM-only");

    // RADS.
    let mut rads = RadsBuffer::new(rads_cfg);
    for (q, cells) in preload_cells(QUEUES, CELLS_PER_QUEUE) {
        rads.preload_dram(q, cells);
    }
    drain(&mut rads, "RADS");
    println!(
        "           head SRAM: analytical {} cells, measured peak {} cells",
        rads.analytical_head_sram(),
        rads.peak_head_sram()
    );

    // CFDS with b = 4.
    let cfds_cfg = CfdsConfig {
        num_queues: QUEUES,
        granularity: 4,
        rads_granularity: 32,
        num_banks: 256,
        ..CfdsConfig::default()
    };
    cfds_cfg.validate().expect("valid CFDS configuration");
    let mut cfds = CfdsBuffer::new(cfds_cfg);
    for (q, cells) in preload_cells(QUEUES, CELLS_PER_QUEUE) {
        cfds.preload_dram(q, cells);
    }
    drain(&mut cfds, "CFDS b=4");
    println!(
        "           head SRAM: analytical {} cells, measured peak {} cells; RR peak {} (bound {})",
        cfds.analytical_head_sram(),
        cfds.peak_head_sram(),
        cfds.peak_rr_occupancy(),
        cfds.analytical_rr_size()
    );

    // And the technology view at the full 512-queue design point.
    println!("\n== 0.13 um technology view at Q = 512 (the paper's Figure 10 headline) ==\n");
    let node = ProcessNode::node_130nm();
    let rads_point = techeval::rads_point(
        512,
        32,
        future_packet_buffers::mma::sizing::min_lookahead(512, 32),
        &node,
    );
    let cfds_full = future_packet_buffers::design_points::oc3072_cfds();
    let cfds_point = techeval::cfds_point(&cfds_full, cfds_full.min_lookahead(), &node);
    for p in [&rads_point, &cfds_point] {
        println!(
            "{:10} b={:2}  delay {:6.1} us  head SRAM {:8} cells  access {:5.2} ns  area {:5.2} cm^2  meets 3.2 ns: {}",
            p.design,
            p.granularity,
            p.delay_seconds(LineRate::Oc3072) * 1e6,
            p.head_sram_cells,
            p.best_access_time_ns(),
            p.total_area_cm2(),
            p.meets(LineRate::Oc3072)
        );
    }
}
