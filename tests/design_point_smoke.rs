//! Smoke test: every buffer design builds at the paper's §7 evaluation design
//! points (`future_packet_buffers::design_points`), moves a few thousand cells
//! end to end, and the built-in delivery verification reports zero misses,
//! zero drops and zero order violations.

use future_packet_buffers::buffers::{
    CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer, RequestSource,
};
use future_packet_buffers::design_points;
use future_packet_buffers::model::LogicalQueueId;
use future_packet_buffers::traffic::{preload_cells, AdversarialRoundRobin};

/// Preloads `cells_per_queue` cells into every queue of `buf` via `preload`,
/// drains the buffer with the adversarial round-robin arbiter, and checks the
/// zero-miss / zero-drop / in-order guarantees.
fn drain_and_verify<B: PacketBuffer>(
    buf: &mut B,
    preload: impl Fn(&mut B, LogicalQueueId, Vec<future_packet_buffers::model::Cell>),
    cells_per_queue: u64,
) {
    let q = buf.num_queues();
    for (queue, cells) in preload_cells(q, cells_per_queue) {
        preload(buf, queue, cells);
    }
    let total = q as u64 * cells_per_queue;
    let mut requests = AdversarialRoundRobin::new(q);
    let horizon = total + buf.pipeline_delay_slots() as u64 + 1_024;
    for t in 0..horizon {
        let request =
            requests.next_request(t, &|queue: LogicalQueueId| buf.requestable_cells(queue));
        let out = buf.step(None, request);
        assert!(
            out.miss.is_none(),
            "{}: miss at slot {t}",
            buf.design_name()
        );
    }
    let stats = buf.stats();
    assert!(stats.is_loss_free(), "{}: {stats:?}", buf.design_name());
    assert_eq!(
        stats.grants,
        total,
        "{}: drained everything",
        buf.design_name()
    );
    assert_eq!(stats.misses, 0, "{}: zero misses", buf.design_name());
    assert_eq!(stats.drops, 0, "{}: zero drops", buf.design_name());
    assert_eq!(
        stats.order_violations,
        0,
        "{}: FIFO order",
        buf.design_name()
    );
}

#[test]
fn oc768_rads_design_point_delivers_in_order() {
    let cfg = design_points::oc768_rads();
    assert_eq!(cfg.num_queues, 128);
    assert_eq!(cfg.granularity, 8);
    let mut buf = RadsBuffer::new(cfg);
    drain_and_verify(&mut buf, |b, q, cells| b.preload_dram(q, cells), 16);
}

#[test]
fn oc3072_rads_design_point_delivers_in_order() {
    let cfg = design_points::oc3072_rads();
    assert_eq!(cfg.num_queues, 512);
    assert_eq!(cfg.granularity, 32);
    let mut buf = RadsBuffer::new(cfg);
    drain_and_verify(&mut buf, |b, q, cells| b.preload_dram(q, cells), 32);
}

#[test]
fn oc3072_cfds_design_point_delivers_in_order() {
    let cfg = design_points::oc3072_cfds();
    assert_eq!(cfg.num_queues, 512);
    assert_eq!(cfg.granularity, 4);
    assert_eq!(cfg.num_banks, 256);
    let mut buf = CfdsBuffer::new(cfg);
    drain_and_verify(&mut buf, |b, q, cells| b.preload_dram(q, cells), 32);
}

#[test]
fn oc768_dram_only_baseline_keeps_up_when_paced_to_its_worst_case() {
    // The DRAM-only baseline cannot take one request per slot (that is the
    // point of §1), but paced to one request per random access time it must
    // deliver every cell in order.
    let cfg = design_points::oc768_rads();
    let period = cfg.granularity as u64;
    let q = cfg.num_queues;
    let cells_per_queue = 16u64;
    let mut buf = DramOnlyBuffer::new(cfg);
    for (queue, cells) in preload_cells(q, cells_per_queue) {
        buf.preload(queue, cells);
    }
    let total = q as u64 * cells_per_queue;
    let mut issued = 0u64;
    let horizon = total * period + 4 * period;
    for t in 0..horizon {
        let request = if t % period == 0 && issued < total {
            let queue = LogicalQueueId::new((issued % q as u64) as u32);
            issued += 1;
            Some(queue)
        } else {
            None
        };
        let out = buf.step(None, request);
        assert!(out.miss.is_none(), "paced DRAM-only missed at slot {t}");
    }
    let stats = buf.stats();
    assert!(stats.is_loss_free(), "{stats:?}");
    assert_eq!(stats.grants, total);
    assert_eq!(stats.order_violations, 0);
}
