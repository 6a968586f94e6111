//! The RADS (Random Access DRAM System) buffer — the baseline of §3, i.e.
//! the hybrid SRAM/DRAM design of Iyer, Kompella and McKeown: the shared
//! SRAM front end over one DRAM accessed `B` cells at a time.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::front::{BackEnd, Front, HybridBuffer, PendingDelivery};
use crate::hotpath::BlockFifo;
use mma::sizing::rads_sram_size_cells;
use pktbuf_model::{Cell, LogicalQueueId, RadsConfig};

/// The RADS packet buffer: tail SRAM + single-resource DRAM + head SRAM, with
/// DRAM transfers of `B` cells every `B` slots in each direction.
pub type RadsBuffer = HybridBuffer<RadsDram>;

/// The RADS back end: one DRAM treated as a single resource, one write and
/// one read of `B` cells per period, each read delivered `B` slots later —
/// the `B` slots a request spends in the front end's delay line after it
/// leaves the lookahead. Each queue's blocks are written and read in order,
/// so the DRAM is a FIFO of slab blocks per queue.
#[derive(Debug)]
pub struct RadsDram {
    cfg: RadsConfig,
    queues: Vec<BlockFifo>,
}

impl RadsBuffer {
    /// Creates a RADS buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[expect(
        clippy::expect_used,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub fn new(cfg: RadsConfig) -> Self {
        cfg.validate().expect("invalid RADS configuration");
        let (q, b) = (cfg.num_queues, cfg.granularity);
        HybridBuffer {
            front: Front::new(q, b, cfg.effective_lookahead(), b),
            back: RadsDram {
                queues: std::iter::repeat_n(BlockFifo::EMPTY, q).collect(),
                cfg,
            },
        }
    }

    /// Preloads `cells` of `queue` directly into the DRAM, bypassing the tail
    /// path. Cells are stored in blocks of `B`; a trailing partial block is
    /// rejected to keep the block structure exact.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells is not a multiple of the granularity.
    #[expect(
        clippy::needless_pass_by_value,
        reason = "by value, the call sites move their staging Vec straight in; a setup-only copy"
    )]
    pub fn preload_dram(&mut self, queue: LogicalQueueId, cells: Vec<Cell>) {
        let b = self.back.cfg.granularity;
        assert!(
            cells.len().is_multiple_of(b),
            "preload length must be a multiple of the granularity"
        );
        self.front.available.credit(queue, cells.len() as u64);
        let fifo = &mut self.back.queues[queue.as_usize()];
        let slab = &mut self.front.slab;
        for chunk in cells.chunks(b) {
            let block = slab.alloc();
            slab.cells_mut(block).copy_from_slice(chunk);
            slab.push_back(fifo, block);
        }
    }

    /// Analytical head-SRAM requirement for this configuration (cells): the
    /// paper's `rads_sram_size(L, Q, B)` plus `B`.
    ///
    /// The paper's equation bounds, at every slot, the cells delivered to
    /// the head SRAM minus the requests that left the lookahead. The delay
    /// line moves neither term: ECQF's replenishments depend only on the
    /// lookahead, and each read is delivered `B` slots after its period. It
    /// only serves each request `B` slots after it left the lookahead, so
    /// the occupancy exceeds the paper's count by the requests inside the
    /// line: at most one per slot, `B` in all.
    pub fn analytical_head_sram(&self) -> usize {
        let cfg = &self.back.cfg;
        rads_sram_size_cells(cfg.effective_lookahead(), cfg.num_queues, cfg.granularity)
            + cfg.granularity
    }
}

impl BackEnd for RadsDram {
    type Config = RadsConfig;
    const TYPE_NAME: &'static str = "RadsBuffer";
    const DESIGN: &'static str = "RADS";

    fn config(&self) -> &RadsConfig {
        &self.cfg
    }

    /// Every `B` slots the DRAM performs one write and one read access.
    #[inline(always)]
    fn period_ops(&mut self, front: &mut Front, now: u64) {
        // Writeback: tail SRAM → DRAM.
        if let Some(queue) = front.writeback_candidate() {
            let block = front.take_writeback(queue);
            front
                .slab
                .push_back(&mut self.queues[queue.as_usize()], block);
            front.stats.dram_writes += 1;
        }
        // Replenishment: DRAM → head SRAM, delivered one random access time
        // later. A queue whose blocks are all still on the tail path has
        // nothing to read: the head MMA's credit is rolled back.
        if let Some(queue) = front.head_mma.select_replenishment() {
            let fifo = &mut self.queues[queue.as_usize()];
            let block_index = fifo.popped;
            match front.slab.pop_front(fifo) {
                Some(block) => {
                    front.pending_deliveries.push_back(PendingDelivery {
                        deliver_slot: now + self.cfg.granularity as u64,
                        queue,
                        block_index,
                        block,
                    });
                    front.stats.dram_reads += 1;
                }
                None => front.unfulfilled(queue),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::short_streams::assert_every_short_stream_is_served;
    use crate::PacketBuffer;

    fn small_cfg(q: usize, b: usize) -> RadsConfig {
        RadsConfig {
            num_queues: q,
            granularity: b,
            lookahead: None,
        }
    }

    fn lq(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    fn preload_all(buf: &mut RadsBuffer, q: usize, cells_per_queue: u64) {
        for i in 0..q as u32 {
            let cells: Vec<Cell> = (0..cells_per_queue)
                .map(|s| Cell::new(lq(i), s, 0))
                .collect();
            buf.preload_dram(lq(i), cells);
        }
    }

    /// The paper's worst case: round-robin requests over all (backlogged)
    /// queues must never miss with the ECQF lookahead.
    #[test]
    fn round_robin_drain_never_misses() {
        let q = 8;
        let b = 4;
        let mut buf = RadsBuffer::new(small_cfg(q, b));
        preload_all(&mut buf, q, 64);
        let total_requests = 8 * 64u64;
        let delay = buf.pipeline_delay_slots() as u64;
        let mut issued = 0u64;
        for t in 0..(total_requests + delay + 10) {
            let req = if issued < total_requests {
                let queue = lq((t % q as u64) as u32);
                if buf.requestable_cells(queue) > 0 {
                    issued += 1;
                    Some(queue)
                } else {
                    None
                }
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none(), "miss at slot {t}");
        }
        assert_eq!(buf.stats().misses, 0);
        assert_eq!(buf.stats().order_violations, 0);
        assert_eq!(buf.stats().grants, total_requests);
        // The measured SRAM peak respects the analytical bound.
        assert!(
            buf.peak_head_sram() <= buf.analytical_head_sram(),
            "peak {} vs analytical {}",
            buf.peak_head_sram(),
            buf.analytical_head_sram()
        );
    }

    /// Every oracle-respecting request stream of up to eight slots, at the
    /// ECQF minimum lookahead with Q = 2 and B = 2 and one or two blocks of
    /// each queue in DRAM: none misses, and the head SRAM stays within the
    /// analytical bound.
    #[test]
    fn every_short_request_stream_is_served() {
        assert_every_short_stream_is_served(
            || RadsBuffer::new(small_cfg(2, 2)),
            RadsBuffer::preload_dram,
            RadsBuffer::analytical_head_sram,
            2,
        );
    }

    #[test]
    fn single_queue_burst_is_served_in_order() {
        let q = 4;
        let b = 4;
        let mut buf = RadsBuffer::new(small_cfg(q, b));
        preload_all(&mut buf, q, 32);
        let delay = buf.pipeline_delay_slots() as u64;
        let mut issued = 0u64;
        for _ in 0..(32 + delay + 10) {
            let req = if issued < 32 && buf.requestable_cells(lq(2)) > 0 {
                issued += 1;
                Some(lq(2))
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none());
            if let Some(cell) = &out.granted {
                assert_eq!(cell.queue(), lq(2));
            }
        }
        assert_eq!(buf.stats().grants, 32);
        assert!(buf.stats().is_loss_free());
    }

    #[test]
    fn arrivals_flow_line_to_dram_to_arbiter() {
        let q = 2;
        let b = 2;
        let mut buf = RadsBuffer::new(small_cfg(q, b));
        // Feed 16 cells to queue 0 through the tail path (seq follows the
        // arrival slot one-to-one here).
        for t in 0..16u64 {
            let cell = Cell::new(lq(0), t, t);
            buf.step(Some(cell), None);
        }
        // Let the tail MMA push everything to DRAM.
        for _ in 0..((16 / b as u64 + 2) * b as u64) {
            buf.step(None, None);
        }
        assert!(buf.requestable_cells(lq(0)) >= 8, "cells reached DRAM");
        // Now request them; none may miss.
        let delay = buf.pipeline_delay_slots() as u64;
        let requests = buf.requestable_cells(lq(0));
        let mut issued = 0;
        for _ in 0..(requests + delay + 5 * b as u64) {
            let req = if issued < requests {
                issued += 1;
                Some(lq(0))
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none());
        }
        assert_eq!(buf.stats().grants, requests);
        assert_eq!(buf.stats().drops, 0);
        assert_eq!(buf.stats().order_violations, 0);
    }

    #[test]
    fn dram_block_index_runs_on_from_preload_into_writebacks() {
        let (q, b) = (2, 2);
        let mut buf = RadsBuffer::new(small_cfg(q, b));
        // Blocks 0 and 1 of queue 0 are preloaded; blocks 2 and 3 arrive
        // through the tail path and are written back behind them.
        buf.preload_dram(lq(0), (0..4).map(|s| Cell::new(lq(0), s, 0)).collect());
        for s in 4..8u64 {
            buf.step(Some(Cell::new(lq(0), s, s)), None);
        }
        for _ in 0..4 * b {
            buf.step(None, None);
        }
        assert_eq!(buf.requestable_cells(lq(0)), 8);
        let mut granted = Vec::new();
        for t in 0..8 + buf.pipeline_delay_slots() as u64 + 4 * b as u64 {
            let out = buf.step(None, (t < 8).then_some(lq(0)));
            granted.extend(out.granted.map(|c| c.seq()));
        }
        // Each read took the next index of the queue's block stream, so the
        // head SRAM placed all four blocks in order.
        assert_eq!(granted, (0..8).collect::<Vec<_>>());
        assert_eq!(buf.back.queues[0].popped, 4);
        assert_eq!(buf.front.slab.pop_front(&mut buf.back.queues[0]), None);
        assert!(buf.stats().is_loss_free(), "{:?}", buf.stats());
    }

    #[test]
    fn a_replenishment_of_an_empty_dram_queue_is_unfulfilled() {
        let mut buf = RadsBuffer::new(small_cfg(2, 2));
        // A request for queue 1, which holds nothing anywhere: the head MMA
        // replenishes it, the DRAM FIFO is empty, the credit is rolled back.
        buf.step(None, Some(lq(1)));
        for _ in 0..buf.pipeline_delay_slots() + 4 {
            buf.step(None, None);
        }
        assert!(buf.stats().unfulfilled_replenishments >= 1);
        assert_eq!(buf.stats().dram_reads, 0);
        assert_eq!(buf.back.queues[1].popped, 0);
        assert_eq!(buf.stats().misses, 1);
    }

    #[test]
    fn config_accessors() {
        let buf = RadsBuffer::new(small_cfg(4, 4));
        assert_eq!(buf.config().num_queues, 4);
        assert_eq!(buf.design_name(), "RADS");
        assert_eq!(buf.num_queues(), 4);
        assert!(format!("{buf:?}").contains("RadsBuffer"));
    }

    #[test]
    #[should_panic(expected = "multiple of the granularity")]
    fn preload_must_be_block_aligned() {
        let mut buf = RadsBuffer::new(small_cfg(4, 4));
        buf.preload_dram(lq(0), vec![Cell::new(lq(0), 0, 0)]);
    }
}
