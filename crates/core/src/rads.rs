//! The RADS (Random Access DRAM System) buffer — the baseline of §3, i.e.
//! the hybrid SRAM/DRAM design of Iyer, Kompella and McKeown: the shared
//! SRAM front end over one DRAM accessed `B` cells at a time.

use crate::front::{BackEnd, Front, HybridBuffer, PendingDelivery};
use dram_sim::{AddressMapper, DramStore, InterleavingConfig};
use mma::sizing::rads_sram_size_cells;
use pktbuf_model::{Cell, LogicalQueueId, PhysicalQueueId, RadsConfig};

/// The RADS packet buffer: tail SRAM + single-resource DRAM + head SRAM, with
/// DRAM transfers of `B` cells every `B` slots in each direction.
pub type RadsBuffer = HybridBuffer<RadsDram>;

/// The RADS back end: one DRAM treated as a single resource, one write and
/// one read of `B` cells per period, each read delivered `B` slots later.
#[derive(Debug)]
pub struct RadsDram {
    cfg: RadsConfig,
    dram: DramStore,
}

impl RadsBuffer {
    /// Creates a RADS buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: RadsConfig) -> Self {
        cfg.validate().expect("invalid RADS configuration");
        let q = cfg.num_queues;
        // RADS treats the DRAM as a single resource; a one-bank mapping with
        // effectively unlimited per-group capacity stores the queue contents.
        let mapper = AddressMapper::new(
            InterleavingConfig::new(1, 1, q).expect("one-bank interleaving is always valid"),
        );
        HybridBuffer {
            front: Front::new(q, cfg.granularity, cfg.effective_lookahead()),
            back: RadsDram {
                dram: DramStore::new(mapper, usize::MAX / 4),
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
    // By-value keeps the ~18 call sites moving their staging Vec straight in;
    // this is a setup-only path, so the extra copy inside is irrelevant.
    #[allow(clippy::needless_pass_by_value)]
    pub fn preload_dram(&mut self, queue: LogicalQueueId, cells: Vec<Cell>) {
        let b = self.back.cfg.granularity;
        assert!(
            cells.len().is_multiple_of(b),
            "preload length must be a multiple of the granularity"
        );
        self.front.available.credit(queue, cells.len() as u64);
        let physical = PhysicalQueueId::new(queue.index());
        for chunk in cells.chunks(b) {
            self.back
                .dram
                .write_block(physical, chunk.to_vec())
                .expect("unbounded RADS DRAM accepts preload");
        }
    }

    /// Analytical head-SRAM requirement for this configuration (cells).
    pub fn analytical_head_sram(&self) -> usize {
        let cfg = &self.back.cfg;
        rads_sram_size_cells(cfg.effective_lookahead(), cfg.num_queues, cfg.granularity)
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
            let cells = front.take_writeback(queue);
            self.dram
                .write_block(PhysicalQueueId::new(queue.index()), cells)
                .expect("unbounded RADS DRAM accepts writebacks"); // analyze: allow(panic-freedom) — the RADS DRAM is configured unbounded and always accepts writebacks
            front.stats.dram_writes += 1;
        }
        // Replenishment: DRAM → head SRAM, delivered one random access time
        // later. Each queue's blocks are written and read in order, so the
        // DRAM ordinal is the block's index in the queue's read stream.
        if let Some(queue) = front.head_mma.select_replenishment() {
            match self.dram.read_block(PhysicalQueueId::new(queue.index())) {
                Ok((block_index, cells)) => {
                    front.pending_deliveries.push_back(PendingDelivery {
                        deliver_slot: now + self.cfg.granularity as u64,
                        queue,
                        block_index,
                        cells,
                    });
                    front.stats.dram_reads += 1;
                }
                Err(_) => front.unfulfilled(queue),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuffer;
    use pktbuf_model::{DramTiming, LineRate};

    fn small_cfg(q: usize, b: usize) -> RadsConfig {
        RadsConfig {
            line_rate: LineRate::Oc3072,
            num_queues: q,
            granularity: b,
            lookahead: None,
            dram: DramTiming::paper_design_point(),
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
        // The measured SRAM peak respects the analytical bound (plus the
        // in-flight batch).
        assert!(
            buf.peak_head_sram() <= buf.analytical_head_sram() + b,
            "peak {} vs analytical {}",
            buf.peak_head_sram(),
            buf.analytical_head_sram()
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
