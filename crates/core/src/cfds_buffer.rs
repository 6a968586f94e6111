//! The CFDS (Conflict-Free DRAM System) buffer — the paper's contribution
//! (§5, §6) assembled into a complete packet buffer: the shared SRAM front
//! end at granularity `b < B` over a banked DRAM behind the conflict-free
//! scheduler, with the latency register and queue renaming.

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
use crate::hotpath::SlabBlock;
use cfds::{
    sizing as cfds_sizing, DramSchedulerSubsystem, DsaPolicy, RenamingError, RenamingTable,
};
use dram_sim::{
    AccessKind, AddressMapper, BankArray, DramStore, GroupId, InterleavingConfig, StoreError,
};
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, PhysicalQueueId};

/// Construction options for a [`CfdsBuffer`].
#[derive(Debug, Clone, Copy)]
pub struct CfdsBufferOptions {
    /// DSA policy (the paper's oldest-first by default; the others exist for
    /// the ablation benchmarks).
    pub dsa: DsaPolicy,
    /// Total DRAM capacity in cells, split evenly over the bank groups.
    /// `None` means effectively unbounded (the default for correctness
    /// experiments; the fragmentation experiment sets it explicitly).
    pub dram_capacity_cells: Option<usize>,
}

impl Default for CfdsBufferOptions {
    fn default() -> Self {
        CfdsBufferOptions {
            dsa: DsaPolicy::OldestFirst,
            dram_capacity_cells: None,
        }
    }
}

/// The CFDS packet buffer: tail SRAM + banked DRAM behind a conflict-free
/// scheduler + head SRAM, with DRAM transfers of `b` cells every `b` slots in
/// each direction.
pub type CfdsBuffer = HybridBuffer<CfdsDram>;

/// The CFDS back end: the banked DRAM, its scheduler (DSS) and queue
/// renaming. The latency register that absorbs the DSS's delay is the
/// front end's delay line, sized by [`cfds_sizing::latency_slots`].
#[derive(Debug)]
pub struct CfdsDram {
    cfg: CfdsConfig,
    banks: BankArray,
    /// Every block from its write's submission to its read's issue.
    store: DramStore<DramBlock>,
    dss: DramSchedulerSubsystem,
    renaming: RenamingTable,
    /// Per logical queue, blocks written so far: the next block's index.
    blocks_written: Vec<u64>,
}

/// A block in the CFDS DRAM: its slab handle and its place in its logical
/// queue. Renaming chains are FIFO, so the `index`-th block written for a
/// queue is also the `index`-th read.
#[derive(Debug, Clone, Copy)]
struct DramBlock {
    block: SlabBlock,
    queue: LogicalQueueId,
    index: u64,
}

impl CfdsBuffer {
    /// Creates a CFDS buffer with default options (oldest-first DSA,
    /// unbounded DRAM).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: CfdsConfig) -> Self {
        CfdsBuffer::with_options(cfg, CfdsBufferOptions::default())
    }

    /// Creates a CFDS buffer with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[expect(
        clippy::expect_used,
        clippy::disallowed_macros,
        reason = "setup, not the slot loop"
    )]
    pub fn with_options(cfg: CfdsConfig, options: CfdsBufferOptions) -> Self {
        cfg.validate().expect("invalid CFDS configuration");
        let q = cfg.num_queues;
        let b = cfg.granularity;
        let latency = cfds_sizing::latency_slots(&cfg);
        let interleaving = InterleavingConfig::from_cfds(&cfg);
        let mapper = AddressMapper::new(interleaving);
        let store = match options.dram_capacity_cells {
            Some(cells) => DramStore::with_total_capacity(mapper, cells, b),
            None => DramStore::new(mapper, usize::MAX / 4),
        };
        // The DSS serves reads and writes through the same issue stream, two
        // opportunities per b-slot period, so a bank stays locked for
        // 2·(B/b) − 1 subsequent opportunities.
        let dss = DramSchedulerSubsystem::new(mapper, 2 * cfg.banks_per_group(), options.dsa);
        HybridBuffer {
            front: Front::new(q, b, cfg.effective_lookahead(), latency),
            back: CfdsDram {
                banks: BankArray::new(cfg.num_banks, cfg.rads_granularity as u64),
                store,
                dss,
                renaming: RenamingTable::new(q, cfg.num_physical_queues(), cfg.num_groups()),
                blocks_written: vec![0; q],
                cfg,
            },
        }
    }

    /// Analytical head-SRAM requirement (equation (4)), in cells.
    pub fn analytical_head_sram(&self) -> usize {
        let cfg = &self.back.cfg;
        cfds_sizing::sram_cells(cfg, cfg.effective_lookahead())
    }

    /// Analytical Requests-Register size (equation (1)).
    pub fn analytical_rr_size(&self) -> usize {
        cfds_sizing::rr_size(&self.back.cfg)
    }

    /// Peak Requests-Register occupancy observed so far.
    pub fn peak_rr_occupancy(&self) -> usize {
        self.back.dss.peak_rr_occupancy()
    }

    /// Fraction of the DRAM block capacity currently in use.
    pub fn dram_utilisation(&self) -> f64 {
        self.back.store.utilisation()
    }

    /// Number of physical queues currently chained to `queue` by the renaming
    /// layer.
    pub fn renaming_chain_length(&self, queue: LogicalQueueId) -> usize {
        self.back.renaming.chain_length(queue)
    }

    /// Preloads `cells` of `queue` directly into the DRAM through the
    /// renaming layer, bypassing the tail path.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells is not a multiple of the granularity or
    /// if the DRAM has no room for them.
    #[expect(
        clippy::needless_pass_by_value,
        reason = "by value, the call sites move their staging Vec straight in; a setup-only copy"
    )]
    #[expect(clippy::expect_used, reason = "preloading runs before the slot loop")]
    pub fn preload_dram(&mut self, queue: LogicalQueueId, cells: Vec<Cell>) {
        let back = &mut self.back;
        let b = back.cfg.granularity;
        assert!(
            cells.len().is_multiple_of(b),
            "preload length must be a multiple of the granularity"
        );
        self.front.available.credit(queue, cells.len() as u64);
        for chunk in cells.chunks(b) {
            let physical = back
                .place_write(queue, None)
                .expect("preload found no DRAM room");
            let block = self.front.slab.alloc();
            self.front.slab.cells_mut(block).copy_from_slice(chunk);
            let ordinal = back
                .reserve(physical, queue, block)
                .expect("renaming placed the block in a group with room");
            back.store.commit(physical, ordinal);
            back.dss.set_ordinals(
                physical,
                back.store.head_ordinal(physical),
                back.store.next_write_ordinal(physical),
            );
        }
    }
}

impl CfdsDram {
    /// The physical queue for `queue`'s next block: the chain tail while its
    /// group has room, else the emptiest group with room, outside `avoid`
    /// if possible.
    fn place_write(
        &mut self,
        queue: LogicalQueueId,
        avoid: Option<GroupId>,
    ) -> Result<PhysicalQueueId, RenamingError> {
        let store = &self.store;
        self.renaming.physical_for_write_ranked(
            queue,
            avoid,
            |g| store.group_has_room(g),
            |g| Some(store.group_occupancy(g)),
        )
    }

    /// Reserves `block`, `queue`'s next block, in the store under the name
    /// renaming placed it in, and counts it in the renaming chain.
    fn reserve(
        &mut self,
        physical: PhysicalQueueId,
        queue: LogicalQueueId,
        block: SlabBlock,
    ) -> Result<u64, StoreError> {
        let index = &mut self.blocks_written[queue.as_usize()];
        let entry = DramBlock {
            block,
            queue,
            index: *index,
        };
        let ordinal = self.store.reserve(physical, entry)?;
        *index += 1;
        self.renaming.note_block_written(queue);
        Ok(ordinal)
    }

    #[inline(always)]
    fn submit_writeback(&mut self, front: &mut Front, now: u64) {
        let Some(queue) = front.writeback_candidate() else {
            return;
        };
        // Keep the write stream of this queue out of the group its read
        // stream is draining: one group sustains only one access per b slots,
        // which a backlogged queue needs for each direction.
        let avoid = self
            .renaming
            .physical_for_read(queue)
            .map(|p| self.store.mapper().group_of_queue(p));
        let Ok(physical) = self.place_write(queue, avoid) else {
            front.stats.blocked_writebacks += 1;
            return;
        };
        let block = front.take_writeback(queue);
        // Renaming placed the block in a group with room, so the store
        // reserves it. Were it refused, its cells would be lost (and show
        // as misses when requested).
        let Ok(ordinal) = self.reserve(physical, queue, block) else {
            front.slab.free(block);
            front.stats.blocked_writebacks += 1;
            return;
        };
        let request = self.dss.submit_write(physical, now);
        debug_assert_eq!(request.block_ordinal, ordinal, "store and DSS ordinals");
    }

    #[inline(always)]
    fn submit_replenishment(&mut self, front: &mut Front, now: u64) {
        let Some(queue) = front.head_mma.select_replenishment() else {
            return;
        };
        let Some(physical) = self.renaming.physical_for_read(queue) else {
            front.unfulfilled(queue);
            return;
        };
        self.renaming.note_block_read(queue);
        self.dss.submit_read(physical, now);
    }

    #[inline(always)]
    fn issue_opportunities(&mut self, front: &mut Front, now: u64) {
        let big_b = self.cfg.rads_granularity as u64;
        for _ in 0..2 {
            let Some(issued) = self.dss.issue(now) else {
                continue;
            };
            let physical = PhysicalQueueId::new(issued.request.queue.index());
            let ordinal = issued.request.block_ordinal;
            if self.banks.start_access(issued.bank, now).is_err() {
                front.stats.bank_conflicts += 1;
            }
            front.stats.max_dss_delay_slots =
                front.stats.max_dss_delay_slots.max(issued.delay_slots());
            match issued.request.kind {
                // A write whose read overtook it (ablation DSA policies only)
                // finds its block taken, and writes nothing.
                AccessKind::Write => {
                    if self.store.commit(physical, ordinal) {
                        front.stats.dram_writes += 1;
                    }
                }
                AccessKind::Read => {
                    // Renaming counts a block at its write's submission, so
                    // every submitted read finds its block here, resident or
                    // still reserved (were it missing, its request would
                    // surface as a miss).
                    let Ok(DramBlock {
                        block,
                        queue,
                        index,
                    }) = self.store.take_block(physical, ordinal)
                    else {
                        continue;
                    };
                    front.stats.dram_reads += 1;
                    front.pending_deliveries.push_back(PendingDelivery {
                        deliver_slot: now + big_b,
                        queue,
                        block_index: index,
                        block,
                    });
                }
            }
        }
        front.stats.peak_rr_entries = front
            .stats
            .peak_rr_entries
            .max(self.dss.peak_rr_occupancy() as u64);
        front.stats.dss_stalls = self.dss.stats().stalls;
    }
}

impl BackEnd for CfdsDram {
    type Config = CfdsConfig;
    const TYPE_NAME: &'static str = "CfdsBuffer";
    const DESIGN: &'static str = "CFDS";

    fn config(&self) -> &CfdsConfig {
        &self.cfg
    }

    /// Every b slots: MMA decisions and the DSS's two issue opportunities.
    #[inline(always)]
    fn period_ops(&mut self, front: &mut Front, now: u64) {
        self.submit_writeback(front, now);
        self.submit_replenishment(front, now);
        self.issue_opportunities(front, now);
    }

    fn is_quiescent(&self) -> bool {
        self.dss.pending() == 0
    }

    /// At a period boundary the empty RR's two issue opportunities only age
    /// the ORR lock window.
    fn advance_idle(&mut self, periods: u64) {
        self.dss.advance_idle(2 * periods);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::short_streams::assert_every_short_stream_is_served;
    use crate::{BufferStats, PacketBuffer};

    fn small_cfg(q: usize, b: usize, big_b: usize, m: usize) -> CfdsConfig {
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

    fn lq(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    fn preload_all(buf: &mut CfdsBuffer, q: usize, cells_per_queue: u64) {
        for i in 0..q as u32 {
            let cells: Vec<Cell> = (0..cells_per_queue)
                .map(|s| Cell::new(lq(i), s, 0))
                .collect();
            buf.preload_dram(lq(i), cells);
        }
    }

    fn drain_round_robin(buf: &mut CfdsBuffer, q: usize, per_queue: u64) {
        let total = q as u64 * per_queue;
        let delay = buf.pipeline_delay_slots() as u64;
        let mut issued = 0u64;
        for t in 0..(total + delay + 64) {
            let req = if issued < total {
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
    }

    #[test]
    fn round_robin_drain_is_conflict_and_miss_free() {
        let (q, b, big_b, m) = (8, 2, 8, 16);
        let mut buf = CfdsBuffer::new(small_cfg(q, b, big_b, m));
        preload_all(&mut buf, q, 32);
        drain_round_robin(&mut buf, q, 32);
        assert_eq!(buf.stats().grants, 8 * 32);
        assert!(buf.stats().is_loss_free(), "{:?}", buf.stats());
        assert_eq!(buf.stats().bank_conflicts, 0);
        assert_eq!(buf.stats().dss_stalls, 0);
        // Empirical RR occupancy respects the analytical bound.
        assert!(
            buf.peak_rr_occupancy() <= buf.analytical_rr_size().max(1),
            "peak RR {} vs bound {}",
            buf.peak_rr_occupancy(),
            buf.analytical_rr_size()
        );
    }

    /// RADS's exhaustive check over CFDS at Q = 2: every oracle-respecting
    /// request stream of up to eight slots, at `b = B` (the register is just
    /// the `B`-slot read) and at `B/b = 2`. None misses, and the head SRAM
    /// stays within equation (4).
    #[test]
    fn every_short_request_stream_is_served() {
        for (b, big_b, m) in [(2, 2, 2), (3, 3, 3), (1, 2, 2), (2, 4, 4)] {
            assert_every_short_stream_is_served(
                || CfdsBuffer::new(small_cfg(2, b, big_b, m)),
                CfdsBuffer::preload_dram,
                CfdsBuffer::analytical_head_sram,
                b,
            );
        }
    }

    #[test]
    fn single_queue_burst_is_served_in_order() {
        let (q, b, big_b, m) = (4, 2, 8, 16);
        let mut buf = CfdsBuffer::new(small_cfg(q, b, big_b, m));
        preload_all(&mut buf, q, 64);
        let delay = buf.pipeline_delay_slots() as u64;
        let mut issued = 0u64;
        for _ in 0..(64 + delay + 64) {
            let req = if issued < 64 && buf.requestable_cells(lq(1)) > 0 {
                issued += 1;
                Some(lq(1))
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none());
            if let Some(cell) = &out.granted {
                assert_eq!(cell.queue(), lq(1));
            }
        }
        assert_eq!(buf.stats().grants, 64);
        assert!(buf.stats().is_loss_free());
    }

    #[test]
    fn arrivals_flow_line_to_dram_to_arbiter() {
        let (q, b, big_b, m) = (4, 2, 8, 16);
        let mut buf = CfdsBuffer::new(small_cfg(q, b, big_b, m));
        // Interleave arrivals over two queues.
        let mut seqs = [0u64; 2];
        for t in 0..64u64 {
            let qi = (t % 2) as u32;
            let cell = Cell::new(lq(qi), seqs[qi as usize], t);
            seqs[qi as usize] += 1;
            buf.step(Some(cell), None);
        }
        // Let writebacks drain to DRAM.
        for _ in 0..256 {
            buf.step(None, None);
        }
        assert!(buf.requestable_cells(lq(0)) >= 16);
        assert!(buf.requestable_cells(lq(1)) >= 16);
        // Drain what reached DRAM; no misses allowed.
        let available: Vec<u64> = (0..2).map(|i| buf.requestable_cells(lq(i))).collect();
        let total: u64 = available.iter().sum();
        let delay = buf.pipeline_delay_slots() as u64;
        let mut remaining = available;
        let mut granted_target = 0u64;
        for t in 0..(total + delay + 128) {
            let qi = (t % 2) as usize;
            let req = if remaining[qi] > 0 {
                remaining[qi] -= 1;
                granted_target += 1;
                Some(lq(qi as u32))
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none(), "miss at slot {t}");
        }
        assert_eq!(buf.stats().grants, granted_target);
        assert!(buf.stats().is_loss_free());
        assert_eq!(buf.stats().drops, 0);
    }

    #[test]
    fn renaming_spreads_a_hot_queue_over_groups() {
        let (q, b, big_b, m) = (4, 2, 8, 16);
        let mut cfg = small_cfg(q, b, big_b, m);
        cfg.physical_queue_factor = 2;
        // Small DRAM: 16 blocks total over 4 groups → 4 blocks (8 cells) per
        // group.
        let options = CfdsBufferOptions {
            dram_capacity_cells: Some(32),
            ..CfdsBufferOptions::default()
        };
        let mut buf = CfdsBuffer::with_options(cfg, options);
        // Preload 24 cells (12 blocks) of one single logical queue: they
        // cannot fit in one group (4 blocks), so renaming must chain physical
        // queues across groups.
        let cells: Vec<Cell> = (0..24).map(|s| Cell::new(lq(0), s, 0)).collect();
        buf.preload_dram(lq(0), cells);
        assert!(buf.renaming_chain_length(lq(0)) >= 3);
        assert!(buf.dram_utilisation() > 0.7);
        // And the cells still come out in FIFO order.
        let delay = buf.pipeline_delay_slots() as u64;
        let mut issued = 0u64;
        for _ in 0..(24 + delay + 64) {
            let req = if issued < 24 {
                issued += 1;
                Some(lq(0))
            } else {
                None
            };
            let out = buf.step(None, req);
            assert!(out.miss.is_none());
        }
        assert_eq!(buf.stats().grants, 24);
        assert!(buf.stats().is_loss_free());
    }

    #[test]
    fn accessors_and_debug() {
        let buf = CfdsBuffer::new(small_cfg(4, 2, 8, 16));
        assert_eq!(buf.design_name(), "CFDS");
        assert_eq!(buf.num_queues(), 4);
        assert_eq!(buf.config().granularity, 2);
        assert!(buf.pipeline_delay_slots() > buf.config().effective_lookahead());
        assert!(format!("{buf:?}").contains("CfdsBuffer"));
        assert_eq!(buf.peak_head_sram(), 0);
        assert!(buf.analytical_head_sram() > 0);
    }

    /// Runs a renaming CFDS (Q = 32, b = 2, B = 8, M = 32, two physical
    /// names per queue) under the random-eligible DSA for 40 000 slots:
    /// random arrivals (90 % load over the first 30 000 slots) and random
    /// admissible requests (80 %), both drawn from one xorshift word.
    fn random_eligible_run(seed: u64, dram_capacity_cells: Option<usize>) -> BufferStats {
        let mut cfg = small_cfg(32, 2, 8, 32);
        cfg.physical_queue_factor = 2;
        let options = CfdsBufferOptions {
            dsa: DsaPolicy::RandomEligible { seed },
            dram_capacity_cells,
        };
        let mut buf = CfdsBuffer::with_options(cfg, options);
        let mut seqs = [0u64; 32];
        let mut x = seed | 1;
        for t in 0..40_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let arrival = (t < 30_000 && x % 10 < 9).then(|| {
                let q = ((x >> 8) % 32) as usize;
                seqs[q] += 1;
                Cell::new(lq(q as u32), seqs[q] - 1, t)
            });
            let queue = lq(((x >> 20) % 32) as u32);
            let request = ((x >> 40) % 10 < 8 && buf.requestable_cells(queue) > 0).then_some(queue);
            buf.step(arrival, request);
        }
        *buf.stats()
    }

    /// A read that overtakes its write (possible under the random-eligible
    /// DSA) takes the reserved block and releases its reservation once, so
    /// a capacity-bound DRAM's room accounting cannot drift.
    #[test]
    fn capacity_bound_random_eligible_runs_complete() {
        for seed in [3, 42, 99] {
            let stats = random_eligible_run(seed, Some(128));
            assert!(stats.grants > 0, "seed {seed}: {stats:?}");
            assert_eq!(stats.misses, 0, "seed {seed}: {stats:?}");
        }
    }

    /// With unbounded DRAM, seed 42 has four reads overtake their writes;
    /// those writes count no DRAM write.
    #[test]
    fn overtaking_reads_deliver_their_reserved_blocks() {
        let stats = random_eligible_run(42, None);
        let got = (
            stats.grants,
            stats.drops,
            stats.misses,
            stats.order_violations,
            stats.blocked_writebacks,
            stats.dram_writes,
            stats.dram_reads,
        );
        assert_eq!(got, (26_994, 0, 0, 0, 44, 13_493, 13_497), "{stats:?}");
    }

    /// Seed 3 with unbounded DRAM drops cells at the tail. Each is one
    /// drop and nothing more: the grants after it skip its sequence number
    /// in order.
    #[test]
    fn tail_drops_are_not_order_violations() {
        let stats = random_eligible_run(3, None);
        assert!(stats.drops > 0, "{stats:?}");
        assert_eq!(stats.order_violations, 0, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "multiple of the granularity")]
    fn preload_must_be_block_aligned() {
        let mut buf = CfdsBuffer::new(small_cfg(4, 2, 8, 16));
        buf.preload_dram(lq(0), vec![Cell::new(lq(0), 0, 0)]);
    }
}
