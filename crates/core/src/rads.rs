//! The RADS (Random Access DRAM System) buffer front end — the baseline of
//! §3, i.e. the hybrid SRAM/DRAM design of Iyer, Kompella and McKeown.

use crate::hotpath::{countdown_after, BlockPool, TailCellArena};
use crate::hsram::{HeadSram, HeadSramKind};
use crate::stats::BufferStats;
use crate::traits::{BatchReport, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use crate::verify::DeliveryVerifier;
use dram_sim::{AddressMapper, DramStore, InterleavingConfig};
use mma::sizing::rads_sram_size_cells;
use mma::{EcqfMma, HeadMmaSubsystem, ThresholdTailMma};
use pktbuf_model::{Cell, LogicalQueueId, PhysicalQueueId, RadsConfig, RequestLedger};
use sram_buf::SharedBuffer;
use std::collections::VecDeque;

/// A block in flight from the DRAM to the head SRAM.
#[derive(Debug, Clone)]
struct PendingDelivery {
    deliver_slot: u64,
    queue: LogicalQueueId,
    block_index: u64,
    cells: Vec<Cell>,
}

/// The RADS packet buffer: tail SRAM + single-resource DRAM + head SRAM, with
/// DRAM transfers of `B` cells every `B` slots in each direction.
pub struct RadsBuffer {
    cfg: RadsConfig,
    slot: u64,
    /// Slots until the next granularity period (avoids a division per slot;
    /// hits zero exactly when `slot % B == 0`).
    until_period: u64,
    // Tail side: an intrusive cell arena with per-queue FIFO chains and an
    // incrementally maintained occupancy array (see [`crate::hotpath`]).
    tail: TailCellArena,
    tail_capacity: usize,
    tail_mma: ThresholdTailMma,
    /// Recycles the block buffers that cycle tail → DRAM → head SRAM.
    pool: BlockPool,
    // DRAM.
    dram: DramStore,
    // Head side. The MMA policy and the SRAM organisation are concrete types
    // (ECQF, a two-variant enum) so the per-slot notifications and the
    // per-grant pop never cross a vtable.
    head_mma: HeadMmaSubsystem<EcqfMma>,
    head_sram: HeadSram,
    pending_deliveries: VecDeque<PendingDelivery>,
    /// Per-queue index of the next block read from DRAM toward the head SRAM.
    head_block_seq: Vec<u64>,
    /// Cells written to DRAM minus requests accepted, per queue.
    available: RequestLedger,
    verifier: DeliveryVerifier,
    stats: BufferStats,
}

impl std::fmt::Debug for RadsBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadsBuffer")
            .field("cfg", &self.cfg)
            .field("slot", &self.slot)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RadsBuffer {
    /// Creates a RADS buffer with the default (global CAM) head SRAM.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: RadsConfig) -> Self {
        RadsBuffer::with_head_sram(cfg, HeadSramKind::GlobalCam)
    }

    /// Creates a RADS buffer with an explicit head-SRAM organisation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn with_head_sram(cfg: RadsConfig, kind: HeadSramKind) -> Self {
        cfg.validate().expect("invalid RADS configuration");
        let q = cfg.num_queues;
        let b = cfg.granularity;
        let lookahead = cfg.effective_lookahead();
        // The functional head SRAM is not capacity-limited: dimensioning is
        // checked by comparing the measured peak occupancy against the
        // analytical bound rather than by an artificial overflow.
        let head_capacity = usize::MAX / 4;
        let tail_capacity = 2 * ThresholdTailMma::required_sram_cells(q, b);
        // RADS treats the DRAM as a single resource; a one-bank mapping with
        // effectively unlimited per-group capacity stores the queue contents.
        let mapper = AddressMapper::new(
            InterleavingConfig::new(1, 1, q).expect("one-bank interleaving is always valid"),
        );
        let dram = DramStore::new(mapper, usize::MAX / 4);
        RadsBuffer {
            slot: 0,
            until_period: 0,
            tail: TailCellArena::new(q, tail_capacity, b),
            tail_capacity,
            tail_mma: ThresholdTailMma::new(b),
            pool: BlockPool::new(),
            dram,
            head_mma: HeadMmaSubsystem::with_policy(EcqfMma::new(b), lookahead, q),
            head_sram: kind.build_enum(q, head_capacity, 1, b),
            pending_deliveries: VecDeque::new(),
            head_block_seq: vec![0; q],
            available: RequestLedger::new(q),
            verifier: DeliveryVerifier::new(q),
            stats: BufferStats::default(),
            cfg,
        }
    }

    /// The configuration this buffer was built from.
    pub fn config(&self) -> &RadsConfig {
        &self.cfg
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
        let b = self.cfg.granularity;
        assert!(
            cells.len().is_multiple_of(b),
            "preload length must be a multiple of the granularity"
        );
        self.available.credit(queue, cells.len() as u64);
        let physical = PhysicalQueueId::new(queue.index());
        for chunk in cells.chunks(b) {
            self.dram
                .write_block(physical, chunk.to_vec())
                .expect("unbounded RADS DRAM accepts preload");
        }
    }

    /// Peak head-SRAM occupancy observed so far (cells).
    pub fn peak_head_sram(&self) -> usize {
        self.head_sram.peak_occupancy()
    }

    /// Analytical head-SRAM requirement for this configuration (cells).
    pub fn analytical_head_sram(&self) -> usize {
        rads_sram_size_cells(
            self.cfg.effective_lookahead(),
            self.cfg.num_queues,
            self.cfg.granularity,
        )
    }

    #[inline]
    fn deliver_due(&mut self, now: u64) {
        while self
            .pending_deliveries
            .front()
            .is_some_and(|front| front.deliver_slot <= now)
        {
            let Some(d) = self.pending_deliveries.pop_front() else {
                break;
            };
            self.head_sram
                .insert_block_cells(d.queue, d.block_index, &d.cells)
                .expect("head SRAM is functionally unbounded"); // analyze: allow(panic-freedom) — the head SRAM is configured functionally unbounded; occupancy is measured, not capped
            self.pool.put(d.cells);
            self.stats.peak_head_sram_cells = self
                .stats
                .peak_head_sram_cells
                .max(self.head_sram.occupancy() as u64);
        }
    }

    #[inline]
    fn dram_period_ops(&mut self, now: u64) {
        let b = self.cfg.granularity;
        // Writeback: tail SRAM → DRAM (occupancies are maintained by the
        // arena — nothing to collect). The arena tracks threshold crossings,
        // so the scan is skipped whenever no queue holds a full batch.
        let writeback = if self.tail.any_eligible() {
            self.tail_mma
                .select_masked(self.tail.occupancies(), self.tail.eligible_words())
        } else {
            None
        };
        if let Some(queue) = writeback {
            let mut cells = self.pool.take(b);
            self.tail.pop_block_into(queue, b, &mut cells);
            let physical = PhysicalQueueId::new(queue.index());
            self.dram
                .write_block(physical, cells)
                .expect("unbounded RADS DRAM accepts writebacks"); // analyze: allow(panic-freedom) — the RADS DRAM is configured unbounded and always accepts writebacks
            self.available.credit(queue, b as u64);
            self.stats.dram_writes += 1;
        }
        // Replenishment: DRAM → head SRAM, delivered one random access time
        // later.
        if let Some(queue) = self.head_mma.select_replenishment() {
            let physical = PhysicalQueueId::new(queue.index());
            match self.dram.read_block(physical) {
                Ok((_, cells)) => {
                    let qi = queue.as_usize();
                    let block_index = self.head_block_seq[qi];
                    self.head_block_seq[qi] += 1;
                    self.pending_deliveries.push_back(PendingDelivery {
                        deliver_slot: now + b as u64,
                        queue,
                        block_index,
                        cells,
                    });
                    self.stats.dram_reads += 1;
                }
                Err(_) => {
                    // The selected queue has nothing in DRAM (its cells are
                    // still on the tail path): roll the credit back.
                    self.head_mma.preload(queue, -(b as i64));
                    self.stats.unfulfilled_replenishments += 1;
                }
            }
        }
    }
}

impl PacketBuffer for RadsBuffer {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        let now = self.slot;
        self.slot += 1;
        self.stats.slots += 1;
        let mut outcome = SlotOutcome::default();

        // 1. Blocks whose DRAM access completed this slot reach the head SRAM.
        self.deliver_due(now);

        // 2. One cell may arrive from the line into the tail SRAM.
        if let Some(cell) = arrival {
            if self.tail.len() < self.tail_capacity {
                self.tail.push(cell);
                self.stats.peak_tail_sram_cells =
                    self.stats.peak_tail_sram_cells.max(self.tail.len() as u64);
                self.stats.arrivals += 1;
            } else {
                self.stats.drops += 1;
                outcome.dropped_arrival = Some(cell);
            }
        }

        // 3. One request may arrive from the arbiter; it enters the lookahead
        //    and the request that leaves the lookahead (if any) is served at
        //    the end of the slot.
        let mut due = None;
        if let Some(queue) = request {
            self.stats.requests += 1;
            self.available.debit(queue);
            due = self.head_mma.on_request(Some(queue)).due;
        } else {
            due = self.head_mma.on_request(None).due.or(due);
        }

        // 4. Every B slots the DRAM performs one write and one read access.
        if self.until_period == 0 {
            self.until_period = self.cfg.granularity as u64;
            self.dram_period_ops(now);
        }
        self.until_period -= 1;

        // 5. Serve the due request from the head SRAM.
        if let Some(queue) = due {
            match self.head_sram.pop_front(queue) {
                Some(cell) => {
                    if !self.verifier.check(queue, &cell) {
                        self.stats.order_violations += 1;
                    }
                    self.stats.grants += 1;
                    outcome.granted = Some(cell);
                }
                None => {
                    self.stats.misses += 1;
                    outcome.miss = Some(queue);
                }
            }
        }
        outcome
    }

    fn current_slot(&self) -> u64 {
        self.slot
    }

    fn num_queues(&self) -> usize {
        self.cfg.num_queues
    }

    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        self.available.get(queue)
    }

    fn pipeline_delay_slots(&self) -> usize {
        self.cfg.effective_lookahead()
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn design_name(&self) -> &'static str {
        "RADS"
    }

    /// Fused batch loop: same slot sequence as [`RadsBuffer::step`], with the
    /// granularity hoisted out of the loop, the availability ledger itself as
    /// the request oracle and no `SlotOutcome` materialised per slot.
    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        let b = self.cfg.granularity as u64;
        let skippable = requests.idle_skippable();
        let mut report = BatchReport::default();
        // Slot-grained counters live in locals for the whole batch: the calls
        // into the delivery/period machinery take `&mut self`, which would
        // otherwise force every per-slot counter through memory each
        // iteration. Flushed once after the loop.
        let mut now = self.slot;
        let mut until_period = self.until_period;
        let mut delta = BufferStats::default();
        let mut peak_tail = self.stats.peak_tail_sram_cells;
        for arrival in arrivals.iter_mut() {
            // The closed-loop request probe comes first, exactly as in the
            // per-slot engine (the oracle observes the availability as of the
            // end of the previous slot); it is the availability ledger
            // itself, so the generator's scan is a pass over its bitmask.
            // When nothing is requestable anywhere, a skippable generator's
            // call is provably fruitless and side-effect-free — skip it on
            // the O(1) total instead.
            let request = if skippable && self.available.total() == 0 {
                None
            } else {
                requests.next_request(now, &self.available)
            };
            report.note(request.is_some());

            // 1. Due deliveries reach the head SRAM.
            if !self.pending_deliveries.is_empty() {
                self.deliver_due(now);
            }

            // 2. Arrival into the tail SRAM.
            if let Some(cell) = arrival.take() {
                if self.tail.len() < self.tail_capacity {
                    self.tail.push(cell);
                    peak_tail = peak_tail.max(self.tail.len() as u64);
                    delta.arrivals += 1;
                } else {
                    delta.drops += 1;
                }
            }

            // 3. The request enters the head MMA.
            let due = if let Some(queue) = request {
                delta.requests += 1;
                self.available.debit(queue);
                self.head_mma.on_request(Some(queue)).due
            } else {
                self.head_mma.on_request(None).due
            };

            // 4. DRAM period ops every B slots.
            if until_period == 0 {
                until_period = b;
                self.dram_period_ops(now);
            }
            until_period -= 1;

            // 5. Serve the due request.
            if let Some(queue) = due {
                match self.head_sram.pop_front(queue) {
                    Some(cell) => {
                        if !self.verifier.check(queue, &cell) {
                            delta.order_violations += 1;
                        }
                        delta.grants += 1;
                        grants.push(queue.index());
                    }
                    None => {
                        delta.misses += 1;
                    }
                }
            }
            now += 1;
        }
        self.slot = now;
        self.until_period = until_period;
        self.stats.slots += arrivals.len() as u64;
        self.stats.peak_tail_sram_cells = peak_tail;
        self.stats.arrivals += delta.arrivals;
        self.stats.drops += delta.drops;
        self.stats.requests += delta.requests;
        self.stats.grants += delta.grants;
        self.stats.misses += delta.misses;
        self.stats.order_violations += delta.order_violations;
        report
    }

    fn advance_idle(&mut self, slots: u64) {
        if slots == 0 {
            return;
        }
        if !self.is_quiescent() {
            for _ in 0..slots {
                self.step(None, None);
            }
            return;
        }
        // Quiescent: every skipped slot would only rotate the (all-idle)
        // lookahead, count down the period, and — at period boundaries — run
        // `dram_period_ops` with nothing eligible to write back and nothing
        // critical to replenish (ECQF selects `None` with an empty pending
        // set). All of that is pure counter/cursor motion, applied here
        // arithmetically.
        self.slot += slots;
        self.stats.slots += slots;
        self.head_mma.advance_idle(slots);
        self.until_period = countdown_after(self.until_period, slots, self.cfg.granularity as u64);
    }

    fn is_quiescent(&self) -> bool {
        self.pending_deliveries.is_empty()
            && !self.tail.any_eligible()
            && self.head_mma.lookahead().pending_len() == 0
    }

    fn requestable_total(&self) -> u64 {
        self.available.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn linked_list_head_sram_behaves_identically() {
        let q = 4;
        let b = 4;
        let mut cam = RadsBuffer::with_head_sram(small_cfg(q, b), HeadSramKind::GlobalCam);
        let mut lll = RadsBuffer::with_head_sram(small_cfg(q, b), HeadSramKind::UnifiedLinkedList);
        for buf in [&mut cam, &mut lll] {
            preload_all(buf, q, 16);
        }
        let delay = cam.pipeline_delay_slots() as u64;
        for t in 0..(q as u64 * 16 + delay + 10) {
            let queue = lq((t % q as u64) as u32);
            let req_cam = if cam.requestable_cells(queue) > 0 {
                Some(queue)
            } else {
                None
            };
            let out_a = cam.step(None, req_cam);
            let out_b = lll.step(None, req_cam);
            assert_eq!(out_a.granted, out_b.granted, "slot {t}");
            assert!(out_a.miss.is_none() && out_b.miss.is_none());
        }
        assert_eq!(cam.stats().grants, lll.stats().grants);
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
