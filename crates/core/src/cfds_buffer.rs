//! The CFDS (Conflict-Free DRAM System) buffer front end — the paper's
//! contribution (§5, §6) assembled into a complete packet buffer.

use crate::hotpath::{countdown_after, periods_crossed, BlockPool, PendingTable, TailCellArena};
use crate::hsram::{HeadSram, HeadSramKind};
use crate::stats::BufferStats;
use crate::traits::{BatchReport, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use crate::verify::DeliveryVerifier;
use cfds::{
    sizing as cfds_sizing, DramSchedulerSubsystem, DsaPolicy, LatencyRegister, RenamingTable,
};
use dram_sim::{AccessKind, AddressMapper, BankArray, DramStore, GroupId, InterleavingConfig};
use mma::{EcqfMma, HeadMmaSubsystem, ThresholdTailMma};
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, PhysicalQueueId, RequestLedger};
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

/// Construction options for a [`CfdsBuffer`].
#[derive(Debug, Clone, Copy)]
pub struct CfdsBufferOptions {
    /// Head-SRAM organisation.
    pub head_sram: HeadSramKind,
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
            head_sram: HeadSramKind::GlobalCam,
            dsa: DsaPolicy::OldestFirst,
            dram_capacity_cells: None,
        }
    }
}

/// The CFDS packet buffer: tail SRAM + banked DRAM behind a conflict-free
/// scheduler + head SRAM, with DRAM transfers of `b` cells every `b` slots in
/// each direction.
pub struct CfdsBuffer {
    cfg: CfdsConfig,
    slot: u64,
    /// Slots until the next granularity period (avoids a division per slot;
    /// hits zero exactly when `slot % b == 0`).
    until_period: u64,
    // Tail side: an intrusive cell arena with per-queue FIFO chains and an
    // incrementally maintained occupancy array (see [`crate::hotpath`]).
    tail: TailCellArena,
    tail_capacity: usize,
    tail_mma: ThresholdTailMma,
    /// Recycles the block buffers that cycle tail → DRAM → head SRAM.
    pool: BlockPool,
    // DRAM and its scheduler.
    banks: BankArray,
    store: DramStore,
    dss: DramSchedulerSubsystem,
    renaming: RenamingTable,
    /// Blocks whose write request has been submitted but not issued yet,
    /// indexed by (physical queue, block ordinal).
    pending_writes: PendingTable<Vec<Cell>>,
    /// Pending (submitted, un-issued) write blocks per group, for capacity
    /// accounting.
    group_pending: Vec<usize>,
    /// (physical queue, ordinal) → (logical queue, logical block index) for
    /// submitted reads.
    read_tags: PendingTable<(LogicalQueueId, u64)>,
    /// Per-logical-queue count of read blocks submitted so far.
    read_blocks_submitted: Vec<u64>,
    // Head side. The MMA policy and the SRAM organisation are concrete types
    // (ECQF, a two-variant enum) so the per-slot notifications and the
    // per-grant pop never cross a vtable.
    head_mma: HeadMmaSubsystem<EcqfMma>,
    latency: LatencyRegister,
    head_sram: HeadSram,
    pending_deliveries: VecDeque<PendingDelivery>,
    /// Cells written to DRAM minus requests accepted, per logical queue.
    available: RequestLedger,
    verifier: DeliveryVerifier,
    stats: BufferStats,
}

impl std::fmt::Debug for CfdsBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CfdsBuffer")
            .field("cfg", &self.cfg)
            .field("slot", &self.slot)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CfdsBuffer {
    /// Creates a CFDS buffer with default options (global-CAM head SRAM,
    /// oldest-first DSA, unbounded DRAM).
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
    pub fn with_options(cfg: CfdsConfig, options: CfdsBufferOptions) -> Self {
        cfg.validate().expect("invalid CFDS configuration");
        let q = cfg.num_queues;
        let b = cfg.granularity;
        let big_b = cfg.rads_granularity;
        let lookahead = cfg.effective_lookahead();
        let latency_slots = cfds_sizing::latency_slots(&cfg);
        // The functional head SRAM is not capacity-limited: dimensioning is
        // checked by comparing the measured peak occupancy against the
        // analytical bound (see `analytical_head_sram`), so that a sizing or
        // policy bug surfaces as a measurement, not as an artificial overflow
        // (the ablation DSA policies deliberately exceed the bound).
        let head_capacity = usize::MAX / 4;
        let tail_capacity = 2 * ThresholdTailMma::required_sram_cells(q, b);
        let interleaving = InterleavingConfig::from_cfds(&cfg);
        let mapper = AddressMapper::with_block_cells(interleaving, b);
        let store = match options.dram_capacity_cells {
            Some(cells) => DramStore::with_total_capacity(mapper, cells, b),
            None => DramStore::new(mapper, usize::MAX / 4),
        };
        // The DSS serves reads and writes through the same issue stream, two
        // opportunities per b-slot period, so a bank stays locked for
        // 2·(B/b) − 1 subsequent opportunities.
        let dss = DramSchedulerSubsystem::new(mapper, 2 * cfg.banks_per_group(), options.dsa);
        CfdsBuffer {
            slot: 0,
            until_period: 0,
            tail: TailCellArena::new(q, tail_capacity, b),
            tail_capacity,
            tail_mma: ThresholdTailMma::new(b),
            pool: BlockPool::new(),
            banks: BankArray::new(cfg.num_banks, big_b as u64),
            store,
            dss,
            renaming: RenamingTable::new(q, cfg.num_physical_queues(), cfg.num_groups()),
            pending_writes: PendingTable::new(cfg.num_physical_queues()),
            group_pending: vec![0; cfg.num_groups()],
            read_tags: PendingTable::new(cfg.num_physical_queues()),
            read_blocks_submitted: vec![0; q],
            head_mma: HeadMmaSubsystem::with_policy(EcqfMma::new(b), lookahead, q),
            latency: LatencyRegister::new(latency_slots),
            head_sram: options
                .head_sram
                .build_enum(q, head_capacity, cfg.banks_per_group(), b),
            pending_deliveries: VecDeque::new(),
            available: RequestLedger::new(q),
            verifier: DeliveryVerifier::new(q),
            stats: BufferStats::default(),
            cfg,
        }
    }

    /// The configuration this buffer was built from.
    pub fn config(&self) -> &CfdsConfig {
        &self.cfg
    }

    /// Peak head-SRAM occupancy observed so far (cells).
    pub fn peak_head_sram(&self) -> usize {
        self.head_sram.peak_occupancy()
    }

    /// Analytical head-SRAM requirement (equation (4)), in cells.
    pub fn analytical_head_sram(&self) -> usize {
        cfds_sizing::sram_cells(&self.cfg, self.cfg.effective_lookahead())
    }

    /// Analytical Requests-Register size (equation (1)).
    pub fn analytical_rr_size(&self) -> usize {
        cfds_sizing::rr_size(&self.cfg)
    }

    /// Peak Requests-Register occupancy observed so far.
    pub fn peak_rr_occupancy(&self) -> usize {
        self.dss.peak_rr_occupancy()
    }

    /// Fraction of the DRAM block capacity currently in use.
    pub fn dram_utilisation(&self) -> f64 {
        self.store.utilisation()
    }

    /// Number of physical queues currently chained to `queue` by the renaming
    /// layer.
    pub fn renaming_chain_length(&self, queue: LogicalQueueId) -> usize {
        self.renaming.chain_length(queue)
    }

    /// Preloads `cells` of `queue` directly into the DRAM through the
    /// renaming layer, bypassing the tail path.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells is not a multiple of the granularity or
    /// if the DRAM has no room for them.
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
        for chunk in cells.chunks(b) {
            let preferred = self.store.groups_with_room();
            let store = &self.store;
            let group_pending = &self.group_pending;
            let physical = self
                .renaming
                .physical_for_write(
                    queue,
                    |g: GroupId| {
                        store.group_occupancy(g) + group_pending[g.index()]
                            < store.group_capacity_blocks()
                    },
                    &preferred,
                )
                .expect("preload found no DRAM room");
            self.renaming.note_block_written(queue);
            self.store
                .write_block(physical, chunk.to_vec())
                .expect("preload write fits the group");
            self.dss.set_ordinals(
                physical,
                self.store.head_ordinal(physical),
                self.store.next_write_ordinal(physical),
            );
        }
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
    fn submit_writeback(&mut self, now: u64) {
        let b = self.cfg.granularity;
        // The arena tracks threshold crossings: when no queue holds a full
        // batch the MMA cannot select anything — skip the scan outright.
        if !self.tail.any_eligible() {
            return;
        }
        let Some(queue) = self
            .tail_mma
            .select_masked(self.tail.occupancies(), self.tail.eligible_words())
        else {
            return;
        };
        // Keep the write stream of this queue out of the group its read
        // stream is draining: one group sustains only one access per b slots,
        // which a backlogged queue needs for each direction.
        let avoid = self
            .renaming
            .physical_for_read(queue)
            .map(|p| self.store.mapper().group_of_queue(p));
        let store = &self.store;
        let group_pending = &self.group_pending;
        let has_room = |g: GroupId| {
            store.group_occupancy(g) + group_pending[g.index()] < store.group_capacity_blocks()
        };
        // Fast path: the chain tail's group has room and is not avoided —
        // exactly the first check of `physical_for_write_avoiding` — so the
        // sorted preferred-group list is never needed.
        let fast = self.renaming.write_tail(queue).filter(|p| {
            let group = self.renaming.group_of(*p);
            has_room(group) && Some(group) != avoid
        });
        let physical = match fast {
            Some(p) => p,
            None => {
                // Slow path: pick the emptiest group with room and a free
                // name in one pass (equivalent to sorting the groups by
                // occupancy and trying them in order).
                match self.renaming.physical_for_write_ranked(
                    queue,
                    avoid,
                    has_room,
                    |g: GroupId| store.group_occupancy(g),
                ) {
                    Ok(p) => p,
                    Err(_) => {
                        self.stats.blocked_writebacks += 1;
                        return;
                    }
                }
            }
        };
        self.renaming.note_block_written(queue);
        let mut cells = self.pool.take(b);
        self.tail.pop_block_into(queue, b, &mut cells);
        let request = self.dss.submit_write(physical, now);
        let group = self.store.mapper().group_of_queue(physical);
        self.group_pending[group.index()] += 1;
        self.pending_writes
            .insert(physical.index(), request.block_ordinal, cells);
        self.available.credit(queue, b as u64);
    }

    #[inline]
    fn submit_replenishment(&mut self, now: u64) {
        let b = self.cfg.granularity;
        let Some(queue) = self.head_mma.select_replenishment() else {
            return;
        };
        let Some(physical) = self.renaming.physical_for_read(queue) else {
            // Nothing in DRAM for this queue: roll the credit back.
            self.head_mma.preload(queue, -(b as i64));
            self.stats.unfulfilled_replenishments += 1;
            return;
        };
        self.renaming.note_block_read(queue);
        let request = self.dss.submit_read(physical, now);
        let qi = queue.as_usize();
        let block_index = self.read_blocks_submitted[qi];
        self.read_blocks_submitted[qi] += 1;
        self.read_tags.insert(
            physical.index(),
            request.block_ordinal,
            (queue, block_index),
        );
    }

    #[inline]
    fn issue_opportunities(&mut self, now: u64) {
        let big_b = self.cfg.rads_granularity as u64;
        for _ in 0..2 {
            let Some(issued) = self.dss.issue(now) else {
                continue;
            };
            let physical = PhysicalQueueId::new(issued.request.queue.index());
            let ordinal = issued.request.block_ordinal;
            if self.banks.start_access(issued.bank, now).is_err() {
                self.stats.bank_conflicts += 1;
            }
            self.stats.max_dss_delay_slots =
                self.stats.max_dss_delay_slots.max(issued.delay_slots());
            match issued.request.kind {
                AccessKind::Write => {
                    let group = self.store.mapper().group_of_queue(physical);
                    self.group_pending[group.index()] =
                        self.group_pending[group.index()].saturating_sub(1);
                    if let Some(cells) = self.pending_writes.remove(physical.index(), ordinal) {
                        match self.store.write_block_at(
                            physical,
                            issued.request.block_ordinal,
                            cells,
                        ) {
                            Ok(()) => self.stats.dram_writes += 1,
                            Err(_) => self.stats.blocked_writebacks += 1,
                        }
                    }
                    // A missing entry means the block was already forwarded to
                    // a read that overtook this write (only possible with the
                    // ablation DSA policies); nothing further to do.
                }
                AccessKind::Read => {
                    let (queue, block_index) = self
                        .read_tags
                        .remove(physical.index(), ordinal)
                        .expect("every issued read was tagged at submit time"); // analyze: allow(panic-freedom) — every issued read was tagged at submit time and untagged only here
                    let cells = match self.store.read_block_at(physical, ordinal) {
                        Ok(cells) => cells,
                        Err(_) => {
                            // Read overtook its producing write (ablation
                            // policies only): forward the data directly and
                            // tell the store the ordinal will never be
                            // resident, so its ring does not keep a
                            // permanently vacant hole at the front.
                            let group = self.store.mapper().group_of_queue(physical);
                            self.group_pending[group.index()] =
                                self.group_pending[group.index()].saturating_sub(1);
                            self.store
                                .note_forwarded(physical, ordinal)
                                .expect("issued reads target known queues"); // analyze: allow(panic-freedom) — the forwarded queue was registered with the store at write submit
                            self.pending_writes
                                .remove(physical.index(), ordinal)
                                // analyze: allow(panic-freedom) — a read that overtook its write finds that write still pending by construction
                                .expect("forwarded block exists among pending writes")
                        }
                    };
                    self.stats.dram_reads += 1;
                    self.pending_deliveries.push_back(PendingDelivery {
                        deliver_slot: now + big_b,
                        queue,
                        block_index,
                        cells,
                    });
                }
            }
        }
        self.stats.peak_rr_entries = self
            .stats
            .peak_rr_entries
            .max(self.dss.peak_rr_occupancy() as u64);
        self.stats.dss_stalls = self.dss.stats().stalls;
    }
}

impl PacketBuffer for CfdsBuffer {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        let now = self.slot;
        self.slot += 1;
        self.stats.slots += 1;
        let mut outcome = SlotOutcome::default();

        // 1. Blocks whose DRAM access completed reach the head SRAM.
        self.deliver_due(now);

        // 2. Arrival into the tail SRAM.
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

        // 3. Arbiter request: lookahead, then the latency register.
        let due = if let Some(queue) = request {
            self.stats.requests += 1;
            self.available.debit(queue);
            self.head_mma.on_request(Some(queue)).due
        } else {
            self.head_mma.on_request(None).due
        };
        let emerged = self.latency.push(due);

        // 4. Every b slots: MMA decisions and DSS issue opportunities.
        if self.until_period == 0 {
            self.until_period = self.cfg.granularity as u64;
            self.submit_writeback(now);
            self.submit_replenishment(now);
            self.issue_opportunities(now);
        }
        self.until_period -= 1;

        // 5. Serve the request that completed both the lookahead and the
        //    latency register.
        if let Some(queue) = emerged {
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
        self.cfg.effective_lookahead() + self.latency.capacity()
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn design_name(&self) -> &'static str {
        "CFDS"
    }

    /// Fused batch loop: same slot sequence as [`CfdsBuffer::step`], with the
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
            let emerged = self.latency.push(due);

            // 4. MMA decisions and DSS issue opportunities every b slots.
            if until_period == 0 {
                until_period = b;
                self.submit_writeback(now);
                self.submit_replenishment(now);
                self.issue_opportunities(now);
            }
            until_period -= 1;

            // 5. Serve the request that completed the whole delay pipeline.
            if let Some(queue) = emerged {
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
        // Quiescent: a skipped slot rotates the (all-idle) lookahead and
        // latency registers, counts down the period and — at boundaries —
        // finds nothing to write back (no eligible tail batch), nothing to
        // replenish (ECQF with an empty pending set selects `None`) and an
        // empty RR whose two issue opportunities only age the ORR lock
        // window. All pure counter/cursor motion, applied arithmetically.
        let b = self.cfg.granularity as u64;
        debug_assert!(self.pending_writes.is_empty() && self.read_tags.is_empty());
        self.slot += slots;
        self.stats.slots += slots;
        self.head_mma.advance_idle(slots);
        self.latency.advance_idle(slots);
        let periods = periods_crossed(self.until_period, slots, b);
        self.dss.advance_idle(2 * periods);
        self.until_period = countdown_after(self.until_period, slots, b);
    }

    fn is_quiescent(&self) -> bool {
        self.pending_deliveries.is_empty()
            && !self.tail.any_eligible()
            && self.head_mma.lookahead().pending_len() == 0
            && self.dss.pending() == 0
            && self.latency.in_flight() == 0
    }

    fn requestable_total(&self) -> u64 {
        self.available.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::LineRate;

    fn small_cfg(q: usize, b: usize, big_b: usize, m: usize) -> CfdsConfig {
        CfdsConfig::builder()
            .line_rate(LineRate::Oc3072)
            .num_queues(q)
            .granularity(b)
            .rads_granularity(big_b)
            .num_banks(m)
            .build()
            .unwrap()
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

    #[test]
    #[should_panic(expected = "multiple of the granularity")]
    fn preload_must_be_block_aligned() {
        let mut buf = CfdsBuffer::new(small_cfg(4, 2, 8, 16));
        buf.preload_dram(lq(0), vec![Cell::new(lq(0), 0, 0)]);
    }
}
