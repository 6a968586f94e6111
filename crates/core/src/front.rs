//! The hybrid SRAM front end RADS (§3) and CFDS (§5) share, and the one slot
//! loop every design runs.
//!
//! CFDS keeps RADS's front end — tail SRAM and threshold tail MMA, ECQF
//! lookahead and the delay line after it, head SRAM — and changes only what
//! sits behind it. [`Front`] owns that state and [`HybridBuffer`] writes the
//! slot once: deliver, arrive, request, delay line, period ops every `b`
//! slots, serve. The delay line is the DRAM read's stage: `B` slots for
//! RADS, whose read takes `B` slots, and the latency register of equation
//! (3) for CFDS, whose reads the DSS also delays. A [`BackEnd`] supplies
//! what differs — its period ops and its share of quiescence and idle
//! fast-forward — and is monomorphized: nothing in the slot dispatches on
//! it. [`SlotLoop`] runs a design's single slot body as `step` and as the
//! fused `step_batch`; the DRAM-only baseline has its own body on the same
//! skeleton.

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

use crate::hotpath::{countdown_after, periods_crossed, BlockSlab, SlabBlock, TailCellArena};
use crate::stats::BufferStats;
use crate::traits::{BatchReport, GrantSink, PacketBuffer, SlotOutcome};
use crate::verify::DeliveryVerifier;
use cfds::LatencyRegister;
use mma::{EcqfMma, HeadMmaSubsystem, ThresholdTailMma};
use pktbuf_model::{Cell, LogicalQueueId, RequestLedger, RequestSource};
use sram_buf::{GlobalCamBuffer, SharedBuffer};
use std::collections::VecDeque;

/// The slot-grained state a slot loop keeps in locals: the clock, the
/// design's registers and the per-slot counters (`delta`, added to the
/// buffer's statistics on [`SlotLoop::store`]).
pub(crate) struct Locals<R> {
    pub(crate) now: u64,
    pub(crate) regs: R,
    pub(crate) delta: BufferStats,
}

/// Where a slot body hands what the slot produced: `step` keeps all of it as
/// its [`SlotOutcome`]; the fused `step_batch` logs the granted queue into
/// its [`GrantSink`] and drops the cells on the spot, so no outcome is
/// materialised per slot.
pub(crate) trait SlotSink {
    /// A cell of `queue` granted to the arbiter.
    fn grant(&mut self, queue: LogicalQueueId, cell: Cell);

    /// A due request whose cell was not in the head path.
    fn miss(&mut self, _queue: LogicalQueueId) {}

    /// An arrival the buffer had no room for.
    fn drop_arrival(&mut self, _cell: Cell) {}
}

impl SlotSink for SlotOutcome {
    #[inline(always)]
    fn grant(&mut self, _queue: LogicalQueueId, cell: Cell) {
        self.granted = Some(cell);
    }

    #[inline(always)]
    fn miss(&mut self, queue: LogicalQueueId) {
        self.miss = Some(queue);
    }

    #[inline(always)]
    fn drop_arrival(&mut self, cell: Cell) {
        self.dropped_arrival = Some(cell);
    }
}

impl SlotSink for GrantSink {
    #[inline(always)]
    fn grant(&mut self, queue: LogicalQueueId, _cell: Cell) {
        self.push(queue.index());
    }
}

/// A design's slot body and the state it keeps in [`Locals`].
pub(crate) trait SlotLoop {
    /// Registers kept in locals across a batch (period countdown, port
    /// horizons).
    type Regs;

    /// The clock and registers as of now, with zero counters.
    fn load(&self) -> Locals<Self::Regs>;

    /// Writes the clock and registers back and adds the counters.
    fn store(&mut self, locals: &Locals<Self::Regs>);

    /// The requestable set, which is also the request oracle.
    fn requestable(&self) -> &RequestLedger;

    /// One slot at `locals.now`, handing its results to `out`; the caller
    /// advances the clock. The arrival is taken where it lies (a batch's
    /// ring entry) when the body reaches it: moving it in up front copied
    /// the `Option<Cell>` to the stack every slot.
    fn slot<K: SlotSink>(
        &mut self,
        locals: &mut Locals<Self::Regs>,
        arrival: &mut Option<Cell>,
        request: Option<LogicalQueueId>,
        out: &mut K,
    );

    /// [`PacketBuffer::step`]: the slot body once, then the requestable set
    /// it leaves behind as the outcome's request word.
    #[inline]
    fn run_slot(
        &mut self,
        mut arrival: Option<Cell>,
        request: Option<LogicalQueueId>,
    ) -> SlotOutcome {
        let mut locals = self.load();
        let mut outcome = SlotOutcome::default();
        self.slot(&mut locals, &mut arrival, request, &mut outcome);
        locals.now += 1;
        locals.delta.slots += 1;
        self.store(&locals);
        outcome.requestable = self.requestable().low_word();
        outcome
    }

    /// [`PacketBuffer::step_batch`]: the slot body over a whole chunk, with
    /// the requestable ledger itself as the oracle.
    #[inline]
    fn run_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        let skippable = requests.idle_skippable();
        let mut report = BatchReport::default();
        let mut locals = self.load();
        for arrival in arrivals.iter_mut() {
            // The closed-loop request probe comes first, exactly as in the
            // per-slot engine (the oracle observes the availability as of
            // the end of the previous slot); it is the availability ledger
            // itself, so the generator's scan is a pass over its bitmask.
            // When nothing is requestable anywhere, a skippable generator's
            // call is provably fruitless and side-effect-free — skip it on
            // the O(1) total instead.
            let request = if skippable && self.requestable().total() == 0 {
                None
            } else {
                requests.next_request(locals.now, self.requestable())
            };
            report.note(request.is_some());
            self.slot(&mut locals, arrival, request, grants);
            locals.now += 1;
        }
        locals.delta.slots += arrivals.len() as u64;
        self.store(&locals);
        report
    }
}

/// A block in flight from the DRAM to the head SRAM.
#[derive(Debug)]
pub(crate) struct PendingDelivery {
    pub(crate) deliver_slot: u64,
    pub(crate) queue: LogicalQueueId,
    pub(crate) block_index: u64,
    pub(crate) block: SlabBlock,
}

/// The SRAM front end: tail SRAM and tail MMA, the slab of blocks in flight
/// to and from the DRAM, ECQF head MMA with its lookahead, the delay line a
/// request crosses after it, head SRAM, the blocks due to reach it, and the
/// requestable ledger.
#[derive(Debug)]
pub struct Front {
    pub(crate) slot: u64,
    /// Slots until the next granularity period (avoids a division per slot;
    /// hits zero exactly when `slot % b == 0`).
    until_period: u64,
    /// The granularity `b` (`B` for RADS).
    period: u64,
    // Tail side: an intrusive cell arena with per-queue FIFO chains and an
    // incrementally maintained occupancy array (see [`crate::hotpath`]).
    tail: TailCellArena,
    tail_mma: ThresholdTailMma,
    /// Every block between the tail SRAM and the head SRAM.
    pub(crate) slab: BlockSlab,
    // Head side: the ECQF head MMA and the global-CAM head SRAM.
    pub(crate) head_mma: HeadMmaSubsystem,
    /// The stage between the lookahead and the head-SRAM read: a request
    /// that leaves the lookahead is served this many slots later, once the
    /// block its replenishment read is certain to have arrived.
    latency: LatencyRegister,
    pub(crate) head_sram: GlobalCamBuffer,
    pub(crate) pending_deliveries: VecDeque<PendingDelivery>,
    /// Cells written to DRAM minus requests accepted, per logical queue.
    pub(crate) available: RequestLedger,
    verifier: DeliveryVerifier,
    pub(crate) stats: BufferStats,
}

impl Front {
    /// A front end for `num_queues` queues at granularity `b`, whose
    /// requests wait `lookahead` slots in the ECQF lookahead and then
    /// `delay` slots for their block.
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub(crate) fn new(num_queues: usize, b: usize, lookahead: usize, delay: usize) -> Self {
        // The functional head SRAM is not capacity-limited: dimensioning is
        // checked by comparing the measured peak occupancy against the
        // analytical bound, so that a sizing or policy bug surfaces as a
        // measurement, not as an artificial overflow (the ablation DSA
        // policies deliberately exceed the bound).
        let head_capacity = usize::MAX / 4;
        let tail_capacity = 2 * ThresholdTailMma::required_sram_cells(num_queues, b);
        Front {
            slot: 0,
            until_period: 0,
            period: b as u64,
            tail: TailCellArena::new(num_queues, tail_capacity, b),
            tail_mma: ThresholdTailMma::new(b),
            slab: BlockSlab::new(b),
            head_mma: HeadMmaSubsystem::with_policy(EcqfMma::new(b), lookahead, num_queues),
            latency: LatencyRegister::new(delay),
            head_sram: GlobalCamBuffer::with_block_size(num_queues, head_capacity, b),
            pending_deliveries: VecDeque::new(),
            available: RequestLedger::new(num_queues),
            verifier: DeliveryVerifier::new(num_queues),
            stats: BufferStats::default(),
        }
    }

    // The slot-path helpers below and the back ends' period ops are
    // `#[inline(always)]`: shared by every design's `step` and `step_batch`,
    // with plain `#[inline]` LLVM stopped inlining them into the fused loops
    // as it did each per-design copy, which cost `buf_worstcase` 2.5–4 %
    // (paired runs).

    /// The queue the tail MMA writes back this period, if any. The arena
    /// tracks threshold crossings, so the scan is skipped whenever no queue
    /// holds a full batch.
    #[inline(always)]
    pub(crate) fn writeback_candidate(&self) -> Option<LogicalQueueId> {
        if !self.tail.any_eligible() {
            return None;
        }
        self.tail_mma
            .select_masked(self.tail.occupancies(), self.tail.eligible_words())
    }

    /// Moves the oldest block of `queue` out of the tail SRAM into a slab
    /// block on its way to DRAM; its cells become requestable.
    #[inline(always)]
    pub(crate) fn take_writeback(&mut self, queue: LogicalQueueId) -> SlabBlock {
        let block = self.slab.alloc();
        self.tail.pop_into(queue, self.slab.cells_mut(block));
        self.available.credit(queue, self.period);
        block
    }

    /// The replenishment the head MMA selected found nothing in DRAM (its
    /// cells are still on the tail path): roll the credit back.
    #[inline]
    pub(crate) fn unfulfilled(&mut self, queue: LogicalQueueId) {
        self.head_mma.preload(queue, -(self.period as i64));
        self.stats.unfulfilled_replenishments += 1;
    }

    #[inline(always)]
    fn deliver_due(&mut self, now: u64) {
        while self
            .pending_deliveries
            .front()
            .is_some_and(|front| front.deliver_slot <= now)
        {
            let Some(d) = self.pending_deliveries.pop_front() else {
                break;
            };
            #[expect(
                clippy::expect_used,
                reason = "the head SRAM is functionally unbounded: occupancy is measured, not capped"
            )]
            self.head_sram
                .insert_block(d.queue, d.block_index, self.slab.cells(d.block))
                .expect("head SRAM is functionally unbounded");
            self.slab.free(d.block);
            self.stats.peak_head_sram_cells = self
                .stats
                .peak_head_sram_cells
                .max(self.head_sram.occupancy() as u64);
        }
    }
}

/// What a DRAM back end behind the [`Front`] supplies.
pub trait BackEnd {
    /// The configuration the buffer is built from.
    type Config: std::fmt::Debug;
    /// The buffer's `Debug` name.
    const TYPE_NAME: &'static str;
    /// [`PacketBuffer::design_name`].
    const DESIGN: &'static str;

    /// The configuration the buffer was built from.
    fn config(&self) -> &Self::Config;

    /// The DRAM work of one granularity period, at its first slot `now`.
    fn period_ops(&mut self, front: &mut Front, now: u64);

    /// Whether the back end holds nothing in flight.
    fn is_quiescent(&self) -> bool {
        true
    }

    /// Fast-forwards quiescent slots crossing `periods` period boundaries.
    fn advance_idle(&mut self, _periods: u64) {}
}

/// A hybrid SRAM/DRAM packet buffer: the shared [`Front`] over back end `D`.
pub struct HybridBuffer<D> {
    pub(crate) front: Front,
    pub(crate) back: D,
}

impl<D: BackEnd> std::fmt::Debug for HybridBuffer<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(D::TYPE_NAME)
            .field("cfg", self.back.config())
            .field("slot", &self.front.slot)
            .field("stats", &self.front.stats)
            .finish()
    }
}

impl<D: BackEnd> HybridBuffer<D> {
    /// The configuration this buffer was built from.
    pub fn config(&self) -> &D::Config {
        self.back.config()
    }

    /// Peak head-SRAM occupancy observed so far (cells).
    pub fn peak_head_sram(&self) -> usize {
        self.front.head_sram.peak_occupancy()
    }
}

impl<D: BackEnd> SlotLoop for HybridBuffer<D> {
    /// The period countdown.
    type Regs = u64;

    #[inline]
    fn load(&self) -> Locals<u64> {
        Locals {
            now: self.front.slot,
            regs: self.front.until_period,
            delta: BufferStats::default(),
        }
    }

    #[inline]
    fn store(&mut self, locals: &Locals<u64>) {
        let front = &mut self.front;
        front.slot = locals.now;
        front.until_period = locals.regs;
        front.stats.absorb(&locals.delta);
    }

    #[inline]
    fn requestable(&self) -> &RequestLedger {
        &self.front.available
    }

    #[inline(always)]
    fn slot<K: SlotSink>(
        &mut self,
        locals: &mut Locals<u64>,
        arrival: &mut Option<Cell>,
        request: Option<LogicalQueueId>,
        out: &mut K,
    ) {
        let front = &mut self.front;
        let now = locals.now;
        let delta = &mut locals.delta;

        // 1. Blocks whose DRAM access completed reach the head SRAM.
        if !front.pending_deliveries.is_empty() {
            front.deliver_due(now);
        }

        // 2. One cell may arrive from the line into the tail SRAM.
        if let Some(cell) = arrival.take() {
            if !front.tail.is_full() {
                front.tail.push(cell);
                delta.peak_tail_sram_cells =
                    delta.peak_tail_sram_cells.max(front.tail.len() as u64);
                delta.arrivals += 1;
            } else {
                delta.drops += 1;
                front.verifier.note_drop(cell.queue());
                out.drop_arrival(cell);
            }
        }

        // 3. One request may arrive from the arbiter; it enters the
        //    lookahead, and the request that leaves it (if any) enters the
        //    delay line on its way to the head SRAM.
        let due = if let Some(queue) = request {
            delta.requests += 1;
            front.available.debit(queue);
            front.head_mma.on_request(Some(queue)).due
        } else {
            front.head_mma.on_request(None).due
        };
        let due = front.latency.push(due);

        // 4. Every b slots: the back end's DRAM work.
        if locals.regs == 0 {
            locals.regs = front.period;
            self.back.period_ops(front, now);
        }
        locals.regs -= 1;

        // 5. Serve the request that completed the whole delay pipeline.
        if let Some(queue) = due {
            match front.head_sram.pop_front(queue) {
                Some(cell) => {
                    if !front.verifier.check(queue, &cell) {
                        delta.order_violations += 1;
                    }
                    delta.grants += 1;
                    out.grant(queue, cell);
                }
                None => {
                    delta.misses += 1;
                    out.miss(queue);
                }
            }
        }
    }
}

impl<D: BackEnd> PacketBuffer for HybridBuffer<D> {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        self.run_slot(arrival, request)
    }

    fn current_slot(&self) -> u64 {
        self.front.slot
    }

    fn num_queues(&self) -> usize {
        self.front.available.num_queues()
    }

    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        self.front.available.get(queue)
    }

    fn pipeline_delay_slots(&self) -> usize {
        self.front.head_mma.lookahead().capacity() + self.front.latency.capacity()
    }

    fn stats(&self) -> &BufferStats {
        &self.front.stats
    }

    fn design_name(&self) -> &'static str {
        D::DESIGN
    }

    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        self.run_batch(arrivals, requests, grants)
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
        // Quiescent: every skipped slot only rotates the (all-idle)
        // lookahead, counts down the period and — at period boundaries —
        // finds nothing eligible to write back and nothing critical to
        // replenish (ECQF selects `None` with an empty pending set). All of
        // that is pure counter/cursor motion, applied here arithmetically;
        // the back end does the same for its own registers. The delay line
        // is idle too, and an idle line serves the same rotated or not.
        let front = &mut self.front;
        let periods = periods_crossed(front.until_period, slots, front.period);
        front.slot += slots;
        front.stats.slots += slots;
        front.head_mma.advance_idle(slots);
        front.until_period = countdown_after(front.until_period, slots, front.period);
        self.back.advance_idle(periods);
    }

    fn is_quiescent(&self) -> bool {
        self.front.pending_deliveries.is_empty()
            && !self.front.tail.any_eligible()
            && self.front.head_mma.lookahead().pending_len() == 0
            && self.front.latency.in_flight() == 0
            && self.back.is_quiescent()
    }

    fn requestable_total(&self) -> u64 {
        self.front.available.total()
    }
}

#[cfg(test)]
/// Exhaustive check of the hybrid buffers at toy geometry: every
/// oracle-respecting request stream of up to eight slots over two queues,
/// with one or two blocks of each queue preloaded in DRAM.
pub(crate) mod short_streams {
    use super::{BackEnd, HybridBuffer};
    use crate::PacketBuffer;
    use pktbuf_model::{Cell, LogicalQueueId};

    /// Runs every request stream of up to eight slots over queues 0 and 1
    /// through a fresh buffer from `new`, after `preload` has put one or two
    /// blocks of `block` cells of each queue in DRAM. Asserts that no request
    /// misses, every request is granted, and the peak head SRAM stays within
    /// `bound`. A failure names the configuration, the preload and the stream.
    pub(crate) fn assert_every_short_stream_is_served<D: BackEnd>(
        new: impl Fn() -> HybridBuffer<D>,
        preload: impl Fn(&mut HybridBuffer<D>, LogicalQueueId, Vec<Cell>),
        bound: impl Fn(&HybridBuffer<D>) -> usize,
        block: usize,
    ) {
        const SLOTS: u32 = 8;
        for blocks in [[1, 1], [1, 2], [2, 1], [2, 2]] {
            // Digit t of `code` in base 3 is slot t's request: 0 for none,
            // else queue digit − 1. Shorter streams end in idle slots.
            'streams: for code in 0..3u32.pow(SLOTS) {
                let stream: Vec<Option<LogicalQueueId>> = (0..SLOTS)
                    .map(|t| {
                        (code / 3u32.pow(t) % 3)
                            .checked_sub(1)
                            .map(LogicalQueueId::new)
                    })
                    .collect();
                let mut buf = new();
                let context = format!("{:?}, blocks {blocks:?}, stream {stream:?}", buf.config());
                for (i, &n) in blocks.iter().enumerate() {
                    let queue = LogicalQueueId::new(i as u32);
                    let cells = (0..n * block as u64).map(|s| Cell::new(queue, s, 0));
                    preload(&mut buf, queue, cells.collect());
                }
                let horizon = stream.len() + buf.pipeline_delay_slots() + 2 * block;
                for t in 0..horizon {
                    let request = stream.get(t).copied().flatten();
                    if request.is_some_and(|queue| buf.requestable_cells(queue) == 0) {
                        continue 'streams;
                    }
                    let out = buf.step(None, request);
                    assert!(out.miss.is_none(), "{context}: miss at slot {t}");
                }
                let stats = buf.stats();
                assert!(
                    stats.is_loss_free() && stats.grants == stats.requests,
                    "{context}: {stats:?}"
                );
                assert!(
                    buf.peak_head_sram() <= bound(&buf),
                    "{context}: peak head SRAM {} vs analytical {}",
                    buf.peak_head_sram(),
                    bound(&buf)
                );
            }
        }
    }
}
