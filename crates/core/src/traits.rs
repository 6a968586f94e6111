//! The common interface of all packet-buffer memory systems.

use crate::stats::BufferStats;
use pktbuf_model::{Cell, LogicalQueueId, RequestSource};

/// What happened during one slot of buffer operation, and what the arbiter
/// may request from the next slot on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlotOutcome {
    /// Cell granted to the arbiter this slot, if any.
    pub granted: Option<Cell>,
    /// A request became due this slot but its cell was not in the head SRAM —
    /// the *miss* that worst-case designs must make impossible.
    pub miss: Option<LogicalQueueId>,
    /// An arriving cell was dropped because the tail SRAM was full.
    pub dropped_arrival: Option<Cell>,
    /// The requestable set at the end of the slot, as the arbiter's request
    /// bit-vector: bit `q` is set iff queue `q < 64` has
    /// [`PacketBuffer::requestable_cells`] `> 0`. Queues from 64 up are not
    /// reported; a crossbar input holds at most 64 VOQs, so for it this is
    /// the whole set and the switch arbitrates on it without probing.
    pub requestable: u64,
}

// `step` returns one outcome per buffer per slot, 192 of them a slot in the
// r = m = N = 8 Clos: two 32-byte `Option<Cell>`s, the miss and the
// requestable word. The word's 8 bytes replace the 8–16 per-queue
// `requestable_cells` probes a switch made per buffer-step to rebuild it.
const _: () = assert!(
    std::mem::size_of::<SlotOutcome>() <= 80,
    "SlotOutcome must stay within 80 bytes (it was 104 with a 40-byte Cell and no requestable word)"
);

/// Collects the grants of a batch of slots (the queue index of every granted
/// cell, in grant order) for [`PacketBuffer::step_batch`].
///
/// Recording is optional: a disabled sink makes `push` a no-op so the fused
/// batch loops pay a single predictable branch per grant.
#[derive(Debug, Default)]
pub struct GrantSink {
    log: Option<Vec<u32>>,
}

impl GrantSink {
    /// Creates a sink; `record` enables grant logging.
    pub fn new(record: bool) -> Self {
        GrantSink {
            log: record.then(Vec::new),
        }
    }

    /// Records one granted cell's queue index (no-op when not recording).
    #[inline]
    pub fn push(&mut self, queue_index: u32) {
        if let Some(log) = &mut self.log {
            log.push(queue_index);
        }
    }

    /// Number of grants recorded so far (0 when not recording).
    pub fn recorded(&self) -> usize {
        self.log.as_ref().map_or(0, Vec::len)
    }

    /// Whether this sink records grants.
    pub fn is_recording(&self) -> bool {
        self.log.is_some()
    }

    /// Consumes the sink, returning the recorded log (`None` when recording
    /// was disabled).
    pub fn into_log(self) -> Option<Vec<u32>> {
        self.log
    }
}

/// What a batch of slots observed, as far as the *request* stream is
/// concerned. The chunked engine uses this to reproduce the per-slot drain
/// termination rule ("stop after `flush + 1` consecutive request-less slots")
/// without observing each slot individually.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Slots in the batch whose request source produced a request.
    pub requests: u64,
    /// Consecutive request-less slots at the *end* of the batch (equals the
    /// batch length when `requests == 0`).
    pub trailing_requestless: u64,
}

impl BatchReport {
    /// Accounts one slot's request outcome.
    #[inline]
    pub fn note(&mut self, requested: bool) {
        if requested {
            self.requests += 1;
            self.trailing_requestless = 0;
        } else {
            self.trailing_requestless += 1;
        }
    }
}

/// A slot-synchronous packet-buffer memory system.
///
/// One call to [`PacketBuffer::step`] advances the buffer by one time slot: at
/// most one cell arrives from the transmission line and at most one cell
/// request arrives from the switch-fabric arbiter, and at most one cell is
/// granted back to the arbiter.
///
/// The request stream is subject to one rule inherited from the paper's
/// system model: the arbiter only requests cells that are actually in the
/// buffer's head path (i.e. have been written to DRAM or preloaded).
/// [`PacketBuffer::requestable_cells`] reports how many further requests a
/// queue can absorb; well-behaved workloads consult it.
pub trait PacketBuffer {
    /// Advances the buffer by one slot. The outcome also carries the
    /// requestable set as of the slot's end
    /// ([`SlotOutcome::requestable`]): exactly what
    /// [`PacketBuffer::requestable_cells`] reports for queues below 64 until
    /// the next `step`, so a caller that sees every `step` may keep that
    /// word instead of probing.
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome;

    /// The current slot (number of `step` calls performed).
    fn current_slot(&self) -> u64;

    /// Number of logical queues.
    fn num_queues(&self) -> usize;

    /// Number of cells of `queue` that the arbiter may still request
    /// (cells committed to the head path minus requests already accepted).
    fn requestable_cells(&self, queue: LogicalQueueId) -> u64;

    /// Fixed pipeline delay of the head path in slots (lookahead plus the
    /// delay line behind it: `B` slots for RADS, the latency register for
    /// CFDS). After the last request is injected, this many further slots
    /// are needed to drain all grants.
    fn pipeline_delay_slots(&self) -> usize;

    /// Aggregate statistics.
    fn stats(&self) -> &BufferStats;

    /// Human-readable name of the design ("RADS", "CFDS", …).
    fn design_name(&self) -> &'static str;

    /// Advances the buffer by a whole batch of slots in one call, with
    /// **observable behaviour identical** to one [`PacketBuffer::step`] per
    /// slot — which `pktbuf`'s `slot_paths` and `sim`'s
    /// `chunked_equivalence` suites pin down, `slot_paths` being the
    /// per-slot reference.
    ///
    /// Entry `i` of `arrivals` is the arrival of the `i`-th slot (taken out of
    /// the slice, so the caller's ring can be refilled); `requests` is probed
    /// once per slot exactly as the per-slot engine would; every granted
    /// cell's queue is pushed into `grants`.
    ///
    /// Every design in this crate forwards to one fused loop, written once
    /// over the design's own slot body (the same body its `step` runs). It
    /// keeps the clock and the slot-grained counters in locals for the batch
    /// instead of handing a [`SlotOutcome`] back per slot, hands the request
    /// source the design's [`pktbuf_model::RequestLedger`] as its oracle (a
    /// shift and a `trailing_zeros` over a bitmask, where a closure over
    /// [`PacketBuffer::requestable_cells`] probes up to Q queues), and skips
    /// a skippable source outright when nothing is requestable.
    ///
    /// The fused loop is load-bearing; do not re-propose deleting it or
    /// putting a per-slot loop over `step` back as a trait default. Falling
    /// back to this default cost 3.6× on `buf_bursty_idle` (PR 18), still
    /// +18.6 % with the skip-scan shortcut hoisted in, and the mask scan is
    /// worth −32 % on `buf_worstcase` (PR 23), which CI gates through
    /// `sim.per_slot_engine_ratio` — README "Performance" has the paired
    /// tables. The method is required so that a wrapper or a new design
    /// that forgets it fails to compile instead of silently running that
    /// loop.
    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport
    where
        Self: Sized;

    /// Advances the buffer by `slots` slots in which neither an arrival nor a
    /// request occurs: exactly equivalent to `slots` calls of
    /// [`PacketBuffer::step`]`(None, None)`.
    ///
    /// Designs take an O(1) arithmetic fast-forward when the buffer
    /// [`PacketBuffer::is_quiescent`] — the chunked engine uses this to
    /// collapse drain tails and idle stretches.
    fn advance_idle(&mut self, slots: u64);

    /// Whether an idle slot (`step(None, None)`) provably changes nothing
    /// except the slot counters: no block in flight to the head SRAM, no
    /// writeback-eligible tail batch, no request pending anywhere in the
    /// head pipeline, no DRAM access outstanding. In this state the set of
    /// requestable cells is frozen, so a contract-abiding request generator
    /// returns `None` forever until the next arrival.
    ///
    /// `false` is always a safe answer.
    fn is_quiescent(&self) -> bool;

    /// Total requestable cells over all queues
    /// (Σ [`PacketBuffer::requestable_cells`]).
    fn requestable_total(&self) -> u64;
}
