//! Outside-in instrumentation: wrappers the harness owns, around the
//! program's public traits.
//!
//! `VoqSwitch<B>`, `ClosFabric<B>` and `SimulationEngine<B>` are generic over
//! [`PacketBuffer`] and [`ArrivalGenerator`], so a wrapper that implements
//! the trait by delegation rides through them unchanged and sees every call
//! the layer above makes into the layer below — no span lives inside the
//! program. A workload is written once against [`Instrument`]; the
//! end-to-end run instantiates it with [`Timed`] (the program's own types
//! behind a pass-through that stamps the clock every 60–90 µs),
//! the traced run with [`Tracing`], and the probes and transparency tests
//! with [`Bare`] (nothing added).

use crate::host::now_ns;
use pktbuf::{BatchReport, BufferStats, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use pktbuf_model::{Cell, LogicalQueueId};
use std::sync::{Arc, Mutex};
use traffic::ArrivalGenerator;

/// How a workload's object graph is instrumented.
pub trait Instrument {
    /// The buffer type handed to the layer above for a bare `B`.
    type Buf<B: PacketBuffer + Send>: PacketBuffer + Send;
    /// The arrival-generator type handed to the layer above for a bare `A`.
    type Arr<A: ArrivalGenerator + Send>: ArrivalGenerator + Send;
    /// Wraps (or passes through) one buffer.
    fn buffer<B: PacketBuffer + Send>(&self, buffer: B) -> Self::Buf<B>;
    /// Wraps (or passes through) a buffer that advances once per simulated
    /// slot of its run call from the first slot to the last: the one whose
    /// slot count can serve as that call's clock.
    fn lead_buffer<B: PacketBuffer + Send>(&self, buffer: B) -> Self::Buf<B> {
        self.buffer(buffer)
    }
    /// Wraps (or passes through) one arrival generator.
    fn arrivals<A: ArrivalGenerator + Send>(&self, arrivals: A) -> Self::Arr<A>;
}

/// No instrumentation: the types the program ships.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bare;

impl Instrument for Bare {
    type Buf<B: PacketBuffer + Send> = B;
    type Arr<A: ArrivalGenerator + Send> = A;
    fn buffer<B: PacketBuffer + Send>(&self, buffer: B) -> B {
        buffer
    }
    fn arrivals<A: ArrivalGenerator + Send>(&self, arrivals: A) -> A {
        arrivals
    }
}

/// The end-to-end instrumentation: the program's own types, plus a slot
/// clock on each lead buffer that reads the host clock once every
/// `mark_every` simulated slots.
#[derive(Debug, Clone)]
pub struct Timed {
    mark_every: u64,
    stamps: Arc<Mutex<Vec<u64>>>,
}

impl Timed {
    /// An instrument whose lead buffers stamp every `mark_every` slots.
    pub fn new(mark_every: u64) -> Self {
        Timed {
            mark_every: mark_every.max(1),
            stamps: Arc::default(),
        }
    }

    /// Takes the stamps flushed so far (ns since the process epoch,
    /// ascending within one buffer). Call after the graph is dropped.
    pub fn take(&self) -> Vec<u64> {
        let mut stamps = std::mem::take(&mut *self.stamps.lock().expect("no marker panicked"));
        stamps.sort_unstable();
        stamps
    }
}

impl Instrument for Timed {
    type Buf<B: PacketBuffer + Send> = Marker<B>;
    type Arr<A: ArrivalGenerator + Send> = A;
    fn buffer<B: PacketBuffer + Send>(&self, buffer: B) -> Marker<B> {
        Marker {
            inner: buffer,
            clock: None,
        }
    }
    fn lead_buffer<B: PacketBuffer + Send>(&self, buffer: B) -> Marker<B> {
        Marker {
            inner: buffer,
            clock: Some(Box::new(SlotClock {
                slots: 0,
                next_mark: self.mark_every,
                every: self.mark_every,
                stamps: Vec::new(),
                sink: Arc::clone(&self.stamps),
            })),
        }
    }
    fn arrivals<A: ArrivalGenerator + Send>(&self, arrivals: A) -> A {
        arrivals
    }
}

#[derive(Debug)]
struct SlotClock {
    slots: u64,
    next_mark: u64,
    every: u64,
    stamps: Vec<u64>,
    sink: Arc<Mutex<Vec<u64>>>,
}

impl SlotClock {
    #[inline]
    fn advance(&mut self, slots: u64) {
        self.slots += slots;
        if self.slots >= self.next_mark {
            self.stamps.push(now_ns());
            self.next_mark = (self.slots / self.every + 1) * self.every;
        }
    }
}

/// A [`PacketBuffer`] that delegates every method to `B`; a lead buffer
/// also counts the slots it advances and stamps the host clock at every
/// `mark_every`-th.
#[derive(Debug)]
pub struct Marker<B: PacketBuffer> {
    inner: B,
    clock: Option<Box<SlotClock>>,
}

impl<B: PacketBuffer> PacketBuffer for Marker<B> {
    #[inline]
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        let outcome = self.inner.step(arrival, request);
        if let Some(clock) = &mut self.clock {
            clock.advance(1);
        }
        outcome
    }
    #[inline]
    fn current_slot(&self) -> u64 {
        self.inner.current_slot()
    }
    #[inline]
    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }
    #[inline]
    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        self.inner.requestable_cells(queue)
    }
    fn pipeline_delay_slots(&self) -> usize {
        self.inner.pipeline_delay_slots()
    }
    fn stats(&self) -> &BufferStats {
        self.inner.stats()
    }
    fn design_name(&self) -> &'static str {
        self.inner.design_name()
    }
    #[inline]
    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        let slots = arrivals.len() as u64;
        let report = self.inner.step_batch(arrivals, requests, grants);
        if let Some(clock) = &mut self.clock {
            clock.advance(slots);
        }
        report
    }
    #[inline]
    fn advance_idle(&mut self, slots: u64) {
        self.inner.advance_idle(slots);
        if let Some(clock) = &mut self.clock {
            clock.advance(slots);
        }
    }
    #[inline]
    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
    #[inline]
    fn requestable_total(&self) -> u64 {
        self.inner.requestable_total()
    }
}

impl<B: PacketBuffer> Drop for Marker<B> {
    fn drop(&mut self) {
        if let Some(clock) = &mut self.clock {
            // A poisoned lock means another marker panicked; `Drop` must not.
            if let Ok(mut sink) = clock.sink.lock() {
                sink.append(&mut clock.stamps);
            }
        }
    }
}

/// Single calls (`step`, the idle probes) are timed one in this many *on
/// average*, at pseudo-random gaps: the buffers do periodic work (a DSS
/// issue every `b` slots, an MMA decision every `B`), and a fixed stride of
/// 64 lands every sample on the slot where all of it coincides — measured:
/// 739 ns per CFDS step sampled at stride 64 inside a switch whose whole
/// slot costs 360 ns per buffer.
pub const SAMPLE_EVERY: u32 = 64;

/// Batch-level calls are always timed; the first this many per wrapper also
/// become real spans in the trace file, so the chunk structure is visible
/// without writing one event per chunk of a 40 M-slot run.
const CHUNK_SPANS_PER_WRAPPER: usize = 128;

/// Calls and busy time of one function of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Host ns inside them: exact for batch-level calls, scaled up from the
    /// sampled ones for single calls.
    pub busy_ns: f64,
}

impl CallStat {
    fn merge(&mut self, other: CallStat) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
    }
}

/// What the buffer wrappers of one design saw, summed over its instances.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BufferTotals {
    /// `step` calls (one slot each).
    pub step: CallStat,
    /// `step_batch` calls.
    pub step_batch: CallStat,
    /// Slots advanced inside `step_batch` calls.
    pub batch_slots: u64,
    /// `advance_idle` calls.
    pub advance_idle: CallStat,
    /// Slots skipped by `advance_idle` calls.
    pub idle_slots: u64,
    /// `requestable_cells` calls (the eligibility oracle). Counted, never
    /// timed: the call is a 1–2 ns array read, far below what a 25 ns timer
    /// pair resolves, so its time stays in the caller's self time and the
    /// isolated `pktbuf.requestable_cells_ns` kernel prices it.
    pub requestable_calls: u64,
    /// `requestable_cells` calls that answered "at least one cell": over
    /// `requestable_calls`, the eligibility density the arbiter sees.
    pub requestable_nonzero: u64,
    /// `is_quiescent` + `requestable_total` calls (the idle probes).
    pub probes: CallStat,
}

impl BufferTotals {
    /// Slots this design's buffers advanced, by any of the three routes.
    pub fn slots(&self) -> u64 {
        self.step.calls + self.batch_slots + self.idle_slots
    }

    /// Host ns spent inside the buffers' timed calls.
    pub fn busy_ns(&self) -> f64 {
        self.step.busy_ns
            + self.step_batch.busy_ns
            + self.advance_idle.busy_ns
            + self.probes.busy_ns
    }

    fn merge(&mut self, other: &BufferTotals) {
        self.step.merge(other.step);
        self.step_batch.merge(other.step_batch);
        self.batch_slots += other.batch_slots;
        self.advance_idle.merge(other.advance_idle);
        self.idle_slots += other.idle_slots;
        self.requestable_calls += other.requestable_calls;
        self.requestable_nonzero += other.requestable_nonzero;
        self.probes.merge(other.probes);
    }
}

/// A real (not aggregated) span of one batch-level call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// `layer.function` name.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

/// What one arrival-generator wrapper saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FillTotals {
    /// `fill_arrivals` + `next` calls and the host ns inside them.
    pub fill: CallStat,
    /// Port-slots the generator was asked to fill.
    pub port_slots: u64,
}

/// Everything the wrappers of one repetition reported when they were
/// dropped. Both lists are in *creation* order, so a workload that runs
/// its designs one after the other (the buffer workloads: RADS, then CFDS)
/// can pair entry `i` with its `i`-th run call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collected {
    /// Per design name ("RADS", "CFDS"): the buffer wrappers' totals.
    pub buffers: Vec<(&'static str, BufferTotals)>,
    /// Per arrival-generator wrapper: its totals.
    pub fills: Vec<FillTotals>,
    /// The first batch-level calls of each wrapper, as real spans.
    pub chunk_spans: Vec<ChunkSpan>,
    /// Wrappers created so far (seeds their samplers).
    wrappers: u32,
}

impl Collected {
    /// Totals over every arrival generator.
    pub fn all_fills(&self) -> FillTotals {
        let mut sum = FillTotals::default();
        for f in &self.fills {
            sum.fill.merge(f.fill);
            sum.port_slots += f.port_slots;
        }
        sum
    }

    /// Totals over every design.
    pub fn all_buffers(&self) -> BufferTotals {
        self.sum_buffers(|_| true)
    }

    /// Totals of one design (zero when the workload has no such buffer).
    pub fn design(&self, design: &str) -> BufferTotals {
        self.sum_buffers(|name| name == design)
    }

    fn sum_buffers(&self, keep: impl Fn(&str) -> bool) -> BufferTotals {
        let mut sum = BufferTotals::default();
        for (_, totals) in self.buffers.iter().filter(|(name, _)| keep(name)) {
            sum.merge(totals);
        }
        sum
    }
}

/// The traced instrumentation: wrappers count into plain fields and flush
/// into this shared collector when the object graph is dropped, so the hot
/// path pays no atomic and the collector needs no access to buffers that a
/// switch or fabric owns privately.
#[derive(Debug, Clone)]
pub struct Tracing {
    collected: Arc<Mutex<Collected>>,
    timer_overhead_ns: f64,
}

impl Tracing {
    /// A collector whose sampled timings subtract `timer_overhead_ns`.
    pub fn new(timer_overhead_ns: f64) -> Self {
        Tracing {
            collected: Arc::default(),
            timer_overhead_ns,
        }
    }

    /// Takes what has been flushed so far. Call after the instrumented
    /// objects are dropped.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.collected
            .lock()
            .expect("no wrapper panicked mid-flush")
    }
}

impl Instrument for Tracing {
    type Buf<B: PacketBuffer + Send> = Traced<B>;
    type Arr<A: ArrivalGenerator + Send> = TracedArrivals<A>;

    fn buffer<B: PacketBuffer + Send>(&self, buffer: B) -> Traced<B> {
        let design = buffer.design_name();
        let wrappers = {
            let mut collected = self.lock();
            if !collected.buffers.iter().any(|(name, _)| *name == design) {
                collected.buffers.push((design, BufferTotals::default()));
            }
            collected.wrappers += 1;
            collected.wrappers
        };
        Traced {
            inner: buffer,
            sink: self.clone(),
            local: BufferTotals::default(),
            step_sampler: Sampler::new(wrappers),
            requestable_calls: std::cell::Cell::new(0),
            requestable_nonzero: std::cell::Cell::new(0),
            probe_sampler: std::cell::Cell::new(Sampler::new(!wrappers)),
            probe_calls: std::cell::Cell::new(0),
            chunk_spans: Vec::new(),
        }
    }

    fn arrivals<A: ArrivalGenerator + Send>(&self, arrivals: A) -> TracedArrivals<A> {
        let (index, wrappers) = {
            let mut collected = self.lock();
            collected.fills.push(FillTotals::default());
            collected.wrappers += 1;
            (collected.fills.len() - 1, collected.wrappers)
        };
        TracedArrivals {
            inner: arrivals,
            sink: self.clone(),
            index,
            fill: CallStat::default(),
            next_calls: 0,
            next_sampler: Sampler::new(wrappers),
            port_slots: 0,
            chunk_spans: Vec::new(),
        }
    }
}

/// Decides which single calls get timed, and keeps their times.
#[derive(Debug, Clone, Copy)]
struct Sampler {
    until_next: u32,
    rng: u32,
    samples: u64,
    ns: f64,
}

impl Sampler {
    /// A sampler whose gap sequence depends on `seed`, so that wrappers
    /// stepped in lock-step do not all sample the same slot.
    fn new(seed: u32) -> Self {
        let mut sampler = Sampler {
            until_next: 0,
            rng: seed.wrapping_mul(0x9e37_79b9) | 1,
            samples: 0,
            ns: 0.0,
        };
        sampler.until_next = sampler.next_gap();
        sampler
    }

    /// Uniform on `1 ..= 2·SAMPLE_EVERY − 1`: mean `SAMPLE_EVERY`.
    fn next_gap(&mut self) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        1 + self.rng % (2 * SAMPLE_EVERY - 1)
    }

    /// Whether the call about to be made is one to time.
    #[inline]
    fn due(&mut self) -> bool {
        self.until_next -= 1;
        if self.until_next == 0 {
            self.until_next = self.next_gap();
            true
        } else {
            false
        }
    }

    fn record(&mut self, ns: f64) {
        self.samples += 1;
        self.ns += ns.max(0.0);
    }

    /// Busy time of `calls` calls, scaled from the sampled mean.
    fn scaled(&self, calls: u64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.ns / self.samples as f64 * calls as f64
        }
    }
}

/// A [`PacketBuffer`] that delegates every method to `B` and keeps count.
pub struct Traced<B: PacketBuffer> {
    inner: B,
    sink: Tracing,
    local: BufferTotals,
    step_sampler: Sampler,
    // The oracle and the probes take `&self`; `Cell` keeps the wrapper
    // `Send`, which is all `ClosFabric::run` asks of a buffer.
    requestable_calls: std::cell::Cell<u64>,
    requestable_nonzero: std::cell::Cell<u64>,
    probe_sampler: std::cell::Cell<Sampler>,
    probe_calls: std::cell::Cell<u64>,
    chunk_spans: Vec<ChunkSpan>,
}

impl<B: PacketBuffer> std::fmt::Debug for Traced<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Traced")
            .field("design", &self.inner.design_name())
            .field("slots", &self.local.slots())
            .finish()
    }
}

impl<B: PacketBuffer> Traced<B> {
    fn probe<T>(&self, call: impl FnOnce(&B) -> T) -> T {
        self.probe_calls.set(self.probe_calls.get() + 1);
        let mut sampler = self.probe_sampler.get();
        let due = sampler.due();
        let out = if due {
            let start = now_ns();
            let out = call(&self.inner);
            sampler.record((now_ns() - start) as f64 - self.sink.timer_overhead_ns);
            out
        } else {
            call(&self.inner)
        };
        self.probe_sampler.set(sampler);
        out
    }

    fn batch_level<T>(&mut self, name: &'static str, call: impl FnOnce(&mut B) -> T) -> (T, f64) {
        let start_ns = now_ns();
        let out = call(&mut self.inner);
        let end_ns = now_ns();
        if self.chunk_spans.len() < CHUNK_SPANS_PER_WRAPPER {
            self.chunk_spans.push(ChunkSpan {
                name,
                start_ns,
                end_ns,
            });
        }
        (out, (end_ns - start_ns) as f64)
    }
}

impl<B: PacketBuffer> PacketBuffer for Traced<B> {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        self.local.step.calls += 1;
        if !self.step_sampler.due() {
            return self.inner.step(arrival, request);
        }
        let start = now_ns();
        let outcome = self.inner.step(arrival, request);
        self.step_sampler
            .record((now_ns() - start) as f64 - self.sink.timer_overhead_ns);
        outcome
    }

    fn current_slot(&self) -> u64 {
        self.inner.current_slot()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        let cells = self.inner.requestable_cells(queue);
        self.requestable_calls.set(self.requestable_calls.get() + 1);
        self.requestable_nonzero
            .set(self.requestable_nonzero.get() + u64::from(cells > 0));
        cells
    }

    fn pipeline_delay_slots(&self) -> usize {
        self.inner.pipeline_delay_slots()
    }

    fn stats(&self) -> &BufferStats {
        self.inner.stats()
    }

    fn design_name(&self) -> &'static str {
        self.inner.design_name()
    }

    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        let slots = arrivals.len() as u64;
        let (report, ns) = self.batch_level("pktbuf.step_batch", |b| {
            b.step_batch(arrivals, requests, grants)
        });
        self.local.step_batch.calls += 1;
        self.local.step_batch.busy_ns += ns;
        self.local.batch_slots += slots;
        report
    }

    fn advance_idle(&mut self, slots: u64) {
        let ((), ns) = self.batch_level("pktbuf.advance_idle", |b| b.advance_idle(slots));
        self.local.advance_idle.calls += 1;
        self.local.advance_idle.busy_ns += ns;
        self.local.idle_slots += slots;
    }

    fn is_quiescent(&self) -> bool {
        self.probe(B::is_quiescent)
    }

    fn requestable_total(&self) -> u64 {
        self.probe(B::requestable_total)
    }
}

impl<B: PacketBuffer> Drop for Traced<B> {
    fn drop(&mut self) {
        let mut totals = self.local;
        totals.step.busy_ns = self.step_sampler.scaled(totals.step.calls);
        totals.requestable_calls = self.requestable_calls.get();
        totals.requestable_nonzero = self.requestable_nonzero.get();
        totals.probes = CallStat {
            calls: self.probe_calls.get(),
            busy_ns: self.probe_sampler.get().scaled(self.probe_calls.get()),
        };
        // A poisoned lock means another wrapper panicked; `Drop` must not.
        let Ok(mut collected) = self.sink.collected.lock() else {
            return;
        };
        let design = self.inner.design_name();
        // The entry exists since `Tracing::buffer`, unless `take` ran while
        // this wrapper was still alive.
        match collected
            .buffers
            .iter_mut()
            .find(|(name, _)| *name == design)
        {
            Some((_, sum)) => sum.merge(&totals),
            None => collected.buffers.push((design, totals)),
        }
        collected.chunk_spans.append(&mut self.chunk_spans);
    }
}

/// An [`ArrivalGenerator`] that delegates every method to `A` and keeps
/// count.
pub struct TracedArrivals<A: ArrivalGenerator> {
    inner: A,
    sink: Tracing,
    index: usize,
    fill: CallStat,
    next_calls: u64,
    next_sampler: Sampler,
    port_slots: u64,
    chunk_spans: Vec<ChunkSpan>,
}

impl<A: ArrivalGenerator> std::fmt::Debug for TracedArrivals<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedArrivals")
            .field("generator", &self.inner.name())
            .field("port_slots", &self.port_slots)
            .finish()
    }
}

impl<A: ArrivalGenerator> ArrivalGenerator for TracedArrivals<A> {
    fn next(&mut self, slot: u64) -> Option<Cell> {
        self.next_calls += 1;
        self.port_slots += 1;
        if !self.next_sampler.due() {
            return self.inner.next(slot);
        }
        let start = now_ns();
        let cell = self.inner.next(slot);
        self.next_sampler
            .record((now_ns() - start) as f64 - self.sink.timer_overhead_ns);
        cell
    }

    fn fill_arrivals(&mut self, base_slot: u64, out: &mut [Option<Cell>]) -> usize {
        let start_ns = now_ns();
        let produced = self.inner.fill_arrivals(base_slot, out);
        let end_ns = now_ns();
        if self.chunk_spans.len() < CHUNK_SPANS_PER_WRAPPER {
            self.chunk_spans.push(ChunkSpan {
                name: "traffic.fill_arrivals",
                start_ns,
                end_ns,
            });
        }
        self.fill.calls += 1;
        self.fill.busy_ns += (end_ns - start_ns) as f64;
        self.port_slots += out.len() as u64;
        produced
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<A: ArrivalGenerator> Drop for TracedArrivals<A> {
    fn drop(&mut self) {
        let Ok(mut collected) = self.sink.collected.lock() else {
            return;
        };
        let totals = FillTotals {
            fill: CallStat {
                calls: self.fill.calls + self.next_calls,
                busy_ns: self.fill.busy_ns + self.next_sampler.scaled(self.next_calls),
            },
            port_slots: self.port_slots,
        };
        match collected.fills.get_mut(self.index) {
            Some(slot) => *slot = totals,
            None => collected.fills.push(totals),
        }
        collected.chunk_spans.append(&mut self.chunk_spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_gaps_average_the_stride_and_do_not_alias() {
        let mut sampler = Sampler::new(7);
        let calls = 1_000_000u64;
        let mut hits_by_phase = [0u64; 16];
        let mut hits = 0u64;
        for n in 0..calls {
            if sampler.due() {
                hits += 1;
                hits_by_phase[(n % 16) as usize] += 1;
            }
        }
        let mean_gap = calls as f64 / hits as f64;
        assert!(
            (mean_gap - f64::from(SAMPLE_EVERY)).abs() < 2.0,
            "{mean_gap}"
        );
        // A stride of 64 would put every hit in phase 0 of a 16-slot period.
        for phase_hits in hits_by_phase {
            let share = phase_hits as f64 / hits as f64;
            assert!((share - 1.0 / 16.0).abs() < 0.01, "{hits_by_phase:?}");
        }
        // Wrappers built one after the other get different sequences.
        let mut other = Sampler::new(8);
        let same = (0..1_000).filter(|_| sampler.due() == other.due()).count();
        assert!(same < 1_000);
    }

    #[test]
    fn sampled_time_scales_to_all_calls() {
        let mut sampler = Sampler::new(1);
        sampler.record(100.0);
        sampler.record(300.0);
        sampler.record(-5.0); // below the timer overhead: counts as 0
        assert!((sampler.scaled(30) - 30.0 * 400.0 / 3.0).abs() < 1e-9);
        assert_eq!(Sampler::new(2).scaled(10), 0.0);
    }
}
