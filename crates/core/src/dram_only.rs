//! The DRAM-only baseline buffer (§1).
//!
//! A buffer built from DRAM alone cannot give worst-case guarantees at high
//! line rates: in the worst case every access pays the full random access
//! time, so the buffer can move at most one cell per `B` slots in each
//! direction. This front end models exactly that and is used by the E1
//! experiment to reproduce the introduction's motivation numbers.

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

use crate::front::{Locals, SlotLoop, SlotSink};
use crate::stats::BufferStats;
use crate::traits::{BatchReport, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use crate::verify::DeliveryVerifier;
use pktbuf_model::{Cell, LogicalQueueId, RadsConfig, RequestLedger};
use std::collections::VecDeque;

/// A packet buffer whose only storage is the DRAM itself.
#[derive(Debug)]
pub struct DramOnlyBuffer {
    cfg: RadsConfig,
    queues: Vec<VecDeque<Cell>>,
    /// Slot at which the DRAM read port is free again.
    read_busy_until: u64,
    /// Slot at which the DRAM write port is free again.
    write_busy_until: u64,
    /// Arrivals waiting for the write port.
    write_backlog: VecDeque<Cell>,
    slot: u64,
    /// Cells written to DRAM minus requests accepted, per queue.
    available: RequestLedger,
    stats: BufferStats,
    verifier: DeliveryVerifier,
}

impl DramOnlyBuffer {
    /// Creates a DRAM-only buffer for the given configuration (only the number
    /// of queues and the granularity — i.e. the random access time in slots —
    /// are used).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[expect(
        clippy::expect_used,
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub fn new(cfg: RadsConfig) -> Self {
        cfg.validate().expect("invalid DRAM-only configuration");
        DramOnlyBuffer {
            queues: vec![VecDeque::new(); cfg.num_queues],
            read_busy_until: 0,
            write_busy_until: 0,
            write_backlog: VecDeque::new(),
            slot: 0,
            available: RequestLedger::new(cfg.num_queues),
            stats: BufferStats::default(),
            verifier: DeliveryVerifier::new(cfg.num_queues),
            cfg,
        }
    }

    /// Worst-case sustainable throughput of this buffer, as a fraction of the
    /// line rate: one cell per random access time per direction.
    pub fn worst_case_throughput_fraction(&self) -> f64 {
        1.0 / self.cfg.granularity as f64
    }

    /// Preloads `cells` into `queue` (they count as already written to DRAM).
    pub fn preload(&mut self, queue: LogicalQueueId, cells: Vec<Cell>) {
        self.available.credit(queue, cells.len() as u64);
        self.queues[queue.as_usize()].extend(cells);
    }
}

impl SlotLoop for DramOnlyBuffer {
    /// The write and read ports' busy-until horizons.
    type Regs = (u64, u64);

    #[inline]
    fn load(&self) -> Locals<(u64, u64)> {
        Locals {
            now: self.slot,
            regs: (self.write_busy_until, self.read_busy_until),
            delta: BufferStats::default(),
        }
    }

    #[inline]
    fn store(&mut self, locals: &Locals<(u64, u64)>) {
        self.slot = locals.now;
        (self.write_busy_until, self.read_busy_until) = locals.regs;
        self.stats.absorb(&locals.delta);
    }

    #[inline]
    fn requestable(&self) -> &RequestLedger {
        &self.available
    }

    #[inline(always)]
    fn slot<K: SlotSink>(
        &mut self,
        locals: &mut Locals<(u64, u64)>,
        arrival: &mut Option<Cell>,
        request: Option<LogicalQueueId>,
        out: &mut K,
    ) {
        let t = locals.now;
        let access_time = self.cfg.granularity as u64;
        let (write_busy_until, read_busy_until) = &mut locals.regs;
        let delta = &mut locals.delta;

        // Arrivals queue for the write port; each write occupies the DRAM for
        // a full random access time (worst case: no row locality).
        if let Some(cell) = arrival.take() {
            delta.arrivals += 1;
            self.write_backlog.push_back(cell);
        }
        if *write_busy_until <= t {
            if let Some(cell) = self.write_backlog.pop_front() {
                self.available.credit(cell.queue(), 1);
                self.queues[cell.queue().as_usize()].push_back(cell);
                *write_busy_until = t + access_time;
                delta.dram_writes += 1;
            }
        }

        // A request can only be served if the read port is free; otherwise it
        // is a miss (the cell was not produced in time).
        if let Some(queue) = request {
            delta.requests += 1;
            self.available.debit(queue);
            let cell = if *read_busy_until <= t {
                self.queues[queue.as_usize()].pop_front()
            } else {
                None
            };
            match cell {
                Some(cell) => {
                    *read_busy_until = t + access_time;
                    delta.dram_reads += 1;
                    delta.grants += 1;
                    if !self.verifier.check(queue, &cell) {
                        delta.order_violations += 1;
                    }
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

impl PacketBuffer for DramOnlyBuffer {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        self.run_slot(arrival, request)
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
        0
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn design_name(&self) -> &'static str {
        "DRAM-only"
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
        if !self.is_quiescent() {
            // A non-empty write backlog still drains one cell per access
            // time; replay it slot by slot.
            for _ in 0..slots {
                self.step(None, None);
            }
            return;
        }
        // With no arrival, no request and an empty write backlog, a slot
        // only advances the clock (the busy-until horizons are absolute
        // slot numbers and age out by comparison).
        self.slot += slots;
        self.stats.slots += slots;
    }

    fn is_quiescent(&self) -> bool {
        self.write_backlog.is_empty()
    }

    fn requestable_total(&self) -> u64 {
        self.available.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RadsConfig {
        RadsConfig {
            num_queues: 4,
            granularity: 8,
            lookahead: None,
        }
    }

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn back_to_back_requests_miss_at_line_rate() {
        let mut b = DramOnlyBuffer::new(cfg());
        b.preload(q(0), (0..32).map(|i| Cell::new(q(0), i, 0)).collect());
        let mut grants = 0;
        for _ in 0..32 {
            let out = b.step(None, Some(q(0)));
            if out.granted.is_some() {
                grants += 1;
            }
        }
        // One grant per random access time of 8 slots: only ~1/8 of requests
        // can be honoured.
        assert_eq!(grants, 4);
        assert_eq!(b.stats().misses, 28);
        assert!(b.stats().miss_rate() > 0.8);
        assert!((b.worst_case_throughput_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn paced_requests_are_all_served() {
        let mut b = DramOnlyBuffer::new(cfg());
        b.preload(q(1), (0..8).map(|i| Cell::new(q(1), i, 0)).collect());
        for i in 0..64 {
            let req = if i % 8 == 0 { Some(q(1)) } else { None };
            let out = b.step(None, req);
            assert!(out.miss.is_none());
        }
        assert_eq!(b.stats().grants, 8);
        assert_eq!(b.stats().order_violations, 0);
        assert_eq!(b.design_name(), "DRAM-only");
        assert_eq!(b.pipeline_delay_slots(), 0);
        assert_eq!(b.num_queues(), 4);
        assert_eq!(b.current_slot(), 64);
    }

    #[test]
    fn arrivals_share_nothing_with_reads_but_pace_writes() {
        let mut b = DramOnlyBuffer::new(cfg());
        for i in 0..16 {
            b.step(Some(Cell::new(q(2), i, 0)), None);
        }
        // Only one write per 8 slots completed: 2 of 16 cells are in DRAM.
        assert_eq!(b.stats().dram_writes, 2);
        assert_eq!(b.requestable_cells(q(2)), 2);
        assert_eq!(b.stats().arrivals, 16);
    }

    #[test]
    #[should_panic(expected = "invalid DRAM-only configuration")]
    fn zero_granularity_is_rejected() {
        DramOnlyBuffer::new(RadsConfig {
            granularity: 0,
            ..cfg()
        });
    }
}
