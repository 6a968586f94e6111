//! The DRAM-only baseline buffer (§1).
//!
//! A buffer built from DRAM alone cannot give worst-case guarantees at high
//! line rates: in the worst case every access pays the full random access
//! time, so the buffer can move at most one cell per `B` slots in each
//! direction. This front end models exactly that and is used by the E1
//! experiment to reproduce the introduction's motivation numbers.

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
    pub fn new(cfg: RadsConfig) -> Self {
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

impl PacketBuffer for DramOnlyBuffer {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        let t = self.slot;
        self.slot += 1;
        self.stats.slots += 1;
        let mut outcome = SlotOutcome::default();

        // Arrivals queue for the write port; each write occupies the DRAM for
        // a full random access time (worst case: no row locality).
        if let Some(cell) = arrival {
            self.stats.arrivals += 1;
            self.write_backlog.push_back(cell);
        }
        if self.write_busy_until <= t {
            if let Some(cell) = self.write_backlog.pop_front() {
                self.available.credit(cell.queue(), 1);
                self.queues[cell.queue().as_usize()].push_back(cell);
                self.write_busy_until = t + self.cfg.granularity as u64;
                self.stats.dram_writes += 1;
            }
        }

        // A request can only be served if the read port is free; otherwise it
        // is a miss (the cell was not produced in time).
        if let Some(queue) = request {
            self.stats.requests += 1;
            let qi = queue.as_usize();
            self.available.debit(queue);
            if self.read_busy_until <= t {
                if let Some(cell) = self.queues[qi].pop_front() {
                    self.read_busy_until = t + self.cfg.granularity as u64;
                    self.stats.dram_reads += 1;
                    self.stats.grants += 1;
                    if !self.verifier.check(queue, &cell) {
                        self.stats.order_violations += 1;
                    }
                    outcome.granted = Some(cell);
                } else {
                    self.stats.misses += 1;
                    outcome.miss = Some(queue);
                }
            } else {
                self.stats.misses += 1;
                outcome.miss = Some(queue);
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
        0
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn design_name(&self) -> &'static str {
        "DRAM-only"
    }

    /// Fused batch loop: same slot sequence as [`DramOnlyBuffer::step`], with
    /// the granularity hoisted out of the loop, the availability ledger itself
    /// as the request oracle and no `SlotOutcome` materialised per slot.
    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        let access_time = self.cfg.granularity as u64;
        let skippable = requests.idle_skippable();
        let mut report = BatchReport::default();
        // The clock, the port horizons and the slot-grained counters live in
        // locals for the whole batch and are flushed once after the loop.
        let mut t = self.slot;
        let mut write_busy_until = self.write_busy_until;
        let mut read_busy_until = self.read_busy_until;
        let mut delta = BufferStats::default();
        for arrival in arrivals.iter_mut() {
            // The request probe comes first, exactly as in the per-slot
            // engine: the oracle observes the availability as of the end of
            // the previous slot, before this slot's write port completes.
            // When nothing is requestable anywhere, a skippable generator's
            // call is provably fruitless and side-effect-free — skip it on
            // the O(1) total instead.
            let request = if skippable && self.available.total() == 0 {
                None
            } else {
                requests.next_request(t, &self.available)
            };
            report.note(request.is_some());

            if let Some(cell) = arrival.take() {
                delta.arrivals += 1;
                self.write_backlog.push_back(cell);
            }
            if write_busy_until <= t {
                if let Some(cell) = self.write_backlog.pop_front() {
                    self.available.credit(cell.queue(), 1);
                    self.queues[cell.queue().as_usize()].push_back(cell);
                    write_busy_until = t + access_time;
                    delta.dram_writes += 1;
                }
            }
            if let Some(queue) = request {
                delta.requests += 1;
                let qi = queue.as_usize();
                self.available.debit(queue);
                if read_busy_until <= t {
                    if let Some(cell) = self.queues[qi].pop_front() {
                        read_busy_until = t + access_time;
                        delta.dram_reads += 1;
                        delta.grants += 1;
                        if !self.verifier.check(queue, &cell) {
                            delta.order_violations += 1;
                        }
                        grants.push(queue.index());
                    } else {
                        delta.misses += 1;
                    }
                } else {
                    delta.misses += 1;
                }
            }
            t += 1;
        }
        self.slot = t;
        self.write_busy_until = write_busy_until;
        self.read_busy_until = read_busy_until;
        self.stats.slots += arrivals.len() as u64;
        self.stats.arrivals += delta.arrivals;
        self.stats.dram_writes += delta.dram_writes;
        self.stats.dram_reads += delta.dram_reads;
        self.stats.requests += delta.requests;
        self.stats.grants += delta.grants;
        self.stats.misses += delta.misses;
        self.stats.order_violations += delta.order_violations;
        report
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
    use pktbuf_model::LineRate;

    fn cfg() -> RadsConfig {
        RadsConfig {
            line_rate: LineRate::Oc3072,
            num_queues: 4,
            granularity: 8,
            lookahead: None,
            dram: Default::default(),
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
}
