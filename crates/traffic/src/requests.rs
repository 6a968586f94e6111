//! Arbiter request generators (switch-fabric side).

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

use pktbuf_model::{LogicalQueueId, RequestOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of arbiter requests, at most one per slot.
///
/// `requestable` reports how many more cells of a queue the buffer can still
/// promise to the arbiter; generators must not request a queue whose count is
/// zero (the paper's system model: the scheduler only asks for cells that are
/// in the buffer).
pub trait RequestGenerator {
    /// Returns the queue requested at `slot`, if any.
    fn next(
        &mut self,
        slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId>;

    /// Monomorphizable variant of [`RequestGenerator::next`]: the oracle is a
    /// generic [`RequestOracle`] instead of `&dyn Fn`. When it is a buffer's
    /// own `RequestLedger` (the chunked engine's fused slot loop) the
    /// generator's "first queue with cells from here" is one scan of the
    /// ledger's bitmask; a closure oracle answers the same question with the
    /// trait's linear probe, inlined down to direct calls — no per-probe
    /// virtual dispatch.
    ///
    /// The default forwards to [`RequestGenerator::next`]; the hot generators
    /// in this crate implement the real logic here and make `next` the
    /// forwarding direction, so the two entry points cannot drift apart.
    fn next_inline<O>(&mut self, slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
        Self: Sized,
    {
        self.next(slot, &|q| requestable.cells(q))
    }

    /// Whether a call that returns `None` because *no queue has requestable
    /// cells* leaves the generator bit-identical (no RNG draw, no cursor
    /// move). The chunked engine may then skip such calls entirely during an
    /// idle fast-forward without changing any subsequent request. Stochastic
    /// generators that consume randomness on every call must return `false`
    /// (the default).
    fn idle_skippable(&self) -> bool {
        false
    }

    /// Generator name for reports.
    fn name(&self) -> &'static str;
}

/// The ECQF worst case (§3): drain all queues in strict round-robin order so
/// that every queue runs dry at roughly the same time.
#[derive(Debug, Clone)]
pub struct AdversarialRoundRobin {
    num_queues: usize,
    next: u32,
}

impl AdversarialRoundRobin {
    /// Creates the generator over `num_queues` queues.
    pub fn new(num_queues: usize) -> Self {
        AdversarialRoundRobin {
            num_queues,
            next: 0,
        }
    }
}

impl RequestGenerator for AdversarialRoundRobin {
    fn next(
        &mut self,
        slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId> {
        self.next_inline(slot, requestable)
    }

    fn next_inline<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        // Request the first queue from the round-robin pointer on that still
        // has cells to give. The cursor wraps by comparison — this runs once
        // per slot and a division by the (runtime) queue count would
        // dominate the generator.
        let q = requestable.first_from(self.next as usize, self.num_queues)?;
        self.next = q.index() + 1;
        if self.next as usize == self.num_queues {
            self.next = 0;
        }
        Some(q)
    }

    fn idle_skippable(&self) -> bool {
        // A fruitless scan leaves the cursor untouched and draws no RNG.
        true
    }

    fn name(&self) -> &'static str {
        "adversarial-round-robin"
    }
}

/// Requests a uniformly random queue among those that have cells available.
#[derive(Debug)]
pub struct UniformRandomRequests {
    num_queues: usize,
    load: f64,
    rng: StdRng,
}

impl UniformRandomRequests {
    /// Creates the generator with the given request load (0.0–1.0).
    pub fn new(num_queues: usize, load: f64, seed: u64) -> Self {
        UniformRandomRequests {
            num_queues,
            load: load.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RequestGenerator for UniformRandomRequests {
    fn next(
        &mut self,
        slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId> {
        self.next_inline(slot, requestable)
    }

    fn next_inline<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        if self.rng.gen::<f64>() >= self.load {
            return None;
        }
        // Sample a starting point and take the first queue with available
        // cells from there on — unbiased enough for workload purposes.
        let start = self.rng.gen_range(0..self.num_queues);
        requestable.first_from(start, self.num_queues)
    }

    fn name(&self) -> &'static str {
        "uniform-random"
    }
}

/// Drains one queue completely before moving to the next — the opposite
/// extreme of the round-robin worst case, exercising long same-queue runs
/// (and hence consecutive accesses to the banks of a single group in CFDS).
#[derive(Debug, Clone)]
pub struct GreedyQueueDrain {
    num_queues: usize,
    current: u32,
}

impl GreedyQueueDrain {
    /// Creates the generator over `num_queues` queues.
    pub fn new(num_queues: usize) -> Self {
        GreedyQueueDrain {
            num_queues,
            current: 0,
        }
    }
}

impl RequestGenerator for GreedyQueueDrain {
    fn next(
        &mut self,
        slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId> {
        self.next_inline(slot, requestable)
    }

    fn next_inline<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        let q = requestable.first_from(self.current as usize, self.num_queues)?;
        self.current = q.index();
        Some(q)
    }

    fn idle_skippable(&self) -> bool {
        // A fruitless scan leaves the cursor untouched and draws no RNG.
        true
    }

    fn name(&self) -> &'static str {
        "greedy-queue-drain"
    }
}

/// Requests concentrate on a few hot queues with some probability, otherwise
/// behave uniformly.
#[derive(Debug)]
pub struct HotspotRequests {
    num_queues: usize,
    hot_queues: usize,
    hot_fraction: f64,
    rng: StdRng,
}

impl HotspotRequests {
    /// Creates the generator: `hot_fraction` of requests target the first
    /// `hot_queues` queues.
    pub fn new(num_queues: usize, hot_queues: usize, hot_fraction: f64, seed: u64) -> Self {
        HotspotRequests {
            num_queues,
            hot_queues: hot_queues.clamp(1, num_queues),
            hot_fraction: hot_fraction.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RequestGenerator for HotspotRequests {
    fn next(
        &mut self,
        slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId> {
        self.next_inline(slot, requestable)
    }

    fn next_inline<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        let (start, span) = if self.rng.gen::<f64>() < self.hot_fraction {
            (self.rng.gen_range(0..self.hot_queues), self.hot_queues)
        } else {
            (self.rng.gen_range(0..self.num_queues), self.num_queues)
        };
        requestable.first_from(start, span)
    }

    fn name(&self) -> &'static str {
        "hotspot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::RequestLedger;
    use std::cell::Cell;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    /// Drives two copies of a generator (`make` twice) over a ledger that
    /// fills in bursts and drains by the requests themselves — one copy asks
    /// the ledger (mask scan), the other a closure over the same counts
    /// (linear probe) — and checks they request the same queue every slot.
    fn assert_ledger_and_closure_agree<G: RequestGenerator>(make: impl Fn() -> G) {
        const QUEUES: usize = 130;
        let (mut masked, mut probed) = (make(), make());
        let mut ledger = RequestLedger::new(QUEUES);
        let mut refill = StdRng::seed_from_u64(99);
        let mut requested = 0;
        for slot in 0..4_000 {
            // Mostly drained, so queues keep running dry and the cyclic scan
            // keeps crossing word boundaries to find the next one.
            if refill.gen_range(0..4u32) == 0 {
                let queue = q(refill.gen_range(0..QUEUES as u32));
                ledger.credit(queue, refill.gen_range(1..4u64));
            }
            let by_mask = masked.next_inline(slot, &ledger);
            let by_probe = probed.next(slot, &|queue| ledger.get(queue));
            assert_eq!(by_mask, by_probe, "{} at slot {slot}", masked.name());
            if let Some(queue) = by_mask {
                assert!(ledger.get(queue) > 0);
                ledger.debit(queue);
                requested += 1;
            }
        }
        assert!(
            requested > 500,
            "{}: only {requested} requests",
            masked.name()
        );
    }

    #[test]
    fn generators_request_the_same_queues_from_a_ledger_as_from_a_closure() {
        assert_ledger_and_closure_agree(|| AdversarialRoundRobin::new(130));
        assert_ledger_and_closure_agree(|| GreedyQueueDrain::new(130));
        assert_ledger_and_closure_agree(|| UniformRandomRequests::new(130, 0.9, 5));
        assert_ledger_and_closure_agree(|| HotspotRequests::new(130, 17, 0.8, 5));
    }

    /// The hot set is the only place a generator scans less than all queues:
    /// when it is chosen and empty, each of its queues is probed once — the
    /// loop used to go round it `num_queues / hot_queues` times — and the
    /// requests are the ones the old loop made.
    #[test]
    fn hotspot_probes_each_queue_of_the_span_at_most_once() {
        const QUEUES: usize = 64;
        const HOT: usize = 8;
        // The previous implementation, kept here as the reference.
        fn old_next(
            g: &mut HotspotRequests,
            requestable: &dyn Fn(LogicalQueueId) -> u64,
        ) -> Option<LogicalQueueId> {
            let (start, span) = if g.rng.gen::<f64>() < g.hot_fraction {
                (g.rng.gen_range(0..g.hot_queues), g.hot_queues)
            } else {
                (g.rng.gen_range(0..g.num_queues), g.num_queues)
            };
            let mut qi = start % span;
            for _ in 0..g.num_queues {
                let queue = LogicalQueueId::new(qi as u32);
                qi += 1;
                if qi == span {
                    qi = 0;
                }
                if requestable(queue) > 0 {
                    return Some(queue);
                }
            }
            None
        }

        let mut new = HotspotRequests::new(QUEUES, HOT, 0.7, 13);
        let mut old = HotspotRequests::new(QUEUES, HOT, 0.7, 13);
        let probes = Cell::new(0usize);
        let mut fruitless_hot_scans = 0;
        for slot in 0..2_000u64 {
            // The hot set is empty every other stretch of 50 slots; queue 40
            // always has cells.
            let hot_has_cells = (slot / 50) % 2 == 0;
            let cells = |queue: LogicalQueueId| {
                probes.set(probes.get() + 1);
                match queue.as_usize() {
                    40 => 1,
                    5 if hot_has_cells => 2,
                    _ => 0,
                }
            };
            probes.set(0);
            let picked = new.next(slot, &cells);
            let probed = probes.get();
            assert_eq!(picked, old_next(&mut old, &cells), "slot {slot}");
            if picked.is_none() {
                // Only a scan of the (empty) hot set can come back empty.
                assert_eq!(probed, HOT, "slot {slot}");
                fruitless_hot_scans += 1;
            } else {
                assert!(probed <= QUEUES, "slot {slot}: {probed} probes");
            }
        }
        assert!(fruitless_hot_scans > 100);
    }

    #[test]
    fn adversarial_round_robin_cycles() {
        let mut g = AdversarialRoundRobin::new(3);
        let all = |_q: LogicalQueueId| 5u64;
        let order: Vec<u32> = (0..6).map(|t| g.next(t, &all).unwrap().index()).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(g.name(), "adversarial-round-robin");
    }

    #[test]
    fn adversarial_skips_empty_queues() {
        let mut g = AdversarialRoundRobin::new(3);
        let only_two = |qq: LogicalQueueId| if qq.index() == 2 { 3 } else { 0 };
        assert_eq!(g.next(0, &only_two), Some(q(2)));
        assert_eq!(g.next(1, &only_two), Some(q(2)));
        let none = |_qq: LogicalQueueId| 0u64;
        assert_eq!(g.next(2, &none), None);
    }

    #[test]
    fn greedy_drain_sticks_to_a_queue() {
        let mut g = GreedyQueueDrain::new(4);
        let mut remaining = [3u64, 2, 0, 1];
        for _ in 0..6 {
            let counts = remaining;
            let pick = g
                .next(0, &|qq: LogicalQueueId| counts[qq.as_usize()])
                .unwrap();
            remaining[pick.as_usize()] -= 1;
        }
        assert_eq!(remaining, [0, 0, 0, 0]);
        assert_eq!(g.name(), "greedy-queue-drain");
    }

    #[test]
    fn uniform_random_only_requests_available_queues() {
        let mut g = UniformRandomRequests::new(8, 1.0, 7);
        let avail = |qq: LogicalQueueId| if qq.index().is_multiple_of(2) { 1 } else { 0 };
        for t in 0..200 {
            if let Some(picked) = g.next(t, &avail) {
                assert_eq!(picked.index() % 2, 0);
            }
        }
        assert_eq!(g.name(), "uniform-random");
    }

    #[test]
    fn uniform_random_respects_load() {
        let mut g = UniformRandomRequests::new(4, 0.25, 9);
        let all = |_qq: LogicalQueueId| 1u64;
        let issued = (0..10_000).filter(|t| g.next(*t, &all).is_some()).count();
        assert!(issued > 1_800 && issued < 3_200, "{issued}");
    }

    #[test]
    fn hotspot_requests_prefer_hot_queues() {
        let mut g = HotspotRequests::new(16, 2, 0.9, 11);
        let all = |_qq: LogicalQueueId| 1u64;
        let mut hot = 0;
        let mut total = 0;
        for t in 0..10_000 {
            if let Some(picked) = g.next(t, &all) {
                total += 1;
                if picked.index() < 2 {
                    hot += 1;
                }
            }
        }
        assert!(hot as f64 / total as f64 > 0.8);
        assert_eq!(g.name(), "hotspot");
    }
}
