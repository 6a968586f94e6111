//! `step` and the fused `step_batch` must be two drivers of the same slot:
//! from identical fresh buffers, one slot at a time and in uneven chunks
//! (with `advance_idle` wherever the chunked engine would take it), every
//! `BufferStats` field, the grant sequence, the slot counter and every
//! queue's requestable count agree.
//!
//! The generator-driven `chunked_equivalence` suite in `sim` never reaches
//! the drop branch, nor a RADS/CFDS miss (its contract-abiding workloads are
//! loss-free there); the cases below are built to: a DRAM too small for one
//! hot queue, and a source that ignores the oracle.

use pktbuf::{
    BufferStats, CfdsBuffer, CfdsBufferOptions, DramOnlyBuffer, GrantSink, PacketBuffer,
    RadsBuffer, RequestSource,
};
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, RadsConfig, RequestOracle};

const CHUNKS: [usize; 4] = [1, 7, 64, 256];

fn lq(i: u32) -> LogicalQueueId {
    LogicalQueueId::new(i)
}

fn rads_cfg(q: usize, b: usize) -> RadsConfig {
    RadsConfig {
        num_queues: q,
        granularity: b,
        lookahead: None,
    }
}

fn cfds_cfg(q: usize, b: usize, big_b: usize, m: usize) -> CfdsConfig {
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

/// A contract-abiding source: round-robin over the queues with cells, from
/// one past the last queue served.
#[derive(Clone)]
struct RoundRobin {
    next: usize,
    span: usize,
}

impl RequestSource for RoundRobin {
    fn next_request<O>(&mut self, _slot: u64, requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        let queue = requestable.first_from(self.next, self.span)?;
        self.next = (queue.as_usize() + 1) % self.span;
        Some(queue)
    }

    fn idle_skippable(&self) -> bool {
        true
    }
}

/// A source that never requests: arrivals pile up.
#[derive(Clone)]
struct Silent;

impl RequestSource for Silent {
    fn next_request<O>(&mut self, _slot: u64, _requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        None
    }

    fn idle_skippable(&self) -> bool {
        true
    }
}

/// A misbehaving source: queue 0, every slot, whatever the oracle says.
#[derive(Clone)]
struct AlwaysQueue0;

impl RequestSource for AlwaysQueue0 {
    fn next_request<O>(&mut self, _slot: u64, _requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        Some(lq(0))
    }
}

/// A recorded request stream: entry `t` is slot `t`'s request; idle after
/// the last entry.
#[derive(Clone)]
struct Replay(&'static [Option<u32>]);

impl RequestSource for Replay {
    fn next_request<O>(&mut self, slot: u64, _requestable: &O) -> Option<LogicalQueueId>
    where
        O: RequestOracle + ?Sized,
    {
        let at = usize::try_from(slot).ok()?;
        self.0.get(at).copied().flatten().map(lq)
    }
}

/// What is compared after a slot: statistics, clock, requestable counts and
/// how many grants were made so far.
#[derive(Debug, PartialEq)]
struct Snapshot {
    stats: BufferStats,
    slot: u64,
    requestable: Vec<u64>,
    grants: usize,
}

fn snapshot<B: PacketBuffer>(buf: &B, grants: usize) -> Snapshot {
    Snapshot {
        stats: *buf.stats(),
        slot: buf.current_slot(),
        requestable: (0..buf.num_queues() as u32)
            .map(|q| buf.requestable_cells(lq(q)))
            .collect(),
        grants,
    }
}

/// One differential case: a fresh-buffer factory, a request source, and the
/// arrival of each slot.
struct Case<'a, B, S> {
    name: &'a str,
    build: &'a dyn Fn() -> B,
    source: S,
    arrival: &'a dyn Fn(u64) -> Option<Cell>,
    slots: u64,
}

/// Runs the case through `step` (recording a snapshot after every slot and
/// the slot of every grant), then through `step_batch` at each chunk size,
/// comparing at every chunk boundary. Returns the reference's final stats.
fn check<B: PacketBuffer, S: RequestSource + Clone>(case: &Case<'_, B, S>) -> BufferStats {
    let mut buf = (case.build)();
    let mut source = case.source.clone();
    let mut reference = vec![snapshot(&buf, 0)];
    let mut grants: Vec<u32> = Vec::new();
    let mut grant_slots: Vec<u64> = Vec::new();
    for t in 0..case.slots {
        let request = source.next_request(buf.current_slot(), &|q: LogicalQueueId| {
            buf.requestable_cells(q)
        });
        let outcome = buf.step((case.arrival)(t), request);
        if let Some(cell) = outcome.granted {
            grants.push(cell.queue().index());
            grant_slots.push(t);
        }
        reference.push(snapshot(&buf, grants.len()));
    }

    for chunk in CHUNKS {
        let mut buf = (case.build)();
        let mut source = case.source.clone();
        let mut sink = GrantSink::new(true);
        let mut t = 0u64;
        while t < case.slots {
            let n = (chunk as u64).min(case.slots - t);
            let idle = source.idle_skippable()
                && buf.is_quiescent()
                && buf.requestable_total() == 0
                && (t..t + n).all(|s| (case.arrival)(s).is_none());
            if idle {
                buf.advance_idle(n);
            } else {
                let mut ring: Vec<Option<Cell>> = (t..t + n).map(case.arrival).collect();
                buf.step_batch(&mut ring, &mut source, &mut sink);
            }
            t += n;
            let got = snapshot(&buf, sink.recorded());
            let want = &reference[t as usize];
            assert!(
                got == *want,
                "{}, chunk {chunk}: step_batch diverges from step by slot {t} \
                 (first differing slot in {}..={t})\n step_batch: {got:?}\n step: {want:?}",
                case.name,
                t - n + 1,
            );
        }
        let log = sink.into_log().unwrap();
        if let Some(i) = (0..log.len().max(grants.len())).find(|&i| log.get(i) != grants.get(i)) {
            panic!(
                "{}, chunk {chunk}: grant {i} differs (step granted it at slot {:?}): \
                 step_batch {:?}, step {:?}",
                case.name,
                grant_slots.get(i),
                log.get(i),
                grants.get(i)
            );
        }
    }
    reference.last().unwrap().stats
}

/// Case (a): a CFDS DRAM of 32 cells fed one queue every slot fills, blocks
/// its writebacks, and the tail SRAM then drops.
#[test]
fn cfds_full_dram_drops_and_blocks_identically() {
    let build = || {
        CfdsBuffer::with_options(
            cfds_cfg(4, 2, 8, 16),
            CfdsBufferOptions {
                dram_capacity_cells: Some(32),
                ..CfdsBufferOptions::default()
            },
        )
    };
    let arrival = |t: u64| Some(Cell::new(lq(0), t, t));
    let stats = check(&Case {
        name: "CFDS",
        build: &build,
        source: Silent,
        arrival: &arrival,
        slots: 2_000,
    });
    assert_eq!(
        (stats.drops, stats.blocked_writebacks),
        (1_962, 986),
        "{stats:?}"
    );
}

/// Case (b): a source that ignores the oracle asks RADS and CFDS for cells
/// that never reached the head path — every request that leaves the
/// pipeline misses.
#[test]
fn oracle_ignoring_source_misses_identically() {
    let none = |_: u64| None;
    let stats = check(&Case {
        name: "RADS",
        build: &|| RadsBuffer::new(rads_cfg(4, 4)),
        source: AlwaysQueue0,
        arrival: &none,
        slots: 200,
    });
    assert_eq!(stats.requests, 200);
    // Every request that left the whole pipeline within the run missed.
    let delay = RadsBuffer::new(rads_cfg(4, 4)).pipeline_delay_slots() as u64;
    assert_eq!(stats.misses, 200 - delay, "{stats:?}");

    let stats = check(&Case {
        name: "CFDS",
        build: &|| CfdsBuffer::new(cfds_cfg(4, 2, 8, 16)),
        source: AlwaysQueue0,
        arrival: &none,
        slots: 200,
    });
    assert!(stats.misses > 0, "{stats:?}");

    // Live arrivals on another queue alongside the misses: the hit and miss
    // branches interleave with writebacks.
    let other = |t: u64| t.is_multiple_of(3).then(|| Cell::new(lq(1), t / 3, t));
    for (name, stats) in [
        (
            "RADS",
            check(&Case {
                name: "RADS",
                build: &|| RadsBuffer::new(rads_cfg(4, 4)),
                source: AlwaysQueue0,
                arrival: &other,
                slots: 600,
            }),
        ),
        (
            "CFDS",
            check(&Case {
                name: "CFDS",
                build: &|| CfdsBuffer::new(cfds_cfg(4, 2, 8, 16)),
                source: AlwaysQueue0,
                arrival: &other,
                slots: 600,
            }),
        ),
    ] {
        assert!(
            stats.misses > 0 && stats.dram_writes > 0,
            "{name}: {stats:?}"
        );
    }
}

/// RADS at the ECQF minimum lookahead 3, Q = 2 and B = 2, one block per
/// queue in DRAM, fed the oracle-respecting stream idle, queue 1, queue 0:
/// ECQF reads queue 1's block at slot 2 and queue 0's at slot 4, which
/// reaches the head SRAM at slot 6. Queue 0's request leaves the lookahead
/// at slot 5, so it is served only because the `B`-slot DRAM read is a
/// stage of the pipeline behind the lookahead; without it, it misses.
#[test]
fn rads_serves_a_request_behind_its_in_flight_read() {
    let stats = check(&Case {
        name: "RADS",
        build: &|| {
            let mut buf = RadsBuffer::new(rads_cfg(2, 2));
            for q in 0..2 {
                buf.preload_dram(lq(q), (0..2).map(|s| Cell::new(lq(q), s, 0)).collect());
            }
            buf
        },
        source: Replay(&[None, Some(1), Some(0)]),
        arrival: &|_| None,
        slots: 16,
    });
    assert!(
        stats.is_loss_free() && stats.grants == 2 && stats.misses == 0,
        "{stats:?}"
    );
}

/// Case (c): DRAM-only under back-to-back requests misses all but one per
/// random access time, while arrivals queue for the write port.
#[test]
fn dram_only_back_to_back_misses_identically() {
    let build = || {
        let mut buf = DramOnlyBuffer::new(rads_cfg(4, 8));
        buf.preload(lq(0), (0..32).map(|s| Cell::new(lq(0), s, 0)).collect());
        buf
    };
    let arrival = |t: u64| (t.is_multiple_of(2) && t < 200).then(|| Cell::new(lq(1), t / 2, t));
    let stats = check(&Case {
        name: "DRAM-only",
        build: &build,
        source: RoundRobin { next: 0, span: 4 },
        arrival: &arrival,
        slots: 1_000,
    });
    assert!(stats.misses > 0 && stats.grants > 0, "{stats:?}");
}

/// The loss-free path too, preloaded and then live, for all three designs —
/// the idle fast-forward engages once the drain is done.
#[test]
fn loss_free_drains_agree() {
    // Queue `(t % 8) / 2` every other slot, in sequence per queue.
    let arrival = |t: u64| {
        (t < 300 && t.is_multiple_of(2)).then(|| Cell::new(lq((t % 8) as u32 / 2), t / 8, t))
    };
    let preload = |q: u32| (0..16).map(|s| Cell::new(lq(q), s, 0)).collect::<Vec<_>>();
    let stats = check(&Case {
        name: "RADS",
        build: &|| {
            let mut buf = RadsBuffer::new(rads_cfg(4, 4));
            (0..4).for_each(|q| buf.preload_dram(lq(q), preload(q)));
            buf
        },
        source: RoundRobin { next: 0, span: 4 },
        arrival: &|_| None,
        slots: 1_500,
    });
    assert!(stats.is_loss_free() && stats.grants == 64, "{stats:?}");
    let stats = check(&Case {
        name: "CFDS",
        build: &|| CfdsBuffer::new(cfds_cfg(4, 2, 8, 16)),
        source: RoundRobin { next: 0, span: 4 },
        arrival: &arrival,
        slots: 1_500,
    });
    assert!(stats.is_loss_free() && stats.grants > 0, "{stats:?}");
    check(&Case {
        name: "DRAM-only",
        build: &|| DramOnlyBuffer::new(rads_cfg(4, 8)),
        source: RoundRobin { next: 0, span: 4 },
        arrival: &arrival,
        slots: 1_500,
    });
}
