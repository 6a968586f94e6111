//! Pins the tentpole claim of the hot-path rework: once warmed up, the slot
//! loop of every buffer design performs **zero heap allocations** — all
//! steady-state state lives in preallocated, index-addressed structures
//! (`pktbuf::hotpath`: the tail arena and the block slab every block travels
//! in as a handle; the ring-based DRAM store and head SRAM). The buffers are
//! held to it standalone — RADS batched and cut-through (`B = 1`, the
//! transport workload's buffer), CFDS, DRAM-only — inside the chunked
//! engine, and as the ports of a warm 8-port `VoqSwitch`; the linked-list
//! SRAM organisation, which no buffer instantiates, and the closed-loop
//! reliable source are held to the same rule standalone.
//!
//! A counting global allocator wraps the system allocator; each design is
//! driven through a warm-up phase (rings grow to their high-water marks, the
//! block slab reaches its peak of blocks in flight, the pending tables
//! widen) and then through a measured phase during which the allocation
//! counter must not move. The workload mixes live arrivals with a
//! round-robin drain so every subsystem — tail arena, writeback, DRAM
//! scheduler, head SRAM, grants — stays active while counting.

use fabric::{FabricConfig, NullSink, VoqSwitch};
use pktbuf::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, RadsConfig};
use sim::SimulationEngine;
use sram_buf::{SharedBuffer, UnifiedLinkedListBuffer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use traffic::{
    AdversarialRoundRobin, ClosedLoopConfig, ClosedLoopSource, DemandPattern, RoundRobinArrivals,
};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, only adding a relaxed counter
// increment; the layout contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WARMUP_SLOTS: u64 = 60_000;
const MEASURED_SLOTS: u64 = 20_000;

/// Slots from a cell's send to its ack in [`drive_source`].
const ACK_DELAY: usize = 24;

/// Drives `source` under the transport's per-slot contract (`on_ack`, then
/// `expire_timers`, then `poll`) for `slots` slots from `*slot`: every cell
/// is acked [`ACK_DELAY`] slots after it was sent, and new work is allowed in
/// bursts of 16 slots every 64, so the window fills and empties each period.
fn drive_source(
    source: &mut ClosedLoopSource,
    slots: u64,
    slot: &mut u64,
    acks: &mut [Option<(u32, u64)>; ACK_DELAY],
) {
    for _ in 0..slots {
        let lane = *slot as usize % ACK_DELAY;
        if let Some((dest, seq)) = acks[lane].take() {
            source.on_ack(dest, seq, *slot);
        }
        source.expire_timers(*slot);
        acks[lane] = source.poll(*slot, *slot % 64 < 16);
        *slot += 1;
    }
}

/// Cells per block (`b`) and lanes per queue (`B/b`) of the standalone
/// linked-list SRAM: the CFDS geometry below, b = 2 and B = 8.
const LL_BLOCK: usize = 2;
const LL_LANES: usize = 4;

/// Drives a linked-list SRAM of `seqs.len()` queues for `slots` slots from
/// `*slot`: every [`LL_BLOCK`] slots one block of the next queue round-robin
/// is inserted, block ordinals in order (so each lane fills in order, as the
/// organisation requires), and every slot pops one cell of the next non-empty
/// queue round-robin, checking FIFO order. Blocks are built on the stack.
/// Returns the number of cells popped.
fn drive_linked_list(
    sram: &mut UnifiedLinkedListBuffer,
    slots: u64,
    slot: &mut u64,
    seqs: &mut [u64],
    expected: &mut [u64],
) -> u64 {
    let q = seqs.len();
    let mut popped = 0;
    for _ in 0..slots {
        let t = *slot;
        if t.is_multiple_of(LL_BLOCK as u64) {
            let qi = (t / LL_BLOCK as u64) as usize % q;
            let queue = LogicalQueueId::new(qi as u32);
            let first = seqs[qi];
            let block: [Cell; LL_BLOCK] =
                std::array::from_fn(|i| Cell::new(queue, first + i as u64, t));
            sram.insert_block(queue, first / LL_BLOCK as u64, &block)
                .expect("linked-list SRAM has room");
            seqs[qi] += LL_BLOCK as u64;
        }
        let start = t as usize % q;
        if let Some(qi) = (0..q)
            .map(|i| (start + i) % q)
            .find(|&qi| sram.available(LogicalQueueId::new(qi as u32)) > 0)
        {
            let cell = sram
                .pop_front(LogicalQueueId::new(qi as u32))
                .expect("available cell pops");
            assert_eq!(
                cell.seq(),
                expected[qi],
                "linked list: queue {qi} out of order"
            );
            expected[qi] += 1;
            popped += 1;
        }
        *slot += 1;
    }
    popped
}

/// Ports of the switch in [`drive_switch`].
const SWITCH_PORTS: usize = 8;

/// Drives `switch` for `slots` slots from `*slot` with a periodic 50 %-load
/// permutation: in even slots every input receives one cell, input `i` for
/// output `(i + t / 16) mod N`, so each output is offered one cell every two
/// slots and the VOQ backlog peaks within the first period of `16·N` slots.
/// Returns the crossbar matches made.
fn drive_switch(
    switch: &mut VoqSwitch<RadsBuffer>,
    slots: u64,
    slot: &mut u64,
    seqs: &mut [u64],
) -> u64 {
    let n = SWITCH_PORTS;
    let mut arrivals = [None; SWITCH_PORTS];
    let mut matches = 0;
    for _ in 0..slots {
        let t = *slot;
        if t.is_multiple_of(2) {
            for (i, arrival) in arrivals.iter_mut().enumerate() {
                let j = (i + (t / 16) as usize) % n;
                let seq = &mut seqs[i * n + j];
                *arrival = Some(Cell::new(LogicalQueueId::new(j as u32), *seq, t));
                *seq += 1;
            }
        }
        matches += switch.step_coupled(&mut arrivals, &[], &mut NullSink);
        *slot += 1;
    }
    matches
}

/// Drives `buffer` with a deterministic 50%-load arrival stream and a
/// round-robin request stream (the paper's adversarial pattern), without any
/// allocating generator machinery of its own.
fn drive(
    buffer: &mut dyn PacketBuffer,
    slots: u64,
    arrival_period: u64,
    seqs: &mut [u64],
    next_req: &mut u32,
) {
    let q = buffer.num_queues() as u64;
    let start = buffer.current_slot();
    for t in start..start + slots {
        let arrival = if t % arrival_period == 0 {
            let qi = ((t / arrival_period) % q) as usize;
            let cell = Cell::new(LogicalQueueId::new(qi as u32), seqs[qi], t);
            seqs[qi] += 1;
            Some(cell)
        } else {
            None
        };
        let mut request = None;
        for i in 0..q as u32 {
            let candidate = LogicalQueueId::new((*next_req + i) % q as u32);
            if buffer.requestable_cells(candidate) > 0 {
                *next_req = (candidate.index() + 1) % q as u32;
                request = Some(candidate);
                break;
            }
        }
        buffer.step(arrival, request);
    }
}

fn assert_steady_state_alloc_free(
    buffer: &mut dyn PacketBuffer,
    design: &str,
    arrival_period: u64,
    expect_no_misses: bool,
) {
    let mut seqs = vec![0u64; buffer.num_queues()];
    let mut next_req = 0u32;
    drive(
        buffer,
        WARMUP_SLOTS,
        arrival_period,
        &mut seqs,
        &mut next_req,
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive(
        buffer,
        MEASURED_SLOTS,
        arrival_period,
        &mut seqs,
        &mut next_req,
    );
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{design}: steady-state slot loop allocated {} times over {MEASURED_SLOTS} slots",
        after - before
    );
    // The loop did real work while being counted.
    assert!(buffer.stats().grants > 0, "{design}: no grants during test");
    if expect_no_misses {
        assert_eq!(buffer.stats().misses, 0, "{design}: unexpected misses");
    }
}

/// One test function (not three): integration tests run in threads, and a
/// second concurrently-running test would pollute the global counter.
#[test]
fn steady_state_slot_loop_is_allocation_free() {
    let rads_cfg = RadsConfig {
        num_queues: 16,
        granularity: 8,
        lookahead: None,
    };
    let mut rads = RadsBuffer::new(rads_cfg);
    assert_steady_state_alloc_free(&mut rads, "RADS", 2, true);

    // Cut-through RADS (B = 1): every cell is its own slab block.
    let cut_through = RadsConfig {
        granularity: 1,
        ..rads_cfg
    };
    let mut rads = RadsBuffer::new(cut_through);
    assert_steady_state_alloc_free(&mut rads, "cut-through RADS", 2, true);

    // A warm 8-port switch of RADS buffers, batched and cut-through: the
    // arbiter, the egress FIFOs and every port's slab as a fabric drives
    // them.
    for granularity in [8, 1] {
        let ports = SWITCH_PORTS;
        let cfg = RadsConfig {
            num_queues: ports,
            granularity,
            ..rads_cfg
        };
        let buffers = (0..ports).map(|_| RadsBuffer::new(cfg)).collect();
        let mut switch = VoqSwitch::new(FabricConfig::new(ports), buffers);
        let (mut slot, mut seqs) = (0u64, vec![0u64; ports * ports]);
        drive_switch(&mut switch, WARMUP_SLOTS, &mut slot, &mut seqs);

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let matches = drive_switch(&mut switch, MEASURED_SLOTS, &mut slot, &mut seqs);
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "VoqSwitch<RadsBuffer> at B = {granularity}: warm slot loop allocated {} times \
             over {MEASURED_SLOTS} slots",
            after - before
        );
        assert!(matches > 0, "switch at B = {granularity}: no matches");
    }

    // The linked-list SRAM standalone, B/b lanes per queue: every block
    // insertion copies its cells into the lists' preallocated entries.
    let q = 16usize;
    let mut sram = UnifiedLinkedListBuffer::with_lanes(q, 1024, LL_LANES, LL_BLOCK);
    let (mut slot, mut seqs, mut expected) = (0u64, vec![0u64; q], vec![0u64; q]);
    drive_linked_list(&mut sram, WARMUP_SLOTS, &mut slot, &mut seqs, &mut expected);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let popped = drive_linked_list(
        &mut sram,
        MEASURED_SLOTS,
        &mut slot,
        &mut seqs,
        &mut expected,
    );
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "linked-list SRAM: warm insert/pop loop allocated {} times over {MEASURED_SLOTS} slots",
        after - before
    );
    assert!(popped > 0, "linked-list SRAM: no cells popped during test");

    let cfds_cfg = CfdsConfig {
        num_queues: 16,
        granularity: 2,
        rads_granularity: 8,
        num_banks: 16,
        ..CfdsConfig::default()
    };
    cfds_cfg.validate().unwrap();
    let mut cfds = CfdsBuffer::new(cfds_cfg);
    assert_steady_state_alloc_free(&mut cfds, "CFDS", 2, true);

    // The DRAM-only write port absorbs one cell per random access time (B
    // slots); a faster arrival stream would grow its write backlog without
    // bound (that is the design's documented failure mode, not an allocation
    // bug), so pace arrivals below 1/B and tolerate its read-port misses.
    let mut dram_only = DramOnlyBuffer::new(rads_cfg);
    assert_steady_state_alloc_free(&mut dram_only, "DRAM-only", 10, false);

    // And the whole *engine* path on a warm buffer: chunked arrival
    // generation, fused slot batches, the drain with its idle fast-forward,
    // and the construction of the `SimulationReport` itself. The first run is the warm-up (rings and
    // pools grow to their high-water marks); the second, identical run must
    // not allocate at all.
    let warmup_slots = 60_000u64; // multiple of q: seq offsets line up below
    let mut rads = RadsBuffer::new(rads_cfg);
    {
        let mut arrivals = RoundRobinArrivals::new(q);
        let mut requests = AdversarialRoundRobin::new(q);
        let warm = SimulationEngine::new_mono(&mut rads).run_chunked(
            &mut arrivals,
            &mut requests,
            warmup_slots,
        );
        assert!(warm.stats.grants > 0);
    }
    let mut arrivals = RoundRobinArrivals::new(q).with_seq_offset(warmup_slots / q as u64);
    let mut requests = AdversarialRoundRobin::new(q);
    let engine = SimulationEngine::new_mono(&mut rads);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = engine.run_chunked(&mut arrivals, &mut requests, MEASURED_SLOTS);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "engine run incl. report construction allocated {} times over {MEASURED_SLOTS} slots",
        after - before
    );
    assert!(report.stats.grants > 0, "engine run did no work");
    // The report carries the generators' static names, not a fresh `String`.
    assert_eq!(
        (report.arrivals, report.requests),
        ("round-robin", "adversarial-round-robin")
    );
    assert_eq!(report.design, "RADS");
    assert!(report.grant_log.is_none());

    // A closed-loop reliable source: up to 16 cells in flight each burst,
    // acks and window growth every slot of it.
    let mut source =
        ClosedLoopSource::new(0, 64, DemandPattern::Sweep, ClosedLoopConfig::default());
    let mut acks = [None; ACK_DELAY];
    let mut slot = 0u64;
    drive_source(&mut source, 200_000, &mut slot, &mut acks);
    let (injected, acked) = (source.injected(), source.acked());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive_source(&mut source, 100_000, &mut slot, &mut acks);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "closed-loop source: warm slot loop allocated {} times over 100000 slots",
        after - before
    );
    assert!(
        source.injected() > injected && source.acked() > acked,
        "source did no work"
    );
}
