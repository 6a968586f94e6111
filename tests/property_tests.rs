//! Property-based tests (proptest) on the core data structures and the
//! end-to-end FIFO/zero-miss invariants.

use future_packet_buffers::buffers::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use future_packet_buffers::cfds::{DramSchedulerSubsystem, DsaPolicy, RenamingTable};
use future_packet_buffers::dram::{AddressMapper, GroupId, InterleavingConfig};
use future_packet_buffers::model::{Cell, CfdsConfig, LogicalQueueId, PhysicalQueueId, RadsConfig};
use future_packet_buffers::srambuf::{GlobalCamBuffer, SharedBuffer, UnifiedLinkedListBuffer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block-cyclic mapping sends distinct (queue, ordinal) pairs of the
    /// same group window to distinct banks, and never crosses group borders.
    #[test]
    fn address_mapping_is_group_local_and_window_injective(
        banks_per_group in 1usize..=16,
        groups in 1usize..=16,
        queue in 0u32..1024,
        ordinal in 0u64..10_000,
    ) {
        let num_banks = banks_per_group * groups;
        let cfg = InterleavingConfig::new(num_banks, banks_per_group, 1024).unwrap();
        let mapper = AddressMapper::new(cfg);
        let q = PhysicalQueueId::new(queue);
        let bank = mapper.bank_for(q, ordinal);
        prop_assert!(bank.index() < num_banks);
        prop_assert_eq!(mapper.group_of_bank(bank), mapper.group_of_queue(q));
        // Within a window of banks_per_group consecutive ordinals, banks are
        // pairwise distinct.
        let window: Vec<_> = (ordinal..ordinal + banks_per_group as u64)
            .map(|o| mapper.bank_for(q, o))
            .collect();
        for i in 0..window.len() {
            for j in 0..i {
                prop_assert_ne!(window[i], window[j]);
            }
        }
    }

    /// Both shared-buffer organisations restore FIFO order for any order of
    /// block arrival that respects the per-lane (per-bank) ordering.
    #[test]
    fn shared_buffers_restore_fifo_under_block_permutations(
        lanes in 1usize..=8,
        blocks in 1usize..=16,
        cells_per_block in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let queue = LogicalQueueId::new(0);
        let total = blocks * cells_per_block;
        // Build a permutation of block indices that keeps same-lane blocks in
        // order (as the banked DRAM guarantees): shuffle, then stable-sort
        // each lane's occurrences back into order.
        let mut order: Vec<usize> = (0..blocks).collect();
        let mut state = seed.max(1);
        for i in (1..blocks).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut per_lane: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for b in &order {
            per_lane[b % lanes].push(*b);
        }
        for lane in &mut per_lane {
            lane.sort_unstable();
        }
        // Re-emit in the shuffled arrival order but reading each lane's blocks
        // in ascending order.
        let mut lane_cursor = vec![0usize; lanes];
        let arrival: Vec<usize> = order
            .iter()
            .map(|b| {
                let lane = b % lanes;
                let v = per_lane[lane][lane_cursor[lane]];
                lane_cursor[lane] += 1;
                v
            })
            .collect();

        let mut cam = GlobalCamBuffer::with_block_size(1, total + 8, cells_per_block);
        let mut lll = UnifiedLinkedListBuffer::with_lanes(1, total + 8, lanes, cells_per_block);
        for b in &arrival {
            let cells: Vec<Cell> = (0..cells_per_block)
                .map(|i| Cell::new(queue, (b * cells_per_block + i) as u64, 0))
                .collect();
            cam.insert_block(queue, *b as u64, &cells).unwrap();
            lll.insert_block(queue, *b as u64, &cells).unwrap();
        }
        for expected in 0..total as u64 {
            prop_assert_eq!(cam.pop_front(queue).unwrap().seq(), expected);
            prop_assert_eq!(lll.pop_front(queue).unwrap().seq(), expected);
        }
        prop_assert!(cam.pop_front(queue).is_none());
        prop_assert!(lll.pop_front(queue).is_none());
    }

    /// The DSS never issues a request to a bank that is still within the lock
    /// window of a previous issue, for any submission pattern.
    #[test]
    fn dss_never_issues_to_a_locked_bank(
        submissions in proptest::collection::vec((0u32..32, prop::bool::ANY), 1..200),
    ) {
        let mapper = AddressMapper::new(InterleavingConfig::new(32, 4, 32).unwrap());
        let mut dss = DramSchedulerSubsystem::new(mapper, 4, DsaPolicy::OldestFirst);
        let mut recent: Vec<(u64, dram_sim::BankId)> = Vec::new();
        let mut t = 0u64;
        let lock_window = 4u64; // issue opportunities a bank stays busy
        let mut pending = submissions.len();
        let mut iter = submissions.into_iter();
        while pending > 0 {
            if let Some((q, is_read)) = iter.next() {
                let queue = PhysicalQueueId::new(q);
                if is_read {
                    dss.submit_read(queue, t);
                } else {
                    dss.submit_write(queue, t);
                }
            }
            if let Some(issued) = dss.issue(t) {
                pending -= 1;
                for (when, bank) in &recent {
                    if t - when < lock_window * 4 {
                        prop_assert_ne!(*bank, issued.bank, "bank re-issued while busy");
                    }
                }
                recent.push((t, issued.bank));
            }
            t += 4;
            if t > 100_000 { break; }
        }
    }

    /// Renaming conserves blocks: everything written is read back exactly
    /// once, in FIFO order across the chained physical queues.
    #[test]
    fn renaming_conserves_blocks(
        writes in 1u64..200,
        num_groups in 1usize..=8,
        oversub in 1usize..=4,
    ) {
        let num_physical = 4 * oversub * num_groups;
        let mut table = RenamingTable::new(4, num_physical, num_groups);
        let preferred: Vec<GroupId> = (0..num_groups as u32).map(GroupId::new).collect();
        let q = LogicalQueueId::new(1);
        for _ in 0..writes {
            table.physical_for_write(q, |_| true, &preferred).unwrap();
            table.note_block_written(q);
        }
        prop_assert_eq!(table.blocks_in_dram(q), writes);
        let mut reads = 0u64;
        while table.physical_for_read(q).is_some() {
            table.note_block_read(q);
            reads += 1;
            prop_assert!(reads <= writes);
        }
        prop_assert_eq!(reads, writes);
        prop_assert_eq!(table.blocks_in_dram(q), 0);
    }

    /// `physical_for_write` over groups listed by ascending `(occupancy,
    /// index)` places a block exactly where `physical_for_write_ranked`
    /// ranked by occupancy does: the same name, the same chains and free
    /// lists afterwards.
    #[test]
    fn listed_and_ranked_write_placement_agree(
        num_groups in 1usize..=8,
        names_per_group in 1usize..=3,
        history in proptest::collection::vec((0u32..4, prop::bool::ANY, 0u32..256), 0..40),
        occupancy in proptest::collection::vec(0usize..6, 8..=8),
        room in 0u32..256,
        queue in 0u32..4,
    ) {
        // Prior allocations and releases under random room masks.
        let all: Vec<GroupId> = (0..num_groups as u32).map(GroupId::new).collect();
        let mut listed = RenamingTable::new(4, num_groups * names_per_group, num_groups);
        for (q, write, mask) in history {
            let q = LogicalQueueId::new(q);
            if write {
                if listed.physical_for_write(q, |g| mask >> g.index() & 1 == 1, &all).is_ok() {
                    listed.note_block_written(q);
                }
            } else if listed.physical_for_read(q).is_some() {
                listed.note_block_read(q);
            }
        }
        let mut ranked = listed.clone();
        let has_room = |g: GroupId| room >> g.index() & 1 == 1;
        let mut preferred = all.clone();
        preferred.sort_by_key(|g| (occupancy[g.index()], g.index()));
        let q = LogicalQueueId::new(queue);
        let by_list = listed.physical_for_write(q, has_room, &preferred);
        let by_rank =
            ranked.physical_for_write_ranked(q, None, has_room, |g| Some(occupancy[g.index()]));
        prop_assert_eq!(by_list, by_rank);
        prop_assert_eq!(format!("{listed:?}"), format!("{ranked:?}"));
    }
}

/// Drives `buffer` for `slots` slots with a deterministic workload derived
/// from `state`: a paced arrival stream and an admissible round-robin
/// request stream. Returns the sequence of granted `(queue, seq)` pairs so
/// two replicas can be compared grant by grant.
fn drive_deterministic(
    buffer: &mut dyn PacketBuffer,
    slots: u64,
    arrival_period: u64,
    seqs: &mut [u64],
    next_req: &mut u32,
) -> Vec<(u32, u64)> {
    let q = buffer.num_queues() as u64;
    let start = buffer.current_slot();
    let mut grants = Vec::new();
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
        let out = buffer.step(arrival, request);
        if let Some(cell) = out.granted {
            grants.push((cell.queue().index(), cell.seq()));
        }
    }
    grants
}

/// `advance_idle(n)` must be exactly equivalent to `n` empty `step` calls
/// from an *arbitrary mid-run state* — both immediately (slot/stats) and for
/// all future behaviour (a continued identical workload produces identical
/// grants, stats and per-queue requestability). One replica fast-forwards,
/// the other steps; any state divergence the fast-forward smuggled in would
/// surface in the postfix.
fn check_advance_idle_equivalence<B: PacketBuffer>(
    mut fast: B,
    mut stepped: B,
    prefix: u64,
    idle: u64,
    postfix: u64,
) {
    let q = fast.num_queues();
    let (mut seqs_a, mut seqs_b) = (vec![0u64; q], vec![0u64; q]);
    let (mut req_a, mut req_b) = (0u32, 0u32);
    let ga = drive_deterministic(&mut fast, prefix, 2, &mut seqs_a, &mut req_a);
    let gb = drive_deterministic(&mut stepped, prefix, 2, &mut seqs_b, &mut req_b);
    assert_eq!(ga, gb, "replicas diverged during the prefix");

    fast.advance_idle(idle);
    for _ in 0..idle {
        stepped.step(None, None);
    }
    assert_eq!(fast.current_slot(), stepped.current_slot());
    assert_eq!(fast.stats(), stepped.stats(), "stats diverged after idle");
    for qi in 0..q as u32 {
        let queue = LogicalQueueId::new(qi);
        assert_eq!(
            fast.requestable_cells(queue),
            stepped.requestable_cells(queue)
        );
    }

    let ga = drive_deterministic(&mut fast, postfix, 2, &mut seqs_a, &mut req_a);
    let gb = drive_deterministic(&mut stepped, postfix, 2, &mut seqs_b, &mut req_b);
    assert_eq!(ga, gb, "grants diverged after advance_idle");
    assert_eq!(fast.stats(), stepped.stats(), "stats diverged in postfix");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `advance_idle(n)` ≡ `n` empty steps for arbitrary mid-run states of
    /// all three designs (both the arithmetic fast-forward in quiescent
    /// states and the step-replay fallback in busy ones are exercised: short
    /// prefixes leave pipelines busy, long idles reach quiescence mid-way).
    #[test]
    fn advance_idle_equals_n_empty_steps(
        prefix in 0u64..2_000,
        idle in 0u64..3_000,
        postfix in 1u64..1_200,
    ) {
        let rads_cfg = RadsConfig {
            num_queues: 8,
            granularity: 4,
            lookahead: None,
        };
        check_advance_idle_equivalence(
            RadsBuffer::new(rads_cfg),
            RadsBuffer::new(rads_cfg),
            prefix,
            idle,
            postfix,
        );
        check_advance_idle_equivalence(
            DramOnlyBuffer::new(rads_cfg),
            DramOnlyBuffer::new(rads_cfg),
            prefix,
            idle,
            postfix,
        );
        let cfds_cfg = CfdsConfig::builder()
            .num_queues(8)
            .granularity(2)
            .rads_granularity(8)
            .num_banks(16)
            .build()
            .unwrap();
        check_advance_idle_equivalence(
            CfdsBuffer::new(cfds_cfg),
            CfdsBuffer::new(cfds_cfg),
            prefix,
            idle,
            postfix,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: for arbitrary admissible request interleavings over a
    /// preloaded CFDS buffer, no request ever misses and cells emerge in FIFO
    /// order (the buffer's internal verifier checks order).
    #[test]
    fn cfds_never_misses_for_arbitrary_admissible_request_patterns(
        pattern in proptest::collection::vec(0u32..8, 256..512),
        b in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let cfg = CfdsConfig::builder()
            .num_queues(8)
            .granularity(b)
            .rads_granularity(8)
            .num_banks(16)
            .build()
            .unwrap();
        let mut buf = CfdsBuffer::new(cfg);
        for q in 0..8u32 {
            let queue = LogicalQueueId::new(q);
            let cells: Vec<Cell> = (0..64).map(|s| Cell::new(queue, s, 0)).collect();
            buf.preload_dram(queue, cells);
        }
        let mut cursor = 0usize;
        let horizon = pattern.len() as u64 + buf.pipeline_delay_slots() as u64 + 1_024;
        for _t in 0..horizon {
            let mut request = None;
            if cursor < pattern.len() {
                let q = LogicalQueueId::new(pattern[cursor]);
                if buf.requestable_cells(q) > 0 {
                    request = Some(q);
                    cursor += 1;
                } else {
                    // Skip requests for drained queues; they are inadmissible.
                    cursor += 1;
                }
            }
            let out = buf.step(None, request);
            prop_assert!(out.miss.is_none());
        }
        prop_assert!(buf.stats().is_loss_free());
        prop_assert_eq!(buf.stats().order_violations, 0);
    }
}
