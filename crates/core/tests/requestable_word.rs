//! `SlotOutcome::requestable` is the requestable set as the arbiter's request
//! word: after every `step` of every design, direct and through the fabric's
//! `PortBuffer`, it equals the word built by probing `requestable_cells`
//! queue by queue — bit `q` for each queue `q < 64`, nothing for queue 64
//! and up. A crossbar keeps this word as an input's row instead of probing,
//! so a slot where the two differ would arbitrate on a stale set.
//!
//! Each run mixes random arrivals with oracle-respecting requests, from an
//! empty DRAM and from one preloaded with blocks of every queue, at Q = 16,
//! at Q = 64 (bit 63 is the last queue) and at Q = 65 (queue 64 must stay
//! out of the word).

use fabric::PortBuffer;
use pktbuf::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{Cell, CfdsConfig, LogicalQueueId, RadsConfig, RequestOracle};

const QUEUE_COUNTS: [usize; 3] = [16, 64, 65];
const SLOTS: u64 = 3_000;
/// Cells preloaded per queue: a whole number of blocks of every design.
const PRELOAD_CELLS: u64 = 16;

fn lq(i: usize) -> LogicalQueueId {
    LogicalQueueId::new(i as u32)
}

/// SplitMix64: any fixed stream does.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

fn rads_cfg(q: usize) -> RadsConfig {
    RadsConfig {
        num_queues: q,
        granularity: 4,
        lookahead: None,
    }
}

fn cfds_cfg(q: usize) -> CfdsConfig {
    CfdsConfig {
        num_queues: q,
        granularity: 2,
        rads_granularity: 8,
        num_banks: 16,
        ..CfdsConfig::default()
    }
}

/// The three designs, each built fresh and, with `preload`, given
/// [`PRELOAD_CELLS`] cells of every queue in its DRAM.
fn designs(q: usize, preload: bool) -> [PortBuffer; 3] {
    let cells = |queue: usize| -> Vec<Cell> {
        (0..PRELOAD_CELLS)
            .map(|seq| Cell::new(lq(queue), seq, 0))
            .collect()
    };
    let mut dram_only = DramOnlyBuffer::new(rads_cfg(q));
    let mut rads = RadsBuffer::new(rads_cfg(q));
    let mut cfds = CfdsBuffer::new(cfds_cfg(q));
    if preload {
        for queue in 0..q {
            dram_only.preload(lq(queue), cells(queue));
            rads.preload_dram(lq(queue), cells(queue));
            cfds.preload_dram(lq(queue), cells(queue));
        }
    }
    [dram_only.into(), rads.into(), cfds.into()]
}

/// The request word probed queue by queue, as a switch builds it.
fn probed<B: PacketBuffer>(buffer: &B) -> u64 {
    (0..buffer.num_queues().min(64)).fold(0, |word, queue| {
        word | u64::from(buffer.requestable_cells(lq(queue)) > 0) << queue
    })
}

/// Steps `buffer` through [`SLOTS`] slots of random arrivals (one slot in
/// two) and requests (three in four, each for the first requestable queue
/// from a random start), asserting after every step that the outcome's word
/// equals the probed one. Arrivals number each queue's cells from
/// `first_seq`. Returns whether the last queue was ever requestable, so the
/// caller knows the word edge was reached.
fn assert_word_tracks_probes<B: PacketBuffer>(
    mut buffer: B,
    what: &str,
    seed: u64,
    first_seq: u64,
) -> bool {
    let q = buffer.num_queues();
    let mut draw = Draw(seed);
    let mut next_seq = vec![first_seq; q];
    let mut last_queue_seen = false;
    for t in 0..SLOTS {
        let arrival = (draw.below(2) == 0).then(|| {
            let queue = draw.below(q as u64) as usize;
            next_seq[queue] += 1;
            Cell::new(lq(queue), next_seq[queue] - 1, t)
        });
        let start = draw.below(q as u64) as usize;
        let request = if draw.below(4) == 0 {
            None
        } else {
            let oracle = |queue: LogicalQueueId| buffer.requestable_cells(queue);
            oracle.first_from(start, q)
        };
        let outcome = buffer.step(arrival, request);
        let want = probed(&buffer);
        assert_eq!(
            outcome.requestable, want,
            "{what}: slot {t}: requestable word {:#x}, probes give {want:#x}",
            outcome.requestable
        );
        last_queue_seen |= buffer.requestable_cells(lq(q - 1)) > 0;
    }
    last_queue_seen
}

#[test]
fn the_outcome_word_equals_the_probed_word_after_every_step() {
    for q in QUEUE_COUNTS {
        for preload in [false, true] {
            let label = if preload { "preloaded" } else { "empty" };
            let first_seq = if preload { PRELOAD_CELLS } else { 0 };
            for (k, port) in designs(q, preload).into_iter().enumerate() {
                let design = port.design_name();
                let seed = (q as u64) << 8 | (k as u64) << 1 | u64::from(preload);
                let what = format!("{design}, Q = {q}, {label}");
                let edge = match port {
                    PortBuffer::DramOnly(b) => assert_word_tracks_probes(b, &what, seed, first_seq),
                    PortBuffer::Rads(b) => assert_word_tracks_probes(b, &what, seed, first_seq),
                    PortBuffer::Cfds(b) => assert_word_tracks_probes(b, &what, seed, first_seq),
                };
                assert!(edge, "{what}: queue {} never became requestable", q - 1);
            }
            for (k, port) in designs(q, preload).into_iter().enumerate() {
                let what = format!("PortBuffer({}), Q = {q}, {label}", port.design_name());
                let seed = (q as u64) << 8 | (k as u64) << 1 | u64::from(preload) | 0x80;
                let edge = assert_word_tracks_probes(port, &what, seed, first_seq);
                assert!(edge, "{what}: queue {} never became requestable", q - 1);
            }
        }
    }
}
