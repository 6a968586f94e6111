//! Workload generators for packet-buffer experiments.
//!
//! Two sides of a packet buffer are driven externally and this crate provides
//! generators for both:
//!
//! * **Arrivals** ([`ArrivalGenerator`]): cells coming from the transmission
//!   line, at most one per slot. Uniform, bursty (on/off), hotspot and
//!   deterministic round-robin patterns are provided.
//! * **Closed-loop sources** ([`ClosedLoopSource`]): reliable senders with
//!   per-flow sequence numbers, an AIMD congestion window and an RTO with
//!   exponential backoff — the reactive workloads that let a fabric prove it
//!   *recovers* from injected faults, not just degrades. Their exact arrival
//!   matrices can be recorded and replayed via [`MatrixTrace`].
//! * **Requests** ([`RequestGenerator`]): the switch-fabric arbiter asking for
//!   one cell per slot. The most important pattern is
//!   [`AdversarialRoundRobin`], the worst case of the ECQF analysis (§3): the
//!   scheduler drains all queues in lock-step so that they all run dry at the
//!   same time, putting maximum pressure on the MMA.
//!
//! Request generators implement [`pktbuf_model::RequestSource`], the trait a
//! buffer's batch loop drives, and receive a `requestable` oracle
//! ([`pktbuf_model::RequestOracle`]: a buffer's `RequestLedger`, or any
//! closure `Fn(LogicalQueueId) -> u64`) so that they never ask for a cell
//! that is not in the buffer's head path — the system-model assumption the
//! paper (and any real switch fabric) operates under.
//!
//! # Example
//!
//! ```
//! use traffic::AdversarialRoundRobin;
//! use pktbuf_model::{LogicalQueueId, RequestSource};
//!
//! let mut gen = AdversarialRoundRobin::new(4);
//! // All queues have cells available: requests cycle 0, 1, 2, 3, 0, …
//! let all = |_q: LogicalQueueId| 1u64;
//! assert_eq!(gen.next_request(0, &all).unwrap().index(), 0);
//! assert_eq!(gen.next_request(1, &all).unwrap().index(), 1);
//! assert_eq!(gen.next_request(2, &all).unwrap().index(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod closedloop;
mod requests;
mod seq;
mod trace;

pub use arrivals::{
    ArrivalGenerator, BurstyArrivals, HotspotArrivals, IncastArrivals, RoundRobinArrivals,
    UniformArrivals,
};
pub use closedloop::{
    ClosedLoopConfig, ClosedLoopSource, DemandPattern, MAX_CWND_CELLS, MAX_RTO_SLOTS,
};
pub use requests::{
    AdversarialRoundRobin, GreedyQueueDrain, HotspotRequests, RequestGenerator,
    UniformRandomRequests,
};
pub use seq::SeqTracker;
pub use trace::{MatrixTrace, MatrixTraceArrivals};

/// Derives the RNG seed for one stochastic stream of a workload from the
/// workload's base seed.
///
/// Every stochastic generator in this crate takes an explicit seed — there is
/// no hidden global state (`thread_rng`-style) anywhere — so a workload that
/// drives several independent streams (arrivals and requests, say) needs a
/// convention for deriving per-stream seeds from one base value. This is that
/// convention: stream `k` uses `base + k`. The workspace RNG seeds its
/// SplitMix64-style state through `SeedableRng::seed_from_u64`, for which
/// adjacent seeds produce statistically independent streams.
///
/// Arrival generators conventionally use stream 0 and request generators
/// stream 1, which is also what `sim`'s scenario layer does.
///
/// Note the corollary: *adjacent* base seeds overlap across roles
/// (`stream_seed(1, 1) == stream_seed(2, 0)`), so a multi-seed sweep that
/// wants fully independent replications should space its base seeds by more
/// than the number of streams in use — e.g. `[1, 101, 201]` rather than
/// `[1, 2, 3]`.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    base.wrapping_add(stream)
}

/// Derives the RNG seed for stream `stream` of *plane* `plane` — two-level
/// [`stream_seed`] for systems with whole groups of independent streams.
///
/// A multi-stage fabric has one stream per external port of every ingress
/// switch: flat `stream_seed(base, k)` indexing would make "switch 0,
/// port 1" collide with "switch 1, port 0" whenever the caller also sweeps
/// the geometry. Planes space their stream blocks `2³²` apart, so any
/// realistic per-plane stream count stays collision-free while plane 0
/// stream `k` remains exactly `stream_seed(base, k)` (existing single-plane
/// workloads are unchanged).
pub fn plane_seed(base: u64, plane: u64, stream: u64) -> u64 {
    base.wrapping_add(plane.wrapping_shl(32))
        .wrapping_add(stream)
}

/// Builds a preload set: `cells_per_queue` cells for each of `num_queues`
/// queues, with sequence numbers starting at zero. Use together with
/// [`SeqTracker::with_offset`] (or the generators' `with_seq_offset`
/// constructors) so that subsequent arrivals continue the numbering.
pub fn preload_cells(
    num_queues: usize,
    cells_per_queue: u64,
) -> Vec<(pktbuf_model::LogicalQueueId, Vec<pktbuf_model::Cell>)> {
    (0..num_queues as u32)
        .map(|q| {
            let queue = pktbuf_model::LogicalQueueId::new(q);
            let cells = (0..cells_per_queue)
                .map(|s| pktbuf_model::Cell::new(queue, s, 0))
                .collect();
            (queue, cells)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_cells_builds_per_queue_sequences() {
        let sets = preload_cells(3, 4);
        assert_eq!(sets.len(), 3);
        for (q, cells) in &sets {
            assert_eq!(cells.len(), 4);
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(c.queue(), *q);
                assert_eq!(c.seq(), i as u64);
            }
        }
    }

    #[test]
    fn stream_seeds_are_distinct_per_stream() {
        assert_eq!(stream_seed(7, 0), 7);
        assert_eq!(stream_seed(7, 1), 8);
        assert_ne!(stream_seed(7, 0), stream_seed(7, 1));
        // Wrapping, not panicking, at the top of the range.
        let _ = stream_seed(u64::MAX, 2);
    }

    #[test]
    fn plane_seeds_nest_stream_seeds_without_collisions() {
        // Plane 0 is plain stream seeding.
        assert_eq!(plane_seed(7, 0, 3), stream_seed(7, 3));
        // Distinct planes never collide for realistic stream counts.
        assert_ne!(plane_seed(7, 0, 1), plane_seed(7, 1, 0));
        assert_eq!(plane_seed(7, 1, 0) - plane_seed(7, 0, 0), 1 << 32);
        let _ = plane_seed(u64::MAX, u64::MAX, u64::MAX);
    }

    /// Every stochastic arrival generator must be bit-identical under the same
    /// seed and (overwhelmingly likely) different under different seeds.
    #[test]
    fn arrival_generators_are_deterministic_in_their_seed() {
        type Maker = fn(u64) -> Box<dyn ArrivalGenerator>;
        let makers: [(&str, Maker); 4] = [
            ("uniform", |s| Box::new(UniformArrivals::new(16, 0.7, s))),
            ("bursty", |s| {
                Box::new(BurstyArrivals::new(16, 24.0, 6.0, s))
            }),
            ("hotspot", |s| {
                Box::new(HotspotArrivals::new(16, 0.8, 2, 0.8, s))
            }),
            ("incast", |s| {
                Box::new(IncastArrivals::new(16, 0.8, 0, 0.5, s))
            }),
        ];
        for (name, make) in makers {
            let stream = |seed: u64| -> Vec<Option<(u32, u64)>> {
                let mut g = make(seed);
                (0..5_000)
                    .map(|t| g.next(t).map(|c| (c.queue().index(), c.seq())))
                    .collect()
            };
            assert_eq!(stream(42), stream(42), "{name}: same seed must replay");
            assert_ne!(stream(42), stream(43), "{name}: seeds must matter");
        }
    }

    /// The batch arrival API must replay the per-slot stream exactly — for
    /// the default `fill_arrivals` and for the RNG-batching override of
    /// `UniformArrivals` alike — regardless of chunk size or phase.
    #[test]
    fn fill_arrivals_matches_per_slot_stream() {
        type Maker = fn(u64) -> Box<dyn ArrivalGenerator>;
        let makers: [(&str, Maker); 5] = [
            ("uniform", |s| Box::new(UniformArrivals::new(16, 0.7, s))),
            ("bursty", |s| {
                Box::new(BurstyArrivals::new(16, 24.0, 6.0, s))
            }),
            ("hotspot", |s| {
                Box::new(HotspotArrivals::new(16, 0.8, 2, 0.8, s))
            }),
            ("incast", |s| {
                Box::new(IncastArrivals::new(16, 0.8, 0, 0.5, s))
            }),
            ("round-robin", |_| Box::new(RoundRobinArrivals::new(16))),
        ];
        for (name, make) in makers {
            for chunk in [1usize, 7, 97, 256] {
                let mut per_slot = make(42);
                let mut batched = make(42);
                let mut ring = vec![None; chunk];
                let mut base = 0u64;
                while base < 1_000 {
                    let produced = batched.fill_arrivals(base, &mut ring);
                    let mut seen = 0;
                    for (i, got) in ring.iter_mut().enumerate() {
                        let want = per_slot.next(base + i as u64);
                        seen += usize::from(got.is_some());
                        assert_eq!(
                            got.take(),
                            want,
                            "{name}: chunk {chunk}, slot {}",
                            base + i as u64
                        );
                    }
                    assert_eq!(produced, seen, "{name}: produced count");
                    base += chunk as u64;
                }
            }
        }
    }

    /// Same for the stochastic request generators (driven by a fully
    /// available oracle so the RNG is the only source of variation).
    #[test]
    fn request_generators_are_deterministic_in_their_seed() {
        fn assert_seeded<G: RequestGenerator>(make: impl Fn(u64) -> G) {
            let all = |_q: pktbuf_model::LogicalQueueId| 1u64;
            let stream = |seed: u64| -> Vec<Option<u32>> {
                let mut g = make(seed);
                (0..5_000)
                    .map(|t| g.next_request(t, &all).map(|q| q.index()))
                    .collect()
            };
            let name = make(0).name();
            assert_eq!(stream(42), stream(42), "{name}: same seed must replay");
            assert_ne!(stream(42), stream(43), "{name}: seeds must matter");
        }
        assert_seeded(|s| UniformRandomRequests::new(16, 0.7, s));
        assert_seeded(|s| HotspotRequests::new(16, 2, 0.8, s));
    }
}
