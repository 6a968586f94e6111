//! The slot-level simulation engine.

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

use pktbuf::{BufferStats, GrantSink, PacketBuffer};
use pktbuf_model::{Cell, LogicalQueueId};
use serde::{Serialize, Serializer};
use traffic::{ArrivalGenerator, RequestGenerator};

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Design under test ("RADS", "CFDS", "DRAM-only"). Backed by the
    /// buffer's static name — reports are built once per run and must not
    /// allocate a fresh `String` each time.
    pub design: &'static str,
    /// Name of the arrival generator ([`ArrivalGenerator::name`]).
    pub arrivals: &'static str,
    /// Name of the request generator ([`RequestGenerator::name`]). JSON
    /// writes the two names as one `"workload": "{arrivals}+{requests}"`
    /// field, built at serialization so that building a report allocates
    /// nothing.
    pub requests: &'static str,
    /// Slots simulated, including the drain phase.
    pub slots: u64,
    /// Buffer statistics at the end of the run.
    pub stats: BufferStats,
    /// Queue indices of granted cells, in grant order (recorded only when
    /// requested; used to compare designs cell by cell).
    pub grant_log: Option<Vec<u32>>,
}

// Hand-written (the derive has no computed fields): `workload` joins the
// two generator names and `grants_per_slot` is derived from the counters.
// Reports are write-only: there is no Deserialize.
impl Serialize for SimulationReport {
    #[expect(clippy::disallowed_macros, reason = "serialization, once per report")]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("SimulationReport", 6)?;
        st.serialize_field("design", &self.design)?;
        st.serialize_field("workload", &format!("{}+{}", self.arrivals, self.requests))?;
        st.serialize_field("slots", &self.slots)?;
        st.serialize_field("grants_per_slot", &self.grants_per_slot())?;
        st.serialize_field("stats", &self.stats)?;
        st.serialize_field("grant_log", &self.grant_log)?;
        st.end()
    }
}

impl SimulationReport {
    /// Throughput in grants per slot over the whole run.
    pub fn grants_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.stats.grants as f64 / self.slots as f64
        }
    }
}

/// Drives a packet buffer with workload generators.
///
/// The engine is generic over the buffer type: [`SimulationEngine::new_mono`]
/// monomorphises the whole slot loop — no per-slot virtual dispatch.
///
/// Two loop shapes exist: [`SimulationEngine::run`] is the slot-by-slot
/// reference and [`SimulationEngine::run_chunked`] is the production batch
/// engine (chunked arrival generation, fused `step_batch` loops, idle
/// fast-forward). Both produce bit-identical reports, pinned by the
/// `chunked_equivalence` test suite.
pub struct SimulationEngine<'a, B: PacketBuffer> {
    buffer: &'a mut B,
    record_grants: bool,
}

impl<'a, B: PacketBuffer> std::fmt::Debug for SimulationEngine<'a, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationEngine")
            .field("design", &self.buffer.design_name())
            .field("slot", &self.buffer.current_slot())
            .finish()
    }
}

impl<'a, B: PacketBuffer> SimulationEngine<'a, B> {
    /// Creates an engine around `buffer`, its slot loops monomorphized over
    /// the buffer type.
    pub fn new_mono(buffer: &'a mut B) -> Self {
        SimulationEngine {
            buffer,
            record_grants: false,
        }
    }

    /// Records the queue of every granted cell in the report (needed by the
    /// cross-design equivalence tests).
    pub fn record_grants(mut self, record: bool) -> Self {
        self.record_grants = record;
        self
    }

    /// Runs the workload **slot by slot**: `active_slots` slots with both
    /// generators running, followed by a drain phase (arrivals stop, requests
    /// continue while any queue still has requestable cells, then the
    /// pipeline empties).
    ///
    /// This is the reference engine. [`SimulationEngine::run_chunked`]
    /// produces bit-identical reports by processing slots in batches; the
    /// `chunked_equivalence` suite pins the two together.
    ///
    /// The request oracle is a `&dyn Fn` over
    /// [`PacketBuffer::requestable_cells`]: the generator probes it queue by
    /// queue (the linear probe the buffers' mask scan is tested against),
    /// one virtual call a probe — the reference cost that
    /// `sim.per_slot_engine_ratio` compares the chunked engine to.
    ///
    /// Generators observe the **buffer clock**: the slot number passed to
    /// `arrivals.next` / `requests.next_request` is `buffer.current_slot()` at that
    /// slot, so driving a warm (already-stepped) buffer continues the slot
    /// numbering instead of restarting it — the same convention the chunked
    /// engine's fused batch loops follow, which is what keeps the two
    /// engines bit-identical for slot-sensitive generators.
    pub fn run<A: ArrivalGenerator + ?Sized, R: RequestGenerator>(
        self,
        arrivals: &mut A,
        requests: &mut R,
        active_slots: u64,
    ) -> SimulationReport {
        #[expect(clippy::disallowed_methods, reason = "once per run, before the loop")]
        let mut grant_log = self.record_grants.then(Vec::new);
        let buffer = self.buffer;
        // The drain flush horizon is a fixed property of the pipeline; query
        // it once instead of once per drain decision.
        let flush = buffer.pipeline_delay_slots() as u64 + 4;
        let start = buffer.current_slot();

        for t in start..start + active_slots {
            let arrival = arrivals.next(t);
            let request = {
                let probe = &*buffer;
                let oracle: &dyn Fn(LogicalQueueId) -> u64 = &|q| probe.requestable_cells(q);
                requests.next_request(t, oracle)
            };
            let outcome = buffer.step(arrival, request);
            if let (Some(log), Some(cell)) = (grant_log.as_mut(), &outcome.granted) {
                log.push(cell.queue().index());
            }
        }

        // Drain: request whatever is still requestable, then flush the
        // pipeline.
        let mut t = start + active_slots;
        let mut idle_streak = 0u64;
        while idle_streak <= flush {
            let request = {
                let probe = &*buffer;
                let oracle: &dyn Fn(LogicalQueueId) -> u64 = &|q| probe.requestable_cells(q);
                requests.next_request(t, oracle)
            };
            if request.is_none() {
                idle_streak += 1;
            } else {
                idle_streak = 0;
            }
            let outcome = buffer.step(None, request);
            if let (Some(log), Some(cell)) = (grant_log.as_mut(), &outcome.granted) {
                log.push(cell.queue().index());
            }
            t += 1;
        }

        SimulationReport {
            design: buffer.design_name(),
            arrivals: arrivals.name(),
            requests: requests.name(),
            slots: buffer.current_slot(),
            stats: *buffer.stats(),
            grant_log,
        }
    }
}

/// Slots per chunk of the chunked engine. Sized so a chunk's arrival ring
/// (256 × `Option<Cell>`) lives comfortably in L1/L2 and on the stack, while
/// the per-chunk bookkeeping (fast-forward probe, debug cross-check) is
/// amortised over enough slots to vanish.
pub const CHUNK_SLOTS: usize = 256;

/// Debug-build differential hook: captures buffer/sink counters at a chunk
/// boundary and cross-checks the chunked path's accounting after the chunk —
/// every slot must be stepped (or arithmetically skipped) exactly once, and
/// every grant the buffer counted must have reached the sink when recording.
struct ChunkCheck {
    #[cfg(debug_assertions)]
    slot: u64,
    #[cfg(debug_assertions)]
    grants: u64,
    #[cfg(debug_assertions)]
    recorded: usize,
}

impl ChunkCheck {
    #[cfg(debug_assertions)]
    fn before<B: PacketBuffer>(buffer: &B, sink: &GrantSink) -> Self {
        ChunkCheck {
            slot: buffer.current_slot(),
            grants: buffer.stats().grants,
            recorded: sink.recorded(),
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn before<B: PacketBuffer>(_buffer: &B, _sink: &GrantSink) -> Self {
        ChunkCheck {}
    }

    #[cfg(debug_assertions)]
    fn after<B: PacketBuffer>(self, buffer: &B, sink: &GrantSink, slots: u64) {
        debug_assert_eq!(
            buffer.current_slot(),
            self.slot + slots,
            "chunked engine lost or duplicated slots"
        );
        debug_assert_eq!(
            buffer.stats().slots,
            buffer.current_slot(),
            "buffer slot statistics diverged from the clock"
        );
        if sink.is_recording() {
            debug_assert_eq!(
                (sink.recorded() - self.recorded) as u64,
                buffer.stats().grants - self.grants,
                "chunked engine dropped grants from the log"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn after<B: PacketBuffer>(self, _buffer: &B, _sink: &GrantSink, _slots: u64) {}
}

impl<'a, B: PacketBuffer> SimulationEngine<'a, B> {
    /// Runs the workload through the **chunked** engine: arrivals are
    /// generated a whole chunk at a time into a stack ring
    /// ([`traffic::ArrivalGenerator::fill_arrivals`]), each chunk is executed
    /// by one [`pktbuf::PacketBuffer::step_batch`] call (the designs' fused
    /// batch loops), and chunks in which provably nothing can happen — no
    /// arrivals, nothing requestable, quiescent pipeline — are skipped in
    /// O(1) via [`pktbuf::PacketBuffer::advance_idle`]. The drain phase is
    /// chunked the same way and its tail (the fixed pipeline flush after the
    /// last request) collapses to a single fast-forward.
    ///
    /// The report is bit-identical to [`SimulationEngine::run`] on the same
    /// inputs: batch loops replay the exact slot sequence — generators
    /// observe the buffer clock in both engines — and a fast-forward is
    /// taken only when the skipped calls are unobservable (the request
    /// generator contract — never request an empty queue — plus, during the
    /// active phase, [`pktbuf::RequestSource::idle_skippable`]). Debug
    /// builds cross-check the accounting at every chunk boundary.
    pub fn run_chunked<A: ArrivalGenerator + ?Sized, R: RequestGenerator>(
        self,
        arrivals: &mut A,
        requests: &mut R,
        active_slots: u64,
    ) -> SimulationReport {
        let mut sink = GrantSink::new(self.record_grants);
        let buffer = self.buffer;
        // The drain flush horizon is a fixed property of the pipeline; query
        // it once instead of once per drain decision.
        let flush = buffer.pipeline_delay_slots() as u64 + 4;
        let start = buffer.current_slot();
        let mut ring: [Option<Cell>; CHUNK_SLOTS] = std::array::from_fn(|_| None);

        // Active phase.
        let mut done = 0u64;
        while done < active_slots {
            let len = CHUNK_SLOTS.min((active_slots - done) as usize);
            let chunk = &mut ring[..len];
            // Arrivals, like requests, observe the buffer clock.
            let produced = arrivals.fill_arrivals(start + done, chunk);
            let check = ChunkCheck::before(buffer, &sink);
            if produced == 0
                && requests.idle_skippable()
                && buffer.is_quiescent()
                && buffer.requestable_total() == 0
            {
                // Nothing can happen in this chunk: no arrival, a frozen
                // (empty) requestable set — so a skippable generator returns
                // `None` throughout — and a pipeline with nothing in flight.
                buffer.advance_idle(len as u64);
            } else {
                buffer.step_batch(chunk, requests, &mut sink);
            }
            check.after(buffer, &sink, len as u64);
            done += len as u64;
        }

        // Drain: request whatever is still requestable, then flush the
        // pipeline. Chunks never outrun the reference termination rule
        // ("stop after `flush + 1` consecutive request-less slots"): each is
        // capped at the remaining request-less budget, so the rule can only
        // trip exactly at a chunk boundary.
        let mut idle_streak = 0u64;
        while idle_streak <= flush {
            if buffer.is_quiescent() && buffer.requestable_total() == 0 {
                // The requestable set is frozen at zero, so *any*
                // contract-abiding generator returns `None` for every
                // remaining slot (and the run ends, so skipped RNG draws are
                // unobservable): fast-forward the rest of the flush.
                let check = ChunkCheck::before(buffer, &sink);
                let remaining = flush + 1 - idle_streak;
                buffer.advance_idle(remaining);
                check.after(buffer, &sink, remaining);
                break;
            }
            let len = CHUNK_SLOTS.min((flush + 1 - idle_streak) as usize);
            let chunk = &mut ring[..len];
            let check = ChunkCheck::before(buffer, &sink);
            let batch = buffer.step_batch(chunk, requests, &mut sink);
            check.after(buffer, &sink, len as u64);
            idle_streak = if batch.requests > 0 {
                batch.trailing_requestless
            } else {
                idle_streak + len as u64
            };
        }

        SimulationReport {
            design: buffer.design_name(),
            arrivals: arrivals.name(),
            requests: requests.name(),
            slots: buffer.current_slot(),
            stats: *buffer.stats(),
            grant_log: sink.into_log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf::{CfdsBuffer, PacketBuffer, RadsBuffer};
    use pktbuf_model::{CfdsConfig, RadsConfig, RequestOracle, RequestSource};
    use traffic::{AdversarialRoundRobin, UniformArrivals};

    /// A shipped generator under a name of its own, as a custom generator
    /// outside the `traffic` crate would have.
    struct Renamed<G>(G);

    impl<G: ArrivalGenerator> ArrivalGenerator for Renamed<G> {
        fn next(&mut self, slot: u64) -> Option<Cell> {
            self.0.next(slot)
        }

        fn num_queues(&self) -> usize {
            self.0.num_queues()
        }

        fn name(&self) -> &'static str {
            "replayed"
        }
    }

    impl<G: RequestSource> RequestSource for Renamed<G> {
        fn next_request<O>(&mut self, slot: u64, requestable: &O) -> Option<LogicalQueueId>
        where
            O: RequestOracle + ?Sized,
        {
            self.0.next_request(slot, requestable)
        }

        fn idle_skippable(&self) -> bool {
            self.0.idle_skippable()
        }
    }

    impl<G: RequestSource> RequestGenerator for Renamed<G> {
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    #[test]
    fn custom_generators_name_the_workload() {
        let cfg = RadsConfig {
            num_queues: 4,
            granularity: 4,
            lookahead: None,
        };
        for chunked in [false, true] {
            let mut buf = RadsBuffer::new(cfg);
            let engine = SimulationEngine::new_mono(&mut buf);
            let mut arrivals = Renamed(UniformArrivals::new(4, 0.5, 3));
            let mut requests = Renamed(AdversarialRoundRobin::new(4));
            let report = if chunked {
                engine.run_chunked(&mut arrivals, &mut requests, 500)
            } else {
                engine.run(&mut arrivals, &mut requests, 500)
            };
            assert_eq!((report.arrivals, report.requests), ("replayed", "scripted"));
            let json = serde_json::to_string(&report).unwrap();
            assert!(
                json.starts_with(r#"{"design":"RADS","workload":"replayed+scripted","slots":"#),
                "{json}"
            );
        }
    }

    #[test]
    fn scenario_workloads_resolve_to_known_labels() {
        // Every generator pair a `Scenario` can build reports one of the
        // workload labels reports and CSVs have always carried.
        const ARRIVALS: [&str; 5] = [
            "uniform",
            "bursty",
            "hotspot",
            "round-robin",
            "preload-only",
        ];
        const REQUESTS: [&str; 4] = [
            "adversarial-round-robin",
            "uniform-random",
            "greedy-queue-drain",
            "hotspot",
        ];
        for workload in crate::scenario::Workload::all() {
            for (arrival_slots, preload) in [(300, 0), (0, 16)] {
                let report = crate::scenario::Scenario {
                    workload,
                    arrival_slots,
                    preload_cells_per_queue: preload,
                    ..crate::scenario::Scenario::small_cfds()
                }
                .run();
                assert!(
                    ARRIVALS.contains(&report.arrivals) && REQUESTS.contains(&report.requests),
                    "{workload:?} (live={}) reports {:?}+{:?}, not a known label",
                    arrival_slots > 0,
                    report.arrivals,
                    report.requests
                );
                assert_eq!(
                    report.arrivals == "preload-only",
                    arrival_slots == 0,
                    "{workload:?}"
                );
                let json = serde_json::to_string(&report).unwrap();
                let label = format!(r#""workload":"{}+{}""#, report.arrivals, report.requests);
                assert!(json.contains(&label), "{json}");
            }
        }
    }

    #[test]
    fn engine_runs_rads_end_to_end() {
        let cfg = RadsConfig {
            num_queues: 4,
            granularity: 4,
            lookahead: None,
        };
        let mut buf = RadsBuffer::new(cfg);
        let report = SimulationEngine::new_mono(&mut buf)
            .record_grants(true)
            .run(
                &mut UniformArrivals::new(4, 0.8, 42),
                &mut AdversarialRoundRobin::new(4),
                2_000,
            );
        assert_eq!(report.design, "RADS");
        assert_eq!(
            (report.arrivals, report.requests),
            ("uniform", "adversarial-round-robin")
        );
        assert!(report.stats.is_loss_free(), "{:?}", report.stats);
        assert!(report.stats.grants > 0);
        assert!(report.grants_per_slot() > 0.0);
        assert_eq!(
            report.grant_log.as_ref().unwrap().len() as u64,
            report.stats.grants
        );
    }

    #[test]
    fn engine_runs_cfds_end_to_end() {
        let cfg = CfdsConfig {
            num_queues: 4,
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            ..CfdsConfig::default()
        };
        cfg.validate().unwrap();
        let mut buf = CfdsBuffer::new(cfg);
        let report = SimulationEngine::new_mono(&mut buf).run(
            &mut UniformArrivals::new(4, 0.8, 7),
            &mut AdversarialRoundRobin::new(4),
            2_000,
        );
        assert_eq!(report.design, "CFDS");
        assert!(report.stats.is_loss_free(), "{:?}", report.stats);
        assert_eq!(report.stats.bank_conflicts, 0);
        assert!(report.grant_log.is_none());
        assert_eq!(buf.stats().grants, report.stats.grants);
    }
}
