//! The two kinds of child process a run is made of.
//!
//! An *end-to-end child* measures one workload with the program's own types
//! and nothing else in the process: a set-up batch, then the timed
//! repetitions. A *traced child* is the separate, slower run
//! that produces every per-layer metric and the trace file; no end-to-end
//! metric is ever read from it. Each prints one JSON object as its last line
//! of standard output, which the parent parses.

use crate::host::{self, CalibReading, Calibration};
use crate::instrument::{Bare, Collected, Timed, Tracing};
use crate::json::{num, obj, strings, uint};
use crate::layers;
use crate::spans::{Recorder, Span};
use crate::stats::{fnv1a, iqr_over_median, lower_quartile, median};
use crate::workloads::{self, Engine, Outcome, Workload};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

fn run_bare<W: Workload>(seed: u64, slots: u64, rec: &mut Recorder) -> Outcome {
    W::run(W::build(seed, slots, &Bare), rec)
}

/// Cuts the run calls `spans` into the intervals between consecutive clock
/// `stamps` (ascending): per run call, start to first stamp, stamp to
/// stamp, last stamp to end. The durations add up to the spans' own.
fn segments_ns(spans: &[Span], stamps: &[u64]) -> Vec<u64> {
    let mut segments = Vec::with_capacity(stamps.len() + spans.len());
    for span in spans {
        let mut at = span.start_ns;
        for stamp in stamps
            .iter()
            .filter(|s| (span.start_ns..=span.end_ns).contains(*s))
        {
            segments.push(stamp - at);
            at = *stamp;
        }
        segments.push(span.end_ns - at);
    }
    segments
}

/// One end-to-end child: returns the JSON the parent aggregates.
pub fn end_to_end<W: Workload>(seed: u64) -> Value {
    let slots = W::ACTIVE_SLOTS;

    // Set-up: construct the whole object graph `SETUP_BATCH` times, timing
    // each construction (tens to hundreds of microseconds, against a clock
    // pair of 25 ns), and report the lower quartile of the batch: the first
    // constructions of a process pay its page faults, and a noisy spell
    // slows a stretch of them.
    let mut setup_ns = Vec::with_capacity(W::SETUP_BATCH as usize);
    for _ in 0..W::SETUP_BATCH {
        let start = Instant::now();
        let graph = black_box(W::build(seed, slots, &Bare));
        setup_ns.push(start.elapsed().as_nanos() as f64);
        drop(graph);
    }
    let setup_ns = lower_quartile(&setup_ns);

    // Every repetition is timed, the first included: a fresh process pays
    // page faults and cold caches once, and the run's value — per segment,
    // the fastest sample over all repetitions — lands on a first
    // repetition's segment only when the host was noisier still for every
    // other. The first repetition's outputs are the reference the others
    // must reproduce. The child reports each repetition's total and, per
    // segment, the fastest sample it saw: the parent takes the minimum over
    // children, so nothing is lost by taking it over repetitions here.
    let timed = Timed::new(W::MARK_EVERY);
    let mut rec = Recorder::default();
    let mut reference: Option<Outcome> = None;
    let mut failed_checks = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut rep_ns = Vec::new();
    let mut fastest: Vec<u64> = Vec::new();
    for _ in 0..W::REPS_PER_CHILD {
        let first_span = rec.spans().len();
        let out = W::run(W::build(seed, slots, &timed), &mut rec);
        let segments = segments_ns(&rec.spans()[first_span..], &timed.take());
        rep_ns.push(uint(segments.iter().sum()));
        if fastest.is_empty() {
            fastest = segments;
        } else if fastest.len() == segments.len() {
            for (f, s) in fastest.iter_mut().zip(segments) {
                *f = s.min(*f);
            }
        } else {
            failed_checks.push("every repetition crosses the same slot marks");
        }
        failed_checks.extend(out.failed_checks.iter().copied());
        attempted += out.ops_attempted;
        failed += out.ops_failed;
        match &reference {
            None => reference = Some(out),
            Some(first) if first.report_json != out.report_json => {
                failed_checks.push("every repetition reproduces the first one's report");
            }
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one repetition ran");
    let fingerprint = fnv1a(reference.report_json.as_bytes());

    obj([
        ("pid", uint(u64::from(std::process::id()))),
        (
            "cpus",
            Value::Array(
                host::allowed_cpus()
                    .into_iter()
                    .map(|cpu| uint(cpu as u64))
                    .collect(),
            ),
        ),
        ("setup_ns", num(setup_ns)),
        ("rep_ns", Value::Array(rep_ns)),
        (
            "fastest_segments_ns",
            Value::Array(fastest.into_iter().map(uint).collect()),
        ),
        ("buffer_steps", uint(reference.buffer_steps)),
        ("peak_rss_mib", num(host::peak_rss_mib())),
        ("sim_fingerprint", uint(fingerprint)),
        (
            "sim_cells_per_port_slot",
            num(reference.delivered_cells as f64 / reference.port_slots as f64),
        ),
        ("sim_latency_max_slots", uint(reference.latency_max_slots)),
        ("ops_attempted", uint(attempted)),
        ("ops_failed", uint(failed)),
        ("failed_checks", strings(&failed_checks)),
    ])
}

/// Sums of what the traced repetitions saw.
#[derive(Default)]
struct TracedTotals {
    /// Every repetition's wrapper totals, appended.
    collected: Collected,
    run_span_ns: f64,
    slots: u64,
    buffer_steps: u64,
    last: Outcome,
}

impl TracedTotals {
    fn add(&mut self, collected: Collected) {
        self.collected.buffers.extend(collected.buffers);
        self.collected.fills.extend(collected.fills);
    }

    /// Host ns per simulated slot the run calls spent outside the buffers
    /// and the generators: the self time of the layer that made the calls.
    fn self_ns_per_slot(&self) -> f64 {
        let children =
            self.collected.all_buffers().busy_ns() + self.collected.all_fills().fill.busy_ns;
        (self.run_span_ns - children) / self.slots.max(1) as f64
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs one traced repetition under `rec`: a `bench.rep` span holding
/// `bench.build` and the run calls, with every layer's aggregated busy time
/// attached to the run call that caused it.
fn traced_rep<W: Workload>(
    seed: u64,
    slots: u64,
    rep: u32,
    tracing: &Tracing,
    rec: &mut Recorder,
    totals: &mut TracedTotals,
) -> f64 {
    rec.set_rep(rep);
    let first_span = rec.spans().len();
    let rep_span = rec.enter("bench.rep");
    let build_span = rec.enter("bench.build");
    let graph = W::build(seed, slots, tracing);
    rec.exit(build_span);
    // `run` consumes the graph, so every wrapper has flushed when it returns.
    let out = W::run(graph, rec);
    rec.exit(rep_span);
    let collected = tracing.take();

    let run_spans: Vec<u32> = rec.spans()[first_span..]
        .iter()
        .filter(|s| s.parent == Some(first_span as u32) && s.name != "bench.build")
        .map(|s| s.id)
        .collect();
    // One run call: every child belongs to it. Several (the buffer
    // workloads run RADS, then CFDS): entry `i` of the creation-ordered
    // lists belongs to run call `i`.
    let paired = run_spans.len() > 1
        && collected.buffers.len() == run_spans.len()
        && collected.fills.len() == run_spans.len();
    for (i, (_, b)) in collected.buffers.iter().enumerate() {
        let parent = run_spans[if paired { i } else { 0 }];
        for (name, stat) in [
            ("pktbuf.step", b.step),
            ("pktbuf.step_batch", b.step_batch),
            ("pktbuf.advance_idle", b.advance_idle),
            ("pktbuf.idle_probes", b.probes),
        ] {
            if stat.calls > 0 {
                rec.add_aggregated(parent, name, stat.calls, stat.busy_ns);
            }
        }
    }
    if paired {
        for (i, f) in collected.fills.iter().enumerate() {
            rec.add_aggregated(
                run_spans[i],
                "traffic.fill_arrivals",
                f.fill.calls,
                f.fill.busy_ns,
            );
        }
    } else if !collected.fills.is_empty() {
        let f = collected.all_fills();
        rec.add_aggregated(
            run_spans[0],
            "traffic.fill_arrivals",
            f.fill.calls,
            f.fill.busy_ns,
        );
    }
    for chunk in &collected.chunk_spans {
        rec.add_measured(chunk.name, chunk.start_ns, chunk.end_ns);
    }

    totals.run_span_ns += out.run_ns as f64;
    totals.slots += out.slots;
    totals.buffer_steps += out.buffer_steps;
    totals.add(collected);
    let ns_per_step = out.run_ns as f64 / out.buffer_steps as f64;
    totals.last = out;
    ns_per_step
}

/// Times `a` and `b` alternately (`a b b a …`) for `pairs` pairs and
/// returns the median of the per-pair ratios `b / a`: each pair shares
/// whatever the host was doing at that moment.
fn paired_ratio(pairs: u32, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let mut ratios = Vec::new();
    for pair in 0..pairs {
        let (ta, tb) = if pair % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        ratios.push(ratio(tb, ta));
    }
    median(&ratios)
}

/// ns per buffer-step of a dense standalone run (uniform arrivals at
/// `load`, adversarial round-robin requests) of one buffer of a fabric's
/// port configuration: the base of `fabric.step_overhead_ratio`.
fn dense_standalone_ns_per_step<B: pktbuf::PacketBuffer>(
    build: impl Fn() -> B,
    queues: usize,
    load: f64,
    seed: u64,
) -> f64 {
    const SLOTS: u64 = 400_000;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut buffer = build();
        let mut arrivals = traffic::UniformArrivals::new(
            queues,
            load,
            traffic::stream_seed(workloads::seed_base(seed), 0),
        );
        let mut requests = traffic::AdversarialRoundRobin::new(queues);
        let start = Instant::now();
        let report = sim::SimulationEngine::new_mono(&mut buffer).run_chunked(
            &mut arrivals,
            &mut requests,
            SLOTS,
        );
        samples.push(start.elapsed().as_nanos() as f64 / report.slots as f64);
    }
    lower_quartile(&samples)
}

/// The probes that only make sense on one workload; every other workload
/// reports 0 for them.
fn workload_probes<W: Workload>(
    seed: u64,
    pairs: u32,
    untraced_ns_per_step: f64,
    totals: &TracedTotals,
    tracing: &Tracing,
) -> Vec<(&'static str, f64)> {
    let mut probes = vec![
        ("sim.engine_self_ns_per_slot", 0.0),
        ("sim.per_slot_engine_ratio", 0.0),
        ("fabric.switch_self_ns_per_slot", 0.0),
        ("fabric.clos_self_ns_per_slot", 0.0),
        ("fabric.transport_extra_ns_per_slot", 0.0),
        ("fabric.step_overhead_ratio", 0.0),
        ("fabric.clos_workers2_ratio", 0.0),
        ("obs.armed_overhead_ratio", 0.0),
    ];
    let mut set = |name: &str, value: f64| {
        let slot = probes
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("probe names are listed above");
        slot.1 = value;
    };
    let time_outcome = |out: Outcome| out.run_ns as f64 / out.buffer_steps as f64;
    let clos = workloads::clos_scenario();
    match W::NAME {
        workloads::BufWorstcase::NAME | workloads::BufBurstyIdle::NAME => {
            set("sim.engine_self_ns_per_slot", totals.self_ns_per_slot());
            // The per-slot reference engine cannot fast-forward; an eighth
            // of the slots keeps the probe near a second on the idle
            // workload.
            let slots = if W::NAME == workloads::BufBurstyIdle::NAME {
                W::ACTIVE_SLOTS / 8
            } else {
                W::ACTIVE_SLOTS
            };
            let engine_time = |engine: Engine| {
                let mut rec = Recorder::default();
                let out = if W::NAME == workloads::BufWorstcase::NAME {
                    workloads::run_buffers(
                        workloads::BufWorstcase::build(seed, slots, &Bare),
                        &mut rec,
                        engine,
                    )
                } else {
                    workloads::run_buffers(
                        workloads::BufBurstyIdle::build(seed, slots, &Bare),
                        &mut rec,
                        engine,
                    )
                };
                time_outcome(out)
            };
            set(
                "sim.per_slot_engine_ratio",
                paired_ratio(
                    pairs,
                    || engine_time(Engine::Chunked),
                    || engine_time(Engine::PerSlot),
                ),
            );
        }
        workloads::SwitchIslip::NAME => {
            set("fabric.switch_self_ns_per_slot", totals.self_ns_per_slot());
            let scenario = workloads::switch_scenario();
            let config = scenario
                .try_cfds_config()
                .expect("the switch design point is valid");
            let base = dense_standalone_ns_per_step(
                || pktbuf::CfdsBuffer::new(config),
                scenario.ports,
                scenario.load(),
                seed,
            );
            set(
                "fabric.step_overhead_ratio",
                ratio(untraced_ns_per_step, base),
            );
        }
        workloads::ClosUniform::NAME => {
            set("fabric.clos_self_ns_per_slot", totals.self_ns_per_slot());
            let base = dense_standalone_ns_per_step(
                || pktbuf::RadsBuffer::new(clos.rads_config(clos.radix)),
                clos.radix,
                clos.load(),
                seed,
            );
            set(
                "fabric.step_overhead_ratio",
                ratio(untraced_ns_per_step, base),
            );
            let slots = W::ACTIVE_SLOTS / 2;
            let open = |workers: usize, armed: bool| {
                let mut graph = workloads::build_open_clos(&clos, seed, slots, &Bare);
                if armed {
                    graph
                        .fabric
                        .arm_obs(&sim::clos::ObsScenario::standard().to_config());
                }
                time_outcome(workloads::run_open_clos(
                    graph,
                    &mut Recorder::default(),
                    workers,
                ))
            };
            set(
                "fabric.clos_workers2_ratio",
                paired_ratio(pairs, || open(1, false), || open(2, false)),
            );
            set(
                "obs.armed_overhead_ratio",
                paired_ratio(pairs, || open(1, false), || open(1, true)),
            );
        }
        workloads::ClosTransportFaults::NAME => {
            // `run` on the transport geometry (cut-through buffers), traced:
            // its self time is what `run_transport`'s is compared with.
            let cut = workloads::cut_through_clos_scenario();
            let mut open_totals = TracedTotals::default();
            let mut rec = Recorder::default();
            let graph = workloads::build_open_clos(&cut, seed, W::ACTIVE_SLOTS, tracing);
            let out = workloads::run_open_clos(graph, &mut rec, 1);
            open_totals.run_span_ns = out.run_ns as f64;
            open_totals.slots = out.slots;
            open_totals.add(tracing.take());
            set(
                "fabric.clos_self_ns_per_slot",
                open_totals.self_ns_per_slot(),
            );
            set(
                "fabric.transport_extra_ns_per_slot",
                totals.self_ns_per_slot() - open_totals.self_ns_per_slot(),
            );
            let base = dense_standalone_ns_per_step(
                || pktbuf::RadsBuffer::new(cut.rads_config(cut.radix)),
                cut.radix,
                cut.load(),
                seed,
            );
            set(
                "fabric.step_overhead_ratio",
                ratio(untraced_ns_per_step, base),
            );
        }
        other => unreachable!("unknown workload {other}"),
    }
    probes
}

/// Eligibility density `switch_islip` records (0.399 at seed 1), the
/// arbiter kernels' input on workloads that have no arbiter of their own.
const LOADED_SWITCH_DENSITY: f64 = 0.4;

/// Sampled single-call timings are scaled up from one call in 64, so the
/// sum of a span's children can overshoot the span itself by sampling
/// error; beyond this share of the parent it is an accounting bug.
const SELF_TIME_TOLERANCE: f64 = 0.05;

/// One traced child: returns `{"metrics": {...}, "trace_file": ..,
/// "failed_checks": [..], ..}`.
pub fn traced<W: Workload>(seed: u64, pairs: u32, trace_path: &std::path::Path) -> Value {
    let slots = W::ACTIVE_SLOTS;
    // `pairs` is in units of about a second of work; the repetitions are
    // as short as the end-to-end children's.
    let pairs = pairs * (W::REPS_PER_CHILD / 2).max(1);
    let tracing = Tracing::new(host::timer_overhead_ns());
    let mut calibration = Calibration::new();
    let mut readings: Vec<CalibReading> = Vec::new();

    let mut rec = Recorder::default();
    let mut scratch = Recorder::default();
    let reference = run_bare::<W>(seed, slots, &mut scratch);
    let mut failed_checks = reference.failed_checks.clone();
    let (mut attempted, mut failed) = (reference.ops_attempted, reference.ops_failed);

    host::count_allocations(true);
    let mut totals = TracedTotals::default();
    let mut untraced = Vec::new();
    let mut traced_values = Vec::new();
    let mut untraced_allocs = 0u64;
    let mut untraced_steps = 0u64;
    for rep in 0..pairs {
        readings.push(calibration.read());
        let first = scratch.spans().len();
        let out = run_bare::<W>(seed, slots, &mut scratch);
        untraced_allocs += scratch.spans()[first..]
            .iter()
            .map(|s| s.allocs)
            .sum::<u64>();
        untraced_steps += out.buffer_steps;
        attempted += out.ops_attempted;
        failed += out.ops_failed;
        untraced.push(out.run_ns as f64 / out.buffer_steps as f64);
        readings.push(calibration.read());
        traced_values.push(traced_rep::<W>(
            seed,
            slots,
            rep,
            &tracing,
            &mut rec,
            &mut totals,
        ));
        if totals.last.report_json != reference.report_json {
            failed_checks.push("the traced repetition reproduces the bare report byte for byte");
        }
        failed_checks.extend(totals.last.failed_checks.iter().copied());
        attempted += totals.last.ops_attempted;
        failed += totals.last.ops_failed;
    }
    readings.push(calibration.read());
    host::count_allocations(false);

    // Acceptance: no layer's children overrun their parent.
    for span in rec.spans() {
        if span.aggregated_calls.is_none()
            && rec.self_ns(span.id) < -SELF_TIME_TOLERANCE * span.duration_ns() as f64
        {
            failed_checks.push("every span's children fit inside it (self time >= 0)");
            break;
        }
    }

    let buffers = totals.collected.all_buffers();
    let fills = totals.collected.all_fills();
    let (rads, cfds) = (
        totals.collected.design("RADS"),
        totals.collected.design("CFDS"),
    );
    let sim = totals.last.sim;
    let untraced_ns = median(&untraced);
    // The share of oracle calls that answered "has cells" is the input
    // shape of the arbiter kernels. The buffer workloads have no arbiter to
    // record it from: there the kernels run at the density a loaded switch
    // shows.
    let density = if buffers.requestable_calls == 0 {
        LOADED_SWITCH_DENSITY
    } else {
        buffers.requestable_nonzero as f64 / buffers.requestable_calls as f64
    };

    let mut metrics: Vec<(&'static str, f64)> = vec![
        (
            "traffic.fill_ns_per_port_slot",
            ratio(fills.fill.busy_ns, fills.port_slots as f64),
        ),
        ("traffic.cells_offered", sim.cells_offered as f64),
        (
            "pktbuf.rads_step_ns",
            ratio(rads.busy_ns(), rads.slots() as f64),
        ),
        (
            "pktbuf.cfds_step_ns",
            ratio(cfds.busy_ns(), cfds.slots() as f64),
        ),
        (
            "pktbuf.busy_share",
            ratio(buffers.busy_ns(), totals.run_span_ns),
        ),
        (
            "pktbuf.idle_skipped_share",
            ratio(buffers.idle_slots as f64, buffers.slots() as f64),
        ),
        (
            "pktbuf.requestable_calls_per_step",
            ratio(buffers.requestable_calls as f64, buffers.slots() as f64),
        ),
        (
            "pktbuf.dram_accesses_per_cell",
            ratio(sim.dram_accesses as f64, sim.buffer_arrivals as f64),
        ),
        (
            "pktbuf.peak_head_sram_cells",
            sim.peak_head_sram_cells as f64,
        ),
        (
            "pktbuf.peak_tail_sram_cells",
            sim.peak_tail_sram_cells as f64,
        ),
        ("pktbuf.failed_cells", sim.failed_cells as f64),
        ("cfds.bank_conflicts", sim.bank_conflicts as f64),
        ("cfds.max_dss_delay_slots", sim.max_dss_delay_slots as f64),
        ("cfds.peak_rr_entries", sim.peak_rr_entries as f64),
        ("fabric.crossbar_utilization", sim.crossbar_utilization),
        ("fabric.credit_stall_slots", sim.credit_stall_slots as f64),
        ("fabric.peak_link_depth", sim.peak_link_depth as f64),
        ("fabric.retransmitted_cells", sim.retransmitted_cells as f64),
        ("fabric.timeouts_fired", sim.timeouts_fired as f64),
        ("fabric.duplicates_filtered", sim.duplicates_filtered as f64),
        ("fabric.gave_up_cells", sim.gave_up_cells as f64),
        ("fabric.fault_lost_cells", sim.fault_lost_cells as f64),
    ];
    metrics.extend(layers::isolated_kernels(density));
    metrics.extend(workload_probes::<W>(
        seed,
        pairs.max(2),
        untraced_ns,
        &totals,
        &tracing,
    ));
    let mem: Vec<f64> = readings.iter().map(|r| r.mem_ns).collect();
    let cpu: Vec<f64> = readings.iter().map(|r| r.cpu_ns).collect();
    metrics.extend([
        ("host.calib_mem_ns", median(&mem)),
        ("host.calib_cpu_ns", median(&cpu)),
        ("host.reps_spread", iqr_over_median(&untraced)),
        ("host.peak_heap_mb", host::peak_heap_mib()),
        (
            "host.allocs_per_kstep",
            ratio(untraced_allocs as f64 * 1e3, untraced_steps as f64),
        ),
        (
            // Each traced repetition against the bare one that ran just
            // before it: a pair shares the host's mood.
            "trace.overhead_ratio",
            median(
                &traced_values
                    .iter()
                    .zip(&untraced)
                    .map(|(t, u)| ratio(*t, *u))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("trace.spans", rec.spans().len() as f64),
    ]);
    if let Some(dir) = trace_path.parent() {
        // A missing directory surfaces as the write error below.
        let _ = std::fs::create_dir_all(dir);
    }
    if std::fs::write(trace_path, rec.chrome_trace_json(W::NAME)).is_err() {
        failed_checks.push("the trace file can be written");
    }

    obj([
        ("pid", uint(u64::from(std::process::id()))),
        (
            "metrics",
            obj(metrics.iter().map(|(name, value)| (*name, num(*value)))),
        ),
        ("ns_per_buffer_step_untraced", num(untraced_ns)),
        (
            "sim_fingerprint",
            uint(fnv1a(reference.report_json.as_bytes())),
        ),
        ("ops_attempted", uint(attempted)),
        ("ops_failed", uint(failed)),
        ("failed_checks", strings(&failed_checks)),
    ])
}
