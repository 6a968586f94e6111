//! The paper's evaluation artefacts as callable functions.
//!
//! Every figure, table and validation experiment lives here exactly once;
//! the `pktbuf-lab paper <artefact>` subcommand calls these functions.
//!
//! The slot-level experiments are expressed through the declarative spec
//! layer ([`sim::spec::ExperimentSpec`] + [`sim::lab::LabRunner`]) where the
//! engine's run shape matches the original experiment; the artefacts that
//! need bespoke stepping (utilisation probes, fixed-horizon drains) keep
//! their own loops but share the same configuration vocabulary.

use crate::{lookahead_sweep, oc3072_parameters, oc768_parameters};
use cacti_lite::ProcessNode;
use cfds::DsaPolicy;
use dram_sim::{MultiChipConfig, SdramChip};
use pktbuf::{CfdsBuffer, CfdsBufferOptions, DramOnlyBuffer, PacketBuffer};
use pktbuf_model::{Cell, CfdsConfig, LineRate, LogicalQueueId, RadsConfig};
use sim::lab::{ExperimentReport, LabRunner};
use sim::report::{format_bytes, TextTable};
use sim::scenario::{DesignKind, Workload};
use sim::spec::{ExperimentSpec, Sweep};
use sim::techeval::{cfds_point, max_queues_meeting_target, rads_point, DesignPoint};
use traffic::{
    preload_cells, AdversarialRoundRobin, ArrivalGenerator, BurstyArrivals, RequestGenerator,
};

/// The names `paper` artefacts are addressable by (CLI + CI).
pub const ARTEFACTS: [&str; 8] = [
    "dram_only",
    "fig8",
    "table2",
    "fig10",
    "fig11",
    "validate",
    "fragmentation",
    "ablation_dsa",
];

/// Runs the artefact with the given name.
///
/// Accepts the canonical names of [`ARTEFACTS`] with `-`/`_` used
/// interchangeably. Returns `None` for an unknown name, and otherwise
/// whether the artefact *passed*: `validate` fails when any run violates a
/// worst-case guarantee (so CI actually gates on the paper's claims); the
/// purely descriptive artefacts always pass.
pub fn run_artefact(name: &str) -> Option<bool> {
    match name.replace('-', "_").as_str() {
        "dram_only" => dram_only(),
        "fig8" => fig8(),
        "table2" => table2(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "validate" => {
            let (live, preloaded) = validate();
            let ok = live.aggregate.all_loss_free && preloaded.aggregate.all_loss_free;
            if !ok {
                eprintln!("validate: FAILED — a run violated the worst-case guarantees");
            }
            return Some(ok);
        }
        "fragmentation" => fragmentation(),
        "ablation_dsa" => ablation_dsa(),
        _ => return None,
    }
    Some(true)
}

/// Experiment E1 (§1): peak vs. worst-case guaranteed bandwidth of DRAM-only
/// buffers, and how wider multi-chip buses hit diminishing returns.
pub fn dram_only() {
    println!("== E1a: SDRAM chip model (16-bit, 100 MHz reference chip of [9]) ==\n");
    let chip = SdramChip::reference_16mb();
    let mut table = TextTable::new(vec![
        "chips",
        "bus bits",
        "peak Gb/s",
        "guaranteed Gb/s",
        "efficiency",
    ]);
    for chips in [1u32, 2, 4, 8, 16, 32] {
        let cfg = MultiChipConfig::new(chip, chips);
        table.push_row(vec![
            format!("{chips}"),
            format!("{}", chip.data_width_bits * chips),
            format!("{:.2}", cfg.peak_bandwidth_bps() / 1e9),
            format!("{:.2}", cfg.guaranteed_bandwidth_bps() / 1e9),
            format!("{:.2}", cfg.worst_case_efficiency()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Paper quotes: single chip 1.6 Gb/s peak vs 1.2 Gb/s guaranteed; 8 chips only 5.12 Gb/s.\n"
    );

    println!("== E1b: slot-level DRAM-only buffer under back-to-back requests ==\n");
    let cfg = RadsConfig {
        num_queues: 16,
        granularity: 32,
        lookahead: None,
    };
    let mut buf = DramOnlyBuffer::new(cfg);
    for (q, cells) in preload_cells(16, 256) {
        buf.preload(q, cells);
    }
    let mut requests_issued = 0u64;
    for t in 0..16 * 256u64 {
        let q = LogicalQueueId::new((t % 16) as u32);
        if buf.requestable_cells(q) > 0 {
            requests_issued += 1;
            buf.step(None, Some(q));
        } else {
            buf.step(None, None);
        }
    }
    let s = buf.stats();
    println!(
        "requests {requests_issued}, grants {}, misses {}, sustained fraction of line rate {:.3} (worst-case model {:.3})",
        s.grants,
        s.misses,
        s.grants as f64 / requests_issued.max(1) as f64,
        buf.worst_case_throughput_fraction()
    );
}

fn fig8_panel(rate: LineRate, q: usize, big_b: usize, node: &ProcessNode) {
    use sram_buf::SramImplKind;
    println!(
        "-- {rate}: Q = {q}, B = {big_b} (slot = {:.1} ns) --\n",
        rate.slot_duration().as_ns()
    );
    let mut table = TextTable::new(vec![
        "lookahead (slots)",
        "h-SRAM size",
        "CAM access (ns)",
        "CAM area (cm2)",
        "LL time-mux access (ns)",
        "LL time-mux area (cm2)",
    ]);
    for lookahead in lookahead_sweep(q, big_b, 10) {
        let p = rads_point(q, big_b, lookahead, node);
        let cam = p.head_impl(SramImplKind::GlobalCam);
        let ll = p.head_impl(SramImplKind::UnifiedLinkedListTimeMux);
        table.push_row(vec![
            format!("{lookahead}"),
            format_bytes((p.head_sram_cells * 64) as f64),
            format!("{:.2}", cam.access_time_ns),
            format!("{:.3}", cam.area_cm2),
            format!("{:.2}", ll.access_time_ns),
            format!("{:.3}", ll.area_cm2),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 8: RADS h-SRAM access time and area as a function of the lookahead,
/// at OC-768 and OC-3072.
pub fn fig8() {
    let node = ProcessNode::node_130nm();
    println!("== Figure 8: RADS SRAM cost vs. lookahead (0.13 um) ==\n");
    let (rate768, q768, b768) = oc768_parameters();
    fig8_panel(rate768, q768, b768, &node);
    let (rate3072, q3072, b3072, _) = oc3072_parameters();
    fig8_panel(rate3072, q3072, b3072, &node);
    println!("Paper shape: OC-768 meets its 12.8 ns slot easily with ~0.1 cm2; at OC-3072 no");
    println!("implementation reaches the 3.2 ns slot and the areas approach or exceed 1 cm2.");
}

fn table2_panel(rate: LineRate, q: usize, big_b: usize, m: usize) {
    use cfds::sizing::{rr_size, scheduling_time_ns};
    println!("-- {rate}: Q = {q}, B = {big_b}, M = {m} --\n");
    let mut table = TextTable::new(vec!["b", "RR size (entries)", "scheduling time (ns)"]);
    for b in [32usize, 16, 8, 4, 2, 1] {
        if b > big_b || !big_b.is_multiple_of(b) || !m.is_multiple_of(big_b / b) {
            continue;
        }
        let cfg = CfdsConfig::builder()
            .num_queues(q)
            .granularity(b)
            .rads_granularity(big_b)
            .num_banks(m)
            .build()
            .expect("valid configuration");
        table.push_row(vec![
            format!("{b}"),
            format!("{}", rr_size(&cfg)),
            format!("{:.1}", scheduling_time_ns(&cfg, rate)),
        ]);
    }
    println!("{}", table.render());
}

/// Table 2: Requests-Register size and scheduling time vs. granularity `b`.
pub fn table2() {
    println!("== Table 2: Requests Register size and scheduling time ==\n");
    table2_panel(LineRate::Oc768, 128, 8, 256);
    table2_panel(LineRate::Oc3072, 512, 32, 256);
    println!("Paper (OC-3072): RR = 0, 8, 64, 256, 1024, 4096 for b = 32…1;");
    println!("our closed form matches for b <= 8 and reports the conservative bound at b = 16.");
    println!("Reference point: the Alpha 21264 selects from a 20-entry window in ~1 ns (0.35 um).");
}

fn fig10_series(label: &str, points: &[DesignPoint]) {
    println!("-- {label} --\n");
    let mut table = TextTable::new(vec![
        "delay (us)",
        "head SRAM (cells)",
        "access time (ns)",
        "area h+t (cm2)",
        "meets 3.2 ns",
    ]);
    for p in points {
        table.push_row(vec![
            format!("{:.1}", p.delay_seconds(LineRate::Oc3072) * 1e6),
            format!("{}", p.head_sram_cells),
            format!("{:.2}", p.best_access_time_ns()),
            format!("{:.2}", p.total_area_cm2()),
            format!("{}", p.meets(LineRate::Oc3072)),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 10: RADS vs. CFDS SRAM cost as a function of the scheduler-visible
/// delay at OC-3072.
pub fn fig10() {
    let node = ProcessNode::node_130nm();
    let (_, q, big_b, m) = oc3072_parameters();
    println!("== Figure 10: RADS vs CFDS SRAM cost as a function of delay (OC-3072, Q = 512) ==\n");

    let rads: Vec<DesignPoint> = lookahead_sweep(q, big_b, 6)
        .into_iter()
        .map(|l| rads_point(q, big_b, l, &node))
        .collect();
    fig10_series("RADS (b = 32)", &rads);

    for b in [16usize, 8, 4, 2, 1] {
        let Ok(cfg) = CfdsConfig::builder()
            .num_queues(q)
            .granularity(b)
            .rads_granularity(big_b)
            .num_banks(m)
            .build()
        else {
            continue;
        };
        let points: Vec<DesignPoint> = lookahead_sweep(q, b, 6)
            .into_iter()
            .map(|l| cfds_point(&cfg, l, &node))
            .collect();
        fig10_series(&format!("CFDS (b = {b})"), &points);
    }
    println!("Paper shape: CFDS with b = 4–8 meets the 3.2 ns target with ~10 us of delay and");
    println!("well under 1 cm2, while RADS needs > 50 us and still cannot reach 3.2 ns; too");
    println!("small a granularity (b = 1–2) loses the advantage again to reordering overhead.");
}

/// Figure 11: the maximum number of queues each configuration supports at
/// OC-3072 within the 3.2 ns access-time constraint.
pub fn fig11() {
    let node = ProcessNode::node_130nm();
    println!(
        "== Figure 11: maximum number of queues meeting the OC-3072 access-time constraint ==\n"
    );
    let mut table = TextTable::new(vec!["b", "design", "max queues"]);
    let mut rads_max = 0usize;
    let mut best_cfds = 0usize;
    for b in [32usize, 16, 8, 4, 2, 1] {
        let design = if b == 32 { "RADS" } else { "CFDS" };
        let qmax = max_queues_meeting_target(LineRate::Oc3072, b, 32, 256, &node);
        if b == 32 {
            rads_max = qmax;
        } else {
            best_cfds = best_cfds.max(qmax);
        }
        table.push_row(vec![format!("{b}"), design.to_string(), format!("{qmax}")]);
    }
    println!("{}", table.render());
    println!(
        "CFDS supports {:.1}x more queues than RADS at its best granularity ({} vs {}).",
        best_cfds as f64 / rads_max.max(1) as f64,
        best_cfds,
        rads_max
    );
    println!("Paper: roughly 6x (up to ~850 physical queues vs ~140 for RADS).");
}

/// The declarative spec behind the live-workload half of [`validate`]:
/// RADS × CFDS under every workload at the standard validation design point.
pub fn validate_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .name("validate-live")
        .designs([DesignKind::Rads, DesignKind::Cfds])
        .workloads(Workload::all())
        .num_queues(Sweep::fixed(32))
        .granularity(Sweep::fixed(4))
        .rads_granularity(Sweep::fixed(16))
        .num_banks(Sweep::fixed(64))
        .arrival_slots(20_000)
        .seeds([7])
        .build()
        .expect("the validation spec is valid")
}

/// The preloaded adversarial-drain half of [`validate`] (the paper's worst
/// case) at a larger scale.
pub fn validate_preload_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .name("validate-preloaded")
        .designs([DesignKind::Rads, DesignKind::Cfds])
        .workloads([Workload::AdversarialRoundRobin])
        .num_queues(Sweep::fixed(64))
        .granularity(Sweep::fixed(4))
        .rads_granularity(Sweep::fixed(16))
        .num_banks(Sweep::fixed(64))
        .preload_cells_per_queue(128)
        .seeds([11])
        .build()
        .expect("the preloaded validation spec is valid")
}

/// Experiment E7: slot-level validation of the worst-case claims of §5 —
/// zero misses, zero drops, FIFO order, zero bank conflicts and bounded
/// Requests-Register occupancy — for RADS and CFDS under every workload.
///
/// Fully spec-driven: both halves expand through [`validate_spec`] /
/// [`validate_preload_spec`] and run on a [`LabRunner`]. Returns the two
/// reports so callers (CI, tests) can persist or assert on them.
pub fn validate() -> (ExperimentReport, ExperimentReport) {
    println!("== E7: slot-level validation of the worst-case guarantees ==\n");
    let runner = LabRunner::new();
    let live = runner.run(&validate_spec()).expect("validation spec runs");
    let preloaded = runner
        .run(&validate_preload_spec())
        .expect("preloaded validation spec runs");
    let mut table = TextTable::new(vec![
        "design",
        "workload",
        "grants",
        "misses",
        "drops",
        "conflicts",
        "peak h-SRAM",
        "peak RR",
        "loss-free",
    ]);
    for run in &live.runs {
        table.push_row(validate_row(run, false));
    }
    for run in &preloaded.runs {
        table.push_row(validate_row(run, true));
    }
    println!("{}", table.render());
    println!("Every row must report zero misses, drops and conflicts (the DRAM-only baseline,");
    println!("by contrast, misses heavily — see `pktbuf-lab paper dram_only`).");
    (live, preloaded)
}

fn validate_row(run: &sim::lab::RunRecord<ExperimentSpec>, preloaded: bool) -> Vec<String> {
    let r = &run.report;
    let design = if preloaded {
        format!("{} (preloaded)", r.design)
    } else {
        r.design.to_owned()
    };
    vec![
        design,
        format!("{:?}", run.scenario.workload),
        format!("{}", r.stats.grants),
        format!("{}", r.stats.misses),
        format!("{}", r.stats.drops),
        format!("{}", r.stats.bank_conflicts),
        format!("{}", r.stats.peak_head_sram_cells),
        format!("{}", r.stats.peak_rr_entries),
        format!("{}", r.stats.is_loss_free()),
    ]
}

fn fragmentation_run(oversubscription: usize, hot_queues: usize) -> (f64, usize, u64) {
    let cfg = CfdsConfig::builder()
        .num_queues(32)
        .granularity(2)
        .rads_granularity(8)
        .num_banks(32)
        .physical_queue_factor(oversubscription)
        .build()
        .expect("valid configuration");
    // Small DRAM so that per-group capacity actually binds: 512 blocks total.
    let options = CfdsBufferOptions {
        dram_capacity_cells: Some(1024),
        ..CfdsBufferOptions::default()
    };
    let mut buf = CfdsBuffer::with_options(cfg, options);
    // Feed cells only to the hot queues through the tail path until writebacks
    // start being blocked or the DRAM is effectively full.
    let mut seqs = vec![0u64; hot_queues];
    for t in 0..40_000u64 {
        let qi = (t % hot_queues as u64) as usize;
        let cell = Cell::new(LogicalQueueId::new(qi as u32), seqs[qi], t);
        seqs[qi] += 1;
        buf.step(Some(cell), None);
        if buf.dram_utilisation() > 0.99 {
            break;
        }
    }
    let max_chain = (0..hot_queues)
        .map(|q| buf.renaming_chain_length(LogicalQueueId::new(q as u32)))
        .max()
        .unwrap_or(0);
    (
        buf.dram_utilisation(),
        max_chain,
        buf.stats().blocked_writebacks,
    )
}

/// Experiment E8 (§6): DRAM fragmentation with and without queue renaming.
pub fn fragmentation() {
    println!("== E8: DRAM fragmentation and queue renaming (32 queues, 16 groups, tiny DRAM) ==\n");
    let num_groups = 16.0f64;
    let mut table = TextTable::new(vec![
        "physical queues / logical",
        "hot queues",
        "static assignment limit",
        "utilisation with renaming",
        "max renaming chain",
        "blocked writebacks",
    ]);
    for (oversub, hot) in [(1usize, 1usize), (1, 2), (2, 1), (2, 2), (4, 4)] {
        let (util, chain, blocked) = fragmentation_run(oversub, hot);
        // Without renaming a logical queue is pinned to one group, so `hot`
        // active queues can use at most hot/G of the DRAM.
        let static_limit = (hot as f64 / num_groups).min(1.0);
        table.push_row(vec![
            format!("{oversub}x"),
            format!("{hot}"),
            format!("{:.2}", static_limit),
            format!("{:.2}", util),
            format!("{chain}"),
            format!("{blocked}"),
        ]);
    }
    println!("{}", table.render());
    println!("With the static queue-to-group assignment alone, `hot` backlogged queues could use");
    println!("at most hot/G of the DRAM (the fragmentation problem of §6). The renaming layer");
    println!("chains physical queues across groups and reaches essentially full utilisation in");
    println!("every case, while the chain stays short and names are recycled.");
}

fn ablation_run(policy: DsaPolicy) -> (String, pktbuf::BufferStats, usize, u64) {
    let cfg = CfdsConfig::builder()
        .num_queues(32)
        .granularity(2)
        .rads_granularity(8)
        .num_banks(32)
        .physical_queue_factor(2)
        .build()
        .expect("valid configuration");
    let options = CfdsBufferOptions {
        dsa: policy,
        ..CfdsBufferOptions::default()
    };
    let mut buf = CfdsBuffer::with_options(cfg, options);
    let mut arrivals = BurstyArrivals::new(32, 64.0, 4.0, 99);
    let mut requests = AdversarialRoundRobin::new(32);
    let active = 20_000u64;
    for t in 0..(active + buf.pipeline_delay_slots() as u64 + 2_048) {
        let arrival = (t < active).then(|| arrivals.next(t)).flatten();
        let request = requests.next(t, &|q: LogicalQueueId| buf.requestable_cells(q));
        buf.step(arrival, request);
    }
    let label = match policy {
        DsaPolicy::OldestFirst => "oldest-first (paper)",
        DsaPolicy::FifoOnly => "strict FIFO (no reordering)",
        DsaPolicy::RandomEligible { .. } => "random eligible",
    };
    (
        label.to_string(),
        *buf.stats(),
        buf.peak_rr_occupancy(),
        buf.stats().max_dss_delay_slots,
    )
}

/// Experiment E9 (ablation): oldest-first vs. strict-FIFO vs. random-eligible
/// DRAM scheduling under bursty live traffic.
pub fn ablation_dsa() {
    println!("== E9: DRAM Scheduler Algorithm ablation (bursty live traffic, 32 queues) ==\n");
    let mut table = TextTable::new(vec![
        "DSA policy",
        "grants",
        "misses",
        "DSS stalls",
        "peak RR",
        "max DSS delay (slots)",
    ]);
    for policy in [
        DsaPolicy::OldestFirst,
        DsaPolicy::FifoOnly,
        DsaPolicy::RandomEligible { seed: 42 },
    ] {
        let (label, stats, peak_rr, max_delay) = ablation_run(policy);
        table.push_row(vec![
            label,
            format!("{}", stats.grants),
            format!("{}", stats.misses),
            format!("{}", stats.dss_stalls),
            format!("{peak_rr}"),
            format!("{max_delay}"),
        ]);
    }
    println!("{}", table.render());
    println!("The oldest-first issue-queue policy keeps the Requests Register and the worst-case");
    println!("DSS delay bounded; the alternatives waste issue opportunities on locked banks or");
    println!("let old requests starve, which shows up as larger RR occupancy, larger delays and");
    println!("eventually misses.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_names_dispatch() {
        assert_eq!(run_artefact("nonexistent"), None);
        assert_eq!(ARTEFACTS.len(), 8);
    }

    #[test]
    fn validation_specs_expand_to_the_legacy_run_sets() {
        let live = validate_spec().expand().unwrap();
        assert_eq!(live.runs.len(), 2 * 5, "2 designs x 5 workloads");
        assert_eq!(live.skipped_invalid, 0);
        let preloaded = validate_preload_spec().expand().unwrap();
        assert_eq!(preloaded.runs.len(), 2);
        assert!(preloaded
            .runs
            .iter()
            .all(|r| r.arrival_slots == 0 && r.preload_cells_per_queue == 128));
    }

    /// Pins E9's table: the only end-to-end check of the strict-FIFO and
    /// random-eligible policies, so a changed tie-break or a dropped RNG
    /// advance shows up here rather than only in the DSA unit tests.
    #[test]
    fn dsa_ablation_reproduces_its_table() {
        // (policy, grants, misses, DSS stalls, peak RR, max DSS delay)
        let expected = [
            (DsaPolicy::OldestFirst, 18_896, 0, 928, 5, 6),
            (DsaPolicy::FifoOnly, 5_900, 12_996, 12_532, 10_180, 11_898),
            (DsaPolicy::RandomEligible { seed: 42 }, 18_896, 0, 914, 5, 6),
        ];
        for (policy, grants, misses, stalls, peak_rr, max_delay) in expected {
            let (label, stats, rr, delay) = ablation_run(policy);
            assert_eq!(
                (stats.grants, stats.misses, stats.dss_stalls, rr, delay),
                (grants, misses, stalls, peak_rr, max_delay),
                "{label}"
            );
        }
    }
}
