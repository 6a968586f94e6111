//! `pktbuf-lab`: the single command line for every experiment in this
//! repository.
//!
//! Experiments are *data*: a serializable [`ExperimentSpec`] (designs ×
//! workloads × swept parameters × seeds) executed by a multi-threaded
//! [`sim::lab::LabRunner`]. The paper's figures and tables are `pktbuf-lab paper <name>`.
//!
//! ```text
//! pktbuf-lab run   --spec lab.json [--threads N] [--json out.json] [--csv out.csv]
//! pktbuf-lab run   --designs cfds --workloads bursty --queues 32 --slots 20000
//! pktbuf-lab sweep --designs rads,cfds --workloads all --queues 64..1024*2 -b 1,2,4,8
//! pktbuf-lab paper <fig8|fig10|fig11|table2|validate|dram_only|fragmentation|ablation_dsa>
//! pktbuf-lab spec  # print a template spec to adapt
//! ```

use bench::cli::{
    emit, lab_command, parse_int, parse_list_or_all, parse_seeds, read_spec_text, set,
    write_artifact, Artifacts, LabLayer, SpecFlag,
};
use serde::{Serialize, Serializer};
use sim::clos::{ClosLabReport, ClosSpec, DispatchChoice, ObsScenario, TransportScenario};
use sim::experiment;
use sim::fabric::{ArbiterChoice, FabricDesign, FabricLabReport, FabricSpec, FabricWorkload};
use sim::lab::{ExperimentReport, LabRunner};
use sim::report::TextTable;
use sim::scenario::{DesignKind, Workload};
use sim::spec::{ExperimentSpec, Sweep};
use sim::{FaultEvent, FaultKind, FaultPlan, LinkBoundary, RecoveryReport, TransportReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => {
            print_usage();
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "run" => lab_command(&RunLayer { print_runs: false }, rest),
        "sweep" => lab_command(&RunLayer { print_runs: true }, rest),
        "fabric" => lab_command(&FabricLayer, rest),
        "clos" => lab_command(&ClosLayer, rest),
        "paper" => paper_command(rest),
        "spec" => {
            println!("{}", experiment::to_json(&template_spec()));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `pktbuf-lab help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pktbuf-lab: {message}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "pktbuf-lab — declarative packet-buffer experiments

USAGE:
    pktbuf-lab run    [SPEC FLAGS] [OUTPUT FLAGS]  execute a spec (file or inline flags)
    pktbuf-lab sweep  [SPEC FLAGS] [OUTPUT FLAGS]  same, and print the per-run table
    pktbuf-lab fabric [FABRIC FLAGS]               run N×N VOQ switch-fabric experiments
    pktbuf-lab clos   [CLOS FLAGS]                 run three-stage Clos fabric experiments
    pktbuf-lab paper  <ARTEFACT>                   regenerate a paper artefact
    pktbuf-lab spec                                print a template spec JSON

FABRIC FLAGS (whole-router runs: per-port packet buffers + crossbar arbiter +
rate-limited egress; sweepable axes accept the same sweep syntax as below):
    --spec <FILE>            read a fabric spec from JSON ('-' = stdin); flags override it
    --print-spec             print the resulting spec as JSON and exit (save to adapt)
    --smoke                  run the acceptance gate suite (16×16 CFDS incast +
                             uniform at 95% load, both arbiters): fails unless every
                             run is zero-loss and iSLIP sustains >= 90% crossbar
                             utilisation under the admissible uniform load
    --ports <SWEEP>          fabric port count N, 2..=64         (default 8)
    --designs <LIST|all>     dram-only, rads, cfds, mixed        (default cfds)
    --workloads <LIST|all>   uniform, hotspot, incast, bursty    (default uniform)
    --arbiters <LIST|all>    islip, maximal                      (default islip)
    --iters <N>              iSLIP iterations per slot, 0 = auto (default 0)
    --load <SWEEP>           offered load per port, percent      (default 90)
    --egress-period <N>      slots per egress cell, 1 = line rate (default 1)
    -b/-B/--banks, --slots, --seeds, --name, --threads, --json, --csv
                             as for `run`/`sweep`

CLOS FLAGS (three-stage folded Clos: r ingress switches of radix N, m middle,
r egress, credit-flow-controlled inter-stage links; sweepable axes accept the
same sweep syntax as below):
    --spec <FILE>            read a Clos spec from JSON ('-' = stdin); flags override it
    --print-spec             print the resulting spec as JSON and exit (save to adapt)
    --smoke                  run the acceptance gate suite (the 64-port-equivalent
                             r=8, m=8 Clos of 8×8 RADS switches, spray + flow-hash
                             dispatch): fails unless every run is zero-loss and
                             conserving and flow-hash delivers zero reordered cells;
                             then re-runs the same Clos under a fixed fault plan
                             (a mid-run middle-switch death + one link flap) and
                             fails unless conservation still closes through the
                             fault ledger with bounded reordering; finally runs
                             the closed-loop recovery leg — the reliable transport
                             over a 16-port cut-through Clos, fault-free and under
                             a fixed death+flap plan — and fails unless delivery
                             is exactly-once, the transport ledger closes, and
                             goodput recovers within a bounded window
    --radix <SWEEP>          switch radix N, 2..=64              (default 4)
    --ingress <SWEEP>        ingress = egress switches r, 2..=64 (default 4)
    --middle <SWEEP>         middle switches m (<= N)            (default 4)
    --designs <LIST|all>     dram-only, rads, cfds, mixed        (default rads)
    --workloads <LIST|all>   uniform, hotspot, incast, bursty    (default uniform)
    --dispatches <LIST|all>  spray, flowhash, occupancy-spray    (default spray)
    --arbiters <LIST|all>    islip, maximal                      (default islip)
    --iters <N>              iSLIP iterations per slot, 0 = auto (default 0)
    --load <SWEEP>           offered load per external port, %   (default 80)
    --link-capacity <SWEEP>  credits (= FIFO slots) per link     (default 8)
    --link-latency <N>       one-way link latency, slots         (default 1)
    --egress-period <N>      slots per egress cell, 1 = line rate (default 1)
    --faults <FILE>          arm a fault plan in every run: a JSON list of fault
                             events ('-' = stdin; see README 'Fault injection')
    --faults-json <FILE>     write the per-run fault ledgers as JSON ('-' = stdout)
    --transport              layer the closed-loop reliable transport over every
                             run (forces cut-through RADS granularity 1; the
                             sources self-clock, so --workloads/--load are inert)
    --recovery-json <FILE>   write the smoke recovery reports as JSON
                             ('-' = stdout; requires --smoke)
    --obs                    arm the standard deterministic probes in every run:
                             latency + occupancy histograms and series sampling
                             every 64 slots (the JSON report gains an 'obs'
                             section, the CSV its latency percentile columns;
                             the report stays --threads-invariant)
    --series <STRIDE>        sample per-stage throughput/occupancy/stall series
                             every STRIDE slots (arms --obs if it is not)
    --series-csv <FILE>      write the per-run, per-stage series samples as CSV
                             ('-' = stdout; needs --series or --obs)
    --trace-json <FILE>      write a cell-lifecycle flight-recorder dump as
                             Chrome trace-event JSON ('-' = stdout; open in
                             ui.perfetto.dev): with --smoke, re-runs the
                             recovery leg's faulted run with the recorder
                             armed over the fault windows; otherwise arms the
                             recorder in every run and dumps the first one
    -b/-B/--banks, --slots, --seeds, --name, --threads, --json, --csv
                             as for `run`/`sweep`

SPEC FLAGS (inline specs; every axis accepts 'v', 'v1,v2,…', 'a..b*factor', 'a..b+step'):
    --spec <FILE>            read the spec from a JSON file ('-' = stdin); other spec flags override it
    --name <NAME>            experiment name
    --designs <LIST|all>     dram-only, rads, cfds            (default cfds)
    --workloads <LIST|all>   adversarial-round-robin, uniform-random, bursty, hotspot, greedy-drain
    --queues <SWEEP>         logical queues Q                 (default 32)
    -b, --granularity <SWEEP>     CFDS granularity b          (default 4)
    -B, --rads-granularity <SWEEP> RADS granularity B         (default 16)
    --banks <SWEEP>          DRAM banks M                     (default 64)
    --slots <N>              live-arrival slots               (default 10000)
    --preload <N>            preloaded cells/queue instead of live arrivals
    --seeds <LIST>           RNG seeds                        (default 1)
    --record-grants          record per-grant queue logs

OUTPUT FLAGS:
    --threads <N>            worker threads (default: all cores)
    --json <FILE>            write the full report as JSON ('-' = stdout)
    --csv <FILE>             write one CSV row per run ('-' = stdout)

PAPER ARTEFACTS:
    {}",
        bench::paper::ARTEFACTS.join(", ")
    );
}

/// The template printed by `pktbuf-lab spec`: a small two-design sweep that
/// finishes quickly and demonstrates every field.
fn template_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "example-sweep".into(),
        designs: vec![DesignKind::Rads, DesignKind::Cfds],
        workloads: vec![Workload::AdversarialRoundRobin, Workload::Bursty],
        num_queues: Sweep::list([16, 32]),
        granularity: Sweep::fixed(4),
        rads_granularity: Sweep::fixed(16),
        num_banks: Sweep::fixed(64),
        arrival_slots: 5_000,
        seeds: vec![1, 101],
        ..ExperimentSpec::default()
    }
}

/// Crossbar utilisation the `--smoke` gate requires under the admissible
/// uniform load (the acceptance criterion of the fabric layer).
const SMOKE_MIN_UTILIZATION: f64 = 0.90;

/// Offered loads the `--smoke` gate crosses with its workloads. 95% is the
/// near-saturation point the utilisation gate runs at; 25% matters for the
/// *incast* runs: at 16 ports and 95% load the admissible incast fraction is
/// clamped to the uniform share (the matrix degenerates to uniform), while
/// at 25% the target output absorbs ~3.8× its uniform share — genuine
/// many-to-one convergence with the target still at 95% of its line rate.
const SMOKE_LOADS: [u64; 2] = [25, 95];

/// The `fabric --smoke` gate suite: the 16×16 per-port-CFDS fabric under the
/// incast and the admissible-uniform workload, both arbiters, at a
/// convergent and a near-saturation load.
fn fabric_smoke_spec() -> FabricSpec {
    FabricSpec {
        name: "fabric-smoke".into(),
        designs: vec![FabricDesign::Fixed(DesignKind::Cfds)],
        workloads: vec![FabricWorkload::Incast, FabricWorkload::Uniform],
        arbiters: ArbiterChoice::all().to_vec(),
        ports: Sweep::fixed(16),
        load_percent: Sweep::list(SMOKE_LOADS),
        arrival_slots: 20_000,
        ..FabricSpec::default()
    }
}

// The list flags `fabric` and `clos` share.
fn fabric_designs(text: &str) -> Result<Vec<FabricDesign>, String> {
    parse_list_or_all(text, "fabric design", FabricDesign::all())
}
fn fabric_workloads(text: &str) -> Result<Vec<FabricWorkload>, String> {
    parse_list_or_all(text, "fabric workload", FabricWorkload::all())
}
fn arbiters(text: &str) -> Result<Vec<ArbiterChoice>, String> {
    parse_list_or_all(text, "arbiter", ArbiterChoice::all())
}

/// `pktbuf-lab fabric`.
struct FabricLayer;

impl LabLayer for FabricLayer {
    type Spec = FabricSpec;
    const WHAT: &'static str = "fabric ";
    const FLAGS: &'static [SpecFlag<FabricSpec>] = &[
        SpecFlag::value(&["--name"], |s, v| set(&mut s.name, Ok(v.to_owned()))),
        SpecFlag::sweep(&["--ports"], |s| &mut s.ports),
        SpecFlag::value(&["--designs"], |s, v| {
            set(&mut s.designs, fabric_designs(v))
        }),
        SpecFlag::value(&["--workloads"], |s, v| {
            set(&mut s.workloads, fabric_workloads(v))
        }),
        SpecFlag::value(&["--arbiters"], |s, v| set(&mut s.arbiters, arbiters(v))),
        SpecFlag::int(&["--iters"], |s| &mut s.islip_iterations),
        SpecFlag::sweep(&["--load"], |s| &mut s.load_percent),
        SpecFlag::int(&["--egress-period"], |s| &mut s.egress_period),
        SpecFlag::sweep(&["-b", "--granularity"], |s| &mut s.granularity),
        SpecFlag::sweep(&["-B", "--rads-granularity"], |s| &mut s.rads_granularity),
        SpecFlag::sweep(&["--banks"], |s| &mut s.num_banks),
        SpecFlag::int(&["--slots"], |s| &mut s.arrival_slots),
        SpecFlag::value(&["--seeds"], |s, v| set(&mut s.seeds, parse_seeds(v))),
    ];

    fn smoke_spec(&self) -> Option<FabricSpec> {
        Some(fabric_smoke_spec())
    }

    fn summary(&self, report: &FabricLabReport, to_stderr: bool) {
        print_fabric_summary(report, to_stderr);
    }

    fn finish(
        &self,
        _runner: &LabRunner,
        report: &FabricLabReport,
        _artifacts: &Artifacts,
        smoke: bool,
        _to_stderr: bool,
    ) -> Result<(), String> {
        if smoke {
            gate_fabric_smoke(report)?;
        }
        Ok(())
    }
}

/// The `fabric --smoke` acceptance gates: zero lost cells everywhere, and
/// crossbar utilisation at least [`SMOKE_MIN_UTILIZATION`] on the iSLIP run
/// under the admissible uniform load.
fn gate_fabric_smoke(report: &FabricLabReport) -> Result<(), String> {
    let mut failures = Vec::new();
    for run in &report.runs {
        if !run.report.zero_loss {
            failures.push(format!(
                "run {} ({}x{} {}/{}) lost {} cells",
                run.index,
                run.scenario.ports,
                run.scenario.ports,
                run.scenario.workload,
                run.scenario.arbiter,
                run.report.lost_cells,
            ));
        }
        let is_gated_utilization = run.scenario.workload == FabricWorkload::Uniform
            && run.scenario.arbiter == ArbiterChoice::Islip
            && run.scenario.load_percent >= 90;
        if is_gated_utilization && run.report.crossbar_utilization < SMOKE_MIN_UTILIZATION {
            failures.push(format!(
                "run {}: crossbar utilisation {:.3} under admissible uniform load is \
                 below the {SMOKE_MIN_UTILIZATION} gate",
                run.index, run.report.crossbar_utilization,
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "fabric smoke: all {} runs zero-loss; iSLIP utilisation gate ({}+) held",
            report.runs.len(),
            SMOKE_MIN_UTILIZATION,
        );
        Ok(())
    } else {
        Err(format!("fabric smoke gate failed: {}", failures.join("; ")))
    }
}

fn print_fabric_summary(report: &FabricLabReport, to_stderr: bool) {
    let emit = |line: &str| emit(to_stderr, line);
    let mut table = TextTable::new(vec![
        "run",
        "ports",
        "design",
        "workload",
        "arbiter",
        "load%",
        "seed",
        "arrivals",
        "delivered",
        "lost",
        "resident",
        "util",
        "latency",
        "zero-loss",
    ]);
    for run in &report.runs {
        let s = &run.scenario;
        let r = &run.report;
        table.push_row(vec![
            run.index.to_string(),
            s.ports.to_string(),
            s.design.to_string(),
            s.workload.to_string(),
            s.arbiter.to_string(),
            s.load_percent.to_string(),
            s.seed.to_string(),
            r.arrivals.to_string(),
            r.transmitted.to_string(),
            r.lost_cells.to_string(),
            r.resident_cells.to_string(),
            format!("{:.3}", r.crossbar_utilization),
            format!("{:.1}", r.mean_latency_slots),
            r.zero_loss.to_string(),
        ]);
    }
    emit(&table.render());
    let agg = &report.aggregate;
    emit(&format!(
        "{}: {} runs ({} skipped invalid), {} zero-loss, {} arrivals, {} delivered, \
         {} lost, {} resident, mean util {:.3}, min util {:.3}, max latency {} slots",
        report.spec.name,
        agg.runs,
        report.skipped_invalid,
        agg.zero_loss_runs,
        agg.total_arrivals,
        agg.total_transmitted,
        agg.total_lost_cells,
        agg.total_resident_cells,
        agg.mean_crossbar_utilization,
        agg.min_crossbar_utilization,
        agg.max_latency_slots,
    ));
}

/// The `clos --smoke` gate suite: the 64-port-equivalent three-stage Clos
/// (r = 8 ingress/egress switches of radix 8, m = 8 middle switches) with
/// per-port RADS buffers under the uniform workload, crossing both dispatch
/// policies with a moderate and a near-saturation load. Spray at 85% is the
/// stress point (every uplink load-balanced); flow-hash runs gate the
/// ordering guarantee on top of zero loss.
fn clos_smoke_spec() -> ClosSpec {
    ClosSpec {
        name: "clos-smoke".into(),
        designs: vec![FabricDesign::Fixed(DesignKind::Rads)],
        workloads: vec![FabricWorkload::Uniform],
        dispatches: DispatchChoice::all().to_vec(),
        radix: Sweep::fixed(8),
        ingress_switches: Sweep::fixed(8),
        middle_switches: Sweep::fixed(8),
        load_percent: Sweep::list([50, 85]),
        arrival_slots: 10_000,
        ..ClosSpec::default()
    }
}

/// The fixed fault plan of the `clos --smoke` degraded-mode leg: middle
/// switch 3 dies at slot 2 000 and revives 3 000 slots later (spray must
/// route around it on live credit occupancy, flow-hash must fail over), then
/// the ingress→middle link `2 → 5` flaps for 400 slots near the end of the
/// live phase (stall-and-recover, no loss).
fn clos_fault_smoke_plan() -> FaultPlan {
    FaultPlan::new([
        FaultEvent::windowed(FaultKind::MiddleDeath { switch: 3 }, 2_000, 3_000),
        FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::IngressMiddle,
                switch: 2,
                output: 5,
            },
            6_500,
            400,
        ),
    ])
}

/// The degraded-mode leg of the `clos --smoke` gate: the same
/// 64-port-equivalent Clos as [`clos_smoke_spec`], spray + flow-hash at the
/// near-saturation load, with [`clos_fault_smoke_plan`] armed in every run.
fn clos_fault_smoke_spec() -> ClosSpec {
    ClosSpec {
        name: "clos-fault-smoke".into(),
        load_percent: Sweep::fixed(85),
        faults: clos_fault_smoke_plan(),
        ..clos_smoke_spec()
    }
}

/// Flight-recorder ring capacity (events per stage) the `--trace-json` flag
/// arms when the spec has not sized one itself: a million events per stage
/// bounds the dump at tens of megabytes while covering every cell of the
/// smoke-scale runs inside the recorded window.
const CLOS_TRACE_CAPACITY: usize = 1 << 20;

/// Renders every armed run's per-stage time-series as the `--series-csv`
/// artifact: one row per sample, identified by run index and stage.
/// (`ClosLayer::check` refuses `--series-csv` without armed series probes before
/// the run.)
fn clos_series_csv(report: &ClosLabReport) -> String {
    let mut table = TextTable::new(vec![
        "index",
        "stage",
        "slot",
        "transmitted",
        "occupancy",
        "credit_stall_slots",
    ]);
    for run in &report.runs {
        let Some(obs) = &run.report.obs else { continue };
        for stage in &obs.stages {
            let Some(series) = &stage.series else {
                continue;
            };
            for (i, slot) in series.slots.iter().enumerate() {
                table.push_row(vec![
                    run.index.to_string(),
                    stage.stage.to_owned(),
                    slot.to_string(),
                    series.transmitted[i].to_string(),
                    series.occupancy[i].to_string(),
                    series.stalls[i].to_string(),
                ]);
            }
        }
    }
    table.to_csv()
}

/// The flight-recorder leg of `clos --smoke --trace-json`: re-runs the
/// recovery leg's faulted run (the closed-loop transport under the
/// death+flap plan of [`clos_recovery_smoke_plan`]) with the recorder armed
/// over the fault windows, and renders the merged timeline as Chrome
/// trace-event JSON. The closed loop is the leg with the full event
/// vocabulary — injections, retransmissions, fault marks, egress transmits —
/// and a separate re-run keeps the gated smoke runs byte-identical to an
/// unarmed suite.
///
/// # Errors
///
/// Fails when the recovery leg is empty (it never is — the spec is fixed).
fn clos_smoke_trace(faulted: &ClosLabReport) -> Result<String, String> {
    let run = faulted
        .runs
        .first()
        .ok_or_else(|| "the recovery smoke leg produced no runs".to_owned())?;
    let mut scenario = run.scenario.clone();
    scenario.obs = Some(ObsScenario {
        trace_capacity: CLOS_TRACE_CAPACITY,
        // Bracket both fault windows of `clos_recovery_smoke_plan` (the
        // middle death at 1000..2500 and the link flap at 2800..3100) with
        // margin for the timeouts and retransmissions around them.
        trace_from_slot: 900,
        trace_to_slot: 3_300,
        ..ObsScenario::standard()
    });
    let traced = scenario.run();
    eprintln!(
        "clos smoke: re-ran {} run {} with the flight recorder armed over slots 900..=3300",
        faulted.spec.name, run.index,
    );
    traced
        .trace_json()
        .ok_or_else(|| "the traced re-run produced no recorder dump".to_owned())
}

/// One run's slice of the `--faults-json` artifact: enough scenario context
/// to identify the run, plus its full fault ledger.
struct ClosFaultRecord<'a> {
    index: usize,
    experiment: &'a str,
    dispatch: DispatchChoice,
    load_percent: u64,
    seed: u64,
    ledger: &'a sim::FaultLedger,
}

// Hand-written, like `ClosRecoveryRecord` below: the derive takes no
// lifetime parameters, and these records borrow from the lab reports.
impl Serialize for ClosFaultRecord<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("ClosFaultRecord", 6)?;
        st.serialize_field("index", &self.index)?;
        st.serialize_field("experiment", &self.experiment)?;
        st.serialize_field("dispatch", &self.dispatch)?;
        st.serialize_field("load_percent", &self.load_percent)?;
        st.serialize_field("seed", &self.seed)?;
        st.serialize_field("ledger", &self.ledger)?;
        st.end()
    }
}

/// The closed-loop transport leg of the `clos --smoke` gate: a 16-port
/// cut-through Clos (r = 4 ingress/egress switches of radix 4, m = 4 middle)
/// running the default reliable transport under spray dispatch. Cut-through
/// (RADS write granularity 1) is what the transport requires fabric-wide:
/// batched writeback would park sub-batch tails as permanent residents and
/// the reliable sources would retransmit against them forever.
fn clos_transport_smoke_spec() -> ClosSpec {
    ClosSpec {
        name: "clos-transport-smoke".into(),
        designs: vec![FabricDesign::Fixed(DesignKind::Rads)],
        workloads: vec![FabricWorkload::Uniform],
        dispatches: vec![DispatchChoice::Spray],
        radix: Sweep::fixed(4),
        ingress_switches: Sweep::fixed(4),
        middle_switches: Sweep::fixed(4),
        load_percent: Sweep::fixed(85),
        rads_granularity: 1,
        arrival_slots: 6_000,
        transport: Some(TransportScenario::default()),
        ..ClosSpec::default()
    }
}

/// The fixed fault plan of the recovery leg: middle switch 1 dies at slot
/// 1 000 and revives 1 500 slots later (a quarter of the middle capacity
/// gone — in-flight cells are lost and must be retransmitted), then the
/// ingress→middle link `2 → 1` flaps for 300 slots. The last window closes
/// at slot 3 100, leaving 2 900 live slots for goodput to climb back to the
/// fault-free twin's.
fn clos_recovery_smoke_plan() -> FaultPlan {
    FaultPlan::new([
        FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 1_000, 1_500),
        FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::IngressMiddle,
                switch: 2,
                output: 1,
            },
            2_800,
            300,
        ),
    ])
}

/// The faulted twin of [`clos_transport_smoke_spec`]: same geometry, same
/// sources, same transport config, with [`clos_recovery_smoke_plan`] armed.
fn clos_recovery_fault_smoke_spec() -> ClosSpec {
    ClosSpec {
        name: "clos-recovery-smoke".into(),
        faults: clos_recovery_smoke_plan(),
        ..clos_transport_smoke_spec()
    }
}

/// One paired run's slice of the `--recovery-json` artifact: the fault-free
/// and faulted transport reports side by side, the faulted run's ledger, and
/// the measured time-to-recover.
struct ClosRecoveryRecord<'a> {
    index: usize,
    dispatch: DispatchChoice,
    seed: u64,
    fault_free: Option<&'a TransportReport>,
    faulted: Option<&'a TransportReport>,
    ledger: Option<&'a sim::FaultLedger>,
    recovery: Option<RecoveryReport>,
}

impl Serialize for ClosRecoveryRecord<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("ClosRecoveryRecord", 7)?;
        st.serialize_field("index", &self.index)?;
        st.serialize_field("dispatch", &self.dispatch)?;
        st.serialize_field("seed", &self.seed)?;
        st.serialize_field("fault_free", &self.fault_free)?;
        st.serialize_field("faulted", &self.faulted)?;
        st.serialize_field("ledger", &self.ledger)?;
        st.serialize_field("recovery", &self.recovery)?;
        st.end()
    }
}

/// Renders the recovery leg (fault-free twin + faulted twin, paired run by
/// run) as the pretty-JSON `--recovery-json` artifact.
fn clos_recovery_json(healthy: &ClosLabReport, faulted: &ClosLabReport) -> String {
    let records: Vec<ClosRecoveryRecord<'_>> = faulted
        .runs
        .iter()
        .map(|fault_run| {
            let twin = healthy.runs.iter().find(|h| {
                h.scenario.dispatch == fault_run.scenario.dispatch
                    && h.scenario.seed == fault_run.scenario.seed
            });
            ClosRecoveryRecord {
                index: fault_run.index,
                dispatch: fault_run.scenario.dispatch,
                seed: fault_run.scenario.seed,
                fault_free: twin.and_then(|h| h.report.transport.as_ref()),
                faulted: fault_run.report.transport.as_ref(),
                ledger: fault_run.report.faults.as_ref(),
                recovery: twin.and_then(|h| RecoveryReport::measure(&h.report, &fault_run.report)),
            }
        })
        .collect();
    serde_json::to_string_pretty(&records).expect("recovery records always serialize")
}

/// Renders every faulted run's ledger (across one or two lab reports) as the
/// pretty-JSON `--faults-json` artifact.
fn clos_fault_ledgers_json(reports: &[&ClosLabReport]) -> String {
    let records: Vec<ClosFaultRecord<'_>> = reports
        .iter()
        .flat_map(|report| {
            report.runs.iter().filter_map(|run| {
                run.report.faults.as_ref().map(|ledger| ClosFaultRecord {
                    index: run.index,
                    experiment: &report.spec.name,
                    dispatch: run.scenario.dispatch,
                    load_percent: run.scenario.load_percent,
                    seed: run.scenario.seed,
                    ledger,
                })
            })
        })
        .collect();
    serde_json::to_string_pretty(&records).expect("fault ledgers always serialize")
}

/// Reads the `--faults` plan: a JSON list of fault events.
fn read_fault_plan(path: &str) -> Result<FaultPlan, String> {
    serde_json::from_str(&read_spec_text(path)?).map_err(|e| format!("--faults: {e}"))
}

/// `--series <stride>`: arms the probes if `--obs` has not, and samples
/// every `stride` slots into rings of at least 1024 samples.
fn arm_series(spec: &mut ClosSpec, stride: &str) -> Result<(), String> {
    let stride = parse_int(stride, "--series")?;
    if stride == 0 {
        return Err("--series needs a stride of at least 1 slot".to_owned());
    }
    let o = spec.obs.get_or_insert_with(ObsScenario::standard);
    o.series_stride = stride;
    o.series_capacity = o.series_capacity.max(1024);
    Ok(())
}

/// `pktbuf-lab clos`.
struct ClosLayer;

impl LabLayer for ClosLayer {
    type Spec = ClosSpec;
    const WHAT: &'static str = "clos ";
    const FLAGS: &'static [SpecFlag<ClosSpec>] = &[
        SpecFlag::value(&["--name"], |s, v| set(&mut s.name, Ok(v.to_owned()))),
        SpecFlag::sweep(&["--radix"], |s| &mut s.radix),
        SpecFlag::sweep(&["--ingress"], |s| &mut s.ingress_switches),
        SpecFlag::sweep(&["--middle"], |s| &mut s.middle_switches),
        SpecFlag::value(&["--designs"], |s, v| {
            set(&mut s.designs, fabric_designs(v))
        }),
        SpecFlag::value(&["--workloads"], |s, v| {
            set(&mut s.workloads, fabric_workloads(v))
        }),
        SpecFlag::value(&["--dispatches"], |s, v| {
            set(
                &mut s.dispatches,
                parse_list_or_all(v, "dispatch policy", DispatchChoice::all()),
            )
        }),
        SpecFlag::value(&["--arbiters"], |s, v| set(&mut s.arbiters, arbiters(v))),
        SpecFlag::int(&["--iters"], |s| &mut s.islip_iterations),
        SpecFlag::sweep(&["--load"], |s| &mut s.load_percent),
        SpecFlag::sweep(&["--link-capacity"], |s| &mut s.link_capacity),
        SpecFlag::int(&["--link-latency"], |s| &mut s.link_latency),
        SpecFlag::int(&["--egress-period"], |s| &mut s.egress_period),
        SpecFlag::int(&["-b", "--granularity"], |s| &mut s.granularity),
        SpecFlag::int(&["-B", "--rads-granularity"], |s| &mut s.rads_granularity),
        SpecFlag::int(&["--banks"], |s| &mut s.num_banks),
        SpecFlag::int(&["--slots"], |s| &mut s.arrival_slots),
        SpecFlag::value(&["--seeds"], |s, v| set(&mut s.seeds, parse_seeds(v))),
        SpecFlag::value(&["--faults"], |s, v| set(&mut s.faults, read_fault_plan(v))),
        // The transport needs cut-through buffers fabric-wide.
        SpecFlag::switch(&["--transport"], |s| {
            s.transport = Some(TransportScenario::default());
            s.rads_granularity = 1;
        }),
        SpecFlag::switch(&["--obs"], |s| {
            s.obs.get_or_insert_with(ObsScenario::standard);
        }),
        SpecFlag::value(&["--series"], arm_series),
    ];
    const ARTIFACT_FLAGS: &'static [&'static str] = &[
        "--faults-json",
        "--recovery-json",
        "--series-csv",
        "--trace-json",
    ];

    fn smoke_spec(&self) -> Option<ClosSpec> {
        Some(clos_smoke_spec())
    }

    fn arm(&self, spec: &mut ClosSpec, artifacts: &Artifacts, smoke: bool) {
        if artifacts.get("--trace-json").is_some() && !smoke {
            // `--trace-json` without `--smoke` arms the recorder in the spec
            // itself (the smoke suite instead re-runs its degraded leg traced,
            // keeping the gated runs byte-identical to an unarmed suite).
            let o = spec.obs.get_or_insert_with(ObsScenario::standard);
            if o.trace_capacity == 0 {
                o.trace_capacity = CLOS_TRACE_CAPACITY;
            }
        }
    }

    fn check(&self, spec: &ClosSpec, artifacts: &Artifacts, smoke: bool) -> Result<(), String> {
        if artifacts.get("--recovery-json").is_some() && !smoke {
            return Err(
                "--recovery-json needs --smoke (only the smoke suite runs the recovery leg)"
                    .to_owned(),
            );
        }
        let series_armed = spec.obs.is_some_and(|o| o.to_config().series_enabled());
        if artifacts.get("--series-csv").is_some() && !series_armed {
            return Err(
                "--series-csv needs armed series probes: pass --series <stride> or --obs"
                    .to_owned(),
            );
        }
        Ok(())
    }

    fn summary(&self, report: &ClosLabReport, to_stderr: bool) {
        print_clos_summary(report, to_stderr);
    }

    fn finish(
        &self,
        runner: &LabRunner,
        report: &ClosLabReport,
        artifacts: &Artifacts,
        smoke: bool,
        to_stderr: bool,
    ) -> Result<(), String> {
        // The further legs of the smoke suite. Each is run, and every
        // artifact written, *before* any leg is gated, so a gate failure
        // still leaves the evidence on disk for CI to upload.
        let leg = |spec: ClosSpec| -> Result<ClosLabReport, String> {
            let report = runner.run(&spec).map_err(|e| e.to_string())?;
            print_clos_summary(&report, to_stderr);
            Ok(report)
        };
        let smoke_legs = if smoke {
            // The degraded-mode leg: same Clos, fixed fault plan. Then the
            // end-to-end recovery leg: the closed-loop reliable transport
            // over a cut-through Clos, once fault-free and once under the
            // fixed death+flap plan.
            Some((
                leg(clos_fault_smoke_spec())?,
                leg(clos_transport_smoke_spec())?,
                leg(clos_recovery_fault_smoke_spec())?,
            ))
        } else {
            None
        };
        if let Some(path) = artifacts.get("--faults-json") {
            let sources: Vec<&ClosLabReport> = match &smoke_legs {
                Some((faulted, _, _)) => vec![report, faulted],
                None => vec![report],
            };
            write_artifact(path, &clos_fault_ledgers_json(&sources), "fault ledgers")?;
        }
        if let (Some(path), Some((_, healthy, faulted))) =
            (artifacts.get("--recovery-json"), &smoke_legs)
        {
            let json = clos_recovery_json(healthy, faulted);
            write_artifact(path, &json, "recovery reports")?;
        }
        if let Some(path) = artifacts.get("--series-csv") {
            write_artifact(path, &clos_series_csv(report), "series samples")?;
        }
        if let Some(path) = artifacts.get("--trace-json") {
            let dump = match &smoke_legs {
                Some((_, _, faulted)) => clos_smoke_trace(faulted)?,
                None => report
                    .runs
                    .first()
                    .and_then(|run| run.report.trace_json())
                    .ok_or_else(|| "the spec produced no traced run".to_owned())?,
            };
            write_artifact(path, &dump, "flight-recorder trace")?;
        }
        if let Some((fault_report, healthy, faulted)) = &smoke_legs {
            gate_clos_smoke(report)?;
            gate_clos_fault_smoke(fault_report, report)?;
            gate_clos_recovery_smoke(healthy, faulted)?;
        }
        Ok(())
    }
}

/// The end-to-end recovery gates of `clos --smoke`: pairing each faulted
/// transport run with its fault-free twin, every leg must deliver
/// exactly-once (zero duplicate deliveries), close both the transport ledger
/// (`injected = acked + in-flight + queued retransmissions + abandoned`) and
/// the fabric conservation balance, and abandon nothing (both faults are
/// windowed, so the retry budget must carry every cell across); the
/// fault-free twin must drain completely (every injected cell acked), the
/// faulted run must actually feel the plan (timeouts fired), and goodput
/// must regain ≥95% of the twin's within `MAX_SLOTS_TO_RECOVER` slots of
/// the last fault window closing.
fn gate_clos_recovery_smoke(
    healthy: &ClosLabReport,
    faulted: &ClosLabReport,
) -> Result<(), String> {
    /// Recovery deadline, in slots after the last fault window closes.
    const MAX_SLOTS_TO_RECOVER: u64 = 2_000;
    let mut failures = Vec::new();
    if healthy.runs.len() != faulted.runs.len() {
        return Err(format!(
            "recovery legs diverged: {} fault-free runs vs {} faulted",
            healthy.runs.len(),
            faulted.runs.len(),
        ));
    }
    let mut recovered_slots = Vec::new();
    for (h, f) in healthy.runs.iter().zip(&faulted.runs) {
        let label = format!("recovery run {} ({})", f.index, f.scenario.dispatch);
        let (Some(ht), Some(ft)) = (h.report.transport.as_ref(), f.report.transport.as_ref())
        else {
            failures.push(format!("{label} is missing a transport report"));
            continue;
        };
        for (leg, run, t) in [("fault-free", &h.report, ht), ("faulted", &f.report, ft)] {
            if t.duplicate_deliveries != 0 {
                failures.push(format!(
                    "{label} {leg} leg delivered {} duplicates past dedup",
                    t.duplicate_deliveries,
                ));
            }
            if !run.transport_conservation_holds() {
                failures.push(format!(
                    "{label} {leg} leg broke the transport ledger: {} injected vs \
                     {} acked + {} in flight + {} queued + {} abandoned",
                    t.injected_cells,
                    t.acked_cells,
                    t.in_flight_at_end,
                    t.retransmissions_outstanding_at_end,
                    t.gave_up_cells,
                ));
            }
            if !run.conservation_holds() {
                failures.push(format!(
                    "{label} {leg} leg broke fabric conservation: {} arrived vs {} delivered",
                    run.arrivals, run.delivered,
                ));
            }
            if t.gave_up_cells != 0 {
                failures.push(format!(
                    "{label} {leg} leg abandoned {} cells under windowed faults",
                    t.gave_up_cells,
                ));
            }
        }
        if ht.acked_cells != ht.injected_cells {
            failures.push(format!(
                "{label} fault-free leg left {} of {} cells unacked",
                ht.injected_cells - ht.acked_cells,
                ht.injected_cells,
            ));
        }
        if ft.timeouts_fired == 0 {
            failures.push(format!("{label} fired no timeouts — the plan did not bite"));
        }
        match RecoveryReport::measure(&h.report, &f.report) {
            None => failures.push(format!("{label} produced no recovery measurement")),
            Some(rec) => {
                if !rec.recovered {
                    failures.push(format!(
                        "{label} never regained 95% goodput after the fault window \
                         closed at slot {}",
                        rec.fault_close_slot,
                    ));
                } else {
                    let slots = rec.slots_to_recover.unwrap_or(u64::MAX);
                    if slots > MAX_SLOTS_TO_RECOVER {
                        failures.push(format!(
                            "{label} took {slots} slots to recover \
                             (bound {MAX_SLOTS_TO_RECOVER})",
                        ));
                    } else {
                        recovered_slots.push(slots);
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        eprintln!(
            "clos recovery smoke: all {} paired runs exactly-once with closed transport \
             ledgers; goodput recovered within {:?} slots of the fault window closing",
            faulted.runs.len(),
            recovered_slots,
        );
        Ok(())
    } else {
        Err(format!(
            "clos recovery smoke gate failed: {}",
            failures.join("; ")
        ))
    }
}

/// The degraded-mode acceptance gates of `clos --smoke`: under the fixed
/// fault plan every run must still conserve cells (the fault ledger closes
/// the balance), lose nothing silently (both faults are windowed, so no cell
/// may be stranded or dropped — only delayed), keep reordering bounded
/// (spray reorders by design, so its rate may grow at most 1.5× over the
/// fault-free leg's rate at the same dispatch and load, plus a tenth of
/// deliveries of slack that also covers flow-hash failover from its healthy
/// zero), and actually feel the faults (a run whose ledger shows no stalled
/// cells did not exercise the plan).
fn gate_clos_fault_smoke(report: &ClosLabReport, healthy: &ClosLabReport) -> Result<(), String> {
    let mut failures = Vec::new();
    for run in &report.runs {
        let label = format!(
            "fault run {} ({}@{}%)",
            run.index, run.scenario.dispatch, run.scenario.load_percent,
        );
        let r = &run.report;
        let healthy_rate = healthy
            .runs
            .iter()
            .find(|h| {
                h.scenario.dispatch == run.scenario.dispatch
                    && h.scenario.load_percent == run.scenario.load_percent
            })
            .map_or(0.0, |h| {
                h.report.reordered_cells as f64 / h.report.delivered.max(1) as f64
            });
        let Some(ledger) = r.faults.as_ref() else {
            failures.push(format!("{label} reported no fault ledger"));
            continue;
        };
        if !r.conservation_holds() {
            failures.push(format!(
                "{label} broke degraded-mode conservation: {} arrived vs {} delivered, \
                 ledger {:?}",
                r.arrivals, r.delivered, ledger,
            ));
        }
        if r.lost_cells != ledger.refused_cells + ledger.dropped_cells {
            failures.push(format!(
                "{label} lost {} cells but the ledger only explains {}",
                r.lost_cells,
                ledger.refused_cells + ledger.dropped_cells,
            ));
        }
        if ledger.stranded_cells != 0 || ledger.dropped_cells != 0 || ledger.refused_cells != 0 {
            failures.push(format!(
                "{label}: windowed faults must only delay cells, ledger {ledger:?}"
            ));
        }
        if ledger.stalled_cell_slots == 0 {
            failures.push(format!("{label} never stalled — the plan did not bite"));
        }
        let bound = healthy_rate * 1.5 + 0.1;
        if r.reordered_cells as f64 > r.delivered as f64 * bound {
            failures.push(format!(
                "{label} reordered {} of {} delivered cells (bound {:.1}%)",
                r.reordered_cells,
                r.delivered,
                bound * 100.0,
            ));
        }
    }
    if failures.is_empty() {
        let stalled: u64 = report
            .runs
            .iter()
            .filter_map(|run| run.report.faults.as_ref())
            .map(|ledger| ledger.stalled_cell_slots)
            .sum();
        eprintln!(
            "clos fault smoke: all {} degraded runs conserving with every cell ledgered \
             ({} stalled cell-slots across ledgers); reordering bounded",
            report.runs.len(),
            stalled,
        );
        Ok(())
    } else {
        Err(format!(
            "clos fault smoke gate failed: {}",
            failures.join("; ")
        ))
    }
}

/// The `clos --smoke` acceptance gates: zero lost cells and fabric-wide cell
/// conservation on every run, and zero reordered deliveries on the flow-hash
/// runs (the ordering guarantee pinned fabric-wide). Spray reordering is
/// *reported* — load-balancing trades order for balance by design — but not
/// gated.
fn gate_clos_smoke(report: &ClosLabReport) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut spray_reordered = 0u64;
    for run in &report.runs {
        let s = &run.scenario;
        let label = format!(
            "run {} ({}x{} r={} m={} {}/{}@{}%)",
            run.index,
            s.radix,
            s.radix,
            s.ingress_switches,
            s.middle_switches,
            s.workload,
            s.dispatch,
            s.load_percent,
        );
        if !run.report.zero_loss {
            failures.push(format!("{label} lost {} cells", run.report.lost_cells));
        }
        if !run.report.conservation_holds() {
            failures.push(format!(
                "{label} broke conservation: {} arrived vs {} delivered + {} resident",
                run.report.arrivals,
                run.report.delivered,
                run.report.resident_cells + run.report.link_resident_cells,
            ));
        }
        match s.dispatch {
            DispatchChoice::FlowHash => {
                if run.report.reordered_cells > 0 {
                    failures.push(format!(
                        "{label} reordered {} cells under flow-hash pinning",
                        run.report.reordered_cells,
                    ));
                }
            }
            DispatchChoice::Spray | DispatchChoice::OccupancySpray => {
                spray_reordered += run.report.reordered_cells;
            }
        }
    }
    if failures.is_empty() {
        eprintln!(
            "clos smoke: all {} runs zero-loss and conserving; flow-hash in order; \
             spray reordered {} cells (reported, not gated)",
            report.runs.len(),
            spray_reordered,
        );
        Ok(())
    } else {
        Err(format!("clos smoke gate failed: {}", failures.join("; ")))
    }
}

fn print_clos_summary(report: &ClosLabReport, to_stderr: bool) {
    let emit = |line: &str| emit(to_stderr, line);
    let mut table = TextTable::new(vec![
        "run",
        "N",
        "r",
        "m",
        "design",
        "workload",
        "dispatch",
        "arbiter",
        "load%",
        "seed",
        "arrivals",
        "delivered",
        "lost",
        "reordered",
        "stalls",
        "peak-link",
        "latency",
        "zero-loss",
        "conserving",
    ]);
    for run in &report.runs {
        let s = &run.scenario;
        let r = &run.report;
        table.push_row(vec![
            run.index.to_string(),
            s.radix.to_string(),
            s.ingress_switches.to_string(),
            s.middle_switches.to_string(),
            s.design.to_string(),
            s.workload.to_string(),
            s.dispatch.to_string(),
            s.arbiter.to_string(),
            s.load_percent.to_string(),
            s.seed.to_string(),
            r.arrivals.to_string(),
            r.delivered.to_string(),
            r.lost_cells.to_string(),
            r.reordered_cells.to_string(),
            r.credit_stall_slots.to_string(),
            r.peak_link_depth.to_string(),
            format!("{:.1}", r.mean_latency_slots),
            r.zero_loss.to_string(),
            r.conservation_holds().to_string(),
        ]);
    }
    emit(&table.render());
    for run in &report.runs {
        if let Some(t) = &run.report.transport {
            emit(&format!(
                "  run {} transport: {} injected, {} acked, {} retransmitted, \
                 {} timeouts, {} duplicates filtered, {} duplicate deliveries, \
                 {} abandoned, ledger {}",
                run.index,
                t.injected_cells,
                t.acked_cells,
                t.retransmitted_cells,
                t.timeouts_fired,
                t.duplicates_filtered,
                t.duplicate_deliveries,
                t.gave_up_cells,
                if run.report.transport_conservation_holds() {
                    "closed"
                } else {
                    "OPEN"
                },
            ));
        }
    }
    let agg = &report.aggregate;
    emit(&format!(
        "{}: {} runs ({} skipped invalid), {} zero-loss, {} conserving, {} arrivals, \
         {} delivered, {} lost, {} reordered, {} credit-stall slots, peak link depth {}, \
         mean latency {:.1}, max latency {} slots",
        report.spec.name,
        agg.runs,
        report.skipped_invalid,
        agg.zero_loss_runs,
        agg.conserving_runs,
        agg.total_arrivals,
        agg.total_delivered,
        agg.total_lost_cells,
        agg.total_reordered_cells,
        agg.total_credit_stall_slots,
        agg.peak_link_depth,
        agg.mean_latency_slots,
        agg.max_latency_slots,
    ));
}

fn paper_command(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or_else(|| {
        format!(
            "paper needs an artefact name: {}",
            bench::paper::ARTEFACTS.join(", ")
        )
    })?;
    if args.len() > 1 {
        return Err(format!("unexpected argument {:?}", args[1]));
    }
    match bench::paper::run_artefact(name) {
        Some(true) => Ok(()),
        Some(false) => Err(format!("artefact {name:?} reported a failure")),
        None => Err(format!(
            "unknown artefact {name:?} (expected one of: {})",
            bench::paper::ARTEFACTS.join(", ")
        )),
    }
}

/// `pktbuf-lab run` and `sweep`: the same command, `sweep` also printing the
/// per-run table.
struct RunLayer {
    print_runs: bool,
}

impl LabLayer for RunLayer {
    type Spec = ExperimentSpec;
    const WHAT: &'static str = "";
    const UNKNOWN_FLAG_HINT: &'static str = " (try `pktbuf-lab help`)";
    const FLAGS: &'static [SpecFlag<ExperimentSpec>] = &[
        SpecFlag::value(&["--name"], |s, v| set(&mut s.name, Ok(v.to_owned()))),
        SpecFlag::value(&["--designs"], |s, v| {
            set(
                &mut s.designs,
                parse_list_or_all(v, "design", DesignKind::all()),
            )
        }),
        SpecFlag::value(&["--workloads"], |s, v| {
            set(
                &mut s.workloads,
                parse_list_or_all(v, "workload", Workload::all()),
            )
        }),
        SpecFlag::sweep(&["--queues"], |s| &mut s.num_queues),
        SpecFlag::sweep(&["-b", "--granularity"], |s| &mut s.granularity),
        SpecFlag::sweep(&["-B", "--rads-granularity"], |s| &mut s.rads_granularity),
        SpecFlag::sweep(&["--banks"], |s| &mut s.num_banks),
        // The two phases exclude each other: asking for one switches the
        // other off.
        SpecFlag::value(&["--slots"], |s, v| {
            s.arrival_slots = parse_int(v, "--slots")?;
            if s.arrival_slots > 0 {
                s.preload_cells_per_queue = 0;
            }
            Ok(())
        }),
        SpecFlag::value(&["--preload"], |s, v| {
            s.preload_cells_per_queue = parse_int(v, "--preload")?;
            if s.preload_cells_per_queue > 0 {
                s.arrival_slots = 0;
            }
            Ok(())
        }),
        SpecFlag::value(&["--seeds"], |s, v| set(&mut s.seeds, parse_seeds(v))),
        SpecFlag::switch(&["--record-grants"], |s| s.record_grants = true),
    ];

    fn summary(&self, report: &ExperimentReport, to_stderr: bool) {
        print_summary(report, self.print_runs, to_stderr);
    }
}

fn print_summary(report: &ExperimentReport, print_runs: bool, to_stderr: bool) {
    let emit = |line: &str| emit(to_stderr, line);
    if print_runs {
        let mut table = TextTable::new(vec![
            "run",
            "design",
            "workload",
            "Q",
            "b",
            "B",
            "M",
            "seed",
            "grants",
            "misses",
            "drops",
            "conflicts",
            "grants/slot",
            "loss-free",
        ]);
        for run in &report.runs {
            let s = &run.scenario;
            let r = &run.report;
            table.push_row(vec![
                run.index.to_string(),
                s.design.to_string(),
                s.workload.to_string(),
                s.num_queues.to_string(),
                s.granularity.to_string(),
                s.rads_granularity.to_string(),
                s.num_banks.to_string(),
                s.seed.to_string(),
                r.stats.grants.to_string(),
                r.stats.misses.to_string(),
                r.stats.drops.to_string(),
                r.stats.bank_conflicts.to_string(),
                format!("{:.3}", r.grants_per_slot()),
                r.stats.is_loss_free().to_string(),
            ]);
        }
        emit(&table.render());
    }
    let agg = &report.aggregate;
    emit(&format!(
        "{}: {} runs ({} skipped invalid), {} loss-free, {} grants, {} misses, {} drops, \
         {} conflicts, mean {:.3} grants/slot, peak h-SRAM {} cells, peak RR {} entries",
        report.spec.name,
        agg.runs,
        report.skipped_invalid,
        agg.loss_free_runs,
        agg.total_grants,
        agg.total_misses,
        agg.total_drops,
        agg.total_bank_conflicts,
        agg.mean_grants_per_slot,
        agg.peak_head_sram_cells,
        agg.peak_rr_entries,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pktbuf-lab spec` prints exactly the committed schema fixture (which
    /// `tests/schema_fixtures.rs` in turn round-trips through the parser).
    #[test]
    fn template_spec_is_the_committed_fixture() {
        assert_eq!(
            format!("{}\n", experiment::to_json(&template_spec())),
            include_str!("../../../../tests/fixtures/spec_template.json")
        );
        experiment::expand(&template_spec()).expect("the template spec is valid");
    }
}
