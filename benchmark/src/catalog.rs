//! The metric catalogue: every name `BENCHMARK.json` lists, with its unit
//! and direction. The `benchmark_json_matches_the_catalogue` test keeps the
//! two identical; `README.md` says what each is and which end-to-end metric
//! it should move.

/// `(name, unit, better)` of one metric.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, same five on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    ("ns_per_buffer_step", "ns", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_cells_per_port_slot", "cells/slot", "higher"),
    ("sim_latency_max_slots", "slots", "lower"),
];

/// The per-layer metrics of the traced run. A metric that does not apply to
/// a workload (no CFDS buffer in the Clos, no arbiter around a standalone
/// buffer) reads 0 there.
pub const PER_LAYER: [MetricSpec; 53] = [
    ("traffic.fill_ns_per_port_slot", "ns", "lower"),
    ("traffic.request_next_ns", "ns", "lower"),
    ("traffic.closedloop_poll_ns", "ns", "lower"),
    ("traffic.cells_offered", "count", "higher"),
    ("pktbuf.rads_step_ns", "ns", "lower"),
    ("pktbuf.cfds_step_ns", "ns", "lower"),
    ("pktbuf.busy_share", "ratio", "lower"),
    ("pktbuf.idle_skipped_share", "ratio", "higher"),
    ("pktbuf.requestable_calls_per_step", "count", "lower"),
    ("pktbuf.dram_accesses_per_cell", "count", "lower"),
    ("pktbuf.peak_head_sram_cells", "count", "lower"),
    ("pktbuf.peak_tail_sram_cells", "count", "lower"),
    ("pktbuf.failed_cells", "count", "lower"),
    ("mma.ecqf_slot_ns", "ns", "lower"),
    ("mma.tail_select_ns", "ns", "lower"),
    ("cfds.dss_issue_ns", "ns", "lower"),
    ("cfds.renaming_block_ns", "ns", "lower"),
    ("cfds.bank_conflicts", "count", "lower"),
    ("cfds.max_dss_delay_slots", "slots", "lower"),
    ("cfds.peak_rr_entries", "count", "lower"),
    ("dram_sim.store_block_ns", "ns", "lower"),
    ("sram_buf.cam_cell_ns", "ns", "lower"),
    ("sram_buf.linked_list_cell_ns", "ns", "lower"),
    ("fabric.arbiter_schedule_n16_ns", "ns", "lower"),
    ("fabric.arbiter_schedule_n8_ns", "ns", "lower"),
    ("fabric.switch_self_ns_per_slot", "ns", "lower"),
    ("fabric.clos_self_ns_per_slot", "ns", "lower"),
    ("fabric.transport_extra_ns_per_slot", "ns", "lower"),
    ("fabric.step_overhead_ratio", "ratio", "lower"),
    ("fabric.crossbar_utilization", "ratio", "higher"),
    ("fabric.credit_stall_slots", "count", "lower"),
    ("fabric.peak_link_depth", "count", "lower"),
    ("fabric.retransmitted_cells", "count", "lower"),
    ("fabric.timeouts_fired", "count", "lower"),
    ("fabric.duplicates_filtered", "count", "lower"),
    ("fabric.gave_up_cells", "count", "lower"),
    ("fabric.fault_lost_cells", "count", "lower"),
    ("fabric.clos_workers2_ratio", "ratio", "lower"),
    ("sim.engine_self_ns_per_slot", "ns", "lower"),
    ("sim.per_slot_engine_ratio", "ratio", "lower"),
    ("sim.lab_overhead_us_per_run", "us", "lower"),
    ("sim.report_json_us", "us", "lower"),
    ("sim.spec_roundtrip_us", "us", "lower"),
    ("obs.armed_overhead_ratio", "ratio", "lower"),
    ("obs.hist_record_ns", "ns", "lower"),
    ("cacti_lite.design_point_us", "us", "lower"),
    ("host.calib_mem_ns", "ns", "lower"),
    ("host.calib_cpu_ns", "ns", "lower"),
    ("host.reps_spread", "ratio", "lower"),
    ("host.peak_heap_mb", "MiB", "lower"),
    ("host.allocs_per_kstep", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{array_field, field};
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn specs(list: &[Value], with_bound: bool) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| {
                let o = m.as_object().expect("metric object");
                assert_eq!(o.len(), if with_bound { 4 } else { 3 }, "exact keys: {m:?}");
                if with_bound {
                    let bound = o.get("bound").and_then(Value::as_f64).expect("bound");
                    assert!((0.0..=0.25).contains(&bound), "{m:?}");
                }
                let s = |k: &str| o.get(k).and_then(Value::as_str).expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn owned(list: &[MetricSpec]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = benchmark_json();
        let keys: Vec<&str> = json
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            specs(array_field(&json, "end_to_end").unwrap(), true),
            owned(&END_TO_END)
        );
        assert_eq!(
            specs(array_field(&json, "per_layer").unwrap(), false),
            owned(&PER_LAYER)
        );
        let workloads: Vec<&str> = array_field(&json, "workloads")
            .unwrap()
            .iter()
            .map(|w| {
                let o = w.as_object().expect("workload object");
                assert_eq!(o.len(), 2);
                let why = o.get("why").and_then(Value::as_str).expect("why");
                assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                o.get("name").and_then(Value::as_str).expect("name")
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            field(&json, "run_seconds").unwrap().as_u64(),
            Some(crate::run::RUN_SECONDS)
        );
        let paths: Vec<&str> = array_field(&json, "paths")
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    /// The `[profile.release]` table of a manifest, as sorted `key = value`
    /// lines with comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn profile_matches_root() {
        let read = |rel: &str| {
            let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let root = release_profile(&read("../Cargo.toml"));
        let own = release_profile(&read("Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release]"
        );
        assert_eq!(
            own, root,
            "benchmark/Cargo.toml must build the program exactly as the root workspace does"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _, _)| *n)
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
