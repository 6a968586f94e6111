//! Technology evaluation: turning dimensioning formulas into area and access
//! time via the `cacti-lite` model.
//!
//! This is the code behind Figure 8 (RADS SRAM cost vs. lookahead), Figure 10
//! (RADS vs. CFDS cost vs. delay), Figure 11 (maximum number of queues under
//! the access-time constraint) and the §7.2 SRAM size quotes.

use cacti_lite::{estimate_cam, estimate_sram, CamOrganization, ProcessNode, SramOrganization};
use cfds::sizing as cfds_sizing;
use mma::sizing as rads_sizing;
use pktbuf_model::{CfdsConfig, LineRate, CELL_BYTES};
use serde::{Deserialize, Serialize};
use sram_buf::{SramImplKind, SramImplSpec};

/// Physical cost of one SRAM buffer implementation at a given capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramPoint {
    /// Implementation evaluated.
    pub kind: SramImplKind,
    /// Capacity in cells.
    pub cells: usize,
    /// Capacity in bytes (including per-entry tag/pointer overhead).
    pub capacity_bytes: u64,
    /// Effective access time per buffer operation in nanoseconds (serialised
    /// accesses included).
    pub access_time_ns: f64,
    /// Area in cm².
    pub area_cm2: f64,
}

/// Evaluates one SRAM organisation holding `cells` cells for `num_queues`
/// queues.
pub fn evaluate_sram_impl(
    kind: SramImplKind,
    cells: usize,
    num_queues: usize,
    node: &ProcessNode,
) -> SramPoint {
    let cells = cells.max(1);
    let spec = SramImplSpec::for_kind(kind, num_queues, cells);
    let entry_bytes = (spec.entry_bits() as u64).div_ceil(8);
    let capacity_bytes = cells as u64 * entry_bytes;
    let (access, area) = match kind {
        SramImplKind::GlobalCam => {
            let est = estimate_cam(
                &CamOrganization::new(cells as u64, spec.data_bits, spec.overhead_bits)
                    .with_ports(spec.read_ports, spec.write_ports),
                node,
            );
            (est.access_time_ns, est.area_cm2)
        }
        SramImplKind::UnifiedLinkedList | SramImplKind::UnifiedLinkedListTimeMux => {
            let est = estimate_sram(
                &SramOrganization::new(capacity_bytes, entry_bytes as u32)
                    .with_ports(spec.read_ports, spec.write_ports),
                node,
            );
            (
                est.access_time_ns * spec.serialized_accesses as f64,
                est.area_cm2,
            )
        }
    };
    SramPoint {
        kind,
        cells,
        capacity_bytes,
        access_time_ns: access,
        area_cm2: area,
    }
}

/// One point of the Figure 8 / Figure 10 curves: a (design, lookahead)
/// combination evaluated across SRAM implementations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Design label ("RADS" or "CFDS").
    pub design: String,
    /// DRAM transfer granularity in cells (`B` for RADS, `b` for CFDS).
    pub granularity: usize,
    /// Lookahead in slots.
    pub lookahead_slots: usize,
    /// Total scheduler-visible delay in slots (lookahead plus, for CFDS,
    /// the latency register).
    pub delay_slots: usize,
    /// Head-SRAM size in cells.
    pub head_sram_cells: usize,
    /// Tail-SRAM size in cells.
    pub tail_sram_cells: usize,
    /// Cost of the head SRAM for every implementation, in
    /// [`SramImplKind::all`] order.
    pub head_impls: Vec<SramPoint>,
    /// Cost of the tail SRAM for every implementation, in the same order.
    pub tail_impls: Vec<SramPoint>,
}

impl DesignPoint {
    /// The paper's two candidate organisations (global CAM and the
    /// time-multiplexed unified linked list).
    fn paper_kinds() -> [SramImplKind; 2] {
        [
            SramImplKind::GlobalCam,
            SramImplKind::UnifiedLinkedListTimeMux,
        ]
    }

    /// Head-SRAM point for a specific implementation.
    pub fn head_impl(&self, kind: SramImplKind) -> &SramPoint {
        self.head_impls
            .iter()
            .find(|p| p.kind == kind)
            .expect("all implementations are evaluated")
    }

    /// Fastest of the paper's two organisations for the head SRAM.
    pub fn best_access_time_ns(&self) -> f64 {
        Self::paper_kinds()
            .iter()
            .map(|k| self.head_impl(*k).access_time_ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// The implementation achieving [`DesignPoint::best_access_time_ns`].
    pub fn best_kind(&self) -> SramImplKind {
        Self::paper_kinds()
            .into_iter()
            .min_by(|a, b| {
                self.head_impl(*a)
                    .access_time_ns
                    .total_cmp(&self.head_impl(*b).access_time_ns)
            })
            .expect("two candidate kinds")
    }

    /// Combined head + tail SRAM area of the fastest organisation, in cm²
    /// (what Figure 10 plots).
    pub fn total_area_cm2(&self) -> f64 {
        let kind = self.best_kind();
        self.head_impl(kind).area_cm2
            + self
                .tail_impls
                .iter()
                .find(|p| p.kind == kind)
                .expect("all implementations are evaluated")
                .area_cm2
    }

    /// [`DesignPoint::delay_slots`] in seconds at `rate`.
    pub fn delay_seconds(&self, rate: LineRate) -> f64 {
        self.delay_slots as f64 * rate.slot_duration().as_ns() * 1e-9
    }

    /// Whether the fastest organisation meets the per-slot access-time target
    /// of `line_rate`.
    pub fn meets(&self, line_rate: LineRate) -> bool {
        self.best_access_time_ns() <= line_rate.slot_duration().as_ns()
    }
}

fn evaluate_all(cells: usize, num_queues: usize, node: &ProcessNode) -> Vec<SramPoint> {
    SramImplKind::all()
        .iter()
        .map(|k| evaluate_sram_impl(*k, cells, num_queues, node))
        .collect()
}

/// Figure 8 point: a RADS design with `num_queues`, granularity `big_b` and
/// the given lookahead.
pub fn rads_point(
    num_queues: usize,
    big_b: usize,
    lookahead: usize,
    node: &ProcessNode,
) -> DesignPoint {
    let head_cells = rads_sizing::rads_sram_size_cells(lookahead, num_queues, big_b);
    let tail_cells = num_queues * (big_b - 1) + big_b;
    DesignPoint {
        design: "RADS".to_string(),
        granularity: big_b,
        lookahead_slots: lookahead,
        delay_slots: lookahead,
        head_sram_cells: head_cells,
        tail_sram_cells: tail_cells,
        head_impls: evaluate_all(head_cells, num_queues, node),
        tail_impls: evaluate_all(tail_cells, num_queues, node),
    }
}

/// Figure 10 point: a CFDS design with the given configuration and lookahead.
pub fn cfds_point(cfg: &CfdsConfig, lookahead: usize, node: &ProcessNode) -> DesignPoint {
    let head_cells = cfds_sizing::sram_cells(cfg, lookahead);
    let tail_cells =
        cfg.num_queues * (cfg.granularity - 1) + cfg.granularity + cfds_sizing::latency_slots(cfg);
    DesignPoint {
        design: "CFDS".to_string(),
        granularity: cfg.granularity,
        lookahead_slots: lookahead,
        delay_slots: cfds_sizing::total_delay_slots(cfg, lookahead),
        head_sram_cells: head_cells,
        tail_sram_cells: tail_cells,
        head_impls: evaluate_all(head_cells, cfg.num_queues, node),
        tail_impls: evaluate_all(tail_cells, cfg.num_queues, node),
    }
}

/// Head-SRAM size in bytes at a given lookahead (the §7.2 quotes).
pub fn rads_head_sram_bytes(num_queues: usize, big_b: usize, lookahead: usize) -> u64 {
    (rads_sizing::rads_sram_size_cells(lookahead, num_queues, big_b) * CELL_BYTES) as u64
}

/// Figure 11: the largest number of queues whose minimum-SRAM (maximum
/// lookahead) design still meets the line rate's access-time constraint.
///
/// `granularity` is `B` for the RADS column and `b` for the CFDS columns; a
/// CFDS evaluation also needs `big_b` and `num_banks`.
pub fn max_queues_meeting_target(
    line_rate: LineRate,
    granularity: usize,
    big_b: usize,
    num_banks: usize,
    node: &ProcessNode,
) -> usize {
    let meets = |q: usize| -> bool {
        if q == 0 {
            return true;
        }
        let point = if granularity >= big_b {
            rads_point(q, big_b, rads_sizing::min_lookahead(q, big_b), node)
        } else {
            let cfg = CfdsConfig {
                num_queues: q,
                granularity,
                rads_granularity: big_b,
                num_banks,
                ..CfdsConfig::default()
            };
            if cfg.validate().is_err() {
                return false;
            }
            cfds_point(&cfg, cfg.min_lookahead(), node)
        };
        point.meets(line_rate)
    };
    // Exponential probe then binary search.
    let mut lo = 0usize;
    let mut hi = 1usize;
    while hi <= 1 << 16 && meets(hi) {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> ProcessNode {
        ProcessNode::node_130nm()
    }

    #[test]
    fn sram_point_costs_grow_with_capacity() {
        for kind in SramImplKind::all() {
            let small = evaluate_sram_impl(kind, 1_000, 512, &node());
            let large = evaluate_sram_impl(kind, 100_000, 512, &node());
            assert!(large.access_time_ns > small.access_time_ns, "{kind:?}");
            assert!(large.area_cm2 > small.area_cm2, "{kind:?}");
            assert!(small.capacity_bytes > 64_000);
        }
    }

    #[test]
    fn time_mux_is_slower_but_smaller_than_parallel_linked_list() {
        let mux = evaluate_sram_impl(SramImplKind::UnifiedLinkedListTimeMux, 16_000, 512, &node());
        let par = evaluate_sram_impl(SramImplKind::UnifiedLinkedList, 16_000, 512, &node());
        assert!(mux.access_time_ns > par.access_time_ns);
        assert!(mux.area_cm2 < par.area_cm2);
    }

    #[test]
    fn paper_oc768_rads_is_feasible_and_oc3072_is_not() {
        // §7.2: RADS is fine at OC-768 (12.8 ns slot) even at the shortest
        // lookahead, but cannot meet OC-3072 (3.2 ns) even at the longest.
        let oc768 = rads_point(128, 8, 64, &node());
        assert!(
            oc768.meets(LineRate::Oc768),
            "{}",
            oc768.best_access_time_ns()
        );
        let oc3072 = rads_point(512, 32, rads_sizing::min_lookahead(512, 32), &node());
        assert!(
            !oc3072.meets(LineRate::Oc3072),
            "{}",
            oc3072.best_access_time_ns()
        );
    }

    #[test]
    fn paper_oc3072_cfds_meets_the_constraint_with_modest_cost() {
        // §8.3: a CFDS system with b = 4 meets 3.2 ns with ~10 µs delay and
        // a fraction of a cm² of SRAM.
        let cfg = CfdsConfig {
            num_queues: 512,
            granularity: 4,
            rads_granularity: 32,
            num_banks: 256,
            ..CfdsConfig::default()
        };
        cfg.validate().unwrap();
        let point = cfds_point(&cfg, cfg.min_lookahead(), &node());
        assert!(
            point.meets(LineRate::Oc3072),
            "{}",
            point.best_access_time_ns()
        );
        let delay = point.delay_seconds(LineRate::Oc3072);
        assert!(delay < 3e-5, "{delay}");
        assert!(point.total_area_cm2() < 1.5, "{}", point.total_area_cm2());
        // And it is both faster and smaller than the RADS equivalent.
        let rads = rads_point(512, 32, rads_sizing::min_lookahead(512, 32), &node());
        assert!(point.best_access_time_ns() < rads.best_access_time_ns());
        assert!(point.total_area_cm2() < rads.total_area_cm2());
    }

    #[test]
    fn sram_byte_quotes_match_section_7_2() {
        // Max lookahead: ~1 MB at OC-3072, ~60 kB at OC-768.
        let oc3072 = rads_head_sram_bytes(512, 32, rads_sizing::min_lookahead(512, 32));
        assert!(oc3072 > 900_000 && oc3072 < 1_200_000, "{oc3072}");
        let oc768 = rads_head_sram_bytes(128, 8, rads_sizing::min_lookahead(128, 8));
        assert!(oc768 > 50_000 && oc768 < 70_000, "{oc768}");
    }

    #[test]
    fn max_queues_cfds_beats_rads_by_severalfold() {
        // Figure 11: CFDS supports several times more queues than RADS at
        // OC-3072 under the 3.2 ns constraint.
        let rads_max = max_queues_meeting_target(LineRate::Oc3072, 32, 32, 256, &node());
        let cfds_max = max_queues_meeting_target(LineRate::Oc3072, 4, 32, 256, &node());
        assert!(rads_max >= 32, "RADS supports some queues ({rads_max})");
        assert!(
            cfds_max as f64 >= 3.0 * rads_max as f64,
            "CFDS {cfds_max} vs RADS {rads_max}"
        );
        assert!(
            cfds_max >= 512,
            "CFDS reaches the paper's target Q (got {cfds_max})"
        );
    }

    #[test]
    fn best_kind_is_one_of_the_paper_candidates() {
        let point = rads_point(512, 32, 4096, &node());
        let kind = point.best_kind();
        assert!(matches!(
            kind,
            SramImplKind::GlobalCam | SramImplKind::UnifiedLinkedListTimeMux
        ));
        let head = point.head_impl(kind);
        assert!(head.access_time_ns > 0.0);
    }
}
