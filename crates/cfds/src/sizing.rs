//! CFDS dimensioning formulas (equations (1)–(4) of §5, reconstructed).
//!
//! The scanned equations are partly garbled; the reconstructions below follow
//! the surrounding prose and are cross-checked against Table 2
//! (`pktbuf-lab paper table2` prints the reproduced column next to the
//! paper's, including the residual discrepancies at `b = B/2` and `b = B`)
//! and against the empirical maxima measured by the slot-level simulator.
//!
//! Everything here counts slots and cells; only [`scheduling_time_ns`] takes
//! a line rate, to turn its slot count into nanoseconds.

use mma::sizing::rads_sram_size_cells;
use pktbuf_model::{CfdsConfig, LineRate};

/// Requests Register size (equation (1)): the DSS manages reads and writes of
/// `Q` logical queues (hence `2Q` request streams) spread over `G` groups of
/// `B/b` banks; the bound is `(2Q/G) · (B/b) = 2·Q·(B/b)²/M` entries.
///
/// The degenerate `b = B` configuration needs no reordering at all (every
/// group is a single bank and the MMA already spaces accesses by `B` slots),
/// so its RR size is zero.
pub fn rr_size(cfg: &CfdsConfig) -> usize {
    let bpg = cfg.banks_per_group();
    if bpg <= 1 {
        return 0;
    }
    let two_q = 2 * cfg.num_queues;
    let per_group = two_q.div_ceil(cfg.num_groups());
    per_group * bpg
}

/// Maximum number of times a request can be passed over by younger requests
/// (equation (2)): every older request to the same bank locks it for
/// `B/b − 1` further issue opportunities, and at most `2Q/G` requests can be
/// heading to any one bank.
pub fn max_skips(cfg: &CfdsConfig) -> usize {
    let bpg = cfg.banks_per_group();
    if bpg <= 1 {
        return 0;
    }
    let per_group = (2 * cfg.num_queues).div_ceil(cfg.num_groups());
    per_group * (bpg - 1)
}

/// Extra delay of the latency register in slots (equation (3)): the time to
/// drain the RR in FIFO order plus the worst-case skipping, with one issue
/// opportunity every `b` slots, plus the difference between the real DRAM
/// access time (`B` slots) and the `b` slots the MMA already accounts for.
///
/// The degenerate `b = B` configuration reorders nothing, so its register is
/// just the `B`-slot DRAM read, as RADS's delay line is. For `B/b ≥ 2` the
/// formula gives at least `B + b`.
pub fn latency_slots(cfg: &CfdsConfig) -> usize {
    if cfg.banks_per_group() <= 1 {
        return cfg.rads_granularity;
    }
    (rr_size(cfg) + max_skips(cfg)) * cfg.granularity + (cfg.rads_granularity - cfg.granularity)
}

/// Head-SRAM size in cells (equation (4)): the RADS requirement at granularity
/// `b` plus one cell per slot of reorder latency (cells delivered to the SRAM
/// before the latency register lets the arbiter consume them).
pub fn sram_cells(cfg: &CfdsConfig, lookahead: usize) -> usize {
    rads_sram_size_cells(lookahead, cfg.num_queues, cfg.granularity) + latency_slots(cfg)
}

/// Total scheduler-visible delay in slots: the MMA lookahead plus the latency
/// register.
pub fn total_delay_slots(cfg: &CfdsConfig, lookahead: usize) -> usize {
    lookahead + latency_slots(cfg)
}

/// Time available to the RR scheduling logic to select one request, in
/// nanoseconds (Table 2): one selection every `b` slots at `rate`.
pub fn scheduling_time_ns(cfg: &CfdsConfig, rate: LineRate) -> f64 {
    cfg.granularity as f64 * rate.slot_duration().as_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oc3072(b: usize) -> CfdsConfig {
        let cfg = CfdsConfig {
            num_queues: 512,
            granularity: b,
            rads_granularity: 32,
            num_banks: 256,
            ..CfdsConfig::default()
        };
        cfg.validate().unwrap();
        cfg
    }

    fn oc768(b: usize) -> CfdsConfig {
        let cfg = CfdsConfig {
            num_queues: 128,
            granularity: b,
            rads_granularity: 8,
            num_banks: 256,
            ..CfdsConfig::default()
        };
        cfg.validate().unwrap();
        cfg
    }

    #[test]
    fn table2_oc3072_rr_sizes() {
        // Paper Table 2 (OC-3072, Q=512, B=32, M=256): 64, 256, 1024, 4096
        // for b = 8, 4, 2, 1; 0 for b = 32.
        assert_eq!(rr_size(&oc3072(32)), 0);
        assert_eq!(rr_size(&oc3072(8)), 64);
        assert_eq!(rr_size(&oc3072(4)), 256);
        assert_eq!(rr_size(&oc3072(2)), 1024);
        assert_eq!(rr_size(&oc3072(1)), 4096);
    }

    #[test]
    fn table2_oc3072_scheduling_times() {
        // One selection every b slots of 3.2 ns.
        assert!((scheduling_time_ns(&oc3072(16), LineRate::Oc3072) - 51.2).abs() < 1e-9);
        assert!((scheduling_time_ns(&oc3072(8), LineRate::Oc3072) - 25.6).abs() < 1e-9);
        assert!((scheduling_time_ns(&oc3072(4), LineRate::Oc3072) - 12.8).abs() < 1e-9);
        assert!((scheduling_time_ns(&oc3072(1), LineRate::Oc3072) - 3.2).abs() < 1e-9);
    }

    #[test]
    fn table2_oc768_rr_sizes() {
        // Paper Table 2 (OC-768, Q=128, B=8, M=256): 16 and 64 for b = 2, 1.
        assert_eq!(rr_size(&oc768(2)), 16);
        assert_eq!(rr_size(&oc768(1)), 64);
        assert_eq!(rr_size(&oc768(8)), 0);
        assert!((scheduling_time_ns(&oc768(1), LineRate::Oc768) - 12.8).abs() < 1e-9);
    }

    #[test]
    fn latency_and_sram_grow_as_b_shrinks_past_the_optimum() {
        // Reorder-related terms grow as b shrinks…
        assert!(latency_slots(&oc3072(1)) > latency_slots(&oc3072(4)));
        assert!(max_skips(&oc3072(1)) > max_skips(&oc3072(8)));
        // …while the lookahead-related SRAM term shrinks, creating the
        // optimum the paper discusses in §8.3.
        let full = |b: usize| {
            let cfg = oc3072(b);
            sram_cells(&cfg, cfg.min_lookahead())
        };
        let s32 = full(32);
        let s4 = full(4);
        let s1 = full(1);
        assert!(s4 < s32, "CFDS (b=4) must need less SRAM than RADS (b=32)");
        assert!(s1 > s4, "too small a granularity pays for reordering");
    }

    #[test]
    fn cfds_delay_is_an_order_of_magnitude_below_rads() {
        // §10: CFDS meets OC-3072 with ~10 µs delay, RADS needs > 50 µs.
        let seconds = |cfg: CfdsConfig| {
            let slots = total_delay_slots(&cfg, cfg.min_lookahead());
            slots as f64 * LineRate::Oc3072.slot_duration().as_ns() * 1e-9
        };
        let cfds_delay = seconds(oc3072(4));
        let rads_delay = seconds(oc3072(32));
        assert!(cfds_delay < 1.5e-5, "CFDS delay {cfds_delay}");
        assert!(rads_delay > 4.0e-5, "RADS delay {rads_delay}");
        assert!(rads_delay / cfds_delay > 3.0);
    }

    #[test]
    fn degenerate_single_bank_group() {
        let cfg = oc3072(32);
        assert_eq!(max_skips(&cfg), 0);
        assert_eq!(latency_slots(&cfg), 32);
        assert_eq!(total_delay_slots(&cfg, 100), 132);
    }
}
