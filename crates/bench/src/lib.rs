//! The `pktbuf-lab` CLI and the shared helpers that regenerate every table
//! and figure of the paper's evaluation (`pktbuf-lab paper <artefact>`).
//!
//! | Artefact        | In the paper   | What it prints |
//! |-----------------|----------------|----------------|
//! | `dram_only`     | §1 motivation  | peak vs. guaranteed SDRAM bandwidth, 1–32 chips |
//! | `fig8`          | Figure 8       | RADS h-SRAM access time and area vs. lookahead |
//! | `table2`        | Table 2        | Requests-Register size and scheduling time vs. `b` |
//! | `fig10`         | Figure 10      | RADS vs. CFDS SRAM area and access time vs. delay |
//! | `fig11`         | Figure 11      | maximum number of queues under the 3.2 ns constraint |
//! | `validate`      | §5 claims      | slot-level zero-miss / conflict-free validation |
//! | `fragmentation` | §6             | DRAM utilisation with and without renaming |
//! | `ablation_dsa`  | design ablation| oldest-first vs. FIFO vs. random DSA |
//!
//! Despite the crate's name nothing here measures host performance: that is
//! the `benchmark/` package declared by `BENCHMARK.json`.

#![forbid(unsafe_code)]

use pktbuf_model::LineRate;

pub mod cli;
pub mod paper;

/// The OC-768 evaluation point of §7 (Q = 128, B = 8).
pub fn oc768_parameters() -> (LineRate, usize, usize) {
    (LineRate::Oc768, 128, 8)
}

/// The OC-3072 evaluation point of §7/§8 (Q = 512, B = 32, M = 256).
pub fn oc3072_parameters() -> (LineRate, usize, usize, usize) {
    (LineRate::Oc3072, 512, 32, 256)
}

/// Evenly spaced lookahead sweep from a small value up to the ECQF minimum
/// `Q(g − 1) + 1`, the longest lookahead worth having. Where that is already
/// below the small value (`g = 1`: one slot) the sweep is that one point.
pub fn lookahead_sweep(num_queues: usize, granularity: usize, points: usize) -> Vec<usize> {
    let max = mma::sizing::min_lookahead(num_queues, granularity);
    let min = (num_queues / 2).clamp(1, max);
    let mut sweep: Vec<usize> = (0..points)
        .map(|i| min + (max - min) * i / (points - 1).max(1))
        .collect();
    sweep.dedup();
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_well_formed() {
        let sweep = lookahead_sweep(512, 32, 8);
        assert_eq!(sweep.len(), 8);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sweep.last().unwrap(), 512 * 31 + 1);
        assert_eq!(lookahead_sweep(512, 1, 6), vec![1]);
        let (_, q, b) = oc768_parameters();
        assert_eq!((q, b), (128, 8));
    }
}
