//! RADS dimensioning formulas (§3 and reference \[13\] of the paper).
//!
//! The exact closed form of `rads_sram_size(L, Q, B)` is given in the Iyer,
//! Kompella, McKeown technical report that the paper references; the paper
//! itself only quotes its endpoints. We reconstruct the curve from those
//! endpoints and the known asymptotics:
//!
//! * at the ECQF maximum lookahead `L_max = Q·(B−1)+1` the SRAM needs
//!   `Q·(B−1)` cells (plus the in-flight batch);
//! * as the lookahead shrinks towards zero the requirement grows towards
//!   `Q·B·(ln Q)`-class sizes (the MDQF bound);
//! * in between the requirement decreases logarithmically in the lookahead.
//!
//! The interpolation `Q·(B−1) + B + Q·B·ln(L_max/L)` reproduces both endpoints
//! (6.2 MB → 1.0 MB at OC-3072, 300 kB → 64 kB at OC-768 within the fidelity
//! the paper quotes) and the shape of Figure 8's x-axis.

use pktbuf_model::CELL_BYTES;

/// ECQF minimum lookahead `Q·(B−1)+1` in slots.
pub fn min_lookahead(num_queues: usize, granularity: usize) -> usize {
    num_queues * (granularity.saturating_sub(1)) + 1
}

/// SRAM size (cells) needed by ECQF at the full lookahead:
/// `Q·(B−1)` steady-state cells plus one in-flight batch of `B` cells.
pub fn ecqf_min_sram_cells(num_queues: usize, granularity: usize) -> usize {
    num_queues * (granularity.saturating_sub(1)) + granularity
}

/// Head-SRAM size (cells) required to guarantee zero misses with a lookahead
/// of `lookahead` slots, `num_queues` queues and granularity `granularity`
/// (the paper's `rads_sram_size(L, Q, B)`).
///
/// The lookahead is clamped to `[1, Q·(B−1)+1]`; larger lookaheads do not
/// reduce the SRAM any further.
pub fn rads_sram_size_cells(lookahead: usize, num_queues: usize, granularity: usize) -> usize {
    if num_queues == 0 || granularity == 0 {
        return 0;
    }
    let l_max = min_lookahead(num_queues, granularity);
    let l = lookahead.clamp(1, l_max);
    let base = ecqf_min_sram_cells(num_queues, granularity);
    let extra = (num_queues as f64) * (granularity as f64) * ((l_max as f64) / (l as f64)).ln();
    base + extra.ceil() as usize
}

/// Same as [`rads_sram_size_cells`] but in bytes (64-byte cells).
pub fn rads_sram_size_bytes(lookahead: usize, num_queues: usize, granularity: usize) -> usize {
    rads_sram_size_cells(lookahead, num_queues, granularity) * CELL_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_lookahead_formula() {
        assert_eq!(min_lookahead(4, 3), 9);
        assert_eq!(min_lookahead(512, 32), 15873);
        assert_eq!(min_lookahead(128, 8), 897);
        assert_eq!(min_lookahead(16, 1), 1);
    }

    #[test]
    fn sram_at_full_lookahead_matches_paper_endpoints() {
        // OC-3072: Q = 512, B = 32 → ~15.9k cells ≈ 1.0 MB.
        let cells = rads_sram_size_cells(min_lookahead(512, 32), 512, 32);
        let mb = cells as f64 * 64.0 / 1e6;
        assert!(mb > 0.9 && mb < 1.2, "OC-3072 max-lookahead SRAM = {mb} MB");
        // OC-768: Q = 128, B = 8 → ~0.9k cells ≈ 58 kB ("64 kB" in the paper).
        let cells = rads_sram_size_cells(min_lookahead(128, 8), 128, 8);
        let kb = cells as f64 * 64.0 / 1e3;
        assert!(
            kb > 50.0 && kb < 70.0,
            "OC-768 max-lookahead SRAM = {kb} kB"
        );
    }

    #[test]
    fn sram_at_short_lookahead_is_megabytes_class() {
        // OC-3072 with a very short lookahead: several MB (paper quotes
        // 6.2 MB for the minimum plotted lookahead).
        let bytes = rads_sram_size_bytes(64, 512, 32);
        let mb = bytes as f64 / 1e6;
        assert!(mb > 4.0 && mb < 10.0, "short-lookahead SRAM = {mb} MB");
        // OC-768: a few hundred kB (paper quotes 300 kB).
        let kb = rads_sram_size_bytes(16, 128, 8) as f64 / 1e3;
        assert!(kb > 150.0 && kb < 500.0, "short-lookahead SRAM = {kb} kB");
    }

    #[test]
    fn sram_size_is_monotone_decreasing_in_lookahead() {
        let mut last = usize::MAX;
        for l in (1..=15873).step_by(500) {
            let s = rads_sram_size_cells(l, 512, 32);
            assert!(s <= last, "lookahead {l}: {s} > {last}");
            last = s;
        }
    }

    #[test]
    fn lookahead_is_clamped() {
        let at_max = rads_sram_size_cells(15873, 512, 32);
        let beyond = rads_sram_size_cells(1_000_000, 512, 32);
        assert_eq!(at_max, beyond);
        let at_one = rads_sram_size_cells(1, 512, 32);
        let at_zero = rads_sram_size_cells(0, 512, 32);
        assert_eq!(at_one, at_zero);
    }

    #[test]
    fn degenerate_parameters() {
        assert_eq!(rads_sram_size_cells(10, 0, 32), 0);
        assert_eq!(rads_sram_size_cells(10, 512, 0), 0);
        assert_eq!(ecqf_min_sram_cells(512, 1), 1);
    }

    #[test]
    fn granularity_one_needs_almost_no_sram() {
        // With B = 1 the DRAM keeps up with the line rate on its own.
        let cells = rads_sram_size_cells(1, 512, 1);
        assert_eq!(cells, 1);
    }
}
