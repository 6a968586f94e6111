//! Crossbar arbiters: the per-slot matching of ingress VOQs to egress ports.
//!
//! Two algorithms are provided behind one state machine,
//! [`CrossbarArbiter`]:
//!
//! * [`ArbiterKind::Islip`] — the iterative request/grant/accept scheduler of
//!   McKeown's iSLIP: every unmatched output grants to the requesting input
//!   closest to its round-robin grant pointer, every input accepts the
//!   granting output closest to its accept pointer, and (in the first
//!   iteration only, as in the original algorithm) accepted pointers advance
//!   one past the match — the "slip" that desynchronises the outputs and
//!   yields 100% throughput under admissible uniform traffic.
//! * [`ArbiterKind::Maximal`] — a greedy maximal-matching baseline: inputs
//!   are visited in a rotating priority order and each takes the first
//!   eligible free output after its scan pointer. Cheaper and simpler, but
//!   without iSLIP's desynchronisation argument.
//!
//! Both algorithms are deterministic functions of their pointer state and the
//! eligibility matrix, which is what makes whole-fabric runs reproducible.
//! On a **contention-free** matrix — every input has traffic for at most one
//! output and every output is wanted by at most one input — both produce the
//! same (complete) matching; the unit tests pin that equivalence.
//!
//! # Data layout
//!
//! The eligibility matrix lives in bitmasks, as in the hardware arbiters
//! this models: one `u64` row per input (`rows[i]` bit `j`), its transpose
//! per output (`cols[j]` bit `i`), and one word each for the still-unmatched
//! inputs and outputs. "Nearest to the round-robin pointer" is then an AND,
//! a shift, a select and a `trailing_zeros`, with no loop and no branch, so
//! an iteration costs O(ports) word operations, not O(ports²) probes.
//!
//! That is why a crossbar takes at most [`MAX_CROSSBAR_PORTS`] = 64 ports:
//! one machine word per row, like hardware iSLIP schedulers, which work on
//! port-wide bit vectors. A larger fabric is built from smaller crossbars,
//! as the three-stage [`crate::ClosFabric`] does, rather than by widening
//! one. The unit tests fuzz both kernels against the cell-by-cell matcher
//! they replaced.

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

use std::hint::select_unpredictable;
use std::mem;

/// The most ports one crossbar takes: one `u64` mask word per row.
pub const MAX_CROSSBAR_PORTS: usize = u64::BITS as usize;

/// Which crossbar scheduling algorithm a fabric runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// iSLIP-style iterative request/grant/accept.
    Islip {
        /// Matching iterations per slot. `0` means *auto*: `⌈log₂ ports⌉`,
        /// the classic convergence bound.
        iterations: usize,
    },
    /// Greedy maximal matching with rotating input priority.
    Maximal,
}

impl ArbiterKind {
    /// The effective iteration count for a fabric of `ports` ports.
    pub fn effective_iterations(self, ports: usize) -> usize {
        match self {
            ArbiterKind::Islip { iterations: 0 } => {
                (usize::BITS - ports.next_power_of_two().leading_zeros() - 1).max(1) as usize
            }
            ArbiterKind::Islip { iterations } => iterations,
            ArbiterKind::Maximal => 1,
        }
    }

    /// Short name for reports (`"islip"` / `"maximal"`).
    pub fn label(self) -> &'static str {
        match self {
            ArbiterKind::Islip { .. } => "islip",
            ArbiterKind::Maximal => "maximal",
        }
    }
}

/// `k % n` for `k < 2 * n`, without the division.
fn wrap(k: usize, n: usize) -> usize {
    k - n * usize::from(k >= n)
}

/// The round-robin pick from a non-empty `mask`: its lowest set bit at or
/// above `ptr`, else (the cyclic wrap) its lowest set bit overall.
fn round_robin(mask: u64, ptr: u32) -> usize {
    let hi = mask & (!0 << ptr);
    select_unpredictable(hi != 0, hi, mask).trailing_zeros() as usize
}

/// The set positions of `mask`, ascending.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The crossbar scheduler: pointer state plus scratch, sized once per fabric.
#[derive(Debug)]
pub struct CrossbarArbiter {
    kind: ArbiterKind,
    ports: usize,
    iterations: usize,
    /// Per-output round-robin grant pointer (iSLIP).
    grant_ptr: Vec<u32>,
    /// Per-input round-robin accept pointer (iSLIP) / scan pointer (maximal).
    accept_ptr: Vec<u32>,
    /// Scratch: `rows[i]` bit `j` — input `i` has a cell for ready output `j`.
    rows: Vec<u64>,
    /// Scratch (iSLIP): the transpose, `cols[j]` bit `i`.
    cols: Vec<u64>,
    /// Scratch (iSLIP): `grants[i]` bit `j` — output `j` granted to input `i`
    /// in this iteration. Zero between iterations.
    grants: Vec<u64>,
}

impl CrossbarArbiter {
    /// Creates an arbiter for a fabric of `ports` input and output ports.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ports <= MAX_CROSSBAR_PORTS` (64).
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    pub fn new(kind: ArbiterKind, ports: usize) -> Self {
        assert!(
            (1..=MAX_CROSSBAR_PORTS).contains(&ports),
            "a crossbar takes 1 to {MAX_CROSSBAR_PORTS} ports, got {ports}"
        );
        CrossbarArbiter {
            kind,
            ports,
            iterations: kind.effective_iterations(ports),
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            rows: vec![0; ports],
            cols: vec![0; ports],
            grants: vec![0; ports],
        }
    }

    /// The algorithm this arbiter runs.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Computes the matching of slot `slot` from the request bit-vectors
    /// the inputs already hold: `rows[i]` bit `j` is set iff input `i` has a
    /// requestable cell for output `j`, and `ready` bit `j` iff output `j`
    /// has an egress credit this slot. Bits at or above `ports` are ignored.
    /// The matching lands in `match_in` (per input: the matched output) and
    /// `match_out` (per output: the matched input); both are cleared first.
    /// Returns the number of matched pairs.
    ///
    /// This is the one matcher body: each row is ANDed with `ready`, then
    /// iSLIP or the maximal matcher runs on the masked rows. The crossbar has
    /// at most [`MAX_CROSSBAR_PORTS`] ports (checked by
    /// [`CrossbarArbiter::new`]), so every row, column and free set is a
    /// single `u64`.
    ///
    /// A call that matches nothing — no input has a cell for a ready output —
    /// returns before the matcher runs and leaves the arbiter bit-identical
    /// (iSLIP pointers move only on accepts, and the maximal matcher's
    /// rotating priority is derived from `slot` rather than stored), which
    /// is what lets the fabric's idle fast-forward skip provably matchless
    /// slots without observing them.
    ///
    /// # Panics
    ///
    /// Panics when a slice is not `ports` long: the masks would silently
    /// drop the ports of a short one and misindex a long one.
    pub fn schedule_rows(
        &mut self,
        slot: u64,
        rows: &[u64],
        ready: u64,
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64 {
        assert_eq!(rows.len(), self.ports, "rows: one word per input");
        self.rows.copy_from_slice(rows);
        self.match_rows(slot, ready, match_in, match_out)
    }

    /// [`CrossbarArbiter::schedule_rows`] over a per-pair oracle and one
    /// flag per output: packs `eligible` and `output_ready` into words, then
    /// runs the same matcher. Kept for the benchmark's
    /// `arbiter_schedule_n8/n16_ns` kernels and for the scalar-reference
    /// tests, which ask pair by pair; a switch hands its rows to
    /// `schedule_rows` directly.
    ///
    /// `eligible(i, j)` reports whether input `i` has a requestable cell for
    /// output `j`; `output_ready[j]` whether output `j` has an egress credit
    /// this slot. `eligible` must be a pure function of the slot's state: it
    /// is evaluated exactly once per `(i, j)` pair, row by row, up front,
    /// unready outputs included — one sequential pass over each input's
    /// state, packed into that input's mask row; the matching itself never
    /// calls it. The idle contract and the matching are `schedule_rows`'s.
    ///
    /// # Panics
    ///
    /// Panics when a slice is not `ports` long.
    pub fn schedule<F>(
        &mut self,
        slot: u64,
        eligible: F,
        output_ready: &[bool],
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64
    where
        F: Fn(usize, usize) -> bool,
    {
        let n = self.ports;
        assert_eq!(output_ready.len(), n, "output_ready: one flag per output");
        let ready = (0..n).fold(0u64, |mask, j| mask | u64::from(output_ready[j]) << j);
        for (i, row) in self.rows.iter_mut().enumerate() {
            *row = (0..n).fold(0u64, |wants, j| wants | u64::from(eligible(i, j)) << j);
        }
        self.match_rows(slot, ready, match_in, match_out)
    }

    /// The matcher over `self.rows` as loaded by the two entry points.
    fn match_rows(
        &mut self,
        slot: u64,
        ready: u64,
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64 {
        let n = self.ports;
        assert_eq!(match_in.len(), n, "match_in: one entry per input");
        assert_eq!(match_out.len(), n, "match_out: one entry per output");
        match_in.fill(None);
        match_out.fill(None);
        let ready = ready & (u64::MAX >> (MAX_CROSSBAR_PORTS - n));
        let mut requested = 0;
        for row in &mut self.rows {
            *row &= ready;
            requested |= *row;
        }
        if requested == 0 {
            return 0;
        }
        let mut matched = 0;
        let pair = |i: usize, j: usize| {
            match_in[i] = Some(j as u32);
            match_out[j] = Some(i as u32);
            matched += 1;
        };
        match self.kind {
            ArbiterKind::Islip { .. } => self.islip(requested, pair),
            ArbiterKind::Maximal => self.maximal(slot, requested, pair),
        }
        matched
    }

    /// iSLIP over the ready, requested outputs `free_out`.
    fn islip(&mut self, mut free_out: u64, mut pair: impl FnMut(usize, usize)) {
        let n = self.ports;
        self.cols.fill(0);
        for (i, &row) in self.rows.iter().enumerate() {
            for j in ones(row) {
                self.cols[j] |= 1 << i;
            }
        }
        let mut free_in = !0u64;
        for iteration in 0..self.iterations {
            // Grant: every unmatched ready output picks the requesting
            // unmatched input nearest (cyclically) to its grant pointer.
            let mut granted = 0u64;
            for j in ones(free_out) {
                let wanted = self.cols[j] & free_in;
                if wanted != 0 {
                    let i = round_robin(wanted, self.grant_ptr[j]);
                    self.grants[i] |= 1 << j;
                    granted |= 1 << i;
                }
            }
            if granted == 0 {
                break;
            }
            // Accept: every input that received at least one grant accepts
            // the granting output nearest to its accept pointer. Each output
            // grants one input, so every offer is still free. Pointers
            // advance only on first-iteration accepts (original iSLIP).
            for i in ones(granted) {
                let j = round_robin(mem::take(&mut self.grants[i]), self.accept_ptr[i]);
                pair(i, j);
                free_in &= !(1 << i);
                free_out &= !(1 << j);
                if iteration == 0 {
                    self.grant_ptr[j] = wrap(i + 1, n) as u32;
                    self.accept_ptr[i] = wrap(j + 1, n) as u32;
                }
            }
        }
    }

    /// Greedy maximal matching over the ready, requested outputs `free_out`.
    fn maximal(&mut self, slot: u64, mut free_out: u64, mut pair: impl FnMut(usize, usize)) {
        let n = self.ports;
        let priority = (slot % n as u64) as usize;
        for k in 0..n {
            let i = wrap(priority + k, n);
            let offers = self.rows[i] & free_out;
            if offers != 0 {
                let j = round_robin(offers, self.accept_ptr[i]);
                pair(i, j);
                free_out &= !(1 << j);
                self.accept_ptr[i] = wrap(j + 1, n) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sentinel for "no input granted" in the reference's grant scratch.
    const NO_INPUT: u32 = u32::MAX;

    /// The cell-by-cell matcher the mask kernels replaced, kept verbatim as
    /// the differential oracle: an n² `bool` snapshot walked pair by pair.
    struct ScalarArbiter {
        kind: ArbiterKind,
        ports: usize,
        iterations: usize,
        grant_ptr: Vec<u32>,
        accept_ptr: Vec<u32>,
        granted: Vec<u32>,
        elig: Vec<bool>,
    }

    impl ScalarArbiter {
        fn new(kind: ArbiterKind, ports: usize) -> Self {
            ScalarArbiter {
                kind,
                ports,
                iterations: kind.effective_iterations(ports),
                grant_ptr: vec![0; ports],
                accept_ptr: vec![0; ports],
                granted: vec![NO_INPUT; ports],
                elig: vec![false; ports * ports],
            }
        }

        fn schedule(
            &mut self,
            slot: u64,
            eligible: impl Fn(usize, usize) -> bool,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            match_in.fill(None);
            match_out.fill(None);
            let n = self.ports;
            for i in 0..n {
                for j in 0..n {
                    self.elig[i * n + j] = eligible(i, j);
                }
            }
            match self.kind {
                ArbiterKind::Islip { .. } => self.islip(output_ready, match_in, match_out),
                ArbiterKind::Maximal => self.maximal(slot, output_ready, match_in, match_out),
            }
        }

        fn islip(
            &mut self,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            let n = self.ports;
            let mut matched = 0u64;
            for iteration in 0..self.iterations {
                self.granted.fill(NO_INPUT);
                for j in 0..n {
                    if match_out[j].is_some() || !output_ready[j] {
                        continue;
                    }
                    let mut i = self.grant_ptr[j] as usize;
                    for _ in 0..n {
                        if i >= n {
                            i = 0;
                        }
                        if match_in[i].is_none() && self.elig[i * n + j] {
                            self.granted[j] = i as u32;
                            break;
                        }
                        i += 1;
                    }
                }
                let mut any = false;
                for (i, match_in_i) in match_in.iter_mut().enumerate() {
                    if match_in_i.is_some() {
                        continue;
                    }
                    let mut j = self.accept_ptr[i] as usize;
                    for _ in 0..n {
                        if j >= n {
                            j = 0;
                        }
                        if match_out[j].is_none() && self.granted[j] == i as u32 {
                            *match_in_i = Some(j as u32);
                            match_out[j] = Some(i as u32);
                            if iteration == 0 {
                                self.grant_ptr[j] = ((i + 1) % n) as u32;
                                self.accept_ptr[i] = ((j + 1) % n) as u32;
                            }
                            matched += 1;
                            any = true;
                            break;
                        }
                        j += 1;
                    }
                }
                if !any {
                    break;
                }
            }
            matched
        }

        fn maximal(
            &mut self,
            slot: u64,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            let n = self.ports;
            let priority = (slot % n as u64) as usize;
            let mut matched = 0u64;
            for k in 0..n {
                let i = (priority + k) % n;
                let mut j = self.accept_ptr[i] as usize;
                for _ in 0..n {
                    if j >= n {
                        j = 0;
                    }
                    if match_out[j].is_none() && output_ready[j] && self.elig[i * n + j] {
                        match_in[i] = Some(j as u32);
                        match_out[j] = Some(i as u32);
                        self.accept_ptr[i] = ((j + 1) % n) as u32;
                        matched += 1;
                        break;
                    }
                    j += 1;
                }
            }
            matched
        }
    }

    /// One random slot: an eligibility matrix whose rows either share one
    /// density drawn from 0–1 or draw one each, and a ready vector that is
    /// all-true half of the time.
    fn random_slot(rng: &mut StdRng, n: usize) -> (Vec<bool>, Vec<bool>) {
        let shared = rng.gen_bool(0.5).then(|| rng.gen::<f64>());
        let mut demand = Vec::with_capacity(n * n);
        for _ in 0..n {
            let density = shared.unwrap_or_else(|| rng.gen::<f64>());
            demand.extend((0..n).map(|_| rng.gen_bool(density)));
        }
        let ready_share = if rng.gen_bool(0.5) {
            1.0
        } else {
            rng.gen::<f64>()
        };
        let ready = (0..n).map(|_| rng.gen_bool(ready_share)).collect();
        (demand, ready)
    }

    const ALL_KINDS: [ArbiterKind; 4] = [
        ArbiterKind::Islip { iterations: 0 },
        ArbiterKind::Islip { iterations: 1 },
        ArbiterKind::Islip { iterations: 3 },
        ArbiterKind::Maximal,
    ];

    /// The rows and ready word of one random slot, with random garbage above
    /// bit `n - 1` that `schedule_rows` must ignore.
    fn pack(rng: &mut StdRng, n: usize, demand: &[bool], ready: &[bool]) -> (Vec<u64>, u64) {
        let above = |rng: &mut StdRng| rng.gen::<u64>().checked_shl(n as u32).unwrap_or(0);
        let word = |bits: &[bool]| (0..n).fold(0u64, |w, j| w | u64::from(bits[j]) << j);
        let rows = (0..n)
            .map(|i| word(&demand[i * n..(i + 1) * n]) | above(rng))
            .collect();
        (rows, word(ready) | above(rng))
    }

    /// Both entry points against the scalar reference, slot for slot, each on
    /// its own arbiter whose pointer state must track the reference's: small
    /// port counts and the word edge (bit 63, the full 64-bit mask), both
    /// algorithms, explicit iteration counts, random densities and credits.
    #[test]
    fn mask_kernels_match_the_scalar_reference_slot_for_slot() {
        let mut rng = StdRng::seed_from_u64(0x15_11b);
        for n in (1..=9).chain([16, 33, 63, 64]) {
            for kind in ALL_KINDS {
                let mut by_pair = CrossbarArbiter::new(kind, n);
                let mut by_rows = CrossbarArbiter::new(kind, n);
                let mut old = ScalarArbiter::new(kind, n);
                let (mut pair_in, mut pair_out) = (vec![None; n], vec![None; n]);
                let (mut rows_in, mut rows_out) = (vec![None; n], vec![None; n]);
                let (mut old_in, mut old_out) = (vec![None; n], vec![None; n]);
                // Start mid-rotation so the maximal priority wraps in-run.
                let first_slot = rng.gen_range(0..1_000u64);
                for slot in first_slot..first_slot + 40 {
                    let (demand, ready) = random_slot(&mut rng, n);
                    let (rows, ready_word) = pack(&mut rng, n, &demand, &ready);
                    let oracle = |i: usize, j: usize| demand[i * n + j];
                    let expected = old.schedule(slot, oracle, &ready, &mut old_in, &mut old_out);
                    let matched =
                        by_pair.schedule(slot, oracle, &ready, &mut pair_in, &mut pair_out);
                    let at = format!("schedule, {kind:?}, {n} ports, slot {slot}");
                    assert_eq!(matched, expected, "match count diverged: {at}");
                    assert_eq!(pair_in, old_in, "match_in diverged: {at}");
                    assert_eq!(pair_out, old_out, "match_out diverged: {at}");
                    let matched =
                        by_rows.schedule_rows(slot, &rows, ready_word, &mut rows_in, &mut rows_out);
                    let at = format!("schedule_rows, {kind:?}, {n} ports, slot {slot}");
                    assert_eq!(matched, expected, "match count diverged: {at}");
                    assert_eq!(rows_in, old_in, "match_in diverged: {at}");
                    assert_eq!(rows_out, old_out, "match_out diverged: {at}");
                }
                for arbiter in [&by_pair, &by_rows] {
                    assert_eq!(arbiter.grant_ptr, old.grant_ptr, "{kind:?}, {n} ports");
                    assert_eq!(arbiter.accept_ptr, old.accept_ptr, "{kind:?}, {n} ports");
                }
            }
        }
    }

    /// The oracle contract the fabric's per-buffer probe counts rest on:
    /// exactly one call per pair, row by row — unready outputs included.
    #[test]
    fn oracle_is_asked_once_per_pair_in_row_major_order() {
        for n in [5, 64] {
            for kind in ALL_KINDS {
                let asked = std::cell::RefCell::new(Vec::new());
                let ready: Vec<bool> = (0..n).map(|j| j % 3 != 0).collect();
                let (mut match_in, mut match_out) = (vec![None; n], vec![None; n]);
                CrossbarArbiter::new(kind, n).schedule(
                    3,
                    |i, j| {
                        asked.borrow_mut().push((i, j));
                        (i + j) % 2 == 0
                    },
                    &ready,
                    &mut match_in,
                    &mut match_out,
                );
                let row_major: Vec<_> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
                assert_eq!(asked.into_inner(), row_major, "{kind:?}, {n} ports");
            }
        }
    }

    /// The idle contract: a call that can match nothing — no demand, no
    /// ready output, or demand only for unready outputs — leaves the arbiter
    /// indistinguishable from a twin that never saw the call.
    #[test]
    fn a_matchless_call_leaves_the_arbiter_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0x1d1e);
        for n in [5, 16, 64] {
            for kind in ALL_KINDS {
                for idle_case in 0..3 {
                    let mut seen = CrossbarArbiter::new(kind, n);
                    let mut twin = CrossbarArbiter::new(kind, n);
                    let (mut seen_in, mut seen_out) = (vec![None; n], vec![None; n]);
                    let (mut twin_in, mut twin_out) = (vec![None; n], vec![None; n]);
                    let mut slot = 0;
                    // Scramble the pointers identically on both.
                    for _ in 0..n {
                        let (demand, ready) = random_slot(&mut rng, n);
                        let oracle = |i: usize, j: usize| demand[i * n + j];
                        seen.schedule(slot, oracle, &ready, &mut seen_in, &mut seen_out);
                        twin.schedule(slot, oracle, &ready, &mut twin_in, &mut twin_out);
                        slot += 1;
                    }
                    // No demand; no ready output; demand for unready outputs only.
                    let (wants, ready): (fn(usize) -> bool, Vec<bool>) = match idle_case {
                        0 => (|_| false, vec![true; n]),
                        1 => (|_| true, vec![false; n]),
                        _ => (|j| j % 2 == 1, (0..n).map(|j| j % 2 == 0).collect()),
                    };
                    let matched =
                        seen.schedule(slot, |_, j| wants(j), &ready, &mut seen_in, &mut seen_out);
                    assert_eq!(matched, 0);
                    assert!(seen_in.iter().chain(&seen_out).all(Option::is_none));
                    assert_eq!(seen.grant_ptr, twin.grant_ptr);
                    assert_eq!(seen.accept_ptr, twin.accept_ptr);
                    for _ in 0..2 * n {
                        slot += 1;
                        let (demand, ready) = random_slot(&mut rng, n);
                        let oracle = |i: usize, j: usize| demand[i * n + j];
                        let a = seen.schedule(slot, oracle, &ready, &mut seen_in, &mut seen_out);
                        let b = twin.schedule(slot, oracle, &ready, &mut twin_in, &mut twin_out);
                        let at = format!("{kind:?}, {n} ports, idle case {idle_case}, slot {slot}");
                        assert_eq!((a, &seen_in, &seen_out), (b, &twin_in, &twin_out), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a crossbar takes 1 to 64 ports, got 65")]
    fn a_65_port_crossbar_is_refused() {
        CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, 65);
    }

    fn schedule_with_lengths(ready: usize, match_in: usize, match_out: usize) {
        CrossbarArbiter::new(ArbiterKind::Maximal, 4).schedule(
            0,
            |_, _| true,
            &vec![true; ready],
            &mut vec![None; match_in],
            &mut vec![None; match_out],
        );
    }

    #[test]
    #[should_panic(expected = "rows: one word per input")]
    fn short_rows_are_rejected() {
        CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, 4).schedule_rows(
            0,
            &[1, 2, 4],
            !0,
            &mut [None; 4],
            &mut [None; 4],
        );
    }

    #[test]
    #[should_panic(expected = "rows: one word per input")]
    fn long_rows_are_rejected() {
        CrossbarArbiter::new(ArbiterKind::Maximal, 4).schedule_rows(
            0,
            &[1, 2, 4, 8, 1],
            !0,
            &mut [None; 4],
            &mut [None; 4],
        );
    }

    #[test]
    #[should_panic(expected = "output_ready: one flag per output")]
    fn short_output_ready_is_rejected() {
        schedule_with_lengths(3, 4, 4);
    }

    #[test]
    #[should_panic(expected = "match_in: one entry per input")]
    fn long_match_in_is_rejected() {
        schedule_with_lengths(4, 5, 4);
    }

    #[test]
    #[should_panic(expected = "match_out: one entry per output")]
    fn short_match_out_is_rejected() {
        schedule_with_lengths(4, 4, 3);
    }

    fn run_matching(kind: ArbiterKind, n: usize, demand: &[Vec<bool>]) -> Vec<Option<u32>> {
        let mut arb = CrossbarArbiter::new(kind, n);
        let ready = vec![true; n];
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        arb.schedule(
            0,
            |i, j| demand[i][j],
            &ready,
            &mut match_in,
            &mut match_out,
        );
        match_in
    }

    #[test]
    fn auto_iterations_scale_with_log_ports() {
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(2),
            1
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(16),
            4
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(17),
            5
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 3 }.effective_iterations(16),
            3
        );
        assert_eq!(ArbiterKind::Maximal.effective_iterations(16), 1);
    }

    #[test]
    fn maximal_matching_is_perfect_under_full_demand() {
        let n = 8;
        let demand = vec![vec![true; n]; n];
        let matches = run_matching(ArbiterKind::Maximal, n, &demand);
        let mut seen = vec![false; n];
        for m in &matches {
            let j = m.expect("every input matches under full demand") as usize;
            assert!(!seen[j], "output {j} matched twice");
            seen[j] = true;
        }
    }

    /// From cold (synchronised) pointers one iSLIP slot cannot match every
    /// port — that is the point of the algorithm: accepted matches *slip* the
    /// pointers apart, and once desynchronised every subsequent slot under
    /// full demand is a perfect matching.
    #[test]
    fn islip_desynchronises_into_perfect_matchings() {
        let n = 8;
        let mut arb = CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, n);
        let ready = vec![true; n];
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        let mut matched_per_slot = Vec::new();
        for slot in 0..(4 * n as u64) {
            let matched = arb.schedule(slot, |_, _| true, &ready, &mut match_in, &mut match_out);
            matched_per_slot.push(matched);
        }
        assert!(
            *matched_per_slot.first().unwrap() < n as u64,
            "cold synchronised pointers collide by construction"
        );
        let tail = &matched_per_slot[matched_per_slot.len() - n..];
        assert!(
            tail.iter().all(|&m| m == n as u64),
            "desynchronised iSLIP must sustain perfect matchings: {matched_per_slot:?}"
        );
    }

    #[test]
    fn no_match_without_ready_outputs() {
        let n = 4;
        let mut arb = CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, n);
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        let matched = arb.schedule(0, |_, _| true, &[false; 4], &mut match_in, &mut match_out);
        assert_eq!(matched, 0);
        assert!(match_in.iter().all(Option::is_none));
    }

    /// The satellite invariant: on contention-free matrices (a partial
    /// permutation of demands) iSLIP and the maximal-matching baseline make
    /// exactly the same — complete — matching, whatever their pointer state.
    #[test]
    fn islip_and_maximal_agree_on_contention_free_matrices() {
        let mut rng = StdRng::seed_from_u64(20_260_730);
        for _ in 0..200 {
            let n = rng.gen_range(2..10usize);
            // Random partial permutation: a shuffled output list, each input
            // keeping its output with probability 3/4.
            let mut outputs: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                outputs.swap(i, rng.gen_range(0..=i));
            }
            let mut demand = vec![vec![false; n]; n];
            let mut expected: Vec<Option<u32>> = vec![None; n];
            for i in 0..n {
                if rng.gen_range(0..4u32) < 3 {
                    demand[i][outputs[i]] = true;
                    expected[i] = Some(outputs[i] as u32);
                }
            }
            // Scramble pointer state with a few warm-up slots of full demand.
            for kind in [ArbiterKind::Islip { iterations: 0 }, ArbiterKind::Maximal] {
                let mut arb = CrossbarArbiter::new(kind, n);
                let ready = vec![true; n];
                let mut match_in = vec![None; n];
                let mut match_out = vec![None; n];
                for slot in 0..u64::from(rng.gen_range(0..5u32)) {
                    arb.schedule(slot, |_, _| true, &ready, &mut match_in, &mut match_out);
                }
                arb.schedule(
                    7,
                    |i, j| demand[i][j],
                    &ready,
                    &mut match_in,
                    &mut match_out,
                );
                assert_eq!(
                    match_in, expected,
                    "{kind:?} must match every contention-free demand"
                );
            }
        }
    }
}
