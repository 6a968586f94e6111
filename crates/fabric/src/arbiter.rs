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
//! this models: one row of `⌈ports / 64⌉` words per input (`rows[i]` bit
//! `j`), its transpose per output (`cols[j]` bit `i`), and one-row masks of
//! the still-unmatched inputs and outputs. "Nearest to the round-robin
//! pointer" is then an AND, a shift and a `trailing_zeros`, so an iteration
//! costs O(ports) word operations, not O(ports²) probes. Every port count
//! runs the same code (one word per row up to 64 ports); the unit tests fuzz
//! it against the cell-by-cell matcher it replaced.

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

/// Bits per mask word.
const WORD: usize = u64::BITS as usize;

/// `k % n` for `k < 2 * n`, without the division.
fn wrap(k: usize, n: usize) -> usize {
    k - n * usize::from(k >= n)
}

/// The first position at or cyclically after `start` that is set in both
/// `a` and `b` (equally long masks): the round-robin pick.
fn first_at_or_after(a: &[u64], b: &[u64], start: usize) -> Option<usize> {
    // `start`'s word from `start` up, the other words in cyclic order, then
    // `start`'s word again, where only bits below `start` can be left.
    (0..=a.len()).find_map(|k| {
        let w = wrap(start / WORD + k, a.len());
        let both = a[w] & b[w] & if k == 0 { !0 << (start % WORD) } else { !0 };
        (both != 0).then(|| w * WORD + both.trailing_zeros() as usize)
    })
}

/// Calls `f` with every set position of `mask` (its words, lowest first),
/// ascending.
fn for_each_one(mask: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, mut rest) in mask.enumerate() {
        while rest != 0 {
            f(w * WORD + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// The crossbar scheduler: pointer state plus scratch, sized once per fabric.
#[derive(Debug)]
pub struct CrossbarArbiter {
    kind: ArbiterKind,
    ports: usize,
    iterations: usize,
    /// Words per mask row, `⌈ports / 64⌉`.
    words: usize,
    /// Per-output round-robin grant pointer (iSLIP).
    grant_ptr: Vec<u32>,
    /// Per-input round-robin accept pointer (iSLIP) / scan pointer (maximal).
    accept_ptr: Vec<u32>,
    /// Scratch: `rows[i]` bit `j` — input `i` has a cell for ready output `j`.
    rows: Vec<u64>,
    /// Scratch (iSLIP): the transpose, `cols[j]` bit `i`.
    cols: Vec<u64>,
    /// Scratch (iSLIP): `grants[i]` bit `j` — output `j` granted to input `i`
    /// in this iteration. Zero between calls, like `granted_in`.
    grants: Vec<u64>,
    /// Scratch (iSLIP): the inputs holding a grant.
    granted_in: Vec<u64>,
    /// Scratch (iSLIP): the unmatched inputs.
    free_in: Vec<u64>,
    /// Scratch: the unmatched outputs that are ready and requested.
    free_out: Vec<u64>,
}

impl CrossbarArbiter {
    /// Creates an arbiter for a fabric of `ports` input and output ports.
    pub fn new(kind: ArbiterKind, ports: usize) -> Self {
        let words = ports.div_ceil(WORD);
        CrossbarArbiter {
            kind,
            ports,
            iterations: kind.effective_iterations(ports),
            words,
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            rows: vec![0; ports * words],
            cols: vec![0; ports * words],
            grants: vec![0; ports * words],
            granted_in: vec![0; words],
            free_in: vec![0; words],
            free_out: vec![0; words],
        }
    }

    /// The algorithm this arbiter runs.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Computes the matching of slot `slot`.
    ///
    /// `eligible(i, j)` reports whether input `i` has a requestable cell for
    /// output `j`; `output_ready[j]` whether output `j` has an egress credit
    /// this slot. The matching lands in `match_in` (per input: the matched
    /// output) and `match_out` (per output: the matched input); both are
    /// cleared first. Returns the number of matched pairs.
    ///
    /// `eligible` must be a pure function of the slot's buffer state: it is
    /// evaluated exactly once per `(i, j)` pair, row by row, up front — one
    /// sequential pass over each input's occupancy counters, packed into
    /// that input's mask row; the matching itself never calls it.
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
    /// drop the ports of a short one and shift past a word on a long one.
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
        let (n, words) = (self.ports, self.words);
        assert_eq!(output_ready.len(), n, "output_ready: one flag per output");
        assert_eq!(match_in.len(), n, "match_in: one entry per input");
        assert_eq!(match_out.len(), n, "match_out: one entry per output");
        match_in.fill(None);
        match_out.fill(None);
        self.free_out.fill(0);
        for i in 0..n {
            for (w, ready) in output_ready.chunks(WORD).enumerate() {
                let (mut row, mut bit) = (0, 1u64);
                for (j, &ready) in (w * WORD..).zip(ready) {
                    // `&`, not `&&`: the oracle is asked about unready outputs too.
                    row |= bit & u64::from(eligible(i, j) & ready).wrapping_neg();
                    bit <<= 1;
                }
                self.rows[i * words + w] = row;
                self.free_out[w] |= row;
            }
        }
        if self.free_out.iter().all(|&word| word == 0) {
            return 0;
        }
        let mut matched = 0;
        let pair = |i: usize, j: usize| {
            match_in[i] = Some(j as u32);
            match_out[j] = Some(i as u32);
            matched += 1;
        };
        match self.kind {
            ArbiterKind::Islip { .. } => self.islip(pair),
            ArbiterKind::Maximal => self.maximal(slot, pair),
        }
        matched
    }

    fn islip(&mut self, mut pair: impl FnMut(usize, usize)) {
        let (n, words) = (self.ports, self.words);
        self.cols.fill(0);
        for (i, row) in self.rows.chunks_exact(words).enumerate() {
            for_each_one(row.iter().copied(), |j| {
                self.cols[j * words + i / WORD] |= 1 << (i % WORD);
            });
        }
        self.free_in.fill(!0);
        for iteration in 0..self.iterations {
            // Grant: every unmatched ready output picks the requesting
            // unmatched input nearest (cyclically) to its grant pointer.
            for_each_one(self.free_out.iter().copied(), |j| {
                let wanted = &self.cols[j * words..][..words];
                let start = self.grant_ptr[j] as usize;
                if let Some(i) = first_at_or_after(wanted, &self.free_in, start) {
                    self.grants[i * words + j / WORD] |= 1 << (j % WORD);
                    self.granted_in[i / WORD] |= 1 << (i % WORD);
                }
            });
            // Accept: every input that received at least one grant accepts
            // the granting output nearest to its accept pointer. Pointers
            // advance only on first-iteration accepts (original iSLIP).
            let mut accepted = false;
            for_each_one(self.granted_in.iter_mut().map(std::mem::take), |i| {
                let offers = &self.grants[i * words..][..words];
                let start = self.accept_ptr[i] as usize;
                if let Some(j) = first_at_or_after(offers, &self.free_out, start) {
                    pair(i, j);
                    self.free_in[i / WORD] &= !(1 << (i % WORD));
                    self.free_out[j / WORD] &= !(1 << (j % WORD));
                    if iteration == 0 {
                        self.grant_ptr[j] = wrap(i + 1, n) as u32;
                        self.accept_ptr[i] = wrap(j + 1, n) as u32;
                    }
                    accepted = true;
                }
            });
            if !accepted {
                break;
            }
            self.grants.fill(0);
        }
    }

    fn maximal(&mut self, slot: u64, mut pair: impl FnMut(usize, usize)) {
        let (n, words) = (self.ports, self.words);
        let priority = (slot % n as u64) as usize;
        for k in 0..n {
            let i = wrap(priority + k, n);
            let row = &self.rows[i * words..][..words];
            let start = self.accept_ptr[i] as usize;
            if let Some(j) = first_at_or_after(row, &self.free_out, start) {
                pair(i, j);
                self.free_out[j / WORD] &= !(1 << (j % WORD));
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

    /// The mask kernels against the scalar reference, slot for slot on shared
    /// pointer state: every port count around the word boundaries, both
    /// algorithms, explicit iteration counts, random densities and credits.
    #[test]
    fn mask_kernels_match_the_scalar_reference_slot_for_slot() {
        let mut rng = StdRng::seed_from_u64(0x15_11b);
        for n in (1..=9).chain([16, 33, 63, 64, 65, 130]) {
            for kind in ALL_KINDS {
                let mut new = CrossbarArbiter::new(kind, n);
                let mut old = ScalarArbiter::new(kind, n);
                let (mut new_in, mut new_out) = (vec![None; n], vec![None; n]);
                let (mut old_in, mut old_out) = (vec![None; n], vec![None; n]);
                // Start mid-rotation so the maximal priority wraps in-run.
                let first_slot = rng.gen_range(0..1_000u64);
                for slot in first_slot..first_slot + 40 {
                    let (demand, ready) = random_slot(&mut rng, n);
                    let oracle = |i: usize, j: usize| demand[i * n + j];
                    let matched = new.schedule(slot, oracle, &ready, &mut new_in, &mut new_out);
                    let expected = old.schedule(slot, oracle, &ready, &mut old_in, &mut old_out);
                    let at = format!("{kind:?}, {n} ports, slot {slot}");
                    assert_eq!(matched, expected, "match count diverged: {at}");
                    assert_eq!(new_in, old_in, "match_in diverged: {at}");
                    assert_eq!(new_out, old_out, "match_out diverged: {at}");
                }
                assert_eq!(new.grant_ptr, old.grant_ptr, "{kind:?}, {n} ports");
                assert_eq!(new.accept_ptr, old.accept_ptr, "{kind:?}, {n} ports");
            }
        }
    }

    /// The oracle contract the fabric's per-buffer probe counts rest on:
    /// exactly one call per pair, row by row — unready outputs included.
    #[test]
    fn oracle_is_asked_once_per_pair_in_row_major_order() {
        for n in [5, 65] {
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
        for n in [5, 16, 65] {
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
