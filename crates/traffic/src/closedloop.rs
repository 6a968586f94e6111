//! Closed-loop reliable sources: per-flow sequence numbers, an AIMD
//! congestion window, and an RTO with exponential backoff.
//!
//! Every other generator in this crate is *open-loop*: it emits cells on a
//! fixed stochastic schedule and never hears back from the network. A
//! [`ClosedLoopSource`] instead models one external port of a multi-stage
//! fabric running a reliable transport:
//!
//! * each destination port is a *flow* with its own sequence-number space;
//! * an **AIMD window** (additive increase per ack, multiplicative decrease
//!   per timeout epoch) bounds the number of unacknowledged cells;
//! * every in-flight cell carries a **retransmission timeout** (RTO) seeded
//!   from a smoothed-RTT estimate and doubled on every retry up to a cap;
//! * cells that exhaust their retry budget are *abandoned* (counted, never
//!   forgotten: a late ack resurrects them so conservation still closes).
//!
//! The source is entirely deterministic — no RNG, integer arithmetic only —
//! so a fabric driven by closed-loop sources replays bit-identically. The
//! in-flight window is an unordered flat `Vec`, so one rule fixes every
//! emitted cell: timers that fire in the same call fire in `(dest, seq)`
//! order, and retransmissions leave in that order.
//!
//! Cost per slot: a source keeps a lower bound on its earliest live deadline,
//! so [`ClosedLoopSource::expire_timers`] returns at once on a slot with no
//! due timer and scans the window only when one may be due. An ack finds its
//! cell by a linear scan of the window, O(`cwnd_max`) — the window never
//! holds more than `cwnd_max` cells, 32 by default.
//!
//! The driver contract is slot-synchronous and mirrors a switch ingress:
//! each slot the driver (1) delivers any acks visible this slot via
//! [`ClosedLoopSource::on_ack`], (2) calls
//! [`ClosedLoopSource::expire_timers`], and (3) calls
//! [`ClosedLoopSource::poll`] for at most one cell to inject. Acks are
//! `(dest, seq)` pairs; duplicate acks are ignored.

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

use obs::Log2Histogram;
use std::collections::{BTreeMap, VecDeque};

/// Fixed-point scale for the congestion window (10 fractional bits), so the
/// additive-increase step `1/cwnd` per ack needs no floating point.
const CWND_SCALE: u64 = 1024;

/// Fixed-point scale for the smoothed RTT (3 fractional bits): the classic
/// `srtt += (rtt - srtt) / 8` EWMA, kept as `srtt * 8`.
const SRTT_SCALE: u64 = 8;

/// Largest `rto_initial` / `rto_cap` a source takes, in slots (2^32). A timer
/// deadline is `slot + rto` and a backoff step `rto * 2`: with every RTO at
/// most 2^32 neither overflows a `u64` until the slot clock itself passes
/// 2^64 − 2^32.
pub const MAX_RTO_SLOTS: u64 = 1 << 32;

/// Largest `cwnd_init` / `cwnd_max` a source takes, in cells (2^32). The
/// window is kept as `cwnd * CWND_SCALE` (2^10), so it stays below 2^42 and
/// never wraps to the zero the additive increase would divide by.
pub const MAX_CWND_CELLS: u64 = 1 << 32;

/// Which destinations a closed-loop source offers traffic to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandPattern {
    /// Sweep all other external ports round-robin — the closed-loop analogue
    /// of a uniform matrix.
    Sweep,
    /// Send everything at one `target` port. With every source in the fabric
    /// aimed at the same target this is the incast stress: timeouts fire in
    /// lock-step across sources and the retry storm is synchronized.
    Incast {
        /// External port index that all demand is aimed at.
        target: u32,
    },
}

impl DemandPattern {
    /// Stable human-readable label (`sweep` / `incast`).
    pub fn label(&self) -> &'static str {
        match self {
            DemandPattern::Sweep => "sweep",
            DemandPattern::Incast { .. } => "incast",
        }
    }
}

/// Tuning knobs for a [`ClosedLoopSource`].
///
/// All times are in slots. The defaults suit the workspace's small Clos
/// geometries (round-trip times of a few slots, fault windows of a few
/// thousand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopConfig {
    /// RTO for the first transmission of a cell while no RTT estimate
    /// exists, and the lower clamp of the adaptive RTO. Minimum 1.
    pub rto_initial: u64,
    /// Upper bound on any (backed-off or adaptive) RTO.
    pub rto_cap: u64,
    /// Retransmission attempts before a cell is abandoned (counted in
    /// `gave_up`, resurrectable by a late ack).
    pub max_retries: u32,
    /// Initial congestion window, in cells.
    pub cwnd_init: u64,
    /// Upper bound on the congestion window, in cells.
    pub cwnd_max: u64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            rto_initial: 32,
            rto_cap: 1024,
            max_retries: 32,
            cwnd_init: 2,
            cwnd_max: 32,
        }
    }
}

impl ClosedLoopConfig {
    /// Returns the config with every field clamped into its valid range
    /// (`1 ≤ rto_initial ≤ rto_cap ≤` [`MAX_RTO_SLOTS`], `1 ≤ cwnd_init ≤
    /// cwnd_max ≤` [`MAX_CWND_CELLS`]).
    pub fn normalized(self) -> Self {
        let rto_initial = self.rto_initial.clamp(1, MAX_RTO_SLOTS);
        let cwnd_init = self.cwnd_init.clamp(1, MAX_CWND_CELLS);
        ClosedLoopConfig {
            rto_initial,
            rto_cap: self.rto_cap.clamp(rto_initial, MAX_RTO_SLOTS),
            max_retries: self.max_retries,
            cwnd_init,
            cwnd_max: self.cwnd_max.clamp(cwnd_init, MAX_CWND_CELLS),
        }
    }

    /// The first field above its bound, as `(field, bound, value)`, or
    /// `None` when none is. [`ClosedLoopConfig::normalized`] clamps such a
    /// field; a caller holding outside input refuses it with this instead.
    pub fn out_of_range(&self) -> Option<(&'static str, u64, u64)> {
        [
            ("rto_initial", MAX_RTO_SLOTS, self.rto_initial),
            ("rto_cap", MAX_RTO_SLOTS, self.rto_cap),
            ("cwnd_init", MAX_CWND_CELLS, self.cwnd_init),
            ("cwnd_max", MAX_CWND_CELLS, self.cwnd_max),
        ]
        .into_iter()
        .find(|&(_, bound, value)| value > bound)
    }
}

/// Book-keeping for one unacknowledged cell.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// Slot of the most recent (re)transmission.
    last_sent: u64,
    /// Slot of the *first* transmission — never re-stamped on a retry, so a
    /// retransmitted cell's transport-layer latency (first injection to ack)
    /// is measured over its whole recovery, not just the last copy.
    first_sent: u64,
    /// Current RTO; doubles on every retry, capped at `rto_cap`.
    rto: u64,
    /// Absolute slot at which the timer fires (`last_sent + rto`).
    deadline: u64,
    /// Retransmissions so far (0 for a fresh cell).
    retries: u32,
}

/// A cell of the in-flight window: `(dest, seq, timer state)`.
type InFlight = (u32, u64, Outstanding);

/// One external port's closed-loop reliable sender.
///
/// See the module docs above for the driver contract. The in-flight window
/// is a flat, unordered `Vec`: timers that fire together are sorted by
/// `(dest, seq)` before they are queued, which fixes the order of every
/// retransmission and so of every emitted cell. A `next_deadline` guard makes
/// a slot with no due timer O(1); an ack scans the window, O(`cwnd_max`).
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    src: u32,
    ports: usize,
    pattern: DemandPattern,
    cfg: ClosedLoopConfig,
    /// Next destination in a [`DemandPattern::Sweep`] rotation.
    next_dest: u32,
    /// Next fresh sequence number per destination flow.
    next_seq: Vec<u64>,
    /// Congestion window, fixed-point with [`CWND_SCALE`].
    cwnd_fp: u64,
    /// Smoothed RTT, fixed-point with [`SRTT_SCALE`]; 0 until the first
    /// clean (retry-free) ack.
    srtt_fp: u64,
    /// Earliest slot at which another multiplicative decrease may trigger —
    /// one halving per RTT-scale epoch, not one per lost cell.
    next_decrease_ok: u64,
    /// Unacked cells with a live timer, in no particular order. Never longer
    /// than `cwnd_max`: a fresh cell goes out only while `in_flight + rq <
    /// cwnd`, and a retransmission only moves a cell back from `rq`.
    in_flight: Vec<InFlight>,
    /// A lower bound on the earliest deadline in `in_flight` (`u64::MAX`
    /// when it is empty): [`ClosedLoopSource::expire_timers`] returns at once
    /// before it. Every send lowers it; an ack leaves it stale-low until the
    /// next scan makes it exact again.
    next_deadline: u64,
    /// The timers one `expire_timers` call fires, sorted there; kept between
    /// calls so a warm source does not allocate.
    fired: Vec<InFlight>,
    /// Timed-out cells waiting for a retransmission slot.
    rq: VecDeque<(u32, u64, Outstanding)>,
    /// Cells that exhausted `max_retries`, mapped to their first-injection
    /// slot. A late ack removes the entry and decrements `gave_up`, so
    /// abandonment never double-counts a delivery.
    abandoned: BTreeMap<(u32, u64), u64>,
    injected: u64,
    retransmitted: u64,
    timeouts: u64,
    acked: u64,
    gave_up: u64,
    /// Transport-layer latency histogram (first injection to ack), armed by
    /// [`ClosedLoopSource::arm_latency_obs`]; `None` keeps the hot path free
    /// of histogram work.
    first_injection_hist: Option<Log2Histogram>,
}

impl ClosedLoopSource {
    /// Creates the sender for external port `src` of a fabric with `ports`
    /// external ports. The config is [normalized](ClosedLoopConfig::normalized).
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    pub fn new(src: u32, ports: usize, pattern: DemandPattern, cfg: ClosedLoopConfig) -> Self {
        let cfg = cfg.normalized();
        ClosedLoopSource {
            src,
            ports,
            pattern,
            cfg,
            next_dest: 0,
            next_seq: vec![0; ports],
            cwnd_fp: cfg.cwnd_init * CWND_SCALE,
            srtt_fp: 0,
            next_decrease_ok: 0,
            in_flight: Vec::new(),
            next_deadline: u64::MAX,
            fired: Vec::new(),
            rq: VecDeque::new(),
            abandoned: BTreeMap::new(),
            injected: 0,
            retransmitted: 0,
            timeouts: 0,
            acked: 0,
            gave_up: 0,
            first_injection_hist: None,
        }
    }

    /// Arms the transport-layer latency histogram: every subsequent ack
    /// records `ack slot − first-injection slot`. Covers retransmitted and
    /// resurrected cells, which fabric-level (last-copy) latency
    /// under-counts. Off by default; arming changes no transport behaviour.
    pub fn arm_latency_obs(&mut self) {
        self.first_injection_hist = Some(Log2Histogram::new());
    }

    /// The armed transport-layer latency histogram, if any.
    pub fn first_injection_hist(&self) -> Option<&Log2Histogram> {
        self.first_injection_hist.as_ref()
    }

    fn record_latency(&mut self, first_sent: u64, slot: u64) {
        if let Some(hist) = self.first_injection_hist.as_mut() {
            hist.record(slot.saturating_sub(first_sent));
        }
    }

    /// Whether this source ever offers traffic (an incast source aimed at
    /// itself, or a fabric with fewer than two ports, never sends).
    fn sends(&self) -> bool {
        match self.pattern {
            DemandPattern::Sweep => self.ports >= 2,
            DemandPattern::Incast { target } => self.ports >= 2 && target != self.src,
        }
    }

    /// Congestion window in whole cells (≥ 1).
    pub fn cwnd(&self) -> u64 {
        (self.cwnd_fp / CWND_SCALE).max(1)
    }

    /// Smoothed RTT estimate in slots (0 until the first clean ack).
    pub fn srtt(&self) -> u64 {
        self.srtt_fp / SRTT_SCALE
    }

    fn grow_window(&mut self) {
        // Additive increase: +1/cwnd cells per ack, i.e. ~+1 cell per RTT.
        let next = self.cwnd_fp + CWND_SCALE * CWND_SCALE / self.cwnd_fp;
        self.cwnd_fp = next.min(self.cfg.cwnd_max * CWND_SCALE);
    }

    /// Processes an ack for `(dest, seq)` observed at `slot`. Duplicate acks
    /// are ignored; an ack for an abandoned cell resurrects it (the delivery
    /// counts, `gave_up` is decremented). Finding the cell scans the
    /// in-flight window: O(`cwnd_max`).
    pub fn on_ack(&mut self, dest: u32, seq: u64, slot: u64) {
        let key = (dest, seq);
        if let Some(pos) = self.in_flight.iter().position(|&(d, s, _)| (d, s) == key) {
            let (_, _, out) = self.in_flight.swap_remove(pos);
            self.acked += 1;
            self.record_latency(out.first_sent, slot);
            if out.retries == 0 {
                // Karn's rule: only retry-free samples feed the RTT estimate.
                let rtt = slot.saturating_sub(out.last_sent).max(1);
                self.srtt_fp = if self.srtt_fp == 0 {
                    rtt * SRTT_SCALE
                } else {
                    self.srtt_fp - self.srtt_fp / SRTT_SCALE + rtt
                };
            }
            self.grow_window();
        } else if let Some(pos) = self.rq.iter().position(|&(d, s, _)| (d, s) == key) {
            // Acked while queued for retransmission: the original copy made
            // it after all. Drop the pending retry.
            if let Some((_, _, out)) = self.rq.remove(pos) {
                self.acked += 1;
                self.record_latency(out.first_sent, slot);
                self.grow_window();
            }
        } else if let Some(first_sent) = self.abandoned.remove(&key) {
            self.gave_up -= 1;
            self.acked += 1;
            self.record_latency(first_sent, slot);
        }
        // Otherwise: duplicate ack for an already-acked cell. Ignore.
    }

    /// Fires every timer with `deadline ≤ slot`: the cell moves to the
    /// retransmission queue (or to the abandoned set once `max_retries` is
    /// exhausted) and — at most once per RTT epoch — the window halves.
    /// Timers that fire together are queued in `(dest, seq)` order. Before
    /// the earliest live deadline this returns at once.
    pub fn expire_timers(&mut self, slot: u64) {
        if slot < self.next_deadline {
            return;
        }
        let Self {
            in_flight, fired, ..
        } = self;
        let mut next_deadline = u64::MAX;
        in_flight.retain(|&cell| {
            let deadline = cell.2.deadline;
            if deadline > slot {
                next_deadline = next_deadline.min(deadline);
                return true;
            }
            fired.push(cell);
            false
        });
        self.next_deadline = next_deadline;
        if self.fired.is_empty() {
            return;
        }
        self.fired
            .sort_unstable_by_key(|&(dest, seq, _)| (dest, seq));
        for (dest, seq, out) in self.fired.drain(..) {
            self.timeouts += 1;
            if out.retries >= self.cfg.max_retries {
                self.abandoned.insert((dest, seq), out.first_sent);
                self.gave_up += 1;
            } else {
                self.rq.push_back((dest, seq, out));
            }
        }
        if slot >= self.next_decrease_ok {
            self.cwnd_fp = (self.cwnd_fp / 2).max(CWND_SCALE);
            self.next_decrease_ok = slot + self.srtt().max(self.cfg.rto_initial);
        }
    }

    /// Offers at most one cell for injection at `slot`: a pending
    /// retransmission first, else — if `allow_new` and the window has room —
    /// a fresh cell. Returns the `(dest, seq)` to inject, or `None`.
    ///
    /// Drivers pass `allow_new = false` during a tail/drain phase so the run
    /// winds down instead of generating forever.
    pub fn poll(&mut self, slot: u64, allow_new: bool) -> Option<(u32, u64)> {
        if let Some((dest, seq, mut out)) = self.rq.pop_front() {
            out.retries += 1;
            out.rto = (out.rto * 2).min(self.cfg.rto_cap);
            out.last_sent = slot;
            out.deadline = slot + out.rto;
            self.next_deadline = self.next_deadline.min(out.deadline);
            self.in_flight.push((dest, seq, out));
            self.retransmitted += 1;
            return Some((dest, seq));
        }
        if !allow_new || !self.sends() {
            return None;
        }
        if (self.in_flight.len() + self.rq.len()) as u64 >= self.cwnd() {
            return None;
        }
        let dest = match self.pattern {
            DemandPattern::Sweep => {
                let mut d = self.next_dest;
                if d == self.src {
                    d = (d + 1) % self.ports as u32;
                }
                self.next_dest = (d + 1) % self.ports as u32;
                d
            }
            DemandPattern::Incast { target } => target,
        };
        let seq = self.next_seq[dest as usize];
        self.next_seq[dest as usize] += 1;
        let rto = if self.srtt_fp == 0 {
            self.cfg.rto_initial
        } else {
            (2 * self.srtt()).clamp(self.cfg.rto_initial, self.cfg.rto_cap)
        };
        let deadline = slot + rto;
        self.next_deadline = self.next_deadline.min(deadline);
        self.in_flight.push((
            dest,
            seq,
            Outstanding {
                last_sent: slot,
                first_sent: slot,
                rto,
                deadline,
                retries: 0,
            },
        ));
        self.injected += 1;
        Some((dest, seq))
    }

    /// The earliest future slot at which this source needs to act: now if a
    /// retransmission is queued, else the nearest timer deadline, else
    /// `None` (fully quiet). Lets a drain loop fast-forward idle gaps.
    pub fn next_action_slot(&self) -> Option<u64> {
        if !self.rq.is_empty() {
            return Some(0);
        }
        self.in_flight.iter().map(|&(_, _, out)| out.deadline).min()
    }

    /// True once nothing is in flight and nothing awaits retransmission.
    /// (Abandoned cells are quiet: their retry budget is spent.)
    pub fn is_quiet(&self) -> bool {
        self.in_flight.is_empty() && self.rq.is_empty()
    }

    /// External port this source sends from.
    pub fn src(&self) -> u32 {
        self.src
    }

    /// External port count of the fabric this source was built for.
    pub fn num_ports(&self) -> usize {
        self.ports
    }

    /// Fresh cells injected (first transmissions).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Retransmission copies sent.
    pub fn retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// Timer expiries fired (every retry and every abandonment starts here).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Unique cells acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Cells currently abandoned (retry budget exhausted, no ack yet).
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// Cells with a live retransmission timer.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Cells queued for retransmission.
    pub fn rq_len(&self) -> usize {
        self.rq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `BTreeMap`-keyed source the flat window replaced, kept verbatim as
    /// the differential oracle: its `retain` walks the in-flight tree in
    /// `(dest, seq)` order on every `expire_timers` call.
    #[derive(Debug, Clone)]
    struct TreeSource {
        src: u32,
        ports: usize,
        pattern: DemandPattern,
        cfg: ClosedLoopConfig,
        /// Next destination in a [`DemandPattern::Sweep`] rotation.
        next_dest: u32,
        /// Next fresh sequence number per destination flow.
        next_seq: Vec<u64>,
        /// Congestion window, fixed-point with [`CWND_SCALE`].
        cwnd_fp: u64,
        /// Smoothed RTT, fixed-point with [`SRTT_SCALE`]; 0 until the first
        /// clean (retry-free) ack.
        srtt_fp: u64,
        /// Earliest slot at which another multiplicative decrease may trigger —
        /// one halving per RTT-scale epoch, not one per lost cell.
        next_decrease_ok: u64,
        /// Unacked cells with a live timer, keyed by `(dest, seq)`.
        in_flight: BTreeMap<(u32, u64), Outstanding>,
        /// Timed-out cells waiting for a retransmission slot.
        rq: VecDeque<(u32, u64, Outstanding)>,
        /// Cells that exhausted `max_retries`, mapped to their first-injection
        /// slot. A late ack removes the entry and decrements `gave_up`, so
        /// abandonment never double-counts a delivery.
        abandoned: BTreeMap<(u32, u64), u64>,
        injected: u64,
        retransmitted: u64,
        timeouts: u64,
        acked: u64,
        gave_up: u64,
        /// Transport-layer latency histogram (first injection to ack), armed by
        /// [`TreeSource::arm_latency_obs`]; `None` keeps the hot path free
        /// of histogram work.
        first_injection_hist: Option<Log2Histogram>,
    }

    impl TreeSource {
        /// Creates the sender for external port `src` of a fabric with `ports`
        /// external ports. The config is [normalized](ClosedLoopConfig::normalized).
        fn new(src: u32, ports: usize, pattern: DemandPattern, cfg: ClosedLoopConfig) -> Self {
            let cfg = cfg.normalized();
            TreeSource {
                src,
                ports,
                pattern,
                cfg,
                next_dest: 0,
                next_seq: vec![0; ports],
                cwnd_fp: cfg.cwnd_init * CWND_SCALE,
                srtt_fp: 0,
                next_decrease_ok: 0,
                in_flight: BTreeMap::new(),
                rq: VecDeque::new(),
                abandoned: BTreeMap::new(),
                injected: 0,
                retransmitted: 0,
                timeouts: 0,
                acked: 0,
                gave_up: 0,
                first_injection_hist: None,
            }
        }

        /// Arms the transport-layer latency histogram: every subsequent ack
        /// records `ack slot − first-injection slot`. Covers retransmitted and
        /// resurrected cells, which fabric-level (last-copy) latency
        /// under-counts. Off by default; arming changes no transport behaviour.
        fn arm_latency_obs(&mut self) {
            self.first_injection_hist = Some(Log2Histogram::new());
        }

        /// The armed transport-layer latency histogram, if any.
        fn first_injection_hist(&self) -> Option<&Log2Histogram> {
            self.first_injection_hist.as_ref()
        }

        fn record_latency(&mut self, first_sent: u64, slot: u64) {
            if let Some(hist) = self.first_injection_hist.as_mut() {
                hist.record(slot.saturating_sub(first_sent));
            }
        }

        /// Whether this source ever offers traffic (an incast source aimed at
        /// itself, or a fabric with fewer than two ports, never sends).
        fn sends(&self) -> bool {
            match self.pattern {
                DemandPattern::Sweep => self.ports >= 2,
                DemandPattern::Incast { target } => self.ports >= 2 && target != self.src,
            }
        }

        /// Congestion window in whole cells (≥ 1).
        fn cwnd(&self) -> u64 {
            (self.cwnd_fp / CWND_SCALE).max(1)
        }

        /// Smoothed RTT estimate in slots (0 until the first clean ack).
        fn srtt(&self) -> u64 {
            self.srtt_fp / SRTT_SCALE
        }

        fn grow_window(&mut self) {
            // Additive increase: +1/cwnd cells per ack, i.e. ~+1 cell per RTT.
            let next = self.cwnd_fp + CWND_SCALE * CWND_SCALE / self.cwnd_fp;
            self.cwnd_fp = next.min(self.cfg.cwnd_max * CWND_SCALE);
        }

        /// Processes an ack for `(dest, seq)` observed at `slot`. Duplicate acks
        /// are ignored; an ack for an abandoned cell resurrects it (the delivery
        /// counts, `gave_up` is decremented).
        fn on_ack(&mut self, dest: u32, seq: u64, slot: u64) {
            let key = (dest, seq);
            if let Some(out) = self.in_flight.remove(&key) {
                self.acked += 1;
                self.record_latency(out.first_sent, slot);
                if out.retries == 0 {
                    // Karn's rule: only retry-free samples feed the RTT estimate.
                    let rtt = slot.saturating_sub(out.last_sent).max(1);
                    self.srtt_fp = if self.srtt_fp == 0 {
                        rtt * SRTT_SCALE
                    } else {
                        self.srtt_fp - self.srtt_fp / SRTT_SCALE + rtt
                    };
                }
                self.grow_window();
            } else if let Some(pos) = self.rq.iter().position(|&(d, s, _)| (d, s) == key) {
                // Acked while queued for retransmission: the original copy made
                // it after all. Drop the pending retry.
                if let Some((_, _, out)) = self.rq.remove(pos) {
                    self.acked += 1;
                    self.record_latency(out.first_sent, slot);
                    self.grow_window();
                }
            } else if let Some(first_sent) = self.abandoned.remove(&key) {
                self.gave_up -= 1;
                self.acked += 1;
                self.record_latency(first_sent, slot);
            }
            // Otherwise: duplicate ack for an already-acked cell. Ignore.
        }

        /// Fires every timer with `deadline ≤ slot`: the cell moves to the
        /// retransmission queue (or to the abandoned set once `max_retries` is
        /// exhausted) and — at most once per RTT epoch — the window halves.
        fn expire_timers(&mut self, slot: u64) {
            let Self {
                in_flight,
                rq,
                abandoned,
                timeouts,
                gave_up,
                cfg,
                ..
            } = self;
            let mut fired = false;
            in_flight.retain(|&key, out| {
                if out.deadline > slot {
                    return true;
                }
                *timeouts += 1;
                fired = true;
                if out.retries >= cfg.max_retries {
                    abandoned.insert(key, out.first_sent);
                    *gave_up += 1;
                } else {
                    rq.push_back((key.0, key.1, *out));
                }
                false
            });
            if fired && slot >= self.next_decrease_ok {
                self.cwnd_fp = (self.cwnd_fp / 2).max(CWND_SCALE);
                self.next_decrease_ok = slot + self.srtt().max(self.cfg.rto_initial);
            }
        }

        /// Offers at most one cell for injection at `slot`: a pending
        /// retransmission first, else — if `allow_new` and the window has room —
        /// a fresh cell. Returns the `(dest, seq)` to inject, or `None`.
        ///
        /// Drivers pass `allow_new = false` during a tail/drain phase so the run
        /// winds down instead of generating forever.
        fn poll(&mut self, slot: u64, allow_new: bool) -> Option<(u32, u64)> {
            if let Some((dest, seq, mut out)) = self.rq.pop_front() {
                out.retries += 1;
                out.rto = (out.rto * 2).min(self.cfg.rto_cap);
                out.last_sent = slot;
                out.deadline = slot + out.rto;
                self.in_flight.insert((dest, seq), out);
                self.retransmitted += 1;
                return Some((dest, seq));
            }
            if !allow_new || !self.sends() {
                return None;
            }
            if (self.in_flight.len() + self.rq.len()) as u64 >= self.cwnd() {
                return None;
            }
            let dest = match self.pattern {
                DemandPattern::Sweep => {
                    let mut d = self.next_dest;
                    if d == self.src {
                        d = (d + 1) % self.ports as u32;
                    }
                    self.next_dest = (d + 1) % self.ports as u32;
                    d
                }
                DemandPattern::Incast { target } => target,
            };
            let seq = self.next_seq[dest as usize];
            self.next_seq[dest as usize] += 1;
            let rto = if self.srtt_fp == 0 {
                self.cfg.rto_initial
            } else {
                (2 * self.srtt()).clamp(self.cfg.rto_initial, self.cfg.rto_cap)
            };
            self.in_flight.insert(
                (dest, seq),
                Outstanding {
                    last_sent: slot,
                    first_sent: slot,
                    rto,
                    deadline: slot + rto,
                    retries: 0,
                },
            );
            self.injected += 1;
            Some((dest, seq))
        }

        /// The earliest future slot at which this source needs to act: now if a
        /// retransmission is queued, else the nearest timer deadline, else
        /// `None` (fully quiet). Lets a drain loop fast-forward idle gaps.
        fn next_action_slot(&self) -> Option<u64> {
            if !self.rq.is_empty() {
                return Some(0);
            }
            self.in_flight.values().map(|o| o.deadline).min()
        }

        /// True once nothing is in flight and nothing awaits retransmission.
        /// (Abandoned cells are quiet: their retry budget is spent.)
        fn is_quiet(&self) -> bool {
            self.in_flight.is_empty() && self.rq.is_empty()
        }

        /// Fresh cells injected (first transmissions).
        fn injected(&self) -> u64 {
            self.injected
        }

        /// Retransmission copies sent.
        fn retransmitted(&self) -> u64 {
            self.retransmitted
        }

        /// Timer expiries fired (every retry and every abandonment starts here).
        fn timeouts(&self) -> u64 {
            self.timeouts
        }

        /// Unique cells acknowledged.
        fn acked(&self) -> u64 {
            self.acked
        }

        /// Cells currently abandoned (retry budget exhausted, no ack yet).
        fn gave_up(&self) -> u64 {
            self.gave_up
        }

        /// Cells with a live retransmission timer.
        fn in_flight_len(&self) -> usize {
            self.in_flight.len()
        }

        /// Cells queued for retransmission.
        fn rq_len(&self) -> usize {
            self.rq.len()
        }
    }

    fn cfg() -> ClosedLoopConfig {
        ClosedLoopConfig {
            rto_initial: 4,
            rto_cap: 64,
            max_retries: 3,
            cwnd_init: 2,
            cwnd_max: 8,
        }
    }

    #[test]
    fn config_normalization_clamps_degenerate_values() {
        let c = ClosedLoopConfig {
            rto_initial: 0,
            rto_cap: 0,
            max_retries: 0,
            cwnd_init: 0,
            cwnd_max: 0,
        }
        .normalized();
        assert_eq!(c.rto_initial, 1);
        assert!(c.rto_cap >= c.rto_initial);
        assert_eq!(c.cwnd_init, 1);
        assert!(c.cwnd_max >= c.cwnd_init);
    }

    #[test]
    fn sweep_rotates_destinations_and_skips_self() {
        let mut s = ClosedLoopSource::new(1, 4, DemandPattern::Sweep, cfg());
        let mut dests = Vec::new();
        for slot in 0..6 {
            if let Some((d, _)) = s.poll(slot, true) {
                dests.push(d);
                // Ack immediately so the window never blocks the sweep.
                s.on_ack(d, 0, slot + 1);
            }
        }
        assert!(!dests.contains(&1), "never sends to itself: {dests:?}");
        assert_eq!(&dests[..3], &[0, 2, 3]);
    }

    #[test]
    fn incast_targets_one_port_and_self_target_never_sends() {
        let mut s = ClosedLoopSource::new(0, 4, DemandPattern::Incast { target: 3 }, cfg());
        assert_eq!(s.poll(0, true), Some((3, 0)));
        assert_eq!(s.poll(1, true), Some((3, 1)));
        let mut own = ClosedLoopSource::new(3, 4, DemandPattern::Incast { target: 3 }, cfg());
        assert_eq!(own.poll(0, true), None);
        assert!(own.is_quiet());
    }

    #[test]
    fn window_blocks_fresh_cells_until_acked() {
        let mut s = ClosedLoopSource::new(0, 4, DemandPattern::Sweep, cfg());
        assert!(s.poll(0, true).is_some());
        assert!(s.poll(1, true).is_some());
        // cwnd_init = 2 ⇒ third fresh cell must wait.
        assert_eq!(s.poll(2, true), None);
        s.on_ack(1, 0, 2);
        assert!(s.poll(3, true).is_some());
    }

    #[test]
    fn aimd_grows_on_acks_and_halves_on_timeouts() {
        let mut s = ClosedLoopSource::new(0, 4, DemandPattern::Sweep, cfg());
        let start = s.cwnd();
        for slot in 0..40u64 {
            if let Some((d, q)) = s.poll(slot, true) {
                s.on_ack(d, q, slot + 1);
            }
        }
        assert!(s.cwnd() > start, "window must grow under clean acks");
        let grown = s.cwnd();
        // Now lose everything in flight once.
        let slot = 40;
        assert!(s.poll(slot, true).is_some());
        s.expire_timers(slot + 100);
        assert!(s.cwnd() <= grown / 2 + 1, "window must halve on a timeout");
        assert!(s.cwnd() >= 1);
    }

    #[test]
    fn rto_backs_off_exponentially_and_caps() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        let (d, q) = s.poll(0, true).unwrap();
        let mut deadline_gap = Vec::new();
        let mut slot = 0;
        for _ in 0..6 {
            s.expire_timers(slot + 1000);
            slot += 1000;
            let got = s.poll(slot, false);
            if got.is_none() {
                break; // abandoned
            }
            assert_eq!(got, Some((d, q)));
            let &(_, _, out) = s.in_flight.iter().find(|c| (c.0, c.1) == (d, q)).unwrap();
            deadline_gap.push(out.deadline - slot);
        }
        // rto_initial=4 doubles: 8, 16, 32 then abandonment (max_retries=3).
        assert_eq!(deadline_gap, vec![8, 16, 32]);
        assert_eq!(s.gave_up(), 1);
        assert!(s.is_quiet());
    }

    #[test]
    fn abandoned_cells_resurrect_on_late_ack() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        let (d, q) = s.poll(0, true).unwrap();
        let mut slot = 0;
        while !s.is_quiet() {
            s.expire_timers(slot + 1000);
            slot += 1000;
            let _ = s.poll(slot, false);
        }
        assert_eq!(s.gave_up(), 1);
        assert_eq!(s.acked(), 0);
        // The network delivers a stale copy after all.
        s.on_ack(d, q, slot + 1);
        assert_eq!(s.gave_up(), 0);
        assert_eq!(s.acked(), 1);
        // Conservation: injected = acked + in_flight + rq + gave_up.
        assert_eq!(
            s.injected(),
            s.acked() + s.in_flight_len() as u64 + s.rq_len() as u64 + s.gave_up()
        );
    }

    #[test]
    fn ack_while_queued_for_retransmit_cancels_the_retry() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        let (d, q) = s.poll(0, true).unwrap();
        s.expire_timers(100);
        assert_eq!(s.rq_len(), 1);
        s.on_ack(d, q, 101);
        assert_eq!(s.rq_len(), 0);
        assert_eq!(s.acked(), 1);
        assert_eq!(s.retransmitted(), 0);
        assert!(s.is_quiet());
    }

    #[test]
    fn duplicate_acks_are_ignored() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        let (d, q) = s.poll(0, true).unwrap();
        s.on_ack(d, q, 1);
        s.on_ack(d, q, 2);
        s.on_ack(d, q, 3);
        assert_eq!(s.acked(), 1);
    }

    #[test]
    fn karns_rule_skips_rtt_samples_from_retransmitted_cells() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        let (d, q) = s.poll(0, true).unwrap();
        s.expire_timers(100);
        assert_eq!(s.poll(100, false), Some((d, q)));
        // Huge apparent RTT on a retransmitted cell: must not poison srtt.
        s.on_ack(d, q, 5_000);
        assert_eq!(s.srtt(), 0);
        // A clean cell seeds the estimator.
        let (d2, q2) = s.poll(6_000, true).unwrap();
        s.on_ack(d2, q2, 6_007);
        assert_eq!(s.srtt(), 7);
    }

    #[test]
    fn first_injection_latency_spans_retransmissions_and_resurrections() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        s.arm_latency_obs();
        // Retransmitted cell: latency counts from the *first* copy.
        let (d, q) = s.poll(10, true).unwrap();
        s.expire_timers(100);
        assert_eq!(s.poll(100, false), Some((d, q)));
        s.on_ack(d, q, 110);
        let hist = s.first_injection_hist().unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 100, "110 − 10, not 110 − 100");
        // Clean cell: plain RTT.
        let (d2, q2) = s.poll(200, true).unwrap();
        s.on_ack(d2, q2, 205);
        assert_eq!(s.first_injection_hist().unwrap().min(), 5);
        // Abandoned-then-resurrected cell keeps its original injection slot.
        let mut a = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        a.arm_latency_obs();
        let (d3, q3) = a.poll(0, true).unwrap();
        let mut slot = 0;
        while !a.is_quiet() {
            a.expire_timers(slot + 1000);
            slot += 1000;
            let _ = a.poll(slot, false);
        }
        assert_eq!(a.gave_up(), 1);
        a.on_ack(d3, q3, slot + 500);
        let hist = a.first_injection_hist().unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), slot + 500);
    }

    #[test]
    fn unarmed_sources_behave_identically_to_armed_ones() {
        let run = |armed: bool| {
            let mut s = ClosedLoopSource::new(2, 8, DemandPattern::Sweep, cfg());
            if armed {
                s.arm_latency_obs();
            }
            let mut events = Vec::new();
            for slot in 0..2_000u64 {
                s.expire_timers(slot);
                if let Some((d, q)) = s.poll(slot, true) {
                    events.push((slot, d, q));
                    if !(d as u64 + q).is_multiple_of(7) {
                        s.on_ack(d, q, slot + 5);
                    }
                }
            }
            (events, s.injected(), s.retransmitted(), s.acked())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn next_action_slot_tracks_nearest_deadline() {
        let mut s = ClosedLoopSource::new(0, 2, DemandPattern::Sweep, cfg());
        assert_eq!(s.next_action_slot(), None);
        let _ = s.poll(10, true).unwrap();
        assert_eq!(s.next_action_slot(), Some(14)); // rto_initial = 4
        s.expire_timers(14);
        assert_eq!(s.next_action_slot(), Some(0)); // retry pending: act now
    }

    #[test]
    fn source_is_deterministic_under_a_fixed_ack_schedule() {
        let run = || {
            let mut s = ClosedLoopSource::new(2, 8, DemandPattern::Sweep, cfg());
            let mut events = Vec::new();
            for slot in 0..2_000u64 {
                // Ack each cell 5 slots after sending; drop every 7th.
                s.expire_timers(slot);
                if let Some((d, q)) = s.poll(slot, true) {
                    events.push((slot, d, q));
                    if !(d as u64 + q).is_multiple_of(7) {
                        s.on_ack(d, q, slot + 5);
                    }
                }
            }
            (
                events,
                s.injected(),
                s.retransmitted(),
                s.acked(),
                s.gave_up(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Everything a fabric or a report can read off a source.
    type Observed = (
        u64,
        u64,
        u64,
        u64,
        u64,
        u64,
        u64,
        usize,
        usize,
        Option<u64>,
        bool,
    );

    fn observe(s: &ClosedLoopSource) -> Observed {
        (
            s.injected(),
            s.retransmitted(),
            s.timeouts(),
            s.acked(),
            s.gave_up(),
            s.cwnd(),
            s.srtt(),
            s.in_flight_len(),
            s.rq_len(),
            s.next_action_slot(),
            s.is_quiet(),
        )
    }

    fn observe_tree(s: &TreeSource) -> Observed {
        (
            s.injected(),
            s.retransmitted(),
            s.timeouts(),
            s.acked(),
            s.gave_up(),
            s.cwnd(),
            s.srtt(),
            s.in_flight_len(),
            s.rq_len(),
            s.next_action_slot(),
            s.is_quiet(),
        )
    }

    /// Which cell a random ack names, by the state the reference holds it in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AckKind {
        /// A cell with a live timer.
        Fresh,
        /// A cell already acknowledged.
        Duplicate,
        /// A `(dest, seq)` the source has not sent (yet).
        Stale,
        /// A cell waiting in the retransmission queue.
        Queued,
        /// A cell whose retry budget ran out.
        Abandoned,
    }

    const ACK_KINDS: [AckKind; 5] = [
        AckKind::Fresh,
        AckKind::Duplicate,
        AckKind::Stale,
        AckKind::Queued,
        AckKind::Abandoned,
    ];

    /// The flat window against the tree reference, call for call: seeded
    /// random runs of `poll` (with and without new work), `expire_timers` at
    /// non-consecutive slots and every kind of ack, over sweep and incast
    /// demand, `rto_initial` 1–64 and `max_retries` 0–3. Every observable is
    /// compared after every call.
    #[test]
    fn flat_window_matches_the_tree_reference_call_for_call() {
        let mut acks_of_kind = [0u64; ACK_KINDS.len()];
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ports = rng.gen_range(2..=9usize);
            let src = rng.gen_range(0..ports as u32);
            let pattern = if rng.gen_bool(0.5) {
                DemandPattern::Sweep
            } else {
                let mut target = rng.gen_range(0..ports as u32);
                if target == src {
                    target = (target + 1) % ports as u32;
                }
                DemandPattern::Incast { target }
            };
            let cfg = ClosedLoopConfig {
                rto_initial: rng.gen_range(1..=64u64),
                rto_cap: rng.gen_range(1..=512u64),
                max_retries: rng.gen_range(0..=3u32),
                cwnd_init: rng.gen_range(1..=4u64),
                cwnd_max: rng.gen_range(1..=24u64),
            };
            let mut flat = ClosedLoopSource::new(src, ports, pattern, cfg);
            let mut tree = TreeSource::new(src, ports, pattern, cfg);
            if rng.gen_bool(0.5) {
                flat.arm_latency_obs();
                tree.arm_latency_obs();
            }
            let mut acked = Vec::new();
            let mut slot = 0u64;
            for step in 0..600 {
                let at = |call: String| format!("seed {seed}, step {step}: {call}");
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let allow_new = rng.gen_bool(0.8);
                        let got = flat.poll(slot, allow_new);
                        let want = tree.poll(slot, allow_new);
                        assert_eq!(got, want, "{}", at(format!("poll({slot}, {allow_new})")));
                    }
                    4..=5 => {
                        slot += rng.gen_range(1..=48u64);
                        flat.expire_timers(slot);
                        tree.expire_timers(slot);
                    }
                    _ => {
                        let kind = ACK_KINDS[rng.gen_range(0..ACK_KINDS.len())];
                        let pick = |keys: Vec<(u32, u64)>, rng: &mut StdRng| {
                            (!keys.is_empty()).then(|| keys[rng.gen_range(0..keys.len())])
                        };
                        let key = match kind {
                            AckKind::Fresh => {
                                pick(tree.in_flight.keys().copied().collect(), &mut rng)
                            }
                            AckKind::Duplicate => pick(acked.clone(), &mut rng),
                            AckKind::Stale => {
                                let dest = rng.gen_range(0..ports as u32);
                                Some((dest, tree.next_seq[dest as usize] + rng.gen_range(0..3u64)))
                            }
                            AckKind::Queued => {
                                pick(tree.rq.iter().map(|&(d, s, _)| (d, s)).collect(), &mut rng)
                            }
                            AckKind::Abandoned => {
                                pick(tree.abandoned.keys().copied().collect(), &mut rng)
                            }
                        };
                        let Some((dest, seq)) = key else {
                            continue;
                        };
                        acks_of_kind[kind as usize] += 1;
                        if kind != AckKind::Stale {
                            acked.push((dest, seq));
                        }
                        slot += rng.gen_range(0..=2u64);
                        flat.on_ack(dest, seq, slot);
                        tree.on_ack(dest, seq, slot);
                    }
                }
                assert_eq!(
                    observe(&flat),
                    observe_tree(&tree),
                    "{}",
                    at(format!("slot {slot}"))
                );
                assert_eq!(
                    flat.first_injection_hist(),
                    tree.first_injection_hist(),
                    "{}",
                    at(format!("latency histogram, slot {slot}"))
                );
            }
        }
        for (kind, count) in ACK_KINDS.iter().zip(acks_of_kind) {
            assert!(count > 1_000, "only {count} {kind:?} acks drawn");
        }
    }

    /// Every field at `u64::MAX` (`u32::MAX` retries) is clamped to the
    /// named bounds, and a source built from it runs the per-slot contract —
    /// sends, acks, timeouts and backed-off retransmissions — without an
    /// arithmetic overflow (this test runs unoptimised, so one would panic).
    #[test]
    fn a_hostile_config_is_clamped_and_never_overflows() {
        let hostile = ClosedLoopConfig {
            rto_initial: u64::MAX,
            rto_cap: u64::MAX,
            max_retries: u32::MAX,
            cwnd_init: u64::MAX,
            cwnd_max: u64::MAX,
        };
        assert_eq!(
            hostile.out_of_range(),
            Some(("rto_initial", MAX_RTO_SLOTS, u64::MAX))
        );
        let clamped = hostile.normalized();
        assert_eq!(clamped.out_of_range(), None);
        assert_eq!(
            (clamped.rto_cap, clamped.cwnd_max),
            (MAX_RTO_SLOTS, MAX_CWND_CELLS)
        );
        assert_eq!(cfg().out_of_range(), None);

        let mut s = ClosedLoopSource::new(1, 4, DemandPattern::Sweep, hostile);
        let mut acks = VecDeque::new();
        for slot in 0..1_000u64 {
            while acks.front().is_some_and(|&(at, _, _)| at <= slot) {
                let (_, dest, seq) = acks.pop_front().unwrap();
                s.on_ack(dest, seq, slot);
            }
            s.expire_timers(slot);
            if let Some((dest, seq)) = s.poll(slot, true) {
                if seq % 5 != 0 {
                    acks.push_back((slot + 3, dest, seq));
                }
            }
        }
        assert_eq!(s.injected(), 1_000);
        assert!(s.srtt() > 0 && s.cwnd() == MAX_CWND_CELLS);
        // Past every deadline: the lost cells time out and go out again
        // with a doubled (and capped) RTO.
        let mut slot = 1_000 + 2 * MAX_RTO_SLOTS;
        s.expire_timers(slot);
        assert!(s.timeouts() > 0);
        while s.poll(slot, false).is_some() {
            slot += 1;
        }
        assert_eq!(s.next_action_slot(), Some(1_000 + 3 * MAX_RTO_SLOTS));
    }
}
