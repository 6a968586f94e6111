//! Deterministic, slot-scheduled fault injection for the Clos fabric.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each naming a fault kind,
//! the slot it starts at and an optional duration (omitted = permanent).
//! The plan is pure data: armed into a [`crate::ClosFabric`] via
//! [`crate::ClosFabric::arm_faults`] *before* the run, it makes every fault
//! fire at exactly its scheduled slot whether the slot is stepped or
//! fast-forwarded over, so a faulted run stays bit-identical to the
//! skip-free reference — chaos you can replay.
//!
//! # Fault taxonomy
//!
//! * [`FaultKind::MiddleDeath`] — a middle switch goes dark: it stops
//!   accepting cells from its inbound links, stops arbitrating and stops
//!   transmitting. Its link credits stop returning, so the ingress stage
//!   starves away from it (see the credit-rerouting notes in
//!   [`crate::clos`]); on revival the switch resumes where it froze.
//! * [`FaultKind::LinkFlap`] — one inter-stage link stops delivering:
//!   cells already on the wire (and any pushed while it is down, up to the
//!   credit bound) wait; when the flap ends they pop in order. Stall, never
//!   drop. A flap must have a finite duration — a permanently dark link is
//!   a death, not a flap.
//! * [`FaultKind::EgressSlowdown`] — one external output line degrades to
//!   transmitting at most every `factor` slots, modelling a receiver that
//!   stopped keeping up.
//! * [`FaultKind::IngressPortDeath`] — one external ingress line dies:
//!   cells offered there are refused at the line (counted, never entering
//!   any switch).
//! * [`FaultKind::DropOnFull`] — disables credit flow control fabric-wide
//!   so a cell arriving at a full link FIFO is dropped (and ledgered).
//!   This is PR 7's deliberately-lossy link discipline folded into the
//!   fault framework; it is whole-run (`start = 0`, no duration), because
//!   credit state cannot be meaningfully re-synchronised mid-run.
//!
//! # The fault ledger
//!
//! Every fault's impact is *accounted*: the run report carries a
//! [`FaultLedger`] with one [`FaultImpact`] row per event — cells refused
//! at dead ingress lines, cells dropped at full links, cells stranded in a
//! dead switch's egress FIFOs at end of run, cell-slots spent stalled
//! behind a flap or a dead stage, and transmit opportunities denied by a
//! slowdown. The Clos conservation check consumes the ledger: under any
//! injected fault, arrivals must still equal delivered + resident +
//! stranded + every accounted loss (see
//! [`crate::ClosRunReport::conservation_holds`]).

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

use crate::clos::ClosStage;
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Which inter-stage boundary a link fault sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBoundary {
    /// A link from an ingress switch up to a middle switch.
    IngressMiddle,
    /// A link from a middle switch down to an egress switch.
    MiddleEgress,
}

impl LinkBoundary {
    /// Stable lower-case label for specs and reports.
    pub fn label(self) -> &'static str {
        match self {
            LinkBoundary::IngressMiddle => "ingress-middle",
            LinkBoundary::MiddleEgress => "middle-egress",
        }
    }
}

/// What goes wrong. See the module docs for each fault's exact semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Middle switch `switch` goes dark for the event's window.
    MiddleDeath {
        /// Index of the middle switch, `0 ≤ switch < m`.
        switch: usize,
    },
    /// The link from `switch`'s output `output` across `boundary` stops
    /// delivering for the event's window (which must be finite).
    LinkFlap {
        /// Which stage boundary the link crosses.
        boundary: LinkBoundary,
        /// Upstream switch index (ingress switch for
        /// [`LinkBoundary::IngressMiddle`], middle switch for
        /// [`LinkBoundary::MiddleEgress`]).
        switch: usize,
        /// Upstream output index (= downstream switch index).
        output: usize,
    },
    /// External output line `port` transmits at most every `factor` slots.
    EgressSlowdown {
        /// External output port, `0 ≤ port < r·N`.
        port: usize,
        /// Slowdown factor, `≥ 2` (1 would be a no-op).
        factor: u64,
    },
    /// External ingress line `port` refuses every offered cell.
    IngressPortDeath {
        /// External ingress port, `0 ≤ port < r·N`.
        port: usize,
    },
    /// Credit flow control is disabled fabric-wide; full link FIFOs drop.
    DropOnFull,
}

impl FaultKind {
    /// Stable lower-case label for specs, reports and the ledger.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::MiddleDeath { .. } => "middle-death",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::EgressSlowdown { .. } => "egress-slowdown",
            FaultKind::IngressPortDeath { .. } => "port-death",
            FaultKind::DropOnFull => "drop-on-full",
        }
    }

    /// Human-readable description of what the fault targets.
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "fault labels are built once, for the ledger after the drain"
    )]
    pub fn target(&self) -> String {
        match self {
            FaultKind::MiddleDeath { switch } => format!("middle[{switch}]"),
            FaultKind::LinkFlap {
                boundary,
                switch,
                output,
            } => format!("link {} {switch}:{output}", boundary.label()),
            FaultKind::EgressSlowdown { port, factor } => {
                format!("output port {port} /{factor}")
            }
            FaultKind::IngressPortDeath { port } => format!("ingress port {port}"),
            FaultKind::DropOnFull => "every link".to_owned(),
        }
    }
}

/// One scheduled fault: a kind, the slot it starts at and how long it lasts
/// (`None` = until the end of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First slot the fault is active.
    pub start: u64,
    /// Slots the fault lasts; `None` means it never recovers.
    pub duration: Option<u64>,
}

impl FaultEvent {
    /// A fault active from `start` for `duration` slots.
    pub fn windowed(kind: FaultKind, start: u64, duration: u64) -> Self {
        FaultEvent {
            kind,
            start,
            duration: Some(duration),
        }
    }

    /// A fault active from `start` until the end of the run.
    pub fn permanent(kind: FaultKind, start: u64) -> Self {
        FaultEvent {
            kind,
            start,
            duration: None,
        }
    }

    /// The event's active window.
    pub(crate) fn window(&self) -> Window {
        Window {
            start: self.start,
            end: self
                .duration
                .map_or(u64::MAX, |d| self.start.saturating_add(d)),
        }
    }
}

/// A half-open slot interval `[start, end)`; `end == u64::MAX` = forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Window {
    /// Whether the window covers `slot`.
    #[inline]
    pub(crate) fn contains(self, slot: u64) -> bool {
        self.start <= slot && slot < self.end
    }
}

/// Why a fault plan cannot be armed against a given Clos geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A `MiddleDeath` names a switch `≥ m`.
    BadMiddleSwitch(usize, usize),
    /// A `LinkFlap` names an upstream switch outside its boundary's range.
    BadLinkSwitch(usize, usize),
    /// A `LinkFlap` names an output outside its boundary's range.
    BadLinkOutput(usize, usize),
    /// A `LinkFlap` has no duration; flaps must recover.
    PermanentFlap,
    /// An event names an external port `≥ r·N`.
    BadPort(usize, usize),
    /// An `EgressSlowdown` factor below 2 (1 is a no-op).
    BadFactor(u64),
    /// An event has `duration = Some(0)` (an empty window).
    EmptyWindow,
    /// A `DropOnFull` that is not whole-run (`start = 0`, no duration).
    WindowedDropOnFull,
    /// More than one `DropOnFull` event in the plan.
    DuplicateDropOnFull,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadMiddleSwitch(s, m) => {
                write!(f, "middle-death targets switch {s}, but m = {m}")
            }
            FaultPlanError::BadLinkSwitch(s, n) => {
                write!(
                    f,
                    "link-flap targets upstream switch {s}, but only {n} exist"
                )
            }
            FaultPlanError::BadLinkOutput(o, n) => {
                write!(f, "link-flap targets output {o}, but only {n} are wired")
            }
            FaultPlanError::PermanentFlap => {
                write!(f, "a link flap must have a finite duration")
            }
            FaultPlanError::BadPort(p, ext) => {
                write!(f, "fault targets external port {p}, but only {ext} exist")
            }
            FaultPlanError::BadFactor(factor) => {
                write!(f, "egress-slowdown factor must be >= 2, got {factor}")
            }
            FaultPlanError::EmptyWindow => write!(f, "a fault duration must be >= 1 slot"),
            FaultPlanError::WindowedDropOnFull => {
                write!(f, "drop-on-full is whole-run: start 0, no duration")
            }
            FaultPlanError::DuplicateDropOnFull => {
                write!(f, "at most one drop-on-full event per plan")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic, slot-scheduled list of [`FaultEvent`]s. Serializes as
/// a bare JSON array of events; an empty plan arms nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in plan (= ledger) order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (arms nothing; runs stay byte-identical to fault-free).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan over the given events.
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        FaultPlan {
            events: events.into_iter().collect(),
        }
    }

    /// Whether the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the plan disables credit flow control ([`FaultKind::DropOnFull`]).
    pub fn has_drop_on_full(&self) -> bool {
        self.events.iter().any(|e| e.kind == FaultKind::DropOnFull)
    }

    /// Checks every event against a Clos geometry (`radix` = N,
    /// `ingress_switches` = r, `middle_switches` = m).
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(
        &self,
        radix: usize,
        ingress_switches: usize,
        middle_switches: usize,
    ) -> Result<(), FaultPlanError> {
        let ext = radix * ingress_switches;
        let mut drop_events = 0usize;
        for event in &self.events {
            if event.duration == Some(0) {
                return Err(FaultPlanError::EmptyWindow);
            }
            match event.kind {
                FaultKind::MiddleDeath { switch } => {
                    if switch >= middle_switches {
                        return Err(FaultPlanError::BadMiddleSwitch(switch, middle_switches));
                    }
                }
                FaultKind::LinkFlap {
                    boundary,
                    switch,
                    output,
                } => {
                    if event.duration.is_none() {
                        return Err(FaultPlanError::PermanentFlap);
                    }
                    let (switches, outputs) = match boundary {
                        LinkBoundary::IngressMiddle => (ingress_switches, middle_switches),
                        LinkBoundary::MiddleEgress => (middle_switches, ingress_switches),
                    };
                    if switch >= switches {
                        return Err(FaultPlanError::BadLinkSwitch(switch, switches));
                    }
                    if output >= outputs {
                        return Err(FaultPlanError::BadLinkOutput(output, outputs));
                    }
                }
                FaultKind::EgressSlowdown { port, factor } => {
                    if port >= ext {
                        return Err(FaultPlanError::BadPort(port, ext));
                    }
                    if factor < 2 {
                        return Err(FaultPlanError::BadFactor(factor));
                    }
                }
                FaultKind::IngressPortDeath { port } => {
                    if port >= ext {
                        return Err(FaultPlanError::BadPort(port, ext));
                    }
                }
                FaultKind::DropOnFull => {
                    if event.start != 0 || event.duration.is_some() {
                        return Err(FaultPlanError::WindowedDropOnFull);
                    }
                    drop_events += 1;
                    if drop_events > 1 {
                        return Err(FaultPlanError::DuplicateDropOnFull);
                    }
                }
            }
        }
        Ok(())
    }

    /// Every slot at which some fault turns on or (finitely) off, sorted.
    /// The drain uses these: as long as a transition lies ahead, stuck
    /// cells may still recover, so stepping must continue.
    #[expect(
        clippy::disallowed_methods,
        reason = "computed once, when the plan is armed"
    )]
    pub(crate) fn edges(&self) -> Vec<u64> {
        let mut edges: Vec<u64> = Vec::new();
        for event in &self.events {
            let w = event.window();
            edges.push(w.start);
            if w.end != u64::MAX {
                edges.push(w.end);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The largest egress-slowdown factor in the plan (1 if none), a bound
    /// on how many slots a degraded output may sit between transmissions.
    pub(crate) fn max_slow_factor(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::EgressSlowdown { factor, .. } => Some(factor),
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// Compiles the plan into one stage's runtime fault state (the geometry
    /// was validated first). Link faults land on the *downstream* stage (the
    /// receiver stops popping; credits do the upstream backpressure).
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "the plan compiles once, before slot 0"
    )]
    pub(crate) fn compile(
        &self,
        stage: ClosStage,
        radix: usize,
        ingress_switches: usize,
        middle_switches: usize,
    ) -> StageFaults {
        let r = ingress_switches;
        let mut f = StageFaults {
            drop_event: None,
            dead_switches: Vec::new(),
            dead_paths: Vec::new(),
            dead_inputs: Vec::new(),
            stalled_in: Vec::new(),
            slowed_out: Vec::new(),
            impact: vec![ImpactCounters::default(); self.events.len()],
        };
        for (e, event) in self.events.iter().enumerate() {
            let w = event.window();
            match event.kind {
                FaultKind::MiddleDeath { switch } => match stage {
                    // The ingress stage sees middle deaths as dead *paths*
                    // (dispatch must steer around them); the middle stage
                    // sees them as its own switches going dark.
                    ClosStage::Ingress => f.dead_paths.push((e, switch, w)),
                    ClosStage::Middle => f.dead_switches.push((e, switch, w)),
                    ClosStage::Egress => {}
                },
                FaultKind::LinkFlap {
                    boundary,
                    switch,
                    output,
                } => {
                    // In-link flat index at the receiver, from the link-id
                    // decode in `Stage::apply_fwd`: the link from upstream
                    // switch `s`, output `o` lands at (switch o, input s).
                    match (boundary, stage) {
                        (LinkBoundary::IngressMiddle, ClosStage::Middle) => {
                            f.stalled_in.push((e, output * r + switch, w));
                        }
                        (LinkBoundary::MiddleEgress, ClosStage::Egress) => {
                            f.stalled_in.push((e, output * radix + switch, w));
                        }
                        _ => {}
                    }
                }
                FaultKind::EgressSlowdown { port, factor } => {
                    if stage == ClosStage::Egress {
                        // External port p is output p % N of egress switch
                        // p / N, so its flat (switch, output) index is p.
                        f.slowed_out.push((e, port, factor, w));
                    }
                }
                FaultKind::IngressPortDeath { port } => {
                    if stage == ClosStage::Ingress {
                        f.dead_inputs.push((e, port, w));
                    }
                }
                FaultKind::DropOnFull => {
                    let _ = middle_switches;
                    f.drop_event = Some(e);
                }
            }
        }
        f
    }

    /// Renders the plan as pretty JSON (an array of event objects).
    #[expect(clippy::expect_used, reason = "serialisation, outside the slot loop")]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a fault plan always serializes")
    }
}

/// One event's accumulated impact counters (one set per stage, merged into
/// the ledger at report time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ImpactCounters {
    /// Cells refused at a dead external ingress line.
    pub(crate) refused_cells: u64,
    /// Cells dropped at a full link FIFO (`DropOnFull` only).
    pub(crate) dropped_cells: u64,
    /// Cells stuck in a dead switch's egress FIFOs at end of run.
    pub(crate) stranded_cells: u64,
    /// Cell-slots spent ready-but-held on a flapped link or on a dead
    /// switch's inbound links (overlapping events each count their own).
    pub(crate) stalled_cell_slots: u64,
    /// Slots a slowed output sat gated with cells queued behind it.
    pub(crate) slowed_slots: u64,
}

impl ImpactCounters {
    pub(crate) fn merge(&mut self, other: &ImpactCounters) {
        self.refused_cells += other.refused_cells;
        self.dropped_cells += other.dropped_cells;
        self.stranded_cells += other.stranded_cells;
        self.stalled_cell_slots += other.stalled_cell_slots;
        self.slowed_slots += other.slowed_slots;
    }
}

/// One stage's compiled runtime fault state. Tiny scan-per-slot vectors —
/// plans hold a handful of events, and a stage with no armed plan carries
/// `None` instead, so the fault-free hot path pays nothing.
#[derive(Debug)]
pub(crate) struct StageFaults {
    /// Index of the plan's `DropOnFull` event, if any (whole-run).
    pub(crate) drop_event: Option<usize>,
    /// `(event, switch)` — this stage's switch is dark during the window.
    pub(crate) dead_switches: Vec<(usize, usize, Window)>,
    /// Ingress only: `(event, middle)` — dispatch must avoid the path.
    pub(crate) dead_paths: Vec<(usize, usize, Window)>,
    /// Ingress only: `(event, external port)` — the line refuses cells.
    pub(crate) dead_inputs: Vec<(usize, usize, Window)>,
    /// `(event, in-link flat index)` — the inbound link stops delivering.
    pub(crate) stalled_in: Vec<(usize, usize, Window)>,
    /// Egress only: `(event, out flat index, factor)` — output slowed.
    pub(crate) slowed_out: Vec<(usize, usize, u64, Window)>,
    /// Per-plan-event counters (this stage's contributions only).
    pub(crate) impact: Vec<ImpactCounters>,
}

impl StageFaults {
    /// Whether this stage's switch `s` is dark at `slot`.
    #[inline]
    pub(crate) fn switch_dead(&self, s: usize, slot: u64) -> bool {
        self.dead_switches
            .iter()
            .any(|&(_, sw, w)| sw == s && w.contains(slot))
    }

    /// Whether middle switch `p` is an unusable dispatch target at `slot`.
    #[inline]
    pub(crate) fn path_dead(&self, p: usize, slot: u64) -> bool {
        self.dead_paths
            .iter()
            .any(|&(_, sw, w)| sw == p && w.contains(slot))
    }

    /// Whether any dispatch path is dead at `slot` (switches the ingress
    /// spray into its credit-occupancy-aware mode).
    #[inline]
    pub(crate) fn reroutes_paths(&self, slot: u64) -> bool {
        self.dead_paths.iter().any(|&(_, _, w)| w.contains(slot))
    }

    /// The event refusing cells at external ingress `port` at `slot`.
    #[inline]
    pub(crate) fn dead_input_event(&self, port: usize, slot: u64) -> Option<usize> {
        self.dead_inputs
            .iter()
            .find(|&&(_, p, w)| p == port && w.contains(slot))
            .map(|&(e, _, _)| e)
    }

    /// Whether inbound link `li` is flap-stalled at `slot`.
    #[inline]
    pub(crate) fn in_stalled(&self, li: usize, slot: u64) -> bool {
        self.stalled_in
            .iter()
            .any(|&(_, l, w)| l == li && w.contains(slot))
    }

    /// Whether any fault gates this stage's switch `s`'s outputs at `slot`
    /// (an active egress slowdown on one of its output lines).
    #[inline]
    pub(crate) fn gates_switch(&self, s: usize, radix: usize, slot: u64) -> bool {
        self.slowed_out
            .iter()
            .any(|&(_, idx, _, w)| idx / radix == s && w.contains(slot))
    }
}

/// One fault's accounted impact, as reported in the [`FaultLedger`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultImpact {
    /// Index of the event in the plan (= ledger order).
    pub index: usize,
    /// Fault kind label (`"middle-death"`, `"link-flap"`, ...).
    pub fault: &'static str,
    /// Human-readable target (`"middle[2]"`, `"ingress port 7"`, ...).
    pub target: String,
    /// First slot the fault was active.
    pub start: u64,
    /// Slots the fault lasted; `None` = permanent.
    pub duration: Option<u64>,
    /// Cells refused at a dead external ingress line (accounted loss).
    pub refused_cells: u64,
    /// Cells dropped at full link FIFOs (accounted loss).
    pub dropped_cells: u64,
    /// Cells stuck in a dead switch's egress FIFOs when the run ended
    /// (not lost — recoverable on repair — but out of circulation).
    pub stranded_cells: u64,
    /// Cell-slots spent ready-but-held behind this fault (added latency).
    pub stalled_cell_slots: u64,
    /// Slots the degraded output sat gated with cells queued behind it
    /// (the degraded-throughput window, as observed).
    pub slowed_slots: u64,
}

/// The per-fault accounting attached to a faulted run's report: one
/// [`FaultImpact`] per plan event plus fabric-wide totals. The conservation
/// check balances against these totals — see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultLedger {
    /// Total cells refused at dead external ingress lines.
    pub refused_cells: u64,
    /// Total cells dropped at full link FIFOs.
    pub dropped_cells: u64,
    /// Total cells stranded in dead switches' egress FIFOs at end of run.
    pub stranded_cells: u64,
    /// Total cell-slots spent ready-but-held behind faults.
    pub stalled_cell_slots: u64,
    /// Total gated-with-backlog slots across slowed outputs.
    pub slowed_slots: u64,
    /// Per-event impact, in plan order.
    pub events: Vec<FaultImpact>,
}

impl FaultLedger {
    /// Builds the ledger from the plan's events and the merged per-event
    /// counters.
    #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
    pub(crate) fn from_events(events: &[FaultEvent], merged: &[ImpactCounters]) -> Self {
        let rows: Vec<FaultImpact> = events
            .iter()
            .zip(merged)
            .enumerate()
            .map(|(index, (event, c))| FaultImpact {
                index,
                fault: event.kind.label(),
                target: event.kind.target(),
                start: event.start,
                duration: event.duration,
                refused_cells: c.refused_cells,
                dropped_cells: c.dropped_cells,
                stranded_cells: c.stranded_cells,
                stalled_cell_slots: c.stalled_cell_slots,
                slowed_slots: c.slowed_slots,
            })
            .collect();
        FaultLedger {
            refused_cells: rows.iter().map(|r| r.refused_cells).sum(),
            dropped_cells: rows.iter().map(|r| r.dropped_cells).sum(),
            stranded_cells: rows.iter().map(|r| r.stranded_cells).sum(),
            stalled_cell_slots: rows.iter().map(|r| r.stalled_cell_slots).sum(),
            slowed_slots: rows.iter().map(|r| r.slowed_slots).sum(),
            events: rows,
        }
    }
}

// Hand-written (the derive has no flattened, internally tagged enums): an
// event is a flat object whose "fault" label picks the variant and with it
// the keys that must be present. Unknown fields are rejected.
impl Serialize for FaultEvent {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("FaultEvent", 6)?;
        st.serialize_field("fault", &self.kind.label())?;
        match &self.kind {
            FaultKind::MiddleDeath { switch } => {
                st.serialize_field("switch", switch)?;
            }
            FaultKind::LinkFlap {
                boundary,
                switch,
                output,
            } => {
                st.serialize_field("boundary", &boundary.label())?;
                st.serialize_field("switch", switch)?;
                st.serialize_field("output", output)?;
            }
            FaultKind::EgressSlowdown { port, factor } => {
                st.serialize_field("port", port)?;
                st.serialize_field("factor", factor)?;
            }
            FaultKind::IngressPortDeath { port } => {
                st.serialize_field("port", port)?;
            }
            FaultKind::DropOnFull => {}
        }
        st.serialize_field("start", &self.start)?;
        if let Some(duration) = &self.duration {
            st.serialize_field("duration", duration)?;
        }
        st.end()
    }
}

impl<'de> Deserialize<'de> for FaultEvent {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = FaultEvent;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a fault-event object with a \"fault\" label")
            }
            fn visit_map<A: de::MapAccess<'de>>(self, mut map: A) -> Result<FaultEvent, A::Error> {
                let mut fault: Option<String> = None;
                let mut boundary: Option<String> = None;
                let mut switch: Option<usize> = None;
                let mut output: Option<usize> = None;
                let mut port: Option<usize> = None;
                let mut factor: Option<u64> = None;
                let mut start = 0u64;
                let mut duration: Option<u64> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "fault" => fault = Some(map.next_value()?),
                        "boundary" => boundary = Some(map.next_value()?),
                        "switch" => switch = Some(map.next_value()?),
                        "output" => output = Some(map.next_value()?),
                        "port" => port = Some(map.next_value()?),
                        "factor" => factor = Some(map.next_value()?),
                        "start" => start = map.next_value()?,
                        "duration" => duration = Some(map.next_value()?),
                        other => {
                            return Err(de::Error::custom(format_args!(
                                "unknown fault-event field {other:?}"
                            )))
                        }
                    }
                }
                let fault = fault.ok_or_else(|| de::Error::custom("missing field \"fault\""))?;
                let need = |field: &'static str, value: Option<usize>| {
                    value.ok_or_else(|| {
                        de::Error::custom(format_args!("{fault:?} needs field {field:?}"))
                    })
                };
                let kind = match fault.as_str() {
                    "middle-death" => FaultKind::MiddleDeath {
                        switch: need("switch", switch)?,
                    },
                    "link-flap" => {
                        let boundary = match boundary.as_deref() {
                            Some("ingress-middle") => LinkBoundary::IngressMiddle,
                            Some("middle-egress") => LinkBoundary::MiddleEgress,
                            Some(other) => {
                                return Err(de::Error::custom(format_args!(
                                    "unknown link boundary {other:?}"
                                )))
                            }
                            None => {
                                return Err(de::Error::custom(
                                    "\"link-flap\" needs field \"boundary\"",
                                ))
                            }
                        };
                        FaultKind::LinkFlap {
                            boundary,
                            switch: need("switch", switch)?,
                            output: need("output", output)?,
                        }
                    }
                    "egress-slowdown" => FaultKind::EgressSlowdown {
                        port: need("port", port)?,
                        factor: factor.ok_or_else(|| {
                            de::Error::custom("\"egress-slowdown\" needs field \"factor\"")
                        })?,
                    },
                    "port-death" => FaultKind::IngressPortDeath {
                        port: need("port", port)?,
                    },
                    "drop-on-full" => FaultKind::DropOnFull,
                    other => {
                        return Err(de::Error::custom(format_args!(
                            "unknown fault kind {other:?}"
                        )))
                    }
                };
                Ok(FaultEvent {
                    kind,
                    start,
                    duration,
                })
            }
        }
        deserializer.deserialize_any(V)
    }
}

// Hand-written (the derive writes a named-field struct as a map): a plan is
// the bare array of its events.
impl Serialize for FaultPlan {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.events.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for FaultPlan {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(FaultPlan {
            events: Vec::<FaultEvent>::deserialize(deserializer)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new([
            FaultEvent::permanent(FaultKind::MiddleDeath { switch: 1 }, 500),
            FaultEvent::windowed(
                FaultKind::LinkFlap {
                    boundary: LinkBoundary::IngressMiddle,
                    switch: 0,
                    output: 2,
                },
                200,
                150,
            ),
            FaultEvent::windowed(FaultKind::EgressSlowdown { port: 3, factor: 4 }, 100, 900),
            FaultEvent::permanent(FaultKind::IngressPortDeath { port: 7 }, 1_000),
        ])
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), json);
        // The empty plan is a bare empty array.
        let empty: FaultPlan = serde_json::from_str("[]").unwrap();
        assert!(empty.is_empty());
        // Unknown kinds and fields are rejected.
        assert!(serde_json::from_str::<FaultPlan>("[{\"fault\": \"gremlin\"}]").is_err());
        assert!(
            serde_json::from_str::<FaultPlan>("[{\"fault\": \"drop-on-full\", \"x\": 1}]").is_err()
        );
        // Kind-specific fields are required.
        assert!(serde_json::from_str::<FaultPlan>("[{\"fault\": \"middle-death\"}]").is_err());
        assert!(serde_json::from_str::<FaultPlan>(
            "[{\"fault\": \"link-flap\", \"switch\": 0, \"output\": 1, \"duration\": 5}]"
        )
        .is_err());
    }

    #[test]
    fn validation_checks_geometry_and_windows() {
        let plan = sample_plan();
        assert!(plan.validate(3, 3, 3).is_ok());
        // middle-death switch 1 needs m >= 2.
        assert_eq!(
            plan.validate(3, 3, 1),
            Err(FaultPlanError::BadMiddleSwitch(1, 1))
        );
        // link-flap output 2 targets middle switch 2: needs m >= 3... but
        // the death check fires first only for smaller m; isolate it.
        let flap = FaultPlan::new([FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::MiddleEgress,
                switch: 1,
                output: 5,
            },
            0,
            10,
        )]);
        assert_eq!(
            flap.validate(3, 3, 2),
            Err(FaultPlanError::BadLinkOutput(5, 3))
        );
        let permanent_flap = FaultPlan::new([FaultEvent::permanent(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::IngressMiddle,
                switch: 0,
                output: 0,
            },
            10,
        )]);
        assert_eq!(
            permanent_flap.validate(3, 3, 2),
            Err(FaultPlanError::PermanentFlap)
        );
        let empty_window = FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 0 },
            5,
            0,
        )]);
        assert_eq!(
            empty_window.validate(3, 3, 2),
            Err(FaultPlanError::EmptyWindow)
        );
        let slow = FaultPlan::new([FaultEvent::permanent(
            FaultKind::EgressSlowdown { port: 0, factor: 1 },
            0,
        )]);
        assert_eq!(slow.validate(3, 3, 2), Err(FaultPlanError::BadFactor(1)));
        let late_drop = FaultPlan::new([FaultEvent::permanent(FaultKind::DropOnFull, 5)]);
        assert_eq!(
            late_drop.validate(3, 3, 2),
            Err(FaultPlanError::WindowedDropOnFull)
        );
        let twice = FaultPlan::new([
            FaultEvent::permanent(FaultKind::DropOnFull, 0),
            FaultEvent::permanent(FaultKind::DropOnFull, 0),
        ]);
        assert_eq!(
            twice.validate(3, 3, 2),
            Err(FaultPlanError::DuplicateDropOnFull)
        );
        let bad_port = FaultPlan::new([FaultEvent::permanent(
            FaultKind::IngressPortDeath { port: 9 },
            0,
        )]);
        assert_eq!(
            bad_port.validate(3, 3, 2),
            Err(FaultPlanError::BadPort(9, 9))
        );
    }

    #[test]
    fn windows_and_edges_are_half_open() {
        let event = FaultEvent::windowed(FaultKind::MiddleDeath { switch: 0 }, 10, 5);
        let w = event.window();
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(14));
        assert!(!w.contains(15));
        let forever = FaultEvent::permanent(FaultKind::MiddleDeath { switch: 0 }, 3).window();
        assert!(forever.contains(u64::MAX - 1));
        let plan = sample_plan();
        assert_eq!(plan.edges(), vec![100, 200, 350, 500, 1_000]);
        assert_eq!(plan.max_slow_factor(), 4);
    }

    #[test]
    fn compile_places_faults_on_the_right_stages() {
        let plan = sample_plan();
        let (n, r, m) = (3, 3, 3);
        let ingress = plan.compile(ClosStage::Ingress, n, r, m);
        let middle = plan.compile(ClosStage::Middle, r, r, m);
        let egress = plan.compile(ClosStage::Egress, n, r, m);
        assert_eq!(ingress.dead_paths.len(), 1);
        assert_eq!(ingress.dead_inputs.len(), 1);
        assert!(ingress.dead_switches.is_empty());
        assert_eq!(middle.dead_switches.len(), 1);
        // Flap ingress-middle switch 0 output 2 → middle switch 2, input 0
        // → flat in-link index 2·r + 0.
        assert_eq!(middle.stalled_in, vec![(1, 2 * r, plan.events[1].window())]);
        assert!(middle.slowed_out.is_empty());
        // Slowdown on external port 3 → egress switch 1, output 0 → flat 3.
        assert_eq!(egress.slowed_out.len(), 1);
        assert_eq!(egress.slowed_out[0].1, 3);
        assert!(egress.gates_switch(1, n, 150));
        assert!(!egress.gates_switch(0, n, 150));
        assert!(!egress.gates_switch(1, n, 1_500));
        assert!(middle.switch_dead(1, 700));
        assert!(!middle.switch_dead(1, 400));
        assert!(ingress.path_dead(1, 700));
        assert!(ingress.reroutes_paths(700));
        assert!(!ingress.reroutes_paths(400));
        assert_eq!(ingress.dead_input_event(7, 1_200), Some(3));
        assert_eq!(ingress.dead_input_event(7, 900), None);
        assert!(middle.in_stalled(2 * r, 300));
        assert!(!middle.in_stalled(2 * r, 360));
    }

    #[test]
    fn ledger_merges_and_totals_per_event_counters() {
        let plan = sample_plan();
        let mut a = vec![ImpactCounters::default(); plan.events.len()];
        let mut b = vec![ImpactCounters::default(); plan.events.len()];
        a[0].stalled_cell_slots = 7;
        a[0].stranded_cells = 2;
        b[1].stalled_cell_slots = 5;
        b[3].refused_cells = 11;
        for (x, y) in a.iter_mut().zip(&b) {
            x.merge(y);
        }
        let ledger = FaultLedger::from_events(&plan.events, &a);
        assert_eq!(ledger.events.len(), 4);
        assert_eq!(ledger.events[0].fault, "middle-death");
        assert_eq!(ledger.events[0].target, "middle[1]");
        assert_eq!(ledger.events[0].stranded_cells, 2);
        assert_eq!(ledger.stalled_cell_slots, 12);
        assert_eq!(ledger.refused_cells, 11);
        assert_eq!(ledger.stranded_cells, 2);
    }
}
