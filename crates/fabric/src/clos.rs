//! A three-stage folded Clos of [`VoqSwitch`]es: multi-chassis scale-out.
//!
//! One crossbar stops at its radix. This module composes `r` ingress
//! switches (radix `N`), `m` middle switches (radix `r`) and `r` egress
//! switches (radix `N`) into a single router with `r·N` external ports —
//! the canonical scale-out topology: every ingress switch has one link to
//! every middle switch, every middle switch one link to every egress switch,
//! and with `m ≥ N` the fabric is rearrangeably non-blocking.
//! [`ClosConfig::validate`] is the one check of this geometry and of the
//! link provisioning below; [`ClosFabric::new`] panics with its message.
//!
//! # Inter-stage links and credit flow control
//!
//! Each inter-stage link is a bounded FIFO of `link_capacity` cells with a
//! propagation latency of `link_latency` slots in **both** directions: a
//! cell transmitted at slot `t` becomes visible to the downstream switch at
//! `t + L`, and the credit returned when the downstream switch accepts it
//! becomes visible upstream at `acceptance + L`. An upstream output is
//! *gated out of arbitration* while its link has no credit, so a full link
//! propagates backpressure into the upstream VOQs and **no cell is ever
//! dropped between stages** — fabric-wide conservation is checked by
//! [`ClosRunReport::conservation_holds`]. A link shorter than its
//! round-trip (`link_capacity < 2·link_latency`) merely throttles. The
//! deliberately lossy alternative — discard a cell arriving at a full FIFO
//! — is a fault, not a configuration: arm a
//! [`crate::faults::FaultKind::DropOnFull`] plan entry via
//! [`ClosFabric::arm_faults`].
//!
//! # Fault injection
//!
//! A [`crate::faults::FaultPlan`] armed before the run injects
//! deterministic, slot-scheduled failures — middle-switch death/revival,
//! inter-stage link flaps, egress slowdown, ingress port death — without
//! touching the fault-free hot path (an unarmed stage carries no fault
//! state at all). Dead middle switches are routed around through the
//! credit machinery: a dead stage returns no credits, so spray dispatch
//! starves away from it, and while any death window is active the spray
//! becomes credit-occupancy-aware (it skips dead paths outright and picks
//! the least-committed live path) so flows never target a dead middle and
//! reordering stays bounded. Flapped links stall and recover without
//! loss. Every fault's impact is accounted in the report's
//! [`crate::faults::FaultLedger`]; see [`crate::faults`] for the taxonomy
//! and the degraded-mode conservation definition.
//!
//! # Per-hop sequencing and flow tags
//!
//! The packet buffers verify per-VOQ FIFO delivery internally (contiguous
//! sequence numbers from 0), so a cell is re-sequenced at every hop: each
//! (switch, input, VOQ) keeps a hop-local sequence counter, and the flow
//! identity — external source, destination, flow sequence — rides beside
//! the buffer in a sidecar FIFO per (input, VOQ), advanced by the
//! [`StageSink`] callbacks in exactly the order the buffer grants (which
//! the buffers' own delivery verifier pins to FIFO order).
//!
//! # Dispatch and reordering
//!
//! [`DispatchPolicy::Spray`] round-robins each external port's cells over
//! the middle switches — perfect load balance, but two cells of one flow
//! can race over different middle switches and arrive reordered; the report
//! counts exactly how many. [`DispatchPolicy::FlowHash`] pins each
//! (source, destination) flow to one middle switch — zero reordering by
//! construction (pinned by tests), at the cost of hash-collision hotspots.
//!
//! # Execution
//!
//! One slot-loop driver runs every schedule. Each slot it asks a *line
//! source* for the cells entering on the external lines, steps the three
//! stages in order, then applies the slot's link batches. There are two
//! sources. Open-loop [`ArrivalGenerator`]s ([`ClosFabric::run`]) are
//! filled a chunk at a time, and a chunk with no arrival anywhere is
//! fast-forwarded when the fabric is provably idle too. Closed-loop
//! [`ClosedLoopSource`]s ([`ClosFabric::run_transport`]) take their acks,
//! fire their timers and are polled once per port per slot. Both end in the
//! same drain loop; a closed-loop source first holds it open until every
//! source is quiet, jumping idle gaps to the next retransmission timer.
//!
//! All link events carry slot stamps (a cell is visible when `ready ≤ t`,
//! a credit when `avail ≤ t`), and every stage steps slot `t` **before** any
//! slot-`t` batch is applied. With `link_latency ≥ 1` nothing produced at
//! `t` is consumable before `t+1` either way, but `peak_link_depth` and the
//! `DropOnFull` full-check read the *physical* FIFO occupancy, and applying
//! after all three steps makes that the same for every stage: each push
//! lands after the same slot's pops. A fast-forwarded slot provably equals a
//! stepped one, so [`ClosFabric::run`] is bit-identical to the skip-free
//! [`ClosFabric::run_reference`] twin (differential tests pin it).
//! Everything runs on the caller's thread; the only parallelism is across
//! runs (`sim`'s `LabRunner`).

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

use crate::faults::{FaultKind, FaultLedger, FaultPlan, ImpactCounters, LinkBoundary, StageFaults};
use crate::report::{FabricRunReport, HistogramReport};
use crate::switch::{FabricConfig, FabricConfigError, StageSink, VoqSwitch, FABRIC_CHUNK_SLOTS};
use crate::transport::{SinkState, TransportConfig, TransportReport};
use crate::ArbiterKind;
use obs::{
    merge_events, EventKind, FlightRecorder, Log2Histogram, ObsConfig, SeriesRing, TraceEvent,
};
use pktbuf::PacketBuffer;
use pktbuf_model::{Cell, LogicalQueueId};
use serde::{Serialize, Serializer};
use std::collections::VecDeque;
use traffic::{ArrivalGenerator, ClosedLoopSource, MatrixTrace};

/// How the ingress stage spreads cells over the middle switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Round-robin spraying per external port: perfect balance, may reorder
    /// a flow's cells (two cells race over different middle switches).
    Spray,
    /// Flow-hash pinning: every (source, destination) pair sticks to one
    /// middle switch — zero reordering, hash-collision hotspots possible.
    FlowHash,
    /// Credit-occupancy-aware spray, always on: each cell goes to the
    /// least-committed live middle path (queued VOQ cells, plus a full-link
    /// penalty when the path's credits are exhausted), scanning from the
    /// round-robin pointer so ties keep [`DispatchPolicy::Spray`]'s fair
    /// cadence. This is the adaptive policy PR 8 used only inside
    /// middle-death fault windows, promoted to a steady-state option.
    OccupancySpray,
}

impl DispatchPolicy {
    /// Stable lower-case label for reports and specs.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::Spray => "spray",
            DispatchPolicy::FlowHash => "flowhash",
            DispatchPolicy::OccupancySpray => "occupancy-spray",
        }
    }
}

/// Which stage of the Clos a switch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosStage {
    /// External-facing input stage (`r` switches of radix `N`).
    Ingress,
    /// Load-balancing middle stage (`m` switches of radix `r`).
    Middle,
    /// External-facing output stage (`r` switches of radix `N`).
    Egress,
}

impl ClosStage {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ClosStage::Ingress => "ingress",
            ClosStage::Middle => "middle",
            ClosStage::Egress => "egress",
        }
    }
}

/// Largest `link_capacity` a Clos accepts: a link's credits are counted in
/// a `u32`, so a larger capacity would wrap to a smaller one (2^32 to zero
/// credits, a link that never sends).
pub const MAX_LINK_CAPACITY: usize = u32::MAX as usize;

/// Largest `link_latency` a Clos accepts, 2^32 slots. A cell or credit sent
/// at `slot` lands at `slot + link_latency`, and the drain waits up to
/// `2·link_latency` slots past its flush before it declares a stall. With
/// the latency at most 2^32 the first cannot wrap before the slot clock
/// passes 2^64 − 2^32 and the second is at most 2^33 plus the flush; an
/// unbounded latency wraps both.
pub const MAX_LINK_LATENCY: u64 = 1 << 32;

/// Static configuration of a three-stage Clos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosConfig {
    /// Radix `N` of each ingress/egress switch (external ports per switch).
    pub radix: usize,
    /// Number `r` of ingress (= egress) switches; external ports = `r·N`.
    pub ingress_switches: usize,
    /// Number `m` of middle switches (`1 ≤ m ≤ N`); `m = N` is
    /// rearrangeably non-blocking.
    pub middle_switches: usize,
    /// Ingress load-balancing policy.
    pub dispatch: DispatchPolicy,
    /// Cells each inter-stage link FIFO holds (= credits per link), 1 to
    /// [`MAX_LINK_CAPACITY`].
    pub link_capacity: usize,
    /// One-way link propagation latency in slots (`0` is treated as `1`), at
    /// most [`MAX_LINK_LATENCY`].
    pub link_latency: u64,
    /// Slots per transmitted cell at each *external* output line.
    pub egress_period: u64,
    /// Crossbar arbiter used by every switch of every stage.
    pub arbiter: ArbiterKind,
}

impl ClosConfig {
    /// A credit-flow-controlled spraying Clos of `ingress_switches` ingress
    /// and egress switches of radix `radix` with `middle_switches` middle
    /// switches, full-line-rate outputs and iSLIP arbitration.
    pub fn new(radix: usize, ingress_switches: usize, middle_switches: usize) -> Self {
        ClosConfig {
            radix,
            ingress_switches,
            middle_switches,
            dispatch: DispatchPolicy::Spray,
            link_capacity: 8,
            link_latency: 1,
            egress_period: 1,
            arbiter: ArbiterKind::Islip { iterations: 0 },
        }
    }

    /// External (line-side) port count: `r·N`.
    pub fn external_ports(&self) -> usize {
        self.ingress_switches * self.radix
    }

    /// Checks that a Clos of this geometry and link provisioning can be
    /// built.
    ///
    /// # Errors
    ///
    /// Returns [`ClosConfigError`] when an ingress/egress switch (`N`
    /// ports) or a middle switch (`r` ports) fails
    /// [`FabricConfig::validate`], `m` is outside `1..=N`, `link_capacity`
    /// is 0 or above [`MAX_LINK_CAPACITY`], or `link_latency` is above
    /// [`MAX_LINK_LATENCY`].
    pub fn validate(&self) -> Result<(), ClosConfigError> {
        let stages = [
            (ClosStage::Ingress, self.radix),
            (ClosStage::Middle, self.ingress_switches),
        ];
        for (stage, ports) in stages {
            FabricConfig::new(ports)
                .validate()
                .map_err(|e| ClosConfigError::Switch(stage, e))?;
        }
        let (m, n) = (self.middle_switches, self.radix);
        if !(1..=n).contains(&m) {
            return Err(ClosConfigError::MiddleOutOfRange(m, n));
        }
        if self.link_capacity == 0 {
            return Err(ClosConfigError::NoLinkCredit);
        }
        let links = [
            (
                "link_capacity",
                MAX_LINK_CAPACITY as u64,
                self.link_capacity as u64,
            ),
            ("link_latency", MAX_LINK_LATENCY, self.link_latency),
        ];
        match links.into_iter().find(|&(_, bound, value)| value > bound) {
            Some((field, bound, value)) => {
                Err(ClosConfigError::LinkOutOfRange(field, bound, value))
            }
            None => Ok(()),
        }
    }
}

/// Why a [`ClosConfig`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosConfigError {
    /// A stage's switches are invalid crossbars: the ingress/egress
    /// switches have `N` ports ([`ClosStage::Ingress`] here), the middle
    /// ones `r` ([`ClosStage::Middle`]).
    Switch(ClosStage, FabricConfigError),
    /// The middle stage must satisfy `1 ≤ m ≤ N`: `m`, then `N`.
    MiddleOutOfRange(usize, usize),
    /// Inter-stage links need at least one credit.
    NoLinkCredit,
    /// A link field is above its bound ([`MAX_LINK_CAPACITY`] or
    /// [`MAX_LINK_LATENCY`]): the field, the bound, the value.
    LinkOutOfRange(&'static str, u64, u64),
}

impl std::fmt::Display for ClosConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosConfigError::Switch(ClosStage::Middle, e) => {
                write!(
                    f,
                    "the ingress switch count r sizes the middle switches: {e}"
                )
            }
            ClosConfigError::Switch(_, e) => {
                write!(f, "the radix N sizes the ingress and egress switches: {e}")
            }
            ClosConfigError::MiddleOutOfRange(m, n) => {
                write!(
                    f,
                    "middle switches must satisfy 1 <= m <= N, got m={m}, N={n}"
                )
            }
            ClosConfigError::NoLinkCredit => {
                f.write_str("inter-stage links need at least one credit, got 0")
            }
            ClosConfigError::LinkOutOfRange(field, bound, value) => write!(
                f,
                "{field} must be at most {bound}, got {value} (a larger value overflows the \
                 link's credit or slot arithmetic)"
            ),
        }
    }
}

impl std::error::Error for ClosConfigError {}

/// Flow identity riding beside the buffers: minted once at the external
/// ingress line, preserved hop to hop while the cell itself is re-sequenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowTag {
    /// External source port (`ingress switch · N + port`).
    src: u32,
    /// External destination port.
    dest: u32,
    /// Per-(src, dest) flow sequence number, assigned at injection.
    seq: u64,
}

/// One cell in flight on an inter-stage link.
#[derive(Debug)]
struct LinkCell {
    /// First slot at which the downstream switch may accept the cell.
    ready: u64,
    cell: Cell,
    tag: FlowTag,
}

/// One slot's cells crossing one stage boundary (upstream → downstream).
/// `link` is the producer-side link id: `upstream_switch · radix + output`.
#[derive(Debug, Default)]
struct FwdBatch {
    slot: u64,
    cells: Vec<(u32, Cell, FlowTag)>,
}

/// One slot's credit returns crossing one stage boundary (downstream →
/// upstream), as producer-side link ids. When the reliable transport is
/// enabled the egress stage piggybacks its acks here — the ack back-channel
/// reuses the existing credit-return path, hop by hop.
#[derive(Debug, Default)]
struct CreditBatch {
    slot: u64,
    links: Vec<u32>,
    acks: Vec<FlowTag>,
}

/// SplitMix64-style avalanche of a (src, dest) flow onto a middle switch.
#[inline]
fn flow_hash(src: u32, dest: u32) -> u64 {
    let mut x = (u64::from(src) << 32) | u64::from(dest);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Delivery-side accounting owned by the egress stage: the per-flow
/// delivered matrix and the reordering tracker.
#[derive(Debug)]
struct Delivery {
    ext_ports: usize,
    /// Row-major `ext × ext`: cells delivered from external src to dest.
    delivered_matrix: Vec<u64>,
    /// Per flow: highest delivered flow sequence + 1 (0 = none yet).
    highest_plus1: Vec<u64>,
    /// Per flow: whether any cell of this flow arrived out of order.
    flow_reordered: Vec<bool>,
    reordered_cells: u64,
    /// Transport sink state (dedup + goodput); `None` unless the reliable
    /// transport is enabled, so the open-loop path carries nothing.
    transport: Option<SinkState>,
}

impl Delivery {
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    fn new(ext_ports: usize) -> Self {
        Delivery {
            ext_ports,
            delivered_matrix: vec![0; ext_ports * ext_ports],
            highest_plus1: vec![0; ext_ports * ext_ports],
            flow_reordered: vec![false; ext_ports * ext_ports],
            reordered_cells: 0,
            transport: None,
        }
    }

    /// Records one cell leaving the fabric on its external output line.
    #[inline]
    fn deliver(&mut self, tag: FlowTag, slot: u64) {
        let flow = tag.src as usize * self.ext_ports + tag.dest as usize;
        self.delivered_matrix[flow] += 1;
        // `highest_plus1` stores max-delivered-seq + 1; a cell at or below
        // the running max overtook a later-injected cell somewhere.
        if tag.seq < self.highest_plus1[flow] {
            self.reordered_cells += 1;
            self.flow_reordered[flow] = true;
        } else {
            self.highest_plus1[flow] = tag.seq + 1;
        }
        if let Some(sink) = self.transport.as_mut() {
            sink.deliver(tag.src, tag.dest, tag.seq, slot);
        }
    }
}

/// Per-stage observability probes: `None` on every stage unless
/// [`ClosFabric::arm_obs`] installed them, so the uninstrumented hot path
/// carries no state at all — the same zero-overhead-off discipline the
/// fault and transport layers follow. Every probe is single-writer (owned
/// by the stage that records into it) and clocked by slot time only, so
/// an instrumented run stays bit-identical to its skip-free reference.
#[derive(Debug)]
struct StageObs {
    /// Chrome-trace stage id: 0 = ingress, 1 = middle, 2 = egress.
    stage_no: u8,
    /// VOQ backlog depth, recorded after every sidecar enqueue.
    voq_backlog: Option<Log2Histogram>,
    /// Outbound link occupancy (`capacity − credits`), recorded at every
    /// transmit onto a link; never armed at the egress (no out links).
    link_occupancy: Option<Log2Histogram>,
    /// Slot-sampled throughput/occupancy/stall time-series.
    series: Option<SeriesRing>,
    /// Cell-lifecycle flight recorder.
    recorder: Option<FlightRecorder>,
}

impl StageObs {
    fn new(config: &ObsConfig, stage: ClosStage) -> Self {
        let has_out_links = stage != ClosStage::Egress;
        StageObs {
            stage_no: match stage {
                ClosStage::Ingress => 0,
                ClosStage::Middle => 1,
                ClosStage::Egress => 2,
            },
            voq_backlog: config.occupancy_hist.then(Log2Histogram::new),
            link_occupancy: (config.occupancy_hist && has_out_links).then(Log2Histogram::new),
            series: config
                .series_enabled()
                .then(|| SeriesRing::new(config.series_stride, config.series_capacity)),
            recorder: config
                .trace_enabled()
                .then(|| FlightRecorder::new(config.trace_capacity, config.trace_filter())),
        }
    }

    /// Records one flight-recorder event, when the recorder is armed.
    #[inline]
    fn record_event(&mut self, slot: u64, kind: EventKind, switch: u32, port: u32, tag: FlowTag) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(TraceEvent {
                slot,
                kind,
                stage: self.stage_no,
                switch,
                port,
                src: tag.src,
                dest: tag.dest,
                seq: tag.seq,
            });
        }
    }

    /// One cell queued into a VOQ: records the depth *after* the push and
    /// the enqueue event.
    #[inline]
    fn on_voq_enqueue(&mut self, slot: u64, switch: u32, port: u32, tag: FlowTag, depth: u64) {
        if let Some(h) = self.voq_backlog.as_mut() {
            h.record(depth);
        }
        self.record_event(slot, EventKind::VoqEnqueue, switch, port, tag);
    }

    /// One output-slot in which a queued cell sat gated awaiting a credit.
    #[inline]
    fn on_stall(&mut self) {
        if let Some(ring) = self.series.as_mut() {
            ring.add_stalls(1);
        }
    }

    /// One cell left the stage (onto a link or an external output line).
    #[inline]
    fn on_transmit(&mut self) {
        if let Some(ring) = self.series.as_mut() {
            ring.add_transmitted(1);
        }
    }

    /// Records the outbound link's occupancy right after a transmit.
    #[inline]
    fn on_link_occupancy(&mut self, occupancy: u64) {
        if let Some(h) = self.link_occupancy.as_mut() {
            h.record(occupancy);
        }
    }
}

/// Cells resident in a stage right now: queued in VOQs, staged in egress
/// FIFOs (counted by sidecar tags) or sitting in inbound link FIFOs. Read
/// only at series sample slots.
fn stage_occupancy(
    voq_tags: &[VecDeque<FlowTag>],
    out_tags: &[VecDeque<FlowTag>],
    in_links: &[VecDeque<LinkCell>],
) -> u64 {
    let queued: usize = voq_tags.iter().map(VecDeque::len).sum();
    let staged: usize = out_tags.iter().map(VecDeque::len).sum();
    let linked: usize = in_links.iter().map(VecDeque::len).sum();
    (queued + staged + linked) as u64
}

/// The [`StageSink`] wired into one switch's [`VoqSwitch::step_coupled`]:
/// advances the sidecar flow tags in grant order, debits link credits and
/// stages transmitted cells into the outbound link batch (interior stages)
/// or the delivery tracker (egress stage).
struct StageHooks<'a> {
    s: usize,
    radix: usize,
    slot: u64,
    /// Whether transmissions debit link credits (false only when a
    /// `DropOnFull` fault disabled credit flow control for the run).
    debit: bool,
    /// Link FIFO capacity (the occupancy histogram's reference point).
    link_capacity: usize,
    /// Observability probes; `None` on the uninstrumented path.
    obs: Option<&'a mut StageObs>,
    voq_tags: &'a mut [VecDeque<FlowTag>],
    out_tags: &'a mut [VecDeque<FlowTag>],
    hop_seq: &'a mut [u64],
    out_credits: &'a mut [u32],
    fwd: &'a mut FwdBatch,
    delivery: Option<&'a mut Delivery>,
    /// Egress only, transport on: every delivery (unique *and* duplicate —
    /// re-acking a filtered copy is what stops its source retrying) also
    /// pushes an ack onto the outbound credit batch.
    acks: Option<&'a mut Vec<FlowTag>>,
}

impl StageSink for StageHooks<'_> {
    #[inline]
    fn granted(&mut self, input: usize, cell: &Cell) {
        let v = cell.queue().as_usize();
        let h = (self.s * self.radix + input) * self.radix + v;
        if let Some(tag) = self.voq_tags[h].pop_front() {
            if let Some(ob) = self.obs.as_deref_mut() {
                ob.record_event(
                    self.slot,
                    EventKind::Grant,
                    self.s as u32,
                    input as u32,
                    tag,
                );
            }
            self.out_tags[self.s * self.radix + v].push_back(tag);
        } else {
            debug_assert!(false, "granted cell without a sidecar flow tag");
        }
    }

    #[inline]
    fn transmitted(&mut self, output: usize, cell: Cell) {
        let o = self.s * self.radix + output;
        let Some(tag) = self.out_tags[o].pop_front() else {
            debug_assert!(false, "transmitted cell without a sidecar flow tag");
            return;
        };
        match self.delivery.as_deref_mut() {
            Some(delivery) => {
                if let Some(acks) = self.acks.as_deref_mut() {
                    acks.push(tag);
                }
                if let Some(ob) = self.obs.as_deref_mut() {
                    ob.on_transmit();
                    ob.record_event(
                        self.slot,
                        EventKind::EgressTransmit,
                        self.s as u32,
                        output as u32,
                        tag,
                    );
                }
                delivery.deliver(tag, self.slot);
            }
            None => {
                if self.debit {
                    debug_assert!(self.out_credits[o] > 0, "transmit without link credit");
                    self.out_credits[o] -= 1;
                }
                if let Some(ob) = self.obs.as_deref_mut() {
                    ob.on_transmit();
                    ob.on_link_occupancy(
                        (self.link_capacity as u64).saturating_sub(u64::from(self.out_credits[o])),
                    );
                }
                self.fwd.cells.push((o as u32, cell, tag));
            }
        }
    }

    #[inline]
    fn dropped(&mut self, input: usize, cell: &Cell) {
        // The arrival's tag was pushed just before the buffer refused the
        // cell; undo the push and the hop sequence so grants stay contiguous.
        let h = (self.s * self.radix + input) * self.radix + cell.queue().as_usize();
        self.voq_tags[h].pop_back();
        self.hop_seq[h] -= 1;
    }
}

/// One stage of the Clos: its switches plus everything that rides beside
/// them — sidecar flow tags, hop sequence counters, inbound link FIFOs and
/// outbound link credits.
#[derive(Debug)]
struct Stage<B: PacketBuffer> {
    stage: ClosStage,
    radix: usize,
    /// Radix of the *upstream* stage (link-id decode); 0 at the ingress.
    up_radix: usize,
    /// External switch radix `N` (routing: middle VOQ = dest / N, egress
    /// VOQ = dest % N).
    ext_radix: usize,
    middle: usize,
    dispatch: DispatchPolicy,
    /// Link FIFO capacity (the occupancy-aware spray's full-link penalty).
    link_capacity: usize,
    /// Whether a `DropOnFull` fault disabled credit flow control (false on
    /// the fault-free path: gates on, overflow impossible).
    drop_on_full: bool,
    /// Compiled fault state; `None` unless a plan was armed, so the
    /// fault-free hot path carries nothing.
    faults: Option<StageFaults>,
    switches: Vec<VoqSwitch<B>>,
    /// Sidecar tag FIFO per (switch, input, VOQ), in buffer-FIFO order.
    voq_tags: Vec<VecDeque<FlowTag>>,
    /// Tags of cells sitting in each (switch, output) egress FIFO.
    out_tags: Vec<VecDeque<FlowTag>>,
    /// Hop-local next sequence per (switch, input, VOQ).
    hop_seq: Vec<u64>,
    /// Inbound link FIFO per (switch, input); empty at the ingress stage.
    in_links: Vec<VecDeque<LinkCell>>,
    /// Outbound link credits per (switch, output); empty at the egress.
    out_credits: Vec<u32>,
    /// Credit returns in flight back to this stage: (visible slot, link id).
    credit_pending: VecDeque<(u64, u32)>,
    /// Egress only, transport on: whether deliveries emit acks onto the
    /// credit back-channel (false keeps open-loop runs byte-identical).
    emit_acks: bool,
    /// Acks in flight toward this stage: (visible slot, tag). The middle
    /// stage relays them upstream; the ingress stage hands them to the
    /// closed-loop driver.
    ack_pending: VecDeque<(u64, FlowTag)>,
    /// Ingress only: next middle switch per external port (spray pointer).
    spray_next: Vec<u32>,
    /// Ingress only: row-major `ext × ext` offered-traffic matrix.
    offered_matrix: Vec<u64>,
    /// Egress only: delivery + reordering tracker.
    delivery: Option<Delivery>,
    /// Per-slot scratch: one arrival per input.
    arrivals: Vec<Option<Cell>>,
    /// Per-slot scratch: crossbar gate per output.
    gate: Vec<bool>,
    /// Output-slots in which a queued cell sat gated awaiting a credit.
    credit_stall_slots: u64,
    /// Deepest any inbound link FIFO has been.
    peak_link_depth: usize,
    /// Cells discarded at full inbound links (`DropOnFull` fault only).
    link_dropped: u64,
    /// Crossbar matches per switch at the end of the active phase.
    active_matches: Vec<u64>,
    /// Observability probes; `None` unless [`ClosFabric::arm_obs`] armed
    /// them, so the uninstrumented hot path carries nothing.
    obs: Option<StageObs>,
}

impl<B: PacketBuffer> Stage<B> {
    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "setup, not the slot loop"
    )]
    fn new(
        stage: ClosStage,
        config: &ClosConfig,
        switch_radix: usize,
        up_radix: usize,
        count: usize,
        switches: Vec<VoqSwitch<B>>,
    ) -> Self {
        let ext = config.external_ports();
        let is_egress = stage == ClosStage::Egress;
        let has_out_links = stage != ClosStage::Egress;
        let has_in_links = stage != ClosStage::Ingress;
        Stage {
            stage,
            radix: switch_radix,
            up_radix,
            ext_radix: config.radix,
            middle: config.middle_switches,
            dispatch: config.dispatch,
            link_capacity: config.link_capacity,
            drop_on_full: false,
            faults: None,
            switches,
            voq_tags: (0..count * switch_radix * switch_radix)
                .map(|_| VecDeque::new())
                .collect(),
            out_tags: (0..count * switch_radix).map(|_| VecDeque::new()).collect(),
            hop_seq: vec![0; count * switch_radix * switch_radix],
            in_links: if has_in_links {
                (0..count * switch_radix).map(|_| VecDeque::new()).collect()
            } else {
                Vec::new()
            },
            out_credits: if has_out_links {
                vec![config.link_capacity as u32; count * switch_radix]
            } else {
                Vec::new()
            },
            credit_pending: VecDeque::new(),
            emit_acks: false,
            ack_pending: VecDeque::new(),
            spray_next: if stage == ClosStage::Ingress {
                // Stagger the spray pointers so simultaneous first cells on
                // different ports do not all aim at middle switch 0.
                (0..ext)
                    .map(|g| (g % config.middle_switches) as u32)
                    .collect()
            } else {
                Vec::new()
            },
            offered_matrix: if stage == ClosStage::Ingress {
                vec![0; ext * ext]
            } else {
                Vec::new()
            },
            delivery: is_egress.then(|| Delivery::new(ext)),
            arrivals: vec![None; switch_radix],
            gate: vec![false; switch_radix],
            credit_stall_slots: 0,
            peak_link_depth: 0,
            link_dropped: 0,
            active_matches: vec![0; count],
            obs: None,
        }
    }

    /// Applies a forward batch from the upstream stage to the inbound link
    /// FIFOs (visible from `batch.slot + latency`). Under a `DropOnFull`
    /// fault a cell aimed at a full FIFO is discarded and ledgered — the
    /// loss the conservation checker must account for.
    fn apply_fwd(&mut self, batch: &mut FwdBatch, latency: u64, capacity: usize) {
        let ready = batch.slot + latency;
        for (id, cell, tag) in batch.cells.drain(..) {
            let id = id as usize;
            let idx = (id % self.up_radix) * self.radix + id / self.up_radix;
            let fifo = &mut self.in_links[idx];
            if fifo.len() >= capacity {
                debug_assert!(
                    self.drop_on_full,
                    "credit flow control let a link FIFO overflow"
                );
                self.link_dropped += 1;
                if let Some(f) = self.faults.as_mut() {
                    if let Some(e) = f.drop_event {
                        f.impact[e].dropped_cells += 1;
                    }
                }
                continue;
            }
            fifo.push_back(LinkCell { ready, cell, tag });
            self.peak_link_depth = self.peak_link_depth.max(fifo.len());
        }
    }

    /// Applies a credit batch returned by the downstream stage; each credit
    /// becomes visible to the gated outputs at `batch.slot + latency`, and
    /// each piggybacked ack rides the same latency toward the ingress.
    fn apply_credits(&mut self, batch: &mut CreditBatch, latency: u64) {
        let avail = batch.slot + latency;
        for link in batch.links.drain(..) {
            self.credit_pending.push_back((avail, link));
        }
        for tag in batch.acks.drain(..) {
            self.ack_pending.push_back((avail, tag));
        }
    }

    /// Releases every pending credit that is visible at `slot`.
    #[inline]
    fn release_credits(&mut self, slot: u64) {
        while let Some(&(avail, link)) = self.credit_pending.front() {
            if avail > slot {
                break;
            }
            self.credit_pending.pop_front();
            self.out_credits[link as usize] += 1;
        }
    }
}

impl<B: PacketBuffer> Stage<B> {
    /// Steps every switch of the stage through slot `slot`.
    ///
    /// The ingress stage takes its arrivals from `external` (one entry per
    /// external port, flattened `switch · N + port`); interior stages pass
    /// `None` and take them from their inbound link FIFOs, pushing one
    /// credit per accepted cell into `credits`. Interior transmissions land
    /// in `fwd` with their producer-side link ids.
    fn step(
        &mut self,
        slot: u64,
        mut external: Option<&mut [Option<Cell>]>,
        fwd: &mut FwdBatch,
        credits: &mut CreditBatch,
    ) {
        if !self.out_credits.is_empty() {
            self.release_credits(slot);
        }
        fwd.slot = slot;
        credits.slot = slot;
        debug_assert!(fwd.cells.is_empty() && credits.links.is_empty());
        debug_assert!(credits.acks.is_empty());
        if self.stage == ClosStage::Middle {
            // Relay acks arriving from the egress onto the upstream credit
            // batch: they become visible at the ingress after one more link
            // latency, exactly like a credit.
            while let Some(&(avail, tag)) = self.ack_pending.front() {
                if avail > slot {
                    break;
                }
                self.ack_pending.pop_front();
                credits.acks.push(tag);
            }
        }
        let Stage {
            stage,
            radix,
            up_radix,
            ext_radix,
            middle,
            dispatch,
            link_capacity,
            drop_on_full,
            faults,
            switches,
            voq_tags,
            out_tags,
            hop_seq,
            in_links,
            out_credits,
            emit_acks,
            spray_next,
            offered_matrix,
            delivery,
            arrivals,
            gate,
            credit_stall_slots,
            obs,
            ..
        } = self;
        let (radix, up_radix, ext_radix, middle) = (*radix, *up_radix, *ext_radix, *middle);
        let link_capacity = *link_capacity;
        let stage_kind = *stage;
        let debit = !*drop_on_full;
        let gated = debit && stage_kind != ClosStage::Egress;
        let ext_total = switches.len() * radix;
        for (s, switch) in switches.iter_mut().enumerate() {
            // 0. Fault ledger: cells ready to move but held behind an
            // active fault this slot are accounted as added latency. The
            // counts read physical link FIFO occupancy, which is schedule-
            // invariant (pushes land after the same slot's pops everywhere).
            let dead_switch = match faults.as_mut() {
                None => false,
                Some(f) => {
                    let dead = f.switch_dead(s, slot);
                    let StageFaults {
                        dead_switches,
                        stalled_in,
                        impact,
                        ..
                    } = f;
                    for &(e, sw, w) in dead_switches.iter() {
                        if sw == s && w.contains(slot) {
                            let held: u64 = in_links[s * radix..(s + 1) * radix]
                                .iter()
                                .map(|q| q.iter().filter(|c| c.ready <= slot).count() as u64)
                                .sum();
                            impact[e].stalled_cell_slots += held;
                        }
                    }
                    for &(e, li, w) in stalled_in.iter() {
                        if li / radix == s && w.contains(slot) {
                            impact[e].stalled_cell_slots +=
                                in_links[li].iter().filter(|c| c.ready <= slot).count() as u64;
                        }
                    }
                    dead
                }
            };
            // 1. Arrivals: external lines at the ingress, link FIFOs inside.
            if let Some(lines) = external.as_deref_mut() {
                for (i, arrival) in arrivals.iter_mut().enumerate() {
                    let src = s * radix + i;
                    let Some(cell) = lines[src].take() else {
                        *arrival = None;
                        continue;
                    };
                    let dest = cell.queue().as_usize();
                    offered_matrix[src * ext_total + dest] += 1;
                    if let Some(f) = faults.as_mut() {
                        // A dead ingress line refuses the cell at the
                        // very edge of the fabric: offered, ledgered,
                        // never entering any switch.
                        if let Some(e) = f.dead_input_event(src, slot) {
                            f.impact[e].refused_cells += 1;
                            *arrival = None;
                            continue;
                        }
                    }
                    let p = match dispatch {
                        DispatchPolicy::Spray | DispatchPolicy::OccupancySpray => {
                            let start = spray_next[src] as usize;
                            // Credit-occupancy-aware spray: skip dead
                            // paths, pick the least-committed live one
                            // (queued VOQ cells, plus a full-link
                            // penalty when its credits are exhausted),
                            // scanning from the round-robin pointer so
                            // ties keep the fair cadence. `Spray` only
                            // adapts while a middle death is active;
                            // `OccupancySpray` adapts on every slot.
                            let adaptive = *dispatch == DispatchPolicy::OccupancySpray
                                || faults.as_ref().is_some_and(|f| f.reroutes_paths(slot));
                            let p = if !adaptive {
                                start
                            } else {
                                let mut best: Option<(usize, usize)> = None;
                                for k in 0..middle {
                                    let cand = (start + k) % middle;
                                    if faults.as_ref().is_some_and(|f| f.path_dead(cand, slot)) {
                                        continue;
                                    }
                                    let h = (s * radix + i) * radix + cand;
                                    let mut key = voq_tags[h].len();
                                    if out_credits[s * radix + cand] == 0 {
                                        key += link_capacity;
                                    }
                                    if best.is_none_or(|(_, b)| key < b) {
                                        best = Some((cand, key));
                                    }
                                }
                                best.map_or(start, |(p, _)| p)
                            };
                            spray_next[src] = ((p + 1) % middle) as u32;
                            p
                        }
                        DispatchPolicy::FlowHash => {
                            let mut p =
                                (flow_hash(src as u32, dest as u32) % middle as u64) as usize;
                            if let Some(f) = faults.as_ref() {
                                // Failover: a flow hashed onto a dead
                                // middle probes linearly to the first
                                // live one (deterministic, so the flow
                                // stays pinned for the whole window;
                                // reordering is bounded to the two
                                // failover edges).
                                if f.path_dead(p, slot) {
                                    for k in 1..middle {
                                        let cand = (p + k) % middle;
                                        if !f.path_dead(cand, slot) {
                                            p = cand;
                                            break;
                                        }
                                    }
                                }
                            }
                            p
                        }
                    };
                    let h = (s * radix + i) * radix + p;
                    let hop = hop_seq[h];
                    hop_seq[h] += 1;
                    let tag = FlowTag {
                        src: src as u32,
                        dest: dest as u32,
                        seq: cell.seq(),
                    };
                    voq_tags[h].push_back(tag);
                    if let Some(ob) = obs.as_mut() {
                        ob.record_event(slot, EventKind::Inject, s as u32, i as u32, tag);
                        ob.on_voq_enqueue(slot, s as u32, i as u32, tag, voq_tags[h].len() as u64);
                    }
                    *arrival = Some(Cell::new(
                        LogicalQueueId::new(p as u32),
                        hop,
                        cell.arrival_slot(),
                    ));
                }
            } else {
                for (i, arrival) in arrivals.iter_mut().enumerate() {
                    let li = s * radix + i;
                    // A dead switch accepts nothing; a flapped link
                    // delivers nothing. Cells wait in the FIFO (stall,
                    // never drop) and credits stop flowing upstream.
                    if dead_switch
                        || faults.as_ref().is_some_and(|f| f.in_stalled(li, slot))
                        || in_links[li].front().is_none_or(|c| c.ready > slot)
                    {
                        *arrival = None;
                        continue;
                    }
                    let Some(LinkCell { cell, tag, .. }) = in_links[li].pop_front() else {
                        *arrival = None;
                        continue;
                    };
                    credits.links.push((i * up_radix + s) as u32);
                    let dest = tag.dest as usize;
                    let v = if stage_kind == ClosStage::Middle {
                        dest / ext_radix
                    } else {
                        dest % ext_radix
                    };
                    let h = (s * radix + i) * radix + v;
                    let hop = hop_seq[h];
                    hop_seq[h] += 1;
                    voq_tags[h].push_back(tag);
                    if let Some(ob) = obs.as_mut() {
                        ob.record_event(slot, EventKind::LinkTraverse, s as u32, i as u32, tag);
                        ob.on_voq_enqueue(slot, s as u32, i as u32, tag, voq_tags[h].len() as u64);
                    }
                    *arrival = Some(Cell::new(
                        LogicalQueueId::new(v as u32),
                        hop,
                        cell.arrival_slot(),
                    ));
                }
            }
            // 2. Gate: outputs without a link credit sit out this slot's
            // arbitration (that is the backpressure); a dead switch sits
            // out on every output (it still steps, so its clock stays in
            // sync — equivalent to idling); a slowed egress output only
            // opens on its degraded cadence.
            let gate_ref: &[bool] = if dead_switch {
                gate.fill(false);
                gate
            } else if gated {
                for (j, open) in gate.iter_mut().enumerate() {
                    let has_credit = out_credits[s * radix + j] > 0;
                    *open = has_credit;
                    if !has_credit && switch.egress_depth(j) > 0 {
                        *credit_stall_slots += 1;
                        if let Some(ob) = obs.as_mut() {
                            ob.on_stall();
                        }
                    }
                }
                gate
            } else if faults
                .as_ref()
                .is_some_and(|f| f.gates_switch(s, radix, slot))
            {
                gate.fill(true);
                if let Some(f) = faults.as_mut() {
                    let StageFaults {
                        slowed_out, impact, ..
                    } = f;
                    for &(e, idx, factor, w) in slowed_out.iter() {
                        if idx / radix == s && w.contains(slot) && !slot.is_multiple_of(factor) {
                            gate[idx % radix] = false;
                            if switch.egress_depth(idx % radix) > 0 {
                                impact[e].slowed_slots += 1;
                            }
                        }
                    }
                }
                gate
            } else {
                &[]
            };
            // 3. One coupled switch slot; the hooks move the sidecar tags
            // and stage transmissions onto the outbound link batch.
            let mut hooks = StageHooks {
                s,
                radix,
                slot,
                debit,
                link_capacity,
                obs: obs.as_mut(),
                voq_tags: &mut voq_tags[..],
                out_tags: &mut out_tags[..],
                hop_seq: &mut hop_seq[..],
                out_credits: &mut out_credits[..],
                fwd: &mut *fwd,
                delivery: delivery.as_mut(),
                acks: emit_acks.then_some(&mut credits.acks),
            };
            switch.step_coupled(arrivals, gate_ref, &mut hooks);
        }
        // One series tick per stage per slot, after every switch stepped.
        // Sampling reads only this stage's own state at the end of its own
        // slot, so the samples are identical under every schedule.
        if let Some(ring) = obs.as_mut().and_then(|ob| ob.series.as_mut()) {
            if ring.due(slot) {
                let occupancy = stage_occupancy(voq_tags, out_tags, in_links);
                ring.sample(slot, occupancy);
            }
        }
    }

    /// Snapshots each switch's crossbar match count (called when the active
    /// phase ends, before the drain).
    fn snapshot_active_matches(&mut self) {
        for (slot, switch) in self.active_matches.iter_mut().zip(&self.switches) {
            *slot = switch.matches_so_far();
        }
    }

    /// Cells currently in flight on (or queued in) this stage's inbound
    /// link FIFOs.
    fn link_resident(&self) -> u64 {
        self.in_links.iter().map(|q| q.len() as u64).sum()
    }

    /// Whether the stage is provably idle: switches idle, no cell on any
    /// inbound link, no credit or ack still in flight toward this stage.
    fn is_idle(&self) -> bool {
        self.credit_pending.is_empty()
            && self.ack_pending.is_empty()
            && self.in_links.iter().all(VecDeque::is_empty)
            && self.switches.iter().all(VoqSwitch::is_idle)
    }

    /// Fast-forwards `slots` provably idle slots starting at `from_slot`
    /// (caller checked [`Stage::is_idle`] on every stage and that no batch
    /// is in flight). An idle window records nothing into the histograms or
    /// the recorder, and its series samples are synthesized — zero
    /// throughput, zero stalls, constant occupancy — exactly what stepping
    /// each slot would have produced, so skipping schedules stay
    /// byte-identical to the skip-free ones.
    fn advance_idle(&mut self, from_slot: u64, slots: u64) {
        for switch in &mut self.switches {
            switch.advance_idle(slots);
        }
        if self.obs.as_ref().is_some_and(|ob| ob.series.is_some()) {
            let occupancy = stage_occupancy(&self.voq_tags, &self.out_tags, &self.in_links);
            if let Some(ring) = self.obs.as_mut().and_then(|ob| ob.series.as_mut()) {
                ring.advance_idle(from_slot, slots, occupancy);
            }
        }
    }
}

/// Per-slot scratch of the slot loop: the external lines and the link
/// batches (allocated once per run; the vectors are reused every slot).
#[derive(Debug, Default)]
struct SlotScratch {
    /// One entry per external port: the cell entering the fabric this slot.
    lines: Vec<Option<Cell>>,
    fwd_a: FwdBatch,
    fwd_b: FwdBatch,
    cred_a: CreditBatch,
    cred_b: CreditBatch,
    fwd_unused: FwdBatch,
    cred_unused: CreditBatch,
}

impl SlotScratch {
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    fn new(external_ports: usize) -> Self {
        SlotScratch {
            lines: vec![None; external_ports],
            ..SlotScratch::default()
        }
    }
}

/// What feeds the external lines of the slot-loop driver
/// ([`ClosFabric::drive`]) — the one thing an open-loop and a closed-loop
/// run do differently.
trait LineSource {
    /// Prepares the next `len` active slots, starting at slot `base`;
    /// returns whether any of them may carry a cell (`false` lets the
    /// driver fast-forward the whole chunk when the fabric is idle too).
    fn begin_chunk(&mut self, base: u64, len: usize) -> bool;

    /// Puts the cells entering at `slot` on `lines` (all `None` on entry:
    /// the ingress stage took the previous slot's). Called once per stepped
    /// slot, in slot order; `allow_new` is false during the drain, when no
    /// fresh work may be opened.
    fn emit<B: PacketBuffer>(
        &mut self,
        ingress: &mut Stage<B>,
        slot: u64,
        allow_new: bool,
        lines: &mut [Option<Cell>],
    );

    /// Whether the source has nothing left to send or wait for, so the
    /// drain may end as soon as the fabric is empty.
    fn is_quiet(&self) -> bool;

    /// The earliest slot at which the source acts on its own (a timer), if
    /// any; the drain jumps an idle fabric straight to it.
    fn next_action_slot(&self) -> Option<u64>;

    /// The drain fast-forwarded `slots` slots without calling `emit`.
    fn skipped(&mut self, slots: u64);
}

/// Open-loop generators, filled one chunk of slots at a time. Once the
/// active phase is over the source is quiet and has no timer, so the drain
/// degenerates to "step until the fabric is empty".
struct OpenLoop<'a, A> {
    arrivals: &'a mut [A],
    /// The current chunk's arrivals, one ring per external port.
    rings: Vec<Vec<Option<Cell>>>,
    /// Next slot of the current chunk to emit.
    cursor: usize,
}

impl<'a, A: ArrivalGenerator> OpenLoop<'a, A> {
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    fn new(arrivals: &'a mut [A]) -> Self {
        OpenLoop {
            rings: vec![vec![None; FABRIC_CHUNK_SLOTS]; arrivals.len()],
            arrivals,
            cursor: 0,
        }
    }
}

impl<A: ArrivalGenerator> LineSource for OpenLoop<'_, A> {
    fn begin_chunk(&mut self, base: u64, len: usize) -> bool {
        self.cursor = 0;
        let mut produced = 0usize;
        for (generator, ring) in self.arrivals.iter_mut().zip(self.rings.iter_mut()) {
            produced += generator.fill_arrivals(base, &mut ring[..len]);
        }
        produced > 0
    }

    fn emit<B: PacketBuffer>(
        &mut self,
        _ingress: &mut Stage<B>,
        _slot: u64,
        allow_new: bool,
        lines: &mut [Option<Cell>],
    ) {
        if allow_new {
            for (line, ring) in lines.iter_mut().zip(self.rings.iter_mut()) {
                *line = ring[self.cursor];
            }
            self.cursor += 1;
        }
    }

    fn is_quiet(&self) -> bool {
        true
    }

    fn next_action_slot(&self) -> Option<u64> {
        None
    }

    fn skipped(&mut self, _slots: u64) {}
}

/// Closed-loop reliable sources: each slot they take the acks that became
/// visible, fire their timers and are polled for at most one cell per port.
struct ClosedLoop<'a> {
    sources: &'a mut [ClosedLoopSource],
    /// When set, every slot's injected row is recorded (skipped slots as
    /// idle padding) for open-loop replay.
    record: Option<&'a mut MatrixTrace>,
}

impl LineSource for ClosedLoop<'_> {
    fn begin_chunk(&mut self, _base: u64, _len: usize) -> bool {
        // A source that may open new work or holds an armed timer is never
        // provably idle: the active phase steps every slot.
        true
    }

    fn emit<B: PacketBuffer>(
        &mut self,
        ingress: &mut Stage<B>,
        slot: u64,
        allow_new: bool,
        lines: &mut [Option<Cell>],
    ) {
        while let Some(&(avail, tag)) = ingress.ack_pending.front() {
            if avail > slot {
                break;
            }
            ingress.ack_pending.pop_front();
            self.sources[tag.src as usize].on_ack(tag.dest, tag.seq, slot);
        }
        let radix = ingress.radix as u32;
        for (line, source) in lines.iter_mut().zip(self.sources.iter_mut()) {
            source.expire_timers(slot);
            let sent_retries = source.retransmitted();
            *line = source
                .poll(slot, allow_new)
                .map(|(dest, seq)| Cell::new(LogicalQueueId::new(dest), seq, slot));
            if let Some(ob) = ingress.obs.as_mut() {
                if source.retransmitted() > sent_retries {
                    if let Some(cell) = line.as_ref() {
                        let src = source.src();
                        let tag = FlowTag {
                            src,
                            dest: cell.queue().index(),
                            seq: cell.seq(),
                        };
                        ob.record_event(slot, EventKind::Retransmit, src / radix, src % radix, tag);
                    }
                }
            }
        }
        if let Some(trace) = self.record.as_deref_mut() {
            #[expect(
                clippy::disallowed_methods,
                reason = "recording path only; the steady-state drivers never take it"
            )]
            let row: Vec<Option<(u32, u64)>> = lines
                .iter()
                .map(|c| c.as_ref().map(|c| (c.queue().index(), c.seq())))
                .collect();
            trace.record_slot(&row);
        }
    }

    fn is_quiet(&self) -> bool {
        self.sources.iter().all(ClosedLoopSource::is_quiet)
    }

    fn next_action_slot(&self) -> Option<u64> {
        self.sources
            .iter()
            .filter_map(ClosedLoopSource::next_action_slot)
            .min()
    }

    fn skipped(&mut self, slots: u64) {
        if let Some(trace) = self.record.as_deref_mut() {
            trace.pad_idle(slots);
        }
    }
}

/// A three-stage folded Clos of [`VoqSwitch`]es — see the module docs for
/// the topology, the credit flow control and the execution model.
#[derive(Debug)]
pub struct ClosFabric<B: PacketBuffer> {
    config: ClosConfig,
    ingress: Stage<B>,
    middle: Stage<B>,
    egress: Stage<B>,
    clock: u64,
    /// The armed fault plan (`None` = fault-free, the default).
    plan: Option<FaultPlan>,
    /// Every slot at which some armed fault turns on or off, sorted; the
    /// drain refuses to give up on stuck cells while an edge lies ahead.
    fault_edges: Vec<u64>,
    /// The enabled transport config (`None` = open-loop, the default).
    transport: Option<TransportConfig>,
    /// The armed obs configuration (`None` = uninstrumented, the default).
    obs: Option<ObsConfig>,
}

impl<B: PacketBuffer> ClosFabric<B> {
    /// Builds the Clos; `build` is called once per ingress buffer of every
    /// switch with the stage it will serve (ingress/egress buffers hold `N`
    /// VOQs, middle buffers `r`).
    ///
    /// # Panics
    ///
    /// Panics with the [`ClosConfigError`] message when `config` fails
    /// [`ClosConfig::validate`], or when a built buffer's queue count does
    /// not match its stage's radix.
    #[expect(
        clippy::disallowed_methods,
        clippy::panic,
        reason = "setup, not the slot loop"
    )]
    pub fn new<F: FnMut(ClosStage) -> B>(config: ClosConfig, mut build: F) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let ClosConfig {
            radix,
            ingress_switches: r,
            middle_switches: m,
            ..
        } = config;
        let mut config = config;
        config.link_latency = config.link_latency.max(1);
        let arbiter = config.arbiter;
        let mut mk_switches = |stage: ClosStage, count: usize, ports: usize, period: u64| {
            (0..count)
                .map(|_| {
                    VoqSwitch::new(
                        FabricConfig {
                            ports,
                            egress_period: period,
                            arbiter,
                        },
                        (0..ports).map(|_| build(stage)).collect(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let ingress_switches = mk_switches(ClosStage::Ingress, r, radix, 1);
        let middle_switches = mk_switches(ClosStage::Middle, m, r, 1);
        let egress_switches = mk_switches(ClosStage::Egress, r, radix, config.egress_period);
        ClosFabric {
            ingress: Stage::new(ClosStage::Ingress, &config, radix, 0, r, ingress_switches),
            middle: Stage::new(ClosStage::Middle, &config, r, radix, m, middle_switches),
            egress: Stage::new(ClosStage::Egress, &config, radix, r, r, egress_switches),
            config,
            clock: 0,
            plan: None,
            fault_edges: Vec::new(),
            transport: None,
            obs: None,
        }
    }

    /// Arms a [`FaultPlan`] for the coming run: validates it against the
    /// geometry and compiles it into per-stage fault state. An empty plan
    /// is a no-op — the fabric stays exactly on the fault-free path and
    /// its reports stay byte-identical to an unarmed run.
    ///
    /// # Panics
    ///
    /// Panics when the plan fails [`FaultPlan::validate`] against this
    /// fabric's geometry, or when the fabric has already run (plans are
    /// armed at slot 0 so every schedule sees every fault identically).
    #[expect(
        clippy::panic,
        reason = "an invalid fault plan is refused before slot 0"
    )]
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        assert_eq!(self.clock, 0, "fault plans must be armed before the run");
        let ClosConfig {
            radix,
            ingress_switches: r,
            middle_switches: m,
            ..
        } = self.config;
        if let Err(err) = plan.validate(radix, r, m) {
            panic!("invalid fault plan: {err}");
        }
        let drop = plan.has_drop_on_full();
        for (stage, kind) in [
            (&mut self.ingress, ClosStage::Ingress),
            (&mut self.middle, ClosStage::Middle),
            (&mut self.egress, ClosStage::Egress),
        ] {
            stage.faults = Some(plan.compile(kind, radix, r, m));
            stage.drop_on_full = drop;
        }
        self.fault_edges = plan.edges();
        self.plan = Some(plan.clone());
    }

    /// Arms the deterministic observability layer for the coming run:
    /// latency/occupancy histograms, per-stage time-series and the cell
    /// flight recorder, per `config`'s probe selection. [`ObsConfig::off`]
    /// is a no-op — the fabric stays exactly on the uninstrumented path and
    /// its reports stay byte-identical to an unarmed run (pinned by a
    /// differential test). Armed probes are single-writer and clocked by
    /// slot time only, so an instrumented [`ClosFabric::run`] is still
    /// bit-identical to [`ClosFabric::run_reference`].
    ///
    /// # Panics
    ///
    /// Panics when the fabric has already run (probes arm at slot 0 so
    /// every schedule observes every event identically).
    pub fn arm_obs(&mut self, config: &ObsConfig) {
        if config.is_off() {
            return;
        }
        assert_eq!(self.clock, 0, "obs probes must be armed before the run");
        for (stage, kind) in [
            (&mut self.ingress, ClosStage::Ingress),
            (&mut self.middle, ClosStage::Middle),
            (&mut self.egress, ClosStage::Egress),
        ] {
            stage.obs = Some(StageObs::new(config, kind));
        }
        if config.latency_hist {
            // External end-to-end latency lives at the egress-stage output
            // lines (the line-side arrival slot survives re-sequencing).
            for switch in &mut self.egress.switches {
                switch.arm_latency_obs();
            }
        }
        self.obs = Some(config.clone());
    }

    /// Enables the end-to-end reliable transport for the coming run: the
    /// egress stage acknowledges and deduplicates every delivery (acks ride
    /// the credit-return path back to the ingress) and
    /// [`ClosFabric::run_transport`] drives closed-loop sources against it.
    ///
    /// An un-enabled fabric carries no transport state at all — open-loop
    /// runs stay byte-identical to a build without this feature.
    ///
    /// # Panics
    ///
    /// Panics when the fabric has already run (like fault plans, the
    /// transport is enabled at slot 0 so every schedule sees it
    /// identically).
    #[expect(
        clippy::expect_used,
        reason = "the transport is enabled once, before slot 0"
    )]
    pub fn enable_transport(&mut self, config: TransportConfig) {
        assert_eq!(self.clock, 0, "transport must be enabled before the run");
        let ext = self.config.external_ports();
        let delivery = self
            .egress
            .delivery
            .as_mut()
            .expect("egress stage always has delivery state");
        delivery.transport = Some(SinkState::new(ext, config.goodput_bucket));
        self.egress.emit_acks = true;
        self.transport = Some(config);
    }

    /// The configuration the Clos was built with (`link_latency`
    /// normalized to at least 1).
    pub fn config(&self) -> &ClosConfig {
        &self.config
    }

    /// The fabric clock (slots advanced so far).
    pub fn current_slot(&self) -> u64 {
        self.clock
    }

    fn check_generators<A: ArrivalGenerator>(&self, arrivals: &[A]) {
        // Only a closed-loop source takes acks off the ingress: open-loop,
        // they would pile up one per delivery and the fabric never be idle.
        assert!(
            self.transport.is_none(),
            "enable_transport was called: drive this fabric with run_transport"
        );
        let ext = self.config.external_ports();
        assert_eq!(
            arrivals.len(),
            ext,
            "one arrival generator per external port"
        );
        for (p, generator) in arrivals.iter().enumerate() {
            assert_eq!(
                generator.num_queues(),
                ext,
                "generator {p} must target one destination per external port"
            );
        }
    }

    /// Advances the whole Clos by one slot, in stage order; the ingress
    /// stage takes the cells on `sc.lines`, leaving every line `None`.
    ///
    /// Every stage steps **before** any slot-`t` batch is applied. The
    /// cells' visibility stamps (`>= t+1`, `link_latency >= 1`) make
    /// consumption identical either way, but the *physical* FIFO occupancy
    /// — which `peak_link_depth` and the `DropOnFull` full-check observe —
    /// is only the same at every stage when each push lands after the same
    /// slot's pops.
    fn step_all(&mut self, sc: &mut SlotScratch) {
        let slot = self.clock;
        let latency = self.config.link_latency;
        let capacity = self.config.link_capacity;
        let lines = Some(&mut sc.lines[..]);
        self.ingress
            .step(slot, lines, &mut sc.fwd_a, &mut sc.cred_unused);
        self.middle.step(slot, None, &mut sc.fwd_b, &mut sc.cred_a);
        self.egress
            .step(slot, None, &mut sc.fwd_unused, &mut sc.cred_b);
        self.middle.apply_fwd(&mut sc.fwd_a, latency, capacity);
        self.egress.apply_fwd(&mut sc.fwd_b, latency, capacity);
        self.ingress.apply_credits(&mut sc.cred_a, latency);
        self.middle.apply_credits(&mut sc.cred_b, latency);
        self.clock += 1;
    }

    /// Whether an idle slot provably changes nothing: every stage idle, no
    /// cell on any link, no credit or ack in flight.
    fn is_idle(&self) -> bool {
        self.ingress.is_idle() && self.middle.is_idle() && self.egress.is_idle()
    }

    fn advance_idle(&mut self, slots: u64) {
        let from = self.clock;
        self.ingress.advance_idle(from, slots);
        self.middle.advance_idle(from, slots);
        self.egress.advance_idle(from, slots);
        self.clock += slots;
    }

    /// The one slot-loop driver: `active_slots` slots in which `source` may
    /// open new work, a chunk at a time — a chunk the source leaves empty is
    /// fast-forwarded when the fabric is idle too — then the drain.
    fn drive<S: LineSource>(&mut self, source: &mut S, active_slots: u64) -> ClosRunReport {
        let mut sc = SlotScratch::new(self.config.external_ports());
        let mut done = 0u64;
        while done < active_slots {
            let len = FABRIC_CHUNK_SLOTS.min((active_slots - done) as usize);
            if !source.begin_chunk(self.clock, len) && self.is_idle() {
                // No arrival anywhere in the chunk, every stage idle,
                // nothing on any link and no credit in flight: the chunk is
                // pure idle for all three stages at once.
                self.advance_idle(len as u64);
            } else {
                for _ in 0..len {
                    source.emit(&mut self.ingress, self.clock, true, &mut sc.lines);
                    self.step_all(&mut sc);
                }
            }
            done += len as u64;
        }
        self.drain(source, active_slots, &mut sc)
    }

    /// Ends the active phase (snapshotting the utilisation boundary), drains
    /// the fabric and builds the report.
    ///
    /// While `source` still has work in flight, or acks are still riding
    /// home, the loop keeps stepping with fresh injection disabled,
    /// fast-forwarding provably idle gaps to the source's next timer;
    /// bounded retry budgets make that finite. Once the source is quiet —
    /// an open-loop source always is — it steps until every deliverable cell
    /// has left on an external line: VOQs empty of requestable cells,
    /// pipelines flushed, egress FIFOs empty and **no cell left on any
    /// inter-stage link**. Residual partial tail batches below a design's
    /// writeback threshold stay resident (never lost); the flush horizon
    /// mirrors the single-switch drain rule.
    ///
    /// With a fault plan armed, a permanent fault can pin cells in place
    /// forever (a dead middle holds its frozen cells, and the ingress VOQs
    /// aimed at it stay requestable but creditless). The drain then watches
    /// a progress signature — any cell or credit movement anywhere changes
    /// it — and gives up only once the signature has been flat for longer
    /// than every recovery horizon *and* no fault transition lies ahead:
    /// whatever is still stuck at that point is stuck forever, and the
    /// report accounts it as stranded.
    fn drain<S: LineSource>(
        &mut self,
        source: &mut S,
        active_slots: u64,
        sc: &mut SlotScratch,
    ) -> ClosRunReport {
        self.ingress.snapshot_active_matches();
        self.middle.snapshot_active_matches();
        self.egress.snapshot_active_matches();
        let flush = [&self.ingress, &self.middle, &self.egress]
            .iter()
            .flat_map(|stage| stage.switches.iter().map(VoqSwitch::max_pipeline_delay))
            .max()
            .unwrap_or(0) as u64
            + 4;
        let faulted = self.plan.is_some();
        let stall_horizon = flush
            + 2 * self.config.link_latency
            + self.plan.as_ref().map_or(0, FaultPlan::max_slow_factor)
            + 8;
        let mut idle_streak = 0u64;
        let mut stuck_streak = 0u64;
        let mut last_sig = (0u64, 0u64, 0u64, 0u64, 0usize);
        loop {
            let stages = [&self.ingress, &self.middle, &self.egress];
            // Acks still riding home count as pending on every hop: a late
            // ack can resurrect an abandoned cell, so the drain must not end
            // while one is in flight anywhere.
            let acks_pending = stages.iter().any(|stage| !stage.ack_pending.is_empty());
            if source.is_quiet() && !acks_pending {
                let requestable = stages.iter().any(|stage| {
                    stage.link_resident() > 0
                        || stage.switches.iter().any(|sw| sw.requestable_total() > 0)
                });
                if requestable {
                    idle_streak = 0;
                } else {
                    let quiescent = stages
                        .iter()
                        .all(|stage| stage.switches.iter().all(VoqSwitch::buffers_quiescent));
                    let flushed = stages
                        .iter()
                        .all(|stage| stage.switches.iter().all(|sw| sw.egress_backlog() == 0));
                    if (quiescent || idle_streak > flush) && flushed {
                        break;
                    }
                    idle_streak += 1;
                }
                if faulted {
                    let sig = (
                        stages
                            .iter()
                            .flat_map(|stage| stage.switches.iter())
                            .map(VoqSwitch::matches_so_far)
                            .sum::<u64>(),
                        stages
                            .iter()
                            .flat_map(|stage| stage.switches.iter())
                            .map(VoqSwitch::egress_backlog)
                            .sum::<u64>(),
                        stages
                            .iter()
                            .map(|stage| stage.link_resident())
                            .sum::<u64>(),
                        stages
                            .iter()
                            .flat_map(|stage| stage.switches.iter())
                            .map(VoqSwitch::requestable_total)
                            .sum::<u64>(),
                        stages
                            .iter()
                            .map(|stage| stage.credit_pending.len())
                            .sum::<usize>(),
                    );
                    let edge_ahead = self.fault_edges.last().is_some_and(|&e| e > self.clock);
                    if sig == last_sig && !edge_ahead {
                        stuck_streak += 1;
                        if stuck_streak > stall_horizon {
                            break;
                        }
                    } else {
                        stuck_streak = 0;
                        last_sig = sig;
                    }
                }
            } else {
                idle_streak = 0;
                stuck_streak = 0;
                if self.is_idle() {
                    // Nothing anywhere in the fabric: the only future event
                    // is a source timer. Jump straight to it.
                    let next = source.next_action_slot().filter(|&t| t > self.clock);
                    if let Some(next) = next {
                        let skip = next - self.clock;
                        source.skipped(skip);
                        self.advance_idle(skip);
                        continue;
                    }
                }
            }
            source.emit(&mut self.ingress, self.clock, false, &mut sc.lines);
            self.step_all(sc);
        }
        self.build_report(active_slots)
    }

    /// Runs the Clos: `active_slots` slots of live arrivals (generator `g`
    /// feeds external port `g`; its queue ids are *global* destinations in
    /// `0..r·N`), then a drain until every deliverable cell has left on an
    /// external line. Arrivals are generated a chunk at a time and provably
    /// idle chunks are fast-forwarded; the report is bit-identical to the
    /// skip-free [`ClosFabric::run_reference`] (differential tests pin it).
    ///
    /// `_workers` is **ignored** — every value runs the one slot-loop
    /// driver on the caller's thread. The argument is still here only
    /// because the fenced `benchmark/` package passes it (1 and 2: its
    /// `fabric.clos_workers2_ratio` probe now compares the driver with
    /// itself); nothing inside the workspace passes anything but 1.
    ///
    /// # Panics
    ///
    /// Panics when the generator count or any generator's queue count does
    /// not match the external port count, or when
    /// [`ClosFabric::enable_transport`] was called (nothing would consume
    /// the acks; use [`ClosFabric::run_transport`]).
    pub fn run<A: ArrivalGenerator>(
        &mut self,
        arrivals: &mut [A],
        active_slots: u64,
        _workers: usize,
    ) -> ClosRunReport {
        self.check_generators(arrivals);
        self.drive(&mut OpenLoop::new(arrivals), active_slots)
    }

    /// Runs the Clos slot by slot with no chunking and no idle
    /// fast-forward: the skip-free reference twin [`ClosFabric::run`] is
    /// differentially tested against.
    ///
    /// # Panics
    ///
    /// Panics like [`ClosFabric::run`].
    pub fn run_reference<A: ArrivalGenerator>(
        &mut self,
        arrivals: &mut [A],
        active_slots: u64,
    ) -> ClosRunReport {
        self.check_generators(arrivals);
        let mut sc = SlotScratch::new(self.config.external_ports());
        for _ in 0..active_slots {
            let t = self.clock;
            for (line, generator) in sc.lines.iter_mut().zip(arrivals.iter_mut()) {
                *line = generator.next(t);
            }
            self.step_all(&mut sc);
        }
        // The drain asks nothing of the generators: an open-loop source
        // with no lines is quiet, timer-less and emits nothing.
        self.drain(&mut OpenLoop::<A>::new(&mut []), active_slots, &mut sc)
    }

    fn check_sources(&self, sources: &[ClosedLoopSource]) {
        let ext = self.config.external_ports();
        assert_eq!(
            sources.len(),
            ext,
            "one closed-loop source per external port"
        );
        for (g, source) in sources.iter().enumerate() {
            assert_eq!(
                source.src() as usize,
                g,
                "source {g} must send from external port {g}"
            );
            assert_eq!(
                source.num_ports(),
                ext,
                "source {g} must target one destination per external port"
            );
        }
    }

    /// Runs the fabric with closed-loop reliable sources: `active_slots`
    /// slots in which sources may open new work, then a recovery tail in
    /// which pending retransmissions finish (or exhaust their budget) and
    /// the fabric drains. Requires [`ClosFabric::enable_transport`].
    ///
    /// `_workers` is **ignored**, exactly as in [`ClosFabric::run`].
    ///
    /// # Panics
    ///
    /// Panics when the transport is not enabled, or when the source count,
    /// source ports or port counts do not match the geometry.
    pub fn run_transport(
        &mut self,
        sources: &mut [ClosedLoopSource],
        active_slots: u64,
        _workers: usize,
    ) -> ClosRunReport {
        self.run_closed_loop(sources, active_slots, None)
    }

    /// [`ClosFabric::run_transport`] with the exact injected traffic matrix
    /// recorded into `trace`: replaying the trace open-loop through an
    /// identically built-and-armed fabric reproduces this run's deliveries
    /// bit-identically.
    ///
    /// # Panics
    ///
    /// Panics like [`ClosFabric::run_transport`].
    pub fn run_transport_recorded(
        &mut self,
        sources: &mut [ClosedLoopSource],
        active_slots: u64,
        trace: &mut MatrixTrace,
    ) -> ClosRunReport {
        *trace = MatrixTrace::new(self.config.external_ports());
        self.run_closed_loop(sources, active_slots, Some(trace))
    }

    /// Run-entry checks, the driver, and the transport section of the
    /// report.
    fn run_closed_loop(
        &mut self,
        sources: &mut [ClosedLoopSource],
        active_slots: u64,
        record: Option<&mut MatrixTrace>,
    ) -> ClosRunReport {
        #[expect(
            clippy::expect_used,
            reason = "documented contract, checked once before the slot loop"
        )]
        let config = self
            .transport
            .expect("enable_transport must be called before run_transport");
        self.check_sources(sources);
        // Latency probes extend to the transport layer: each source tracks
        // first-injection-to-ack latency so retransmitted cells are timed
        // over their whole recovery.
        if self.obs.as_ref().is_some_and(|c| c.latency_hist) {
            for source in sources.iter_mut() {
                source.arm_latency_obs();
            }
        }
        let mut source = ClosedLoop {
            sources: &mut *sources,
            record,
        };
        let mut report = self.drive(&mut source, active_slots);
        #[expect(
            clippy::expect_used,
            reason = "enable_transport installed the sink; checked once after the slot loop"
        )]
        let sink = self
            .egress
            .delivery
            .as_ref()
            .and_then(|d| d.transport.as_ref())
            .expect("transport sink present on a transport run");
        let sp = config.source_params();
        let first_injection_latency = {
            let mut merged: Option<Log2Histogram> = None;
            for source in sources.iter() {
                if let Some(hist) = source.first_injection_hist() {
                    merged.get_or_insert_with(Log2Histogram::new).merge(hist);
                }
            }
            merged.as_ref().map(HistogramReport::from_hist)
        };
        report.transport = Some(TransportReport {
            rto_initial: sp.rto_initial,
            rto_cap: sp.rto_cap,
            max_retries: sp.max_retries,
            cwnd_init: sp.cwnd_init,
            cwnd_max: sp.cwnd_max,
            goodput_bucket: sink.bucket(),
            injected_cells: sources.iter().map(ClosedLoopSource::injected).sum(),
            retransmitted_cells: sources.iter().map(ClosedLoopSource::retransmitted).sum(),
            timeouts_fired: sources.iter().map(ClosedLoopSource::timeouts).sum(),
            acked_cells: sources.iter().map(ClosedLoopSource::acked).sum(),
            delivered_unique: sink.delivered_unique(),
            duplicates_filtered: sink.duplicates_filtered(),
            duplicate_deliveries: sink.duplicate_deliveries(),
            gave_up_cells: sources.iter().map(ClosedLoopSource::gave_up).sum(),
            in_flight_at_end: sources.iter().map(|s| s.in_flight_len() as u64).sum(),
            retransmissions_outstanding_at_end: sources.iter().map(|s| s.rq_len() as u64).sum(),
            #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
            goodput: sink.goodput().to_vec(),
            first_injection_latency,
        });
        report
    }

    #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
    fn stage_report(stage: &Stage<B>, active_slots: u64) -> ClosStageReport {
        let switches: Vec<FabricRunReport> = stage
            .switches
            .iter()
            .zip(&stage.active_matches)
            .map(|(switch, &matches)| switch.snapshot_report(active_slots, matches))
            .collect();
        let utilization = if switches.is_empty() {
            0.0
        } else {
            switches.iter().map(|r| r.crossbar_utilization).sum::<f64>() / switches.len() as f64
        };
        ClosStageReport {
            stage: stage.stage.label(),
            crossbar_utilization: utilization,
            link_resident_cells: stage.link_resident(),
            link_dropped_cells: stage.link_dropped,
            peak_link_depth: stage.peak_link_depth as u64,
            credit_stall_slots: stage.credit_stall_slots,
            switches,
        }
    }

    #[expect(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        reason = "report, not the slot loop"
    )]
    fn build_report(&self, active_slots: u64) -> ClosRunReport {
        let config = &self.config;
        let ext = config.external_ports();
        let stages = vec![
            Self::stage_report(&self.ingress, active_slots),
            Self::stage_report(&self.middle, active_slots),
            Self::stage_report(&self.egress, active_slots),
        ];
        let arrivals: u64 = self.ingress.offered_matrix.iter().sum();
        let delivery = self.egress.delivery.as_ref();
        let delivered_matrix = delivery.map_or_else(Vec::new, |d| d.delivered_matrix.clone());
        let delivered: u64 = delivered_matrix.iter().sum();
        let reordered_cells = delivery.map_or(0, |d| d.reordered_cells);
        let reordered_flows = delivery.map_or(0, |d| {
            d.flow_reordered.iter().filter(|&&f| f).count() as u64
        });
        let active_flows = self
            .ingress
            .offered_matrix
            .iter()
            .filter(|&&c| c > 0)
            .count() as u64;
        let link_dropped_cells: u64 = stages.iter().map(|s| s.link_dropped_cells).sum();
        let buffer_lost: u64 = stages
            .iter()
            .flat_map(|s| s.switches.iter().map(|r| r.lost_cells))
            .sum();
        let resident_cells: u64 = stages
            .iter()
            .flat_map(|s| s.switches.iter().map(|r| r.resident_cells))
            .sum();
        let link_resident_cells: u64 = stages.iter().map(|s| s.link_resident_cells).sum();
        // External end-to-end latency lives at the egress-stage output
        // lines (the cell's line-side arrival slot survives re-sequencing).
        let egress_outputs = stages[2].switches.iter().flat_map(|r| r.per_output.iter());
        let latency_weighted: f64 = egress_outputs
            .clone()
            .map(|o| o.mean_latency_slots * o.transmitted as f64)
            .sum();
        let mean_latency_slots = if delivered == 0 {
            0.0
        } else {
            latency_weighted / delivered as f64
        };
        let max_latency_slots = egress_outputs
            .map(|o| o.max_latency_slots)
            .max()
            .unwrap_or(0);
        // Merge every stage's per-event impact counters, then account the
        // cells a still-dead middle switch froze in place as stranded: its
        // own egress-FIFO backlog, plus the cells the ingress switches had
        // already granted into their output FIFOs toward it (creditless
        // once the dead link filled, so equally frozen). Each FIFO is
        // attributed to the first death window still active, so overlapping
        // windows cannot double-count.
        let faults = self.plan.as_ref().map(|plan| {
            let mut merged = vec![ImpactCounters::default(); plan.events.len()];
            for stage in [&self.ingress, &self.middle, &self.egress] {
                if let Some(f) = stage.faults.as_ref() {
                    for (m, c) in merged.iter_mut().zip(&f.impact) {
                        m.merge(c);
                    }
                }
            }
            if let Some(f) = self.middle.faults.as_ref() {
                for (s, switch) in self.middle.switches.iter().enumerate() {
                    let backlog = switch.egress_backlog();
                    if backlog == 0 {
                        continue;
                    }
                    if let Some(&(e, _, _)) = f
                        .dead_switches
                        .iter()
                        .find(|&&(_, sw, w)| sw == s && w.contains(self.clock))
                    {
                        merged[e].stranded_cells += backlog;
                    }
                }
            }
            if let Some(f) = self.ingress.faults.as_ref() {
                for switch in &self.ingress.switches {
                    for p in 0..self.config.middle_switches {
                        let depth = switch.egress_depth(p) as u64;
                        if depth == 0 {
                            continue;
                        }
                        if let Some(&(e, _, _)) = f
                            .dead_paths
                            .iter()
                            .find(|&&(_, sw, w)| sw == p && w.contains(self.clock))
                        {
                            merged[e].stranded_cells += depth;
                        }
                    }
                }
            }
            FaultLedger::from_events(&plan.events, &merged)
        });
        let refused = faults.as_ref().map_or(0, |l| l.refused_cells);
        let lost_cells = buffer_lost + link_dropped_cells + refused;
        // Probe assembly, once after the run; `None` (and absent from the
        // serialized report) unless `arm_obs` armed probes.
        let obs = self.obs.as_ref().map(|oc| {
            let latency = if oc.latency_hist {
                let mut merged: Option<Log2Histogram> = None;
                for switch in &self.egress.switches {
                    if let Some(hist) = switch.merged_latency_hist() {
                        merged.get_or_insert_with(Log2Histogram::new).merge(&hist);
                    }
                }
                merged.as_ref().map(HistogramReport::from_hist)
            } else {
                None
            };
            let stage_obs = |stage: &Stage<B>| {
                let probes = stage.obs.as_ref();
                ClosStageObsReport {
                    stage: stage.stage.label(),
                    voq_backlog: probes
                        .and_then(|o| o.voq_backlog.as_ref())
                        .map(HistogramReport::from_hist),
                    link_occupancy: probes
                        .and_then(|o| o.link_occupancy.as_ref())
                        .map(HistogramReport::from_hist),
                    series: probes
                        .and_then(|o| o.series.as_ref())
                        .map(SeriesReport::from_ring),
                }
            };
            let trace = oc.trace_enabled().then(|| {
                let mut dropped = 0;
                let mut parts = Vec::new();
                for stage in [&self.ingress, &self.middle, &self.egress] {
                    if let Some(rec) = stage.obs.as_ref().and_then(|o| o.recorder.as_ref()) {
                        dropped += rec.dropped();
                        parts.push(rec.events().to_vec());
                    }
                }
                if let Some(plan) = self.plan.as_ref() {
                    parts.push(self.fault_trace_events(plan));
                }
                TraceReport {
                    dropped,
                    events: merge_events(parts),
                }
            });
            ClosObsReport {
                latency,
                stages: vec![
                    stage_obs(&self.ingress),
                    stage_obs(&self.middle),
                    stage_obs(&self.egress),
                ],
                trace,
            }
        });
        ClosRunReport {
            radix: config.radix,
            ingress_switches: config.ingress_switches,
            middle_switches: config.middle_switches,
            external_ports: ext,
            dispatch: config.dispatch.label(),
            discipline: if self.plan.as_ref().is_some_and(FaultPlan::has_drop_on_full) {
                "drop-on-full"
            } else {
                "credit"
            },
            arbiter: stages[0].switches.first().map_or("islip", |r| r.arbiter),
            link_capacity: config.link_capacity,
            link_latency: config.link_latency,
            slots: self.clock,
            active_slots,
            arrivals,
            delivered,
            lost_cells,
            link_dropped_cells,
            resident_cells,
            link_resident_cells,
            reordered_cells,
            reordered_flows,
            active_flows,
            credit_stall_slots: stages.iter().map(|s| s.credit_stall_slots).sum(),
            peak_link_depth: stages.iter().map(|s| s.peak_link_depth).max().unwrap_or(0),
            mean_latency_slots,
            max_latency_slots,
            zero_loss: lost_cells == 0,
            stages,
            arrivals_matrix: self.ingress.offered_matrix.clone(),
            delivered_matrix,
            faults,
            transport: None,
            obs,
        }
    }

    /// Synthesizes fault-window open/close markers for the flight-recorder
    /// timeline: one `fault-open` at each event's start slot and, for bounded
    /// windows, one `fault-close` at its end. Locations map onto the
    /// stage/switch/port scheme of the real events; flow fields are zero.
    #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
    fn fault_trace_events(&self, plan: &FaultPlan) -> Vec<TraceEvent> {
        let radix = self.config.radix as u32;
        let mut events = Vec::new();
        for fe in &plan.events {
            let (stage, switch, port) = match fe.kind {
                FaultKind::MiddleDeath { switch } => (1, switch as u32, 0),
                FaultKind::LinkFlap {
                    boundary,
                    switch,
                    output,
                } => {
                    let stage = match boundary {
                        LinkBoundary::IngressMiddle => 0,
                        LinkBoundary::MiddleEgress => 1,
                    };
                    (stage, switch as u32, output as u32)
                }
                FaultKind::EgressSlowdown { port, .. } => {
                    (2, port as u32 / radix, port as u32 % radix)
                }
                FaultKind::IngressPortDeath { port } => {
                    (0, port as u32 / radix, port as u32 % radix)
                }
                FaultKind::DropOnFull => (0, 0, 0),
            };
            let mark = |slot, kind| TraceEvent {
                slot,
                kind,
                stage,
                switch,
                port,
                src: 0,
                dest: 0,
                seq: 0,
            };
            events.push(mark(fe.start, EventKind::FaultOpen));
            if let Some(d) = fe.duration {
                events.push(mark(fe.start + d, EventKind::FaultClose));
            }
        }
        events
    }
}

/// One stage's outcome: its switches' full [`FabricRunReport`]s plus the
/// stage's inbound-link and credit accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClosStageReport {
    /// Stage label ("ingress" / "middle" / "egress").
    pub stage: &'static str,
    /// Mean crossbar utilisation over the stage's switches (active phase).
    pub crossbar_utilization: f64,
    /// Cells still sitting in this stage's inbound link FIFOs (0 after a
    /// completed drain).
    pub link_resident_cells: u64,
    /// Cells discarded at this stage's full inbound links (a `DropOnFull`
    /// fault only; always 0 under credit flow control).
    pub link_dropped_cells: u64,
    /// Deepest any of this stage's inbound link FIFOs has been.
    pub peak_link_depth: u64,
    /// Output-slots in which a queued cell sat gated awaiting a credit.
    pub credit_stall_slots: u64,
    /// Per-switch reports, in switch order.
    pub switches: Vec<FabricRunReport>,
}

/// Serializable per-stage time-series: the columnar samples of one
/// [`SeriesRing`]. Sample `i` covers the `stride` slots ending at
/// `slots[i]`: `transmitted` and `stalls` accumulate over the window,
/// `occupancy` is read at the sample slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SeriesReport {
    /// Slots between samples.
    pub stride: u64,
    /// Samples lost after the preallocated ring filled.
    pub dropped: u64,
    /// Sample slots, ascending.
    pub slots: Vec<u64>,
    /// Cells the stage transmitted during each sample window.
    pub transmitted: Vec<u64>,
    /// Stage occupancy (VOQ + egress-FIFO + inbound-link cells) at each
    /// sample slot.
    pub occupancy: Vec<u64>,
    /// Credit-stall output-slots accumulated during each sample window.
    pub stalls: Vec<u64>,
}

impl SeriesReport {
    #[expect(clippy::disallowed_methods, reason = "report, not the slot loop")]
    fn from_ring(ring: &SeriesRing) -> Self {
        let samples = ring.samples();
        SeriesReport {
            stride: ring.stride(),
            dropped: ring.dropped(),
            slots: samples.iter().map(|s| s.slot).collect(),
            transmitted: samples.iter().map(|s| s.transmitted).collect(),
            occupancy: samples.iter().map(|s| s.occupancy).collect(),
            stalls: samples.iter().map(|s| s.stalls).collect(),
        }
    }
}

/// One stage's observability outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClosStageObsReport {
    /// Stage label ("ingress" / "middle" / "egress").
    pub stage: &'static str,
    /// VOQ backlog depth histogram (recorded at every enqueue); present
    /// only when the occupancy probes were armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub voq_backlog: Option<HistogramReport>,
    /// Outbound link occupancy histogram (recorded at every transmit onto
    /// a link); absent at the egress stage, which has no outbound links.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub link_occupancy: Option<HistogramReport>,
    /// Slot-sampled throughput/occupancy/stall series, when armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub series: Option<SeriesReport>,
}

/// The merged flight-recorder timeline of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Events that passed the filters after a stage's ring filled.
    pub dropped: u64,
    /// The merged timeline, ordered by [`TraceEvent::sort_key`] — a total
    /// order, so the dump does not depend on the order the per-stage
    /// recorders are merged in. Render it as
    /// Chrome trace-event JSON with [`obs::chrome_trace_json`].
    pub events: Vec<TraceEvent>,
}

/// [`TraceEvent`] lives in the zero-dependency `obs` crate and cannot derive
/// there, so its serde wiring — and that of the [`TraceReport`] holding it —
/// is written by hand here.
struct SerTraceEvent<'a>(&'a TraceEvent);

impl Serialize for SerTraceEvent<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let ev = self.0;
        let mut st = serializer.serialize_struct("TraceEvent", 8)?;
        st.serialize_field("event", ev.kind.name())?;
        st.serialize_field("slot", &ev.slot)?;
        st.serialize_field("stage", &ev.stage)?;
        st.serialize_field("switch", &ev.switch)?;
        st.serialize_field("port", &ev.port)?;
        st.serialize_field("src", &ev.src)?;
        st.serialize_field("dest", &ev.dest)?;
        st.serialize_field("seq", &ev.seq)?;
        st.end()
    }
}

struct SerTraceEvents<'a>(&'a [TraceEvent]);

impl Serialize for SerTraceEvents<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq as _;
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for ev in self.0 {
            seq.serialize_element(&SerTraceEvent(ev))?;
        }
        seq.end()
    }
}

impl Serialize for TraceReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("TraceReport", 2)?;
        st.serialize_field("dropped", &self.dropped)?;
        st.serialize_field("events", &SerTraceEvents(&self.events))?;
        st.end()
    }
}

/// The observability section of a [`ClosRunReport`]; present only when
/// [`ClosFabric::arm_obs`] armed probes for the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClosObsReport {
    /// External end-to-end latency histogram merged over every egress
    /// output line, when the latency probes were armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency: Option<HistogramReport>,
    /// Per-stage probes: ingress, middle, egress.
    pub stages: Vec<ClosStageObsReport>,
    /// The merged flight-recorder timeline, when the recorder was armed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceReport>,
}

/// The result of one whole Clos run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClosRunReport {
    /// Radix `N` of the ingress/egress switches.
    pub radix: usize,
    /// Number `r` of ingress (= egress) switches.
    pub ingress_switches: usize,
    /// Number `m` of middle switches.
    pub middle_switches: usize,
    /// External port count `r·N`.
    pub external_ports: usize,
    /// Dispatch policy label ("spray" / "flowhash").
    pub dispatch: &'static str,
    /// Link discipline label: "credit", or "drop-on-full" when a
    /// `DropOnFull` fault disabled credit flow control for the run.
    pub discipline: &'static str,
    /// Arbiter label ("islip" / "maximal").
    pub arbiter: &'static str,
    /// Credits (= FIFO capacity) per inter-stage link.
    pub link_capacity: usize,
    /// One-way inter-stage link latency, slots.
    pub link_latency: u64,
    /// Slots simulated, including the drain phase.
    pub slots: u64,
    /// Slots of the live-arrival phase.
    pub active_slots: u64,
    /// Cells offered across every external ingress line.
    pub arrivals: u64,
    /// Cells transmitted on the external output lines.
    pub delivered: u64,
    /// Cells lost anywhere: buffer drops + misses + order violations over
    /// every switch of every stage, plus dropped link cells and cells
    /// refused at dead external ingress lines.
    pub lost_cells: u64,
    /// Cells discarded at full inter-stage links (a `DropOnFull` fault
    /// only).
    pub link_dropped_cells: u64,
    /// Cells still resident in some buffer when the run ended (residual
    /// partial tail batches — never lost).
    pub resident_cells: u64,
    /// Cells still sitting on inter-stage links when the run ended.
    pub link_resident_cells: u64,
    /// Delivered cells that overtook an earlier cell of their flow.
    pub reordered_cells: u64,
    /// Flows with at least one reordered delivery.
    pub reordered_flows: u64,
    /// (src, dest) pairs that offered at least one cell.
    pub active_flows: u64,
    /// Output-slots in which a queued cell sat gated awaiting a credit
    /// (summed over the ingress and middle stages — the backpressure at
    /// work).
    pub credit_stall_slots: u64,
    /// Deepest any inter-stage link FIFO has been (bounded by
    /// `link_capacity` under credit flow control — checked by tests).
    pub peak_link_depth: u64,
    /// Mean external end-to-end latency over delivered cells, slots.
    pub mean_latency_slots: f64,
    /// Largest external end-to-end latency observed, slots.
    pub max_latency_slots: u64,
    /// Whether no cell was lost anywhere in the fabric.
    pub zero_loss: bool,
    /// Per-stage reports: ingress, middle, egress.
    pub stages: Vec<ClosStageReport>,
    /// Row-major `ext × ext`: cells offered from external src to dest.
    pub arrivals_matrix: Vec<u64>,
    /// Row-major `ext × ext`: cells delivered from external src to dest.
    pub delivered_matrix: Vec<u64>,
    /// The per-fault ledger; `None` when no fault plan was armed (and the
    /// field is then omitted from the serialized report, keeping
    /// fault-free reports byte-identical to pre-fault-framework output).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultLedger>,
    /// The end-to-end transport report; `None` on open-loop runs (and the
    /// field is then omitted from the serialized report, keeping open-loop
    /// reports byte-identical to pre-transport output).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub transport: Option<TransportReport>,
    /// Observability probes' outcome; present only when
    /// [`ClosFabric::arm_obs`] armed probes for the run (and omitted from
    /// serialization otherwise, keeping uninstrumented reports
    /// byte-identical to the pre-obs schema).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs: Option<ClosObsReport>,
}

impl ClosRunReport {
    /// Renders the flight-recorder timeline as Chrome trace-event JSON
    /// (load it at `chrome://tracing` or in Perfetto), or `None` when no
    /// recorder was armed for the run.
    pub fn trace_json(&self) -> Option<String> {
        let trace = self.obs.as_ref()?.trace.as_ref()?;
        Some(obs::chrome_trace_json(&trace.events))
    }

    /// Checks cell conservation fabric-wide, across every hand-off:
    ///
    /// * every switch of every stage balances via
    ///   [`FabricRunReport::conservation_deficit`], and the deficits —
    ///   cells a dead switch froze in its egress FIFOs — sum to exactly
    ///   the fault ledger's stranded count (0 with no ledger);
    /// * per flow, deliveries never exceed offers;
    /// * every dropped link cell appears in the fault ledger — a
    ///   **silently** dropped cell (lost without a ledger entry) breaks
    ///   the check, by design;
    /// * at each stage boundary, upstream transmissions equal downstream
    ///   switch arrivals plus cells still on the links plus ledgered link
    ///   drops at that boundary;
    /// * fabric-wide, external arrivals = delivered + buffer residents +
    ///   buffer drops + link residents + **stranded + refused + dropped
    ///   per the fault ledger** — the degraded-mode conservation law: a
    ///   faulted run conserves iff every missing cell is accounted.
    pub fn conservation_holds(&self) -> bool {
        let [ingress, middle, egress] = &self.stages[..] else {
            return false;
        };
        let (stranded, refused, ledger_dropped) = self.faults.as_ref().map_or((0, 0, 0), |l| {
            (l.stranded_cells, l.refused_cells, l.dropped_cells)
        });
        let mut deficits = 0u64;
        let switches_ok = self.stages.iter().flat_map(|s| s.switches.iter()).all(|r| {
            match r.conservation_deficit() {
                Some(d) => {
                    deficits += d;
                    true
                }
                None => false,
            }
        });
        let flows_ok = self
            .delivered_matrix
            .iter()
            .zip(&self.arrivals_matrix)
            .all(|(d, a)| d <= a);
        let boundary = |up: &ClosStageReport, down: &ClosStageReport| {
            let sent: u64 = up.switches.iter().map(|r| r.transmitted).sum();
            let received: u64 = down.switches.iter().map(|r| r.arrivals).sum();
            sent == received + down.link_resident_cells + down.link_dropped_cells
        };
        let delivered: u64 = egress.switches.iter().map(|r| r.transmitted).sum();
        let buffer_drops: u64 = self
            .stages
            .iter()
            .flat_map(|s| s.switches.iter().flat_map(|r| r.per_port.iter()))
            .map(|p| p.stats.drops)
            .sum();
        switches_ok
            && deficits == stranded
            && ledger_dropped == self.link_dropped_cells
            && flows_ok
            && boundary(ingress, middle)
            && boundary(middle, egress)
            && delivered == self.delivered
            && self.arrivals
                == self.delivered
                    + self.resident_cells
                    + buffer_drops
                    + self.link_resident_cells
                    + stranded
                    + refused
                    + ledger_dropped
    }

    /// Checks end-to-end conservation of the reliable transport — the
    /// retry-loop identity nesting [`ClosRunReport::conservation_holds`]
    /// one level up:
    ///
    /// * `injected = acked + in_flight + retransmissions_outstanding +
    ///   gave_up` — every fresh cell is accounted at the sources;
    /// * `acked = delivered_unique` — every unique delivery acked exactly
    ///   once, no ack invented;
    /// * fabric `delivered = delivered_unique + duplicates_filtered` — the
    ///   sink saw every delivered copy;
    /// * `duplicate_deliveries == 0` — exactly-once delivery;
    /// * `duplicates_filtered ≤ retransmitted ≤ timeouts` — every duplicate
    ///   copy traces to a retransmission and every retransmission to a
    ///   fired timer.
    ///
    /// Returns `false` on an open-loop report (no transport to conserve).
    pub fn transport_conservation_holds(&self) -> bool {
        let Some(t) = self.transport.as_ref() else {
            return false;
        };
        t.injected_cells
            == t.acked_cells
                + t.in_flight_at_end
                + t.retransmissions_outstanding_at_end
                + t.gave_up_cells
            && t.acked_cells == t.delivered_unique
            && self.delivered == t.delivered_unique + t.duplicates_filtered
            && t.duplicate_deliveries == 0
            && t.duplicates_filtered <= t.retransmitted_cells
            && t.retransmitted_cells <= t.timeouts_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, LinkBoundary};
    use pktbuf::RadsBuffer;
    use pktbuf_model::RadsConfig;
    use traffic::{stream_seed, BurstyArrivals, UniformArrivals};

    /// RADS buffers sized for whichever stage asks: `N` VOQs at the edges,
    /// `r` in the middle.
    fn rads_builder(config: ClosConfig) -> impl FnMut(ClosStage) -> RadsBuffer {
        move |stage| {
            let num_queues = match stage {
                ClosStage::Middle => config.ingress_switches,
                ClosStage::Ingress | ClosStage::Egress => config.radix,
            };
            RadsBuffer::new(RadsConfig {
                num_queues,
                granularity: 4,
                lookahead: None,
            })
        }
    }

    fn clos(config: ClosConfig) -> ClosFabric<RadsBuffer> {
        ClosFabric::new(config, rads_builder(config))
    }

    fn uniform(config: &ClosConfig, load: f64, seed: u64) -> Vec<UniformArrivals> {
        let ext = config.external_ports();
        (0..ext)
            .map(|g| UniformArrivals::new(ext, load, stream_seed(seed, g as u64)))
            .collect()
    }

    #[test]
    fn spray_clos_delivers_every_cell() {
        let config = ClosConfig::new(4, 4, 4);
        let mut fabric = clos(config);
        let report = fabric.run(&mut uniform(&config, 0.7, 11), 3_000, 1);
        assert!(report.zero_loss, "lost {} cells", report.lost_cells);
        assert!(report.conservation_holds(), "{report:?}");
        assert!(report.arrivals > 5_000);
        assert_eq!(report.delivered + report.resident_cells, report.arrivals);
        assert_eq!(report.link_resident_cells, 0, "links drain empty");
        assert_eq!(report.external_ports, 16);
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages[0].switches.len(), 4);
        assert_eq!(report.stages[1].switches.len(), 4);
        assert_eq!(report.stages[2].switches.len(), 4);
        assert!(report.peak_link_depth <= config.link_capacity as u64);
        assert!(report.mean_latency_slots > 0.0);
        assert!(report.max_latency_slots >= 4, "three hops plus two links");
        assert_eq!(report.arrivals_matrix.iter().sum::<u64>(), report.arrivals);
        assert_eq!(
            report.delivered_matrix.iter().sum::<u64>(),
            report.delivered
        );
        assert!(report.active_flows > 200);
    }

    #[test]
    fn every_schedule_is_byte_identical_to_the_reference() {
        // Bursty arrivals with long gaps make many chunks pure-idle for the
        // driver's fast-forward; the reference steps every one of them.
        for dispatch in [DispatchPolicy::Spray, DispatchPolicy::FlowHash] {
            let mut config = ClosConfig::new(3, 3, 2);
            config.dispatch = dispatch;
            config.link_capacity = 2;
            let generators = || {
                let ext = config.external_ports();
                (0..ext)
                    .map(|g| BurstyArrivals::new(ext, 12.0, 500.0, stream_seed(5, g as u64)))
                    .collect::<Vec<_>>()
            };
            let reference = clos(config).run_reference(&mut generators(), 5_000);
            let report = clos(config).run(&mut generators(), 5_000, 1);
            assert_eq!(report, reference, "dispatch={} diverged", dispatch.label());
            assert!(reference.zero_loss);
            assert!(reference.conservation_holds());
        }
    }

    #[test]
    fn flowhash_pinning_never_reorders() {
        let mut config = ClosConfig::new(4, 3, 4);
        config.dispatch = DispatchPolicy::FlowHash;
        let mut fabric = clos(config);
        let report = fabric.run(&mut uniform(&config, 0.85, 23), 4_000, 1);
        assert!(report.zero_loss);
        assert!(report.conservation_holds());
        assert_eq!(report.reordered_cells, 0, "pinned flows cannot race");
        assert_eq!(report.reordered_flows, 0);
    }

    #[test]
    fn spraying_reorders_contended_flows_and_reports_it() {
        let mut config = ClosConfig::new(4, 3, 4);
        config.link_capacity = 2;
        let mut fabric = clos(config);
        let report = fabric.run(&mut uniform(&config, 0.95, 23), 4_000, 1);
        assert!(report.zero_loss);
        assert!(report.conservation_holds());
        assert!(
            report.reordered_cells > 0,
            "sprayed cells race over unevenly loaded middle switches: {report:?}"
        );
        assert!(report.reordered_flows > 0);
    }

    #[test]
    fn undersized_credit_links_throttle_but_never_drop() {
        let mut config = ClosConfig::new(3, 3, 3);
        // One credit against a 2-slot round trip: every link is throttled
        // to half rate, so backpressure must do real work.
        config.link_capacity = 1;
        let mut fabric = clos(config);
        let report = fabric.run(&mut uniform(&config, 0.9, 7), 3_000, 1);
        assert!(
            report.zero_loss,
            "credits may stall, never lose: {report:?}"
        );
        assert!(report.conservation_holds());
        assert_eq!(report.link_dropped_cells, 0);
        assert!(report.peak_link_depth <= 1);
        assert!(
            report.credit_stall_slots > 0,
            "an undersized link must visibly stall: {report:?}"
        );
    }

    fn faulted(config: ClosConfig, plan: &FaultPlan) -> ClosFabric<RadsBuffer> {
        let mut fabric = clos(config);
        fabric.arm_faults(plan);
        fabric
    }

    #[test]
    fn drop_on_full_loses_cells_and_only_the_ledger_explains_them() {
        let mut config = ClosConfig::new(3, 3, 2);
        // A link holds wire cells and queued cells alike, so a capacity
        // smaller than the wire latency cannot even cover the cells in
        // flight at line rate: overflow — and loss — is guaranteed.
        config.link_capacity = 1;
        config.link_latency = 4;
        let plan = FaultPlan::new([FaultEvent::permanent(FaultKind::DropOnFull, 0)]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.95, 3), 3_000, 1);
        assert!(report.link_dropped_cells > 0, "{report:?}");
        assert!(!report.zero_loss);
        assert_eq!(report.discipline, "drop-on-full");
        let ledger = report.faults.as_ref().expect("armed runs carry a ledger");
        assert_eq!(ledger.dropped_cells, report.link_dropped_cells);
        assert!(
            report.conservation_holds(),
            "ledgered drops are accounted loss: {report:?}"
        );
        // Strip the ledger and the same drops become *silent* loss — the
        // conservation checker must refuse them (the PR 7 guarantee).
        let mut silent = report.clone();
        silent.faults = None;
        assert!(
            !silent.conservation_holds(),
            "silent link drops must be detected as a conservation break"
        );
        let mut tampered = report.clone();
        if let Some(l) = tampered.faults.as_mut() {
            l.dropped_cells -= 1;
        }
        assert!(
            !tampered.conservation_holds(),
            "undercounted drops detected"
        );
        // Drop decisions read physical FIFO occupancy; the differential
        // guarantee must hold for lossy links too.
        let reference = faulted(config, &plan).run_reference(&mut uniform(&config, 0.95, 3), 3_000);
        assert_eq!(reference, report, "lossy runs must stay schedule-invariant");
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_an_unarmed_run() {
        let config = ClosConfig::new(3, 3, 3);
        let baseline = clos(config).run(&mut uniform(&config, 0.7, 9), 1_500, 1);
        let mut armed = clos(config);
        armed.arm_faults(&FaultPlan::none());
        let report = armed.run(&mut uniform(&config, 0.7, 9), 1_500, 1);
        assert_eq!(report, baseline);
        assert!(report.faults.is_none());
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("\"faults\""),
            "fault-free reports must not carry a ledger field"
        );
        assert_eq!(json, serde_json::to_string(&baseline).unwrap());
    }

    #[test]
    fn middle_death_reroutes_and_strands_nothing_after_revival() {
        // Kill middle switch 1 for a window in the middle of the run: the
        // occupancy-aware spray must steer every new cell around it, the
        // frozen cells must resume on revival, and the run must end with
        // zero loss and full conservation.
        let config = ClosConfig::new(4, 4, 4);
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 1 },
            1_000,
            600,
        )]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.7, 11), 3_000, 1);
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        let ledger = report.faults.as_ref().unwrap();
        assert_eq!(ledger.stranded_cells, 0, "revived switch must drain");
        assert!(
            ledger.stalled_cell_slots > 0,
            "cells caught in the dead switch's links must be accounted"
        );
        assert!(report.delivered > 5_000, "traffic must keep flowing");
        let reference = faulted(config, &plan).run_reference(&mut uniform(&config, 0.7, 11), 3_000);
        assert_eq!(reference, report);
    }

    #[test]
    fn permanent_middle_death_strands_ledgered_cells() {
        let config = ClosConfig::new(4, 4, 4);
        let plan = FaultPlan::new([FaultEvent::permanent(
            FaultKind::MiddleDeath { switch: 2 },
            800,
        )]);
        let reference = {
            let mut fabric = faulted(config, &plan);
            fabric.run_reference(&mut uniform(&config, 0.7, 11), 2_500)
        };
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.7, 11), 2_500, 1);
        assert_eq!(report, reference);
        let ledger = reference.faults.as_ref().unwrap();
        // The cells granted into the dead switch's egress FIFOs before the
        // death froze in place; conservation must hold with them accounted
        // as stranded (not lost — recoverable on repair).
        assert!(reference.conservation_holds(), "{reference:?}");
        assert!(reference.zero_loss, "stranding is not loss");
        assert!(reference.delivered > 4_000, "the fabric degrades, not dies");
        let resident_everywhere =
            reference.resident_cells + reference.link_resident_cells + ledger.stranded_cells;
        assert_eq!(
            reference.arrivals,
            reference.delivered + resident_everywhere,
            "every undelivered cell sits in an accounted bucket"
        );
        // Spray never targets the dead path: after the death slot the dead
        // switch accepts nothing, so its report stops growing; tampering
        // with the stranded count must break conservation.
        let mut tampered = reference.clone();
        if let Some(l) = tampered.faults.as_mut() {
            l.stranded_cells += 1;
        }
        assert!(!tampered.conservation_holds());
    }

    #[test]
    fn flowhash_fails_over_around_a_dead_middle() {
        let mut config = ClosConfig::new(4, 3, 4);
        config.dispatch = DispatchPolicy::FlowHash;
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 0 },
            500,
            1_000,
        )]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.8, 23), 3_000, 1);
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        assert_eq!(report.faults.as_ref().unwrap().stranded_cells, 0);
        // Failover re-pins flows at the window edges; only cells caught in
        // flight across those two edges may reorder, so the count stays a
        // small fraction of the traffic.
        assert!(
            report.reordered_cells * 10 <= report.delivered,
            "failover reordering must stay bounded: {} of {}",
            report.reordered_cells,
            report.delivered
        );
    }

    #[test]
    fn link_flap_stalls_and_recovers_without_loss() {
        let config = ClosConfig::new(3, 3, 3);
        let plan = FaultPlan::new([
            FaultEvent::windowed(
                FaultKind::LinkFlap {
                    boundary: LinkBoundary::IngressMiddle,
                    switch: 0,
                    output: 2,
                },
                400,
                300,
            ),
            FaultEvent::windowed(
                FaultKind::LinkFlap {
                    boundary: LinkBoundary::MiddleEgress,
                    switch: 1,
                    output: 1,
                },
                900,
                200,
            ),
        ]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.8, 7), 2_500, 1);
        assert!(report.zero_loss, "flaps stall, never drop: {report:?}");
        assert!(report.conservation_holds());
        let ledger = report.faults.as_ref().unwrap();
        assert_eq!(ledger.stranded_cells, 0, "flapped cells recover");
        assert_eq!(ledger.dropped_cells, 0);
        assert!(
            ledger.events.iter().all(|e| e.stalled_cell_slots > 0),
            "each flap's added latency must be accounted: {ledger:?}"
        );
        let reference = faulted(config, &plan).run_reference(&mut uniform(&config, 0.8, 7), 2_500);
        assert_eq!(reference, report);
    }

    #[test]
    fn egress_slowdown_degrades_measurably_but_conserves() {
        let config = ClosConfig::new(3, 3, 3);
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::EgressSlowdown { port: 4, factor: 4 },
            200,
            1_500,
        )]);
        let healthy = clos(config).run(&mut uniform(&config, 0.8, 5), 2_000, 1);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.8, 5), 2_000, 1);
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        let ledger = report.faults.as_ref().unwrap();
        assert!(
            ledger.slowed_slots > 0,
            "the degraded window must be observed: {ledger:?}"
        );
        assert!(
            report.max_latency_slots > healthy.max_latency_slots,
            "a throttled output line must show up as added latency"
        );
    }

    #[test]
    fn ingress_port_death_refuses_and_accounts_cells() {
        let config = ClosConfig::new(3, 3, 3);
        let plan = FaultPlan::new([FaultEvent::permanent(
            FaultKind::IngressPortDeath { port: 4 },
            500,
        )]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.8, 13), 2_000, 1);
        let ledger = report.faults.as_ref().unwrap();
        assert!(ledger.refused_cells > 0, "{ledger:?}");
        assert!(!report.zero_loss, "refused cells are accounted loss");
        assert_eq!(report.lost_cells, ledger.refused_cells);
        assert!(
            report.conservation_holds(),
            "refusals are ledgered, so conservation holds: {report:?}"
        );
        let mut tampered = report.clone();
        if let Some(l) = tampered.faults.as_mut() {
            l.refused_cells -= 1;
        }
        assert!(!tampered.conservation_holds());
        let reference = faulted(config, &plan).run_reference(&mut uniform(&config, 0.8, 13), 2_000);
        assert_eq!(reference, report);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn arming_a_plan_that_does_not_fit_the_geometry_panics() {
        let config = ClosConfig::new(3, 3, 2);
        let mut fabric = clos(config);
        fabric.arm_faults(&FaultPlan::new([FaultEvent::permanent(
            FaultKind::MiddleDeath { switch: 2 },
            0,
        )]));
    }

    #[test]
    fn conservation_checker_rejects_tampered_reports() {
        let config = ClosConfig::new(3, 3, 3);
        let mut fabric = clos(config);
        let report = fabric.run(&mut uniform(&config, 0.6, 9), 1_500, 1);
        assert!(report.conservation_holds());
        let mut tampered = report.clone();
        tampered.delivered += 1;
        assert!(!tampered.conservation_holds());
        let mut tampered = report.clone();
        tampered.arrivals -= 1;
        assert!(!tampered.conservation_holds());
        let mut tampered = report;
        tampered.stages[1].link_resident_cells += 1;
        assert!(!tampered.conservation_holds());
    }

    #[test]
    fn link_latency_zero_is_normalized_to_one() {
        let mut config = ClosConfig::new(3, 3, 3);
        config.link_latency = 0;
        let fabric = clos(config);
        assert_eq!(fabric.config().link_latency, 1);
    }

    #[test]
    #[should_panic(expected = "link_capacity must be at most 4294967295")]
    fn link_capacity_above_the_credit_width_panics() {
        let mut config = ClosConfig::new(3, 3, 3);
        config.link_capacity = MAX_LINK_CAPACITY + 1;
        let _ = clos(config);
    }

    #[test]
    #[should_panic(expected = "link_latency must be at most 4294967296")]
    fn link_latency_above_its_bound_panics() {
        let mut config = ClosConfig::new(3, 3, 3);
        config.link_latency = u64::MAX;
        let _ = clos(config);
    }

    #[test]
    #[should_panic(expected = "middle switches")]
    fn more_middle_switches_than_radix_panics() {
        let config = ClosConfig::new(3, 3, 4);
        let _ = clos(config);
    }

    // ----- reliable transport (closed-loop) ---------------------------

    use traffic::{ClosedLoopConfig, ClosedLoopSource, DemandPattern, MatrixTrace};

    /// Cut-through RADS buffers (granularity 1): every accepted cell is
    /// requestable immediately. Closed-loop transport needs this — batched
    /// writeback (granularity > 1) parks sub-batch tails as permanent
    /// residents, which a reliable sender would retransmit until the stale
    /// copies themselves fill a DRAM batch.
    fn cutthrough(config: ClosConfig) -> ClosFabric<RadsBuffer> {
        ClosFabric::new(config, move |stage| {
            let num_queues = match stage {
                ClosStage::Middle => config.ingress_switches,
                ClosStage::Ingress | ClosStage::Egress => config.radix,
            };
            RadsBuffer::new(RadsConfig {
                num_queues,
                granularity: 1,
                lookahead: None,
            })
        })
    }

    fn sweep_sources(config: &ClosConfig, t: &TransportConfig) -> Vec<ClosedLoopSource> {
        let ext = config.external_ports();
        (0..ext)
            .map(|g| ClosedLoopSource::new(g as u32, ext, DemandPattern::Sweep, t.source_params()))
            .collect()
    }

    fn transport_clos(
        config: ClosConfig,
        t: &TransportConfig,
        plan: Option<&FaultPlan>,
    ) -> ClosFabric<RadsBuffer> {
        let mut fabric = cutthrough(config);
        if let Some(plan) = plan {
            fabric.arm_faults(plan);
        }
        fabric.enable_transport(*t);
        fabric
    }

    /// The CI-style death+flap plan scaled to the test geometry.
    fn death_and_flap_plan() -> FaultPlan {
        FaultPlan::new([
            FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 500, 800),
            FaultEvent::windowed(
                FaultKind::LinkFlap {
                    boundary: LinkBoundary::IngressMiddle,
                    switch: 2,
                    output: 1,
                },
                1_600,
                300,
            ),
        ])
    }

    #[test]
    fn fault_free_transport_run_conserves_end_to_end_and_is_schedule_invariant() {
        let config = ClosConfig::new(4, 4, 4);
        let t = TransportConfig::default();
        let reference = transport_clos(config, &t, None).run_transport(
            &mut sweep_sources(&config, &t),
            3_000,
            1,
        );
        let rt = reference.transport.as_ref().expect("transport report");
        assert!(rt.injected_cells > 1_000, "sources must offer real load");
        assert_eq!(rt.duplicate_deliveries, 0);
        assert_eq!(rt.gave_up_cells, 0, "nothing abandons without faults");
        assert_eq!(rt.in_flight_at_end, 0, "the tail lets every ack land");
        assert_eq!(rt.acked_cells, rt.injected_cells);
        assert!(reference.transport_conservation_holds(), "{rt:?}");
        assert!(reference.conservation_holds());
        assert!(reference.zero_loss);
    }

    #[test]
    fn transport_recovers_lost_cells_under_death_and_flap() {
        let config = ClosConfig::new(4, 4, 4);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 16,
                rto_cap: 256,
                ..ClosedLoopConfig::default()
            },
            ..TransportConfig::default()
        };
        let plan = death_and_flap_plan();
        let reference = transport_clos(config, &t, Some(&plan)).run_transport(
            &mut sweep_sources(&config, &t),
            3_000,
            1,
        );
        let rt = reference.transport.as_ref().unwrap();
        assert!(
            rt.timeouts_fired > 0 && rt.retransmitted_cells > 0,
            "the fault window must provoke retries: {rt:?}"
        );
        assert_eq!(rt.duplicate_deliveries, 0, "exactly-once delivery");
        assert_eq!(rt.gave_up_cells, 0, "finite faults: every cell recovers");
        assert_eq!(
            rt.acked_cells, rt.injected_cells,
            "every injected cell eventually delivered and acked"
        );
        assert!(reference.transport_conservation_holds(), "{rt:?}");
        assert!(reference.conservation_holds(), "fabric ledger still closes");
    }

    #[test]
    fn goodput_recovers_after_the_fault_window_closes() {
        let config = ClosConfig::new(4, 4, 4);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 16,
                rto_cap: 256,
                ..ClosedLoopConfig::default()
            },
            goodput_bucket: 250,
        };
        let plan = death_and_flap_plan();
        let baseline = transport_clos(config, &t, None).run_transport(
            &mut sweep_sources(&config, &t),
            4_000,
            1,
        );
        let faulted = transport_clos(config, &t, Some(&plan)).run_transport(
            &mut sweep_sources(&config, &t),
            4_000,
            1,
        );
        let recovery = crate::RecoveryReport::measure(&baseline, &faulted)
            .expect("both transport reports present, faulted run has finite windows");
        assert_eq!(
            recovery.fault_close_slot, 1_900,
            "last window closes at 1600+300"
        );
        assert!(
            recovery.recovered,
            "goodput must regain >=95% of baseline: {recovery:?}\nbase {:?}\nfaulted {:?}",
            baseline.transport.as_ref().unwrap().goodput,
            faulted.transport.as_ref().unwrap().goodput,
        );
        assert!(
            recovery.slots_to_recover.unwrap() <= 1_500,
            "recovery must be prompt: {recovery:?}"
        );
    }

    #[test]
    fn permanent_port_death_abandons_but_still_conserves() {
        let config = ClosConfig::new(3, 3, 3);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 8,
                rto_cap: 64,
                max_retries: 4,
                ..ClosedLoopConfig::default()
            },
            ..TransportConfig::default()
        };
        // A dead external ingress line refuses everything its source offers
        // (fresh copies and retries alike): the retry budget must run out
        // and the abandonment must be visible — yet accounted.
        let plan = FaultPlan::new([FaultEvent::permanent(
            FaultKind::IngressPortDeath { port: 4 },
            0,
        )]);
        let report = transport_clos(config, &t, Some(&plan)).run_transport(
            &mut sweep_sources(&config, &t),
            1_500,
            1,
        );
        let rt = report.transport.as_ref().unwrap();
        assert!(rt.gave_up_cells > 0, "the dead port's cells must abandon");
        assert_eq!(rt.duplicate_deliveries, 0);
        assert!(report.transport_conservation_holds(), "{rt:?}");
        assert!(report.conservation_holds());
        assert!(
            report.faults.as_ref().unwrap().refused_cells > 0,
            "every abandonment traces to ledgered refusals"
        );
    }

    #[test]
    fn incast_mode_synchronizes_retries_and_still_delivers_exactly_once() {
        let config = ClosConfig::new(3, 3, 3);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 16,
                rto_cap: 128,
                cwnd_max: 16,
                ..ClosedLoopConfig::default()
            },
            ..TransportConfig::default()
        };
        let ext = config.external_ports();
        let mut sources: Vec<ClosedLoopSource> = (0..ext)
            .map(|g| {
                ClosedLoopSource::new(
                    g as u32,
                    ext,
                    DemandPattern::Incast { target: 0 },
                    t.source_params(),
                )
            })
            .collect();
        // Slow the incast target to force timeout storms at the sources.
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::EgressSlowdown { port: 0, factor: 8 },
            200,
            1_000,
        )]);
        let report = transport_clos(config, &t, Some(&plan)).run_transport(&mut sources, 2_000, 1);
        let rt = report.transport.as_ref().unwrap();
        assert!(
            rt.timeouts_fired > 0,
            "a x8-slowed incast target must blow RTOs: {rt:?}"
        );
        assert_eq!(rt.duplicate_deliveries, 0);
        assert!(report.transport_conservation_holds(), "{rt:?}");
        assert!(report.conservation_holds());
        // All goodput lands on target 0's column of the delivered matrix.
        for src in 0..ext {
            for dest in 1..ext {
                assert_eq!(report.delivered_matrix[src * ext + dest], 0);
            }
        }
    }

    #[test]
    fn transport_off_runs_stay_byte_identical_and_carry_no_transport_field() {
        let config = ClosConfig::new(3, 3, 3);
        let baseline = clos(config).run(&mut uniform(&config, 0.7, 9), 1_500, 1);
        assert!(baseline.transport.is_none());
        assert!(!baseline.transport_conservation_holds());
        let json = serde_json::to_string(&baseline).unwrap();
        assert!(
            !json.contains("\"transport\""),
            "open-loop reports must not carry a transport field"
        );
    }

    #[test]
    fn recorded_transport_run_replays_bit_identically_through_an_open_loop_fabric() {
        let config = ClosConfig::new(3, 3, 3);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 16,
                rto_cap: 256,
                max_retries: 6,
                ..ClosedLoopConfig::default()
            },
            ..TransportConfig::default()
        };
        // The late port death leaves its source retrying into an otherwise
        // empty fabric, so the tail jumps from timer to timer.
        let plan = FaultPlan::new([
            FaultEvent::windowed(FaultKind::MiddleDeath { switch: 0 }, 400, 500),
            FaultEvent::permanent(FaultKind::IngressPortDeath { port: 4 }, 1_400),
        ]);
        let mut trace = MatrixTrace::new(0);
        let recorded = transport_clos(config, &t, Some(&plan)).run_transport_recorded(
            &mut sweep_sources(&config, &t),
            1_500,
            &mut trace,
        );
        assert!(recorded.transport_conservation_holds());
        assert!(recorded.transport.as_ref().unwrap().gave_up_cells > 0);
        assert!(
            recorded.slots > 1_500 + 256,
            "the tail waits out the timers"
        );
        assert_eq!(
            trace.len() as u64,
            recorded.slots,
            "every slot is recorded, the fast-forwarded ones as idle padding"
        );
        // Replay the exact arrival matrix open-loop through a fresh fabric
        // with the same plan: same offers, same deliveries, bit for bit.
        let mut replayed_fabric = cutthrough(config);
        replayed_fabric.arm_faults(&plan);
        let replayed = replayed_fabric.run(&mut trace.replay(), trace.len() as u64, 1);
        assert_eq!(replayed.arrivals_matrix, recorded.arrivals_matrix);
        assert_eq!(replayed.delivered_matrix, recorded.delivered_matrix);
        assert_eq!(replayed.arrivals, recorded.arrivals);
        assert_eq!(replayed.delivered, recorded.delivered);
        assert_eq!(replayed.reordered_cells, recorded.reordered_cells);
        assert_eq!(replayed.lost_cells, recorded.lost_cells);
        // The tail's timer fast-forward (`advance_idle` + `pad_idle`) against
        // a run that steps every one of those slots.
        let mut stepped_fabric = cutthrough(config);
        stepped_fabric.arm_faults(&plan);
        let stepped = stepped_fabric.run_reference(&mut trace.replay(), trace.len() as u64);
        assert_eq!(stepped, replayed);
        assert_eq!(stepped.faults, recorded.faults);
        assert_eq!(stepped.max_latency_slots, recorded.max_latency_slots);
        // And the recorded run itself matches the unrecorded twin.
        let unrecorded = transport_clos(config, &t, Some(&plan)).run_transport(
            &mut sweep_sources(&config, &t),
            1_500,
            1,
        );
        assert_eq!(unrecorded, recorded);
    }

    #[test]
    fn recorded_open_loop_matrix_replays_to_a_fully_identical_report() {
        let config = ClosConfig::new(3, 3, 2);
        let ext = config.external_ports();
        let mk = || -> Vec<UniformArrivals> { uniform(&config, 0.7, 21) };
        let direct = clos(config).run(&mut mk(), 2_000, 1);
        let trace = MatrixTrace::record(&mut mk(), 2_000);
        assert_eq!(trace.ports(), ext);
        let replayed = clos(config).run(&mut trace.replay(), 2_000, 1);
        assert_eq!(replayed, direct, "open-loop matrix replay is lossless");
    }

    // ----- occupancy-aware spray as a steady-state policy -------------

    #[test]
    fn occupancy_spray_differs_under_contention_but_conserves_and_spray_is_unchanged() {
        let mut config = ClosConfig::new(4, 4, 4);
        // Tight links make occupancy visible to the adaptive policy.
        config.link_capacity = 2;
        let bursty = |seed_off: u64| -> Vec<BurstyArrivals> {
            let ext = config.external_ports();
            (0..ext)
                .map(|g| BurstyArrivals::new(ext, 16.0, 4.0, stream_seed(31 + seed_off, g as u64)))
                .collect()
        };
        let spray = clos(config).run(&mut bursty(0), 3_000, 1);
        assert_eq!(spray.dispatch, "spray");

        let mut adaptive_config = config;
        adaptive_config.dispatch = DispatchPolicy::OccupancySpray;
        let adaptive = clos(adaptive_config).run(&mut bursty(0), 3_000, 1);
        assert_eq!(adaptive.dispatch, "occupancy-spray");
        assert!(adaptive.zero_loss, "{adaptive:?}");
        assert!(adaptive.conservation_holds());
        assert_eq!(adaptive.arrivals, spray.arrivals, "same offered load");
        assert_ne!(
            adaptive.delivered_matrix, spray.delivered_matrix,
            "under bursty contention the adaptive policy must actually steer"
        );
        // Differential guarantee: the default spray path is untouched by
        // the promotion — byte-identical to the skip-free reference.
        assert_eq!(spray, clos(config).run_reference(&mut bursty(0), 3_000));
        // The adaptive policy honours the same invariant.
        assert_eq!(
            adaptive,
            clos(adaptive_config).run_reference(&mut bursty(0), 3_000),
            "occupancy-spray must stay schedule-invariant"
        );
    }

    #[test]
    fn occupancy_spray_steers_around_a_dead_middle_like_spray_does() {
        let mut config = ClosConfig::new(4, 4, 4);
        config.dispatch = DispatchPolicy::OccupancySpray;
        let plan = FaultPlan::new([FaultEvent::windowed(
            FaultKind::MiddleDeath { switch: 1 },
            1_000,
            600,
        )]);
        let report = faulted(config, &plan).run(&mut uniform(&config, 0.7, 11), 3_000, 1);
        assert!(report.zero_loss, "{report:?}");
        assert!(report.conservation_holds());
        assert_eq!(report.faults.as_ref().unwrap().stranded_cells, 0);
    }

    #[test]
    #[should_panic(expected = "enable_transport must be called")]
    fn running_transport_without_enabling_it_panics() {
        let config = ClosConfig::new(3, 3, 3);
        let t = TransportConfig::default();
        let _ = clos(config).run_transport(&mut sweep_sources(&config, &t), 100, 1);
    }

    #[test]
    #[should_panic(expected = "drive this fabric with run_transport")]
    fn running_open_loop_on_a_transport_enabled_fabric_panics() {
        let config = ClosConfig::new(3, 3, 3);
        let mut fabric = transport_clos(config, &TransportConfig::default(), None);
        let _ = fabric.run(&mut uniform(&config, 0.5, 1), 100, 1);
    }

    #[test]
    #[should_panic(expected = "drive this fabric with run_transport")]
    fn running_the_reference_on_a_transport_enabled_fabric_panics() {
        let config = ClosConfig::new(3, 3, 3);
        let mut fabric = transport_clos(config, &TransportConfig::default(), None);
        let _ = fabric.run_reference(&mut uniform(&config, 0.5, 1), 100);
    }

    #[test]
    fn obs_off_is_byte_identical_to_an_unarmed_run() {
        let config = ClosConfig::new(3, 3, 3);
        let baseline = clos(config).run(&mut uniform(&config, 0.7, 9), 1_500, 1);
        let mut armed = clos(config);
        armed.arm_obs(&obs::ObsConfig::off());
        let report = armed.run(&mut uniform(&config, 0.7, 9), 1_500, 1);
        assert_eq!(report, baseline);
        assert!(report.obs.is_none());
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("\"obs\""),
            "uninstrumented reports must not carry an obs field"
        );
        assert_eq!(json, serde_json::to_string(&baseline).unwrap());
    }

    fn series_config() -> obs::ObsConfig {
        obs::ObsConfig {
            series_stride: 100,
            series_capacity: 64,
            ..obs::ObsConfig::standard()
        }
    }

    /// Ring capacities past `obs::MAX_SERIES_CAPACITY` /
    /// `obs::MAX_TRACE_CAPACITY` are clamped at arm time instead of
    /// overflowing the preallocation, and record what a ring sized for the
    /// run records.
    #[test]
    fn hostile_obs_capacities_are_clamped_at_arm_time() {
        let config = ClosConfig::new(3, 3, 2);
        let sized = obs::ObsConfig {
            series_stride: 1,
            series_capacity: 4_096,
            trace_capacity: 1 << 20,
            ..obs::ObsConfig::standard()
        };
        let hostile = obs::ObsConfig {
            series_capacity: usize::MAX,
            trace_capacity: usize::MAX,
            ..sized
        };
        let run = |oc: &obs::ObsConfig| {
            let mut fabric = clos(config);
            fabric.arm_obs(oc);
            fabric.run(&mut uniform(&config, 0.8, 13), 1_000, 1)
        };
        let reference = run(&sized);
        let report = run(&hostile);
        assert_eq!(report, reference);
        let trace = report.obs.as_ref().unwrap().trace.as_ref().unwrap();
        assert!(!trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn armed_probes_stay_schedule_invariant_and_report_real_measurements() {
        let config = ClosConfig::new(3, 3, 2);
        let armed = || {
            let mut fabric = clos(config);
            fabric.arm_obs(&series_config());
            fabric
        };
        let reference = armed().run_reference(&mut uniform(&config, 0.8, 13), 2_500);
        let report = armed().run(&mut uniform(&config, 0.8, 13), 2_500, 1);
        assert_eq!(report, reference);
        let obs = reference.obs.as_ref().expect("armed run reports probes");
        let latency = obs.latency.as_ref().expect("latency probes armed");
        assert_eq!(
            latency.count, reference.delivered,
            "every delivered cell is timed"
        );
        assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
        assert!(latency.p99 <= latency.max && latency.min <= latency.p50);
        assert_eq!(obs.stages.len(), 3);
        for (stage, label) in obs.stages.iter().zip(["ingress", "middle", "egress"]) {
            assert_eq!(stage.stage, label);
            let backlog = stage.voq_backlog.as_ref().expect("occupancy probes armed");
            assert!(backlog.count > 0, "{label} saw enqueues");
            assert!(backlog.min >= 1, "depth is recorded after the enqueue");
            let series = stage.series.as_ref().expect("series probes armed");
            assert_eq!(series.stride, 100);
            assert_eq!(series.dropped, 0);
            assert!(!series.slots.is_empty());
            assert!(series.slots.windows(2).all(|w| w[1] == w[0] + 100));
            assert!(series.transmitted.iter().sum::<u64>() > 0);
        }
        assert!(
            obs.stages[0].link_occupancy.is_some() && obs.stages[1].link_occupancy.is_some(),
            "forwarding stages watch their outbound links"
        );
        assert!(
            obs.stages[2].link_occupancy.is_none(),
            "the egress stage has no outbound links"
        );
        // Per-output percentiles ride along on the egress switch reports.
        let egress_out = &reference.stages[2].switches[0].per_output[0];
        assert!(egress_out.latency_p50_slots.is_some());
        assert!(reference.trace_json().is_none(), "no recorder armed");
    }

    #[test]
    fn flight_recorder_captures_the_death_and_flap_lifecycle() {
        let config = ClosConfig::new(4, 4, 4);
        let t = TransportConfig {
            sender: ClosedLoopConfig {
                rto_initial: 16,
                rto_cap: 256,
                ..ClosedLoopConfig::default()
            },
            ..TransportConfig::default()
        };
        let plan = death_and_flap_plan();
        let oc = obs::ObsConfig {
            trace_capacity: 1 << 20,
            ..series_config()
        };
        let mut fabric = transport_clos(config, &t, Some(&plan));
        fabric.arm_obs(&oc);
        let reference = fabric.run_transport(&mut sweep_sources(&config, &t), 3_000, 1);
        let obs_report = reference.obs.as_ref().unwrap();
        let trace = obs_report.trace.as_ref().expect("recorder armed");
        assert_eq!(trace.dropped, 0, "capacity covers the whole run");
        assert!(
            trace
                .events
                .windows(2)
                .all(|w| w[0].sort_key() <= w[1].sort_key()),
            "the merged timeline is totally ordered"
        );
        let count = |kind: EventKind| trace.events.iter().filter(|e| e.kind == kind).count();
        for kind in [
            EventKind::Inject,
            EventKind::VoqEnqueue,
            EventKind::Grant,
            EventKind::LinkTraverse,
            EventKind::Retransmit,
            EventKind::EgressTransmit,
        ] {
            assert!(count(kind) > 0, "missing {} events", kind.name());
        }
        let rt = reference.transport.as_ref().unwrap();
        // Every copy entering the fabric gets an inject event — fresh cells
        // and retransmitted copies alike.
        assert_eq!(
            count(EventKind::Inject) as u64,
            rt.injected_cells + rt.retransmitted_cells
        );
        assert_eq!(count(EventKind::Retransmit) as u64, rt.retransmitted_cells);
        let marks: Vec<(u64, EventKind)> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultOpen | EventKind::FaultClose))
            .map(|e| (e.slot, e.kind))
            .collect();
        assert_eq!(
            marks,
            vec![
                (500, EventKind::FaultOpen),
                (1_300, EventKind::FaultClose),
                (1_600, EventKind::FaultOpen),
                (1_900, EventKind::FaultClose),
            ],
            "fault windows bracket the timeline"
        );
        // The transport-layer latency histogram covers every acked cell —
        // including the retransmitted ones, whose recovery shows up as a
        // tail of at least one full RTO.
        let first = rt.first_injection_latency.as_ref().unwrap();
        assert_eq!(first.count, rt.acked_cells);
        assert!(
            first.max >= t.sender.rto_initial,
            "a retransmitted cell waited out at least one timer: {first:?}"
        );
        // And the whole thing renders as a Chrome trace.
        let json = reference.trace_json().expect("recorder armed");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"retransmit\"") && json.contains("\"fault-open\""));
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    }
}
