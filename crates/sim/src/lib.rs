//! Slot-level simulation engine, experiment scenarios and the technology
//! evaluation glue used by the benchmark harness.
//!
//! The crate has three roles:
//!
//! * [`SimulationEngine`] drives any [`pktbuf::PacketBuffer`] with an arrival
//!   and a request generator from the `traffic` crate, slot by slot, and
//!   produces a [`SimulationReport`] with the buffer's own statistics plus
//!   engine-level counters.
//! * [`scenario`] defines ready-made experiment scenarios (which design, which
//!   workload, how many slots, how much preload) so that examples, integration
//!   tests and the benchmark harness all run exactly the same code;
//!   [`experiment`] and [`lab`] sweep and run them (and the [`fabric`] and
//!   [`clos`] layers' scenarios) as declarative experiments.
//! * [`techeval`] combines the dimensioning formulas (`mma::sizing`,
//!   `cfds::sizing`) with the physical SRAM model (`cacti-lite`) to produce
//!   the area/access-time/delay numbers behind Figures 8, 10 and 11 and
//!   Table 2.
//!
//! # Example: one scenario
//!
//! ```
//! use sim::scenario::{DesignKind, Scenario, Workload};
//!
//! let scenario = Scenario {
//!     design: DesignKind::Cfds,
//!     workload: Workload::AdversarialRoundRobin,
//!     num_queues: 8,
//!     granularity: 2,
//!     rads_granularity: 8,
//!     num_banks: 16,
//!     preload_cells_per_queue: 32,
//!     arrival_slots: 0,
//!     seed: 1,
//!     ..Scenario::small_cfds()
//! };
//! let report = scenario.run();
//! assert!(report.stats.is_loss_free());
//! assert_eq!(report.stats.grants, 8 * 32);
//! ```
//!
//! # Example: a declarative experiment
//!
//! Experiments are *data*: an [`spec::ExperimentSpec`], written as a struct
//! literal over its `Default`, sweeps axes into a cartesian product of
//! scenarios and a [`lab::LabRunner`] expands and executes them on a thread
//! pool, deterministically.
//!
//! ```
//! use sim::lab::LabRunner;
//! use sim::scenario::{DesignKind, Workload};
//! use sim::spec::{ExperimentSpec, Sweep};
//!
//! let spec = ExperimentSpec {
//!     name: "doc-sweep".into(),
//!     designs: vec![DesignKind::Rads, DesignKind::Cfds],
//!     workloads: vec![Workload::AdversarialRoundRobin],
//!     num_queues: Sweep::list([4, 8]),
//!     granularity: Sweep::fixed(2),
//!     rads_granularity: Sweep::fixed(8),
//!     num_banks: Sweep::fixed(16),
//!     preload_cells_per_queue: 16,
//!     arrival_slots: 0,
//!     ..ExperimentSpec::default()
//! };
//! let report = LabRunner::new().run(&spec).unwrap();
//! assert_eq!(report.runs.len(), 4);
//! assert!(report.aggregate.all_loss_free);
//! ```
//!
//! # Adding a layer
//!
//! The single buffer ([`spec::ExperimentSpec`]), the `N×N` switch
//! ([`FabricSpec`]) and the three-stage Clos ([`ClosSpec`]) are one stack
//! applied three times: each is a spec struct implementing
//! [`experiment::Experiment`], and expansion, spec documents, run records,
//! reports and the runner are written once around that trait. A new layer is
//! a spec struct — `Default` (what an omitted key means),
//! `#[derive(Serialize, Deserialize)] #[serde(default, deny_unknown_fields)]`
//! — and the trait's items, nothing else:
//!
//! | Item | Says |
//! |------|------|
//! | `type Scenario`, `Report`, `Aggregate` | one run's parameters, one run's outcome, the statistics over all runs |
//! | `const KIND`, `RETIRED_KEYS` | the spec document's `"kind"` tag; keys older versions wrote (both optional) |
//! | `axes` | the product's axes, outermost first: list fields and [`Sweep`]s |
//! | `check` | a constraint on the spec as a whole (optional) |
//! | `has_cfds` | which designs the CFDS-only axes collapse for (optional) |
//! | `scenario_at` | the scenario at one point of the product |
//! | `validate` | whether that point is a configuration that can run |
//! | `run_scenario` | the run |
//! | `aggregate` | the statistics |
//! | `CSV_HEADER`, `csv_row` | the CSV columns |
//!
//! `LabRunner::run(&spec)`, `experiment::{expand, to_json, from_json}` and
//! `pktbuf-lab`'s `lab_command` then work on it unchanged.
//!
//! # Adding a design
//!
//! A buffer design is a [`scenario::DesignKind`] variant, one arm of the
//! crate-private `build_port` match that makes every switch and Clos port,
//! and one `fabric::PortBuffer` variant for mixed fabrics. The compiler
//! points at each — the new variant leaves the match non-exhaustive, and
//! its arm needs a `PortBuffer` conversion — and then at every other match
//! that names the designs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clos;
mod engine;
pub mod experiment;
pub mod fabric;
pub mod lab;
mod ports;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod techeval;

pub use crate::clos::{
    ClosLabReport, ClosScenario, ClosSpec, ObsScenario, TransportMode, TransportScenario,
};
pub use crate::fabric::{FabricScenario, FabricSpec};
pub use ::fabric::{
    FaultEvent, FaultKind, FaultLedger, FaultPlan, FaultPlanError, LinkBoundary, RecoveryReport,
    TransportConfig, TransportReport,
};
pub use engine::{workload_label, SimulationEngine, SimulationReport, CHUNK_SLOTS};
pub use lab::{ExperimentReport, LabRunner};
pub use spec::{ExperimentSpec, Sweep};
