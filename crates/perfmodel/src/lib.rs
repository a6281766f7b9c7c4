//! Workload characterization: the IPB / MSPI / RSPI model of paper §IV-E.
//!
//! The paper reasons about application suitability to RAMR with three
//! hardware-counter-derived metrics, all "only meaningful when used
//! comparatively":
//!
//! * **IPB** — instructions per input byte: workload intensity. Lightweight
//!   applications (low IPB) cannot amortize the decoupling's queue cost.
//! * **MSPI** — memory stalls per instruction (L1/L2-miss stall cycles).
//! * **RSPI** — resource stalls per instruction (full ROB, no eligible RS
//!   entry, full load/store buffer).
//!
//! Applications with sufficient IPB *and* frequent stalls are the good RAMR
//! candidates: the stalls indicate under-utilized hardware that a decoupled,
//! complementary map/combine pipeline can fill.
//!
//! The original metrics come from PMU counters on the two Intel machines.
//! This reproduction has no such hardware, so the crate computes the same
//! quantities **analytically** from a per-application [`WorkloadProfile`]
//! (dynamic instruction mix, memory references, working sets, access
//! patterns — all stated per element and auditable in
//! [`catalog::app_profile`]) evaluated against a
//! [`ramr_topology::MachineModel`]'s cache and bandwidth parameters. The
//! substitution preserves exactly what the paper uses the metrics for:
//! cross-application and cross-container *orderings*, which the test suite
//! pins to the paper's Fig 10 observations.
//!
//! The same profiles drive the `mrsim` performance model's per-element
//! timing, so Fig 10's characterization and Figs 4–9's runtimes share one
//! source of truth.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
mod metrics;
mod profile;

pub use metrics::{characterize, phase_cost, PhaseCost, SuitabilityMetrics};
pub use profile::{AccessPattern, PhaseProfile, WorkloadProfile};
