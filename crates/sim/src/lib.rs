//! `mrsim`: a deterministic performance model of Phoenix++-style and RAMR
//! MapReduce execution on parametric machine models.
//!
//! # Why a model
//!
//! The paper's evaluation ran on a 56-thread Haswell server and a
//! 228-thread Xeon Phi. This reproduction executes on whatever machine CI
//! provides (possibly a single core), where wall-clock comparisons between
//! the two runtimes are physically meaningless. `mrsim` instead *prices*
//! both runtimes' execution on a [`ramr_topology::MachineModel`], using the
//! per-element cost decomposition of `ramr-perfmodel`, and reproduces the
//! paper's figures as deterministic functions of the same mechanisms the
//! paper invokes:
//!
//! * **Serialized stall exposure (baseline)** — a Phoenix++ worker runs map
//!   and combine back to back on one thread; each side's stall cycles are
//!   dead time the other side's work cannot fill (the out-of-order window
//!   does not bridge the emit boundary). The decoupled runtime overlaps
//!   them *by construction*, which is the paper's §IV-E suitability
//!   argument: high-stall workloads have head-room, stall-free workloads do
//!   not.
//! * **SMT resource sharing** — co-resident hardware threads share issue
//!   bandwidth; a compute-bound mapper and a memory-bound combiner coexist
//!   cheaply, two identical mixed workers do not.
//! * **Queue costs** — every decoupled pair pays push/pop control work, a
//!   cache-distance-priced transfer (set by the pinning policy), batch
//!   amortization of the control synchronization, and a locality penalty
//!   once a batch overflows the consumer's L1 share — the mechanisms behind
//!   Figs 5, 6 and 7.
//! * **Memory-bandwidth contention** — per-socket streaming demand beyond
//!   the sustainable bandwidth stretches execution.
//!
//! All constants are named, documented, and calibrated once against the
//! paper's reported numbers (see `calibration` tests and EXPERIMENTS.md);
//! nothing is fitted per figure.
//!
//! # Example
//!
//! ```
//! use mrsim::{simulate, RuntimeKind, SimConfig, SimJob};
//! use ramr_perfmodel::catalog;
//! use mr_apps::AppKind;
//! use ramr_topology::MachineModel;
//!
//! let job = SimJob {
//!     profile: catalog::default_profile(AppKind::Kmeans),
//!     input_elements: 2_000_000,
//!     unique_keys: 64,
//! };
//! let machine = MachineModel::haswell_server();
//! let phoenix = simulate(&job, &SimConfig::phoenix(machine.clone()));
//! let ramr = simulate(&job, &SimConfig::ramr(machine));
//! let speedup = phoenix.total_ns() / ramr.total_ns();
//! assert!(speedup > 1.0, "KMeans profits from RAMR (paper Fig 8a)");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
#[cfg(test)]
mod des;
mod engine;

pub use config::{RuntimeKind, SimConfig, SimJob, SimReport};
pub use engine::{auto_split, simulate};
