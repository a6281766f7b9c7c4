//! Machine models, thread placement and communication costs for RAMR.
//!
//! The paper's resource-contention-aware pinning policy (§III-B) re-maps CPU
//! ids into a sequence that is contiguous in the *physical* layout
//! (`thrid_to_cpu`), assigns each combiner the queues of its neighbouring
//! mappers, and pins co-operating threads onto adjacent logical cores so
//! their traffic flows through the closest shared cache — ideally the
//! L1/L2 of a shared physical core, where a CPU-intensive map and a
//! memory-intensive combine also utilize complementary core resources.
//!
//! This crate provides:
//!
//! * [`MachineModel`] — parametric descriptions of multi/many-core machines,
//!   with presets for the paper's two platforms (a dual-socket Haswell
//!   server and a Xeon Phi co-processor) and the worked example of Fig 3;
//! * [`thrid_to_cpu`] — the physical-adjacency remapping of Fig 3;
//! * [`PlacementPlan`] — computes, for a (mappers, combiners, policy)
//!   triple, which logical CPU every thread lands on and at which cache
//!   level each mapper↔combiner pair communicates;
//! * [`CommDistance`]/[`MachineModel::transfer_cost_ns`] — the communication
//!   cost model consumed by the `mrsim` performance model;
//! * [`pin_current_thread`] — the real `sched_setaffinity(2)` binding used
//!   when running on actual multi-core hardware, with
//!   [`current_thread_affinity`] / [`set_current_thread_affinity`] to save
//!   and restore a mask around a temporary pin.
//!
//! # Example
//!
//! ```
//! use ramr_topology::{MachineModel, PinningPolicyKind, PlacementPlan};
//!
//! let machine = MachineModel::fig3_demo(); // 2 sockets x 4 cores x SMT2
//! let plan = PlacementPlan::compute(&machine, 8, 8, PinningPolicyKind::Ramr)?;
//! // Ratio 1: each mapper-combiner pair shares a physical core.
//! for m in 0..8 {
//!     let d = plan.mapper_combiner_distance(m);
//!     assert_eq!(d, ramr_topology::CommDistance::SharedCore);
//! }
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod affinity;
mod comm;
mod detect;
mod machine;
mod placement;
mod remap;

pub use affinity::{current_thread_affinity, set_current_thread_affinity};
pub use affinity::{pin_current_thread, pinning_supported};
pub use comm::CommDistance;
pub use detect::DetectedGeometry;
pub use machine::{CacheLatencies, Interconnect, MachineModel};
pub use mr_core::PinningPolicyKind;
pub use placement::{CpuSlot, PlacementPlan, ThreadRef};
pub use remap::{physical_position_of, thrid_to_cpu, PhysicalPos};
