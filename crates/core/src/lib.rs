//! RAMR: the Resource-Aware MapReduce runtime (DATE 2020).
//!
//! RAMR restructures the map-combine phase of a shared-memory MapReduce
//! runtime. Where Phoenix++ serializes map and combine on each worker
//! thread (combine runs inline after every map emission), RAMR **decouples**
//! them into two thread pools and **overlaps** their execution:
//!
//! * *mappers* (the general-purpose pool) apply the map function and push
//!   intermediate pairs into per-mapper SPSC queues;
//! * *combiners* (a second, smaller-or-equal pool) concurrently pop
//!   **batches** of pairs from their assigned queues and fold them into
//!   private containers.
//!
//! Because the combine step does most of the reducers' work, the map-combine
//! phase dominates MR run-time (82.4% on average across the Phoenix suite —
//! paper Fig 1), so overlapping *these* two operations is more profitable
//! than overlapping map with reduce. The overlap pays off when the two sides
//! have complementary resource profiles — a CPU-intensive map and a
//! memory-intensive combine sharing a physical core utilize both the core
//! and the memory subsystem concurrently. The runtime's contention-aware
//! pinning policy (see `ramr-topology`) places each combiner next to its
//! mappers for exactly that reason.
//!
//! After the map-combine phase, reduce and merge proceed exactly as in the
//! baseline (`phoenix_mr::phases`), per the paper: "The rest MR execution
//! remains unchanged."
//!
//! # Quick start
//!
//! Pick a [`Backend`], build an engine, submit a job; the output always
//! arrives with its backend-independent report attached.
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//! use ramr::{Backend, Engine};
//!
//! struct WordLength;
//! impl MapReduceJob for WordLength {
//!     type Input = String;
//!     type Key = usize;
//!     type Value = u64;
//!     fn map(&self, task: &[String], emit: &mut Emitter<'_, usize, u64>) {
//!         for word in task {
//!             emit.emit(word.len(), 1);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//!     fn key_space(&self) -> Option<usize> {
//!         Some(64) // no interesting word is longer
//!     }
//!     fn key_index(&self, k: &usize) -> usize {
//!         *k
//!     }
//! }
//!
//! let config = RuntimeConfig::builder()
//!     .num_workers(2)
//!     .num_combiners(1)
//!     .task_size(4)
//!     .queue_capacity(64)
//!     .batch_size(8)
//!     .build()?;
//! let words: Vec<String> = ["map", "reduce", "combine", "merge", "pin"]
//!     .iter()
//!     .map(|s| s.to_string())
//!     .collect();
//! let engine = Backend::RamrStatic.engine(config)?;
//! let outcome = engine.submit(&WordLength, &words)?;
//! assert_eq!(outcome.output.get(&3), Some(&2)); // "map", "pin"
//! assert!(outcome.report.faults.is_clean());
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```
//!
//! To chain jobs — each stage's output handed to the next stage's splitter
//! as owned in-memory pairs — see the [`pipeline`](crate::Pipeline) module
//! and [`Engine::pipeline`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod pipeline;
mod runtime;
pub mod sched;
mod session;
pub mod tuning;

pub use engine::{
    AnyEngine, Backend, Engine, EngineOutcome, EngineOutput, EngineReport, EngineSession,
};
pub use pipeline::{
    Iterate, PairSplit, Pipeline, PipelineExec, PipelineOutcome, PipelineReport, Stage, StagePlan,
    StageReport, Then,
};
pub use runtime::{ReportedOutput, RunReport};
pub use sched::{
    CompletedJob, JobClient, JobScheduler, JobTicket, SchedError, ShedReason, TenantStats,
};
pub use session::RamrSession;
pub use tuning::{AdaptationEvent, AdaptiveBounds, AdaptiveSeed, Decision, PoolObservation};

// Re-export the configuration surface so downstream users need only this
// crate for the common path.
pub use mr_core::{
    ContainerKind, Emitter, HasherKind, JobOutput, MapReduceJob, PhaseKind, PhaseStats,
    PinningPolicyKind, PushBackoff, RuntimeConfig, RuntimeError,
};
