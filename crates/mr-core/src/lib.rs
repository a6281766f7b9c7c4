//! Core types and traits shared by every MapReduce runtime in this workspace.
//!
//! This crate defines the [`MapReduceJob`] trait implemented by applications,
//! the [`RuntimeConfig`] tuning surface described in the RAMR paper (task
//! size, queue capacity, batch size, mapper/combiner ratio, container kind,
//! pinning policy), phase-timing statistics and the common error type.
//!
//! Both the decoupled RAMR runtime (`ramr` crate) and the Phoenix++-style
//! baseline (`phoenix-mr` crate) consume jobs through this interface, which
//! is what makes differential testing between the two runtimes possible.
//!
//! # Example
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//!
//! /// Counts occurrences of each byte value.
//! struct ByteCount;
//!
//! impl MapReduceJob for ByteCount {
//!     type Input = u8;
//!     type Key = u8;
//!     type Value = u64;
//!
//!     fn map(&self, task: &[u8], emit: &mut Emitter<'_, u8, u64>) {
//!         for &b in task {
//!             emit.emit(b, 1);
//!         }
//!     }
//!
//!     fn combine(&self, acc: &mut u64, incoming: u64) {
//!         *acc += incoming;
//!     }
//!
//!     fn key_space(&self) -> Option<usize> {
//!         Some(256)
//!     }
//!
//!     fn key_index(&self, key: &u8) -> usize {
//!         *key as usize
//!     }
//! }
//!
//! let config = RuntimeConfig::builder().num_workers(4).task_size(128).build()?;
//! assert_eq!(config.num_workers, 4);
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod job;
mod output;
mod split;
mod stats;

pub use config::{
    ContainerKind, EnvKnob, HasherKind, PinningPolicyKind, PushBackoff, RuntimeConfig,
    RuntimeConfigBuilder, SchedPolicy, SchedPolicyKind, ENV_KNOBS,
};
pub use error::RuntimeError;
pub use job::{Emitter, MapReduceJob, MrKey, MrValue};
pub use output::JobOutput;
pub use split::{task_ranges, task_ranges_for, TaskId, TaskRange};
pub use stats::{PhaseKind, PhaseStats, PhaseTimer};
