//! The parts of a Phoenix++-style shared-memory MapReduce runtime that every
//! backend shares: the locality-grouped task queues and the phases
//! downstream of the per-thread containers.
//!
//! Phoenix++ [Talbot et al., MapReduce'11] executes the classic scale-up MR
//! workflow: a pool of worker threads pulls map tasks from per-locality-group
//! queues ([`TaskQueues`]), and applies the **combine function inline after
//! every map emission**, folding each intermediate pair straight into the
//! worker's thread-local container. The paper's baseline and RAMR differ in
//! that one structural way, so both run on the one executor of the `ramr`
//! crate: a Phoenix session is a session with no combiners, whose workers
//! fold what they map (DESIGN §6r).
//!
//! The reduce and merge phases ([`phases`]) are the same for both, because
//! the paper leaves them unchanged: "the rest MR execution remains
//! unchanged" (§III).
//!
//! # Example
//!
//! Two workers claim tasks, each collecting what it maps — every key carrying
//! its hash — into its own partial, and the shared tail buckets, reduces and
//! merges the partials:
//!
//! ```
//! use mr_core::{task_ranges_for, Emitter, HasherKind, MapReduceJob};
//! use phoenix_mr::{phases, TaskQueues};
//! use ramr_containers::Hashed;
//!
//! struct CharCount;
//! impl MapReduceJob for CharCount {
//!     type Input = char;
//!     type Key = char;
//!     type Value = u64;
//!     fn map(&self, task: &[char], emit: &mut Emitter<'_, char, u64>) {
//!         for &c in task {
//!             emit.emit(c, 1);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//! }
//!
//! let input: Vec<char> = "abracadabra".chars().collect();
//! let queues = TaskQueues::new(task_ranges_for(input.len(), 4, 2), 2);
//! let mut partials = vec![Vec::new(), Vec::new()];
//! for (worker, partial) in partials.iter_mut().enumerate() {
//!     while let Some(task) = queues.claim(worker) {
//!         let mut sink = |key, value| partial.push((Hashed::wrap(HasherKind::Fx, key), value));
//!         CharCount.map(&input[task.start..task.end], &mut Emitter::new(&mut sink));
//!     }
//! }
//! let buckets = phases::bucket_by_key_hashed::<CharCount>(partials, 2);
//! let runs = phases::reduce_parallel(&CharCount, buckets, phases::reduce_bucket_hashed)?;
//! let output = phases::merge_sorted_runs(runs);
//! assert_eq!(output.first(), Some(&('a', 5)));
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod phases;
pub mod tasks;

pub use tasks::TaskQueues;
