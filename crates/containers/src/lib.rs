//! Phoenix++-style intermediate key-value containers.
//!
//! Phoenix++ made the intermediate container a first-class, swappable module
//! because no single data structure suits every workload: a job whose key
//! range is known a priori (Histogram's 768 bins, KMeans' `k` clusters, a
//! matrix's output cells) wants a dense **array**; a job with an arbitrary
//! key set (Word Count) wants a **hash table**. The RAMR paper keeps this
//! design and additionally evaluates **fixed-size hash tables** to stress
//! the memory intensity of the combine phase (Figs 8b/9b/10b): hashing adds
//! computation, and the hash layout forces a non-regular access pattern.
//!
//! Two containers are provided, behind the job-aware [`HashedJobContainer`]
//! adapter every thread that combines folds into (it dispatches by enum, so
//! the combine call stays generic without trait objects):
//!
//! * [`ArrayContainer`] — dense slots over `0..key_space`;
//! * [`HashContainer`] — open addressing (linear probing) over [`Hashed`]
//!   keys: growable for [`ContainerKind::Hash`], and for
//!   [`ContainerKind::FixedHash`] sized up front for a cap of distinct keys,
//!   past which a new key is an error.
//!
//! The key hot path is co-designed with the containers: [`CompactKey`]
//! stores short string keys inline (no per-word allocation), [`Hashed`]
//! carries each key's hash from the emission sink so the combine, bucket
//! and reduce stages never rehash (the hash table is keyed on it and probes
//! and grows from the carried word), and the hash function itself is
//! selectable between byte-at-a-time FNV-1a and the word-at-a-time
//! [`FxHasher`] via the `RAMR_HASHER` knob.
//!
//! [`ContainerKind::Hash`]: mr_core::ContainerKind::Hash
//! [`ContainerKind::FixedHash`]: mr_core::ContainerKind::FixedHash
//!
//! # Example
//!
//! ```
//! use mr_core::HasherKind;
//! use ramr_containers::{HashContainer, Hashed};
//!
//! let mut c: HashContainer<&str, u64> = HashContainer::new();
//! for word in ["the", "the", "cat"] {
//!     c.combine_insert(Hashed::wrap(HasherKind::Fx, word), 1, |acc, v| *acc += v)?;
//! }
//! let mut drained = Vec::new();
//! c.drain_into(&mut drained);
//! let mut pairs: Vec<(&str, u64)> = drained.into_iter().map(|(k, v)| (k.into_key(), v)).collect();
//! pairs.sort();
//! assert_eq!(pairs, [("cat", 1), ("the", 2)]);
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod compact_key;
mod fnv;
mod fx;
mod hash;
mod hashed;
mod job_container;

pub use array::ArrayContainer;
pub use compact_key::CompactKey;
pub use fnv::{fnv1a_hash, FnvHasher};
pub use fx::{fx_hash, FxHasher};
pub use hash::HashContainer;
pub use hashed::Hashed;
pub use job_container::{HashedJobContainer, KeptContainer, PairFeed};

/// Default cap on distinct keys for the fixed-size hash table when neither
/// the job's key space nor an explicit `fixed_capacity` bounds it.
pub const DEFAULT_FIXED_HASH_CAPACITY: usize = 1 << 16;
