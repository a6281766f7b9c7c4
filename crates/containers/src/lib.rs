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
//! Three containers are provided, unified behind [`HashedContainerImpl`]
//! (enum dispatch keeps the combine call generic without trait objects) and
//! the job-aware [`HashedJobContainer`] adapter every thread that combines
//! folds into:
//!
//! * [`ArrayContainer`] — dense slots over `0..key_space`;
//! * [`HashContainer`] — growable open-addressing (linear probing) table;
//! * [`FixedHashContainer`] — fixed-capacity open addressing, overflow is an
//!   error.
//!
//! The key hot path is co-designed with the containers: [`CompactKey`]
//! stores short string keys inline (no per-word allocation), [`Hashed`]
//! carries each key's hash from the emission sink so the combine, bucket
//! and reduce stages never rehash (the [`Passthrough`] hasher and the
//! [`HashedJobContainer`] adapter close that loop), and the hash function
//! itself is selectable between byte-at-a-time FNV-1a and the
//! word-at-a-time [`FxHasher`] via the `RAMR_HASHER` knob.
//!
//! # Example
//!
//! ```
//! use ramr_containers::HashContainer;
//!
//! let mut c: HashContainer<&str, u64> = HashContainer::new();
//! c.combine_insert("the", 1, |acc, v| *acc += v);
//! c.combine_insert("the", 1, |acc, v| *acc += v);
//! c.combine_insert("cat", 1, |acc, v| *acc += v);
//! let mut pairs = Vec::new();
//! c.drain_into(&mut pairs);
//! pairs.sort();
//! assert_eq!(pairs, [("cat", 1), ("the", 2)]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod compact_key;
mod fixed_hash;
mod fnv;
mod fx;
mod hash;
mod hashed;
mod job_container;

pub use array::ArrayContainer;
pub use compact_key::CompactKey;
pub use fixed_hash::FixedHashContainer;
pub use fnv::{fnv1a_hash, FnvBuildHasher, FnvHasher};
pub use fx::{fx_hash, FxBuildHasher, FxHasher};
pub use hash::HashContainer;
pub use hashed::{hash_key, Hashed, Passthrough, PassthroughHasher};
pub use job_container::{HashedContainerImpl, HashedJobContainer, KeptContainer, PairFeed};

/// Default capacity for fixed-size hash containers when neither the job's
/// key space nor an explicit `fixed_capacity` bounds it.
pub const DEFAULT_FIXED_HASH_CAPACITY: usize = 1 << 16;
