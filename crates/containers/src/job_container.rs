//! Enum dispatch over the container kinds and the job-aware adapter every
//! thread that combines folds into: a combiner, a mapper that spills, and a
//! Phoenix worker.
//!
//! The dispatch is a `match` on the container kind. [`HashedJobContainer::insert`]
//! pays it per pair; a combiner's hot loop instead hands a whole batched read
//! to [`HashedJobContainer::insert_from`] as a [`PairFeed`], which matches
//! once and gives the feed a closure holding only the chosen arm — the hash
//! arm's inlined probe then cannot push the array arm out of line. A Phoenix
//! worker's feed is one map task.
//!
//! A thread that serves a stream of jobs keeps its container between them:
//! [`HashedJobContainer::drain_to_keep`] empties and unbinds it,
//! [`HashedJobContainer::reusing`] binds it to the next job if it is what
//! [`HashedJobContainer::for_job`] would build for that job anyway.

use mr_core::{ContainerKind, MapReduceJob, RuntimeError};

use crate::hashed::Hashed;
use crate::{ArrayContainer, HashContainer, DEFAULT_FIXED_HASH_CAPACITY};

/// A container of any [`ContainerKind`] over hash-carrying keys, dispatching
/// by enum rather than trait object so the combine closure stays statically
/// dispatched in the hot loop. The two hash variants are the one
/// [`HashContainer`], growable or capped; the array variant indexes by
/// [`MapReduceJob::key_index`] and ignores the hash.
#[derive(Debug, Clone)]
pub(crate) enum HashedContainerImpl<K, V> {
    /// Dense array over the job's declared key space.
    Array(ArrayContainer<Hashed<K>, V>),
    /// Growable hash table.
    Hash(HashContainer<K, V>),
    /// Hash table capped at a number of distinct keys.
    FixedHash(HashContainer<K, V>),
}

impl<K: mr_core::MrKey, V: mr_core::MrValue> HashedContainerImpl<K, V> {
    /// Number of distinct keys stored.
    fn len(&self) -> usize {
        match self {
            HashedContainerImpl::Array(c) => c.len(),
            HashedContainerImpl::Hash(c) | HashedContainerImpl::FixedHash(c) => c.len(),
        }
    }

    /// Whether no key has been inserted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves all pairs into `out`, emptying the container.
    fn drain_into(&mut self, out: &mut Vec<(Hashed<K>, V)>) {
        match self {
            HashedContainerImpl::Array(c) => c.drain_into(out),
            HashedContainerImpl::Hash(c) | HashedContainerImpl::FixedHash(c) => c.drain_into(out),
        }
    }

    /// The stored pairs, consuming the container: a hash table hands its
    /// entries over without zeroing its index.
    fn into_pairs(self) -> Vec<(Hashed<K>, V)> {
        match self {
            HashedContainerImpl::Hash(c) | HashedContainerImpl::FixedHash(c) => c.into_pairs(),
            mut other => {
                let mut out = Vec::new();
                other.drain_into(&mut out);
                out
            }
        }
    }
}

/// A source of hash-carrying pairs that pushes each one into a sink — one
/// batched queue read or one map task, say. Generic over the sink, so the three closures
/// [`HashedJobContainer::insert_from`] builds each stay statically
/// dispatched.
pub trait PairFeed<K, V> {
    /// Hands every pair of the feed to `sink`, in order.
    fn feed(self, sink: impl FnMut(Hashed<K>, V));
}

/// A vector is a feed that drains it: every pair is moved out, in order, and
/// the vector is left empty with its allocation kept — an emit block, say.
impl<K, V> PairFeed<K, V> for &mut Vec<(Hashed<K>, V)> {
    fn feed(self, mut sink: impl FnMut(Hashed<K>, V)) {
        for (key, value) in self.drain(..) {
            sink(key, value);
        }
    }
}

/// An index a job filled to less than one part in this many is not kept: a
/// right-sized one replaces it, so one huge job does not leave every later
/// small job a multi-megabyte index to zero.
const KEEP_FILL_DEN: usize = 16;

/// A drained combine container between two jobs: what
/// [`HashedJobContainer::drain_to_keep`] leaves and
/// [`HashedJobContainer::reusing`] takes over.
#[derive(Debug)]
pub struct KeptContainer<K, V> {
    inner: HashedContainerImpl<K, V>,
    /// Keys the last job left: the entries to reserve for the next.
    drained: usize,
}

/// One thread's combine container, bound to the job so inserts can resolve
/// array indices via [`MapReduceJob::key_index`] and fold with
/// [`MapReduceJob::combine`]. Keys arrive as [`Hashed`] pairs, hashed once
/// at emission, so the insert itself never hashes.
///
/// # Example
///
/// ```
/// use mr_core::{ContainerKind, Emitter, HasherKind, MapReduceJob};
/// use ramr_containers::{Hashed, HashedJobContainer};
///
/// struct Mod3;
/// impl MapReduceJob for Mod3 {
///     type Input = u64;
///     type Key = u64;
///     type Value = u64;
///     fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
///         for &x in task {
///             emit.emit(x % 3, 1);
///         }
///     }
///     fn combine(&self, acc: &mut u64, v: u64) {
///         *acc += v;
///     }
///     fn key_space(&self) -> Option<usize> {
///         Some(3)
///     }
///     fn key_index(&self, k: &u64) -> usize {
///         *k as usize
///     }
/// }
///
/// let job = Mod3;
/// let mut c = HashedJobContainer::for_job(&job, ContainerKind::Array, None)?;
/// c.insert(Hashed::wrap(HasherKind::Fx, 2), 1)?;
/// c.insert(Hashed::wrap(HasherKind::Fx, 2), 1)?;
/// let mut out = Vec::new();
/// c.drain_into(&mut out);
/// assert_eq!(out, [(Hashed::wrap(HasherKind::Fx, 2), 2)]);
/// # Ok::<(), mr_core::RuntimeError>(())
/// ```
pub struct HashedJobContainer<'a, J: MapReduceJob> {
    job: &'a J,
    inner: HashedContainerImpl<J::Key, J::Value>,
}

impl<J: MapReduceJob> std::fmt::Debug for HashedJobContainer<'_, J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashedJobContainer")
            .field("job", &self.job.name())
            .field("len", &self.inner.len())
            .finish_non_exhaustive()
    }
}

impl<'a, J: MapReduceJob> HashedJobContainer<'a, J> {
    /// Allocates a container of `kind` suited to `job`.
    ///
    /// `fixed_capacity` overrides the capacity of array / fixed-hash
    /// containers; when `None`, the job's [`key_space`] is used, and for
    /// [`ContainerKind::FixedHash`] without either bound the
    /// [`DEFAULT_FIXED_HASH_CAPACITY`] applies.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnsupportedContainer`] when
    /// [`ContainerKind::Array`] is requested for a job with no declared key
    /// space and no explicit capacity.
    ///
    /// [`key_space`]: MapReduceJob::key_space
    pub fn for_job(
        job: &'a J,
        kind: ContainerKind,
        fixed_capacity: Option<usize>,
    ) -> Result<Self, RuntimeError> {
        Self::reusing(job, kind, fixed_capacity, None)
    }

    /// [`for_job`](Self::for_job), taking over `kept` instead of allocating
    /// when it is what `for_job` would build for *this* job: the same kind
    /// and, for the array and fixed-hash containers, the same resolved
    /// capacity (two jobs of one type may declare different key spaces).
    /// A kept growable hash table comes back with its index as grown and its
    /// entries reserved for as many keys as it last held, a capped one with
    /// its entries reserved for its whole cap. Anything else is dropped and
    /// built afresh.
    ///
    /// # Errors
    ///
    /// Same as [`for_job`](Self::for_job).
    pub fn reusing(
        job: &'a J,
        kind: ContainerKind,
        fixed_capacity: Option<usize>,
        kept: Option<KeptContainer<J::Key, J::Value>>,
    ) -> Result<Self, RuntimeError> {
        let (kept, drained) = kept.map_or((None, 0), |k| (Some(k.inner), k.drained));
        let inner = match kind {
            ContainerKind::Array => {
                let capacity = fixed_capacity.or_else(|| job.key_space()).ok_or_else(|| {
                    RuntimeError::UnsupportedContainer(format!(
                        "job {:?} declares no key space; the array container needs one",
                        job.name()
                    ))
                })?;
                match kept {
                    Some(HashedContainerImpl::Array(c)) if c.capacity() == capacity => {
                        HashedContainerImpl::Array(c)
                    }
                    _ => HashedContainerImpl::Array(ArrayContainer::with_capacity(capacity)),
                }
            }
            ContainerKind::Hash => match kept {
                Some(HashedContainerImpl::Hash(mut c)) => {
                    c.reserve_entries(drained);
                    HashedContainerImpl::Hash(c)
                }
                _ => HashedContainerImpl::Hash(HashContainer::new()),
            },
            ContainerKind::FixedHash => {
                let capacity = fixed_capacity
                    .or_else(|| job.key_space())
                    .unwrap_or(DEFAULT_FIXED_HASH_CAPACITY);
                match kept {
                    Some(HashedContainerImpl::FixedHash(mut c)) if c.max_keys() == capacity => {
                        c.reserve_entries(capacity);
                        HashedContainerImpl::FixedHash(c)
                    }
                    _ => HashedContainerImpl::FixedHash(HashContainer::capped(capacity)),
                }
            }
        };
        debug_assert!(inner.is_empty(), "a kept container must have been drained");
        Ok(Self { job, inner })
    }

    /// Folds one hash-carrying pair into the container using the job's
    /// combine function. No hashing happens here: hash-based containers
    /// probe with the hash `key` carries from emission.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::ContainerOverflow`] from the array
    /// container and the capped hash table.
    #[inline]
    pub fn insert(&mut self, key: Hashed<J::Key>, value: J::Value) -> Result<(), RuntimeError> {
        let job = self.job;
        match &mut self.inner {
            HashedContainerImpl::Array(c) => {
                let index = job.key_index(key.key());
                c.combine_insert_at(index, key, value, |acc, v| job.combine(acc, v))
            }
            HashedContainerImpl::Hash(c) | HashedContainerImpl::FixedHash(c) => {
                c.combine_insert(key, value, |acc, v| job.combine(acc, v))
            }
        }
    }

    /// Folds every pair of `feed` as [`insert`](Self::insert) would, choosing
    /// the container kind once for the whole feed instead of once per pair.
    /// After the first error the rest of the feed is still taken, and
    /// dropped.
    ///
    /// # Errors
    ///
    /// The first error [`insert`](Self::insert) would have returned.
    pub fn insert_from(
        &mut self,
        feed: impl PairFeed<J::Key, J::Value>,
    ) -> Result<(), RuntimeError> {
        let job = self.job;
        // Written on the error path only: storing a whole `Result` per pair
        // costs the array arm as much as the insert itself.
        let mut first_error = None;
        match &mut self.inner {
            HashedContainerImpl::Array(c) => feed.feed(|key, value| {
                if first_error.is_none() {
                    let index = job.key_index(key.key());
                    let combine = |acc: &mut J::Value, v| job.combine(acc, v);
                    if let Err(e) = c.combine_insert_at(index, key, value, combine) {
                        first_error = Some(e);
                    }
                }
            }),
            // An uncapped table refuses no key, so no error check guards
            // its hits; only the new-key path tests the cap.
            HashedContainerImpl::Hash(c) => feed.feed(|key, value| {
                if let Err(e) = c.combine_insert(key, value, |acc, v| job.combine(acc, v)) {
                    first_error.get_or_insert(e);
                }
            }),
            HashedContainerImpl::FixedHash(c) => feed.feed(|key, value| {
                if first_error.is_none() {
                    if let Err(e) = c.combine_insert(key, value, |acc, v| job.combine(acc, v)) {
                        first_error = Some(e);
                    }
                }
            }),
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Moves all pairs into `out`, emptying the container.
    pub fn drain_into(&mut self, out: &mut Vec<(Hashed<J::Key>, J::Value)>) {
        self.inner.drain_into(out);
    }

    /// The stored pairs, for a container that is done: a hash table hands
    /// its entries over without zeroing its index.
    pub fn into_pairs(self) -> Vec<(Hashed<J::Key>, J::Value)> {
        self.inner.into_pairs()
    }

    /// [`drain_into`](Self::drain_into), then unbinds the emptied container
    /// from its job so a later one can take it over
    /// ([`reusing`](Self::reusing)). A hash index this job filled to under
    /// 1/16 is not worth its zeroing cost and is replaced by a right-sized
    /// one.
    pub fn drain_to_keep(
        mut self,
        out: &mut Vec<(Hashed<J::Key>, J::Value)>,
    ) -> KeptContainer<J::Key, J::Value> {
        let drained = self.inner.len();
        self.inner.drain_into(out);
        if let HashedContainerImpl::Hash(c) = &mut self.inner {
            if c.capacity() > KEEP_FILL_DEN * drained.max(1) {
                *c = HashContainer::with_capacity(drained);
            }
        }
        KeptContainer { inner: self.inner, drained }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::Emitter;

    struct Mod5;

    impl MapReduceJob for Mod5 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 5, 1);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(5)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn name(&self) -> &str {
            "mod5"
        }
    }

    struct NoKeySpace;

    impl MapReduceJob for NoKeySpace {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {}

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }
    }

    fn key(k: u64) -> Hashed<u64> {
        Hashed::wrap(mr_core::HasherKind::Fx, k)
    }

    fn fill_and_drain(c: &mut HashedJobContainer<'_, Mod5>) -> Vec<(u64, u64)> {
        for x in 0..50u64 {
            c.insert(key(x % 5), 1).unwrap();
        }
        let mut out = Vec::new();
        c.drain_into(&mut out);
        let mut out: Vec<(u64, u64)> = out.into_iter().map(|(k, v)| (k.into_key(), v)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn all_kinds_agree_on_the_same_inserts() {
        let job = Mod5;
        let expected: Vec<(u64, u64)> = (0..5).map(|k| (k, 10)).collect();
        for kind in ContainerKind::ALL {
            let mut c = HashedJobContainer::for_job(&job, kind, None).unwrap();
            assert!(c.is_empty());
            assert_eq!(fill_and_drain(&mut c), expected, "container kind {kind}");
        }
    }

    #[test]
    fn array_requires_key_space() {
        let job = NoKeySpace;
        let err = HashedJobContainer::for_job(&job, ContainerKind::Array, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedContainer(_)));
        // ... unless an explicit capacity is supplied.
        assert!(HashedJobContainer::for_job(&job, ContainerKind::Array, Some(16)).is_ok());
    }

    #[test]
    fn fixed_hash_defaults_without_key_space() {
        let job = NoKeySpace;
        let mut c = HashedJobContainer::for_job(&job, ContainerKind::FixedHash, None).unwrap();
        c.insert(key(1), 1).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn explicit_capacity_overrides_key_space() {
        let job = Mod5;
        let mut c = HashedJobContainer::for_job(&job, ContainerKind::FixedHash, Some(2)).unwrap();
        c.insert(key(0), 1).unwrap();
        c.insert(key(1), 1).unwrap();
        assert!(c.insert(key(2), 1).is_err(), "capacity 2 must overflow on the third key");
    }

    #[test]
    fn hashed_container_agrees_with_plain_for_every_kind() {
        let job = Mod5;
        let expected: Vec<(u64, u64)> = (0..5).map(|k| (k, 10)).collect();
        for kind in ContainerKind::ALL {
            for hasher in mr_core::HasherKind::ALL {
                let mut c = HashedJobContainer::for_job(&job, kind, None).unwrap();
                assert!(c.is_empty());
                for x in 0..50u64 {
                    c.insert(Hashed::wrap(hasher, x % 5), 1).unwrap();
                }
                let mut out = Vec::new();
                c.drain_into(&mut out);
                let mut plain: Vec<(u64, u64)> =
                    out.into_iter().map(|(k, v)| (k.into_key(), v)).collect();
                plain.sort_unstable();
                assert_eq!(plain, expected, "container {kind} / hasher {hasher}");
            }
        }
    }

    fn wrapped(keys: impl Iterator<Item = u64>) -> Vec<(Hashed<u64>, u64)> {
        keys.map(|k| (Hashed::wrap(mr_core::HasherKind::Fx, k), 1)).collect()
    }

    #[test]
    fn insert_from_agrees_with_insert_for_every_kind() {
        let job = Mod5;
        for kind in ContainerKind::ALL {
            let mut single = HashedJobContainer::for_job(&job, kind, None).unwrap();
            for (k, v) in wrapped((0..50).map(|x| x % 5)) {
                single.insert(k, v).unwrap();
            }
            let mut batched = HashedJobContainer::for_job(&job, kind, None).unwrap();
            batched.insert_from(&mut wrapped((0..20).map(|x| x % 5))).unwrap();
            batched.insert_from(&mut wrapped((20..50).map(|x| x % 5))).unwrap();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            single.drain_into(&mut a);
            batched.drain_into(&mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "hashed container {kind}");
        }
    }

    #[test]
    fn into_pairs_agrees_with_drain_into_for_every_kind() {
        let job = Mod5;
        for kind in ContainerKind::ALL {
            let mut hashed = HashedJobContainer::for_job(&job, kind, None).unwrap();
            hashed.insert_from(&mut wrapped((0..50).map(|x| x % 5))).unwrap();

            let mut drained = Vec::new();
            HashedJobContainer { job: &job, inner: hashed.inner.clone() }.drain_into(&mut drained);
            assert_eq!(hashed.into_pairs(), drained, "container {kind}");
        }
    }

    #[test]
    fn insert_from_reports_the_first_error_and_still_takes_the_whole_feed() {
        let job = Mod5;
        for kind in [ContainerKind::Array, ContainerKind::FixedHash] {
            let mut hashed = HashedJobContainer::for_job(&job, kind, Some(2)).unwrap();
            let mut block = wrapped(0..5);
            let err = hashed.insert_from(&mut block).unwrap_err();
            assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }), "{kind}");
            assert_eq!((block.len(), hashed.len()), (0, 2), "{kind}");
        }
    }

    /// Fills a container with `keys` distinct keys and hands it back kept.
    fn keep_after<'a>(
        mut c: HashedJobContainer<'a, NoKeySpace>,
        keys: u64,
    ) -> KeptContainer<u64, u64> {
        c.insert_from(&mut wrapped((0..keys * 2).map(|x| x % keys.max(1)))).unwrap();
        let mut out = Vec::new();
        let kept = c.drain_to_keep(&mut out);
        assert_eq!(out.len() as u64, keys);
        assert!(
            out.iter().all(|&(_, v)| v == 2),
            "a kept container leaked counts into a later job"
        );
        kept
    }

    /// Slot count of whichever container `inner` is; the cap of a capped
    /// hash table.
    fn slots<K: mr_core::MrKey, V: mr_core::MrValue>(inner: &HashedContainerImpl<K, V>) -> usize {
        match inner {
            HashedContainerImpl::Array(c) => c.capacity(),
            HashedContainerImpl::Hash(c) => c.capacity(),
            HashedContainerImpl::FixedHash(c) => c.max_keys(),
        }
    }

    #[test]
    fn a_kept_hash_table_keeps_its_index_until_a_job_fills_under_a_sixteenth() {
        let job = NoKeySpace;
        let reuse = |kept| HashedJobContainer::reusing(&job, ContainerKind::Hash, None, Some(kept));
        let fresh = HashedJobContainer::for_job(&job, ContainerKind::Hash, None).unwrap();
        let kept = keep_after(fresh, 50_000);
        let grown = slots(&kept.inner);
        assert!(grown >= crate::hash::slots_for(50_000));
        // The same load again: the index neither grows nor is replaced.
        let kept = keep_after(reuse(kept).unwrap(), 50_000);
        assert_eq!(slots(&kept.inner), grown);
        // A tiny job is exact on the big index, and leaves a right-sized one.
        let kept = keep_after(reuse(kept).unwrap(), 40);
        assert!(slots(&kept.inner) <= crate::hash::slots_for(16 * 40), "{}", slots(&kept.inner));
        // Big again, from the small index: exact, and grown back.
        let kept = keep_after(reuse(kept).unwrap(), 50_000);
        assert_eq!(slots(&kept.inner), grown);
        // A job with no keys at all shrinks it too.
        let kept = keep_after(reuse(kept).unwrap(), 0);
        assert!(slots(&kept.inner) <= crate::hash::slots_for(16));
    }

    #[test]
    fn a_kept_container_is_reused_only_where_for_job_would_build_the_same() {
        let job = Mod5;
        for kind in [ContainerKind::Array, ContainerKind::FixedHash] {
            let keep = |capacity| {
                let c = HashedJobContainer::for_job(&job, kind, Some(capacity)).unwrap();
                c.drain_to_keep(&mut Vec::new())
            };
            // Same kind, same resolved capacity: taken over.
            let c = HashedJobContainer::reusing(&job, kind, Some(8), Some(keep(8))).unwrap();
            assert_eq!(slots(&c.inner), 8);
            // Same kind, another capacity (the job's own key space): rebuilt.
            let c = HashedJobContainer::reusing(&job, kind, None, Some(keep(8))).unwrap();
            assert_eq!(slots(&c.inner), 5, "{kind}: a kept capacity of 8 served a key space of 5");
            // Another kind altogether: rebuilt as that kind.
            let c = HashedJobContainer::reusing(&job, ContainerKind::Hash, None, Some(keep(8)));
            assert!(matches!(c.unwrap().inner, HashedContainerImpl::Hash(_)));
        }
    }

    #[test]
    fn hashed_fixed_capacity_overflows_like_plain() {
        let job = Mod5;
        let mut c = HashedJobContainer::for_job(&job, ContainerKind::FixedHash, Some(2)).unwrap();
        c.insert(Hashed::wrap(mr_core::HasherKind::Fx, 0), 1).unwrap();
        c.insert(Hashed::wrap(mr_core::HasherKind::Fx, 1), 1).unwrap();
        let err = c.insert(Hashed::wrap(mr_core::HasherKind::Fx, 2), 1).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }));
        assert!(matches!(c.inner, HashedContainerImpl::FixedHash(_)));
    }
}
