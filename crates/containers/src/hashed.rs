//! Hash-once key carriage: [`Hashed`] pairs a key with its 64-bit hash so
//! the combine table reuses it instead of rehashing.
//!
//! The runtimes hash each key exactly once — at the mapper's emission sink,
//! where the key bytes are already hot in cache — wrap it in [`Hashed`], and
//! carry the pair through the SPSC queues to the combine table, the hash's
//! one consumer: [`HashContainer`](crate::HashContainer) is keyed on
//! `Hashed<K>` and probes and grows from `key.hash()`, never touching the
//! key bytes again. The reduce phase range-partitions, sorts and folds by
//! key, so a `Hashed` key rides through it unread and is unwrapped on the
//! way out.

use std::hash::Hash;

use mr_core::HasherKind;

use crate::fnv::fnv1a_hash;
use crate::fx::fx_hash;

/// Hashes `key` with the hasher selected by `kind` (the `RAMR_HASHER`
/// knob): byte-at-a-time FNV-1a or word-at-a-time Fx.
#[inline]
fn hash_key<T: Hash + ?Sized>(kind: HasherKind, key: &T) -> u64 {
    match kind {
        HasherKind::Fnv => fnv1a_hash(key),
        HasherKind::Fx => fx_hash(key),
    }
}

/// A key bundled with its precomputed 64-bit hash.
///
/// `Eq`/`Ord` delegate to the key (with a hash fast-reject on equality), so
/// a `Hashed<K>` sorts and deduplicates exactly like its `K`.
///
/// The carried hash is an invariant, not advice: both halves of a
/// comparison must have been hashed by the same hasher (one run uses one
/// [`HasherKind`] throughout, so this holds by construction).
#[derive(Debug, Clone)]
pub struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K> Hashed<K> {
    /// Wraps `key` with its precomputed `hash`.
    #[inline]
    pub fn new(hash: u64, key: K) -> Self {
        Self { hash, key }
    }

    /// Hashes `key` with `kind` and wraps it — the emission-time
    /// constructor.
    #[inline]
    pub fn wrap(kind: HasherKind, key: K) -> Self
    where
        K: Hash,
    {
        Self { hash: hash_key(kind, &key), key }
    }

    /// The wrapped key.
    #[inline]
    pub fn key(&self) -> &K {
        &self.key
    }

    /// The carried 64-bit hash.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Unwraps the key, dropping the hash.
    #[inline]
    pub fn into_key(self) -> K {
        self.key
    }
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Equal keys always carry equal hashes (same hasher per run), so
        // the hash check is a pure fast-reject, never a false negative.
        self.hash == other.hash && self.key == other.key
    }
}
impl<K: Eq> Eq for Hashed<K> {}

impl<K: PartialOrd> PartialOrd for Hashed<K> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.key.partial_cmp(&other.key)
    }
}
impl<K: Ord> Ord for Hashed<K> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_uses_the_selected_hasher() {
        let fnv = Hashed::wrap(HasherKind::Fnv, "alpha");
        let fx = Hashed::wrap(HasherKind::Fx, "alpha");
        assert_eq!(fnv.hash(), fnv1a_hash("alpha"));
        assert_eq!(fx.hash(), fx_hash("alpha"));
        assert_eq!(fnv.key(), fx.key());
    }

    #[test]
    fn eq_and_ord_follow_the_key() {
        let a = Hashed::wrap(HasherKind::Fx, "apple");
        let b = Hashed::wrap(HasherKind::Fx, "banana");
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.clone().into_key(), "apple");
    }

    #[test]
    fn sorting_hashed_matches_sorting_plain() {
        let words = ["pear", "apple", "fig", "apple", "date"];
        let mut plain: Vec<&str> = words.to_vec();
        plain.sort_unstable();
        let mut wrapped: Vec<Hashed<&str>> =
            words.iter().map(|w| Hashed::wrap(HasherKind::Fx, *w)).collect();
        wrapped.sort_unstable();
        let unwrapped: Vec<&str> = wrapped.into_iter().map(Hashed::into_key).collect();
        assert_eq!(unwrapped, plain);
    }
}
