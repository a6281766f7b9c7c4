//! The one hash table: open addressing over [`Hashed`] keys, a tagged
//! index over insertion-ordered entries.
//!
//! `index` holds one `u64` per slot — `hash >> 32` as a tag in the high
//! half, entry number + 1 in the low half, 0 for empty — and `entries` the
//! `(key, value)` pairs in insertion order, without holes. The hash is the
//! one each key carries from emission: a probe walks index words from
//! `hash & mask` and compares a key only on a tag hit, and growth doubles
//! the index and re-threads its words from the entries' carried hashes. The
//! table never hashes a key, and the pairs themselves never move.

use mr_core::RuntimeError;

use crate::hashed::Hashed;

const INITIAL_CAPACITY: usize = 16;
/// Grow when the load factor reaches 7/8.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;
/// The tag half of an index word: the high 32 bits of the key's hash.
const TAG_MASK: u64 = !(u32::MAX as u64);

/// Slots needed so `capacity` keys fit strictly under the 7/8 load factor:
/// over-allocate by 8/7 and round up to a power of two.
pub(crate) fn slots_for(capacity: usize) -> usize {
    capacity
        .max(1)
        .checked_mul(LOAD_DEN)
        .map(|scaled| scaled.div_ceil(LOAD_NUM).max(2))
        .and_then(usize::checked_next_power_of_two)
        .expect("capacity overflow")
}

/// The low half of the index word for the entry pushed onto `len` entries:
/// its number + 1, which must fit 32 bits.
fn entry_word(len: usize) -> u64 {
    assert!(len < u32::MAX as usize, "hash container is limited to 2^32 - 1 entries");
    len as u64 + 1
}

/// An open-addressing (linear probing) hash table specialized for the
/// combine-insert access pattern: insert-or-fold, no deletions, one final
/// drain — after which the table is reused as it stands.
///
/// It is both hash containers of the paper. Built by [`new`](Self::new) or
/// [`with_capacity`](Self::with_capacity) it is the growable "regular hash
/// table" of the stressed configuration (Figs 8b/9b) and Word Count's
/// default container, "more suitable for storing an arbitrary set of keys":
/// relative to the array container it adds the hash calculation, dynamic
/// memory allocation on growth, and a non-regular access pattern. Built for
/// [`ContainerKind::FixedHash`](mr_core::ContainerKind::FixedHash) it is the
/// fixed-size hash table: sized up front for a cap of distinct keys, it never
/// grows or reallocates while folding, and refuses a new key past the cap.
///
/// Keys arrive as [`Hashed`] pairs; probing and growth use the hash the key
/// carries, so `K` itself needs only `Eq`.
#[derive(Debug, Clone)]
pub struct HashContainer<K, V> {
    /// One word per slot, see the module docs; its length is a power of two.
    index: Vec<u64>,
    entries: Vec<(Hashed<K>, V)>,
    mask: usize,
    /// Distinct keys the table takes: `usize::MAX` unless it is capped.
    max_keys: usize,
}

impl<K: Eq, V> HashContainer<K, V> {
    /// Creates an empty container with the default initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(INITIAL_CAPACITY)
    }

    /// Creates an empty container able to hold at least `capacity` keys
    /// before the first growth or allocation: the index is over-allocated by
    /// the inverse load factor and the entries are reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = slots_for(capacity);
        Self {
            index: vec![0; slots],
            entries: Vec::with_capacity(capacity),
            mask: slots - 1,
            max_keys: usize::MAX,
        }
    }

    /// The fixed-size hash table: [`with_capacity`](Self::with_capacity)
    /// for `max_keys` keys, refusing any key past them, so it never grows.
    ///
    /// # Panics
    ///
    /// Panics if `max_keys` is zero.
    pub(crate) fn capped(max_keys: usize) -> Self {
        assert!(max_keys > 0, "fixed hash capacity must be nonzero");
        Self { max_keys, ..Self::with_capacity(max_keys) }
    }

    /// The cap of a [`capped`](Self::capped) table; `usize::MAX` otherwise.
    pub(crate) fn max_keys(&self) -> usize {
        self.max_keys
    }

    /// Reserves room for `additional` more entries, as `with_capacity` does
    /// up front; a drain hands the entries' allocation away.
    pub fn reserve_entries(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Folds `value` into the entry for `key`, inserting it when absent.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ContainerOverflow`] when `key` is new and the
    /// table is a fixed-size one already holding its cap of keys. Folding
    /// into a key the table holds never fails, and a table from
    /// [`new`](Self::new) or [`with_capacity`](Self::with_capacity) takes
    /// every key.
    #[inline]
    pub fn combine_insert(
        &mut self,
        key: Hashed<K>,
        value: V,
        combine: impl FnOnce(&mut V, V),
    ) -> Result<(), RuntimeError> {
        match self.find(&key) {
            Ok(entry) => combine(&mut self.entries[entry].1, value),
            Err(_) if self.entries.len() == self.max_keys => return Err(self.overflow()),
            Err(slot) => self.insert_new(slot, key, value),
        }
        Ok(())
    }

    /// The error a full capped table returns for a new key.
    #[cold]
    fn overflow(&self) -> RuntimeError {
        RuntimeError::ContainerOverflow {
            capacity: self.max_keys,
            detail: "fixed-size hash container is full".into(),
        }
    }

    /// Probes for `key`: its entry number, or the empty slot that ended the
    /// probe. Only a tag hit reads an entry.
    #[inline]
    fn find(&self, key: &Hashed<K>) -> Result<usize, usize> {
        let hash = key.hash();
        let mut slot = hash as usize & self.mask;
        loop {
            let word = self.index[slot];
            if word == 0 {
                return Err(slot);
            }
            let entry = (word & !TAG_MASK) as usize - 1;
            if word & TAG_MASK == hash & TAG_MASK && self.entries[entry].0 == *key {
                return Ok(entry);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Appends a new entry threaded at `slot`, the empty slot its probe ended
    /// on, then doubles the index if that reached the load factor.
    #[inline(never)]
    fn insert_new(&mut self, slot: usize, key: Hashed<K>, value: V) {
        self.index[slot] = (key.hash() & TAG_MASK) | entry_word(self.entries.len());
        self.entries.push((key, value));
        if self.entries.len() * LOAD_DEN > self.index.len() * LOAD_NUM {
            self.rethread(self.index.len() * 2);
        }
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &Hashed<K>) -> Option<&V> {
        self.find(key).ok().map(|entry| &self.entries[entry].1)
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current slot count of the index (always a power of two).
    pub fn capacity(&self) -> usize {
        self.index.len()
    }

    /// Iterates over the stored `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Hashed<K>, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Moves all pairs into `out` in insertion order, emptying the
    /// container. An empty `out` takes the entries by move, anything else is
    /// appended to. The index is zeroed and retained for reuse; room for
    /// entries is not (see [`reserve_entries`](Self::reserve_entries)).
    pub fn drain_into(&mut self, out: &mut Vec<(Hashed<K>, V)>) {
        if out.is_empty() {
            std::mem::swap(out, &mut self.entries);
        } else {
            out.append(&mut self.entries);
        }
        self.index.fill(0);
    }

    /// The stored pairs in insertion order, for a container that is done:
    /// [`drain_into`](Self::drain_into) without zeroing an index nobody
    /// will probe again.
    pub fn into_pairs(self) -> Vec<(Hashed<K>, V)> {
        self.entries
    }

    /// Replaces the index by one of `slots` words threaded from the entries'
    /// carried hashes. The entries stay where they are: growth costs one
    /// 8-byte store per key, plus first touch of the new index.
    fn rethread(&mut self, slots: usize) {
        self.index = vec![0; slots];
        self.mask = slots - 1;
        for (number, (key, _)) in self.entries.iter().enumerate() {
            let hash = key.hash();
            let mut slot = hash as usize & self.mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.index[slot] = (hash & TAG_MASK) | entry_word(number);
        }
    }
}

impl<K: Eq, V> Default for HashContainer<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::HasherKind;
    use proptest::prelude::*;
    use std::hash::Hash;

    fn add(acc: &mut u64, v: u64) {
        *acc += v;
    }

    /// `key` with the hash it would carry from emission.
    fn h<K: Hash>(key: K) -> Hashed<K> {
        Hashed::wrap(HasherKind::Fnv, key)
    }

    /// Folds `value` into `key` with [`add`]; a table that refuses it fails
    /// the test.
    fn put<K: Eq + Hash>(c: &mut HashContainer<K, u64>, key: K, value: u64) {
        c.combine_insert(h(key), value, add).unwrap();
    }

    /// The pairs without their carried hashes.
    fn plain<K, V>(pairs: Vec<(Hashed<K>, V)>) -> Vec<(K, V)> {
        pairs.into_iter().map(|(k, v)| (k.into_key(), v)).collect()
    }

    #[test]
    fn insert_combine_lookup() {
        let mut c = HashContainer::new();
        put(&mut c, "a", 1);
        put(&mut c, "b", 2);
        put(&mut c, "a", 3);
        assert_eq!(c.get(&h("a")), Some(&4));
        assert_eq!(c.get(&h("b")), Some(&2));
        assert_eq!(c.get(&h("c")), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut c = HashContainer::with_capacity(4);
        let initial = c.capacity();
        for i in 0..1000u64 {
            put(&mut c, i, i);
        }
        assert_eq!(c.len(), 1000);
        assert!(c.capacity() > initial);
        for i in 0..1000u64 {
            assert_eq!(c.get(&h(i)), Some(&i), "key {i} lost during growth");
        }
    }

    #[test]
    fn with_capacity_holds_exactly_capacity_keys_without_allocating() {
        // The documented contract: `with_capacity(n)` accepts n distinct
        // keys before the first growth or allocation. The 7/8 load factor
        // used to break this at n of a power of two (growing at ⌈7n/8⌉ keys,
        // e.g. 14 of 16); over-allocating the index by 8/7 restores it, and
        // the entries are reserved alongside. Neither buffer may move.
        for req in [1usize, 7, 14, 16, 100, 128, 1000] {
            let mut c: HashContainer<u64, u64> = HashContainer::with_capacity(req);
            let index = (c.index.as_ptr(), c.index.len());
            let entries = (c.entries.as_ptr(), c.entries.capacity());
            for i in 0..req as u64 {
                put(&mut c, i, 1);
            }
            assert_eq!(c.len(), req);
            assert_eq!((c.index.as_ptr(), c.index.len()), index, "with_capacity({req}): index");
            assert_eq!(
                (c.entries.as_ptr(), c.entries.capacity()),
                entries,
                "with_capacity({req}): entries"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity overflow")]
    fn an_absurd_capacity_fails_loudly_instead_of_wrapping() {
        // `capacity * 8` used to wrap in release builds and undersize.
        slots_for(usize::MAX / 4);
    }

    #[test]
    fn entry_numbers_stop_at_the_32_bit_half() {
        assert_eq!(entry_word(0), 1);
        assert_eq!(entry_word(u32::MAX as usize - 1), u64::from(u32::MAX));
        let past = std::panic::catch_unwind(|| entry_word(u32::MAX as usize));
        assert!(past.is_err(), "entry number 2^32 would spill into the tag half");
    }

    #[test]
    fn colliding_tags_and_home_slots_never_merge_distinct_keys() {
        let mut c: HashContainer<u32, u64> = HashContainer::with_capacity(64);
        // Keys whose hashes the test chooses: probing and tags see the hash,
        // equality the key.
        let mut expected = Vec::new();
        // Same hash entirely (same tag, same home slot), different keys.
        for key in 0..8 {
            expected.push(Hashed::new(0xABCD_0123_0000_0005, key));
        }
        // Same tag, different home slots.
        for key in 8..16 {
            expected.push(Hashed::new(0xABCD_0123_0000_0000 | u64::from(key), key));
        }
        // Same home slot (equal low bits), different tags.
        for key in 16..24 {
            expected.push(Hashed::new((u64::from(key) << 32) | 5, key));
        }
        for round in 1..=3u64 {
            for k in &expected {
                c.combine_insert(k.clone(), 1, add).unwrap();
            }
            assert_eq!(c.len(), expected.len(), "round {round}");
            for k in &expected {
                assert_eq!(c.get(k), Some(&round), "key {} in round {round}", k.key());
            }
        }
        // Growth re-threads the same chains from the carried hashes.
        for key in 100..400 {
            let k = Hashed::new(0xABCD_0123_0000_0005, key);
            c.combine_insert(k, 1, add).unwrap();
        }
        for k in &expected {
            assert_eq!(c.get(k), Some(&3), "key {} after growth", k.key());
        }
    }

    #[test]
    fn iter_and_drain_yield_insertion_order_and_drain_appends() {
        let keys = [9u64, 2, 7, 1, 8, 3];
        let mut c = HashContainer::with_capacity(2);
        for &k in keys.iter().chain(&keys) {
            put(&mut c, k, 1u64);
        }
        let expected: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 2)).collect();
        assert_eq!(c.iter().map(|(k, v)| (*k.key(), *v)).collect::<Vec<_>>(), expected);
        // Into an empty vector: the entries themselves.
        let mut out = Vec::new();
        c.drain_into(&mut out);
        assert_eq!(plain(out.clone()), expected);
        assert!(c.is_empty() && c.iter().next().is_none());
        // Into a non-empty one: appended, the earlier contents kept.
        put(&mut c, 4, 4);
        c.drain_into(&mut out);
        let out = plain(out);
        assert_eq!(out.len(), expected.len() + 1);
        assert_eq!(out[..expected.len()], expected[..]);
        assert_eq!(out.last(), Some(&(4, 4)));
        assert_eq!(
            c.get(&h(4)),
            None,
            "a drained key must not be found through a stale index word"
        );
    }

    #[test]
    fn into_pairs_yields_what_drain_into_does() {
        let mut drained = HashContainer::with_capacity(2);
        for i in (0..300u64).chain(0..100) {
            put(&mut drained, i * 7, 1u64);
        }
        let consumed = drained.clone();
        let mut out = Vec::new();
        drained.drain_into(&mut out);
        assert_eq!(consumed.into_pairs(), out);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = HashContainer::new();
        for i in 0..50u64 {
            put(&mut a, i, 1);
        }
        let mut b = a.clone();
        for i in 0..100u64 {
            put(&mut b, i, 10);
        }
        let mut drained = Vec::new();
        b.drain_into(&mut drained);
        assert_eq!(a.len(), 50);
        assert!((0..50u64).all(|i| a.get(&h(i)) == Some(&1)), "the clone wrote through");
        assert_eq!(drained.len(), 100);
    }

    #[test]
    fn drain_returns_everything_once() {
        let mut c = HashContainer::new();
        for i in 0..100u64 {
            put(&mut c, i, 1);
            put(&mut c, i, 1);
        }
        let mut out = Vec::new();
        c.drain_into(&mut out);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&(_, v)| v == 2));
        assert!(c.is_empty());
        // Reusable after drain.
        put(&mut c, 5, 9);
        assert_eq!(c.get(&h(5)), Some(&9));
    }

    #[test]
    fn capacity_is_power_of_two() {
        for req in [1usize, 2, 3, 7, 100] {
            let c: HashContainer<u64, u64> = HashContainer::with_capacity(req);
            assert!(c.capacity().is_power_of_two());
            assert!(c.capacity() >= req.max(2));
        }
    }

    #[test]
    fn string_keys_work() {
        let mut c = HashContainer::new();
        for word in ["map", "reduce", "map", "combine", "map"] {
            put(&mut c, word.to_string(), 1u64);
        }
        assert_eq!(c.get(&h("map".to_string())), Some(&3));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn iter_visits_every_pair_once() {
        let mut c = HashContainer::new();
        for i in 0..200u64 {
            put(&mut c, i, i * 2);
        }
        let mut pairs: Vec<(u64, u64)> = c.iter().map(|(k, v)| (*k.key(), *v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 200);
        assert!(pairs.iter().all(|&(k, v)| v == k * 2));
    }

    #[test]
    fn carried_hashes_survive_growth() {
        // Growth must re-thread from the carried hashes and lose nothing,
        // whichever hasher made them.
        let mut c: HashContainer<u64, u64> = HashContainer::with_capacity(2);
        for i in 0..500u64 {
            let key = Hashed::wrap(HasherKind::Fx, i);
            c.combine_insert(key, 1, add).unwrap();
        }
        assert_eq!(c.len(), 500);
        for i in 0..500u64 {
            assert_eq!(c.get(&Hashed::wrap(HasherKind::Fx, i)), Some(&1));
        }
    }

    proptest! {
        /// The container must agree with std's HashMap under arbitrary
        /// insert sequences (fold = add, to also exercise repeated combines)
        /// — and keep agreeing when the one instance is drained and refilled,
        /// which is how a session's combiner uses it: every cycle starts from
        /// the index the last one grew, and a later, larger cycle grows it
        /// again.
        #[test]
        fn agrees_with_std_hashmap_across_drain_cycles(
            cycles in proptest::collection::vec(
                proptest::collection::vec(0u32..4096, 0..1500),
                1..5,
            ),
            spreads in proptest::collection::vec(1u32..40, 4..5),
        ) {
            let mut ours = HashContainer::with_capacity(2);
            for (keys, spread) in cycles.into_iter().zip(spreads) {
                let mut reference = std::collections::HashMap::new();
                for k in keys {
                    // `spread` varies the distinct-key count between cycles.
                    let k = k * spread;
                    put(&mut ours, k, 1u64);
                    *reference.entry(k).or_insert(0u64) += 1;
                    prop_assert_eq!(ours.get(&h(k)), reference.get(&k));
                }
                prop_assert_eq!(ours.len(), reference.len());
                let mut out = Vec::new();
                ours.drain_into(&mut out);
                prop_assert!(ours.is_empty());
                prop_assert_eq!(out.len(), reference.len());
                let drained: std::collections::HashMap<u32, u64> = plain(out).into_iter().collect();
                prop_assert_eq!(drained, reference);
            }
        }
    }

    #[test]
    fn a_multi_megabyte_table_survives_reuse() {
        // The shape of a word-count session: a big job, a drain, the same
        // job again on the kept index, then a bigger one that grows it.
        // Sized to be quick only with the optimiser on (CI runs this crate's
        // tests in release mode as well).
        let sizes: [u64; 3] = if cfg!(debug_assertions) {
            [20_000, 20_000, 50_000]
        } else {
            [300_000, 300_000, 700_000]
        };
        let mut c: HashContainer<u64, u64> = HashContainer::new();
        let mut grown = 0;
        for (cycle, &n) in sizes.iter().enumerate() {
            for pass in 0..2 {
                for i in 0..n {
                    put(&mut c, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1);
                }
                assert_eq!(c.len(), n as usize, "cycle {cycle} pass {pass}");
            }
            if cycle == 1 {
                assert_eq!(c.capacity(), grown, "a repeat job must not grow the kept index");
            }
            grown = c.capacity();
            let mut out = Vec::new();
            c.drain_into(&mut out);
            assert_eq!(out.len(), n as usize);
            assert!(out.iter().all(|&(_, v)| v == 2), "cycle {cycle}");
            assert_eq!(c.capacity(), grown, "a drain keeps the index");
        }
    }

    /// The fixed-size hash table: the same table, capped.
    mod capped {
        use super::*;

        #[test]
        fn insert_up_to_capacity_then_overflow() {
            let mut c = HashContainer::capped(8);
            for i in 0..8u64 {
                put(&mut c, i, 1);
            }
            assert_eq!(c.len(), 8);
            let err = c.combine_insert(h(99), 1, add).unwrap_err();
            assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 8, .. }));
            // Combining into existing keys still works at capacity.
            put(&mut c, 3, 5);
            assert_eq!(c.get(&h(3)), Some(&6));
        }

        #[test]
        fn lookup_probes_past_collisions() {
            let mut c = HashContainer::capped(64);
            for i in 0..64u64 {
                put(&mut c, i, i * 10);
            }
            for i in 0..64u64 {
                assert_eq!(c.get(&h(i)), Some(&(i * 10)));
            }
            assert_eq!(c.get(&h(1000)), None);
        }

        #[test]
        fn drain_and_reuse() {
            let mut c = HashContainer::capped(4);
            put(&mut c, "x", 1);
            put(&mut c, "x", 1);
            let mut out = Vec::new();
            c.drain_into(&mut out);
            assert_eq!(plain(out), [("x", 2)]);
            assert!(c.is_empty());
            put(&mut c, "y", 1);
            assert_eq!(c.len(), 1);
        }

        #[test]
        fn iter_matches_len() {
            let mut c = HashContainer::capped(16);
            for i in 0..10u64 {
                put(&mut c, i, 1);
            }
            assert_eq!(c.iter().count(), c.len());
        }

        #[test]
        #[should_panic(expected = "capacity must be nonzero")]
        fn zero_capacity_panics() {
            let _ = HashContainer::<u64, u64>::capped(0);
        }

        #[test]
        fn capacity_reports_key_budget_not_slots() {
            let c = HashContainer::<u64, u64>::capped(100);
            assert_eq!(c.max_keys(), 100);
        }
    }
}
