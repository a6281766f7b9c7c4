//! [`CompactKey`]: a small-string-optimized map key.
//!
//! The paper's word-count hot loop emits one owned key per word; with
//! `String` keys every emission pays a heap allocation even though the
//! overwhelming majority of natural-language words are a handful of bytes.
//! `CompactKey` stores keys up to [`CompactKey::INLINE_CAPACITY`] bytes
//! inline (the struct is pointer-bump-free and exactly 24 bytes, the same
//! size as `String`) and spills to a `Box<str>` only beyond that.
//!
//! `CompactKey` is observationally identical to `String` over the same
//! bytes: `Eq`, `Ord` and `Hash` all agree with the underlying `str` (the
//! inline fast paths compare the zero-padded buffer whole), and
//! `Borrow<str>` holds, so it drops into `MapReduceJob::Key` (and any
//! `HashMap`/`BTreeMap` keyed by strings) unchanged.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A string key that stores short strings inline and heap-spills long ones.
///
/// See the module docs for the motivation. The inline capacity is
/// [`CompactKey::INLINE_CAPACITY`] bytes; construction from anything longer
/// allocates exactly one `Box<str>`.
///
/// ```
/// use std::borrow::Borrow;
/// use ramr_containers::CompactKey;
///
/// let short = CompactKey::new("ephemeral");
/// assert!(short.is_inline());
/// assert_eq!(short.as_str(), "ephemeral");
/// let long = CompactKey::new("a-key-much-longer-than-the-inline-buffer");
/// assert!(!long.is_inline());
/// let s: &str = long.borrow();
/// assert_eq!(s, "a-key-much-longer-than-the-inline-buffer");
/// ```
#[derive(Clone)]
pub struct CompactKey(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` bytes of UTF-8 in the front of `buf`.
    Inline { len: u8, buf: [u8; CompactKey::INLINE_CAPACITY] },
    /// Keys longer than the inline buffer.
    Spilled(Box<str>),
}

impl CompactKey {
    /// Longest key (in bytes) stored without a heap allocation.
    pub const INLINE_CAPACITY: usize = 22;

    /// Builds a key from `s`, inline when it fits.
    pub fn new(s: &str) -> Self {
        if s.len() <= Self::INLINE_CAPACITY {
            let mut buf = [0u8; Self::INLINE_CAPACITY];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            CompactKey(Repr::Inline { len: s.len() as u8, buf })
        } else {
            CompactKey(Repr::Spilled(s.into()))
        }
    }

    /// Builds the ASCII-lowercased key of `s` without allocating when the
    /// result fits inline — the zero-alloc emission path for word count
    /// (`word.to_ascii_lowercase()` on a `String` key allocates per word;
    /// this lowercases into the inline buffer instead).
    pub fn ascii_lowercase(s: &str) -> Self {
        if s.len() <= Self::INLINE_CAPACITY {
            let mut buf = [0u8; Self::INLINE_CAPACITY];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            // Lower-case the whole fixed-width buffer, not just `len` bytes:
            // the compiler vectorizes the constant-length loop, and the zero
            // padding is not an ASCII uppercase byte so it passes unchanged.
            buf.make_ascii_lowercase();
            CompactKey(Repr::Inline { len: s.len() as u8, buf })
        } else {
            let mut owned = s.to_string();
            owned.make_ascii_lowercase();
            CompactKey(Repr::Spilled(owned.into_boxed_str()))
        }
    }

    /// The key's bytes as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                let bytes = &buf[..*len as usize];
                debug_assert!(std::str::from_utf8(bytes).is_ok());
                // SAFETY: inline bytes are only ever written by `new` and
                // `ascii_lowercase`, both from a whole `&str` of at most
                // INLINE_CAPACITY bytes; ASCII-lowercasing maps bytes
                // 'A'..='Z' only, which cannot break UTF-8. Checked
                // validation here costs ~40% on the Eq/Ord/Hash hot path
                // (every table probe goes through `as_str`).
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Spilled(s) => s,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(s) => s.len(),
        }
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the key is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Default for CompactKey {
    fn default() -> Self {
        CompactKey::new("")
    }
}

impl PartialEq for CompactKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Padding bytes are canonical zeros (`new`/`ascii_lowercase`
            // zero-fill), so two inline keys are equal iff their whole
            // fixed-width (len, buf) images are — a branchless constant
            // -length compare the hot probe loop vectorizes, instead of a
            // variable-length memcmp.
            (Repr::Inline { len: la, buf: ba }, Repr::Inline { len: lb, buf: bb }) => {
                la == lb && ba == bb
            }
            (Repr::Spilled(a), Repr::Spilled(b)) => a == b,
            // Inline holds <= INLINE_CAPACITY bytes, Spilled strictly more,
            // so mixed representations can never be equal.
            _ => false,
        }
    }
}
impl Eq for CompactKey {}

impl PartialOrd for CompactKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CompactKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            // Zero padding again: byte-lexicographic order of two inline
            // keys is the order of their whole buffers read as big-endian
            // words, and equal buffers (one key is the other plus trailing
            // `\0` bytes) order by length. Three word compares instead of a
            // variable-length memcmp — this is the reduce phase's sort
            // comparator.
            (Repr::Inline { len: la, buf: ba }, Repr::Inline { len: lb, buf: bb }) => {
                // The last word overlaps the second by two bytes, which are
                // equal by the time it is looked at.
                for at in [0, 8, Self::INLINE_CAPACITY - 8] {
                    let word = |buf: &[u8; Self::INLINE_CAPACITY]| {
                        u64::from_be_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
                    };
                    let (wa, wb) = (word(ba), word(bb));
                    if wa != wb {
                        return wa.cmp(&wb);
                    }
                }
                la.cmp(lb)
            }
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

/// Delegates to `str::hash`, so `CompactKey` hashes identically to the
/// `String`/`str` with the same bytes under any `BuildHasher` — the
/// agreement `Borrow<str>` requires.
impl Hash for CompactKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Borrow<str> for CompactKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for CompactKey {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::ops::Deref for CompactKey {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for CompactKey {
    fn from(s: &str) -> Self {
        CompactKey::new(s)
    }
}

impl From<String> for CompactKey {
    fn from(s: String) -> Self {
        if s.len() <= Self::INLINE_CAPACITY {
            CompactKey::new(&s)
        } else {
            // Reuse the String's existing buffer instead of re-allocating.
            CompactKey(Repr::Spilled(s.into_boxed_str()))
        }
    }
}

impl From<CompactKey> for String {
    fn from(k: CompactKey) -> String {
        match k.0 {
            Repr::Inline { .. } => k.as_str().to_string(),
            Repr::Spilled(s) => s.into_string(),
        }
    }
}

impl fmt::Debug for CompactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for CompactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fnv1a_hash, fx_hash, Hashed};
    use mr_core::HasherKind;
    use proptest::prelude::*;

    #[test]
    fn same_size_as_string() {
        assert_eq!(std::mem::size_of::<CompactKey>(), std::mem::size_of::<String>());
    }

    #[test]
    fn inline_to_spill_boundary() {
        let at = "x".repeat(CompactKey::INLINE_CAPACITY);
        let over = "x".repeat(CompactKey::INLINE_CAPACITY + 1);
        assert!(CompactKey::new(&at).is_inline());
        assert!(!CompactKey::new(&over).is_inline());
        assert_eq!(CompactKey::new(&at).as_str(), at);
        assert_eq!(CompactKey::new(&over).as_str(), over);
    }

    #[test]
    fn ascii_lowercase_matches_string_path() {
        for s in ["MiXeD", "ALL-CAPS", "ümlaut-PASSES-THROUGH", "", "x"] {
            assert_eq!(CompactKey::ascii_lowercase(s).as_str(), s.to_ascii_lowercase());
        }
        let long = "LONGER-THAN-THE-INLINE-BUFFER-FOR-SURE";
        assert_eq!(CompactKey::ascii_lowercase(long).as_str(), long.to_ascii_lowercase());
    }

    #[test]
    fn conversions_roundtrip() {
        let k: CompactKey = "beta".into();
        let s: String = k.clone().into();
        assert_eq!(s, "beta");
        assert_eq!(CompactKey::from(s), k);
        assert_eq!(CompactKey::default().as_str(), "");
        assert!(CompactKey::default().is_empty());
    }

    /// Decodes a byte vector into a string mixing ASCII and multi-byte
    /// chars, so lengths straddle the inline↔spill boundary in byte terms,
    /// not just char terms.
    fn string_from(bytes: &[u8]) -> String {
        bytes.iter().map(|&b| if b >= 120 { 'ß' } else { char::from(b % 95 + 32) }).collect()
    }

    /// Like [`string_from`] over a five-char alphabet that includes `\0` and
    /// 2- and 3-byte chars: two such strings share long prefixes, so their
    /// compare reaches the second and third word and the length tie-break,
    /// with multi-byte chars straddling the word edges.
    fn clustered_string_from(bytes: &[u8]) -> String {
        bytes.iter().map(|&b| ['a', 'b', '\0', 'ß', '€'][b as usize % 5]).collect()
    }

    /// `a`, `b` and every pair of their prefixes must order as the strings
    /// do, and so must the same keys wrapped in `Hashed`.
    fn assert_orders_like_str(a: &str, b: &str) {
        let prefixes = |s: &str| -> Vec<String> {
            let cuts = [0, 7, 8, 9, 16, 21, 22, 23, s.len()];
            cuts.iter().filter_map(|&cut| s.get(..cut)).map(str::to_string).collect()
        };
        let mut strings = prefixes(a);
        strings.extend(prefixes(b));
        for x in &strings {
            for y in &strings {
                let (kx, ky) = (CompactKey::new(x), CompactKey::new(y));
                assert_eq!(kx.cmp(&ky), x.cmp(y), "{x:?} vs {y:?}");
                assert_eq!(kx == ky, x == y, "{x:?} vs {y:?}");
            }
        }
        let mut keys: Vec<Hashed<CompactKey>> =
            strings.iter().map(|s| Hashed::wrap(HasherKind::Fx, CompactKey::new(s))).collect();
        keys.sort_unstable();
        strings.sort_unstable();
        let sorted: Vec<&str> = keys.iter().map(|k| k.key().as_str()).collect();
        assert_eq!(sorted, strings);
    }

    #[test]
    fn word_compare_orders_boundary_lengths_like_str() {
        // One key a prefix of the other, differing only in trailing NULs,
        // at every length around a word edge and the inline↔spill edge.
        for fill in ["a", "\0", "ß", "€"] {
            let long = fill.repeat(24);
            assert_orders_like_str(&long, &format!("{}b", &long[..fill.len() * (21 / fill.len())]));
            assert_orders_like_str(
                &long,
                &format!("{}\0\0", &long[..fill.len() * (6 / fill.len())]),
            );
        }
        assert_orders_like_str("", "\0");
        assert_orders_like_str("abcdefgh\0", "abcdefgh");
        assert_orders_like_str("abcdefghijklmnopqrstuv", "abcdefghijklmnopqrstuvw");
    }

    proptest! {
        /// `Ord`'s inline fast path against `str::cmp`, on strings built to
        /// collide deep into the buffer (see [`clustered_string_from`]).
        #[test]
        fn word_compare_matches_str_compare(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            b in proptest::collection::vec(any::<u8>(), 0..32),
            shared in 0usize..32,
        ) {
            let a = clustered_string_from(&a);
            // `b` repeats `a`'s first `shared` chars, then goes its own way.
            let b: String =
                a.chars().take(shared).chain(clustered_string_from(&b).chars()).collect();
            assert_orders_like_str(&a, &b);
        }

        /// `CompactKey` must be observationally identical to `String`:
        /// equality, ordering and hashing all agree on arbitrary strings,
        /// including ones straddling the inline↔spill boundary.
        #[test]
        fn observationally_identical_to_string(
            a in proptest::collection::vec(0u8..128, 0..32),
            b in proptest::collection::vec(0u8..128, 0..32),
        ) {
            let (a, b) = (string_from(&a), string_from(&b));
            let (ka, kb) = (CompactKey::new(&a), CompactKey::new(&b));
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            prop_assert_eq!(fnv1a_hash(&ka), fnv1a_hash(&a));
            prop_assert_eq!(fx_hash(&ka), fx_hash(&a));
            prop_assert_eq!(fx_hash(&kb), fx_hash(&b));
            // Hash agreement for the equal case is implied by the two lines
            // above; roundtrip and the boundary predicate close the loop.
            prop_assert_eq!(String::from(ka.clone()), a.clone());
            prop_assert_eq!(ka.is_inline(), a.len() <= CompactKey::INLINE_CAPACITY);
            prop_assert_eq!(kb.is_inline(), b.len() <= CompactKey::INLINE_CAPACITY);
        }
    }
}
