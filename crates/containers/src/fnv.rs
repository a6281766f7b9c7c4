//! A minimal FNV-1a hasher.
//!
//! Keys are hashed with FNV-1a (or [`FxHasher`](crate::FxHasher)) instead of
//! the standard library's SipHash: combine-phase inserts are the hottest
//! loop in a MapReduce runtime, keys are short (words, small integers), and
//! DoS resistance is irrelevant for intermediate data we generated
//! ourselves. FNV also keeps hashing deterministic across runs, which the
//! differential test suite relies on.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a, 64-bit.
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes any `Hash` value with FNV-1a in one call.
#[inline]
pub fn fnv1a_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FnvHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of "a" = 0xaf63dc4c8601ec8c; `str::hash` prepends a length
        // marker, so hash the raw byte to check the core algorithm.
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(FnvHasher::default().finish(), FNV_OFFSET);
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(fnv1a_hash("word"), fnv1a_hash("word"));
        assert_ne!(fnv1a_hash("word"), fnv1a_hash("work"));
    }

    #[test]
    fn integers_spread() {
        // Adjacent small integers must not collide.
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(|i| fnv1a_hash(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
