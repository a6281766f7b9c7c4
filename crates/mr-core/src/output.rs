//! Final job output: key-sorted reduced pairs plus execution statistics.

use crate::{MrKey, MrValue, PhaseStats};

/// The result of one MapReduce invocation.
///
/// Pairs are sorted by key (ascending), matching the merge phase of
/// Phoenix-family runtimes, so two runs over the same data are directly
/// comparable with `==` on `pairs` — the foundation of the differential test
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput<K, V> {
    /// Key-sorted `(key, reduced value)` pairs, one entry per distinct key.
    pub pairs: Vec<(K, V)>,
    /// Timing and counter statistics for the run.
    pub stats: PhaseStats,
}

impl<K: MrKey, V: MrValue> JobOutput<K, V> {
    /// Creates an output from pairs that are *already* key-sorted — the
    /// merge phase's contract — so nothing is re-sorted.
    ///
    /// # Panics
    ///
    /// Debug-asserts that keys are strictly increasing (sorted *and*
    /// unique); a violation means the caller's merge or reduce phase is
    /// broken.
    pub fn from_sorted(pairs: Vec<(K, V)>, stats: PhaseStats) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly increasing keys (sorted, one pair per key)"
        );
        Self { pairs, stats }
    }

    /// Looks up the reduced value for `key` by binary search.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.pairs.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| &self.pairs[i].1)
    }

    /// Number of distinct keys in the output.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the job produced no keys at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.pairs.iter()
    }

    /// Consumes the output, returning the sorted pairs.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }
}

impl<K: MrKey, V: MrValue> IntoIterator for JobOutput<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a JobOutput<K, V> {
    type Item = &'a (K, V);
    type IntoIter = std::slice::Iter<'a, (K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobOutput<u32, u64> {
        JobOutput::from_sorted(vec![(1, 10), (2, 20), (3, 30)], PhaseStats::default())
    }

    #[test]
    fn get_finds_present_and_absent_keys() {
        let out = sample();
        assert_eq!(out.get(&2), Some(&20));
        assert_eq!(out.get(&9), None);
    }

    #[test]
    fn len_and_emptiness() {
        assert_eq!(sample().len(), 3);
        assert!(!sample().is_empty());
        let empty: JobOutput<u32, u64> = JobOutput::from_sorted(Vec::new(), PhaseStats::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn into_iterator_yields_sorted_pairs() {
        let collected: Vec<(u32, u64)> = sample().into_iter().collect();
        assert_eq!(collected, vec![(1, 10), (2, 20), (3, 30)]);
        let by_ref: Vec<u32> = (&sample()).into_iter().map(|(k, _)| *k).collect();
        assert_eq!(by_ref, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "one pair per key")]
    #[cfg(debug_assertions)]
    fn duplicate_keys_are_rejected_in_debug() {
        let _ = JobOutput::from_sorted(vec![(1u32, 1u64), (1, 2)], PhaseStats::default());
    }

    #[test]
    fn from_sorted_accepts_sorted_pairs() {
        let out =
            JobOutput::from_sorted(vec![(1u32, 10u64), (2, 20), (3, 30)], PhaseStats::default());
        assert_eq!(out.pairs, sample().pairs);
        let empty: JobOutput<u32, u64> = JobOutput::from_sorted(Vec::new(), PhaseStats::default());
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn from_sorted_rejects_unsorted_pairs_in_debug() {
        let _ = JobOutput::from_sorted(vec![(2u32, 1u64), (1, 2)], PhaseStats::default());
    }
}
