//! Inverted index (II) and top-k document frequency (TopKDf): the two
//! stages of the pipeline showcase.
//!
//! Stage one builds a term → sorted posting-list index over `(doc, line)`
//! pairs; stage two consumes the index's `(term, postings)` pairs *as its
//! input items* (the shape the `ramr` crate's `then_pairs` hands over) and
//! folds them into the k terms with the highest document frequency. Both
//! folds are associative and deterministic, so the chained output is
//! byte-identical across backends and fold orders.

use mr_core::{Emitter, MapReduceJob};
use ramr_containers::CompactKey;

/// Builds an inverted index: term → sorted, deduplicated document ids.
///
/// Input elements are `(doc, line)` pairs; the map function splits the line
/// on ASCII whitespace, lower-cases each word into a [`CompactKey`] and
/// emits `(term, [doc])`. Combining is sorted-union merge, which is
/// associative and commutative — the posting lists come out identical
/// whatever order the runtime folds them in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvertedIndex;

impl MapReduceJob for InvertedIndex {
    type Input = (u32, String);
    type Key = CompactKey;
    type Value = Vec<u32>;

    fn map(&self, task: &[(u32, String)], emit: &mut Emitter<'_, CompactKey, Vec<u32>>) {
        for (doc, line) in task {
            for word in line.split_ascii_whitespace() {
                emit.emit(CompactKey::ascii_lowercase(word), vec![*doc]);
            }
        }
    }

    fn combine(&self, acc: &mut Vec<u32>, incoming: Vec<u32>) {
        *acc = sorted_union(acc, &incoming);
    }

    fn name(&self) -> &str {
        "inverted-index"
    }

    /// Indexing is a pure function of the task's lines.
    fn is_retry_safe(&self) -> bool {
        true
    }
}

/// Union of two sorted, deduplicated id lists, sorted and deduplicated.
fn sorted_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One scored index entry: document frequency and term.
pub type DfEntry = (u64, CompactKey);

/// Folds an index's `(term, postings)` pairs into the `k` terms with the
/// highest document frequency.
///
/// Input items are exactly [`InvertedIndex`]'s output pairs, so the job
/// chains behind it with `then_pairs`. Everything lands on the single key
/// `0`; the value is a leaderboard of [`DfEntry`]s ordered by document
/// frequency descending, then term ascending, truncated to `k`. Top-k
/// merge under a total order is associative (terms are distinct), so the
/// result does not depend on how the runtime folds partial leaderboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKDf {
    /// Leaderboard size.
    pub k: usize,
}

impl TopKDf {
    /// Leaderboard order: document frequency descending, term ascending.
    fn rank(a: &DfEntry, b: &DfEntry) -> std::cmp::Ordering {
        b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
    }
}

impl MapReduceJob for TopKDf {
    type Input = (CompactKey, Vec<u32>);
    type Key = u32;
    type Value = Vec<DfEntry>;

    fn map(&self, task: &[(CompactKey, Vec<u32>)], emit: &mut Emitter<'_, u32, Vec<DfEntry>>) {
        for (term, postings) in task {
            emit.emit(0, vec![(postings.len() as u64, term.clone())]);
        }
    }

    fn combine(&self, acc: &mut Vec<DfEntry>, incoming: Vec<DfEntry>) {
        let mut merged = Vec::with_capacity(acc.len() + incoming.len());
        merged.append(acc);
        merged.extend(incoming);
        merged.sort_unstable_by(Self::rank);
        merged.truncate(self.k);
        *acc = merged;
    }

    fn key_space(&self) -> Option<usize> {
        Some(1)
    }

    fn key_index(&self, _k: &u32) -> usize {
        0
    }

    fn name(&self) -> &str {
        "top-k-df"
    }

    fn is_retry_safe(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_is_sorted_and_deduplicated() {
        assert_eq!(sorted_union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(sorted_union(&[], &[4]), vec![4]);
    }

    #[test]
    fn index_map_emits_lowercased_terms_with_doc_ids() {
        let input = vec![(7u32, "The CAT".to_string())];
        let mut pairs = Vec::new();
        let mut sink = |k: CompactKey, v: Vec<u32>| pairs.push((k, v));
        let mut emitter = Emitter::new(&mut sink);
        InvertedIndex.map_to(&input, &mut emitter);
        assert_eq!(pairs, vec![("the".into(), vec![7]), ("cat".into(), vec![7])]);
    }

    #[test]
    fn topk_merge_is_order_independent() {
        let job = TopKDf { k: 2 };
        let entries: Vec<Vec<DfEntry>> = vec![
            vec![(3, "alpha".into())],
            vec![(5, "beta".into())],
            vec![(5, "aardvark".into())],
            vec![(1, "gamma".into())],
        ];
        let fold = |order: &[usize]| {
            let mut acc: Vec<DfEntry> = Vec::new();
            for &i in order {
                job.combine(&mut acc, entries[i].clone());
            }
            acc
        };
        let forward = fold(&[0, 1, 2, 3]);
        let backward = fold(&[3, 2, 1, 0]);
        assert_eq!(forward, backward);
        assert_eq!(forward, vec![(5, "aardvark".into()), (5, "beta".into())]);
    }
}
