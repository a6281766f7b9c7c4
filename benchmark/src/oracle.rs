//! The correctness oracle: a plain single-threaded fold, no runtime crates.
//!
//! Every job on every backend must reproduce the oracle's pairs exactly
//! (and therefore its `digest64(render_pairs(..))`); the time the fold
//! takes is `serial_job_ms`, the context every `*_job_ms` is read against.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mr_apps::kmeans::ClusterAccum;
use mr_apps::{KmeansState, Point};
use mr_core::{Emitter, MapReduceJob};

/// The key-sorted reduced pairs of one job.
pub type Pairs<J> = Vec<(<J as MapReduceJob>::Key, <J as MapReduceJob>::Value)>;

/// Maps the whole input as one task and folds every emitted pair into a
/// `BTreeMap` with the job's own `combine`, then applies `reduce` — the
/// job's semantics with no threads, queues, containers or phases.
pub fn fold<J: MapReduceJob>(job: &J, input: &[J::Input]) -> Pairs<J> {
    let mut table: BTreeMap<J::Key, J::Value> = BTreeMap::new();
    let mut sink = |key: J::Key, value: J::Value| match table.entry(key) {
        Entry::Occupied(mut slot) => job.combine(slot.get_mut(), value),
        Entry::Vacant(slot) => {
            slot.insert(value);
        }
    };
    job.map(input, &mut Emitter::new(&mut sink));
    table
        .into_iter()
        .map(|(key, value)| {
            let reduced = job.reduce(&key, value);
            (key, reduced)
        })
        .collect()
}

/// `rounds` Lloyd rounds of `k`-means, each a [`fold`]; the last round's
/// pairs are what `Pipeline::iterate(..).rounds(rounds)` must return.
pub fn kmeans(points: &[Point], k: usize, rounds: usize) -> Vec<(u32, ClusterAccum)> {
    let mut state = KmeansState::seeded(points, k);
    let mut last = Vec::new();
    for _ in 0..rounds {
        last = fold(&state.job(), points);
        state.step(&last);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_apps::WordCount;

    #[test]
    fn fold_counts_words_in_key_order() {
        let lines = vec!["b a b".to_string(), "c b".to_string()];
        let pairs = fold(&WordCount, &lines);
        let rendered: Vec<(String, u64)> =
            pairs.into_iter().map(|(k, v)| (k.as_str().to_string(), v)).collect();
        assert_eq!(rendered, [("a".into(), 1), ("b".into(), 3), ("c".into(), 1)]);
    }

    #[test]
    fn kmeans_rounds_move_the_centroids() {
        let points = crate::gen::lattice_points(500, 1);
        let one = kmeans(&points, 4, 1);
        let five = kmeans(&points, 4, 5);
        assert_eq!(one.iter().map(|(_, a)| a.count).sum::<u64>(), 500);
        assert_eq!(five.iter().map(|(_, a)| a.count).sum::<u64>(), 500);
        assert_ne!(one, five, "later rounds reassign points");
    }
}
