//! KMeans (KM): Lloyd's algorithm, one iteration per MR invocation.

use mr_core::{Emitter, MapReduceJob};

/// Dimensionality of the clustered points (Phoenix uses low-dimensional
/// synthetic points; 3 keeps values `Copy`-cheap while leaving the distance
/// computation non-trivial).
pub const DIM: usize = 3;

/// A point in `DIM`-dimensional space.
pub type Point = [f64; DIM];

/// Per-cluster accumulator: component-wise sum and member count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterAccum {
    /// Component-wise sum of member points.
    pub sum: Point,
    /// Number of member points.
    pub count: u64,
}

/// One Lloyd iteration as a MapReduce job.
///
/// The map function finds each point's nearest centroid (k distance
/// computations — the CPU-heavy part) and emits
/// `(cluster, (point, 1))`; the combine folds component-wise sums. The key
/// space is exactly `k`, so the default container is a `k`-slot array.
///
/// KM is one of the paper's best RAMR citizens (speedups up to 2.8x):
/// its map is compute-intensive while its combine streams through wide
/// accumulators, giving the complementary profile the decoupled pipeline
/// exploits. The driver [`KmeansState`] re-invokes the job until the
/// centroids converge, mirroring Phoenix's iterative structure.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansJob {
    centroids: Vec<Point>,
}

impl KmeansJob {
    /// Creates the job for one iteration, given the current centroids.
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty.
    pub fn new(centroids: Vec<Point>) -> Self {
        assert!(!centroids.is_empty(), "kmeans requires at least one centroid");
        Self { centroids }
    }

    /// The centroids this iteration assigns against.
    pub fn centroids(&self) -> &[Point] {
        &self.centroids
    }

    /// Index of the centroid nearest to `p` (squared Euclidean distance).
    pub fn nearest(&self, p: &Point) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let mut d = 0.0;
            for dim in 0..DIM {
                let delta = p[dim] - c[dim];
                d += delta * delta;
            }
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl MapReduceJob for KmeansJob {
    type Input = Point;
    type Key = u32;
    type Value = ClusterAccum;

    fn map(&self, task: &[Point], emit: &mut Emitter<'_, u32, ClusterAccum>) {
        emit.reborrow(|emit| self.map_to(task, emit));
    }

    /// One array-keyed pair a point: the runtimes' sink is inlined here
    /// rather than called through `map`'s `dyn` emitter.
    fn map_to<S: FnMut(u32, ClusterAccum)>(
        &self,
        task: &[Point],
        emit: &mut Emitter<'_, u32, ClusterAccum, S>,
    ) {
        for p in task {
            let cluster = self.nearest(p) as u32;
            emit.emit(cluster, ClusterAccum { sum: *p, count: 1 });
        }
    }

    fn combine(&self, acc: &mut ClusterAccum, incoming: ClusterAccum) {
        for dim in 0..DIM {
            acc.sum[dim] += incoming.sum[dim];
        }
        acc.count += incoming.count;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.centroids.len())
    }

    fn key_index(&self, key: &u32) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "kmeans"
    }
}

/// Driver state for the iterative algorithm.
///
/// Runtime-agnostic: the caller supplies a closure that executes one MR
/// invocation (on whichever runtime), and [`KmeansState::step`] converts the
/// reduced accumulators into the next centroid set.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansState {
    centroids: Vec<Point>,
    iterations: usize,
}

impl KmeansState {
    /// Seeds `k` centroids deterministically from the first `k` distinct
    /// input points (falling back to the origin when input is short).
    pub fn seeded(points: &[Point], k: usize) -> Self {
        let mut centroids: Vec<Point> = Vec::with_capacity(k);
        for p in points {
            if centroids.len() == k {
                break;
            }
            if !centroids.contains(p) {
                centroids.push(*p);
            }
        }
        while centroids.len() < k {
            centroids.push([0.0; DIM]);
        }
        Self { centroids, iterations: 0 }
    }

    /// The current centroids.
    pub fn centroids(&self) -> &[Point] {
        &self.centroids
    }

    /// Completed iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The job computing the next iteration.
    pub fn job(&self) -> KmeansJob {
        KmeansJob::new(self.centroids.clone())
    }

    /// Absorbs one iteration's reduced output (cluster → accumulator) and
    /// returns the largest centroid movement (L∞ over all centroids) — the
    /// caller's convergence criterion. Empty clusters keep their centroid.
    pub fn step(&mut self, reduced: &[(u32, ClusterAccum)]) -> f64 {
        let mut max_move = 0.0f64;
        for (cluster, accum) in reduced {
            if accum.count == 0 {
                continue;
            }
            let c = &mut self.centroids[*cluster as usize];
            for (dim, coord) in c.iter_mut().enumerate() {
                let new = accum.sum[dim] / accum.count as f64;
                max_move = max_move.max((new - *coord).abs());
                *coord = new;
            }
        }
        self.iterations += 1;
        max_move
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_points() -> Vec<Point> {
        let mut points = Vec::new();
        for i in 0..50 {
            let jitter = (i % 5) as f64 * 0.01;
            points.push([0.0 + jitter, 0.0, 0.0]);
            points.push([10.0 - jitter, 10.0, 10.0]);
        }
        points
    }

    #[test]
    fn nearest_picks_closest_centroid() {
        let job = KmeansJob::new(vec![[0.0; DIM], [10.0; DIM]]);
        assert_eq!(job.nearest(&[1.0, 1.0, 1.0]), 0);
        assert_eq!(job.nearest(&[9.0, 9.0, 9.0]), 1);
    }

    #[test]
    fn map_emits_one_accum_per_point() {
        let job = KmeansJob::new(vec![[0.0; DIM], [10.0; DIM]]);
        let mut emitted = Vec::new();
        let mut sink = |k: u32, v: ClusterAccum| emitted.push((k, v));
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(&[[0.5, 0.0, 0.0], [9.5, 10.0, 10.0]], &mut emitter);
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].0, 0);
        assert_eq!(emitted[1].0, 1);
        assert_eq!(emitted[1].1.count, 1);
    }

    #[test]
    fn combine_sums_componentwise() {
        let job = KmeansJob::new(vec![[0.0; DIM]]);
        let mut acc = ClusterAccum { sum: [1.0, 2.0, 3.0], count: 2 };
        job.combine(&mut acc, ClusterAccum { sum: [0.5, 0.5, 0.5], count: 1 });
        assert_eq!(acc.sum, [1.5, 2.5, 3.5]);
        assert_eq!(acc.count, 3);
    }

    #[test]
    fn iterative_driver_converges_on_two_blobs() {
        let points = two_blob_points();
        let mut state = KmeansState::seeded(&points, 2);
        // Run Lloyd iterations sequentially (no MR runtime needed here).
        for _ in 0..20 {
            let job = state.job();
            let mut accums: std::collections::BTreeMap<u32, ClusterAccum> = Default::default();
            let mut sink = |k: u32, v: ClusterAccum| {
                let acc = accums.entry(k).or_default();
                job.combine(acc, v);
            };
            let mut emitter = Emitter::new(&mut sink);
            job.map_to(&points, &mut emitter);
            let reduced: Vec<(u32, ClusterAccum)> = accums.into_iter().collect();
            if state.step(&reduced) < 1e-9 {
                break;
            }
        }
        let mut final_centroids = state.centroids().to_vec();
        final_centroids.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("finite"));
        assert!((final_centroids[0][0] - 0.02).abs() < 0.1, "{final_centroids:?}");
        assert!((final_centroids[1][0] - 9.98).abs() < 0.1, "{final_centroids:?}");
        assert!(state.iterations() >= 1);
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        let mut state = KmeansState::seeded(&[[5.0, 5.0, 5.0]], 2);
        let before = state.centroids()[1];
        state.step(&[(0, ClusterAccum { sum: [5.0, 5.0, 5.0], count: 1 })]);
        assert_eq!(state.centroids()[1], before);
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn empty_centroids_panic() {
        let _ = KmeansJob::new(Vec::new());
    }

    #[test]
    fn seeding_is_deterministic_and_distinct() {
        let points = two_blob_points();
        let a = KmeansState::seeded(&points, 2);
        let b = KmeansState::seeded(&points, 2);
        assert_eq!(a, b);
        assert_ne!(a.centroids()[0], a.centroids()[1]);
    }
}
