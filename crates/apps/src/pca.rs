//! Principal Component Analysis (PCA): row means, then the covariance
//! matrix, each as one MapReduce pass — the two-stage structure of the
//! Phoenix PCA benchmark.

use std::sync::Arc;

use mr_core::{Emitter, MapReduceJob};

use crate::matrix_multiply::Matrix;

/// Stage 1: the mean of every matrix row.
///
/// Input elements are row indices; the map sums the row and emits
/// `(row, sum)`; the driver divides by the row length. The key space is the
/// number of rows.
#[derive(Debug, Clone)]
pub struct PcaMeanJob {
    matrix: Arc<Matrix>,
}

impl PcaMeanJob {
    /// Creates the mean job over `matrix`.
    pub fn new(matrix: Arc<Matrix>) -> Self {
        Self { matrix }
    }

    /// The task list: one input element per row.
    pub fn tasks(&self) -> Vec<u32> {
        (0..self.matrix.n() as u32).collect()
    }

    /// Converts the reduced sums into per-row means.
    pub fn means(&self, reduced: &[(u32, i64)]) -> Vec<f64> {
        let n = self.matrix.n();
        let mut means = vec![0.0; n];
        for &(row, sum) in reduced {
            means[row as usize] = sum as f64 / n as f64;
        }
        means
    }
}

impl MapReduceJob for PcaMeanJob {
    type Input = u32;
    type Key = u32;
    type Value = i64;

    fn map(&self, task: &[u32], emit: &mut Emitter<'_, u32, i64>) {
        for &row in task {
            let sum: i64 = self.matrix.row(row as usize).iter().sum();
            emit.emit(row, sum);
        }
    }

    fn combine(&self, acc: &mut i64, incoming: i64) {
        // Each row is emitted exactly once, but partial re-emissions (e.g.
        // if a driver splits rows) still sum correctly.
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.matrix.n())
    }

    fn key_index(&self, key: &u32) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "pca-mean"
    }
}

/// Stage 2: the upper-triangular covariance matrix.
///
/// Input elements are row indices `i`; the map computes
/// `cov(i, j) = Σ_c (a[i][c] − μ_i)(a[j][c] − μ_j)` for every `j ≥ i` and
/// emits `(i * n + j, cov)`. Work per input element is `O(n²)` multiplies —
/// the paper's highest-IPB application — while the combine phase only
/// places each emitted value once and thus causes very few stalls, which is
/// §IV-E's explanation for PCA being RAMR-neutral: plenty of computation
/// but no resource bottleneck for the decoupling to relieve.
#[derive(Debug, Clone)]
pub struct PcaCovJob {
    matrix: Arc<Matrix>,
    means: Arc<Vec<f64>>,
}

impl PcaCovJob {
    /// Creates the covariance job.
    ///
    /// # Panics
    ///
    /// Panics if `means.len()` differs from the matrix size.
    pub fn new(matrix: Arc<Matrix>, means: Arc<Vec<f64>>) -> Self {
        assert_eq!(matrix.n(), means.len(), "one mean per row required");
        Self { matrix, means }
    }

    /// The task list: one input element per row.
    pub fn tasks(&self) -> Vec<u32> {
        (0..self.matrix.n() as u32).collect()
    }

    /// Recovers `cov(i, j)` from a reduced key.
    pub fn unflatten(&self, key: u64) -> (usize, usize) {
        let n = self.matrix.n();
        ((key / n as u64) as usize, (key % n as u64) as usize)
    }
}

impl MapReduceJob for PcaCovJob {
    type Input = u32;
    type Key = u64;
    type Value = f64;

    fn map(&self, task: &[u32], emit: &mut Emitter<'_, u64, f64>) {
        let n = self.matrix.n();
        for &i in task {
            let i = i as usize;
            let row_i = self.matrix.row(i);
            let mean_i = self.means[i];
            for j in i..n {
                let row_j = self.matrix.row(j);
                let mean_j = self.means[j];
                let mut cov = 0.0;
                for c in 0..n {
                    cov += (row_i[c] as f64 - mean_i) * (row_j[c] as f64 - mean_j);
                }
                emit.emit((i * n + j) as u64, cov / (n as f64 - 1.0).max(1.0));
            }
        }
    }

    fn combine(&self, acc: &mut f64, incoming: f64) {
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.matrix.n() * self.matrix.n())
    }

    fn key_index(&self, key: &u64) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "pca-cov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_3x3() -> Arc<Matrix> {
        Arc::new(Matrix::from_rows(3, vec![1, 2, 3, 4, 5, 6, 9, 7, 5]))
    }

    fn run_means(job: &PcaMeanJob) -> Vec<f64> {
        let tasks = job.tasks();
        let mut reduced = Vec::new();
        let mut sink = |k: u32, v: i64| reduced.push((k, v));
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(&tasks, &mut emitter);
        job.means(&reduced)
    }

    #[test]
    fn means_are_row_averages() {
        let job = PcaMeanJob::new(matrix_3x3());
        assert_eq!(run_means(&job), [2.0, 5.0, 7.0]);
    }

    #[test]
    fn covariance_matches_hand_computation() {
        let matrix = matrix_3x3();
        let means = Arc::new(run_means(&PcaMeanJob::new(Arc::clone(&matrix))));
        let job = PcaCovJob::new(Arc::clone(&matrix), means);
        let mut cov = std::collections::BTreeMap::new();
        let mut sink = |k: u64, v: f64| {
            cov.insert(k, v);
        };
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(&job.tasks(), &mut emitter);
        // Row 0 = [1,2,3] (mean 2): var = ((-1)^2 + 0 + 1^2)/2 = 1.
        assert!((cov[&0] - 1.0).abs() < 1e-12);
        // Row 2 = [9,7,5] (mean 7): var = (4 + 0 + 4)/2 = 4.
        assert!((cov[&8] - 4.0).abs() < 1e-12);
        // cov(0, 2): ((-1)(2) + 0 + (1)(-2))/2 = -2.
        assert!((cov[&2] - -2.0).abs() < 1e-12);
        // Only the upper triangle is emitted.
        assert_eq!(cov.len(), 6);
        assert!(!cov.contains_key(&3), "key (1,0) is in the lower triangle");
    }

    #[test]
    fn unflatten_inverts_flattening() {
        let job = PcaCovJob::new(matrix_3x3(), Arc::new(vec![0.0; 3]));
        assert_eq!(job.unflatten(0), (0, 0));
        assert_eq!(job.unflatten(5), (1, 2));
        assert_eq!(job.unflatten(8), (2, 2));
    }

    #[test]
    #[should_panic(expected = "one mean per row")]
    fn wrong_mean_count_panics() {
        let _ = PcaCovJob::new(matrix_3x3(), Arc::new(vec![0.0; 2]));
    }

    #[test]
    fn key_spaces_are_declared() {
        let matrix = matrix_3x3();
        assert_eq!(PcaMeanJob::new(Arc::clone(&matrix)).key_space(), Some(3));
        assert_eq!(PcaCovJob::new(matrix, Arc::new(vec![0.0; 3])).key_space(), Some(9));
    }
}
