//! Matrix Multiply (MM), "adapted to utilize the Map/Reduce semantics".

use std::sync::Arc;

use mr_core::{Emitter, MapReduceJob};

/// A dense row-major integer matrix.
///
/// Integer entries keep products and sums exact, so both runtimes produce
/// bit-identical results — important for the differential tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    n: usize,
    data: Vec<i64>,
}

impl Matrix {
    /// Creates an `n × n` matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must be n*n");
        Self { n, data }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> i64 {
        self.data[row * self.n + col]
    }

    /// The full row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[i64] {
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// Reference (sequential) product, for verification.
    pub fn multiply_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.n, rhs.n);
        let n = self.n;
        let mut out = vec![0i64; n * n];
        for i in 0..n {
            for k in 0..n {
                let a = self.at(i, k);
                for j in 0..n {
                    out[i * n + j] += a * rhs.at(k, j);
                }
            }
        }
        Matrix { n, data: out }
    }
}

/// One map task: a row of `A` times one block of the inner (`k`) dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MmTask {
    /// Row of the output being produced.
    pub row: usize,
    /// Which `k`-block this task covers.
    pub k_block: usize,
}

/// Blocked `C = A × B` as a MapReduce job.
///
/// The inner dimension is split into blocks of `k_block_size`; each input
/// element (an [`MmTask`]) computes the partial products of one output row
/// restricted to one block, emitting `((i, j), partial)` for every column.
/// The combine phase sums partials across blocks — this is what makes MM a
/// *real* combine workload rather than a pure map: every output cell is
/// combined `n / k_block_size` times.
///
/// Keys are flattened to `i * n + j`; the key space is `n²`, so the default
/// container is an array over all output cells. The paper notes (§IV-E)
/// that this very choice makes MM's default-container profile stall-heavy:
/// each worker allocates the full `n²` array but touches only the rows it
/// maps, and switching to a right-sized hash container *reduces* its stalls.
#[derive(Debug, Clone)]
pub struct MatrixMultiply {
    a: Arc<Matrix>,
    b: Arc<Matrix>,
    k_block_size: usize,
}

impl MatrixMultiply {
    /// Creates the job for `a × b` with the given inner-dimension block.
    ///
    /// # Panics
    ///
    /// Panics if the matrices differ in size or `k_block_size` is zero.
    pub fn new(a: Arc<Matrix>, b: Arc<Matrix>, k_block_size: usize) -> Self {
        assert_eq!(a.n(), b.n(), "matrices must agree in size");
        assert!(k_block_size > 0, "k_block_size must be nonzero");
        Self { a, b, k_block_size }
    }

    /// Side length of the matrices.
    pub fn n(&self) -> usize {
        self.a.n()
    }

    /// Generates the task list covering the whole product.
    pub fn tasks(&self) -> Vec<MmTask> {
        let n = self.n();
        let blocks = n.div_ceil(self.k_block_size);
        let mut tasks = Vec::with_capacity(n * blocks);
        for row in 0..n {
            for k_block in 0..blocks {
                tasks.push(MmTask { row, k_block });
            }
        }
        tasks
    }
}

impl MapReduceJob for MatrixMultiply {
    type Input = MmTask;
    type Key = u64;
    type Value = i64;

    fn map(&self, task: &[MmTask], emit: &mut Emitter<'_, u64, i64>) {
        let n = self.n();
        for t in task {
            let k_start = t.k_block * self.k_block_size;
            let k_end = (k_start + self.k_block_size).min(n);
            // Partial row: sum over this k-block only.
            let mut partial = vec![0i64; n];
            for k in k_start..k_end {
                let a_ik = self.a.at(t.row, k);
                let b_row = self.b.row(k);
                for (j, &b_kj) in b_row.iter().enumerate() {
                    partial[j] += a_ik * b_kj;
                }
            }
            for (j, &value) in partial.iter().enumerate() {
                emit.emit((t.row * n + j) as u64, value);
            }
        }
    }

    fn combine(&self, acc: &mut i64, incoming: i64) {
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.n() * self.n())
    }

    fn key_index(&self, key: &u64) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "matrix-multiply"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrices(n: usize) -> (Arc<Matrix>, Arc<Matrix>) {
        let a = Matrix::from_rows(n, (0..(n * n) as i64).collect());
        let b = Matrix::from_rows(n, (0..(n * n) as i64).map(|x| x * 3 - 7).collect());
        (Arc::new(a), Arc::new(b))
    }

    fn run_sequential(job: &MatrixMultiply) -> Matrix {
        let n = job.n();
        let mut cells = vec![0i64; n * n];
        let tasks = job.tasks();
        let mut sink = |k: u64, v: i64| cells[k as usize] += v;
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(&tasks, &mut emitter);
        Matrix::from_rows(n, cells)
    }

    #[test]
    fn blocked_product_matches_reference() {
        for block in [1usize, 2, 3, 8] {
            let (a, b) = small_matrices(6);
            let job = MatrixMultiply::new(Arc::clone(&a), Arc::clone(&b), block);
            assert_eq!(run_sequential(&job), a.multiply_reference(&b), "block {block}");
        }
    }

    #[test]
    fn tasks_cover_all_rows_and_blocks() {
        let (a, b) = small_matrices(5);
        let job = MatrixMultiply::new(a, b, 2);
        let tasks = job.tasks();
        assert_eq!(tasks.len(), 5 * 3); // ceil(5/2) = 3 blocks
        assert!(tasks.iter().any(|t| t.row == 4 && t.k_block == 2));
    }

    #[test]
    fn key_space_is_output_size() {
        let (a, b) = small_matrices(4);
        let job = MatrixMultiply::new(a, b, 2);
        assert_eq!(job.key_space(), Some(16));
        assert_eq!(job.key_index(&15), 15);
    }

    #[test]
    #[should_panic(expected = "must agree in size")]
    fn mismatched_sizes_panic() {
        let a = Arc::new(Matrix::from_rows(2, vec![1, 2, 3, 4]));
        let b = Arc::new(Matrix::from_rows(3, vec![0; 9]));
        let _ = MatrixMultiply::new(a, b, 1);
    }

    #[test]
    #[should_panic(expected = "matrix data must be n*n")]
    fn bad_data_length_panics() {
        let _ = Matrix::from_rows(3, vec![1, 2, 3]);
    }

    #[test]
    fn reference_multiply_identity() {
        let n = 4;
        let mut id = vec![0i64; n * n];
        for i in 0..n {
            id[i * n + i] = 1;
        }
        let identity = Matrix::from_rows(n, id);
        let (a, _) = small_matrices(n);
        assert_eq!(a.multiply_reference(&identity), *a);
    }
}
