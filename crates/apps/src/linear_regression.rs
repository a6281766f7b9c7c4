//! Linear Regression (LR): five running sums over (x, y) points.

use mr_core::{Emitter, MapReduceJob};

/// One sample point. Coordinates are small integers (as in the Phoenix
/// suite, where points are bytes) so all sums are exact in `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LrPoint {
    /// Independent variable.
    pub x: i32,
    /// Dependent variable.
    pub y: i32,
}

/// The five statistics a least-squares fit needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LrStat {
    /// Σx
    Sx,
    /// Σy
    Sy,
    /// Σx²
    Sxx,
    /// Σy²
    Syy,
    /// Σxy
    Sxy,
}

impl LrStat {
    /// All five statistics, in key-index order.
    pub const ALL: [LrStat; 5] = [LrStat::Sx, LrStat::Sy, LrStat::Sxx, LrStat::Syy, LrStat::Sxy];
}

/// Computes the five sums needed to fit `y = a·x + b` by least squares.
///
/// Only five keys exist, so the default container is a five-slot array and
/// the per-element work is a handful of multiply-adds. Together with HG
/// this is the paper's prime example of a workload *too light* for RAMR:
/// its IPB is minimal and it suffers few stalls, so the decoupling overhead
/// cannot be amortized (§IV-E) and Phoenix++ wins by ~3-4x.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearRegression;

impl MapReduceJob for LinearRegression {
    type Input = LrPoint;
    type Key = LrStat;
    type Value = i64;

    fn map(&self, task: &[LrPoint], emit: &mut Emitter<'_, LrStat, i64>) {
        for p in task {
            let (x, y) = (i64::from(p.x), i64::from(p.y));
            emit.emit(LrStat::Sx, x);
            emit.emit(LrStat::Sy, y);
            emit.emit(LrStat::Sxx, x * x);
            emit.emit(LrStat::Syy, y * y);
            emit.emit(LrStat::Sxy, x * y);
        }
    }

    fn combine(&self, acc: &mut i64, incoming: i64) {
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(5)
    }

    fn key_index(&self, key: &LrStat) -> usize {
        match key {
            LrStat::Sx => 0,
            LrStat::Sy => 1,
            LrStat::Sxx => 2,
            LrStat::Syy => 3,
            LrStat::Sxy => 4,
        }
    }

    fn name(&self) -> &str {
        "linear-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums_for(points: &[LrPoint]) -> std::collections::BTreeMap<LrStat, i64> {
        let mut table = std::collections::BTreeMap::new();
        let mut sink = |k: LrStat, v: i64| {
            *table.entry(k).or_insert(0) += v;
        };
        let mut emitter = Emitter::new(&mut sink);
        LinearRegression.map_to(points, &mut emitter);
        table
    }

    #[test]
    fn emits_all_five_stats() {
        let sums = sums_for(&[LrPoint { x: 2, y: 3 }]);
        assert_eq!(sums[&LrStat::Sx], 2);
        assert_eq!(sums[&LrStat::Sy], 3);
        assert_eq!(sums[&LrStat::Sxx], 4);
        assert_eq!(sums[&LrStat::Syy], 9);
        assert_eq!(sums[&LrStat::Sxy], 6);
    }

    #[test]
    fn key_indices_are_dense_and_distinct() {
        let indices: std::collections::BTreeSet<usize> =
            LrStat::ALL.iter().map(|s| LinearRegression.key_index(s)).collect();
        assert_eq!(indices, (0..5).collect());
    }

    #[test]
    fn negative_coordinates_are_exact() {
        let sums = sums_for(&[LrPoint { x: -3, y: -4 }]);
        assert_eq!(sums[&LrStat::Sxx], 9);
        assert_eq!(sums[&LrStat::Sxy], 12);
    }
}
