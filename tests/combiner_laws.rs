//! Combiner laws: every job's `combine` must be commutative and
//! associative, because no backend promises an order. A pair may be folded
//! by the combiner that read it, by a combiner that mapped its task in
//! place, or by the mapper that emitted it, and the partial containers are
//! merged in whatever order their threads finish.
//!
//! For each `MapReduceJob` of `mr-apps` and for `SynthJob`, the values come
//! from the job's own `map` over a small seeded input: the emitted values,
//! plus partial folds of random subsets of them (a container holds partial
//! accumulators, not only single emissions). Sampled pairs must combine to
//! the same value in either order, and sampled triples the same under
//! either grouping. Values are compared through their `Debug` output, with
//! a small relative tolerance for floating-point numbers.

use std::sync::Arc;

use mr_apps::inputs::{
    hg_input, km_input, lr_input, mm_matrices, pca_matrix, wc_input, InputFlavor, InputSpec,
    Platform, KMEANS_CLUSTERS,
};
use mr_apps::{
    AppKind, Histogram, InvertedIndex, KmeansState, LinearRegression, MatrixMultiply, PcaCovJob,
    PcaMeanJob, TopKDf, WordCount, WordCountString,
};
use mr_core::{Emitter, MapReduceJob};
use mr_synth::{KernelKind, SynthSpec};

/// Sampled pairs and triples per job.
const SAMPLES: usize = 300;
/// Relative tolerance for floating-point numbers in a value.
const F64_TOLERANCE: f64 = 1e-9;

/// SplitMix64: a seeded, dependency-free sampler.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn spec(app: AppKind) -> InputSpec {
    InputSpec::table1(app, Platform::Haswell, InputFlavor::Small)
}

/// Every pair `job` emits over `input`, in emission order.
fn emitted<J: MapReduceJob>(job: &J, input: &[J::Input]) -> Vec<(J::Key, J::Value)> {
    let mut pairs = Vec::new();
    let mut sink = |key, value| pairs.push((key, value));
    job.map(input, &mut Emitter::new(&mut sink));
    pairs
}

/// `acc` with each of `rest` folded into it, in order.
fn fold<J: MapReduceJob>(job: &J, mut acc: J::Value, rest: &[&J::Value]) -> J::Value {
    for &value in rest {
        job.combine(&mut acc, value.clone());
    }
    acc
}

/// Splits a `Debug` rendering into numbers and single other characters.
fn tokens(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let signed = chars[i] == '-' && chars.get(i + 1).is_some_and(char::is_ascii_digit);
        if !(chars[i].is_ascii_digit() || signed) {
            out.push(chars[i].to_string());
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        while i < chars.len() {
            let exponent_sign = matches!(chars[i], '-' | '+') && matches!(chars[i - 1], 'e' | 'E');
            if !(chars[i].is_ascii_digit() || matches!(chars[i], '.' | 'e' | 'E') || exponent_sign)
            {
                break;
            }
            i += 1;
        }
        out.push(chars[start..i].iter().collect());
    }
    out
}

/// Whether two renderings show the same value: equal but for floating-point
/// numbers within [`F64_TOLERANCE`] of each other, relatively.
fn same(a: &str, b: &str) -> bool {
    let (a, b) = (tokens(a), tokens(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            if x == y {
                return true;
            }
            let float = |t: &str| t.contains(['.', 'e', 'E']);
            match (x.parse::<f64>(), y.parse::<f64>()) {
                (Ok(p), Ok(q)) if float(x) || float(y) => {
                    (p - q).abs() <= F64_TOLERANCE * p.abs().max(q.abs()).max(1.0)
                }
                _ => false,
            }
        })
}

/// Checks both laws on values drawn from `job`'s own map over `input`.
fn assert_laws<J: MapReduceJob>(job: &J, input: &[J::Input]) {
    let name = job.name().to_string();
    let mut pool: Vec<J::Value> = emitted(job, input).into_iter().map(|(_, v)| v).collect();
    assert!(pool.len() >= 2, "{name}: the seeded input emitted {} values", pool.len());
    let mut rng = Rng(0x5eed);
    // Partial accumulators, as a container holds them.
    for _ in 0..32 {
        let first = pool[rng.below(pool.len())].clone();
        let rest: Vec<&J::Value> =
            (0..1 + rng.below(8)).map(|_| &pool[rng.below(pool.len())]).collect();
        let partial = fold(job, first, &rest);
        pool.push(partial);
    }
    let show = |v: &J::Value| format!("{v:?}");
    for _ in 0..SAMPLES {
        let (a, b) = (&pool[rng.below(pool.len())], &pool[rng.below(pool.len())]);
        let (ab, ba) = (show(&fold(job, a.clone(), &[b])), show(&fold(job, b.clone(), &[a])));
        assert!(
            same(&ab, &ba),
            "{name}: combine is not commutative on {a:?} and {b:?}: {ab} vs {ba}"
        );
    }
    for _ in 0..SAMPLES {
        let [a, b, c] = [(); 3].map(|()| &pool[rng.below(pool.len())]);
        let left = show(&fold(job, a.clone(), &[b, c]));
        let right = show(&fold(job, a.clone(), &[&fold(job, b.clone(), &[c])]));
        assert!(
            same(&left, &right),
            "{name}: combine is not associative on {a:?}, {b:?}, {c:?}: {left} vs {right}"
        );
    }
}

#[test]
fn the_comparison_tolerates_float_rounding_only() {
    assert!(same("[0.30000000000000004, 7]", "[0.3, 7]"));
    assert!(same(
        "Accum { sum: [1e-7, -2.5], count: 3 }",
        "Accum { sum: [1.0000000000000001e-7, -2.5], count: 3 }"
    ));
    assert!(!same("[0.31, 7]", "[0.3, 7]"));
    assert!(!same("[0.3, 7]", "[0.3, 8]"));
    assert!(!same("(\"w1\", 10000000001)", "(\"w1\", 10000000002)"));
    assert!(!same("[1, 2]", "[1, 2, 3]"));
}

#[test]
fn word_count() {
    let lines = wc_input(&spec(AppKind::WordCount), 200_000);
    assert_laws(&WordCount, &lines);
    assert_laws(&WordCountString, &lines);
}

#[test]
fn histogram() {
    assert_laws(&Histogram, &hg_input(&spec(AppKind::Histogram), 200_000));
}

#[test]
fn linear_regression() {
    assert_laws(&LinearRegression, &lr_input(&spec(AppKind::LinearRegression), 200_000));
}

#[test]
fn kmeans() {
    let points = km_input(&spec(AppKind::Kmeans), 1_000);
    assert_laws(&KmeansState::seeded(&points, KMEANS_CLUSTERS).job(), &points);
}

#[test]
fn pca() {
    let matrix = Arc::new(pca_matrix(&spec(AppKind::Pca), 100_000));
    let mean = PcaMeanJob::new(Arc::clone(&matrix));
    let rows = mean.tasks();
    assert_laws(&mean, &rows);
    let means = Arc::new(mean.means(&emitted(&mean, &rows)));
    let cov = PcaCovJob::new(matrix, means);
    assert_laws(&cov, &cov.tasks());
}

#[test]
fn matrix_multiply() {
    let (a, b) = mm_matrices(&spec(AppKind::MatrixMultiply), 1_000_000);
    let job = MatrixMultiply::new(Arc::new(a), Arc::new(b), 4);
    assert_laws(&job, &job.tasks());
}

#[test]
fn inverted_index_and_top_k() {
    let docs: Vec<(u32, String)> = wc_input(&spec(AppKind::WordCount), 200_000)
        .into_iter()
        .enumerate()
        .map(|(doc, line)| (doc as u32, line))
        .collect();
    assert_laws(&InvertedIndex, &docs);
    // The top-k stage reads the index's output: one posting list per term.
    let mut index = std::collections::BTreeMap::new();
    for (term, postings) in emitted(&InvertedIndex, &docs) {
        match index.entry(term) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(postings);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                InvertedIndex.combine(slot.get_mut(), postings)
            }
        }
    }
    let index: Vec<_> = index.into_iter().collect();
    assert_laws(&TopKDf { k: 10 }, &index);
}

#[test]
fn synthetic() {
    let seeds: Vec<u64> = (0..64).collect();
    for spec in [SynthSpec::fig4(4), SynthSpec::new(KernelKind::Memory, 4, KernelKind::Cpu, 4)] {
        assert_laws(&spec.job(), &seeds);
    }
}
