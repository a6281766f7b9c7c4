//! Deterministic input generators scaled from the paper's Table I.
//!
//! Table I gives, per application, the input sizes used on the Haswell
//! server (HWL) and the Xeon Phi (PHI) for the Small/Medium/Large flavors.
//! The generators below reproduce those inputs *synthetically* (the paper's
//! data came from the Phoenix++ suite's generators, which are likewise
//! synthetic) and support a **scale divisor** so the same relative sizes run
//! in CI-sized memory: dividing element counts by `scale` and matrix
//! dimensions by `∛scale` preserves each application's relative
//! Small/Medium/Large progression while keeping absolute footprints small.
//!
//! Row-to-application mapping used here (the table's row labels): WC and LR
//! are the two `400MB/800MB/1.6GB` byte-sized rows, KM is the
//! `400K/800K/2M` element row, PCA the `500/800/1000` dimension row, MM the
//! `2K×2K / 3K×2K / 4K×4K` matrix row, and HG the `200MB/400MB/1GB` image
//! row.
//!
//! All generators are seeded; the same spec always yields the same input.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::histogram::Pixel;
use crate::kmeans::Point;
use crate::linear_regression::LrPoint;
use crate::matrix_multiply::Matrix;
use crate::AppKind;

/// The two evaluation platforms of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// The dual-socket Haswell server ("HWL") — tested under heavier inputs.
    Haswell,
    /// The Xeon Phi co-processor ("PHI").
    XeonPhi,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Platform::Haswell => "HWL",
            Platform::XeonPhi => "PHI",
        })
    }
}

/// The three input flavors of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputFlavor {
    /// Smallest input.
    Small,
    /// Intermediate input.
    Medium,
    /// Largest input (used for all intermediate analyses in the paper).
    Large,
}

impl InputFlavor {
    /// All flavors in ascending order.
    pub const ALL: [InputFlavor; 3] = [InputFlavor::Small, InputFlavor::Medium, InputFlavor::Large];
}

impl std::fmt::Display for InputFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InputFlavor::Small => "small",
            InputFlavor::Medium => "medium",
            InputFlavor::Large => "large",
        })
    }
}

/// The quantity Table I reports for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperQuantity {
    /// Input size in bytes (WC, LR, HG rows).
    Bytes(u64),
    /// Input size in elements (KM row).
    Elements(u64),
    /// Square-matrix side length (PCA, MM rows).
    MatrixDim(usize),
}

/// One cell of Table I: an application on a platform at a flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputSpec {
    /// Application.
    pub app: AppKind,
    /// Platform column.
    pub platform: Platform,
    /// Flavor column group.
    pub flavor: InputFlavor,
    /// The value printed in the paper's table.
    pub paper: PaperQuantity,
}

const MB: u64 = 1_000_000;

impl InputSpec {
    /// Looks up the Table I cell for `(app, platform, flavor)`.
    pub fn table1(app: AppKind, platform: Platform, flavor: InputFlavor) -> Self {
        use AppKind::*;
        use InputFlavor::*;
        use Platform::*;
        let paper = match (app, platform, flavor) {
            (WordCount | LinearRegression, Haswell, Small) => PaperQuantity::Bytes(400 * MB),
            (WordCount | LinearRegression, XeonPhi, Small) => PaperQuantity::Bytes(200 * MB),
            (WordCount | LinearRegression, Haswell, Medium) => PaperQuantity::Bytes(800 * MB),
            (WordCount | LinearRegression, XeonPhi, Medium) => PaperQuantity::Bytes(400 * MB),
            (WordCount | LinearRegression, Haswell, Large) => PaperQuantity::Bytes(1600 * MB),
            (WordCount | LinearRegression, XeonPhi, Large) => PaperQuantity::Bytes(800 * MB),

            (Kmeans, Haswell, Small) => PaperQuantity::Elements(400_000),
            (Kmeans, XeonPhi, Small) => PaperQuantity::Elements(200_000),
            (Kmeans, Haswell, Medium) => PaperQuantity::Elements(800_000),
            (Kmeans, XeonPhi, Medium) => PaperQuantity::Elements(400_000),
            (Kmeans, Haswell, Large) => PaperQuantity::Elements(2_000_000),
            (Kmeans, XeonPhi, Large) => PaperQuantity::Elements(800_000),

            (Pca, Haswell, Small) => PaperQuantity::MatrixDim(500),
            (Pca, XeonPhi, Small) => PaperQuantity::MatrixDim(300),
            (Pca, Haswell, Medium) => PaperQuantity::MatrixDim(800),
            (Pca, XeonPhi, Medium) => PaperQuantity::MatrixDim(500),
            (Pca, Haswell, Large) => PaperQuantity::MatrixDim(1000),
            (Pca, XeonPhi, Large) => PaperQuantity::MatrixDim(800),

            (MatrixMultiply, _, Small) => PaperQuantity::MatrixDim(2000),
            (MatrixMultiply, Haswell, Medium) => PaperQuantity::MatrixDim(3000),
            (MatrixMultiply, XeonPhi, Medium) => PaperQuantity::MatrixDim(2000),
            (MatrixMultiply, _, Large) => PaperQuantity::MatrixDim(4000),

            (Histogram, Haswell, Small) => PaperQuantity::Bytes(200 * MB),
            (Histogram, XeonPhi, Small) => PaperQuantity::Bytes(200 * MB),
            (Histogram, Haswell, Medium) => PaperQuantity::Bytes(400 * MB),
            (Histogram, XeonPhi, Medium) => PaperQuantity::Bytes(400 * MB),
            (Histogram, Haswell, Large) => PaperQuantity::Bytes(1000 * MB),
            (Histogram, XeonPhi, Large) => PaperQuantity::Bytes(600 * MB),
        };
        Self { app, platform, flavor, paper }
    }

    /// Element count after applying the scale divisor: byte and element
    /// quantities divide by `scale`, matrix dimensions by `∛scale` (their
    /// work grows cubically), all clamped to usable minimums.
    pub fn scaled_elements(&self, scale: u64) -> u64 {
        let scale = scale.max(1);
        match self.paper {
            PaperQuantity::Bytes(b) => {
                let per_elem = match self.app {
                    AppKind::WordCount => 60,       // one generated text line
                    AppKind::LinearRegression => 8, // two i32 coordinates
                    AppKind::Histogram => 3,        // one RGB pixel
                    _ => 8,
                };
                (b / scale / per_elem).max(64)
            }
            PaperQuantity::Elements(e) => (e / scale).max(64),
            PaperQuantity::MatrixDim(d) => {
                let factor = (scale as f64).cbrt();
                ((d as f64 / factor).round() as u64).max(8)
            }
        }
    }
}

/// Default scale divisor used by tests and examples (keeps every generated
/// input well under a megabyte).
pub const DEFAULT_SCALE: u64 = 2000;

/// Number of KMeans clusters used throughout the evaluation.
pub const KMEANS_CLUSTERS: usize = 64;

/// Vocabulary size for the Word Count generator.
const WC_VOCABULARY: usize = 5_000;

fn seed_for(app: AppKind, platform: Platform, flavor: InputFlavor) -> u64 {
    // Stable, spec-dependent seed.
    let a = AppKind::ALL.iter().position(|&x| x == app).expect("known app") as u64;
    let p = match platform {
        Platform::Haswell => 0u64,
        Platform::XeonPhi => 1,
    };
    let f = InputFlavor::ALL.iter().position(|&x| x == flavor).expect("known flavor") as u64;
    0x5eed_0000 + a * 100 + p * 10 + f
}

/// Generates Word Count input: lines of Zipf-distributed words.
///
/// A small head of very frequent words plus a long tail mirrors natural
/// text, which is what makes WC's key set hash-container territory.
pub fn wc_input(spec: &InputSpec, scale: u64) -> Vec<String> {
    let lines = spec.scaled_elements(scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    // Zipf CDF over the vocabulary.
    let mut cumulative = Vec::with_capacity(WC_VOCABULARY);
    let mut total = 0.0f64;
    for rank in 1..=WC_VOCABULARY {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let uniform = Uniform::new(0.0, total);
    let sample_word = |rng: &mut StdRng| {
        let u = uniform.sample(rng);
        let idx = cumulative.partition_point(|&c| c < u);
        format!("w{idx:04}")
    };
    (0..lines)
        .map(|_| {
            let words: Vec<String> = (0..10).map(|_| sample_word(&mut rng)).collect();
            words.join(" ")
        })
        .collect()
}

/// Generates Histogram input: uniformly random pixels.
pub fn hg_input(spec: &InputSpec, scale: u64) -> Vec<Pixel> {
    let pixels = spec.scaled_elements(scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    (0..pixels).map(|_| Pixel { r: rng.gen(), g: rng.gen(), b: rng.gen() }).collect()
}

/// Generates Linear Regression input: noisy points around a fixed line.
pub fn lr_input(spec: &InputSpec, scale: u64) -> Vec<LrPoint> {
    let points = spec.scaled_elements(scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    (0..points)
        .map(|_| {
            let x: i32 = rng.gen_range(-1000..1000);
            let noise: i32 = rng.gen_range(-50..50);
            LrPoint { x, y: 3 * x + 17 + noise }
        })
        .collect()
}

/// Generates KMeans input: points around `KMEANS_CLUSTERS` true centers.
pub fn km_input(spec: &InputSpec, scale: u64) -> Vec<Point> {
    let points = spec.scaled_elements(scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    let centers: Vec<Point> = (0..KMEANS_CLUSTERS)
        .map(|_| {
            [
                rng.gen_range(-100.0..100.0),
                rng.gen_range(-100.0..100.0),
                rng.gen_range(-100.0..100.0),
            ]
        })
        .collect();
    (0..points)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            [
                c[0] + rng.gen_range(-5.0..5.0),
                c[1] + rng.gen_range(-5.0..5.0),
                c[2] + rng.gen_range(-5.0..5.0),
            ]
        })
        .collect()
}

/// Generates a PCA input matrix of the scaled dimension.
pub fn pca_matrix(spec: &InputSpec, scale: u64) -> Matrix {
    let dim = spec.scaled_elements(scale) as usize;
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    let data: Vec<i64> = (0..dim * dim).map(|_| rng.gen_range(-100..100)).collect();
    Matrix::from_rows(dim, data)
}

/// Generates the two MM factor matrices of the scaled dimension.
pub fn mm_matrices(spec: &InputSpec, scale: u64) -> (Matrix, Matrix) {
    let dim = spec.scaled_elements(scale) as usize;
    let mut rng = StdRng::seed_from_u64(seed_for(spec.app, spec.platform, spec.flavor));
    let a: Vec<i64> = (0..dim * dim).map(|_| rng.gen_range(-10..10)).collect();
    let b: Vec<i64> = (0..dim * dim).map(|_| rng.gen_range(-10..10)).collect();
    (Matrix::from_rows(dim, a), Matrix::from_rows(dim, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_haswell_is_heavier_than_phi() {
        // "As a system with greater potential, the Haswell setup was tested
        // under heavier inputs than Xeon Phi" — for every app and flavor.
        for app in AppKind::ALL {
            for flavor in InputFlavor::ALL {
                let hwl = InputSpec::table1(app, Platform::Haswell, flavor);
                let phi = InputSpec::table1(app, Platform::XeonPhi, flavor);
                assert!(
                    hwl.scaled_elements(1) >= phi.scaled_elements(1),
                    "{app} {flavor}: HWL must not be lighter than PHI"
                );
            }
        }
    }

    #[test]
    fn flavors_grow_monotonically() {
        for app in AppKind::ALL {
            for platform in [Platform::Haswell, Platform::XeonPhi] {
                let sizes: Vec<u64> = InputFlavor::ALL
                    .iter()
                    .map(|&f| InputSpec::table1(app, platform, f).scaled_elements(1))
                    .collect();
                assert!(
                    sizes[0] <= sizes[1] && sizes[1] <= sizes[2],
                    "{app} {platform}: {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn exact_paper_values_spot_checks() {
        let wc = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Large);
        assert_eq!(wc.paper, PaperQuantity::Bytes(1600 * MB));
        let km = InputSpec::table1(AppKind::Kmeans, Platform::Haswell, InputFlavor::Large);
        assert_eq!(km.paper, PaperQuantity::Elements(2_000_000));
        let mm = InputSpec::table1(AppKind::MatrixMultiply, Platform::XeonPhi, InputFlavor::Small);
        assert_eq!(mm.paper, PaperQuantity::MatrixDim(2000));
        let pca = InputSpec::table1(AppKind::Pca, Platform::XeonPhi, InputFlavor::Small);
        assert_eq!(pca.paper, PaperQuantity::MatrixDim(300));
        let hg = InputSpec::table1(AppKind::Histogram, Platform::Haswell, InputFlavor::Large);
        assert_eq!(hg.paper, PaperQuantity::Bytes(1000 * MB));
    }

    #[test]
    fn generators_are_deterministic() {
        let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
        assert_eq!(wc_input(&spec, DEFAULT_SCALE), wc_input(&spec, DEFAULT_SCALE));
        let spec = InputSpec::table1(AppKind::Kmeans, Platform::XeonPhi, InputFlavor::Small);
        assert_eq!(km_input(&spec, DEFAULT_SCALE), km_input(&spec, DEFAULT_SCALE));
    }

    #[test]
    fn different_specs_differ() {
        let a = InputSpec::table1(AppKind::Histogram, Platform::Haswell, InputFlavor::Small);
        let b = InputSpec::table1(AppKind::Histogram, Platform::XeonPhi, InputFlavor::Small);
        // Same paper size but different platform seed: content differs.
        assert_ne!(hg_input(&a, DEFAULT_SCALE), hg_input(&b, DEFAULT_SCALE));
    }

    #[test]
    fn scaling_divides_counts() {
        let spec =
            InputSpec::table1(AppKind::LinearRegression, Platform::Haswell, InputFlavor::Small);
        let full = spec.scaled_elements(1);
        let scaled = spec.scaled_elements(1000);
        assert_eq!(full, 50_000_000); // 400 MB / 8 B
        assert_eq!(scaled, 50_000);
    }

    #[test]
    fn matrix_dims_scale_by_cbrt() {
        let spec =
            InputSpec::table1(AppKind::MatrixMultiply, Platform::Haswell, InputFlavor::Large);
        // 4000 / cbrt(1000) = 400.
        assert_eq!(spec.scaled_elements(1000), 400);
    }

    #[test]
    fn minimum_sizes_are_enforced() {
        let spec = InputSpec::table1(AppKind::Pca, Platform::XeonPhi, InputFlavor::Small);
        assert_eq!(spec.scaled_elements(u64::MAX), 8);
        let spec = InputSpec::table1(AppKind::Kmeans, Platform::XeonPhi, InputFlavor::Small);
        assert_eq!(spec.scaled_elements(u64::MAX), 64);
    }

    #[test]
    fn wc_input_is_zipf_skewed() {
        let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
        let lines = wc_input(&spec, DEFAULT_SCALE);
        let mut counts = std::collections::HashMap::new();
        for line in &lines {
            for word in line.split(' ') {
                *counts.entry(word.to_string()).or_insert(0u64) += 1;
            }
        }
        let top = counts.values().max().copied().unwrap_or(0);
        let total: u64 = counts.values().sum();
        // The most frequent word must dominate well beyond uniform share.
        assert!(top * (WC_VOCABULARY as u64) > total * 10, "top={top} total={total}");
    }

    #[test]
    fn lr_points_follow_the_planted_line() {
        let spec =
            InputSpec::table1(AppKind::LinearRegression, Platform::Haswell, InputFlavor::Small);
        let points = lr_input(&spec, DEFAULT_SCALE);
        let n = points.len() as f64;
        let (sx, sy, sxx, sxy) = points.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, p| {
            let (x, y) = (p.x as f64, p.y as f64);
            (acc.0 + x, acc.1 + y, acc.2 + x * x, acc.3 + x * y)
        });
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((slope - 3.0).abs() < 0.1, "planted slope 3, recovered {slope}");
    }

    #[test]
    fn km_input_clusters_around_centers() {
        let spec = InputSpec::table1(AppKind::Kmeans, Platform::Haswell, InputFlavor::Small);
        let points = km_input(&spec, DEFAULT_SCALE);
        assert!(points.len() >= 64);
        assert!(points.iter().all(|p| p.iter().all(|c| c.abs() <= 105.0)));
    }
}
