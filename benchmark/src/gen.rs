//! Seeded input generators owned by the benchmark.
//!
//! `--seed` is the only source of randomness for the in-process workloads:
//! the crates under test receive the generated `Vec`s and nothing else, so
//! a change to `mr_apps::inputs` (or to the vendored `rand` stand-in) can
//! never silently change what the ledger measures. Every input's digest is
//! printed with the results; same seed, same digest.

use mr_apps::{Pixel, Point};

/// SplitMix64: a full-period 64-bit generator whose whole state is the
/// seed, which is all a reproducible benchmark input needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two inputs of
    /// one run never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bias below 2^-32 for every bound used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The shape of a Zipf word stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSpec {
    /// Lines to generate.
    pub lines: usize,
    /// Words per line.
    pub words_per_line: usize,
    /// Distinct words the stream draws from.
    pub vocabulary: usize,
    /// Zipf exponent: rank `r` is drawn with weight `r^-exponent`.
    pub exponent: f64,
    /// Longest word, in bytes. Lengths grow with rank, as in natural text
    /// (frequent words are short); every word is at least 4 bytes.
    pub max_word_len: usize,
}

/// Word `rank` of a vocabulary: a unique 4-letter stem (base-26 of the
/// rank, so no two ranks collide) plus a seeded suffix whose length grows
/// with `log2(rank)` up to `max_len`.
fn word(rank: usize, max_len: usize, rng: &mut Rng) -> String {
    let mut w = String::with_capacity(max_len);
    let mut stem = rank;
    for _ in 0..4 {
        w.push((b'a' + (stem % 26) as u8) as char);
        stem /= 26;
    }
    let grow = (rank + 2).ilog2() as usize;
    let suffix = rng.below(1 + grow.min(max_len.saturating_sub(4)) as u64);
    for _ in 0..suffix {
        w.push((b'a' + rng.below(26) as u8) as char);
    }
    w
}

/// Lines of space-separated words drawn Zipf-distributed from a seeded
/// vocabulary.
///
/// # Panics
///
/// Panics if the vocabulary exceeds the 26^4 unique stems.
pub fn zipf_lines(spec: &ZipfSpec, seed: u64) -> Vec<String> {
    assert!(spec.vocabulary <= 26usize.pow(4), "vocabulary exceeds the unique 4-letter stems");
    let mut rng = Rng::new(seed, 1);
    let vocabulary: Vec<String> =
        (0..spec.vocabulary).map(|rank| word(rank, spec.max_word_len, &mut rng)).collect();
    let mut cumulative = Vec::with_capacity(spec.vocabulary);
    let mut total = 0.0f64;
    for rank in 1..=spec.vocabulary {
        total += (rank as f64).powf(-spec.exponent);
        cumulative.push(total);
    }
    (0..spec.lines)
        .map(|_| {
            let mut line = String::new();
            for i in 0..spec.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                let u = rng.unit() * total;
                let rank = cumulative.partition_point(|&c| c <= u).min(spec.vocabulary - 1);
                line.push_str(&vocabulary[rank]);
            }
            line
        })
        .collect()
}

/// Uniformly random RGB pixels.
pub fn pixels(count: usize, seed: u64) -> Vec<Pixel> {
    let mut rng = Rng::new(seed, 2);
    (0..count)
        .map(|_| {
            let [r, g, b, ..] = rng.next_u64().to_le_bytes();
            Pixel { r, g, b }
        })
        .collect()
}

/// Uniformly random `u64` elements for the synthetic job (each element is
/// both the kernel's seed and the source of its two keys).
pub fn synth_elements(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 3);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// K-means points on the integer lattice `0..1024` in each dimension.
///
/// Integer coordinates keep every per-cluster sum below 2^53, so `f64`
/// addition is exact and therefore associative: all three backends and the
/// serial oracle fold in different orders and still agree bit for bit, for
/// all thirty rounds.
pub fn lattice_points(count: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 4);
    (0..count).map(|_| std::array::from_fn(|_| rng.below(1024) as f64)).collect()
}

/// FNV-1a 64 over a canonical byte rendering of an input, as 16 hex digits.
#[derive(Debug, Clone)]
pub struct InputDigest(u64);

impl InputDigest {
    fn new() -> InputDigest {
        InputDigest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Digest of text lines (newline-terminated).
    pub fn of_lines(lines: &[String]) -> String {
        let mut d = InputDigest::new();
        for line in lines {
            d.feed(line.as_bytes());
            d.feed(b"\n");
        }
        d.hex()
    }

    /// Digest of pixels (three bytes each).
    pub fn of_pixels(pixels: &[Pixel]) -> String {
        let mut d = InputDigest::new();
        for p in pixels {
            d.feed(&[p.r, p.g, p.b]);
        }
        d.hex()
    }

    /// Digest of `u64` elements (little-endian).
    pub fn of_u64s(elements: &[u64]) -> String {
        let mut d = InputDigest::new();
        for e in elements {
            d.feed(&e.to_le_bytes());
        }
        d.hex()
    }

    /// Digest of points (each coordinate's bits, little-endian).
    pub fn of_points(points: &[Point]) -> String {
        let mut d = InputDigest::new();
        for p in points {
            for c in p {
                d.feed(&c.to_bits().to_le_bytes());
            }
        }
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ZipfSpec = ZipfSpec {
        lines: 200,
        words_per_line: 10,
        vocabulary: 5000,
        exponent: 1.0,
        max_word_len: 14,
    };

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let digests = |seed| {
            [
                InputDigest::of_lines(&zipf_lines(&SPEC, seed)),
                InputDigest::of_pixels(&pixels(1000, seed)),
                InputDigest::of_u64s(&synth_elements(1000, seed)),
                InputDigest::of_points(&lattice_points(1000, seed)),
            ]
        };
        assert_eq!(digests(7), digests(7));
        for (a, b) in digests(7).iter().zip(digests(8).iter()) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn zipf_stream_is_skewed_and_words_are_unique_per_rank() {
        let lines = zipf_lines(&SPEC, 1);
        assert_eq!(lines.len(), SPEC.lines);
        let mut counts = std::collections::BTreeMap::new();
        for line in &lines {
            assert_eq!(line.split(' ').count(), SPEC.words_per_line);
            for w in line.split(' ') {
                assert!((4..=SPEC.max_word_len).contains(&w.len()), "{w}");
                *counts.entry(w.to_string()).or_insert(0u64) += 1;
            }
        }
        let total: u64 = counts.values().sum();
        let top = counts.values().max().copied().unwrap_or(0);
        // Zipf(1.0) over 5000 ranks gives rank 1 about 11% of the draws.
        assert!(top * 20 > total, "top {top} of {total}");
        assert!(counts.len() > 500, "long tail missing: {} distinct", counts.len());

        let mut rng = Rng::new(1, 1);
        let vocabulary: std::collections::BTreeSet<String> =
            (0..SPEC.vocabulary).map(|r| word(r, SPEC.max_word_len, &mut rng)).collect();
        assert_eq!(vocabulary.len(), SPEC.vocabulary, "two ranks produced the same word");
    }

    #[test]
    fn lattice_sums_stay_exact() {
        let points = lattice_points(20_000, 3);
        assert!(points.iter().flatten().all(|c| c.fract() == 0.0 && (0.0..1024.0).contains(c)));
        let forward: f64 = points.iter().map(|p| p[0]).sum();
        let backward: f64 = points.iter().rev().map(|p| p[0]).sum();
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(9, 9);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }
}
