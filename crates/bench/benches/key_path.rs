//! `key_path` ablation: the zero-alloc, hash-once key pipeline vs the seed.
//!
//! The seed word-count key path pays one heap allocation per emitted word
//! (`to_ascii_lowercase` into an owned `String`), hashes it with
//! byte-at-a-time FNV-1a in the combine table's `combine_insert`, and
//! chases the `String`'s heap pointer on every probe compare there and on
//! every comparison of the reduce phase's sort (bucketing and reduce order
//! by key and hash nothing — DESIGN §6m). The optimized path lower-cases into
//! `CompactKey`'s 22-byte inline buffer (no allocation, no pointer chase:
//! the key bytes live inside the table entry), hashes once at emission
//! with the word-at-a-time Fx hasher, carries the hash to the combine
//! table, and sorts with `CompactKey`'s three-word compare.
//!
//! Both arms run the identical map→combine→bucket→reduce→merge phase
//! sequence on one thread — the seed arm through the plain entry points
//! the seed runtime used, the optimized arm through the `_hashed` twins —
//! so the measured delta is exactly the key representation and hash
//! discipline, not scheduler or queue noise. The input is a Zipf word
//! stream over a realistic 200k vocabulary with natural word lengths
//! (`mr_bench::unique_keys` documents 200k as the realistic WC key count);
//! at that size the combine table outgrows the cache and the seed arm's
//! per-probe pointer chase and per-word allocation dominate. This is the
//! ablation the PR is gated on ("prove it or revert it"):
//!
//! ```text
//! cargo bench -p mr-bench --bench key_path             # full gate (>= 1.15x)
//! cargo bench -p mr-bench --bench key_path -- --smoke  # CI: correctness + rot check
//! cargo bench -p mr-bench --bench key_path -- --runs 9
//! ```
//!
//! `--smoke` shrinks the input, runs each arm once, additionally pushes
//! both word-count jobs through the real `RamrStatic` engine to prove the
//! end-to-end outputs agree, and skips the speedup gate — wall-clock
//! ratios on shared CI runners are noise; the gate is for dedicated
//! hardware.

use std::time::Instant;

use mr_apps::{AppKind, WordCount, WordCountString};
use mr_core::{HasherKind, RuntimeConfig};
use phoenix_mr::phases;
use ramr::{Backend, Engine};
use ramr_containers::{CompactKey, HashContainer, Hashed, Passthrough};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The speedup the optimized key path must sustain over the seed path.
const GATE: f64 = 1.15;

/// Reduce buckets, as in the runtimes' default configuration.
const REDUCERS: usize = 8;

/// Zipf-distributed lines over `vocab` distinct words of natural lengths
/// (4..=12 bytes, all inline-sized), mixed-case so both arms do real
/// lower-casing work. Deterministic, like every repo input generator.
fn realistic_lines(lines: usize, words_per_line: usize, vocab: usize) -> Vec<String> {
    let mut cumulative = Vec::with_capacity(vocab);
    let mut total = 0.0f64;
    for rank in 1..=vocab {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(0x0005_eed6);
    let sample_word = |rng: &mut StdRng| {
        let x: f64 = rng.gen::<f64>() * total;
        let idx = cumulative.partition_point(|&c| c < x);
        // Base-26-encode the rank (unique per index), pad to a natural
        // word length, and upper-case the first letter of some words.
        let mut word = String::new();
        let mut v = idx + 1;
        while v > 0 {
            word.push(char::from(b'a' + (v % 26) as u8));
            v /= 26;
        }
        while word.len() < 4 + idx % 9 {
            word.push(char::from(b'a' + (idx % 26) as u8));
        }
        if idx % 3 == 0 {
            word[..1].make_ascii_uppercase();
        }
        word
    };
    (0..lines)
        .map(|_| {
            let mut line = String::new();
            for i in 0..words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                line.push_str(&sample_word(&mut rng));
            }
            line
        })
        .collect()
}

/// The seed key path: owned `String` keys, FNV-1a hashed at combine
/// insert, compared through their heap pointers in the table and the sort.
fn seed_arm(input: &[String]) -> Vec<(String, u64)> {
    let mut table: HashContainer<String, u64> = HashContainer::with_capacity(4096);
    for line in input {
        for word in line.split_ascii_whitespace() {
            table.combine_insert(word.to_ascii_lowercase(), 1, |a, b| *a += b);
        }
    }
    let mut pairs = Vec::with_capacity(table.len());
    table.drain_into(&mut pairs);
    let buckets = phases::bucket_by_key::<WordCountString>(vec![pairs], REDUCERS);
    let runs: Vec<_> =
        buckets.into_iter().map(|b| phases::reduce_bucket(&WordCountString, b)).collect();
    phases::merge_sorted_runs(runs)
}

/// The optimized key path: `CompactKey` lower-cased into the inline
/// buffer, Fx-hashed once at emission, the hash carried into the combine
/// table via `Passthrough` and ignored by the sort-fold reduce.
fn compact_arm(input: &[String]) -> Vec<(CompactKey, u64)> {
    let mut table: HashContainer<Hashed<CompactKey>, u64, Passthrough> =
        HashContainer::with_capacity_and_hasher(4096, Passthrough);
    for line in input {
        for word in line.split_ascii_whitespace() {
            let key = Hashed::wrap(HasherKind::Fx, CompactKey::ascii_lowercase(word));
            table.combine_insert_hashed(key.hash(), key, 1, |a, b| *a += b);
        }
    }
    let mut pairs = Vec::with_capacity(table.len());
    table.drain_into(&mut pairs);
    let buckets = phases::bucket_by_key_hashed::<WordCount>(vec![pairs], REDUCERS);
    let runs: Vec<_> =
        buckets.into_iter().map(|b| phases::reduce_bucket_hashed(&WordCount, b)).collect();
    phases::merge_sorted_runs(runs)
}

fn engine_config(hasher: HasherKind) -> RuntimeConfig {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    RuntimeConfig::builder()
        .num_workers(threads.max(2))
        .num_combiners((threads / 2).max(1))
        .task_size(1024)
        .queue_capacity(5000)
        .batch_size(1000)
        .container(AppKind::WordCount.default_container())
        .hasher(hasher)
        .build()
        .expect("valid bench config")
}

/// Smoke extra: both jobs through the real engine must agree end to end.
fn engines_agree(input: &[String]) -> usize {
    let seed = Backend::RamrStatic
        .engine(engine_config(HasherKind::Fnv))
        .expect("engine")
        .submit(&WordCountString, input)
        .expect("seed run")
        .output;
    let compact = Backend::RamrStatic
        .engine(engine_config(HasherKind::Fx))
        .expect("engine")
        .submit(&WordCount, input)
        .expect("compact run")
        .output;
    let compact: Vec<(String, u64)> =
        compact.pairs.into_iter().map(|(k, v)| (String::from(k), v)).collect();
    assert_eq!(seed.pairs, compact, "engine outputs disagree between key representations");
    compact.len()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runs = mr_bench::runs_from_args().max(if smoke { 1 } else { 5 });

    let (lines, vocab) = if smoke { (2_000, 20_000) } else { (30_000, 200_000) };
    let input = realistic_lines(lines, 100, vocab);
    println!(
        "KEY PATH ABLATION: word count over {} lines x 100 words (vocab {vocab}), \
         single-threaded phases, best of {runs} interleaved run(s).\n",
        input.len(),
    );

    // Warm up allocator and page cache outside both measured arms.
    let _ = seed_arm(&input);
    let _ = compact_arm(&input);

    // Interleave the arms so slow machine-load drift hits both equally;
    // best-of-N because allocation and hashing costs are deterministic, so
    // the fastest run is the least-perturbed measurement of each arm.
    let (mut seed, mut opt) = (f64::INFINITY, f64::INFINITY);
    let (mut seed_out, mut opt_out) = (Vec::new(), Vec::new());
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        seed_out = seed_arm(&input);
        seed = seed.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        opt_out = compact_arm(&input);
        opt = opt.min(started.elapsed().as_secs_f64());
    }

    let opt_out: Vec<(String, u64)> =
        opt_out.into_iter().map(|(k, v)| (String::from(k), v)).collect();
    assert_eq!(seed_out, opt_out, "CompactKey arm and String arm disagree on word counts");

    let speedup = seed / opt;
    mr_bench::print_header(&["arm", "best(ms)", "keys"]);
    println!("{:>10} {:>10.1} {:>10}", "seed", seed * 1e3, seed_out.len());
    println!("{:>10} {:>10.1} {:>10}", "compact", opt * 1e3, opt_out.len());
    println!("\nString+FNV -> CompactKey+Fx(carried) speedup: {speedup:.2}x");

    if smoke {
        let keys = engines_agree(&input);
        println!("SMOKE PASS: phase arms and engine outputs agree on {keys} keys");
    } else if speedup >= GATE {
        println!("PASS: zero-alloc hash-once key path sustains >= {GATE:.2}x over the seed");
    } else {
        println!(
            "FAIL: speedup below the {GATE:.2}x gate; the key-path optimization has regressed"
        );
        std::process::exit(1);
    }
}
