//! The MR phases shared between the baseline and RAMR.
//!
//! RAMR restructures only the map-combine phase; input partitioning, reduce
//! and merge "remain the same as in typical MR libraries" (§III). Every
//! backend therefore calls into this module for everything downstream of the
//! per-thread containers.
//!
//! Reduce and merge *sort once and never merge*: the output must be
//! key-sorted anyway, so [`bucket_by_key`] splits the key range (not the
//! hash space) over the reducers, each reducer sorts its bucket and folds
//! adjacent equal keys, and [`merge_sorted_runs`] concatenates. Nothing here
//! hashes a key or builds a table; the hash a [`Hashed`] key carries is for
//! the combiner containers upstream.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;

use mr_core::{Emitter, MapReduceJob, RuntimeError, TaskRange};
use ramr_containers::Hashed;
use ramr_telemetry::{FaultLog, SkippedTask};

/// The intermediate pairs one worker/combiner/bucket contributes.
pub type Pairs<J> = Vec<(<J as MapReduceJob>::Key, <J as MapReduceJob>::Value)>;

/// [`Pairs`] with the 64-bit key hash carried alongside each key — the
/// hash-once pipeline's wire format. The hash is computed at map emission
/// for the combiner containers; this module orders by key and never reads it.
pub type HashedPairs<J> = Vec<(Hashed<<J as MapReduceJob>::Key>, <J as MapReduceJob>::Value)>;

/// Below this many pairs in total the reduce phase is one bucket on the
/// calling thread: spawning a reducer costs more than sorting its share.
const PARALLEL_THRESHOLD: usize = 16 * 1024;

/// Keys sampled per bucket to place the range splitters: enough to keep a
/// bucket's share of the pairs within a few percent of even.
const SAMPLES_PER_BUCKET: usize = 128;

/// Distributes the partial `(key, value)` vectors produced by the
/// map-combine phase into buckets by key *range*: sorted quantiles of a
/// strided key sample become `num_reducers − 1` splitters. Every occurrence
/// of a key lands in the same bucket, so each bucket can be reduced
/// independently, and every key of bucket `i` sorts before every key of
/// bucket `i + 1`, so the reduced buckets concatenate into the sorted output.
///
/// Returns exactly `num_reducers` buckets — or a single one under 16 Ki
/// pairs in total, which keeps a small job's reduce on the calling thread.
pub fn bucket_by_key<J: MapReduceJob>(
    partials: Vec<Pairs<J>>,
    num_reducers: usize,
) -> Vec<Pairs<J>> {
    bucket_by_range(partials, num_reducers, |pair| &pair.0)
}

/// [`bucket_by_key`] for pre-hashed pairs; the hashes ride along unread.
pub fn bucket_by_key_hashed<J: MapReduceJob>(
    partials: Vec<HashedPairs<J>>,
    num_reducers: usize,
) -> Vec<HashedPairs<J>> {
    bucket_by_range(partials, num_reducers, |pair| pair.0.key())
}

fn bucket_by_range<K: Ord + Clone, P>(
    mut partials: Vec<Vec<P>>,
    num_reducers: usize,
    key: impl Fn(&P) -> &K + Copy,
) -> Vec<Vec<P>> {
    let total: usize = partials.iter().map(Vec::len).sum();
    let mut splitters: Vec<K> = Vec::new();
    if num_reducers > 1 && total >= PARALLEL_THRESHOLD {
        let stride = (total / (num_reducers * SAMPLES_PER_BUCKET)).max(1);
        let mut sample: Vec<&K> = partials.iter().flatten().step_by(stride).map(key).collect();
        sample.sort_unstable();
        splitters
            .extend((1..num_reducers).map(|i| sample[i * sample.len() / num_reducers].clone()));
    }
    // Every partial is partitioned where it lies; an upper bucket then gathers
    // its range from each partial — last bucket first, so that a range is a
    // tail when it is drained — and the first bucket is what is left, appended
    // to the first partial. One partial: only the upper buckets touch new memory.
    let cuts: Vec<Vec<usize>> =
        partials.iter_mut().map(|p| cut_ranges(p, &splitters, key)).collect();
    let mut buckets: Vec<Vec<P>> = (0..splitters.len())
        .rev()
        .map(|j| {
            let len = partials.iter().zip(&cuts).map(|(p, cuts)| p.len() - cuts[j]).sum();
            let mut bucket = Vec::with_capacity(len);
            for (partial, cuts) in partials.iter_mut().zip(&cuts) {
                bucket.extend(partial.drain(cuts[j]..));
            }
            bucket
        })
        .collect();
    buckets.push(concat(partials));
    buckets.reverse();
    buckets
}

/// Appends every vector to the first, which keeps (and at most once grows)
/// its allocation.
fn concat<T>(vecs: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = vecs.iter().map(Vec::len).sum();
    let mut vecs = vecs.into_iter();
    let mut all = vecs.next().unwrap_or_default();
    all.reserve_exact(total - all.len());
    vecs.for_each(|vec| all.extend(vec));
    all
}

/// Reorders `pairs` so that, for every splitter, the keys below it precede
/// the keys at or above it, and returns where each splitter cuts `pairs`, in
/// ascending order. Halving the splitters keeps it at `log2` passes.
fn cut_ranges<K: Ord, P>(
    pairs: &mut [P],
    splitters: &[K],
    key: impl Fn(&P) -> &K + Copy,
) -> Vec<usize> {
    let mid = splitters.len() / 2;
    let Some(splitter) = splitters.get(mid) else { return Vec::new() };
    let (mut low, mut high) = (0, pairs.len());
    loop {
        while low < high && key(&pairs[low]) < splitter {
            low += 1;
        }
        while low < high && key(&pairs[high - 1]) >= splitter {
            high -= 1;
        }
        if low == high {
            break;
        }
        pairs.swap(low, high - 1);
    }
    let (below, above) = pairs.split_at_mut(low);
    let mut cuts = cut_ranges(below, &splitters[..mid], key);
    cuts.push(low);
    cuts.extend(cut_ranges(above, &splitters[mid + 1..], key).iter().map(|cut| low + cut));
    cuts
}

/// Reduces one bucket: sorts it by key, folds each run of equal keys with
/// the job's combine function, applies [`MapReduceJob::reduce`] once per
/// key, and returns the pairs sorted by key (its contribution to the merge).
/// Equal keys meet in whatever order the unstable sort leaves them — the
/// combiner is commutative and associative, as everywhere in the system.
pub fn reduce_bucket<J: MapReduceJob>(job: &J, mut bucket: Pairs<J>) -> Pairs<J> {
    bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = bucket.into_iter();
    let Some(mut open) = pairs.next() else { return Vec::new() };
    let close = |(key, folded): (J::Key, J::Value)| {
        let value = job.reduce(&key, folded);
        (key, value)
    };
    // `into_iter` → `filter_map` → `collect` of the same item type writes
    // over the bucket's own allocation (std collects in place): the fold
    // touches no new memory, and the first run keeps room for the others.
    let mut reduced: Pairs<J> = pairs
        .filter_map(|next| {
            if next.0 == open.0 {
                job.combine(&mut open.1, next.1);
                None
            } else {
                Some(close(std::mem::replace(&mut open, next)))
            }
        })
        .collect();
    reduced.push(close(open));
    reduced
}

/// [`reduce_bucket`] for pre-hashed pairs: sheds the hashes (in place) and
/// reduces the plain pairs.
pub fn reduce_bucket_hashed<J: MapReduceJob>(job: &J, bucket: HashedPairs<J>) -> Pairs<J> {
    reduce_bucket(job, bucket.into_iter().map(|(key, value)| (key.into_key(), value)).collect())
}

/// Runs the reduce phase over all buckets in parallel with `reduce`
/// ([`reduce_bucket`] or [`reduce_bucket_hashed`]), returning per-bucket
/// key-sorted outputs. The calling thread reduces the first bucket itself
/// and spawns a thread for each of the others, so the single bucket of a
/// small job (see [`bucket_by_key`]) spawns nothing.
///
/// # Errors
///
/// Returns [`RuntimeError::WorkerPanic`] if `reduce` or `combine` panics in
/// any bucket: the first such bucket's message, with the further ones
/// counted onto it. The panic never unwinds into the caller.
pub fn reduce_parallel<J: MapReduceJob, B: Send>(
    job: &J,
    buckets: Vec<B>,
    reduce: fn(&J, B) -> Pairs<J>,
) -> Result<Vec<Pairs<J>>, RuntimeError> {
    let mut buckets = buckets.into_iter();
    let Some(first) = buckets.next() else { return Ok(Vec::new()) };
    // Every reducer is joined before the first error is returned: a handle
    // dropped unjoined makes `thread::scope` re-panic past the `Result`.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> =
            buckets.map(|bucket| scope.spawn(move || reduce(job, bucket))).collect();
        let inline = catch_unwind(AssertUnwindSafe(|| reduce(job, first)));
        std::iter::once(inline).chain(spawned.into_iter().map(|h| h.join())).collect()
    });
    let panicked = outcomes.iter().filter(|outcome| outcome.is_err()).count() as u64;
    outcomes.into_iter().collect::<Result<_, _>>().map_err(|panic| {
        RuntimeError::WorkerPanic(panic_message(&*panic)).noting_suppressed(panicked - 1)
    })
}

/// Concatenates range-ordered, key-sorted runs into one key-sorted vector
/// (the merge phase). The contract is what [`bucket_by_key`] +
/// [`reduce_parallel`] produce: every key of run `i` is strictly below every
/// key of run `i + 1`, so there is nothing to interleave. Only the boundaries
/// between non-empty runs are checked (O(runs) compares); order inside a run
/// is the reducer's to keep.
///
/// # Panics
///
/// Panics if a run does not start above the previous non-empty run's last
/// key: concatenating would hand out unsorted output silently.
pub fn merge_sorted_runs<K: Ord, V>(mut runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    runs.retain(|run| !run.is_empty());
    assert!(
        runs.windows(2).all(|w| w[0].last().map(|p| &p.0) < w[1].first().map(|p| &p.0)),
        "merge_sorted_runs requires range-ordered runs (each run's keys above the previous run's)"
    );
    let mut merged = concat(runs);
    // A run folded in place still holds its whole bucket's allocation.
    merged.shrink_to_fit();
    merged
}

/// Executes one map task under fault tolerance, for every thread that maps.
///
/// The task's emissions are staged in a task-local buffer inside
/// `catch_unwind` and returned only after the map call completes, so a
/// panicking attempt publishes *nothing* and a successful retry publishes
/// exactly once — re-execution can never double-count pairs. A panicked
/// attempt is re-executed up to `max_retries` times (each retry recorded in
/// `faults`); once retries are exhausted the task is either skipped (when
/// `skip_poison` is set: the skip lands in the fault log and `None` is
/// returned) or the original panic is resumed, for the caller to file as a
/// [`RuntimeError::WorkerPanic`].
///
/// `cancel` is threaded into the task's [`Emitter`] so cooperative jobs can
/// observe a watchdog cancellation mid-task.
pub fn map_task_staged<J: MapReduceJob>(
    job: &J,
    task: &TaskRange,
    input: &[J::Input],
    max_retries: u32,
    skip_poison: bool,
    cancel: &AtomicBool,
    faults: &FaultLog,
) -> Option<(Pairs<J>, u64)> {
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut staged: Pairs<J> = Vec::new();
            let count = {
                let mut sink = |key: J::Key, value: J::Value| staged.push((key, value));
                let mut emitter = Emitter::with_cancel(&mut sink, cancel);
                job.map(&input[task.start..task.end], &mut emitter);
                emitter.emitted()
            };
            (staged, count)
        }));
        match outcome {
            Ok(result) => return Some(result),
            Err(panic) => {
                if attempt <= max_retries {
                    faults.record_retry();
                    continue;
                }
                if skip_poison {
                    faults.record_skip(SkippedTask {
                        task_id: task.id.0,
                        start: task.start,
                        end: task.end,
                        attempts: attempt,
                        message: panic_message(&*panic),
                    });
                    return None;
                }
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Extracts a readable message from a thread panic payload.
///
/// `panic!` payloads are `&str`/`String`; `std::panic::panic_any` can carry
/// any type. Common primitive payloads are rendered with their value and
/// type; anything else gets a typed placeholder naming the payload's
/// `TypeId`, so a non-string panic is still attributable instead of
/// collapsing to an anonymous message.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = panic.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_primitive {
        ($($ty:ty),*) => {
            $(if let Some(v) = panic.downcast_ref::<$ty>() {
                return format!("non-string panic payload: {v} ({})", stringify!($ty));
            })*
        };
    }
    try_primitive!(
        i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char
    );
    format!("non-string panic payload of type {:?}", panic.type_id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::Emitter;

    struct Sum;

    impl MapReduceJob for Sum {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x, 1);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn reduce(&self, _key: &u64, combined: u64) -> u64 {
            combined * 10
        }
    }

    /// `reduce` panics on every key.
    struct PanickingReduce;

    impl MapReduceJob for PanickingReduce {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, _task: &[u64], _emit: &mut Emitter<'_, u64, u64>) {}

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn reduce(&self, key: &u64, _combined: u64) -> u64 {
            panic!("reduce refuses key {key}");
        }
    }

    /// `parts` partials of `per_part` pairs each (every third partial empty)
    /// with keys drawn — with replacement — from `0..key_space`.
    fn partials_from(seed: u64, parts: usize, per_part: usize, key_space: u64) -> Vec<Pairs<Sum>> {
        let mut rng = proptest::test_runner::TestRng::for_case(&seed.to_string());
        (0..parts)
            .map(|p| {
                let len = if p % 3 == 2 { 0 } else { per_part };
                (0..len).map(|_| (rng.below(key_space), 1 + rng.below(9))).collect()
            })
            .collect()
    }

    fn hashed(partials: &[Pairs<Sum>]) -> Vec<HashedPairs<Sum>> {
        partials
            .iter()
            .map(|p| {
                p.iter().map(|&(k, v)| (Hashed::wrap(mr_core::HasherKind::Fx, k), v)).collect()
            })
            .collect()
    }

    /// Pair count and (min, max) key of every bucket.
    fn spans<P>(buckets: &[Vec<P>], key: fn(&P) -> u64) -> Vec<(usize, Option<(u64, u64)>)> {
        buckets
            .iter()
            .map(|b| (b.len(), b.iter().map(key).min().zip(b.iter().map(key).max())))
            .collect()
    }

    /// The bucketing contract: exactly `num_reducers` buckets (one below the
    /// threshold), no pair lost, and every bucket's keys strictly above the
    /// previous non-empty bucket's.
    fn assert_range_ordered(
        spans: &[(usize, Option<(u64, u64)>)],
        total: usize,
        num_reducers: usize,
    ) {
        let expected = if total < PARALLEL_THRESHOLD { 1 } else { num_reducers };
        assert_eq!(spans.len(), expected, "bucket count");
        assert_eq!(spans.iter().map(|s| s.0).sum::<usize>(), total, "pairs kept");
        let ranges: Vec<(u64, u64)> = spans.iter().filter_map(|s| s.1).collect();
        assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "buckets overlap: {ranges:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 40, ..Default::default() })]

        /// bucket → reduce → merge equals a `BTreeMap` fold for arbitrary
        /// partials, through the plain and the hashed entry points.
        #[test]
        fn pipeline_equals_a_btreemap_fold(
            seed in proptest::prelude::any::<u64>(),
            num_reducers in 1usize..10,
            parts in 1usize..6,
            shape in 0usize..5,
        ) {
            let live = parts - parts / 3;
            let (total, key_space) = match shape {
                0 => (seed as usize % 200, 50),                          // tiny
                1 => (PARALLEL_THRESHOLD + 900, 1),                      // all keys equal
                2 => (PARALLEL_THRESHOLD + 900, 3),                      // fewer keys than reducers
                3 => (PARALLEL_THRESHOLD - 20 + seed as usize % 40, 5_000), // straddles the threshold
                _ => (PARALLEL_THRESHOLD * 2, 1 << 40),                  // wide key space
            };
            let partials = partials_from(seed, parts, total.div_ceil(live), key_space);
            let total: usize = partials.iter().map(Vec::len).sum();
            let mut oracle = std::collections::BTreeMap::new();
            for &(k, v) in partials.iter().flatten() {
                *oracle.entry(k).or_insert(0u64) += v;
            }
            let oracle: Vec<(u64, u64)> = oracle.into_iter().map(|(k, v)| (k, v * 10)).collect();

            let buckets = bucket_by_key::<Sum>(partials.clone(), num_reducers);
            assert_range_ordered(&spans(&buckets, |p| p.0), total, num_reducers);
            let merged = merge_sorted_runs(reduce_parallel(&Sum, buckets, reduce_bucket).unwrap());
            proptest::prop_assert_eq!(&merged, &oracle);

            let buckets = bucket_by_key_hashed::<Sum>(hashed(&partials), num_reducers);
            assert_range_ordered(&spans(&buckets, |p| *p.0.key()), total, num_reducers);
            let merged = merge_sorted_runs(reduce_parallel(&Sum, buckets, reduce_bucket_hashed).unwrap());
            proptest::prop_assert_eq!(&merged, &oracle);
        }
    }

    #[test]
    fn sampled_splitters_balance_the_buckets() {
        let partials = partials_from(7, 2, 20_000, u64::MAX);
        for num_reducers in [2, 4, 7] {
            let even = 40_000 / num_reducers;
            for bucket in bucket_by_key::<Sum>(partials.clone(), num_reducers) {
                assert!(
                    (even * 3 / 4..even * 5 / 4).contains(&bucket.len()),
                    "{num_reducers} reducers: a bucket of {} against an even share of {even}",
                    bucket.len()
                );
            }
        }
    }

    #[test]
    fn reduce_bucket_folds_and_applies_reduce() {
        let out = reduce_bucket(&Sum, vec![(5, 1), (5, 1), (2, 1)]);
        assert_eq!(out, [(2, 10), (5, 20)]); // sorted, reduced (x10)
        assert!(reduce_bucket(&Sum, Vec::new()).is_empty());
    }

    #[test]
    fn reduce_parallel_matches_sequential() {
        let buckets = vec![vec![(1u64, 1u64), (1, 1)], vec![(2, 1)], Vec::new()];
        let runs = reduce_parallel(&Sum, buckets.clone(), reduce_bucket).unwrap();
        let expected: Vec<Vec<(u64, u64)>> =
            buckets.into_iter().map(|b| reduce_bucket(&Sum, b)).collect();
        assert_eq!(runs, expected);
        assert!(reduce_parallel(&Sum, Vec::new(), reduce_bucket).unwrap().is_empty());
    }

    /// A `reduce` that panics in every bucket — the inline one and each
    /// spawned one — comes back as one `WorkerPanic` naming the first bucket
    /// and counting the others; nothing unwinds into the caller.
    #[test]
    fn reduce_panics_in_every_bucket_return_one_error() {
        for (buckets, note) in [(1u64, ""), (4, "; 3 further worker error(s) suppressed")] {
            let input: Vec<Pairs<PanickingReduce>> = (0..buckets).map(|b| vec![(b, 1)]).collect();
            let hashed_input = hashed(&input);
            let expected = RuntimeError::WorkerPanic(format!("reduce refuses key 0{note}"));
            assert_eq!(
                reduce_parallel(&PanickingReduce, input, reduce_bucket),
                Err(expected.clone())
            );
            assert_eq!(
                reduce_parallel(&PanickingReduce, hashed_input, reduce_bucket_hashed),
                Err(expected)
            );
        }
    }

    #[test]
    fn merge_concatenates_range_ordered_runs() {
        let merged = merge_sorted_runs(vec![
            Vec::new(),
            vec![(0, 'd'), (1, 'a')],
            Vec::new(),
            vec![(2, 'c')],
            vec![(3, 'e'), (4, 'b'), (5, 'f')],
        ]);
        assert_eq!(merged, [(0, 'd'), (1, 'a'), (2, 'c'), (3, 'e'), (4, 'b'), (5, 'f')]);
        assert_eq!(merged.capacity(), merged.len(), "spare bucket capacity is handed back");
    }

    #[test]
    fn merge_handles_empty_and_single_runs() {
        assert!(merge_sorted_runs::<u32, u32>(Vec::new()).is_empty());
        assert!(merge_sorted_runs::<u32, u32>(vec![Vec::new(), Vec::new()]).is_empty());
        assert_eq!(merge_sorted_runs(vec![vec![(1, 2)]]), [(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "range-ordered runs")]
    fn merge_rejects_interleaved_runs() {
        merge_sorted_runs(vec![vec![(1, 'a'), (4, 'b')], vec![(2, 'c')]]);
    }

    #[test]
    #[should_panic(expected = "range-ordered runs")]
    fn merge_rejects_a_key_shared_by_two_runs() {
        merge_sorted_runs(vec![vec![(1, 'a'), (2, 'b')], Vec::new(), vec![(2, 'c')]]);
    }

    /// Panics the next `failures` map calls (emitting first each time),
    /// then succeeds — the canonical transient poison task.
    struct Flaky {
        failures: std::sync::atomic::AtomicU32,
    }

    impl Flaky {
        fn failing(n: u32) -> Self {
            Self { failures: std::sync::atomic::AtomicU32::new(n) }
        }
    }

    impl MapReduceJob for Flaky {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            // Emissions land BEFORE the panic: a broken retry path would
            // double-count them.
            for &x in task {
                emit.emit(x, 1);
            }
            let left = self.failures.load(std::sync::atomic::Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, std::sync::atomic::Ordering::SeqCst);
                panic!("transient fault");
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn is_retry_safe(&self) -> bool {
            true
        }
    }

    #[test]
    fn staged_retry_publishes_exactly_once_after_transient_panics() {
        let task = mr_core::task_ranges_for(3, 10, 1).pop().unwrap();
        let (faults, cancel) = (FaultLog::new(), AtomicBool::new(false));
        let (staged, emitted) =
            map_task_staged(&Flaky::failing(2), &task, &[7, 8, 9], 2, false, &cancel, &faults)
                .expect("two retries cover two failures");
        // Three map calls ran, but only the successful attempt's emissions
        // survive: staging is what makes retries exactly-once.
        assert_eq!(staged, [(7, 1), (8, 1), (9, 1)]);
        assert_eq!(emitted, 3);
        assert_eq!(faults.retries(), 2);
    }

    #[test]
    fn staged_retry_skips_poison_tasks_and_records_them() {
        let task = mr_core::task_ranges_for(3, 10, 1).pop().unwrap();
        let (faults, cancel) = (FaultLog::new(), AtomicBool::new(false));
        let out = map_task_staged(
            &Flaky::failing(u32::MAX),
            &task,
            &[1, 2, 3],
            1,
            true,
            &cancel,
            &faults,
        );
        assert!(out.is_none(), "a poison task must be skipped, not retried forever");
        let metrics = faults.snapshot(0, false);
        assert_eq!(metrics.retries, 1);
        assert_eq!(metrics.skipped.len(), 1);
        let skip = &metrics.skipped[0];
        assert_eq!((skip.task_id, skip.start, skip.end), (0, 0, 3));
        assert_eq!(skip.attempts, 2, "initial attempt + one retry");
        assert!(skip.message.contains("transient fault"), "{}", skip.message);
    }

    #[test]
    fn staged_retry_without_skip_resumes_the_original_panic() {
        let task = mr_core::task_ranges_for(1, 10, 1).pop().unwrap();
        let (faults, cancel) = (FaultLog::new(), AtomicBool::new(false));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_task_staged(&Flaky::failing(u32::MAX), &task, &[5], 0, false, &cancel, &faults)
        }));
        let panic = outcome.expect_err("exhausted retries without skip must resume the panic");
        assert_eq!(panic_message(&*panic), "transient fault");
        assert_eq!(faults.retries(), 0, "max_retries = 0 records no retry");
    }

    #[test]
    fn panic_message_extracts_strings() {
        let p: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(&*p), "boom");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(&*p), "kaboom");
    }

    #[test]
    fn panic_message_renders_non_string_payloads_with_their_type() {
        // panic_any can carry any type; primitives render value + type.
        let p: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(&*p), "non-string panic payload: 42 (u8)");
        let p: Box<dyn std::any::Any + Send> = Box::new(-7i32);
        assert_eq!(panic_message(&*p), "non-string panic payload: -7 (i32)");
        let p: Box<dyn std::any::Any + Send> = Box::new(true);
        assert_eq!(panic_message(&*p), "non-string panic payload: true (bool)");
        // Arbitrary types still get a typed, non-empty placeholder.
        #[derive(Debug)]
        struct Custom;
        let p: Box<dyn std::any::Any + Send> = Box::new(Custom);
        let text = panic_message(&*p);
        assert!(text.starts_with("non-string panic payload of type"), "{text}");

        // End to end: a real panic_any(42) crossing a thread boundary.
        let err = std::thread::spawn(|| std::panic::panic_any(42i32)).join().unwrap_err();
        assert_eq!(panic_message(&*err), "non-string panic payload: 42 (i32)");
    }
}
