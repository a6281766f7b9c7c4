//! Session-reuse suite: persistent worker pools must behave, job after
//! job, exactly like freshly spawned ones.
//!
//! The hazards specific to pooling are state bleed (telemetry, fault
//! records or kept containers surviving into the next job) and
//! wedged pools (a failed job leaving a worker parked in a bad state).
//! Each test drives an `EngineSession` through a stream of jobs and checks
//! one of those hazards with exact assertions.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mr_apps::WordCount;
use mr_core::{task_ranges_for, ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::{Backend, JobScheduler};
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};
use ramr_telemetry::{FaultMetrics, ThreadRole};

/// The largest task a [`config`] session cuts.
const TASK: usize = 32;

/// Threads that map in a [`config`] session: 4 mappers and 2 combiners.
const THREADS: usize = 6;

/// Lines of the inputs the fault plans below fingerprint.
const LINES: usize = 400;

fn lines(n: usize, salt: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i} alpha beta w{} v{}", (i + salt) % 7, (i + salt) % 13)).collect()
}

/// Word counts of `input` with the tasks in `dropped` (by id, as a
/// [`config`] session splits `input`) removed — the exact expected output
/// of a (skip-poison) run.
fn reference(input: &[String], dropped: &[u64]) -> Vec<(ramr_containers::CompactKey, u64)> {
    let mut counts = BTreeMap::new();
    for task in task_ranges_for(input.len(), TASK, THREADS) {
        if dropped.contains(&(task.id.0 as u64)) {
            continue;
        }
        for line in &input[task.start..task.end] {
            for word in line.split_ascii_whitespace() {
                *counts
                    .entry(ramr_containers::CompactKey::ascii_lowercase(word))
                    .or_insert(0u64) += 1;
            }
        }
    }
    counts.into_iter().collect()
}

/// Task ordinal of a line: the id of the task that holds its leading
/// `t<index>` token when [`LINES`] lines are split as a [`config`] session
/// splits them.
#[allow(clippy::ptr_arg)]
fn ordinal_of(line: &String) -> u64 {
    let token = line.split_ascii_whitespace().next().expect("nonempty line");
    let index: usize = token[1..].parse().expect("t<index> token");
    task_ranges_for(LINES, TASK, THREADS).partition_point(|t| t.end <= index) as u64
}

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(TASK)
        .queue_capacity(256)
        .batch_size(16)
        .container(ContainerKind::Hash)
        .telemetry(true)
        .build()
        .unwrap()
}

fn poison(key: u64) -> FaultPlan {
    FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key, fail_attempts: u32::MAX }])
}

#[test]
fn twenty_job_stream_is_exact_on_static_pools() {
    let mut session = Backend::RamrStatic.session::<WordCount>(config()).unwrap();
    for round in 0..20 {
        let input = lines(200 + round * 8, round);
        let output = session.submit(&WordCount, &input).unwrap().output;
        assert_eq!(output.pairs, reference(&input, &[]), "round {round}");
    }
    assert_eq!(session.jobs_run(), 20);
}

#[test]
fn fault_records_do_not_bleed_into_the_next_job() {
    // Job 1 skips a poison task and records it; job 2 is healthy. A pooled
    // session must report job 2 with *empty* fault metrics and telemetry
    // that accounts for job 2's items alone — nothing carried over.
    let mut cfg = config();
    cfg.max_task_retries = 1;
    cfg.skip_poison_tasks = true;
    let mut session = Backend::RamrStatic.session::<FaultyJob<WordCount>>(cfg).unwrap();

    let input = lines(LINES, 0);
    let faulty = FaultyJob::new(WordCount, poison(3), ordinal_of);
    let (out, report) = session.submit(&faulty, &input).unwrap().into_parts();
    assert_eq!(out.pairs, reference(&input, &[3]));
    assert_eq!(report.faults.skipped.len(), 1, "job 1 must record its poison task");
    assert!(report.faults.retries > 0, "job 1 must record its retries");

    let healthy = FaultyJob::new(WordCount, FaultPlan::default(), ordinal_of);
    let (out, report) = session.submit(&healthy, &input).unwrap().into_parts();
    assert_eq!(out.pairs, reference(&input, &[]));
    assert_eq!(report.faults, FaultMetrics::default(), "job 1 faults leaked into job 2");
    let mappers = report.threads.iter().filter(|t| t.role != ThreadRole::Combiner);
    let mapped: u64 = mappers.map(|t| t.items).sum();
    assert_eq!(mapped, out.stats.emitted, "job 2 telemetry must count job 2's items alone");
}

#[test]
fn a_failed_job_leaves_the_session_usable() {
    // Without skip-poison the poisoned job aborts with the worker panic;
    // the pools must come back parked and healthy, and the next submit
    // must produce the exact output.
    let mut cfg = config();
    cfg.max_task_retries = 1;
    cfg.skip_poison_tasks = false;
    let mut session = Backend::RamrStatic.session::<FaultyJob<WordCount>>(cfg).unwrap();
    let input = lines(LINES, 1);
    for round in 0..2 {
        let faulty = FaultyJob::new(WordCount, poison(3), ordinal_of);
        let err = session.submit(&faulty, &input).unwrap_err();
        assert!(
            err.to_string().contains("panic"),
            "round {round}: expected the injected panic, got {err}"
        );
        let healthy = FaultyJob::new(WordCount, FaultPlan::default(), ordinal_of);
        let output = session.submit(&healthy, &input).unwrap().output;
        assert_eq!(output.pairs, reference(&input, &[]), "round {round}");
    }
}

#[test]
fn a_skipped_poison_job_leaves_the_session_usable() {
    // The skip-poison path exercises different machinery (the task is
    // dropped, the run succeeds) — alternate poisoned and healthy jobs
    // and require exact outputs for both throughout.
    let mut cfg = config();
    cfg.max_task_retries = 1;
    cfg.skip_poison_tasks = true;
    let mut session = Backend::RamrStatic.session::<FaultyJob<WordCount>>(cfg).unwrap();
    let input = lines(LINES, 2);
    for round in 0..3 {
        let faulty = FaultyJob::new(WordCount, poison(round as u64 % 4), ordinal_of);
        let output = session.submit(&faulty, &input).unwrap().output;
        assert_eq!(output.pairs, reference(&input, &[round as u64 % 4]), "round {round}");
        let healthy = FaultyJob::new(WordCount, FaultPlan::default(), ordinal_of);
        let output = session.submit(&healthy, &input).unwrap().output;
        assert_eq!(output.pairs, reference(&input, &[]), "round {round}");
    }
}

#[test]
fn rapid_static_epochs_never_lose_pairs_to_stale_queue_state() {
    // Regression: the static mapper worker used to call `finish` a second
    // time after the role loop's own close of its write-end. When its combiner had already
    // observed closed+empty, drained and *reopened* the queue for the next
    // epoch, the redundant close left a stale closed flag behind — and the
    // next epoch's combiner could exit early and silently drop pairs.
    // Tiny queues and a rapid stream of small jobs maximize the chance of
    // hitting that window; every round must produce the exact output.
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(8)
        .queue_capacity(16)
        .batch_size(4)
        .container(ContainerKind::Hash)
        .build()
        .unwrap();
    let mut session = Backend::RamrStatic.session::<WordCount>(cfg).unwrap();
    for round in 0..40 {
        let input = lines(96, round);
        let expected = reference(&input, &[]);
        let output = session.submit(&WordCount, &input).unwrap().output;
        assert_eq!(output.pairs, expected, "round {round}: pairs lost or duplicated");
    }
    assert_eq!(session.jobs_run(), 40);
}

#[test]
fn scheduled_tenants_share_the_pool_without_fault_bleed() {
    // The pooling hazards above, but with the session driven through the
    // scheduler by two tenants: the victim's skipped poison task must show
    // up in *its* reports alone — the bystander's jobs run on the very
    // same worker pool and must report empty fault metrics and exact
    // output, job after job.
    let mut cfg = config();
    cfg.max_task_retries = 1;
    cfg.skip_poison_tasks = true;
    let sched = JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, cfg).unwrap();
    let victim = sched.client("victim");
    let bystander = sched.client("bystander");
    let input = Arc::new(lines(LINES, 4));
    for round in 0..3 {
        let faulty = FaultyJob::new(WordCount, poison(3), ordinal_of);
        let done = victim.submit(Arc::new(faulty), Arc::clone(&input)).unwrap();
        let done = done.wait().unwrap();
        assert_eq!(done.output.pairs, reference(&input, &[3]), "round {round}");
        assert_eq!(done.report.faults.skipped.len(), 1, "round {round}");

        let healthy = FaultyJob::new(WordCount, FaultPlan::default(), ordinal_of);
        let done = bystander.submit(Arc::new(healthy), Arc::clone(&input)).unwrap();
        let done = done.wait().unwrap();
        assert_eq!(done.output.pairs, reference(&input, &[]), "round {round}");
        assert_eq!(
            done.report.faults,
            FaultMetrics::default(),
            "round {round}: the victim's faults bled into the bystander"
        );
    }
    let stats = sched.tenant_stats();
    let victim_stats = stats.iter().find(|s| s.tenant == "victim").unwrap();
    let bystander_stats = stats.iter().find(|s| s.tenant == "bystander").unwrap();
    assert_eq!(victim_stats.completed, 3, "skip-poison runs complete");
    assert_eq!(bystander_stats.failed, 0);
}

/// Counts each element as its own key; `reduce` panics on every key when
/// the flag is set, so one job type serves the failing and the healthy
/// submit of a session.
struct Tally {
    reduce_panics: bool,
}

impl MapReduceJob for Tally {
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

    fn reduce(&self, key: &u64, combined: u64) -> u64 {
        assert!(!self.reduce_panics, "reduce refuses key {key}");
        combined
    }
}

#[test]
fn a_reduce_that_panics_in_every_bucket_is_an_error_not_an_unwind() {
    // Every bucket's reducer panics — the one the submitting thread reduces
    // itself and each spawned one. The job must come back as `WorkerPanic`
    // (an unjoined reducer used to re-panic out of `submit`), and the same
    // session must then serve an exact job. 100 keys reduce inline in one
    // bucket; 20 000 are past the 16 Ki-pair spawn threshold.
    for backend in [Backend::RamrStatic, Backend::Phoenix] {
        for num_reducers in [1, 4] {
            for keys in [100u64, 20_000] {
                let mut cfg = config();
                cfg.num_reducers = num_reducers;
                let mut session = backend.session::<Tally>(cfg).unwrap();
                let input: Vec<u64> = (0..keys).chain(0..keys).collect();
                let case = format!("{backend}, {num_reducers} reducers, {keys} keys");

                let err = session.submit(&Tally { reduce_panics: true }, &input).unwrap_err();
                assert!(
                    matches!(&err, RuntimeError::WorkerPanic(m) if m.contains("reduce refuses key")),
                    "{case}: got {err}"
                );
                let healthy = session.submit(&Tally { reduce_panics: false }, &input).unwrap();
                let expected: Vec<(u64, u64)> = (0..keys).map(|k| (k, 2)).collect();
                assert_eq!(healthy.output.pairs, expected, "{case}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Warm combine containers: a combiner keeps its container across the
// epochs of a session. It must never carry pairs or shape from another job.
// ---------------------------------------------------------------------------

/// Value that `Shaped::combine` refuses to fold.
const POISON: u64 = u64::MAX;

/// How one `Shaped` job value misbehaves.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Misbehaviour {
    None,
    /// Pairs emitted on this side are poison: folding one panics. The
    /// submitter's put the panic on the combiner's queue path, the
    /// combiner's inside a map task it runs in place.
    PoisonFrom(Side),
    /// Emits keys past the declared key space, overflowing both fixed-size
    /// containers.
    Overflow,
    /// The first map call, after emitting, never returns until cancelled.
    Hang,
}

/// The two threads that map in a one-mapper, one-combiner static session.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Side {
    /// The thread that calls `submit`, which runs mapper 0 in place.
    Submitter,
    /// The combiner, mapping the tasks it claims while it has nothing to
    /// read.
    Combiner,
}

/// Counts `x % modulus`, declaring `modulus` as its key space, every pair
/// emitted twice so that each task's pairs meet in `combine`.
struct Shaped {
    modulus: u64,
    misbehaviour: Misbehaviour,
    /// The thread that built the job, which is the one that submits it.
    submitter: std::thread::ThreadId,
    /// Map calls entered on the combiner, and on the submitter.
    helped: std::sync::atomic::AtomicU32,
    mapped: std::sync::atomic::AtomicU32,
    hung: std::sync::atomic::AtomicBool,
}

impl Shaped {
    fn new(modulus: u64, misbehaviour: Misbehaviour) -> Self {
        Self {
            modulus,
            misbehaviour,
            submitter: std::thread::current().id(),
            helped: Default::default(),
            mapped: Default::default(),
            hung: Default::default(),
        }
    }

    fn oracle(&self, input: &[u64]) -> Vec<(u64, u64)> {
        let mut counts = BTreeMap::new();
        for x in input {
            *counts.entry(x % self.modulus).or_insert(0u64) += 2;
        }
        counts.into_iter().collect()
    }
}

impl MapReduceJob for Shaped {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        use std::sync::atomic::Ordering::SeqCst;
        let side = if std::thread::current().id() == self.submitter {
            Side::Submitter
        } else {
            Side::Combiner
        };
        // The poison must be emitted on the side the test names, whichever
        // of the two happens to run first: each side announces its first map
        // call, and waits inside its own for the side that owes the poison.
        let (mine, theirs) = match side {
            Side::Combiner => (&self.helped, &self.mapped),
            Side::Submitter => (&self.mapped, &self.helped),
        };
        mine.fetch_add(1, SeqCst);
        if matches!(self.misbehaviour, Misbehaviour::PoisonFrom(victim) if victim != side) {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while theirs.load(SeqCst) == 0 && !emit.is_cancelled() {
                assert!(std::time::Instant::now() < deadline, "the poisoned side never mapped");
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let value = match self.misbehaviour {
            Misbehaviour::PoisonFrom(victim) if victim == side => POISON,
            _ => 1,
        };
        let shift = if self.misbehaviour == Misbehaviour::Overflow { self.modulus } else { 0 };
        for &x in task {
            emit.emit(x % self.modulus + shift * (x % 3), 1);
            emit.emit(x % self.modulus + shift * (x % 3), value);
        }
        if self.misbehaviour == Misbehaviour::Hang && !self.hung.swap(true, SeqCst) {
            while !emit.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        assert!(v != POISON, "combine refuses the poisoned pair");
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.modulus as usize)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

#[test]
fn a_failed_job_never_leaves_its_pairs_in_the_kept_container() {
    // One pooled static session per container kind, one mapper and one
    // combiner so every pair of a job meets the one kept container. Each
    // failure — a combine panic on the queue path, one inside a helped
    // task, an overflow, a watchdog cancel — fills that container part-way
    // and must be followed by a job that matches the oracle exactly: no
    // leaked keys, no counts carried over.
    let input: Vec<u64> = (0..6_000).collect();
    for kind in ContainerKind::ALL {
        let cfg = RuntimeConfig::builder()
            .num_workers(1)
            .num_combiners(1)
            .task_size(TASK)
            .queue_capacity(256)
            .batch_size(16)
            .container(kind)
            .watchdog(Duration::from_millis(200))
            .build()
            .unwrap();
        let mut session = Backend::RamrStatic.session::<Shaped>(cfg).unwrap();
        let healthy = |session: &mut ramr::EngineSession<Shaped>, after: &str| {
            for modulus in [97, 97, 31] {
                let job = Shaped::new(modulus, Misbehaviour::None);
                let out = session.submit(&job, &input).unwrap().output;
                assert_eq!(out.pairs, job.oracle(&input), "{kind}, modulus {modulus}, {after}");
            }
        };
        healthy(&mut session, "a fresh session");

        for victim in [Side::Submitter, Side::Combiner] {
            let job = Shaped::new(97, Misbehaviour::PoisonFrom(victim));
            let err = session.submit(&job, &input).unwrap_err();
            assert!(
                matches!(&err, RuntimeError::WorkerPanic(m) if m.contains("combine refuses")),
                "{kind}, poison from {victim:?}: got {err}"
            );
            healthy(&mut session, &format!("a combine panic on pairs from {victim:?}"));
        }

        if kind != ContainerKind::Hash {
            let err = session.submit(&Shaped::new(97, Misbehaviour::Overflow), &input).unwrap_err();
            assert!(matches!(err, RuntimeError::ContainerOverflow { .. }), "{kind}: got {err}");
            healthy(&mut session, "an overflow");
        }

        let err = session.submit(&Shaped::new(97, Misbehaviour::Hang), &input).unwrap_err();
        assert!(matches!(err, RuntimeError::Stalled { .. }), "{kind}: got {err}");
        healthy(&mut session, "a watchdog cancel");
    }
}

#[test]
fn array_jobs_of_one_type_with_different_key_spaces_share_a_session() {
    // The kept array container has the *previous* job's key space: k-means
    // with k = 4, then 16, then 4 again must each get a container of their
    // own size. Integer coordinates keep the float sums order-independent.
    use mr_apps::{KmeansJob, Point};
    type ClusterAccum = <KmeansJob as MapReduceJob>::Value;
    let points: Vec<Point> =
        (0..3_000u32).map(|i| [f64::from(i % 64), f64::from(i % 7), f64::from(i % 5)]).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(TASK)
        .queue_capacity(256)
        .batch_size(16)
        .container(ContainerKind::Array)
        .build()
        .unwrap();
    let mut session = Backend::RamrStatic.session::<KmeansJob>(cfg).unwrap();
    for k in [4u32, 16, 4, 16] {
        let job = KmeansJob::new((0..k).map(|c| [f64::from(c * 64 / k), 3.0, 2.0]).collect());
        let mut expected: BTreeMap<u32, ClusterAccum> = BTreeMap::new();
        for p in &points {
            let acc = expected.entry(job.nearest(p) as u32).or_default();
            job.combine(acc, ClusterAccum { sum: *p, count: 1 });
        }
        let out = session.submit(&job, &points).unwrap().output;
        assert_eq!(out.pairs, expected.into_iter().collect::<Vec<_>>(), "k = {k}");
    }
}

#[test]
fn big_tiny_big_word_counts_are_exact_on_one_session() {
    // ≥ 50 k distinct words, then ≤ 50, then ≥ 50 k again: the tiny job runs
    // on the index the big one grew, the second big one on whatever the tiny
    // one left (a right-sized index — the container tests pin its size).
    let big: Vec<String> = (0..5_200)
        .map(|i| (0..10).map(|j| format!("w{}", i * 10 + j)).collect::<Vec<_>>().join(" "))
        .collect();
    let tiny = lines(20, 0);
    let cfg = RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(TASK)
        .container(ContainerKind::Hash)
        .build()
        .unwrap();
    let mut session = Backend::RamrStatic.session::<WordCount>(cfg).unwrap();
    for (round, input) in [&big, &tiny, &big, &big, &tiny, &tiny, &big].into_iter().enumerate() {
        let expected = reference(input, &[]);
        if input.len() == big.len() {
            assert!(expected.len() >= 50_000);
        } else {
            assert!(expected.len() <= 50);
        }
        let out = session.submit(&WordCount, input).unwrap().output;
        assert_eq!(out.pairs, expected, "round {round}");
    }
}
