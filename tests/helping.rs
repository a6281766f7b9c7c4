//! Work-conserving combiners: a static combiner with no full batch to read
//! claims a map task and folds it in place, as a Phoenix worker folds its
//! tasks (DESIGN §6l).
//!
//! Every test forces the interleaving it checks from inside the job — a
//! rendezvous, a map cost that keeps the combiner idle, a mapper that waits
//! for the combiner's map call — rather than hoping the scheduler produces
//! it, and none can pass on a runtime whose combiners only ever wait.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::RamrSession;

fn config(queue: usize, batch: usize, task: usize) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(task)
        .queue_capacity(queue)
        .batch_size(batch)
        .build()
        .unwrap()
}

fn sums_mod(input: &[u64], keys: u64) -> Vec<(u64, u64)> {
    let mut sums = std::collections::BTreeMap::new();
    for &x in input {
        *sums.entry(x % keys).or_insert(0u64) += x;
    }
    sums.into_iter().collect()
}

/// Sums `x` under `x % 7`; until two map calls have been in flight at the
/// same moment, every map call waits for a second one to arrive.
#[derive(Default)]
struct Rendezvous {
    inside: AtomicUsize,
    met: AtomicBool,
}

impl MapReduceJob for Rendezvous {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        if self.inside.fetch_add(1, Ordering::SeqCst) + 1 >= 2 {
            self.met.store(true, Ordering::SeqCst);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.met.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "no second thread ever entered a map call");
            std::thread::yield_now();
        }
        self.inside.fetch_sub(1, Ordering::SeqCst);
        for &x in task {
            emit.emit(x % 7, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(7)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

#[test]
fn a_combiner_with_nothing_to_read_maps_alongside_its_mapper() {
    // One mapper, one combiner, eight tasks: the first map call can only
    // return once a second one is in flight, and the only other thread is
    // the combiner.
    let input: Vec<u64> = (0..800).collect();
    let job = Rendezvous::default();
    let mut session = RamrSession::new(config(64, 16, 100)).unwrap();
    let (out, report) = session.submit_with_report(&job, &input).unwrap();
    assert_eq!(out.pairs, sums_mod(&input, 7));
    assert!(job.met.load(Ordering::SeqCst));
    assert!(report.helped_per_combiner[0] > 0, "{:?}", report.helped_per_combiner);
    let helper = report.mapper_telemetry.last().unwrap();
    assert_eq!((helper.index, helper.items), (1, report.helped_per_combiner[0]));
}

/// Sums `x` under `x % 64` after a short spin per element, so mapping costs
/// far more than combining and the combiner is idle most of the time.
struct SlowMap;

impl MapReduceJob for SlowMap {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        for &x in task {
            let mut acc = x;
            for _ in 0..200 {
                acc = std::hint::black_box(acc.rotate_left(7) ^ 0xabcd_ef01);
            }
            std::hint::black_box(acc);
            emit.emit(x % 64, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(64)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

#[test]
fn a_mapper_spills_instead_of_starving_while_its_combiner_helps() {
    // A 64-slot queue holds a fraction of one 2 000-pair task, and the
    // helper reads its queue only between tasks. The mapper is not blocked
    // behind it meanwhile: finding the combiner a batch behind, it folds its
    // blocks itself (DESIGN §6q), so it keeps mapping its share of the job
    // instead of leaving nearly everything to the helper.
    let input: Vec<u64> = (0..80_000).collect();
    let mut session = RamrSession::new(config(64, 16, 2000)).unwrap();
    let started = Instant::now();
    let (out, report) = session.submit_with_report(&SlowMap, &input).unwrap();
    let wall = started.elapsed();
    assert_eq!(out.pairs, sums_mod(&input, 64));

    let emitted: u64 = report.emitted_per_mapper.iter().sum();
    let consumed: u64 = report.consumed_per_combiner.iter().sum();
    let helped: u64 = report.helped_per_combiner.iter().sum();
    let spilled = report.spilled_per_mapper[0];
    assert_eq!(emitted, out.stats.emitted);
    assert_eq!(emitted, consumed + helped + spilled);
    assert_eq!(emitted, input.len() as u64);
    assert!(helped > 0, "an idle combiner must have claimed tasks");

    let mapper = &report.mapper_telemetry[0];
    assert_eq!(
        mapper.items,
        consumed + spilled,
        "what the mapper emitted crossed the queue or was folded by the mapper itself"
    );
    assert!(
        mapper.items >= emitted / 8,
        "the mapper was starved: it mapped {} of {emitted} pairs",
        mapper.items
    );
    assert!(mapper.stalled < wall, "mapper stalled {:?} of a {wall:?} job", mapper.stalled);
}

/// Counts every `x` under its own key. Map calls on the mapper pool wait
/// until a map call on the combiner thread has returned, so the first pairs
/// to reach the combiner's container are ones it emitted in place.
#[derive(Default)]
struct HelperFirst {
    helper_calls: AtomicUsize,
    helper_returned: AtomicBool,
}

impl MapReduceJob for HelperFirst {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        let on_combiner =
            std::thread::current().name().is_some_and(|name| name.starts_with("ramr-combiner"));
        if on_combiner {
            self.helper_calls.fetch_add(1, Ordering::SeqCst);
        } else {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !self.helper_returned.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the combiner never ran a map task");
                std::thread::yield_now();
            }
        }
        for &x in task {
            emit.emit(x, 1);
        }
        if on_combiner {
            self.helper_returned.store(true, Ordering::SeqCst);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
}

#[test]
fn an_overflow_in_a_helped_task_fails_the_job_and_ends_the_helping() {
    // Two slots, 800 distinct keys: the combiner's own first task overflows
    // its container before anything has crossed the queue. The error must
    // come back as the queue path's would, and the combiner must leave its
    // loop at once, claiming no other task. Its mapper, which never waits
    // on a queue, still finishes, and the session drains what it queued.
    let input: Vec<u64> = (0..800).collect();
    let mut cfg = config(64, 16, 100);
    cfg.container = ContainerKind::FixedHash;
    cfg.fixed_capacity = Some(2);
    let job = HelperFirst::default();
    let mut session = RamrSession::new(cfg).unwrap();
    let err = session.submit(&job, &input).unwrap_err();
    assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }), "got {err}");
    assert_eq!(job.helper_calls.load(Ordering::SeqCst), 1);
}

thread_local! {
    /// Whether this thread is inside a `map` call.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
    /// The tag this thread's emissions carry; 0 until its first one.
    static TAG: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

fn thread_tag() -> u64 {
    TAG.with(|tag| {
        if tag.get() == 0 {
            tag.set(NEXT_TAG.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// Counts every `x` under `x % 8`, each value tagged with the thread that
/// emitted it, and checks in `combine` that a thread inside a `map` call
/// folds only pairs it emitted itself. The mapper's map calls wait until
/// the helper has entered one; the helper's first waits until the mapper
/// has emitted two batches more, so a full block sits in the helper's queue
/// while the helper emits its own task of two batches.
struct Tagged {
    mapper: ThreadId,
    batch: usize,
    mapper_emitted: AtomicUsize,
    helper_entered: AtomicBool,
    helper_calls: AtomicU64,
}

impl Tagged {
    fn new(batch: usize) -> Self {
        Self {
            mapper: std::thread::current().id(),
            batch,
            mapper_emitted: AtomicUsize::new(0),
            helper_entered: AtomicBool::new(false),
            helper_calls: AtomicU64::new(0),
        }
    }
}

fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

impl MapReduceJob for Tagged {
    type Input = u64;
    type Key = u64;
    /// (tag of the emitting thread, count)
    type Value = (u64, u64);

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, (u64, u64)>) {
        struct InMap;
        impl Drop for InMap {
            fn drop(&mut self) {
                IN_MAP.with(|f| f.set(false));
            }
        }
        IN_MAP.with(|f| f.set(true));
        let _in_map = InMap;
        let on_mapper = std::thread::current().id() == self.mapper;
        if on_mapper {
            wait_for("the combiner never ran a map task", || {
                self.helper_entered.load(Ordering::SeqCst)
            });
        } else if self.helper_calls.fetch_add(1, Ordering::SeqCst) == 0 {
            let start = self.mapper_emitted.load(Ordering::SeqCst);
            self.helper_entered.store(true, Ordering::SeqCst);
            wait_for("the mapper never emitted two batches", || {
                self.mapper_emitted.load(Ordering::SeqCst) >= start + 2 * self.batch
            });
        }
        let tag = thread_tag();
        for &x in task {
            emit.emit(x % 8, (tag, 1));
            if on_mapper {
                self.mapper_emitted.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn combine(&self, acc: &mut (u64, u64), v: (u64, u64)) {
        if IN_MAP.with(Cell::get) {
            assert_eq!(v.0, thread_tag(), "a thread inside `map` folded another thread's pair");
        }
        acc.1 += v.1;
    }

    fn key_space(&self) -> Option<usize> {
        Some(8)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

/// One mapper and one combiner, tasks of two batches, run with [`Tagged`].
fn run_tagged() -> (Tagged, ramr::RunReport) {
    let (batch, input): (usize, Vec<u64>) = (16, (0..512).collect());
    let job = Tagged::new(batch);
    let mut session = RamrSession::new(config(64, batch, 2 * batch)).unwrap();
    let (out, report) = session.submit_with_report(&job, &input).unwrap();
    let counts: Vec<(u64, u64)> = out.pairs.iter().map(|&(k, (_, n))| (k, n)).collect();
    assert_eq!(counts, (0..8).map(|k| (k, 64)).collect::<Vec<_>>());
    (job, report)
}

#[test]
fn a_helped_task_is_folded_like_a_phoenix_task() {
    // The helper's queue holds a full block of the mapper's pairs while it
    // emits its own task: a helper that read its queue between in-place
    // emissions would fold the mapper's pairs inside its `map` call.
    let (job, report) = run_tagged();
    assert!(job.helper_calls.load(Ordering::SeqCst) > 0);
    let emitted: u64 = report.emitted_per_mapper.iter().sum();
    let consumed: u64 = report.consumed_per_combiner.iter().sum();
    let helped: u64 = report.helped_per_combiner.iter().sum();
    assert_eq!(emitted, consumed + helped + report.spilled_per_mapper[0]);
}

#[test]
fn a_helper_row_is_shaped_like_a_worker_row() {
    // Tasks counted as batches, their fill as occupancy, and no stall.
    let (job, report) = run_tagged();
    let helper = report.mapper_telemetry.last().unwrap();
    assert_eq!((helper.index, helper.items), (1, report.helped_per_combiner[0]));
    assert_eq!(helper.batches, job.helper_calls.load(Ordering::SeqCst));
    assert_eq!(helper.occupancy.total(), helper.batches);
    assert_eq!(helper.stalled, Duration::ZERO);
    assert_eq!(helper.stall_events, 0);
}
