//! The Phoenix++ baseline is a session with no combiners (DESIGN §6.2): its
//! workers fold what they map on the mapping thread, into containers the
//! session keeps, and it shares caller-runs, fault handling, reduce and
//! merge with RAMR's session: a worker is a `Role` with no queue ends, running
//! the one `fold_loop` that mappers and combiners also run. What a single job
//! reports is checked next to that loop, in the `ramr` crate's unit tests.
//!
//! This binary scans its own process for pool threads by name, so every test
//! holds [`serial`] for its whole body: no other test's pool can show up in
//! the scan, whatever `--test-threads` says.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::Backend;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the calling test alone in this binary.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live threads of this process whose name starts with `prefix`, or `None`
/// where `/proc` is not available.
fn threads_named(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with(prefix))
            .count(),
    )
}

/// `threads_named`, polled until it reads `want` (or five seconds pass): a
/// new thread names itself a moment after `spawn` returns.
fn threads_settling_to(prefix: &str, want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match threads_named(prefix) {
            Some(n) if n != want && Instant::now() < deadline => std::thread::yield_now(),
            settled => return settled,
        }
    }
}

struct Mod7;

impl MapReduceJob for Mod7 {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
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

    fn name(&self) -> &str {
        "mod7"
    }
}

fn reference(input: &[u64]) -> Vec<(u64, u64)> {
    let mut sums = [0u64; 7];
    for &x in input {
        sums[(x % 7) as usize] += x;
    }
    (0..7).filter(|&k| sums[k as usize] != 0).map(|k| (k, sums[k as usize])).collect()
}

fn config(workers: usize, kind: ContainerKind) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(workers)
        .num_combiners(workers)
        .task_size(13)
        .container(kind)
        .num_reducers(3)
        .build()
        .unwrap()
}

#[test]
fn a_held_session_pools_workers_and_no_combiner() {
    let _serial = serial();
    let session = Backend::Phoenix.session::<Mod7>(config(4, ContainerKind::Array)).unwrap();
    // The submitting thread is worker 0: three of four are pooled.
    if let Some(seen) = threads_settling_to("ramr-worker-", 3) {
        assert_eq!(seen, 3, "a held Phoenix session pools T - 1 workers");
        assert_eq!(threads_named("ramr-combiner-"), Some(0), "and no combiner");
        assert_eq!(threads_named("ramr-"), Some(3), "and nothing else");
    }
    drop(session);
    if let Some(left) = threads_settling_to("ramr-", 0) {
        assert_eq!(left, 0, "a dropped session joined its workers");
    }
}

thread_local! {
    /// Set while this thread is inside a `map` call.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Emits every element twice under its own key, so each key meets `combine`
/// exactly once, inside the map call that emitted it, and reduce never folds.
#[derive(Default)]
struct Twice {
    combines: AtomicU64,
    outside_map: AtomicU64,
}

impl MapReduceJob for Twice {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        IN_MAP.set(true);
        for &x in task {
            emit.emit(x, 1);
            emit.emit(x, 1);
        }
        IN_MAP.set(false);
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        self.combines.fetch_add(1, Ordering::Relaxed);
        if !IN_MAP.get() {
            self.outside_map.fetch_add(1, Ordering::Relaxed);
        }
        *acc += v;
    }
}

#[test]
fn every_combine_runs_inside_the_map_call_that_emitted_the_pair() {
    let _serial = serial();
    let input: Vec<u64> = (0..20_000).collect();
    let job = Twice::default();
    let mut session = Backend::Phoenix.session::<Twice>(config(4, ContainerKind::Hash)).unwrap();
    let out = session.submit(&job, &input).unwrap().output;
    assert!(out.pairs.iter().all(|&(_, v)| v == 2));
    assert_eq!(out.len(), input.len());
    assert_eq!(job.combines.load(Ordering::Relaxed), input.len() as u64, "one fold per key");
    assert_eq!(job.outside_map.load(Ordering::Relaxed), 0, "every fold on a mapping thread");
}

/// Mod7 whose map calls panic while `fail` is set.
#[derive(Default)]
struct Switched {
    fail: AtomicBool,
}

impl MapReduceJob for Switched {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        assert!(!self.fail.load(Ordering::Relaxed), "switched off");
        Mod7.map(task, emit);
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
fn three_epochs_per_container_kind_are_exact_including_one_after_a_failure() {
    let _serial = serial();
    let job = Switched::default();
    for kind in ContainerKind::ALL {
        let mut session = Backend::Phoenix.session::<Switched>(config(3, kind)).unwrap();
        for (epoch, scale) in [4_000u64, 9_000, 2_000].into_iter().enumerate() {
            let input: Vec<u64> = (1..=scale).collect();
            if epoch == 1 {
                job.fail.store(true, Ordering::Relaxed);
                let err = session.submit(&job, &input).unwrap_err();
                assert!(matches!(err, RuntimeError::WorkerPanic(_)), "{kind}: got {err}");
                job.fail.store(false, Ordering::Relaxed);
            }
            let outcome = session.submit(&job, &input).unwrap();
            assert_eq!(outcome.output.pairs, reference(&input), "{kind} epoch {epoch}");
            assert_eq!(outcome.report.consumed, scale, "{kind} epoch {epoch}");
        }
    }
}

/// Panics in every map call: at once on a pooled worker, and on the
/// submitting thread (worker 0, the first board position) only 50 ms after
/// the pooled worker entered its own, so the two roles hold a task each and
/// the pooled worker fails first in time.
struct FailsLateOnTheCaller {
    caller: std::thread::ThreadId,
    pooled_entered: AtomicBool,
}

impl MapReduceJob for FailsLateOnTheCaller {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {
        if std::thread::current().id() != self.caller {
            self.pooled_entered.store(true, Ordering::SeqCst);
            panic!("the pooled worker's map failed");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.pooled_entered.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        panic!("the caller's map failed");
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
}

#[test]
fn several_failing_roles_report_the_first_in_board_order_not_in_time() {
    let _serial = serial();
    let job = FailsLateOnTheCaller {
        caller: std::thread::current().id(),
        pooled_entered: AtomicBool::new(false),
    };
    let input: Vec<u64> = (0..100).collect();
    let mut session = Backend::Phoenix.session(config(2, ContainerKind::Hash)).unwrap();
    let err = session.submit(&job, &input).unwrap_err();
    assert!(job.pooled_entered.load(Ordering::SeqCst), "the pooled worker never mapped");
    let expected = "the caller's map failed; 1 further worker error(s) suppressed";
    assert_eq!(err, RuntimeError::WorkerPanic(expected.into()));
}
