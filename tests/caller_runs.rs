//! Caller-runs epochs: the thread that calls `submit` on a static session
//! runs the session's mapper 0 itself, so the session pools `T − 1` threads
//! and an epoch wakes only those.
//!
//! Covered here: where map calls run and how many pool threads a session
//! holds; the caller as the failing side (a map panic, a map hung until
//! the watchdog cancels it) on every container kind, each followed by an
//! exact submit; and, with pinning on, the caller pinned to mapper 0's CPU
//! while it maps and back on its own mask after `submit`, also when the job
//! failed.
//!
//! A lost close of mapper 0's queue shows up as a hang, not a failure, so CI
//! runs this binary serially under a hard deadline. Its tests also share
//! process-wide state (the thread list in `/proc`), so they take one lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::RamrSession;
use ramr_topology::CpuSlot;

const KEYS: u64 = 16;
const ELEMENTS: u64 = 4096;
const TASK: usize = 64;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn input() -> Vec<u64> {
    (0..ELEMENTS).collect()
}

fn oracle(input: &[u64]) -> Vec<(u64, u64)> {
    let mut counts = BTreeMap::new();
    for x in input {
        *counts.entry(x % KEYS).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

/// What the submitting thread's first map call does after emitting.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Fault {
    None,
    Panic,
    /// Never return until the run is cancelled.
    Hang,
}

/// Counts `x % KEYS` and notes which thread ran each map call. With
/// `rendezvous` set, a map call on any other thread waits until the
/// submitter has entered one, so the submitter is sure to map — and to be
/// the side that faults — whoever claims first.
struct Probe {
    submitter: ThreadId,
    fault: Fault,
    rendezvous: bool,
    on_submitter: AtomicUsize,
    elsewhere: AtomicUsize,
    /// `Cpus_allowed_list` as the submitter's map calls saw it.
    submitter_cpus: Mutex<Vec<String>>,
}

impl Probe {
    /// Built on the thread that will submit it.
    fn new(fault: Fault, rendezvous: bool) -> Self {
        Self {
            submitter: thread::current().id(),
            fault,
            rendezvous,
            on_submitter: AtomicUsize::new(0),
            elsewhere: AtomicUsize::new(0),
            submitter_cpus: Mutex::new(Vec::new()),
        }
    }
}

impl MapReduceJob for Probe {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        let on_submitter = thread::current().id() == self.submitter;
        let first = if on_submitter {
            if let Some(cpus) = cpus_allowed() {
                self.submitter_cpus.lock().unwrap().push(cpus);
            }
            self.on_submitter.fetch_add(1, Ordering::SeqCst) == 0
        } else {
            self.elsewhere.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.rendezvous
                && self.on_submitter.load(Ordering::SeqCst) == 0
                && !emit.is_cancelled()
            {
                assert!(Instant::now() < deadline, "the submitter never mapped");
                thread::sleep(Duration::from_micros(200));
            }
            false
        };
        for &x in task {
            emit.emit(x % KEYS, 1);
        }
        if self.fault == Fault::None || !first {
            return;
        }
        // One pair past a whole number of blocks: the fault leaves a
        // partial block in the mapper's emit buffer, which outlives the
        // epoch and must not reach the next job.
        emit.emit(0, 1);
        if self.fault == Fault::Panic {
            panic!("injected fault on the submitter");
        }
        while !emit.is_cancelled() {
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(KEYS as usize)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

fn config(adaptive: bool) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(TASK)
        .queue_capacity(256)
        .batch_size(16)
        .adaptive(adaptive)
        .build()
        .unwrap()
}

/// Live `ramr-*` threads of this process, polled until the count reads
/// `want` (or five seconds pass): a new thread names itself a moment after
/// `spawn` returns, and a joined one can linger in `/proc` a moment after
/// `join` does. `None` where `/proc` is not available.
fn pool_threads_settling_to(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        let seen = tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("ramr-"))
            .count();
        if seen == want || Instant::now() >= deadline {
            return Some(seen);
        }
        thread::yield_now();
    }
}

/// The calling thread's `Cpus_allowed_list`, or `None` without `/proc`.
fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line["Cpus_allowed_list:".len()..].trim().to_owned())
}

#[test]
fn a_static_session_maps_on_the_submitter_and_pools_one_thread_fewer() {
    let _serial = serial();
    let input = input();
    assert!(input.len().div_ceil(TASK) >= 8);
    for adaptive in [false, true] {
        let mut session = RamrSession::<Probe>::new(config(adaptive)).unwrap();
        // Static: mapper 0 is the submitter's, only the combiner is pooled.
        // Adaptive: the submitter hosts the controller; both roles pooled.
        let pooled = if adaptive { 2 } else { 1 };
        if let Some(seen) = pool_threads_settling_to(pooled) {
            assert_eq!(seen, pooled, "adaptive={adaptive}: pool threads of a 1 + 1 session");
        }
        for _ in 0..3 {
            let job = Probe::new(Fault::None, !adaptive);
            let out = session.submit(&job, &input).unwrap();
            assert_eq!(out.pairs, oracle(&input), "adaptive={adaptive}");
            let on_submitter = job.on_submitter.load(Ordering::SeqCst);
            let calls = on_submitter + job.elsewhere.load(Ordering::SeqCst);
            assert_eq!(calls, input.len().div_ceil(TASK), "adaptive={adaptive}: one call a task");
            if adaptive {
                assert_eq!(on_submitter, 0, "the adaptive submitter only supervises");
            } else {
                assert!(on_submitter > 0, "the static submitter ran map calls");
            }
        }
        drop(session);
        if let Some(left) = pool_threads_settling_to(0) {
            assert_eq!(left, 0, "adaptive={adaptive}: the dropped session joined its pool");
        }
    }
}

#[test]
fn the_submitter_as_the_failing_side_leaves_the_session_exact() {
    let _serial = serial();
    let input = input();
    for kind in ContainerKind::ALL {
        let mut cfg = config(false);
        cfg.container = kind;
        cfg.watchdog = Some(Duration::from_millis(200));
        let mut session = RamrSession::<Probe>::new(cfg).unwrap();
        for fault in [Fault::Panic, Fault::Hang, Fault::Panic] {
            let job = Probe::new(fault, true);
            let err = session.submit(&job, &input).unwrap_err();
            match (fault, &err) {
                (Fault::Panic, RuntimeError::WorkerPanic(m)) => {
                    assert!(m.contains("injected fault"), "{kind}: {m}");
                }
                (Fault::Hang, RuntimeError::Stalled { diagnostics, .. }) => {
                    assert!(diagnostics.contains("mapper[0]="), "{kind}: {diagnostics}");
                }
                _ => panic!("{kind}, {fault:?} on the submitter: got {err}"),
            }
            assert!(job.on_submitter.load(Ordering::SeqCst) > 0, "{kind}: the fault ran");

            let healthy = Probe::new(Fault::None, true);
            let out = session.submit(&healthy, &input).unwrap();
            assert_eq!(out.pairs, oracle(&input), "{kind}, after {fault:?} on the submitter");
        }
    }
}

#[test]
fn a_pinned_submitter_maps_on_mapper_0s_cpu_and_gets_its_mask_back() {
    let _serial = serial();
    let Some(own) = cpus_allowed() else {
        eprintln!("skipped: no /proc/thread-self/status");
        return;
    };
    let mut cfg = config(false);
    cfg.pin_os_threads = true;
    let mut session = RamrSession::<Probe>::new(cfg).unwrap();
    let CpuSlot::Pinned(cpu) = session.placement().mapper_slot(0) else {
        eprintln!("skipped: the placement leaves mapper 0 unpinned");
        return;
    };
    let Ok(mask) = ramr_topology::current_thread_affinity() else {
        eprintln!("skipped: affinity not readable");
        return;
    };
    // Start the submitter on a mask of its own that excludes mapper 0's
    // CPU, so "restored" cannot be mistaken for "never pinned".
    let Some(&elsewhere) = mask.iter().find(|&&c| c != cpu) else {
        eprintln!("skipped: fewer than 2 CPUs ({own})");
        return;
    };
    ramr_topology::pin_current_thread(elsewhere).unwrap();
    let before = cpus_allowed().unwrap();
    assert_eq!(before, elsewhere.to_string());

    let input = input();
    for fault in [Fault::None, Fault::Panic, Fault::None] {
        let job = Probe::new(fault, true);
        let result = session.submit(&job, &input);
        match fault {
            Fault::None => assert_eq!(result.unwrap().pairs, oracle(&input)),
            _ => assert!(matches!(result, Err(RuntimeError::WorkerPanic(_))), "{fault:?}"),
        }
        let seen = job.submitter_cpus.lock().unwrap().clone();
        assert!(!seen.is_empty(), "{fault:?}: the submitter mapped");
        assert!(seen.iter().all(|c| *c == cpu.to_string()), "{fault:?}: mapped on {seen:?}");
        assert_eq!(cpus_allowed().unwrap(), before, "{fault:?}: the mask came back");
    }
    ramr_topology::set_current_thread_affinity(&mask).unwrap();
}
