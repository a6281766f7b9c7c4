//! Work-conserving mappers: a static mapper whose combiner is behind folds
//! its blocks into its own container instead of queueing them or waiting
//! (DESIGN §6.4).
//!
//! Every test runs a 1 + 1 session — the submitting thread is the one
//! mapper, the pooled thread the one combiner — with a queue of 8, a batch
//! and emit block of 4, and keys that stay the same for a whole block. The
//! spill is forced from inside the job: any combine off the submitting
//! thread waits until the submitter's first map call has returned. Every
//! batch of 4 repeats a key, so until then the combiner cannot finish one,
//! it is a batch behind from the mapper's second block on, and the rest of
//! the mapper's first task must be folded by the mapper itself. On a
//! runtime whose mappers queue every block or wait for room,
//! both sides would wait on each other until the combiner's deadline fails
//! the job.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::{Backend, EngineReport, EngineSession};
use ramr_telemetry::ThreadRole;

/// Elements per task: six blocks of 4, two turns of a three-key cycle.
const TASK: usize = 24;

/// Forty tasks.
fn input() -> Vec<u64> {
    (0..40 * TASK as u64).collect()
}

fn config(container: ContainerKind) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(TASK)
        .queue_capacity(8)
        .batch_size(4)
        .container(container)
        .build()
        .unwrap()
}

/// What the job does besides summing its input per key.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// Combine panics on the submitting thread — inside a spill.
    PanicInSpill,
    /// The submitter's second map call waits until the job is cancelled.
    HangAfterSpill,
    /// The task holding [`POISON`] panics on its first two attempts, after
    /// emitting; the job opts into retries.
    FlakyTask,
}

/// The element whose task is poisoned under [`Fault::FlakyTask`].
const POISON: u64 = 100;

/// Sums `x` under key `(x / 4) % keys`.
struct Spilling {
    keys: u64,
    fault: Fault,
    submitter: ThreadId,
    /// Opens once the submitter's first map call has returned — for a
    /// staged job, whose pairs reach the mapper only after that, once its
    /// next map call starts — or once a spill is about to panic.
    gate: AtomicBool,
    returned: AtomicBool,
    submitter_map_calls: AtomicUsize,
    submitter_combines: AtomicUsize,
    poison_attempts: AtomicU32,
}

impl Spilling {
    /// A job for the calling thread to submit.
    fn new(keys: u64, fault: Fault) -> Self {
        Self {
            keys,
            fault,
            submitter: thread::current().id(),
            gate: AtomicBool::new(false),
            returned: AtomicBool::new(false),
            submitter_map_calls: AtomicUsize::new(0),
            submitter_combines: AtomicUsize::new(0),
            poison_attempts: AtomicU32::new(0),
        }
    }

    fn on_submitter(&self) -> bool {
        thread::current().id() == self.submitter
    }

    fn key(&self, x: u64) -> u64 {
        (x / 4) % self.keys
    }

    fn expected(&self, input: &[u64]) -> Vec<(u64, u64)> {
        let mut sums = std::collections::BTreeMap::new();
        for &x in input {
            *sums.entry(self.key(x)).or_insert(0u64) += x;
        }
        sums.into_iter().collect()
    }
}

impl MapReduceJob for Spilling {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        let on_submitter = self.on_submitter();
        if on_submitter {
            self.submitter_map_calls.fetch_add(1, Ordering::SeqCst);
            if self.returned.load(Ordering::SeqCst) {
                self.gate.store(true, Ordering::SeqCst);
                if self.fault == Fault::HangAfterSpill {
                    while !emit.is_cancelled() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
            }
        }
        for &x in task {
            emit.emit(self.key(x), x);
        }
        if self.fault == Fault::FlakyTask
            && task.contains(&POISON)
            && self.poison_attempts.fetch_add(1, Ordering::SeqCst) < 2
        {
            panic!("flaky task tripped");
        }
        if on_submitter {
            self.returned.store(true, Ordering::SeqCst);
            if !self.is_retry_safe() {
                self.gate.store(true, Ordering::SeqCst);
            }
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if self.on_submitter() {
            self.submitter_combines.fetch_add(1, Ordering::SeqCst);
            if self.fault == Fault::PanicInSpill {
                self.gate.store(true, Ordering::SeqCst);
                panic!("spill exploded");
            }
        } else {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !self.gate.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the mapper never folded a block itself");
                thread::yield_now();
            }
        }
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.keys as usize)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }

    fn is_retry_safe(&self) -> bool {
        self.fault == Fault::FlakyTask
    }
}

/// Asserts the output is exact, every pair is accounted for once, and the
/// mapper folded part of it itself; returns the report.
fn submit_exact(session: &mut EngineSession<Spilling>, job: &Spilling, case: &str) -> EngineReport {
    let input = input();
    let (out, report) = session.submit(job, &input).unwrap().into_parts();
    assert_eq!(out.pairs, job.expected(&input), "{case}");
    let (combiners, mappers): (Vec<_>, Vec<_>) =
        report.threads.iter().partition(|t| t.role == ThreadRole::Combiner);
    let emitted: u64 = mappers.iter().map(|t| t.items).sum();
    let consumed: u64 = combiners.iter().map(|t| t.items).sum();
    let helped = report.helped;
    let spilled = report.spilled_per_mapper[0];
    assert_eq!(emitted, input.len() as u64, "{case}");
    assert_eq!(emitted, consumed + helped + spilled, "{case}: conservation");
    assert!(spilled > 0, "{case}: the mapper never folded a pair itself: {report:?}");
    assert!(
        mappers[0].stall_events > 0,
        "{case}: a spill is a flush that found the combiner behind"
    );
    report
}

/// Runs `case` on a thread of its own — which is then the submitter — and
/// fails instead of hanging when it has not finished within 10 s: a mapper
/// that never closes its queue leaves its combiner draining it for ever.
fn within_deadline(case: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let case = thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        // A failed assertion drops the sender: re-raise it from here.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => case.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("the job did not end within 10 s"),
    }
}

#[test]
fn a_mapper_with_a_full_queue_folds_the_overflow_for_every_container() {
    for kind in ContainerKind::ALL {
        let mut session = Backend::RamrStatic.session(config(kind)).unwrap();
        // Three epochs: the second and third take over the spill container
        // the one before drained.
        for epoch in 0..3 {
            submit_exact(&mut session, &Spilling::new(3, Fault::None), &format!("{kind} #{epoch}"));
        }
    }
}

#[test]
fn an_overflow_in_a_spill_fails_the_job_and_ends_the_mapping() {
    // Two slots, three keys. Block 1 of the mapper's first task goes to the
    // queue with key 0, which the combiner holds without overflowing; the
    // combiner is then a batch behind, so blocks 2 and 3 spill keys 1 and 2,
    // three combines each; block 4 brings the spill its third key. The
    // mapper must report that,
    // fold nothing more, claim no other task, and still close its queue —
    // or the combiner would drain it for ever.
    within_deadline(|| {
        let mut cfg = config(ContainerKind::FixedHash);
        cfg.fixed_capacity = Some(2);
        let mut session = Backend::RamrStatic.session(cfg).unwrap();
        let job = Spilling::new(3, Fault::None);
        let err = session.submit(&job, &input()).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }), "got {err}");
        assert_eq!(job.submitter_map_calls.load(Ordering::SeqCst), 1, "the mapper claimed on");
        assert_eq!(job.submitter_combines.load(Ordering::SeqCst), 6, "the mapper spilled on");

        // The next job fits the two slots, and is exact.
        submit_exact(&mut session, &Spilling::new(2, Fault::None), "after the overflow");
    });
}

#[test]
fn a_combine_panic_in_a_spill_on_the_submitter_fails_the_job_alone() {
    within_deadline(|| {
        let mut session = Backend::RamrStatic.session(config(ContainerKind::Hash)).unwrap();
        let err = session.submit(&Spilling::new(3, Fault::PanicInSpill), &input()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("spill exploded")),
            "got {err}"
        );
        submit_exact(&mut session, &Spilling::new(3, Fault::None), "after the panic");
    });
}

#[test]
fn a_stall_with_pairs_in_the_spill_container_leaves_the_next_job_exact() {
    // The first map call spills, the second hangs until the watchdog
    // cancels the job: the spill container then holds a cancelled job's
    // pairs, and none of them may reach the next job.
    let mut cfg = config(ContainerKind::Hash);
    cfg.watchdog = Some(Duration::from_millis(200));
    let mut session = Backend::RamrStatic.session(cfg).unwrap();
    let job = Spilling::new(3, Fault::HangAfterSpill);
    let err = session.submit(&job, &input()).unwrap_err();
    assert!(matches!(err, RuntimeError::Stalled { .. }), "got {err}");
    assert!(job.submitter_combines.load(Ordering::SeqCst) > 0, "nothing was spilled before");
    for epoch in 0..2 {
        submit_exact(&mut session, &Spilling::new(3, Fault::None), &format!("after #{epoch}"));
    }
}

#[test]
fn a_retried_poison_task_on_a_spilling_mapper_counts_each_pair_once() {
    let mut cfg = config(ContainerKind::Hash);
    cfg.max_task_retries = 2;
    let mut session = Backend::RamrStatic.session(cfg).unwrap();
    let report = submit_exact(&mut session, &Spilling::new(3, Fault::FlakyTask), "retried");
    assert_eq!(report.faults.retries, 2);
    assert!(report.faults.skipped.is_empty());
}
