//! Lag-routed hand-off: a static mapper publishes a block only to a combiner
//! that has caught up — fewer than a batch of pairs unread, or parked on the
//! queue with nothing to do — and folds it itself otherwise (DESIGN §6.4).
//!
//! Every test but the last runs a 1 + 1 session, whose one mapper is the
//! submitting thread and whose one combiner is the pooled thread, and forces
//! the combiner's state from inside the job: a `combine` held until the
//! mapper has folded a pair itself, or a mapper that waits, per block, for
//! the combiner's fold count, or once for the combiner's thread to sleep.
//! None waits on a timer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::OnceLock;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mr_core::{task_ranges_for, ContainerKind, Emitter, MapReduceJob, PushBackoff, RuntimeConfig};
use ramr::{Backend, EngineReport};
use ramr_telemetry::ThreadRole;

/// Runs `case` on a thread of its own — which is then the submitter — and
/// fails instead of hanging when it has not finished within 20 s.
fn within_deadline(case: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let case = thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        // A failed assertion drops the sender: re-raise it from here.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => case.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("the job did not end within 20 s"),
    }
}

/// Spins until `done` holds, failing after 5 s with `what`.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        thread::yield_now();
    }
}

/// The calling thread's `/proc` stat file, or `None` without `/proc`.
fn own_stat() -> Option<PathBuf> {
    let task = std::fs::read_link("/proc/thread-self").ok()?;
    Some(Path::new("/proc").join(task).join("stat"))
}

/// Whether the thread behind `stat` is asleep (state `S`); `true` where it
/// cannot be told, so a box without `/proc` runs the test unforced.
fn asleep(stat: Option<&Path>) -> bool {
    let Some(stat) = stat else { return true };
    let Ok(line) = std::fs::read_to_string(stat) else { return true };
    line.rsplit_once(") ").is_none_or(|(_, fields)| fields.starts_with('S'))
}

/// Opaque map cost the optimiser cannot elide.
fn work(x: u64, rounds: u32) -> u64 {
    let mut acc = x;
    for _ in 0..rounds {
        acc = std::hint::black_box(acc.rotate_left(7) ^ 0xabcd_ef01);
    }
    acc
}

fn session(queue: usize, batch: usize, task: usize, kind: ContainerKind) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(task)
        .queue_capacity(queue)
        .batch_size(batch)
        .container(kind)
        .build()
        .unwrap()
}

/// Pairs the combiners read from their queues: the combiner rows' items.
fn queued(report: &EngineReport) -> u64 {
    report.threads.iter().filter(|t| t.role == ThreadRole::Combiner).map(|t| t.items).sum()
}

/// Asserts `emitted == consumed + helped + spilled` and returns the total.
fn conserved(report: &EngineReport, case: &str) -> u64 {
    let mappers = report.threads.iter().filter(|t| t.role == ThreadRole::Mapper);
    let emitted: u64 = mappers.map(|t| t.items).sum();
    let consumed = queued(report);
    let helped = report.helped;
    let spilled: u64 = report.spilled_per_mapper.iter().sum();
    assert_eq!(emitted, consumed + helped + spilled, "{case}: conservation: {report:?}");
    emitted
}

/// Pairs the one mapper (the submitter) emitted, and its flushes that found
/// the combiner behind: the first row of the report.
fn mapper_0(report: &EngineReport) -> (u64, u64) {
    let row = &report.threads[0];
    assert_eq!((row.role, row.index), (ThreadRole::Mapper, 0));
    (row.items, row.stall_events)
}

/// Block and batch size of the 1 + 1 tests.
const B: usize = 4;

/// Sums `x` under `(x / B) % 3`, so every block repeats one key. A combine
/// off the submitting thread is held until the submitter — the mapper — has
/// folded a pair into its own container.
struct Held {
    submitter: ThreadId,
    mapper_folds: AtomicU64,
}

impl MapReduceJob for Held {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        for &x in task {
            emit.emit((x / B as u64) % 3, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if thread::current().id() == self.submitter {
            self.mapper_folds.fetch_add(1, Ordering::SeqCst);
        } else {
            wait_for("the mapper queued every block behind a combiner held in combine", || {
                self.mapper_folds.load(Ordering::SeqCst) > 0
            });
        }
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(3)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

#[test]
fn a_combiner_held_inside_combine_makes_the_mapper_spill_though_the_queue_has_room() {
    // The queue holds the whole job, so it never fills: a mapper that only
    // spilled what a full queue could not take would queue every block, and
    // the held combiner would fail the job at its deadline.
    within_deadline(|| {
        let input: Vec<u64> = (0..256).collect();
        let mut expected = [0u64; 3];
        for &x in &input {
            expected[((x / B as u64) % 3) as usize] += x;
        }
        for kind in ContainerKind::ALL {
            let cfg = session(input.len(), B, 64, kind);
            let mut session = Backend::RamrStatic.session(cfg).unwrap();
            let job = Held { submitter: thread::current().id(), mapper_folds: AtomicU64::new(0) };
            let (out, report) = session.submit(&job, &input).unwrap().into_parts();
            assert_eq!(out.pairs, (0..3).zip(expected).collect::<Vec<_>>(), "{kind}");
            assert_eq!(conserved(&report, &kind.to_string()), input.len() as u64);
            assert!(report.spilled_per_mapper[0] > 0, "{kind}: {report:?}");
            assert!(mapper_0(&report).1 > 0, "{kind}: {report:?}");
        }
    });
}

/// Counts every element under key 0. The first map call on a thread other
/// than the submitter's — the combiner helping, the only other thread — runs
/// before the submitter's map emits anything, so that key is in the
/// combiner's container and every pair it then reads from the queue is one
/// `combine` call on its thread. The helper's map returns only once the
/// submitter is inside its own, so the submitter holds the other task and
/// each thread maps one. With `paced`, the submitter's map waits before
/// each block until the combiner has folded every pair queued so far;
/// without, it emits nothing until the combiner, out of tasks, is asleep
/// on its queue's doorbell.
struct HelperFirst {
    submitter: ThreadId,
    paced: bool,
    /// Map cost per element on the submitter.
    rounds: u32,
    submitter_entered: AtomicBool,
    helper_returned: AtomicBool,
    /// The helper's `/proc` stat file, recorded by its map call.
    helper_stat: OnceLock<Option<PathBuf>>,
    combiner_folds: AtomicU64,
}

impl HelperFirst {
    fn new(paced: bool, rounds: u32) -> Self {
        Self {
            submitter: thread::current().id(),
            paced,
            rounds,
            submitter_entered: AtomicBool::new(false),
            helper_returned: AtomicBool::new(false),
            helper_stat: OnceLock::new(),
            combiner_folds: AtomicU64::new(0),
        }
    }
}

impl MapReduceJob for HelperFirst {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        if thread::current().id() != self.submitter {
            for _ in task {
                emit.emit(0, 1);
            }
            self.helper_stat.get_or_init(own_stat);
            wait_for("the submitter never ran a map task", || {
                self.submitter_entered.load(Ordering::SeqCst)
            });
            self.helper_returned.store(true, Ordering::SeqCst);
            return;
        }
        self.submitter_entered.store(true, Ordering::SeqCst);
        wait_for("the combiner never ran a map task", || {
            self.helper_returned.load(Ordering::SeqCst)
        });
        if !self.paced {
            let stat = self.helper_stat.get().and_then(Option::as_deref);
            wait_for("the combiner never parked", || asleep(stat));
        }
        let base = self.combiner_folds.load(Ordering::SeqCst);
        for (i, &x) in task.iter().enumerate() {
            if self.paced && i > 0 && i % B == 0 {
                wait_for("the combiner never read a published block", || {
                    self.combiner_folds.load(Ordering::SeqCst) - base >= i as u64
                });
            }
            std::hint::black_box(work(x, self.rounds));
            emit.emit(0, 1);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if thread::current().id() != self.submitter {
            self.combiner_folds.fetch_add(1, Ordering::SeqCst);
        }
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(1)
    }

    fn key_index(&self, _: &u64) -> usize {
        0
    }
}

/// Two tasks of `task_size / 8` elements: one for the helping combiner, one
/// for the submitter — the tail floor twice, which a 1 + 1 session does not
/// cut finer; returns the report after checking the output.
fn helper_first(cfg: RuntimeConfig, job: HelperFirst) -> EngineReport {
    let input: Vec<u64> = (0..2 * (cfg.task_size / 8) as u64).collect();
    assert_eq!(task_ranges_for(input.len(), cfg.task_size, 2).len(), 2);
    let mut session = Backend::RamrStatic.session(cfg).unwrap();
    let (out, report) = session.submit(&job, &input).unwrap().into_parts();
    assert_eq!(out.pairs, [(0, input.len() as u64)]);
    assert_eq!(conserved(&report, "helper first"), input.len() as u64);
    assert_eq!(report.helped + mapper_0(&report).0, input.len() as u64);
    assert!(mapper_0(&report).0 > 0, "the combiner mapped both tasks: {report:?}");
    report
}

#[test]
fn a_combiner_that_keeps_up_is_handed_every_block() {
    // Each block is published only once the one before it is folded, so the
    // combiner never has a batch unread when the mapper flushes.
    within_deadline(|| {
        for kind in ContainerKind::ALL {
            let cfg = session(2 * B, B, 8 * 40 * B, kind);
            let report = helper_first(cfg, HelperFirst::new(true, 400));
            assert_eq!(report.spilled_per_mapper[0], 0, "{kind}: {report:?}");
            assert_eq!(mapper_0(&report).1, 0, "{kind}: {report:?}");
            assert_eq!(
                queued(&report),
                mapper_0(&report).0,
                "{kind}: every pair the mapper emitted must cross the queue: {report:?}"
            );
        }
    });
}

#[test]
fn a_parked_combiner_with_no_task_left_is_published_to_not_bypassed() {
    // After its helped task the combiner finds no batch and no task, and
    // parks at once (`spins: 0`) until half the 1 024-slot ring is full —
    // which the submitter's 160 pairs never reach, so only the close wakes
    // it. Unread pairs pass a batch from the mapper's second block on: a
    // mapper that routed by the unread count alone would fold everything
    // after its first block itself.
    within_deadline(|| {
        for kind in ContainerKind::ALL {
            let mut cfg = session(1024, B, 8 * 40 * B, kind);
            cfg.push_backoff = PushBackoff { spins: 0, sleep: Duration::from_secs(10) };
            let report = helper_first(cfg, HelperFirst::new(false, 2_000));
            assert_eq!(report.spilled_per_mapper[0], 0, "{kind}: {report:?}");
            assert_eq!(
                queued(&report),
                mapper_0(&report).0,
                "{kind}: the parked combiner was bypassed: {report:?}"
            );
        }
    });
}

/// Sums `x` under `x % 64`; a combine on a pooled combiner thread costs a
/// short spin, so the combiners fall behind and mappers fold blocks
/// themselves.
struct SlowCombiners;

impl MapReduceJob for SlowCombiners {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        for &x in task {
            emit.emit(x % 64, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if thread::current().name().is_some_and(|name| name.starts_with("ramr-combiner")) {
            std::hint::black_box(work(v, 50));
        }
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
fn every_pair_is_folded_once_by_exactly_one_route_on_wider_sessions() {
    let input: Vec<u64> = (0..40_000).collect();
    let mut expected = [0u64; 64];
    for &x in &input {
        expected[(x % 64) as usize] += x;
    }
    let expected: Vec<(u64, u64)> = (0..64).zip(expected).collect();
    let mut spilled = 0u64;
    for (workers, combiners) in [(3, 1), (4, 2)] {
        for kind in ContainerKind::ALL {
            let cfg = RuntimeConfig::builder()
                .num_workers(workers)
                .num_combiners(combiners)
                .task_size(500)
                .queue_capacity(256)
                .batch_size(32)
                .container(kind)
                .build()
                .unwrap();
            let mut session = Backend::RamrStatic.session(cfg).unwrap();
            for epoch in 0..3 {
                let case = format!("{workers} + {combiners}, {kind}, epoch {epoch}");
                let (out, report) = session.submit(&SlowCombiners, &input).unwrap().into_parts();
                assert_eq!(out.pairs, expected, "{case}");
                assert_eq!(conserved(&report, &case), input.len() as u64);
                assert_eq!(report.spilled_per_mapper.len(), workers, "{case}");
                spilled += report.spilled_per_mapper.iter().sum::<u64>();
            }
        }
    }
    assert!(spilled > 0, "18 epochs through slow combiners and no mapper ever folded a block");
}
