//! Chaos suite: deterministic fault injection against the fault-tolerance
//! machinery of both runtimes.
//!
//! Faults come from `ramr-faultinject`: each word-count line carries its
//! index as a leading token, the fingerprint function maps it to a task
//! ordinal, and a `FaultPlan` decides which tasks panic, hang or dawdle.
//! Expected outputs are computed from the same plan, so every assertion is
//! exact — no "mostly works" tolerances. Every run sits behind a hard
//! test-side deadline so a fault-tolerance regression shows up as a failed
//! assertion, not a wedged CI job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mr_apps::{WordCount, WordCountString};
use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::{Backend, Engine, JobScheduler, RamrSession, SchedError};
use ramr_containers::CompactKey;
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};

/// Lines per task; the fingerprint function divides by this, so keep the
/// two in lockstep.
const TASK: usize = 32;
const LINES: usize = 400;

fn lines() -> Vec<String> {
    (0..LINES).map(|i| format!("t{i} alpha beta w{} v{}", i % 7, i % 13)).collect()
}

/// Task ordinal of a line: the leading `t<index>` token over [`TASK`].
/// `&String` (not `&str`): must match `FaultyJob`'s `fn(&J::Input) -> u64`.
#[allow(clippy::ptr_arg)]
fn ordinal_of(line: &String) -> u64 {
    let token = line.split_ascii_whitespace().next().expect("nonempty line");
    let index: u64 = token[1..].parse().expect("t<index> token");
    index / TASK as u64
}

/// Word counts of `input` with the tasks in `dropped` (by ordinal) removed
/// — the exact output of a skip-poison run.
fn reference(input: &[String], dropped: &[u64]) -> Vec<(String, u64)> {
    let mut counts = BTreeMap::new();
    for (i, line) in input.iter().enumerate() {
        if dropped.contains(&((i / TASK) as u64)) {
            continue;
        }
        for word in line.split_ascii_whitespace() {
            *counts.entry(word.to_ascii_lowercase()).or_insert(0u64) += 1;
        }
    }
    counts.into_iter().collect()
}

/// `WordCount` emits `CompactKey`s; the reference outputs here are
/// `String`-keyed, so runs convert at the boundary before comparing.
fn to_string_pairs(pairs: Vec<(CompactKey, u64)>) -> Vec<(String, u64)> {
    pairs.into_iter().map(|(k, v)| (k.as_str().to_owned(), v)).collect()
}

fn config(retries: u32, skip: bool, watchdog_ms: Option<u64>) -> RuntimeConfig {
    let mut builder = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(TASK)
        .queue_capacity(256)
        .batch_size(16)
        .container(ContainerKind::Hash)
        .max_task_retries(retries)
        .skip_poison_tasks(skip);
    if let Some(ms) = watchdog_ms {
        builder = builder.watchdog(Duration::from_millis(ms));
    }
    builder.build().unwrap()
}

fn faulty(plan: FaultPlan) -> FaultyJob<WordCount> {
    FaultyJob::new(WordCount, plan, ordinal_of)
}

/// Runs `f` on a helper thread and panics if it outruns `secs` — chaos
/// tests must never hang the suite, even when fault tolerance regresses.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(_) => panic!("chaos run exceeded the {secs}s deadline"),
    }
}

fn run_engine(
    backend: Backend,
    cfg: &RuntimeConfig,
    job: &FaultyJob<WordCount>,
    input: &[String],
) -> Result<(Vec<(String, u64)>, ramr_telemetry::FaultMetrics), RuntimeError> {
    let outcome = backend.engine(cfg.clone())?.submit(job, input)?;
    Ok((to_string_pairs(outcome.output.pairs), outcome.report.faults))
}

#[test]
fn transient_faults_recover_with_exact_output_across_engines() {
    for backend in Backend::ALL {
        let (pairs, faults, attempts) = with_deadline(60, move || {
            let input = lines();
            let plan =
                FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key: 3, fail_attempts: 2 }]);
            let job = faulty(plan);
            let cfg = config(2, false, None);
            let (pairs, faults) = run_engine(backend, &cfg, &job, &input).unwrap();
            (pairs, faults, job.attempts_for(3))
        });
        assert_eq!(pairs, reference(&lines(), &[]), "{backend}: retried output must be exact");
        assert_eq!(attempts, 3, "{backend}: two failures then one success");
        assert_eq!(faults.retries, 2, "{backend}");
        assert!(faults.skipped.is_empty(), "{backend}");
    }
}

#[test]
fn exhausted_retries_abort_with_the_injected_panic_across_engines() {
    for backend in Backend::ALL {
        let err = with_deadline(60, move || {
            let input = lines();
            let plan = FaultPlan::with_faults(vec![FaultKind::PanicOnTask {
                key: 3,
                fail_attempts: u32::MAX,
            }]);
            let cfg = config(1, false, None);
            run_engine(backend, &cfg, &faulty(plan), &input).unwrap_err()
        });
        assert!(
            matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("injected fault")),
            "{backend}: got {err}"
        );
    }
}

#[test]
fn skip_poison_completes_with_the_poison_task_recorded_across_engines() {
    for backend in Backend::ALL {
        let (pairs, faults) = with_deadline(60, move || {
            let input = lines();
            let plan = FaultPlan::with_faults(vec![FaultKind::PanicOnTask {
                key: 3,
                fail_attempts: u32::MAX,
            }]);
            let cfg = config(1, true, None);
            run_engine(backend, &cfg, &faulty(plan), &input).unwrap()
        });
        assert_eq!(pairs, reference(&lines(), &[3]), "{backend}: exactly one task dropped");
        assert_eq!(faults.skipped.len(), 1, "{backend}");
        let skip = &faults.skipped[0];
        assert_eq!((skip.start, skip.end), (3 * TASK, 4 * TASK), "{backend}");
        assert_eq!(skip.attempts, 2, "{backend}: initial attempt + one retry");
        assert!(skip.message.contains("injected fault"), "{backend}: {}", skip.message);
        assert!(faults.summary().unwrap().contains("skipped"), "{backend}");
    }
}

#[test]
fn watchdog_cancels_a_hung_task_across_engines() {
    for backend in Backend::ALL {
        let err = with_deadline(30, move || {
            let input = lines();
            let plan = FaultPlan::with_faults(vec![FaultKind::HangOnTask { key: 5 }]);
            let cfg = config(0, false, Some(200));
            backend.engine(cfg).unwrap().submit(&faulty(plan), &input).unwrap_err()
        });
        // The diagnostics name the threads as the backend calls them.
        let thread = if backend == Backend::Phoenix { "worker[" } else { "mapper[" };
        match err {
            RuntimeError::Stalled { idle_ms, ref diagnostics, .. } => {
                assert!(idle_ms >= 200, "{backend}: idle_ms={idle_ms}");
                assert!(
                    diagnostics.contains(thread) && diagnostics.contains("live worker"),
                    "{backend}: diagnostics must name the threads: {diagnostics}"
                );
            }
            other => panic!("{backend}: expected Stalled, got {other}"),
        }
    }
}

/// A job whose combiner stops draining: its `combine` blocks until every
/// task has been claimed, so its queues fill and are not read while any
/// task is left. A mapper that parked on its full queue would never claim
/// the rest — only the watchdog would end the job. A mapper folds what the
/// queue has no room for itself (DESIGN §6p) and maps on.
struct DrainedLast {
    tasks: usize,
    claimed: AtomicU64,
}

impl MapReduceJob for DrainedLast {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        self.claimed.fetch_add(1, Ordering::SeqCst);
        for &x in task {
            emit.emit((x % 8) as u32, 1);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        let on_combiner =
            thread::current().name().is_some_and(|name| name.starts_with("ramr-combiner"));
        while on_combiner && self.claimed.load(Ordering::SeqCst) < self.tasks as u64 {
            thread::sleep(Duration::from_millis(1));
        }
        *acc += v;
    }
}

#[test]
fn a_static_mapper_maps_on_past_a_queue_nobody_drains() {
    // A parked mapper would end this job as a watchdog `Stalled`.
    let (pairs, spilled) = with_deadline(30, move || {
        let input: Vec<u64> = (0..20_000).collect();
        // Two mappers, one combiner, 32-slot queues.
        let cfg = RuntimeConfig::builder()
            .num_workers(2)
            .num_combiners(1)
            .task_size(512)
            .queue_capacity(32)
            .batch_size(8)
            .container(ContainerKind::Hash)
            .watchdog(Duration::from_millis(200))
            .build()
            .unwrap();
        let job = DrainedLast { tasks: input.len().div_ceil(cfg.task_size), claimed: 0.into() };
        let outcome = Backend::RamrStatic.engine(cfg).unwrap().submit(&job, &input).unwrap();
        (outcome.output.pairs, outcome.report.spilled)
    });
    assert_eq!(pairs, (0..8).map(|k| (k, 2_500)).collect::<Vec<_>>());
    assert!(spilled > 0, "the mappers never folded a pair themselves");
}

#[test]
fn slow_but_progressing_tasks_do_not_trip_the_watchdog() {
    let pairs = with_deadline(60, move || {
        let input = lines();
        let plan = FaultPlan::with_faults(vec![
            FaultKind::DelayTask { key: 2, micros: 20_000 },
            FaultKind::DelayTask { key: 7, micros: 20_000 },
        ]);
        let cfg = config(0, false, Some(500));
        let outcome =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&faulty(plan), &input).unwrap();
        to_string_pairs(outcome.output.pairs)
    });
    assert_eq!(pairs, reference(&lines(), &[]));
}

#[test]
fn seeded_chaos_plans_replay_to_the_exact_output_across_engines() {
    // Seeded transient panics (1–3 failing attempts each); retries = 3
    // covers the worst draw, so every engine must converge to the full
    // reference output — and do so identically for the same seed.
    let tasks = LINES.div_ceil(TASK) as u64;
    for seed in [11u64, 97, 2026] {
        let plan = FaultPlan::seeded_panics(seed, tasks, 4);
        assert_eq!(plan.faults(), FaultPlan::seeded_panics(seed, tasks, 4).faults());
        for backend in Backend::ALL {
            let plan = plan.clone();
            let (pairs, faults) = with_deadline(120, move || {
                let input = lines();
                let cfg = config(3, false, Some(5_000));
                run_engine(backend, &cfg, &faulty(plan), &input).unwrap()
            });
            assert_eq!(pairs, reference(&lines(), &[]), "{backend} seed={seed}");
            assert!(faults.retries >= 1, "{backend} seed={seed}: plans always hold faults");
            assert!(faults.skipped.is_empty(), "{backend} seed={seed}");
        }
    }
}

#[test]
fn a_poison_tenant_through_the_scheduler_fails_alone_across_engines() {
    // Scheduler-level fault isolation: a tenant whose every job aborts with
    // an injected panic shares the pool with two concurrently submitting
    // healthy tenants. The victim must collect its own `WorkerPanic` per
    // job; the bystanders' outputs must be byte-identical to the serial
    // reference throughout — no wedge, no bleed, on every engine.
    for backend in Backend::ALL {
        with_deadline(120, move || {
            let cfg = config(1, false, None);
            let sched = Arc::new(JobScheduler::<FaultyJob<WordCount>>::new(backend, cfg).unwrap());
            let input = Arc::new(lines());
            let expected = reference(&input, &[]);

            let mut bystanders = Vec::new();
            for b in 0..2 {
                let sched = Arc::clone(&sched);
                let input = Arc::clone(&input);
                let expected = expected.clone();
                bystanders.push(thread::spawn(move || {
                    let client = sched.client(&format!("bystander-{b}"));
                    for round in 0..4 {
                        let job = Arc::new(faulty(FaultPlan::default()));
                        let done = client.submit(job, Arc::clone(&input)).unwrap().wait().unwrap();
                        assert_eq!(
                            to_string_pairs(done.output.pairs),
                            expected,
                            "{backend} bystander-{b} round {round}"
                        );
                    }
                }));
            }

            let victim = sched.client("victim");
            for round in 0..4 {
                let plan = FaultPlan::with_faults(vec![FaultKind::PanicOnTask {
                    key: 3,
                    fail_attempts: u32::MAX,
                }]);
                let err = victim.submit(Arc::new(faulty(plan)), Arc::clone(&input)).unwrap().wait();
                match err {
                    Err(SchedError::Job(RuntimeError::WorkerPanic(ref m))) => {
                        assert!(m.contains("injected fault"), "{backend} round {round}: {m}")
                    }
                    other => panic!(
                        "{backend} round {round}: expected the injected panic, got {other:?}"
                    ),
                }
            }
            for handle in bystanders {
                handle.join().unwrap();
            }

            let stats = sched.tenant_stats();
            let victim_stats = stats.iter().find(|s| s.tenant == "victim").unwrap();
            assert_eq!(victim_stats.failed, 4, "{backend}: every poisoned job must fail");
            assert_eq!(victim_stats.completed, 0, "{backend}");
            for b in 0..2 {
                let s = stats.iter().find(|s| s.tenant == format!("bystander-{b}")).unwrap();
                assert_eq!(
                    (s.completed, s.failed, s.shed),
                    (4, 0, 0),
                    "{backend} bystander-{b}: the victim's faults leaked into its accounting"
                );
            }
        });
    }
}

#[test]
fn non_retry_safe_jobs_fail_fast_regardless_of_budget() {
    /// WordCount minus the retry-safety declaration.
    struct Undeclared;
    impl MapReduceJob for Undeclared {
        type Input = String;
        type Key = String;
        type Value = u64;
        fn map(&self, task: &[String], emit: &mut mr_core::Emitter<'_, String, u64>) {
            WordCountString.map(task, emit);
        }
        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }
    }

    for backend in Backend::ALL {
        let err = with_deadline(60, move || {
            let input = lines();
            let plan =
                FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key: 3, fail_attempts: 1 }]);
            let job = FaultyJob::new(Undeclared, plan, ordinal_of);
            let cfg = config(5, true, None);
            backend.engine(cfg).unwrap().submit(&job, &input).unwrap_err()
        });
        assert!(matches!(err, RuntimeError::WorkerPanic(_)), "{backend}: got {err}");
    }
}

// --- Faults inside a map task a combiner runs in place ---------------------

/// What the victim thread's first task does.
#[derive(Clone, Copy)]
enum RoleFault {
    /// Panic after emitting, on the first `n` attempts.
    Panic(u32),
    /// Never return until the run is cancelled.
    Hang,
}

/// The thread a [`FaultOnRole`] job faults on.
#[derive(Clone, Copy)]
enum Victim {
    /// The thread that calls `submit`: it runs the session's mapper 0.
    Submitter(ThreadId),
    /// A combiner, which maps only the tasks it claims while it has nothing
    /// to read.
    Combiner,
    /// No thread: a job that injects nothing.
    Nobody,
}

impl Victim {
    fn is_current(self) -> bool {
        let thread = thread::current();
        match self {
            Victim::Submitter(id) => thread.id() == id,
            Victim::Combiner => thread.name().is_some_and(|n| n.starts_with("ramr-combiner")),
            Victim::Nobody => false,
        }
    }
}

/// Word count in which the first task mapped by the `victim` thread is
/// faulty, whichever task that turns out to be. Every other thread waits
/// inside its own first task until the victim's has been entered
/// `release_at` times, so the fault plays out on the victim whichever side
/// claims first: an idle combiner claims a task while the mapper waits, and
/// the submitter, which maps until the task queue is empty, claims one
/// while a helping combiner waits.
struct FaultOnRole {
    victim: Victim,
    fault: RoleFault,
    release_at: u32,
    /// Ordinal of the victim's task; `u64::MAX` until it has claimed one.
    faulty_task: AtomicU64,
    attempts: AtomicU32,
}

impl FaultOnRole {
    fn new(victim: Victim, fault: RoleFault, release_at: u32) -> Self {
        Self {
            victim,
            fault,
            release_at,
            faulty_task: AtomicU64::new(u64::MAX),
            attempts: AtomicU32::new(0),
        }
    }

    /// A job value that injects nothing, for the healthy submit after a
    /// failed one.
    fn healthy() -> Self {
        Self::new(Victim::Nobody, RoleFault::Panic(0), 0)
    }
}

impl MapReduceJob for FaultOnRole {
    type Input = String;
    type Key = CompactKey;
    type Value = u64;

    fn map(&self, task: &[String], emit: &mut Emitter<'_, CompactKey, u64>) {
        let ordinal = ordinal_of(&task[0]);
        if self.victim.is_current() {
            let claimed = self.faulty_task.compare_exchange(
                u64::MAX,
                ordinal,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            if claimed.map_or_else(|current| current == ordinal, |_| true) {
                let attempt = self.attempts.fetch_add(1, Ordering::SeqCst) + 1;
                match self.fault {
                    RoleFault::Hang => {
                        while !emit.is_cancelled() {
                            thread::sleep(Duration::from_millis(1));
                        }
                    }
                    RoleFault::Panic(fail_attempts) => {
                        WordCount.map(task, emit);
                        if attempt <= fail_attempts {
                            panic!("injected fault: task {ordinal} attempt {attempt}");
                        }
                    }
                }
                return;
            }
        } else {
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.attempts.load(Ordering::SeqCst) < self.release_at && !emit.is_cancelled() {
                assert!(Instant::now() < deadline, "the victim never claimed a map task");
                thread::sleep(Duration::from_micros(200));
            }
        }
        WordCount.map(task, emit);
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn is_retry_safe(&self) -> bool {
        true
    }
}

fn one_to_one(retries: u32, skip: bool, watchdog_ms: Option<u64>) -> RuntimeConfig {
    let mut cfg = config(retries, skip, watchdog_ms);
    cfg.num_workers = 1;
    cfg.num_combiners = 1;
    cfg
}

#[test]
fn a_poison_task_on_a_helping_combiner_is_accounted_like_one_on_a_mapper() {
    // (retries, skip, failing attempts): a transient fault that retries
    // recover, and a permanent one skipped with and without a retry budget.
    for (retries, skip, fail_attempts) in [(2, false, 2), (1, true, u32::MAX), (0, true, u32::MAX)]
    {
        let attempts = retries.min(fail_attempts) + 1;
        let run = move |on_combiner: bool| {
            with_deadline(60, move || {
                let input = lines();
                let victim = if on_combiner {
                    Victim::Combiner
                } else {
                    Victim::Submitter(thread::current().id())
                };
                let job = FaultOnRole::new(victim, RoleFault::Panic(fail_attempts), attempts);
                let mut session = RamrSession::new(one_to_one(retries, skip, None)).unwrap();
                let (out, report) = session.submit_with_report(&job, &input).unwrap();
                let helped: u64 = report.helped_per_combiner.iter().sum();
                let ordinal = job.faulty_task.load(Ordering::SeqCst);
                let tried = job.attempts.load(Ordering::SeqCst);
                (to_string_pairs(out.pairs), report.faults, helped, ordinal, tried)
            })
        };
        let case = format!("retries={retries} skip={skip}");
        let (pairs, on_combiner, helped, ordinal, tried) = run(true);
        let (_, on_mapper, _, _, tried_on_mapper) = run(false);

        assert_eq!(tried, attempts, "{case}");
        assert_eq!(tried_on_mapper, attempts, "{case}");
        let dropped: Vec<u64> = if fail_attempts > retries { vec![ordinal] } else { Vec::new() };
        assert_eq!(pairs, reference(&lines(), &dropped), "{case}");
        // Every attempt emitted before panicking; staging kept all but the
        // successful one out of the combiner's container.
        if dropped.is_empty() {
            assert!(helped > 0, "{case}: the recovered task was folded in place");
        }

        assert_eq!(on_combiner.retries, u64::from(attempts - 1), "{case}");
        assert_eq!(on_combiner.retries, on_mapper.retries, "{case}");
        assert_eq!(on_combiner.skipped.len(), dropped.len(), "{case}");
        assert_eq!(on_mapper.skipped.len(), dropped.len(), "{case}");
        for (c, m) in on_combiner.skipped.iter().zip(&on_mapper.skipped) {
            let start = ordinal as usize * TASK;
            assert_eq!((c.task_id, c.start, c.end), (ordinal as usize, start, start + TASK));
            assert_eq!(c.attempts, m.attempts, "{case}");
            assert_eq!(c.attempts, attempts, "{case}");
            assert!(c.message.contains("injected fault"), "{case}: {}", c.message);
        }
    }
}

#[test]
fn a_panicking_helped_task_fails_the_job_and_leaves_the_session_exact() {
    with_deadline(60, || {
        let input = lines();
        let mut session = RamrSession::new(one_to_one(0, false, None)).unwrap();
        for round in 0..2 {
            let job = FaultOnRole::new(Victim::Combiner, RoleFault::Panic(u32::MAX), 1);
            let err = session.submit(&job, &input).unwrap_err();
            assert!(
                matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("injected fault")),
                "round {round}: got {err}"
            );
            let out = session.submit(&FaultOnRole::healthy(), &input).unwrap();
            assert_eq!(to_string_pairs(out.pairs), reference(&input, &[]), "round {round}");
        }
    });
}

#[test]
fn the_watchdog_diagnoses_a_helper_hung_inside_a_map_task() {
    const WATCHDOG: Duration = Duration::from_millis(200);
    with_deadline(30, || {
        let input = lines();
        let cfg = one_to_one(0, false, Some(WATCHDOG.as_millis() as u64));
        let mut session = RamrSession::new(cfg).unwrap();
        let job = FaultOnRole::new(Victim::Combiner, RoleFault::Hang, 1);
        let started = Instant::now();
        let err = session.submit(&job, &input).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(job.attempts.load(Ordering::SeqCst), 1, "the hung task ran on the combiner");
        match err {
            RuntimeError::Stalled { idle_ms, ref diagnostics, .. } => {
                assert!(u128::from(idle_ms) >= WATCHDOG.as_millis(), "idle_ms={idle_ms}");
                assert!(diagnostics.contains("combiner[0]="), "{diagnostics}");
            }
            other => panic!("expected Stalled, got {other}"),
        }
        // The mapper finishes everything else at once; then one period of
        // silence, and the cancel reaches the hung task through its emitter.
        assert!(
            elapsed < WATCHDOG + Duration::from_secs(1),
            "the epoch took {elapsed:?} to unwind"
        );
        let out = session.submit(&FaultOnRole::healthy(), &input).unwrap();
        assert_eq!(to_string_pairs(out.pairs), reference(&input, &[]));
    });
}
