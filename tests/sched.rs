//! Scheduler suite: many concurrent clients over one shared session.
//!
//! The hazards specific to the scheduler layer are ordering (a policy must
//! dispatch exactly the jobs it was given, once each), isolation (one
//! tenant's failure must not leak into another's output or wedge the
//! queue), and admission control (quotas and the bounded queue must shed
//! or delay — never deadlock, never drop silently). Each test drives a
//! `JobScheduler` from multiple threads and checks one hazard with exact
//! assertions; outputs are always compared byte-for-byte against a serial
//! baseline.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mr_apps::WordCount;
use mr_core::{task_ranges_for, ContainerKind, RuntimeConfig, SchedPolicy};
use ramr::sched::SchedError;
use ramr::{Backend, Engine, JobScheduler};
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};

/// The largest task a [`config`] session cuts.
const TASK: usize = 32;

/// Threads that map in a [`config`] session: 4 mappers and 2 combiners.
const THREADS: usize = 6;

fn lines(n: usize, salt: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i} alpha beta w{} v{}", (i + salt) % 7, (i + salt) % 13)).collect()
}

/// Word counts of `input` — the exact expected output of a healthy run.
fn reference(input: &[String]) -> Vec<(ramr_containers::CompactKey, u64)> {
    let mut counts = BTreeMap::new();
    for line in input {
        for word in line.split_ascii_whitespace() {
            *counts.entry(ramr_containers::CompactKey::ascii_lowercase(word)).or_insert(0u64) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Task ordinal of a line: the id of the task that holds its leading
/// `t<index>` token when `N` lines are split for `T` mapping threads, as a
/// session of `T` threads splits them.
#[allow(clippy::ptr_arg)]
fn ordinal_of<const N: usize, const T: usize>(line: &String) -> u64 {
    let token = line.split_ascii_whitespace().next().expect("nonempty line");
    let index: usize = token[1..].parse().expect("t<index> token");
    task_ranges_for(N, TASK, T).partition_point(|t| t.end <= index) as u64
}

/// The task ordinals of an `N`-line [`config`] job on `backend`: a RAMR
/// session maps on its [`THREADS`], a Phoenix session on its 4 workers.
fn ordinal_for<const N: usize>(backend: Backend) -> fn(&String) -> u64 {
    match backend {
        Backend::Phoenix => ordinal_of::<N, 4>,
        _ => ordinal_of::<N, THREADS>,
    }
}

/// Every task of a 150-line [`config`] job on the static backend.
fn all_tasks() -> std::ops::Range<u64> {
    0..task_ranges_for(150, TASK, THREADS).len() as u64
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

/// A job with no faults: no fingerprint matches, so every task maps as is.
fn healthy() -> FaultyJob<WordCount> {
    FaultyJob::new(WordCount, FaultPlan::default(), |_| 0)
}

/// A job whose task `key` always panics, fingerprinted by `ordinal`.
fn poisoned(key: u64, ordinal: fn(&String) -> u64) -> FaultyJob<WordCount> {
    let plan =
        FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key, fail_attempts: u32::MAX }]);
    FaultyJob::new(WordCount, plan, ordinal)
}

/// Runs `f` on a helper thread and panics if it outruns `secs` — a
/// scheduler regression must fail the suite, not hang it.
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
        Err(_) => panic!("scheduler run exceeded the {secs}s deadline"),
    }
}

/// The acceptance-criteria differential: N >= 4 concurrent clients
/// submitting mixed jobs through one shared session must produce outputs
/// byte-identical to running the same jobs serially — on every backend.
#[test]
fn concurrent_clients_match_the_serial_baseline_across_backends() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 6;
    for backend in Backend::ALL {
        with_deadline(120, move || {
            let sched = JobScheduler::<WordCount>::new(backend, config()).unwrap();
            let mut handles = Vec::new();
            for c in 0..CLIENTS {
                let client = sched.client(&format!("tenant-{c}"));
                handles.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    for j in 0..JOBS_PER_CLIENT {
                        // Mixed jobs: every (client, round) pair gets its
                        // own input, so misrouted or cross-bled output
                        // cannot accidentally compare equal.
                        let salt = c * 100 + j;
                        let input = Arc::new(lines(150 + j * TASK, salt));
                        let ticket = client.submit(Arc::new(WordCount), input).unwrap();
                        let done = ticket.wait().unwrap();
                        got.push((salt, done.output.pairs));
                    }
                    got
                }));
            }
            for handle in handles {
                for (salt, pairs) in handle.join().unwrap() {
                    // The serial baseline: the same job, fresh and alone.
                    let input = lines(150 + (salt % 100) * TASK, salt);
                    let serial = backend
                        .engine(config())
                        .unwrap()
                        .submit(&WordCount, &input)
                        .unwrap()
                        .output;
                    assert_eq!(pairs, serial.pairs, "{backend} salt={salt}");
                    assert_eq!(pairs, reference(&input), "{backend} salt={salt}");
                }
            }
            let stats = sched.tenant_stats();
            assert_eq!(stats.len(), CLIENTS, "{backend}: every tenant accounted");
            for s in &stats {
                assert_eq!(s.completed, JOBS_PER_CLIENT as u64, "{backend} {}", s.tenant);
                assert_eq!(s.failed, 0, "{backend} {}", s.tenant);
                assert_eq!(s.shed, 0, "{backend} {}", s.tenant);
            }
        });
    }
}

/// The same differential under the fair-share policy with skewed weights:
/// fairness reorders dispatch, but must never change any job's output. A
/// FIFO run of the same backlog is the control: one tenant's flood queued
/// ahead of the others, every output still exact.
#[test]
fn fair_share_reorders_dispatch_but_never_output() {
    for policy in ["fair:flood=1,light=8", "fifo"] {
        with_deadline(120, move || {
            let mut cfg = config();
            cfg.sched_policy = policy.parse::<SchedPolicy>().unwrap();
            let sched = JobScheduler::<WordCount>::new(Backend::RamrStatic, cfg).unwrap();
            let mut handles = Vec::new();
            for (tenant, jobs) in [("flood", 12usize), ("light", 3), ("extra", 3), ("more", 3)] {
                let client = sched.client(tenant);
                handles.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    for j in 0..jobs {
                        let input = Arc::new(lines(120, j));
                        let ticket =
                            client.submit(Arc::new(WordCount), Arc::clone(&input)).unwrap();
                        got.push((input, ticket));
                    }
                    // Redeem after submitting everything, so the queue
                    // really holds competing tenants at once.
                    got.into_iter()
                        .map(|(input, t)| (input, t.wait().unwrap().output.pairs))
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                for (input, pairs) in handle.join().unwrap() {
                    assert_eq!(pairs, reference(&input), "{policy}");
                }
            }
            let stats = sched.tenant_stats();
            let flood = stats.iter().find(|s| s.tenant == "flood").unwrap();
            let light = stats.iter().find(|s| s.tenant == "light").unwrap();
            if policy != "fifo" {
                assert_eq!((flood.weight, light.weight), (1, 8), "weights come from the policy");
            }
            assert_eq!(flood.completed, 12, "{policy}");
            assert_eq!(light.completed, 3, "{policy}");
        });
    }
}

/// A panicking job fails only its own tenant's ticket; concurrent submits
/// from other clients still complete with exact outputs, and the queue
/// keeps flowing afterwards — on every backend.
#[test]
fn a_failed_tenant_never_wedges_the_queue_across_backends() {
    for backend in Backend::ALL {
        with_deadline(120, move || {
            let sched = JobScheduler::<FaultyJob<WordCount>>::new(backend, config()).unwrap();
            let victim = sched.client("victim");
            let mut handles = Vec::new();
            for c in 0..3 {
                let client = sched.client(&format!("bystander-{c}"));
                handles.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    for j in 0..4 {
                        let input = Arc::new(lines(150, c * 10 + j));
                        let ticket =
                            client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
                        got.push((input, ticket.wait().unwrap().output.pairs));
                    }
                    got
                }));
            }
            // The victim interleaves poisoned jobs with the bystanders.
            for round in 0..3 {
                let input = Arc::new(lines(150, round));
                let job = Arc::new(poisoned(1, ordinal_for::<150>(backend)));
                let err = victim.submit(job, input).unwrap().wait().unwrap_err();
                assert!(
                    matches!(&err, SchedError::Job(e) if e.to_string().contains("panic")),
                    "{backend} round {round}: expected the injected panic, got {err}"
                );
            }
            for handle in handles {
                for (input, pairs) in handle.join().unwrap() {
                    assert_eq!(pairs, reference(&input), "{backend}: bystander output bled");
                }
            }
            // And the session is still usable for the failed tenant too.
            let input = Arc::new(lines(150, 99));
            let done = victim.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
            assert_eq!(done.wait().unwrap().output.pairs, reference(&input), "{backend}");
            let stats = sched.tenant_stats();
            let victim_stats = stats.iter().find(|s| s.tenant == "victim").unwrap();
            assert_eq!(victim_stats.failed, 3, "{backend}");
            assert_eq!(victim_stats.completed, 1, "{backend}");
        });
    }
}

/// The per-tenant quota sheds `try_submit` deterministically: with quota 1
/// and one job parked in the queue behind a slow epoch, the second
/// `try_submit` from the same tenant must be refused and counted.
#[test]
fn quota_sheds_try_submit_but_other_tenants_proceed() {
    with_deadline(60, || {
        let mut cfg = config();
        cfg.sched_quota = 1;
        let sched = JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, cfg).unwrap();
        // Park the dispatcher on a slow job (every task dawdles 20 ms) so
        // admission decisions happen while work is provably in flight.
        let slow_plan = FaultPlan::with_faults(
            all_tasks().map(|k| FaultKind::DelayTask { key: k, micros: 20_000 }).collect(),
        );
        let slow = FaultyJob::new(WordCount, slow_plan, ordinal_of::<150, THREADS>);
        let input = Arc::new(lines(150, 0));
        let a = sched.client("a");
        let first = a.submit(Arc::new(slow), Arc::clone(&input)).unwrap();

        // Same tenant, quota already held by the in-flight job.
        let err = a.try_submit(Arc::new(healthy()), Arc::clone(&input)).unwrap_err();
        assert!(
            matches!(&err, SchedError::QuotaExceeded { tenant, quota: 1 } if tenant == "a"),
            "expected the quota refusal, got {err}"
        );

        // A different tenant has its own quota and sails through.
        let b = sched.client("b");
        let second = b.try_submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        assert_eq!(second.wait().unwrap().output.pairs, reference(&input));
        assert_eq!(first.wait().unwrap().output.pairs, reference(&input));

        let stats = sched.tenant_stats();
        let a_stats = stats.iter().find(|s| s.tenant == "a").unwrap();
        assert_eq!(a_stats.shed, 1, "the refusal must be recorded");
        assert_eq!(a_stats.completed, 1);
    });
}

/// After a watchdog-cancelled epoch the scheduler is saturated: it sheds
/// `try_submit` until an epoch completes cleanly, then admits again.
#[test]
fn watchdog_saturation_sheds_until_an_epoch_completes_cleanly() {
    with_deadline(60, || {
        let mut cfg = config();
        cfg.watchdog = Some(Duration::from_millis(200));
        let sched = JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, cfg).unwrap();
        let client = sched.client("a");
        let input = Arc::new(lines(150, 0));

        let hung_plan = FaultPlan::with_faults(vec![FaultKind::HangOnTask { key: 1 }]);
        let hung = FaultyJob::new(WordCount, hung_plan, ordinal_of::<150, THREADS>);
        let err = client.submit(Arc::new(hung), Arc::clone(&input)).unwrap().wait().unwrap_err();
        assert!(
            matches!(&err, SchedError::Job(mr_core::RuntimeError::Stalled { .. })),
            "expected the watchdog trip, got {err}"
        );

        // Saturated: non-blocking admission sheds.
        let err = client.try_submit(Arc::new(healthy()), Arc::clone(&input)).unwrap_err();
        assert!(matches!(err, SchedError::Saturated), "got {err}");

        // A blocking submit is delayed-not-shed; its clean completion
        // clears the saturation.
        let done = client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        assert_eq!(done.wait().unwrap().output.pairs, reference(&input));
        let again = client.try_submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        assert_eq!(again.wait().unwrap().output.pairs, reference(&input));
    });
}

/// Dropping the scheduler mid-stream fulfils still-queued tickets with
/// `Shutdown` instead of leaving their waiters parked forever.
#[test]
fn shutdown_fulfils_queued_tickets() {
    with_deadline(60, || {
        let sched =
            JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, config()).unwrap();
        let client = sched.client("a");
        let input = Arc::new(lines(150, 0));
        // Every task of the running job dawdles, holding the dispatcher in
        // the epoch while the second job is still queued behind it.
        let slow_plan = FaultPlan::with_faults(
            all_tasks().map(|k| FaultKind::DelayTask { key: k, micros: 30_000 }).collect(),
        );
        let slow = FaultyJob::new(WordCount, slow_plan, ordinal_of::<150, THREADS>);
        let running = client.submit(Arc::new(slow), Arc::clone(&input)).unwrap();
        let queued = client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        drop(sched);
        // The shutdown contract: a job the dispatcher started runs to
        // completion; a still-queued ticket is fulfilled with `Shutdown`.
        // Which side of that line each job lands on depends on how far
        // the dispatcher got before `drop` — on a loaded machine it may
        // not have dequeued even the first job, or may have finished the
        // slow epoch and legally started the second. Every ticket must
        // resolve either way; none may be left parked (the deadline
        // around this closure catches that).
        let resolve = |ticket: ramr::JobTicket<FaultyJob<WordCount>>| match ticket.wait() {
            Ok(done) => {
                assert_eq!(done.output.pairs, reference(&input));
                true
            }
            Err(SchedError::Shutdown) => false,
            Err(other) => panic!("ticket resolved oddly: {other}"),
        };
        let ran_first = resolve(running);
        let ran_second = resolve(queued);
        // FIFO: the second job can only have run if the first did too.
        assert!(ran_first || !ran_second, "queued job ran but the earlier one was shed");
    });
}

/// Stress: many clients, tiny queue, mixed healthy/poisoned jobs, both
/// policies — every ticket resolves, every output is exact, nothing
/// deadlocks. This is the CI `sched-stress` entry point.
#[test]
fn concurrent_submit_stress_resolves_every_ticket() {
    for policy in ["fifo", "fair:t0=4,t1=1"] {
        with_deadline(180, move || {
            let mut cfg = config();
            cfg.sched_queue = 4; // tiny: force delay paths constantly
            cfg.sched_policy = policy.parse::<SchedPolicy>().unwrap();
            let sched =
                JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, cfg).unwrap();
            let mut handles = Vec::new();
            for c in 0..6usize {
                let client = sched.client(&format!("t{c}"));
                handles.push(thread::spawn(move || {
                    let mut outcomes = (0u64, 0u64);
                    for j in 0..8usize {
                        let input = Arc::new(lines(120, c + j));
                        // Every third job of half the tenants is poisoned.
                        let poison = c % 2 == 0 && j % 3 == 2;
                        let job = if poison {
                            Arc::new(poisoned(0, ordinal_of::<120, THREADS>))
                        } else {
                            Arc::new(healthy())
                        };
                        let ticket = client.submit(job, Arc::clone(&input)).unwrap();
                        match ticket.wait() {
                            Ok(done) => {
                                assert_eq!(done.output.pairs, reference(&input), "t{c} job {j}");
                                assert!(!poison, "t{c} job {j}: poisoned job succeeded");
                                outcomes.0 += 1;
                            }
                            Err(SchedError::Job(e)) => {
                                assert!(poison, "t{c} job {j}: healthy job failed: {e}");
                                outcomes.1 += 1;
                            }
                            Err(other) => panic!("t{c} job {j}: unexpected {other}"),
                        }
                    }
                    outcomes
                }));
            }
            let mut completed = 0u64;
            let mut failed = 0u64;
            for handle in handles {
                let (ok, bad) = handle.join().unwrap();
                completed += ok;
                failed += bad;
            }
            assert_eq!(completed + failed, 48, "{policy}: every ticket resolved");
            let stats = sched.tenant_stats();
            assert_eq!(stats.iter().map(|s| s.completed).sum::<u64>(), completed, "{policy}");
            assert_eq!(stats.iter().map(|s| s.failed).sum::<u64>(), failed, "{policy}");
        });
    }
}

/// The execution ledger keeps only the most recent claims: after
/// `cap + 8` tagged no-op jobs it holds exactly the last `cap` tags, in
/// claim order, so a long-lived pool's record stays bounded.
#[test]
fn the_execution_ledger_keeps_only_the_most_recent_claims() {
    // The scheduler's private ledger bound.
    const CAP: usize = 4096;
    with_deadline(120, || {
        let sched =
            JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, config()).unwrap();
        let client = sched.client("a");
        let empty = Arc::new(Vec::new());
        for i in 0..CAP + 8 {
            let ticket = client
                .try_submit_tagged(Arc::new(healthy()), Arc::clone(&empty), &format!("job:{i}"))
                .unwrap();
            assert!(ticket.wait().unwrap().output.pairs.is_empty());
        }
        let expected: Vec<String> = (8..CAP + 8).map(|i| format!("job:{i}")).collect();
        assert_eq!(sched.execution_ledger(), expected);
    });
}

/// A completion hook receives each outcome exactly once, on the thread
/// that has it: the dispatcher for a job still running when the hook is
/// set, the caller for a job that has already completed, and the thread
/// dropping the scheduler for a job that never ran.
#[test]
fn a_completion_hook_runs_once_on_the_thread_that_fulfils_the_ticket() {
    with_deadline(60, || {
        let sched =
            JobScheduler::<FaultyJob<WordCount>>::new(Backend::RamrStatic, config()).unwrap();
        let client = sched.client("a");
        let input = Arc::new(lines(150, 0));
        let (tx, rx) = mpsc::channel();
        let hook = |label: &'static str| {
            let tx = tx.clone();
            move |outcome: Result<ramr::CompletedJob<FaultyJob<WordCount>>, SchedError>| {
                let on = thread::current().name().map(str::to_string);
                let pairs = outcome.map(|done| done.output.pairs).map_err(|e| e.to_string());
                tx.send((label, on, pairs)).unwrap();
            }
        };

        // Completed before the hook is set: the hook runs right here.
        let done = client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        let blocker = client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        blocker.wait().unwrap();
        done.on_complete(hook("done"));
        let (label, on, pairs) = rx.try_recv().expect("the hook ran on the caller");
        assert_eq!((label, on), ("done", thread::current().name().map(str::to_string)));
        assert_eq!(pairs.unwrap(), reference(&input));

        // Still running when the hook is set: the dispatcher runs it. The
        // slow job holds the dispatcher while a second job queues behind.
        let slow_plan = FaultPlan::with_faults(
            all_tasks().map(|k| FaultKind::DelayTask { key: k, micros: 30_000 }).collect(),
        );
        let slow = FaultyJob::new(WordCount, slow_plan, ordinal_of::<150, THREADS>);
        client.submit(Arc::new(slow), Arc::clone(&input)).unwrap().on_complete(hook("slow"));
        let queued = client.submit(Arc::new(healthy()), Arc::clone(&input)).unwrap();
        queued.on_complete(hook("queued"));
        while sched.queue_depth() > 1 {
            thread::yield_now(); // until the dispatcher has claimed the slow job
        }
        drop(sched);
        let mut rest: Vec<_> = rx.iter().take(2).collect();
        rest.sort_by_key(|(label, ..)| *label);
        assert_eq!(rest.iter().map(|(label, ..)| *label).collect::<Vec<_>>(), ["queued", "slow"]);
        // A job the dispatcher ran is fulfilled there; one the drop shed,
        // on the dropping thread.
        let ran: Vec<bool> = rest
            .iter()
            .map(|(label, on, outcome)| match outcome {
                Ok(pairs) => {
                    assert_eq!((on.as_deref(), pairs), (Some("ramr-sched"), &reference(&input)));
                    true
                }
                Err(e) => {
                    assert_eq!(e, "scheduler shut down before the job ran", "{label}");
                    assert_eq!(on, &thread::current().name().map(str::to_string), "{label}");
                    false
                }
            })
            .collect();
        assert!(ran[1], "the dispatcher had claimed the slow job, so it ran");
        assert!(rx.try_recv().is_err(), "a hook ran twice");
    });
}
