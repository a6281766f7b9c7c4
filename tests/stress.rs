//! Stress tests: degenerate queue sizes, oversubscription, heavy emission
//! fan-out, and sustained pressure through tiny pipelines.

use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, MapReduceJob, PushBackoff, RuntimeConfig};
use ramr::{Backend, Engine};

/// Emits FAN pairs per element to stress the queues.
struct FanOut;

const FAN: u64 = 32;

impl MapReduceJob for FanOut {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        for &x in task {
            for i in 0..FAN {
                emit.emit(((x + i) % 1024) as u32, x + i);
            }
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc = acc.wrapping_add(v);
    }

    fn key_space(&self) -> Option<usize> {
        Some(1024)
    }

    fn key_index(&self, k: &u32) -> usize {
        *k as usize
    }
}

fn reference(input: &[u64]) -> Vec<(u32, u64)> {
    let mut sums = std::collections::BTreeMap::new();
    for &x in input {
        for i in 0..FAN {
            let k = ((x + i) % 1024) as u32;
            let e = sums.entry(k).or_insert(0u64);
            *e = e.wrapping_add(x + i);
        }
    }
    sums.into_iter().collect()
}

#[test]
fn single_slot_queues_do_not_deadlock() {
    let input: Vec<u64> = (0..20_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(64)
        .queue_capacity(1)
        .batch_size(1)
        .build()
        .unwrap();
    let outcome = Backend::RamrStatic.engine(cfg).unwrap().submit(&FanOut, &input).unwrap();
    assert_eq!(outcome.output.pairs, reference(&input));
    assert!(outcome.report.spilled > 0, "1-slot queues must leave mappers pairs to fold");
}

#[test]
fn oversubscribed_pools_terminate() {
    // Far more threads than this machine has cores.
    let input: Vec<u64> = (0..50_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(16)
        .num_combiners(16)
        .task_size(128)
        .queue_capacity(64)
        .batch_size(16)
        .build()
        .unwrap();
    let out = Backend::RamrStatic.engine(cfg).unwrap().submit(&FanOut, &input).unwrap().output;
    assert_eq!(out.pairs, reference(&input));
}

#[test]
fn sustained_pressure_with_heavy_fanout() {
    let input: Vec<u64> = (0..100_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(6)
        .num_combiners(2)
        .task_size(1000)
        .queue_capacity(100)
        .batch_size(50)
        .build()
        .unwrap();
    let out = Backend::RamrStatic.engine(cfg).unwrap().submit(&FanOut, &input).unwrap().output;
    assert_eq!(out.stats.emitted, input.len() as u64 * FAN);
    assert_eq!(out.pairs, reference(&input));
}

#[test]
fn repeated_invocations_are_stable() {
    // The runtime is reusable: many invocations on one instance.
    let input: Vec<u64> = (0..5_000).collect();
    let expected = reference(&input);
    let cfg = RuntimeConfig::builder()
        .num_workers(3)
        .num_combiners(3)
        .task_size(77)
        .queue_capacity(32)
        .batch_size(8)
        .build()
        .unwrap();
    let engine = Backend::RamrStatic.engine(cfg).unwrap();
    for round in 0..20 {
        let out = engine.submit(&FanOut, &input).unwrap().output;
        assert_eq!(out.pairs, expected, "round {round}");
    }
}

/// A static combiner with nothing to read claims map tasks, so an epoch can
/// end with the combiner still inside one while its mapper closes the queue
/// — or with one task and nothing to claim at all. Either way every pair
/// must be in a container when the epoch returns, 400 times over on the same
/// pools.
#[test]
fn rapid_epochs_lose_no_pair_to_a_helping_combiner() {
    let cfg = RuntimeConfig::builder()
        .num_workers(2)
        .num_combiners(1)
        .task_size(50)
        .queue_capacity(64)
        .batch_size(16)
        .build()
        .unwrap();
    let mut session = Backend::RamrStatic.session(cfg).unwrap();
    let one_task: Vec<u64> = (0..50).collect();
    let many_tasks: Vec<u64> = (0..2_000).collect();
    let mut helped = 0u64;
    for input in [&one_task, &many_tasks] {
        let expected = reference(input);
        for epoch in 0..200 {
            let (out, report) = session.submit(&FanOut, input).unwrap().into_parts();
            assert_eq!(out.pairs, expected, "{} elements, epoch {epoch}", input.len());
            assert_eq!(
                folded(&report),
                out.stats.emitted,
                "{} elements, epoch {epoch}",
                input.len()
            );
            helped += report.helped;
        }
    }
    assert!(helped > 0, "400 epochs and the combiner never claimed a task");
}

/// Pairs folded into any container: read from a queue, mapped in place by a
/// combiner, or spilled by a mapper whose combiner was behind.
fn folded(report: &ramr::EngineReport) -> u64 {
    let combiners =
        report.threads.iter().filter(|t| t.role == ramr_telemetry::ThreadRole::Combiner);
    combiners.map(|t| t.items).sum::<u64>() + report.helped + report.spilled
}

/// [`FanOut`] whose combine spins for a while on every thread but the one
/// that submitted, when `slow` — a combiner that cannot keep up, so the
/// mappers find it behind and fold blocks themselves.
struct SlowCombine {
    submitter: std::thread::ThreadId,
    slow: bool,
}

impl MapReduceJob for SlowCombine {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        FanOut.map(task, emit);
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if self.slow && std::thread::current().id() != self.submitter {
            let mut spin = v;
            for _ in 0..200 {
                spin = std::hint::black_box(spin.rotate_left(7) ^ 0xabcd_ef01);
            }
        }
        FanOut.combine(acc, v);
    }

    fn key_space(&self) -> Option<usize> {
        FanOut.key_space()
    }

    fn key_index(&self, k: &u32) -> usize {
        FanOut.key_index(k)
    }
}

/// Work-conserving mappers across rapid epochs on one 2 + 1 session: epochs
/// whose combiner is slow spill, epochs too small to ever find it behind
/// cannot, and whichever ran before, every epoch is exact and accounts for
/// every pair — a spill container kept from an earlier epoch never leaks into
/// a later one.
#[test]
fn rapid_epochs_exact_whether_or_not_the_mappers_spill() {
    let cfg = RuntimeConfig::builder()
        .num_workers(2)
        .num_combiners(1)
        .task_size(40)
        .queue_capacity(64)
        .batch_size(32)
        .build()
        .unwrap();
    let mut session = Backend::RamrStatic.session(cfg).unwrap();
    let submitter = std::thread::current().id();
    // A mapper spills only a block that would queue behind a full batch of
    // 32, or that the queue has no room for. One element fans out to 32
    // pairs — a single block, flushed into the queue the last epoch drained,
    // so it cannot spill; 1 000 elements through a slow combiner do.
    let small: Vec<u64> = vec![0];
    let large: Vec<u64> = (0..1_000).collect();
    let mut spilled = 0u64;
    for epoch in 0..60 {
        let spilling = epoch % 3 != 2;
        let (job, input) = if spilling {
            (SlowCombine { submitter, slow: true }, &large)
        } else {
            (SlowCombine { submitter, slow: false }, &small)
        };
        let (out, report) = session.submit(&job, input).unwrap().into_parts();
        assert_eq!(out.pairs, reference(input), "epoch {epoch}");
        assert_eq!(folded(&report), out.stats.emitted, "epoch {epoch}");
        let this_epoch: u64 = report.spilled_per_mapper.iter().sum();
        if !spilling {
            assert_eq!(this_epoch, 0, "epoch {epoch}: one block into an empty queue cannot spill");
        }
        spilled += this_epoch;
    }
    assert!(spilled > 0, "40 epochs through a slow combiner and no mapper ever spilled");
}

#[test]
fn both_runtimes_survive_empty_and_tiny_inputs() {
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(1)
        .queue_capacity(2)
        .batch_size(1)
        .build()
        .unwrap();
    for n in [0usize, 1, 2, 3, 7] {
        let input: Vec<u64> = (0..n as u64).collect();
        let r = Backend::RamrStatic
            .engine(cfg.clone())
            .unwrap()
            .submit(&FanOut, &input)
            .unwrap()
            .output;
        let p =
            Backend::Phoenix.engine(cfg.clone()).unwrap().submit(&FanOut, &input).unwrap().output;
        assert_eq!(r.pairs, p.pairs, "n={n}");
        assert_eq!(r.pairs, reference(&input));
    }
}

#[test]
fn combine_panic_does_not_hang_the_pipeline() {
    struct PanickyCombine;
    impl MapReduceJob for PanickyCombine {
        type Input = u64;
        type Key = u32;
        type Value = u64;
        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
            for &x in task {
                emit.emit((x % 8) as u32, x);
            }
        }
        fn combine(&self, acc: &mut u64, v: u64) {
            if *acc > 50 {
                panic!("combine exploded");
            }
            *acc += v;
        }
        fn key_space(&self) -> Option<usize> {
            Some(8)
        }
        fn key_index(&self, k: &u32) -> usize {
            *k as usize
        }
    }
    let input: Vec<u64> = (0..10_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(32)
        .queue_capacity(16)
        .batch_size(4)
        .build()
        .unwrap();
    // Must terminate (no deadlock on full queues) and surface the panic.
    let err = Backend::RamrStatic.engine(cfg).unwrap().submit(&PanickyCombine, &input).unwrap_err();
    assert!(
        matches!(err, mr_core::RuntimeError::WorkerPanic(ref m) if m.contains("combine exploded")),
        "got {err:?}"
    );
}

/// Regression guard for the error path under load: a mapper panic AND a
/// combine panic in the same run, while 2-slot queues are saturated. The run must terminate — a combiner leaves its loop at its
/// first error, the mappers, which never wait on a queue, fold what the
/// dead combiners do not read, and the session drains every queue before
/// the epoch ends — and surface *a* worker panic. Which pool loses the race
/// is scheduling-dependent, so either message is acceptable.
#[test]
fn dual_panic_with_full_two_slot_queues_terminates() {
    struct DualFailure;
    impl MapReduceJob for DualFailure {
        type Input = u64;
        type Key = u32;
        type Value = u64;
        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
            for &x in task {
                if x == 999 {
                    panic!("mapper exploded mid-stream");
                }
                // Fan out to keep the 2-slot queues saturated.
                for i in 0..8 {
                    emit.emit(((x + i) % 16) as u32, x);
                }
            }
        }
        fn combine(&self, acc: &mut u64, v: u64) {
            if v == 77 {
                panic!("combine exploded");
            }
            *acc = acc.wrapping_add(v);
        }
        fn key_space(&self) -> Option<usize> {
            Some(16)
        }
        fn key_index(&self, k: &u32) -> usize {
            *k as usize
        }
    }
    // Both panic triggers (77 and 999) fire early, so most of the input is
    // pumped past combiners that have already failed. With `spins: 0` every
    // idle combiner round parks, so a wake-up lost around a failure hangs
    // the run instead of being spun past.
    let input: Vec<u64> = (0..10_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(16)
        .queue_capacity(2)
        .batch_size(2)
        .push_backoff(PushBackoff { spins: 0, ..PushBackoff::default() })
        .build()
        .unwrap();
    // Run under a hard timeout: a deadlock here would otherwise hang the
    // whole suite, which is exactly the regression this test guards.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&DualFailure, &input).map(|o| o.output);
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("dual-panic run deadlocked: no result within 60s");
    let err = result.unwrap_err();
    assert!(
        matches!(err, mr_core::RuntimeError::WorkerPanic(ref m)
            if m.contains("mapper exploded") || m.contains("combine exploded")),
        "got {err:?}"
    );
}

#[test]
fn hash_container_stress_with_many_keys() {
    struct WideKeys;
    impl MapReduceJob for WideKeys {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x.wrapping_mul(0x9e37_79b9_7f4a_7c15), 1);
            }
        }
        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }
    }
    let input: Vec<u64> = (0..200_000).collect();
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(512)
        .queue_capacity(1000)
        .batch_size(100)
        .container(ContainerKind::Hash)
        .build()
        .unwrap();
    let out = Backend::RamrStatic.engine(cfg).unwrap().submit(&WideKeys, &input).unwrap().output;
    assert_eq!(out.len(), 200_000, "all keys distinct");
    assert!(out.iter().all(|(_, v)| *v == 1));
}

/// A parked combiner resumes when its mapper publishes, not when a timer
/// fires, so the `sleep` of the backoff — the park ceiling — must not set
/// the job time: 256 k pairs through 64-slot queues are thousands of
/// fill/drain cycles, and with `spins: 0` every idle round parks. Were the
/// 20 ms ceiling ever waited out, a single job would take minutes.
#[test]
fn park_ceiling_does_not_set_the_job_time() {
    let input: Vec<u64> = (0..8_000).collect();
    let expected = reference(&input);
    let best_of_three = |workers, combiners, sleep| {
        let cfg = RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(combiners)
            .task_size(256)
            .queue_capacity(64)
            .batch_size(16)
            .push_backoff(PushBackoff { spins: 0, sleep })
            .build()
            .unwrap();
        let engine = Backend::RamrStatic.engine(cfg).unwrap();
        (0..3)
            .map(|_| {
                let started = Instant::now();
                let out = engine.submit(&FanOut, &input).unwrap().output;
                let elapsed = started.elapsed();
                assert_eq!(out.pairs, expected);
                elapsed
            })
            .min()
            .unwrap()
    };
    for (workers, combiners) in [(1, 1), (2, 1)] {
        let short = best_of_three(workers, combiners, Duration::from_micros(50));
        let long = best_of_three(workers, combiners, Duration::from_millis(20));
        assert!(
            long <= short * 3,
            "{workers}:{combiners}: {long:?} with a 20 ms ceiling against {short:?} with 50 µs \
             — something waited for the timer"
        );
    }
}
