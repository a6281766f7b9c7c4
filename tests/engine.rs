//! Fresh-engine suite: `Engine::submit` is a session opened for one epoch
//! and dropped, so one engine value must serve any job type, survive a
//! failing job, reject a bad configuration before any submit, and leave no
//! pool thread behind.
//!
//! This binary scans its own process for pool threads by name, so every
//! test that spawns them holds [`POOLS`] while it does: the scan must see
//! its own pools only.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mr_apps::inputs::{hg_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, WordCount};
use mr_core::{task_ranges_for, ContainerKind, Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr::{Backend, Engine};
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};
use ramr_telemetry::ThreadRole;

/// Held by each test while it has pool threads alive.
static POOLS: Mutex<()> = Mutex::new(());

fn pools() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one still runs alone.
    POOLS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(64)
        .queue_capacity(256)
        .batch_size(32)
        .container(ContainerKind::Hash) // serves keyed and key-space jobs alike
        .build()
        .expect("valid test config")
}

/// The oracle: every task mapped in order into a `BTreeMap`, each emission
/// folded with `combine`, then `reduce` applied once per key.
fn sequential_fold<J: MapReduceJob>(job: &J, input: &[J::Input]) -> Vec<(J::Key, J::Value)> {
    let mut folded = BTreeMap::new();
    for task in task_ranges_for(input.len(), config().task_size, 1) {
        let mut sink = |key, value| match folded.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(mut slot) => job.combine(slot.get_mut(), value),
        };
        job.map(&input[task.start..task.end], &mut Emitter::new(&mut sink));
    }
    folded
        .into_iter()
        .map(|(key, value)| {
            let value = job.reduce(&key, value);
            (key, value)
        })
        .collect()
}

/// Live threads of this process named like a session's pool threads
/// (`ramr-mapper-N`, `ramr-combiner-N`), or `None` where `/proc` is not
/// available.
fn pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("ramr-"))
            .count(),
    )
}

/// `pool_threads`, polled until it reads `want` (or five seconds pass): a
/// new thread names itself a moment after `spawn` returns, and a joined one
/// can linger in `/proc` a moment after `join` does.
fn pool_threads_settling_to(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match pool_threads() {
            Some(n) if n != want && Instant::now() < deadline => std::thread::yield_now(),
            settled => return settled,
        }
    }
}

#[test]
fn one_engine_serves_different_job_types_and_survives_a_failing_job() {
    let _pools = pools();
    let lines = wc_input(
        &InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small),
        20_000,
    );
    let pixels = hg_input(
        &InputSpec::table1(AppKind::Histogram, Platform::Haswell, InputFlavor::Small),
        20_000,
    );
    // Positive control: the scan does see a live session's pools. A session
    // pools every role but mapper 0, which the submitting thread runs.
    let held = Backend::RamrStatic.session::<WordCount>(config()).unwrap();
    if let Some(seen) = pool_threads_settling_to(4 + 2 - 1) {
        assert_eq!(seen, 4 + 2 - 1, "a held session's pool threads are visible");
    }
    drop(held);
    if let Some(left) = pool_threads_settling_to(0) {
        assert_eq!(left, 0, "a dropped session joined its pool threads");
    }

    let expected_words = sequential_fold(&WordCount, &lines);
    for backend in Backend::ALL {
        let engine = backend.engine(config()).unwrap();

        let words = engine.submit(&WordCount, &lines).unwrap();
        assert_eq!(words.output.pairs, expected_words, "{backend}");

        // Every task fingerprints to 0 and panics: the job fails, the
        // engine must not.
        let always = vec![FaultKind::PanicOnTask { key: 0, fail_attempts: u32::MAX }];
        let faulty = FaultyJob::new(WordCount, FaultPlan::with_faults(always), |_| 0);
        let err = engine.submit(&faulty, &lines).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(_)), "{backend}: got {err}");

        // A job with different key and value types on the same engine.
        let bins = engine.submit(&Histogram, &pixels).unwrap();
        let red: u64 = bins.output.iter().filter(|(k, _)| *k < 256).map(|(_, v)| v).sum();
        assert_eq!(red, pixels.len() as u64, "{backend}: every pixel lands in one red bin");

        if let Some(left) = pool_threads_settling_to(0) {
            assert_eq!(left, 0, "{backend}: a per-submit session leaked pool threads");
        }
    }
}

#[test]
fn a_bad_config_fails_at_engine_construction_on_every_backend() {
    let mut bad = config();
    bad.batch_size = bad.queue_capacity + 1;
    for backend in Backend::ALL {
        let err = backend.engine(bad.clone()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("batch_size")),
            "{backend}: got {err}"
        );
    }
}

#[test]
fn every_route_is_accounted_for_on_both_backends_and_every_container() {
    // Small queues and blocks, and more tasks than mappers, so that pairs
    // can take any route: queued, mapped in place by a combiner, or
    // spilled by a mapper whose combiner was behind.
    let _pools = pools();
    let pixels = hg_input(
        &InputSpec::table1(AppKind::Histogram, Platform::Haswell, InputFlavor::Small),
        20_000,
    );
    for backend in Backend::ALL {
        for container in ContainerKind::ALL {
            let mut cfg = config();
            cfg.container = container;
            cfg.queue_capacity = 16;
            cfg.batch_size = 8;
            // Helper rows are indexed after the mapper pool.
            let workers = cfg.num_workers;
            let mut session = backend.session::<Histogram>(cfg).unwrap();
            for epoch in 0..3 {
                let case = format!("{backend}, {container}, epoch {epoch}");
                let (out, report) = session.submit(&Histogram, &pixels).unwrap().into_parts();
                assert_eq!(out.stats.emitted, 3 * pixels.len() as u64, "{case}");
                assert_eq!(report.consumed, out.stats.emitted, "{case}: {report:?}");
                assert!(report.helped + report.spilled <= report.consumed, "{case}: {report:?}");
                assert_eq!(
                    report.spilled,
                    report.spilled_per_mapper.iter().sum::<u64>(),
                    "{case}: {report:?}"
                );
                let helper_rows = report
                    .threads
                    .iter()
                    .filter(|t| t.role == ThreadRole::Mapper && t.index >= workers);
                assert_eq!(
                    report.helped,
                    helper_rows.map(|t| t.items).sum::<u64>(),
                    "{case}: {report:?}"
                );
                if backend == Backend::Phoenix {
                    assert_eq!((report.helped, report.spilled), (0, 0), "{case}: {report:?}");
                }
            }
        }
    }
}
