//! Fresh-engine suite: `Engine::submit` is a session opened for one epoch
//! and dropped, so one engine value must serve any job type, survive a
//! failing job, reject a bad configuration before any submit, and leave no
//! pool thread behind.
//!
//! This binary scans its own process for pool threads by name, so only
//! `one_engine_...` may spawn them: keep session- or engine-submitting
//! tests in the other suites.

use std::time::{Duration, Instant};

use mr_apps::inputs::{hg_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, WordCount};
use mr_core::{ContainerKind, RuntimeConfig, RuntimeError};
use ramr::{Backend, Engine};
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};

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

    let expected_words = Backend::Phoenix.engine(config()).unwrap().submit(&WordCount, &lines);
    let expected_words = expected_words.unwrap().output.pairs;
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
