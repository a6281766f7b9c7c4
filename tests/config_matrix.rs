//! Configuration-matrix tests: RAMR must produce identical results across
//! the full tuning surface (pool sizes, ratio, batch, queue capacity, task
//! size, container kind, pinning policy, backoff).

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, WordCount};
use mr_core::{ContainerKind, PinningPolicyKind, PushBackoff, RuntimeConfig};
use ramr::{Backend, Engine};

fn input() -> Vec<String> {
    let spec = InputSpec::table1(AppKind::WordCount, Platform::XeonPhi, InputFlavor::Small);
    wc_input(&spec, 40_000)
}

fn reference(lines: &[String]) -> Vec<(ramr_containers::CompactKey, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for line in lines {
        for w in line.split_ascii_whitespace() {
            *counts.entry(ramr_containers::CompactKey::ascii_lowercase(w)).or_insert(0u64) += 1;
        }
    }
    counts.into_iter().collect()
}

#[test]
fn pool_size_and_ratio_matrix() {
    let lines = input();
    let expected = reference(&lines);
    for (workers, combiners) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (6, 3), (8, 2)] {
        let cfg = RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(combiners)
            .task_size(50)
            .queue_capacity(128)
            .batch_size(16)
            .container(ContainerKind::Hash)
            .build()
            .unwrap();
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "workers={workers} combiners={combiners}");
    }
}

#[test]
fn batch_and_queue_capacity_matrix() {
    let lines = input();
    let expected = reference(&lines);
    for (capacity, batch) in [(1, 1), (2, 1), (8, 8), (64, 5), (128, 128), (5000, 1000)] {
        let cfg = RuntimeConfig::builder()
            .num_workers(3)
            .num_combiners(2)
            .task_size(64)
            .queue_capacity(capacity)
            .batch_size(batch)
            .container(ContainerKind::Hash)
            .build()
            .unwrap();
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "capacity={capacity} batch={batch}");
    }
}

#[test]
fn task_size_matrix() {
    let lines = input();
    let expected = reference(&lines);
    for task_size in [1usize, 7, 100, 10_000, usize::MAX / 2] {
        let cfg = RuntimeConfig::builder()
            .num_workers(4)
            .num_combiners(2)
            .task_size(task_size)
            .queue_capacity(64)
            .batch_size(8)
            .container(ContainerKind::Hash)
            .build()
            .unwrap();
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "task_size={task_size}");
    }
}

#[test]
fn emit_buffer_matrix() {
    let lines = input();
    let expected = reference(&lines);
    // (queue_capacity, batch_size): the emit block is the batch, so this
    // covers element-wise, the degenerate block == capacity case, and a
    // block that does not divide the capacity.
    for (capacity, batch) in [(128, 1), (128, 2), (128, 16), (4, 4), (64, 48)] {
        let cfg = RuntimeConfig::builder()
            .num_workers(3)
            .num_combiners(2)
            .task_size(64)
            .queue_capacity(capacity)
            .batch_size(batch)
            .container(ContainerKind::Hash)
            .build()
            .unwrap();
        assert_eq!(cfg.effective_emit_buffer(), batch);
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "capacity={capacity} batch={batch}");
    }
}

#[test]
fn pinning_policies_do_not_change_results() {
    let lines = input();
    let expected = reference(&lines);
    for pinning in PinningPolicyKind::ALL {
        // Note: pin_os_threads stays false (the default) so this runs
        // identically on any CI machine; the plan is still computed.
        let cfg = RuntimeConfig::builder()
            .num_workers(4)
            .num_combiners(2)
            .task_size(64)
            .queue_capacity(128)
            .batch_size(16)
            .container(ContainerKind::Hash)
            .pinning(pinning)
            .build()
            .unwrap();
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "pinning={pinning}");
    }
}

#[test]
fn real_os_pinning_is_best_effort_and_correct() {
    // With pin_os_threads enabled the runtime must still work on machines
    // with fewer CPUs than the plan assumes (pinning failures are ignored).
    let lines = input();
    let expected = reference(&lines);
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(64)
        .queue_capacity(128)
        .batch_size(16)
        .container(ContainerKind::Hash)
        .pin_os_threads(true)
        .build()
        .unwrap();
    let out = Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
    assert_eq!(out.pairs, expected);
}

#[test]
fn backoff_policies_do_not_change_results() {
    let lines = input();
    let expected = reference(&lines);
    for backoff in [
        PushBackoff { spins: 0, sleep: std::time::Duration::from_micros(1) },
        PushBackoff::default(),
    ] {
        let cfg = RuntimeConfig::builder()
            .num_workers(4)
            .num_combiners(1)
            .task_size(64)
            .queue_capacity(4)
            .batch_size(4)
            .container(ContainerKind::Hash)
            .push_backoff(backoff)
            .build()
            .unwrap();
        let out =
            Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
        assert_eq!(out.pairs, expected, "backoff={backoff:?}");
    }
}

#[test]
fn env_var_tuning_reaches_the_runtime() {
    // The paper tunes via environment variables; the config surface must
    // honour them end to end.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("RAMR_WORKERS", "3");
    std::env::set_var("RAMR_COMBINERS", "2");
    std::env::set_var("RAMR_BATCH_SIZE", "25");
    std::env::set_var("RAMR_CONTAINER", "hash");
    let cfg = RuntimeConfig::from_env().unwrap();
    std::env::remove_var("RAMR_WORKERS");
    std::env::remove_var("RAMR_COMBINERS");
    std::env::remove_var("RAMR_BATCH_SIZE");
    std::env::remove_var("RAMR_CONTAINER");
    assert_eq!((cfg.num_workers, cfg.num_combiners, cfg.batch_size), (3, 2, 25));
    let lines = input();
    let out = Backend::RamrStatic.engine(cfg).unwrap().submit(&WordCount, &lines).unwrap().output;
    assert_eq!(out.pairs, reference(&lines));
}
