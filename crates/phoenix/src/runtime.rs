//! The baseline runtime: inline map+combine per worker.

use std::time::Instant;

use mr_core::{
    task_ranges, Emitter, JobOutput, MapReduceJob, PhaseKind, PhaseStats, PhaseTimer,
    PinningPolicyKind, RuntimeConfig, RuntimeError,
};
use ramr_containers::JobContainer;
use ramr_telemetry::{
    FaultLog, FaultMetrics, LocalTelemetry, TelemetryCell, ThreadRole, ThreadTelemetry,
};
use ramr_topology::{pin_current_thread, thrid_to_cpu, MachineModel};

use crate::phases;

/// A job's output paired with the run's [`PhoenixReport`] — mirrors the
/// RAMR runtime's reported-output alias.
pub type ReportedOutput<J> =
    (JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>, PhoenixReport);

/// Per-run observability for the baseline: one [`ThreadTelemetry`] per
/// worker. Workers map and combine inline on the same thread, so all their
/// time is `busy` — there is no queue to stall on, which is exactly the
/// structural contrast with the RAMR report.
#[derive(Debug, Clone)]
pub struct PhoenixReport {
    /// One entry per worker ([`ThreadRole::Worker`]), indexed by worker id.
    /// `items` counts map emissions; the occupancy histogram records how
    /// full each claimed task was relative to `task_size`.
    pub worker_telemetry: Vec<ThreadTelemetry>,
    /// Fault-tolerance accounting for the run: task retries performed and
    /// poison tasks skipped (see [`mr_core::RuntimeConfig::max_task_retries`]
    /// and [`mr_core::RuntimeConfig::skip_poison_tasks`]). All-zero when
    /// fault tolerance is off or nothing failed.
    pub faults: FaultMetrics,
}

impl PhoenixReport {
    /// Aggregate map+combine throughput (pairs/sec over busy time), or
    /// `None` when telemetry was disabled or nothing was emitted.
    pub fn worker_throughput(&self) -> Option<f64> {
        ramr_telemetry::pool_throughput(&self.worker_telemetry)
    }
}

/// The Phoenix++-style runtime: `num_workers` threads, each mapping tasks
/// and combining every emission into its own thread-local container, then
/// the shared reduce + merge phases.
///
/// Accepts the full [`RuntimeConfig`] so configurations swap between
/// runtimes unchanged; the pipeline-only knobs (`queue_capacity`,
/// `batch_size`, `emit_buffer_size`, `push_backoff`, `num_combiners`) are
/// validated but have no effect here — there are no mapper→combiner queues
/// to tune.
///
/// **Soft-deprecated as a direct entry point**: new code should dispatch
/// through `ramr::Backend::Phoenix.engine(cfg)` so the same call sites
/// cover every backend; this type remains as the per-run shim behind it
/// (see DESIGN.md §6e for the migration table).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct PhoenixRuntime {
    config: RuntimeConfig,
}

impl PhoenixRuntime {
    /// Creates a runtime with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent knob
    /// settings (see [`RuntimeConfig::validate`]).
    pub fn new(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Executes `job` over `input`, returning the key-sorted reduced output.
    ///
    /// # Errors
    ///
    /// Propagates container overflows ([`RuntimeError::ContainerOverflow`],
    /// [`RuntimeError::UnsupportedContainer`]) and surfaces worker panics as
    /// [`RuntimeError::WorkerPanic`].
    pub fn run<J: MapReduceJob>(
        &self,
        job: &J,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        self.run_with_report(job, input).map(|(out, _)| out)
    }

    /// Like [`PhoenixRuntime::run`], but also returns the per-worker
    /// [`PhoenixReport`]. Timing fields are populated only when
    /// [`RuntimeConfig::telemetry`] is on; counters are always exact.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PhoenixRuntime::run`].
    pub fn run_with_report<J: MapReduceJob>(
        &self,
        job: &J,
        input: &[J::Input],
    ) -> Result<ReportedOutput<J>, RuntimeError> {
        let config = &self.config;
        let mut stats = PhaseStats::default();

        // --- Input partition phase -------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Partition);
        let tasks = task_ranges(input.len(), config.task_size);
        timer.stop(&mut stats);
        stats.tasks = tasks.len() as u64;

        // --- Map-combine phase (serialized per worker) ------------------
        // Tasks are spread over per-locality-group queues (paper SIII: "the
        // map tasks are added in the task queues - one for each locality
        // group"); workers drain their home group first and steal after.
        let timer = PhaseTimer::start(PhaseKind::MapCombine);
        let groups = MachineModel::host().sockets.max(1);
        let queues = crate::tasks::TaskQueues::new(tasks, groups);
        let pin_seq = pin_sequence(config);
        let faults = FaultLog::new();
        let cells: Vec<TelemetryCell> =
            (0..config.num_workers).map(|_| TelemetryCell::default()).collect();
        let worker_results: Vec<Result<(phases::Pairs<J>, u64), RuntimeError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..config.num_workers)
                    .map(|worker_id| {
                        let queues = &queues;
                        let pin_seq = &pin_seq;
                        let cell = &cells[worker_id];
                        let faults = &faults;
                        scope.spawn(move || {
                            if let Some(seq) = pin_seq {
                                // Best-effort: a missing CPU is not fatal.
                                let _ = pin_current_thread(seq[worker_id % seq.len()]);
                            }
                            map_combine_worker(
                                job,
                                config,
                                input,
                                queues,
                                worker_id % groups,
                                cell,
                                faults,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|panic| {
                            Err(RuntimeError::WorkerPanic(phases::panic_message(&*panic)))
                        })
                    })
                    .collect()
            });
        let worker_telemetry: Vec<ThreadTelemetry> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| cell.snapshot(ThreadRole::Worker, i))
            .collect();
        let mut partials = Vec::with_capacity(worker_results.len());
        let mut first_error: Option<RuntimeError> = None;
        let mut suppressed = 0u64;
        for result in worker_results {
            match result {
                Ok((pairs, emitted)) => {
                    stats.emitted += emitted;
                    partials.push(pairs);
                }
                // First-error containment: one error surfaces, the rest are
                // counted and noted on it instead of vanishing.
                Err(e) if first_error.is_none() => first_error = Some(e),
                Err(_) => suppressed += 1,
            }
        }
        if let Some(e) = first_error {
            return Err(e.noting_suppressed(suppressed));
        }
        timer.stop(&mut stats);

        // --- Reduce phase ------------------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Reduce);
        let buckets = phases::bucket_by_key::<J>(partials, config.num_reducers);
        let runs = phases::reduce_parallel(job, buckets, phases::reduce_bucket)?;
        timer.stop(&mut stats);

        // --- Merge phase ---------------------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Merge);
        let merged = phases::merge_sorted_runs(runs);
        timer.stop(&mut stats);

        stats.output_keys = merged.len() as u64;
        let report = PhoenixReport { worker_telemetry, faults: faults.snapshot(0, false) };
        Ok((JobOutput::from_sorted(merged, stats), report))
    }
}

/// Computes the CPU id sequence workers pin to, or `None` when pinning is
/// disabled (by config or policy).
fn pin_sequence(config: &RuntimeConfig) -> Option<Vec<usize>> {
    if !config.pin_os_threads {
        return None;
    }
    let host = MachineModel::host();
    match config.pinning {
        PinningPolicyKind::OsDefault => None,
        PinningPolicyKind::RoundRobin => Some((0..host.logical_cpus()).collect()),
        PinningPolicyKind::Ramr => {
            Some(thrid_to_cpu(host.sockets, host.cores_per_socket, host.smt))
        }
    }
}

/// One worker's map-combine loop: pull tasks from the locality-grouped
/// queues, map, combine inline.
///
/// With fault tolerance enabled (the job is retry-safe and retries or
/// poison-skipping are configured) each task runs through
/// [`phases::map_task_staged`]: emissions are staged per task and only
/// combined into the container after the map call succeeds, so panicked
/// attempts contribute nothing. Container insert errors are *not* retried
/// in either mode — by the time an insert fails the container has already
/// absorbed part of the task, so re-execution would double-count; this
/// mirrors the RAMR runtime, where inserts happen downstream of the
/// pipeline and task identity is gone.
///
/// Publishes its [`LocalTelemetry`] into `cell` exactly once on exit (even
/// on the error path): all task time counts as `busy` — the inline design
/// has nothing to stall on — and the occupancy histogram records task fill
/// relative to `task_size`.
fn map_combine_worker<J: MapReduceJob>(
    job: &J,
    config: &RuntimeConfig,
    input: &[J::Input],
    queues: &crate::tasks::TaskQueues,
    home_group: usize,
    cell: &TelemetryCell,
    faults: &FaultLog,
) -> Result<(phases::Pairs<J>, u64), RuntimeError> {
    let telemetry = config.telemetry;
    let fault_tolerant =
        job.is_retry_safe() && (config.max_task_retries > 0 || config.skip_poison_tasks);
    let mut local = LocalTelemetry::default();
    let wall_start = telemetry.then(Instant::now);
    let result = (|| {
        let mut container = JobContainer::for_job(job, config.container, config.fixed_capacity)?;
        let mut emitted = 0u64;
        while let Some(task) = queues.claim(home_group) {
            let task_start = telemetry.then(Instant::now);
            // Phoenix++ semantics: the combine function runs after every
            // map emission, on the mapping thread, into its local
            // container — which picks its kind once per task, not per pair.
            let folded = container.insert_from(|sink| {
                if fault_tolerant {
                    let staged = phases::map_task_staged(
                        job,
                        task,
                        input,
                        config.max_task_retries,
                        config.skip_poison_tasks,
                        None,
                        faults,
                    );
                    if let Some((pairs, count)) = staged {
                        for (key, value) in pairs {
                            sink(key, value);
                        }
                        emitted += count;
                    }
                } else {
                    let mut emitter = Emitter::new(sink);
                    job.map(&input[task.start..task.end], &mut emitter);
                    emitted += emitter.emitted();
                }
            });
            if let Some(t) = task_start {
                local.busy += t.elapsed();
            }
            local.batches += 1;
            local.occupancy.record(task.end - task.start, config.task_size);
            if let Err(e) = folded {
                local.items = emitted;
                return Err(e);
            }
        }
        local.items = emitted;
        Ok((container.into_pairs(), emitted))
    })();
    if let Some(t) = wall_start {
        local.wall = t.elapsed();
    }
    cell.publish(&local);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::ContainerKind;

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
    fn matches_sequential_reference_all_containers() {
        let input: Vec<u64> = (1..=10_000).collect();
        for kind in ContainerKind::ALL {
            let rt = PhoenixRuntime::new(config(4, kind)).unwrap();
            let out = rt.run(&Mod7, &input).unwrap();
            assert_eq!(out.pairs, reference(&input), "container {kind}");
        }
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let rt = PhoenixRuntime::new(config(2, ContainerKind::Array)).unwrap();
        let out = rt.run(&Mod7, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.tasks, 0);
    }

    #[test]
    fn single_worker_equals_many_workers() {
        let input: Vec<u64> = (0..5000).map(|i| i * 37 % 1013).collect();
        let one = PhoenixRuntime::new(config(1, ContainerKind::Hash)).unwrap();
        let many = PhoenixRuntime::new(config(8, ContainerKind::Hash)).unwrap();
        assert_eq!(one.run(&Mod7, &input).unwrap().pairs, many.run(&Mod7, &input).unwrap().pairs);
    }

    #[test]
    fn stats_count_tasks_and_emissions() {
        let input: Vec<u64> = (0..100).collect();
        let rt = PhoenixRuntime::new(config(2, ContainerKind::Array)).unwrap();
        let out = rt.run(&Mod7, &input).unwrap();
        assert_eq!(out.stats.tasks, 100u64.div_ceil(13));
        assert_eq!(out.stats.emitted, 100);
        assert_eq!(out.stats.output_keys, 7);
        assert!(out.stats.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn worker_panic_is_reported() {
        struct Panics;
        impl MapReduceJob for Panics {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {
                panic!("map exploded");
            }
            fn combine(&self, _: &mut u64, _: u64) {}
        }
        let rt = PhoenixRuntime::new(config(2, ContainerKind::Hash)).unwrap();
        let err = rt.run(&Panics, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("map exploded")));
    }

    #[test]
    fn fixed_hash_overflow_surfaces() {
        let cfg = RuntimeConfig::builder()
            .num_workers(2)
            .num_combiners(2)
            .container(ContainerKind::FixedHash)
            .fixed_capacity(3)
            .build()
            .unwrap();
        let rt = PhoenixRuntime::new(cfg).unwrap();
        let input: Vec<u64> = (0..100).collect(); // 7 distinct keys > capacity 3
        let err = rt.run(&Mod7, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 3, .. }));
    }

    #[test]
    fn report_accounts_emissions_and_wall_clock() {
        let input: Vec<u64> = (1..=10_000).collect();
        let rt = PhoenixRuntime::new(config(4, ContainerKind::Hash)).unwrap();
        let (out, report) = rt.run_with_report(&Mod7, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        assert_eq!(report.worker_telemetry.len(), 4);
        let items: u64 = report.worker_telemetry.iter().map(|t| t.items).sum();
        let tasks: u64 = report.worker_telemetry.iter().map(|t| t.batches).sum();
        assert_eq!(items, 10_000);
        assert_eq!(tasks, 10_000u64.div_ceil(13));
        for t in &report.worker_telemetry {
            assert_eq!(t.role, ThreadRole::Worker);
            // Inline map+combine never stalls; busy stays within wall.
            assert_eq!(t.stalled, std::time::Duration::ZERO);
            assert!(t.busy <= t.wall + std::time::Duration::from_millis(1));
            assert_eq!(t.occupancy.total(), t.batches);
        }
        assert!(report.worker_throughput().unwrap() > 0.0);
    }

    #[test]
    fn telemetry_toggle_zeroes_timing_but_keeps_counters() {
        let input: Vec<u64> = (1..=2_000).collect();
        let mut cfg = config(2, ContainerKind::Hash);
        cfg.telemetry = false;
        let (_, report) = PhoenixRuntime::new(cfg).unwrap().run_with_report(&Mod7, &input).unwrap();
        let items: u64 = report.worker_telemetry.iter().map(|t| t.items).sum();
        assert_eq!(items, 2_000);
        for t in &report.worker_telemetry {
            assert_eq!(t.busy, std::time::Duration::ZERO);
            assert_eq!(t.wall, std::time::Duration::ZERO);
        }
        assert_eq!(report.worker_throughput(), None);
    }

    /// Mod7 with one poison task: the task containing `poison` panics on
    /// its first `fail_attempts` executions — *after* emitting, so a broken
    /// retry path would double-count. Keyed by task content, which makes
    /// the fault deterministic regardless of which worker claims the task.
    struct FlakyMod7 {
        poison: u64,
        fail_attempts: u32,
        attempts: std::sync::atomic::AtomicU32,
        retry_safe: bool,
    }

    impl FlakyMod7 {
        fn new(poison: u64, fail_attempts: u32) -> Self {
            Self {
                poison,
                fail_attempts,
                attempts: std::sync::atomic::AtomicU32::new(0),
                retry_safe: true,
            }
        }
    }

    impl MapReduceJob for FlakyMod7 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 7, x);
            }
            if task.contains(&self.poison) {
                let attempt = 1 + self.attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if attempt <= self.fail_attempts {
                    panic!("poison task hit {poison}", poison = self.poison);
                }
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

        fn is_retry_safe(&self) -> bool {
            self.retry_safe
        }
    }

    #[test]
    fn retries_recover_transient_poison_task_with_exact_output() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = config(2, ContainerKind::Hash);
        cfg.max_task_retries = 2;
        let rt = PhoenixRuntime::new(cfg).unwrap();
        let (out, report) = rt.run_with_report(&FlakyMod7::new(20, 2), &input).unwrap();
        assert_eq!(out.pairs, reference(&input), "retried emissions must count exactly once");
        assert_eq!(report.faults.retries, 2);
        assert!(report.faults.skipped.is_empty());
    }

    #[test]
    fn exhausted_retries_without_skip_fail_fast() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = config(2, ContainerKind::Hash);
        cfg.max_task_retries = 1;
        let rt = PhoenixRuntime::new(cfg).unwrap();
        let err = rt.run(&FlakyMod7::new(20, u32::MAX), &input).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("poison task")));
    }

    #[test]
    fn skip_poison_tasks_completes_and_records_the_skip() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = config(2, ContainerKind::Hash);
        cfg.max_task_retries = 1;
        cfg.skip_poison_tasks = true;
        let rt = PhoenixRuntime::new(cfg).unwrap();
        let (out, report) = rt.run_with_report(&FlakyMod7::new(20, u32::MAX), &input).unwrap();
        // Element 20 sits at index 19, i.e. in task [13, 26) at task_size
        // 13 — exactly that slice's contribution is missing.
        let surviving: Vec<u64> = input
            .iter()
            .enumerate()
            .filter(|(i, _)| !(13..26).contains(i))
            .map(|(_, &x)| x)
            .collect();
        assert_eq!(out.pairs, reference(&surviving));
        assert_eq!(report.faults.skipped.len(), 1);
        let skip = &report.faults.skipped[0];
        assert_eq!((skip.start, skip.end), (13, 26));
        assert_eq!(skip.attempts, 2, "initial attempt + one retry");
        assert!(skip.message.contains("poison task hit 20"), "{}", skip.message);
        assert!(report.faults.summary().unwrap().contains("poison task"));
    }

    #[test]
    fn non_retry_safe_jobs_keep_fail_fast_even_with_retries_configured() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = config(2, ContainerKind::Hash);
        cfg.max_task_retries = 3;
        cfg.skip_poison_tasks = true;
        let mut job = FlakyMod7::new(20, u32::MAX);
        job.retry_safe = false;
        let err = PhoenixRuntime::new(cfg).unwrap().run(&job, &input).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(_)),
            "retries must never re-execute a job that does not opt in"
        );
    }

    #[test]
    fn reduce_hook_is_applied_once_per_key() {
        struct Doubler;
        impl MapReduceJob for Doubler {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
                for &x in task {
                    emit.emit(x % 3, 1);
                }
            }
            fn combine(&self, acc: &mut u64, v: u64) {
                *acc += v;
            }
            fn reduce(&self, _: &u64, combined: u64) -> u64 {
                combined * 2
            }
        }
        let rt = PhoenixRuntime::new(config(3, ContainerKind::Hash)).unwrap();
        let out = rt.run(&Doubler, &(0..9u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(out.pairs, vec![(0, 6), (1, 6), (2, 6)]);
    }
}
