//! Persistent job sessions: the mapper/combiner pools spawned once and
//! reused for a stream of jobs.
//!
//! [`RamrRuntime::run`] pays the full setup bill on every call: spawn and
//! pin `num_workers + num_combiners` OS threads, allocate every SPSC queue,
//! tear it all down again. For the ROADMAP's workload-stream regime — many
//! short jobs back to back — that setup dominates. [`RamrSession`] keeps the
//! pools alive instead: workers are spawned (and pinned, via the same
//! `ramr-topology` placement plan) once at construction, park on a condvar
//! between jobs, and the SPSC queues are *reset* (re-armed via
//! [`Producer::finish`]/[`Consumer::reopen`]) rather than reallocated.
//!
//! # Epoch protocol
//!
//! Each [`submit`](RamrSession::submit) is one *epoch*, identified by a
//! monotonically increasing generation counter:
//!
//! 1. The coordinator (the thread calling `submit`) builds a [`JobFrame`] on
//!    its own stack — task queues, per-job telemetry cells, fault log,
//!    error slot — arms the done-counter, and publishes the frame pointer
//!    together with the bumped epoch under the state mutex.
//! 2. Workers wake, run exactly one job's worth of their role loop (the
//!    *same* loop bodies the per-run paths use: [`mapper_loop`],
//!    [`combiner_loop`], [`flex_loop`], [`adaptive_combiner_loop`]), close
//!    their queues with `finish` (not drop), and decrement the done-counter.
//! 3. `submit` returns only after the counter hits zero, so the frame —
//!    and the `&J`/`&[J::Input]` borrows smuggled through it — never
//!    outlives the epoch. Static combiners re-arm (drain + reopen) their
//!    read-ends before signalling done; the adaptive coordinator reclaims
//!    the read-ends from the [`QueueRegistry`] and re-arms them on the next
//!    submit.
//!
//! Because every epoch gets fresh telemetry cells, a fresh fault log and a
//! fresh error slot inside its frame, per-job state cannot bleed between
//! jobs; the epoch counter is the generation stamp that keeps a stale
//! worker from ever touching a newer job's frame.
//!
//! [`Producer::finish`]: ramr_spsc::Producer::finish
//! [`Consumer::reopen`]: ramr_spsc::Consumer::reopen
//! [`RamrRuntime::run`]: crate::RamrRuntime::run

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use mr_core::{
    task_ranges, JobOutput, MapReduceJob, PhaseKind, PhaseStats, PhaseTimer, RuntimeConfig,
    RuntimeError,
};
use phoenix_mr::{phases, TaskQueues};
use ramr_spsc::{Consumer, SpscQueue};
use ramr_telemetry::{FaultLog, ProgressBoard, TelemetryCell, ThreadRole, ThreadTelemetry};
use ramr_topology::{CpuSlot, MachineModel, PlacementPlan};

use crate::runtime::{
    adaptive_combiner_loop, combiner_loop, controller_loop, flex_loop, mapper_loop, maybe_pin,
    thread_labels, to_backoff, watchdog_loop, AdaptiveCtl, ErrorSlot, FaultCtx, PairConsumer,
    PairProducer, QueueRegistry, ReportedOutput, RunReport,
};
use crate::tuning::{AdaptiveBounds, AdaptiveSeed};

/// Everything one job (epoch) shares with the parked worker pools. Lives on
/// the coordinator's stack for exactly the duration of one `submit`; workers
/// reach it through the raw pointer published in [`SessionState`].
struct JobFrame<J: MapReduceJob> {
    /// The job under execution, smuggled as a raw pointer: `submit` blocks
    /// until every worker is done with the epoch, so the borrow it was made
    /// from strictly outlives every dereference.
    job: *const J,
    /// The input slice, same contract as `job`.
    input: *const J::Input,
    input_len: usize,
    retry_safe: bool,
    queues: TaskQueues,
    fault_log: FaultLog,
    cancel: AtomicBool,
    /// The watchdog's run-is-over signal (distinct from the done-counter,
    /// which the watchdog cannot observe without racing the coordinator).
    watchdog_done: AtomicBool,
    board: Option<ProgressBoard>,
    errors: ErrorSlot,
    /// Fresh per epoch: mapper-side telemetry (static mappers / flex map
    /// halves) — per-job isolation falls out of the cells' lifetime.
    map_cells: Vec<TelemetryCell>,
    /// Static combiners, or the adaptive path's dedicated combiners.
    combiner_cells: Vec<TelemetryCell>,
    /// Adaptive only: the flex threads' combine-help halves.
    flex_combine_cells: Vec<TelemetryCell>,
    /// Adaptive only: the shared pool of pipeline read-ends.
    registry: Option<QueueRegistry<J>>,
    /// Adaptive only: the controller's role/batch write surface — rebuilt
    /// each epoch, so job N's role changes never leak into job N+1's
    /// starting split unless the caller explicitly carried them forward
    /// with a one-shot [`RamrSession::set_adaptive_seed`].
    ctl: Option<AdaptiveCtl>,
    /// Combined partial results (hashes still attached), pushed by
    /// whichever worker produced them.
    partials: Mutex<Vec<phases::HashedPairs<J>>>,
}

impl<J: MapReduceJob> JobFrame<J> {
    /// # Safety
    ///
    /// Callers must hold a published epoch (see module docs): the frame's
    /// job/input pointers are live for exactly that window.
    unsafe fn job(&self) -> &J {
        &*self.job
    }

    unsafe fn input(&self) -> &[J::Input] {
        std::slice::from_raw_parts(self.input, self.input_len)
    }
}

/// A copyable handle to the current epoch's frame.
///
/// Send is sound because every field of [`JobFrame`] reachable through the
/// pointer is `Sync` (`J: MapReduceJob` implies `J: Sync` and
/// `J::Input: Sync`; the rest are the same atomics/mutex/cell types the
/// per-run paths already share across scoped threads), and the epoch
/// protocol guarantees the pointee outlives every dereference.
struct FramePtr<J: MapReduceJob>(*const JobFrame<J>);

impl<J: MapReduceJob> Clone for FramePtr<J> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<J: MapReduceJob> Copy for FramePtr<J> {}
unsafe impl<J: MapReduceJob> Send for FramePtr<J> {}

/// Coordinator-written, worker-read epoch state.
struct SessionState<J: MapReduceJob> {
    /// Generation counter: bumped once per submit. A worker only acts on an
    /// epoch strictly newer than the last one it completed.
    epoch: u64,
    shutdown: bool,
    frame: Option<FramePtr<J>>,
}

/// State shared between the coordinator and the persistent workers.
struct SessionShared<J: MapReduceJob> {
    config: RuntimeConfig,
    state: Mutex<SessionState<J>>,
    /// Signalled when a new epoch is published or shutdown is requested.
    start: Condvar,
    /// Workers still busy with the current epoch.
    busy: Mutex<usize>,
    /// Signalled when `busy` reaches zero.
    done: Condvar,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Session mutexes guard plain counters and pointers — no user code runs
    // under them — so a poisoned guard still holds valid state.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<J: MapReduceJob> SessionShared<J> {
    /// Parks until an epoch newer than `last` is published (returning its
    /// frame) or the session shuts down (returning `None`).
    fn next_epoch(&self, last: &mut u64) -> Option<FramePtr<J>> {
        let mut st = relock(self.state.lock());
        loop {
            if st.shutdown {
                return None;
            }
            if st.epoch > *last {
                *last = st.epoch;
                return Some(st.frame.expect("a published epoch always carries a frame"));
            }
            st = relock(self.start.wait(st));
        }
    }

    /// Marks this worker done with the current epoch.
    fn worker_done(&self) {
        let mut busy = relock(self.busy.lock());
        *busy -= 1;
        if *busy == 0 {
            self.done.notify_all();
        }
    }

    fn wait_all_done(&self) {
        let mut busy = relock(self.busy.lock());
        while *busy > 0 {
            busy = relock(self.done.wait(busy));
        }
    }
}

/// Drains any residue a cancelled or errored epoch left in a read-end and
/// re-arms it for the next job. Popping keeps a producer that is still
/// blocked on a full queue moving; the loop exits once the producer has
/// closed (every session worker closes its queue each epoch, even on
/// panic) and the queue is empty.
fn drain_for_reuse<T: Send>(rx: &mut Consumer<T>) {
    loop {
        let closed = rx.is_closed();
        let drained = rx.pop_batch(1024, |_| {});
        if closed && drained == 0 && rx.is_empty() {
            break;
        }
        if drained == 0 {
            std::thread::yield_now();
        }
    }
    rx.reopen();
}

/// A persistent RAMR executor: the decoupled mapper/combiner pools of
/// [`RamrRuntime`](crate::RamrRuntime), spawned once and reused for a
/// stream of jobs.
///
/// Construct with [`RamrSession::new`], then call
/// [`submit`](RamrSession::submit) any number of times. Each submit runs one
/// job to completion with the same semantics as `RamrRuntime::run` (static
/// or adaptive per [`RuntimeConfig::adaptive`], including retries, poison
/// skipping and the watchdog) but without re-spawning threads or
/// reallocating queues. Worker threads are joined on drop.
///
/// Unlike `RamrRuntime`, a session is typed by the job (`J`) it executes:
/// the SPSC queues carry `(J::Key, J::Value)` pairs and live for the whole
/// session. Run different job *values* freely — a session with different
/// key/value types needs its own pools.
///
/// ```
/// use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
/// use ramr::RamrSession;
///
/// struct Count;
/// impl MapReduceJob for Count {
///     type Input = u64;
///     type Key = u64;
///     type Value = u64;
///     fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
///         for &x in task {
///             emit.emit(x % 3, 1);
///         }
///     }
///     fn combine(&self, acc: &mut u64, v: u64) {
///         *acc += v;
///     }
///     fn key_space(&self) -> Option<usize> {
///         Some(3)
///     }
///     fn key_index(&self, k: &u64) -> usize {
///         *k as usize
///     }
/// }
///
/// let config = RuntimeConfig::builder()
///     .num_workers(2)
///     .num_combiners(1)
///     .task_size(8)
///     .queue_capacity(64)
///     .batch_size(8)
///     .build()?;
/// let mut session = RamrSession::new(config)?;
/// for scale in [30u64, 60, 90] {
///     let input: Vec<u64> = (0..scale).collect();
///     let out = session.submit(&Count, &input)?;
///     assert_eq!(out.pairs.iter().map(|&(_, v)| v).sum::<u64>(), scale);
/// }
/// assert_eq!(session.jobs_run(), 3);
/// # Ok::<(), mr_core::RuntimeError>(())
/// ```
pub struct RamrSession<J: MapReduceJob + 'static> {
    shared: Arc<SessionShared<J>>,
    handles: Vec<JoinHandle<()>>,
    plan: PlacementPlan,
    machine: MachineModel,
    labels: Vec<String>,
    /// Adaptive mode: the pipeline read-ends, held by the coordinator
    /// between epochs (workers hold them only transiently, through the
    /// per-epoch registry). Empty in static mode, where each combiner
    /// worker owns its read-ends for the session's lifetime.
    consumers: Vec<PairConsumer<J>>,
    jobs_run: u64,
    /// One-shot adaptive starting split for the *next* submit only — the
    /// pipeline's ratio carry-forward. Consumed (cleared) by every submit,
    /// so ordinary jobs and scheduler dispatches keep per-job isolation:
    /// a stage's learned split reaches exactly the stage that follows it,
    /// never an unrelated job that happens to share the session.
    seed: Option<AdaptiveSeed>,
}

impl<J: MapReduceJob + 'static> std::fmt::Debug for RamrSession<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RamrSession")
            .field("config", &self.shared.config)
            .field("machine", &self.machine.name)
            .field("workers", &self.handles.len())
            .field("jobs_run", &self.jobs_run)
            .finish_non_exhaustive()
    }
}

impl<J: MapReduceJob + 'static> RamrSession<J> {
    /// Spawns the worker pools against a model of the host machine.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent knob
    /// settings, propagates placement failures, and returns
    /// [`RuntimeError::Spawn`] when a worker thread cannot be spawned
    /// (already-spawned workers are torn down first).
    pub fn new(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Self::with_machine(config, MachineModel::host())
    }

    /// Spawns the worker pools with thread placement computed against
    /// `machine` (see [`RamrRuntime::with_machine`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent knob
    /// settings, propagates placement failures, and returns
    /// [`RuntimeError::Spawn`] when a worker thread cannot be spawned
    /// (already-spawned workers are torn down first).
    ///
    /// [`RamrRuntime::with_machine`]: crate::RamrRuntime::with_machine
    pub fn with_machine(
        config: RuntimeConfig,
        machine: MachineModel,
    ) -> Result<Self, RuntimeError> {
        config.validate()?;
        let plan = PlacementPlan::compute(
            &machine,
            config.num_workers,
            config.num_combiners,
            config.pinning.into(),
        )?;
        let labels = thread_labels(config.num_workers, config.num_combiners);
        let groups = machine.sockets.max(1);
        let group_of_mapper = |m: usize| match plan.mapper_slot(m) {
            CpuSlot::Pinned(cpu) => {
                ramr_topology::physical_position_of(
                    cpu,
                    machine.sockets,
                    machine.cores_per_socket,
                    machine.smt,
                )
                .socket
            }
            CpuSlot::Unpinned => m % groups,
        };

        let shared = Arc::new(SessionShared {
            config: config.clone(),
            state: Mutex::new(SessionState { epoch: 0, shutdown: false, frame: None }),
            start: Condvar::new(),
            busy: Mutex::new(0),
            done: Condvar::new(),
        });

        // One SPSC queue per mapper-role thread, exactly as per-run — but
        // allocated once for the session's lifetime.
        let mut producers: Vec<PairProducer<J>> = Vec::with_capacity(config.num_workers);
        let mut consumers: Vec<PairConsumer<J>> = Vec::with_capacity(config.num_workers);
        for _ in 0..config.num_workers {
            let (tx, rx) = SpscQueue::with_capacity(config.queue_capacity).split();
            producers.push(tx);
            consumers.push(rx);
        }

        let mut handles = Vec::with_capacity(config.num_workers + config.num_combiners);
        // Adaptive mode: the coordinator keeps the read-ends and builds a
        // fresh registry from them each epoch. Static mode: each combiner
        // worker owns its group of read-ends, so the coordinator keeps none.
        let mut held_consumers: Vec<PairConsumer<J>> = Vec::new();
        let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(body)
                .map_err(|e| RuntimeError::Spawn(format!("{name}: {e}")))
        };

        let spawned = (|| -> Result<(), RuntimeError> {
            if config.adaptive {
                for (m, tx) in producers.into_iter().enumerate() {
                    let shared = Arc::clone(&shared);
                    let slot = plan.mapper_slot(m);
                    let home_group = group_of_mapper(m);
                    handles.push(spawn(
                        format!("ramr-flex-{m}"),
                        Box::new(move || flex_worker(shared, tx, m, home_group, slot)),
                    )?);
                }
                for c in 0..config.num_combiners {
                    let shared = Arc::clone(&shared);
                    let slot = plan.combiner_slot(c);
                    handles.push(spawn(
                        format!("ramr-combiner-{c}"),
                        Box::new(move || dedicated_combiner_worker(shared, c, slot)),
                    )?);
                }
                held_consumers = consumers;
            } else {
                // Static assignment: group the read-ends per combiner via
                // the placement plan, exactly as the per-run path does —
                // each combiner worker then owns its group for the
                // session's life.
                let mut consumers_of: Vec<Vec<PairConsumer<J>>> =
                    (0..config.num_combiners).map(|_| Vec::new()).collect();
                for (m, rx) in consumers.into_iter().enumerate() {
                    consumers_of[plan.combiner_of_mapper(m)].push(rx);
                }
                for (m, tx) in producers.into_iter().enumerate() {
                    let shared = Arc::clone(&shared);
                    let slot = plan.mapper_slot(m);
                    let home_group = group_of_mapper(m);
                    handles.push(spawn(
                        format!("ramr-mapper-{m}"),
                        Box::new(move || static_mapper_worker(shared, tx, m, home_group, slot)),
                    )?);
                }
                for (c, group) in consumers_of.into_iter().enumerate() {
                    let shared = Arc::clone(&shared);
                    let slot = plan.combiner_slot(c);
                    handles.push(spawn(
                        format!("ramr-combiner-{c}"),
                        Box::new(move || static_combiner_worker(shared, group, c, slot)),
                    )?);
                }
            }
            Ok(())
        })();

        if let Err(e) = spawned {
            // A partial pool is useless and must not leak: the workers that
            // did spawn are parked on the start condvar (no epoch was ever
            // published), so the shutdown flag wakes and retires them.
            relock(shared.state.lock()).shutdown = true;
            shared.start.notify_all();
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
            return Err(e);
        }
        Ok(Self {
            shared,
            handles,
            plan,
            machine,
            labels,
            consumers: held_consumers,
            jobs_run: 0,
            seed: None,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The machine model used for placement.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The placement plan the session's pools were pinned with.
    pub fn placement(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Jobs executed so far (successful or failed) — the session's epoch
    /// count.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Seeds the **next submit's** adaptive controller with a learned
    /// split, instead of letting it re-converge from the configured
    /// `num_combiners` / `batch_size` default. One-shot: the seed applies
    /// to exactly one epoch and is cleared whether or not that epoch runs
    /// adaptively, preserving per-job isolation for everything after it.
    ///
    /// This is the pipeline's ratio carry-forward hook (see
    /// [`AdaptiveSeed::from_trace`]); it has no effect on a session whose
    /// configuration is not adaptive.
    pub fn set_adaptive_seed(&mut self, seed: AdaptiveSeed) {
        self.seed = Some(seed);
    }

    /// Executes `job` over `input` on the parked pools, returning the
    /// key-sorted reduced output. Semantics match
    /// [`RamrRuntime::run`](crate::RamrRuntime::run) for this session's
    /// configuration.
    ///
    /// A failed job (worker panic, container overflow, watchdog stall)
    /// leaves the session usable: the queues are drained and re-armed
    /// before this returns, and the next submit starts from a fresh frame.
    ///
    /// # Errors
    ///
    /// Propagates container errors, surfaces worker panics as
    /// [`RuntimeError::WorkerPanic`] and watchdog trips as
    /// [`RuntimeError::Stalled`].
    pub fn submit(
        &mut self,
        job: &J,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        self.submit_with_report(job, input).map(|(output, _)| output)
    }

    /// Like [`submit`](RamrSession::submit), additionally returning the
    /// job's [`RunReport`] — the same per-thread statistics surface as
    /// [`RamrRuntime::run_with_report`](crate::RamrRuntime::run_with_report),
    /// isolated per job (a job's report never includes a predecessor's
    /// telemetry, faults or adaptation trace).
    ///
    /// # Errors
    ///
    /// Same as [`submit`](RamrSession::submit).
    pub fn submit_with_report(
        &mut self,
        job: &J,
        input: &[J::Input],
    ) -> Result<ReportedOutput<J>, RuntimeError> {
        // One-shot: whatever happens below, a stage seed never outlives
        // the single epoch it was set for.
        let seed = self.seed.take();
        let config = &self.shared.config;
        let mut stats = PhaseStats::default();

        // --- Input partition phase --------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Partition);
        let tasks = task_ranges(input.len(), config.task_size);
        timer.stop(&mut stats);
        stats.tasks = tasks.len() as u64;

        // --- Map-combine phase on the parked pools -----------------------
        let timer = PhaseTimer::start(PhaseKind::MapCombine);
        let adaptive = config.adaptive;
        let registry = if adaptive {
            // Re-arm the read-ends reclaimed from the previous epoch. The
            // producers are quiescent (previous submit returned), so the
            // scrub-then-reopen is race-free; the epoch publication below
            // is the happens-before edge to the workers.
            let mut held = std::mem::take(&mut self.consumers);
            debug_assert_eq!(held.len(), config.num_workers, "a read-end went missing");
            for rx in &mut held {
                while rx.pop_batch(1024, |_| {}) > 0 {}
                rx.reopen();
            }
            Some(QueueRegistry::new(held))
        } else {
            None
        };

        let mut frame = JobFrame {
            job: job as *const J,
            input: input.as_ptr(),
            input_len: input.len(),
            retry_safe: job.is_retry_safe(),
            queues: TaskQueues::new(tasks, self.machine.sockets.max(1)),
            fault_log: FaultLog::new(),
            cancel: AtomicBool::new(false),
            watchdog_done: AtomicBool::new(false),
            board: config
                .watchdog
                .map(|_| ProgressBoard::new(config.num_workers + config.num_combiners)),
            errors: ErrorSlot::default(),
            map_cells: (0..config.num_workers).map(|_| Default::default()).collect(),
            combiner_cells: (0..config.num_combiners).map(|_| Default::default()).collect(),
            flex_combine_cells: if adaptive {
                (0..config.num_workers).map(|_| Default::default()).collect()
            } else {
                Vec::new()
            },
            registry,
            ctl: adaptive.then(|| match seed {
                // Ratio carry-forward: start this epoch at the seeded split.
                Some(s) => AdaptiveCtl::seeded(config.num_workers, s.batch_size, s.extra_combiners),
                None => AdaptiveCtl::new(config.num_workers, config.batch_size),
            }),
            partials: Mutex::new(Vec::new()),
        };

        // Arm the done-counter BEFORE publishing the epoch: a worker that
        // finishes instantly must find the counter already counting it.
        *relock(self.shared.busy.lock()) = config.num_workers + config.num_combiners;
        {
            let mut st = relock(self.shared.state.lock());
            st.epoch += 1;
            st.frame = Some(FramePtr(&frame));
        }
        self.shared.start.notify_all();

        // The coordinator supervises the epoch in place: it runs the
        // adaptive controller inline and hosts the watchdog (when armed) on
        // a scoped thread, exactly mirroring the per-run supervision.
        let mut trace = Vec::new();
        let stalled = std::thread::scope(|scope| {
            let watchdog = config.watchdog.map(|period| {
                let board = frame.board.as_ref().expect("board exists when watchdog armed");
                let labels = &self.labels;
                let cancel = &frame.cancel;
                let done = &frame.watchdog_done;
                scope.spawn(move || watchdog_loop(period, board, labels, cancel, done))
            });
            if adaptive {
                let bounds = AdaptiveBounds::from_config(config);
                let registry = frame.registry.as_ref().expect("adaptive frame has a registry");
                let ctl = frame.ctl.as_ref().expect("adaptive frame has a ctl");
                trace = controller_loop(
                    config,
                    bounds,
                    registry,
                    ctl,
                    &frame.map_cells,
                    &frame.flex_combine_cells,
                    &frame.combiner_cells,
                    &frame.cancel,
                );
            }
            self.shared.wait_all_done();
            frame.watchdog_done.store(true, Ordering::Release);
            watchdog.and_then(|h| h.join().unwrap_or(None))
        });

        // Epoch over: unpublish the frame pointer before touching the frame
        // mutably again.
        relock(self.shared.state.lock()).frame = None;
        self.jobs_run += 1;

        // Reclaim the adaptive read-ends for the next epoch *before* any
        // error return — a failed job must leave the session usable.
        if adaptive {
            let registry = frame.registry.take().expect("registry taken only once");
            self.consumers = registry.into_consumers();
            debug_assert_eq!(self.consumers.len(), config.num_workers);
        }

        if let Some(e) = frame.errors.take() {
            return Err(e.noting_suppressed(frame.errors.suppressed()));
        }
        if let Some(e) = stalled {
            return Err(e);
        }

        // --- Report assembly, mirroring the per-run paths ----------------
        let mapper_telemetry: Vec<ThreadTelemetry> = frame
            .map_cells
            .iter()
            .enumerate()
            .map(|(m, cell)| cell.snapshot(ThreadRole::Mapper, m))
            .collect();
        let mut combiner_telemetry: Vec<ThreadTelemetry> = frame
            .combiner_cells
            .iter()
            .enumerate()
            .map(|(c, cell)| cell.snapshot(ThreadRole::Combiner, c))
            .collect();
        for (m, cell) in frame.flex_combine_cells.iter().enumerate() {
            let t = cell.snapshot(ThreadRole::Combiner, config.num_combiners + m);
            if t.items > 0 || t.batches > 0 {
                combiner_telemetry.push(t);
            }
        }
        let emitted_per_mapper: Vec<u64> = mapper_telemetry.iter().map(|t| t.items).collect();
        let full_events_per_mapper: Vec<u64> =
            mapper_telemetry.iter().map(|t| t.stall_events).collect();
        let consumed_per_combiner: Vec<u64> = combiner_telemetry.iter().map(|t| t.items).collect();
        stats.emitted = emitted_per_mapper.iter().sum();
        stats.queue_full_events = full_events_per_mapper.iter().sum();
        timer.stop(&mut stats);

        let partials = frame.partials.into_inner().unwrap_or_else(PoisonError::into_inner);

        // --- Reduce phase (reusing the carried hashes) --------------------
        let timer = PhaseTimer::start(PhaseKind::Reduce);
        let buckets = phases::bucket_by_key_hashed::<J>(partials, config.num_reducers);
        let runs = phases::reduce_parallel_hashed(job, buckets)?;
        timer.stop(&mut stats);

        // --- Merge phase ---------------------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Merge);
        let merged = phases::merge_sorted_runs(runs);
        timer.stop(&mut stats);

        stats.output_keys = merged.len() as u64;
        let report = RunReport {
            plan: self.plan.clone(),
            emitted_per_mapper,
            full_events_per_mapper,
            consumed_per_combiner,
            mapper_telemetry,
            combiner_telemetry,
            adaptation: trace,
            faults: frame.fault_log.snapshot(0, false),
        };
        Ok((JobOutput::from_sorted(merged, stats), report))
    }
}

impl<J: MapReduceJob + 'static> Drop for RamrSession<J> {
    fn drop(&mut self) {
        relock(self.shared.state.lock()).shutdown = true;
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent worker bodies. Each is a thin epoch loop around the same
// role functions the per-run paths use; the additions are (a) catch_unwind
// so a panicking job cannot kill a pooled thread, (b) a `finish` on the
// write-ends when (and only when) the role loop unwound before its own
// close, so end-of-stream is still signalled, and (c) queue re-arming for
// the next epoch.
// ---------------------------------------------------------------------------

fn record_panic<J: MapReduceJob>(frame: &JobFrame<J>, panic: Box<dyn std::any::Any + Send>) {
    frame.errors.record(RuntimeError::WorkerPanic(phases::panic_message(&*panic)));
}

fn push_partial<J: MapReduceJob>(frame: &JobFrame<J>, pairs: phases::HashedPairs<J>) {
    relock(frame.partials.lock()).push(pairs);
}

fn static_mapper_worker<J: MapReduceJob>(
    shared: Arc<SessionShared<J>>,
    mut tx: PairProducer<J>,
    m: usize,
    home_group: usize,
    slot: CpuSlot,
) {
    maybe_pin(shared.config.pin_os_threads, slot);
    let backoff = to_backoff(shared.config.push_backoff);
    let emit_block = shared.config.effective_emit_buffer();
    let hasher = shared.config.hasher;
    let telemetry = shared.config.telemetry;
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: `ptr` came from the epoch published for this iteration;
        // the frame outlives it (see module docs).
        let frame = unsafe { &*ptr.0 };
        let (job, input) = unsafe { (frame.job(), frame.input()) };
        let ctx = FaultCtx::new(
            &shared.config,
            frame.retry_safe,
            &frame.fault_log,
            &frame.cancel,
            frame.board.as_ref(),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            mapper_loop(
                job,
                input,
                &frame.queues,
                home_group,
                &mut tx,
                &backoff,
                emit_block,
                hasher,
                &frame.map_cells[m],
                telemetry,
                &ctx,
                m,
            );
        }));
        // `mapper_loop` closes the queue itself on its success path, so
        // finish here only when the job unwound before reaching that close
        // (closed+empty is the combiner's end-of-map signal, and a mapper
        // that never closes would wedge it). A redundant second finish
        // would race this mapper's combiner, which drains and *reopens*
        // the queue before signalling done — re-closing the re-armed queue
        // makes the next epoch's combiner exit early on the stale flag and
        // silently discard pairs.
        if result.is_err() {
            tx.finish();
        }
        if let Err(panic) = result {
            record_panic(frame, panic);
        }
        shared.worker_done();
    }
}

fn static_combiner_worker<J: MapReduceJob>(
    shared: Arc<SessionShared<J>>,
    mut consumers: Vec<PairConsumer<J>>,
    c: usize,
    slot: CpuSlot,
) {
    maybe_pin(shared.config.pin_os_threads, slot);
    let progress_slot = shared.config.num_workers + c;
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: as in `static_mapper_worker`.
        let frame = unsafe { &*ptr.0 };
        let job = unsafe { frame.job() };
        let ctx = FaultCtx::new(
            &shared.config,
            frame.retry_safe,
            &frame.fault_log,
            &frame.cancel,
            frame.board.as_ref(),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            combiner_loop(
                job,
                &shared.config,
                &mut consumers,
                &frame.combiner_cells[c],
                &ctx,
                progress_slot,
            )
        }));
        match result {
            Ok(Ok(pairs)) => push_partial(frame, pairs),
            Ok(Err(e)) => frame.errors.record(e),
            Err(panic) => record_panic(frame, panic),
        }
        // Re-arm this combiner's read-ends before signalling done. Safe
        // with respect to *this* group's producers (they have all finished:
        // either the loop above saw every queue closed, or the drain below
        // unblocks them and waits for the close); independent of the other
        // combiners, whose queues are disjoint.
        for rx in &mut consumers {
            drain_for_reuse(rx);
        }
        shared.worker_done();
    }
}

fn flex_worker<J: MapReduceJob>(
    shared: Arc<SessionShared<J>>,
    mut tx: PairProducer<J>,
    m: usize,
    home_group: usize,
    slot: CpuSlot,
) {
    maybe_pin(shared.config.pin_os_threads, slot);
    let backoff = to_backoff(shared.config.push_backoff);
    let emit_block = shared.config.effective_emit_buffer();
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: as in `static_mapper_worker`.
        let frame = unsafe { &*ptr.0 };
        let (job, input) = unsafe { (frame.job(), frame.input()) };
        let registry = frame.registry.as_ref().expect("adaptive frame has a registry");
        let ctl = frame.ctl.as_ref().expect("adaptive frame has a ctl");
        let ctx = FaultCtx::new(
            &shared.config,
            frame.retry_safe,
            &frame.fault_log,
            &frame.cancel,
            frame.board.as_ref(),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            flex_loop(
                job,
                input,
                &shared.config,
                &frame.queues,
                home_group,
                m,
                &mut tx,
                &backoff,
                emit_block,
                registry,
                ctl,
                &frame.errors,
                &frame.map_cells[m],
                &frame.flex_combine_cells[m],
                &ctx,
            )
        }));
        // As on the static path: `flex_loop` closes the queue on its
        // success path, so close here only on unwind — the remaining
        // combining threads watch for the close to retire this pipeline.
        // (A phase-B unwind lands here with the queue already closed;
        // `finish` is idempotent and the coordinator reopens only after
        // the epoch fully ends, so the repeat cannot race a reopen.)
        match result {
            Ok(pairs) => push_partial(frame, pairs),
            Err(panic) => {
                tx.finish();
                registry.ring();
                record_panic(frame, panic);
            }
        }
        shared.worker_done();
    }
}

fn dedicated_combiner_worker<J: MapReduceJob>(
    shared: Arc<SessionShared<J>>,
    c: usize,
    slot: CpuSlot,
) {
    maybe_pin(shared.config.pin_os_threads, slot);
    let progress_slot = shared.config.num_workers + c;
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: as in `static_mapper_worker`.
        let frame = unsafe { &*ptr.0 };
        let job = unsafe { frame.job() };
        let registry = frame.registry.as_ref().expect("adaptive frame has a registry");
        let ctl = frame.ctl.as_ref().expect("adaptive frame has a ctl");
        let ctx = FaultCtx::new(
            &shared.config,
            frame.retry_safe,
            &frame.fault_log,
            &frame.cancel,
            frame.board.as_ref(),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            adaptive_combiner_loop(
                job,
                &shared.config,
                registry,
                ctl,
                &frame.errors,
                &frame.combiner_cells[c],
                &ctx,
                progress_slot,
            )
        }));
        match result {
            Ok(pairs) => push_partial(frame, pairs),
            Err(panic) => record_panic(frame, panic),
        }
        shared.worker_done();
    }
}
