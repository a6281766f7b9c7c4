//! Job sessions: the mapper/combiner pools spawned once and reused for a
//! stream of jobs — the runtime's one execution core.
//!
//! Spawning and pinning the pool threads and allocating every SPSC queue is
//! a fixed bill; for many short jobs back to back it dominates.
//! [`EngineSession`] pays it once: workers are spawned (and pinned, via the
//! `ramr-topology` placement plan) at construction, park between jobs,
//! and the SPSC queues are *reset* (re-armed via
//! [`Producer::finish`]/[`Consumer::reopen`]) rather than reallocated. A
//! fresh run ([`Engine::submit`](crate::Engine::submit)) is the degenerate
//! stream: a session opened, used for one epoch and dropped.
//!
//! # Caller-runs
//!
//! A session spawns `num_workers + num_combiners − 1` threads: the thread
//! that calls `submit` is mapper 0. The session keeps that mapper's [`Role`]
//! — write-end, emit buffer, kept container, home task group — and `submit`
//! runs its [`fold_loop`] on the caller's own stack, under the same
//! `catch_unwind` and error filing as a pooled role. An epoch therefore wakes `T − 1`
//! parked threads while the caller keeps its own CPU busy, so the kernel
//! places each woken thread on a CPU that is still idle instead of stacking
//! two on the one the waker is about to leave. With `pin_os_threads` set the
//! caller pins itself to mapper 0's slot for the map-combine phase and gets
//! its own mask back afterwards ([`CallerPin`]).
//!
//! # Phoenix sessions
//!
//! The Phoenix++ baseline is this session with no combiners
//! ([`Backend::Phoenix`], DESIGN §6r): `num_workers` roles with neither a
//! read-end nor a write-end, each running [`fold_loop`] so that it folds
//! what it maps into its own kept container; `num_workers − 1` of them are
//! pooled as `ramr-worker-N`. Epochs, caller-runs, fault handling,
//! error precedence, reports, reduce and merge are the ones described here.
//!
//! # Reports
//!
//! `submit` assembles the job's [`EngineReport`] from the epoch's telemetry
//! cells — the per-thread rows, the pairs each route folded — and returns
//! it with the output: a job leaves nothing else behind.
//!
//! # Epoch protocol
//!
//! Each [`submit`](EngineSession::submit) is one *epoch*, identified by a
//! monotonically increasing generation counter:
//!
//! 1. The coordinator (the thread calling `submit`) builds a [`JobFrame`] on
//!    its own stack — task queues, per-job telemetry cells, fault log,
//!    error slot — arms the done-counter with the number of pooled threads,
//!    stores the frame pointer, bumps the epoch (`Release`) and unparks
//!    every pooled thread.
//! 2. Workers wake, run exactly one job's worth of the one role loop
//!    ([`fold_loop`] over their [`Role`]'s queue ends, hosted by the one
//!    [`epoch_worker`] skeleton), close their write-ends with `finish` (not
//!    drop), and decrement the done-counter; the one whose decrement reaches
//!    zero unparks the submitter. The coordinator meanwhile runs mapper 0
//!    through the same [`run_role`] body.
//! 3. `submit` returns — or unwinds, see [`with_epoch`] — only after the
//!    counter hits zero, so the frame — and the `&J`/`&[J::Input]` borrows
//!    smuggled through it — never outlives the epoch. Combiners re-arm
//!    (drain + reopen) their read-ends in [`Role::settle`] before
//!    signalling done.
//!
//! Because every epoch gets fresh telemetry cells, a fresh fault log and a
//! fresh error slot inside its frame, per-job state cannot bleed between
//! jobs; the epoch counter is the generation stamp that keeps a stale
//! worker from ever touching a newer job's frame.
//!
//! Both waits — a worker's for the next epoch, the submitter's for the
//! counter — are `thread::park` on an atomic of our own, with no timeout.
//! An unpark that lands before its park leaves a token, so none is lost.
//! A pooled combiner also parks on its rings' doorbells, and the two waits
//! share each thread's one token: a stale unpark from either can end the
//! other wait early, so every wait loop re-checks its condition.
//!
//! [`Producer::finish`]: ramr_spsc::Producer::finish
//! [`Consumer::reopen`]: ramr_spsc::Consumer::reopen

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};

use mr_core::{
    task_ranges_for, JobOutput, MapReduceJob, PhaseKind, PhaseStats, PhaseTimer, PinningPolicyKind,
    RuntimeConfig, RuntimeError, TaskRange,
};
use phoenix_mr::{phases, TaskQueues};
use ramr_containers::KeptContainer;
use ramr_spsc::{Consumer, SpscQueue};
use ramr_telemetry::{
    combine_throughput, pool_throughput, FaultLog, ProgressBoard, TelemetryCell, ThreadRole,
};
use ramr_topology::{thrid_to_cpu, CpuSlot, MachineModel, PlacementPlan};

use crate::engine::{Backend, EngineOutcome, EngineReport};
use crate::runtime::{
    fold_loop, maybe_pin, watchdog_loop, CallerPin, ErrorSlot, FaultCtx, PairConsumer, WriteEnd,
};

/// Everything one job (epoch) shares with the parked worker pools. Lives on
/// the coordinator's stack for exactly the duration of one `submit`; workers
/// reach it through the raw pointer published in [`SessionShared::frame`].
///
/// Sharing `&JobFrame` across threads is sound although the raw pointers
/// keep it from being `Sync` by itself: `J: MapReduceJob` implies `J: Sync`
/// and `J::Input: Sync`, and every other field is `Sync`.
struct JobFrame<J: MapReduceJob> {
    /// The job under execution, smuggled as a raw pointer: `submit` neither
    /// returns nor unwinds until every worker is done with the epoch (see
    /// [`with_epoch`]), so the borrow it was made from strictly outlives
    /// every dereference.
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
    /// Fresh per epoch: mapper telemetry — per-job isolation falls out of
    /// the cells' lifetime.
    map_cells: Vec<TelemetryCell>,
    combiner_cells: Vec<TelemetryCell>,
    /// The combiners' map-help halves — tasks a combiner with nothing to
    /// read ran in place.
    helper_cells: Vec<TelemetryCell>,
    /// Pairs each mapper folded itself because its combiner was behind.
    spilled: Vec<AtomicU64>,
    /// Combined partial results (hashes still attached), pushed by
    /// whichever worker produced them.
    partials: Mutex<Vec<phases::HashedPairs<J>>>,
    /// The thread that called `submit`, which the last worker done unparks.
    submitter: Thread,
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

/// State shared between the coordinator and the persistent workers.
struct SessionShared<J: MapReduceJob> {
    config: RuntimeConfig,
    /// The combiner pool's size: `config.num_combiners`, or 0 for a Phoenix
    /// session, whose mappers fold what they map.
    combiners: usize,
    /// The current epoch's frame, null between epochs. Stored before the
    /// epoch is bumped and read after it, so `epoch` publishes it.
    frame: AtomicPtr<JobFrame<J>>,
    /// Generation counter: bumped (`Release`) once per submit. A worker
    /// only acts on an epoch strictly newer than the last one it completed.
    epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Pooled threads still busy with the current epoch.
    busy: AtomicUsize,
}

impl<J: MapReduceJob> SessionShared<J> {
    /// Parks until an epoch newer than `last` is published (returning its
    /// frame) or the session shuts down (returning `None`).
    fn next_epoch(&self, last: &mut u64) -> Option<*const JobFrame<J>> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch > *last {
                *last = epoch;
                return Some(self.frame.load(Ordering::Relaxed));
            }
            std::thread::park();
        }
    }

    fn wait_all_done(&self) {
        while self.busy.load(Ordering::Acquire) > 0 {
            std::thread::park();
        }
    }

    /// Retires the pool: every pooled thread sees the flag at its next
    /// wait (no epoch may be in flight) and is joined.
    fn shut_down(&self, handles: &mut Vec<JoinHandle<()>>) {
        self.shutdown.store(true, Ordering::Release);
        wake(handles);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Unparks every pooled thread, after the store it should see.
fn wake(handles: &[JoinHandle<()>]) {
    handles.iter().for_each(|handle| handle.thread().unpark());
}

/// Where Phoenix worker `w` runs under `pinning`: Phoenix's own policy
/// semantics, not the decoupled placement plan's. `OsDefault` leaves it to
/// the OS, `RoundRobin` pins worker `i` to CPU `i`, and `Ramr` follows the
/// `thrid_to_cpu` order, so consecutive workers are SMT siblings first.
fn worker_slot(machine: &MachineModel, pinning: PinningPolicyKind, w: usize) -> CpuSlot {
    let cpus = match pinning {
        PinningPolicyKind::OsDefault => return CpuSlot::Unpinned,
        PinningPolicyKind::RoundRobin => (0..machine.logical_cpus()).collect(),
        PinningPolicyKind::Ramr => {
            thrid_to_cpu(machine.sockets, machine.cores_per_socket, machine.smt)
        }
    };
    CpuSlot::Pinned(cpus[w % cpus.len()])
}

/// Drains any residue a cancelled or errored epoch left in a read-end and
/// re-arms it for the next job. Popping takes whatever a producer that is
/// still running publishes; the loop exits once the producer has closed
/// (every mapper closes its queue each epoch, even on panic) and the queue
/// is empty.
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

/// A persistent executor for any [`Backend`]: the paper's decoupled
/// mapper/combiner pools (§III, Fig 2), or Phoenix workers that fold what
/// they map, spawned once and reused for a stream of jobs.
///
/// Open one with [`Backend::session`], then call
/// [`submit`](EngineSession::submit) any number of times. Each submit runs one
/// job to completion (including retries, poison skipping and the watchdog)
/// without re-spawning threads or reallocating queues. Worker threads are
/// joined on drop.
///
/// The thread that calls `submit` is one of the session's workers: it runs
/// mapper 0's map calls on its own stack while the
/// `num_workers + num_combiners − 1` pooled threads run the other roles. A
/// map call that panics there fails the job with
/// [`RuntimeError::WorkerPanic`] like one on a pooled thread; it never
/// unwinds out of `submit`.
///
/// A session is typed by the job (`J`) it executes: the SPSC queues carry
/// `(J::Key, J::Value)` pairs and live for the whole session. Run different
/// job *values* freely — a job with different key/value types needs its own
/// pools ([`Engine::submit`](crate::Engine::submit) opens them per call).
///
/// ```
/// use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
/// use ramr::Backend;
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
/// let mut session = Backend::RamrStatic.session(config)?;
/// for scale in [30u64, 60, 90] {
///     let input: Vec<u64> = (0..scale).collect();
///     let outcome = session.submit(&Count, &input)?;
///     assert_eq!(outcome.output.pairs.iter().map(|&(_, v)| v).sum::<u64>(), scale);
///     assert_eq!(outcome.report.consumed, scale);
/// }
/// assert_eq!(session.jobs_run(), 3);
/// # Ok::<(), mr_core::RuntimeError>(())
/// ```
pub struct EngineSession<J: MapReduceJob + 'static> {
    /// Resolved once at construction: the report tag can never drift from
    /// the session that produced it.
    backend: Backend,
    shared: Arc<SessionShared<J>>,
    handles: Vec<JoinHandle<()>>,
    plan: PlacementPlan,
    machine: MachineModel,
    labels: Vec<String>,
    /// Mapper 0, which the thread calling `submit` runs for each epoch
    /// while the pool runs the other roles.
    caller: Role<J>,
    jobs_run: u64,
}

impl<J: MapReduceJob + 'static> std::fmt::Debug for EngineSession<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("backend", &self.backend)
            .field("config", &self.shared.config)
            .field("machine", &self.machine.name)
            .field("workers", &self.handles.len())
            .field("jobs_run", &self.jobs_run)
            .finish_non_exhaustive()
    }
}

impl<J: MapReduceJob + 'static> EngineSession<J> {
    /// Spawns the pools for `backend`, with thread placement computed
    /// against `machine`: decoupled mappers and combiners, or, for
    /// [`Backend::Phoenix`], `num_workers` workers that each fold what they
    /// map into their own container and no combiner pool, so no queue
    /// either (`num_combiners` is validated and ignored; DESIGN §6r). Real
    /// pinning (when `config.pin_os_threads` is set) only succeeds for CPU
    /// ids that exist on the actual host; others are skipped with the thread
    /// left unpinned.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent knob
    /// settings, propagates placement failures, and returns
    /// [`RuntimeError::Spawn`] when a worker thread cannot be spawned
    /// (already-spawned workers are torn down first).
    pub(crate) fn open(
        backend: Backend,
        config: RuntimeConfig,
        machine: MachineModel,
    ) -> Result<Self, RuntimeError> {
        config.validate()?;
        let decoupled = backend != Backend::Phoenix;
        let plan = PlacementPlan::compute(
            &machine,
            config.num_workers,
            config.num_combiners,
            config.pinning,
        )?;
        let combiners = if decoupled { config.num_combiners } else { 0 };
        let slot_of_mapper = |m: usize| {
            if decoupled {
                plan.mapper_slot(m)
            } else {
                worker_slot(&machine, config.pinning, m)
            }
        };
        // Per-locality-group task queues (paper §III): a mapper prefers the
        // queue of the socket it is placed on and steals otherwise.
        let groups = machine.sockets.max(1);
        let group_of_mapper = |m: usize| match slot_of_mapper(m) {
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
            combiners,
            frame: AtomicPtr::new(std::ptr::null_mut()),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
        });

        // Every role in progress-board order: mappers (or workers), then
        // combiners. A combiner with nothing to read helps map from the
        // task queue of the mappers it serves.
        let mapper = if decoupled { RoleKind::Mapper } else { RoleKind::Worker };
        let mut roles: Vec<Role<J>> = (0..config.num_workers)
            .map(|m| Role::new(mapper, m, slot_of_mapper(m), group_of_mapper(m)))
            .collect();
        for c in 0..combiners {
            let home_group = (0..config.num_workers)
                .find(|&m| plan.combiner_of_mapper(m) == c)
                .map_or(0, group_of_mapper);
            roles.push(Role::new(RoleKind::Combiner, c, plan.combiner_slot(c), home_group));
        }
        // One SPSC queue per mapper of a decoupled session, allocated once
        // for the session's lifetime: its write-end stays with the mapper,
        // its read-end goes to the combiner the placement plan assigns.
        if decoupled {
            for m in 0..config.num_workers {
                let (tx, rx) = SpscQueue::with_capacity(config.queue_capacity).split();
                roles[config.num_workers + plan.combiner_of_mapper(m)].reads.push(rx);
                roles[m].write = Some(WriteEnd::new(tx, config.effective_emit_buffer()));
            }
        }
        let labels =
            roles.iter().map(|role| format!("{}[{}]", role.kind.name(), role.index)).collect();
        // Mapper 0 is the submitting thread's: `submit` runs it in place
        // while the pool works.
        let mut roles = roles.into_iter();
        let caller = roles.next().expect("validated: num_workers >= 1");

        let mut handles = Vec::with_capacity(config.num_workers + combiners - 1);
        let spawned = roles.try_for_each(|role| {
            let shared = Arc::clone(&shared);
            let name = format!("ramr-{}-{}", role.kind.name(), role.index);
            let handle = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || epoch_worker(&shared, role))
                .map_err(|e| RuntimeError::Spawn(format!("{name}: {e}")))?;
            handles.push(handle);
            Ok(())
        });

        if let Err(e) = spawned {
            // A partial pool is useless and must not leak: the workers that
            // did spawn wait for a first epoch that never comes, so the
            // shutdown flag and an unpark retire them.
            shared.shut_down(&mut handles);
            return Err(e);
        }
        Ok(Self { backend, shared, handles, plan, machine, labels, caller, jobs_run: 0 })
    }

    /// Which backend this session executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The session's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The machine model used for placement.
    #[cfg(test)]
    pub(crate) fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The placement plan the session's pools were pinned with (mapper and
    /// combiner CPU slots and queue assignment), for inspection and
    /// reporting.
    pub fn placement(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Jobs executed so far (successful or failed) — the session's epoch
    /// count.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// The map tasks an input of `input_len` elements is cut into: at most
    /// `task_size` elements each, the tail cut finer for the threads that
    /// map here — every mapper and helping combiner, or every worker.
    fn split(&self, input_len: usize) -> Vec<TaskRange> {
        let config = &self.shared.config;
        task_ranges_for(input_len, config.task_size, config.num_workers + self.shared.combiners)
    }

    /// Executes `job` over `input` on the parked pools, returning the
    /// key-sorted reduced output with the job's [`EngineReport`] attached.
    ///
    /// In a decoupled session the map-combine phase runs as the paper's
    /// pipeline: `num_workers` mappers feed `num_combiners` combiners through
    /// SPSC queues, and the calling thread is mapper 0 for the phase.
    /// Emissions travel in blocks at both ends — each mapper buffers
    /// `effective_emit_buffer()` pairs locally and publishes them with one
    /// tail update, and each combiner consumes batched reads of `batch_size`
    /// elements. Load moves between the pools one block or task at a time: a
    /// mapper whose combiner is behind folds the block itself, and a combiner
    /// with nothing to read maps. Reduce and merge then run exactly as in the
    /// baseline.
    ///
    /// The report is isolated per job: it never includes a predecessor's
    /// telemetry or faults. A failed job (worker panic, container overflow,
    /// watchdog stall) leaves the session usable: the queues are drained and
    /// re-armed before this returns, and the next submit starts from a fresh
    /// frame.
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
    ) -> Result<EngineOutcome<J>, RuntimeError> {
        let mut stats = PhaseStats::default();

        // --- Input partition phase --------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Partition);
        let tasks = self.split(input.len());
        timer.stop(&mut stats);
        stats.tasks = tasks.len() as u64;

        // --- Map-combine phase on the parked pools -----------------------
        let timer = PhaseTimer::start(PhaseKind::MapCombine);
        let frame = self.frame_for(job, input, tasks);
        self.jobs_run += 1;
        let config = &self.shared.config;

        // The coordinator supervises the epoch in place: it hosts the
        // watchdog (when armed) on a scoped thread, then maps as mapper 0,
        // pinned to that mapper's slot when the pools are pinned.
        // `with_epoch` sits *inside* the scope so that, should supervision
        // unwind, the epoch is over (and the watchdog told so) before the
        // scope joins the watchdog.
        let pin = CallerPin::enter(config.pin_os_threads, self.caller.slot);
        let stalled = std::thread::scope(|scope| {
            let caller = CallerRole { role: &mut self.caller, job, input };
            let watchdog = with_epoch(&self.shared, &self.handles, &frame, caller, || {
                config.watchdog.map(|period| {
                    let board = frame.board.as_ref().expect("board exists when watchdog armed");
                    let labels = &self.labels;
                    let cancel = &frame.cancel;
                    let done = &frame.watchdog_done;
                    scope.spawn(move || watchdog_loop(period, board, labels, cancel, done))
                })
            });
            watchdog.and_then(|h| h.join().unwrap_or(None))
        });
        drop(pin);

        // Worker errors take priority: a stall diagnosis is only the
        // primary failure when nothing more specific was recorded. First-
        // error containment with the loss made visible: one error surfaces,
        // the rest are counted onto its message.
        if let Some(e) = frame.errors.take() {
            return Err(e.noting_suppressed(frame.errors.suppressed()));
        }
        if let Some(e) = stalled {
            return Err(e);
        }

        // --- Report assembly ----------------------------------------------
        let (workers, combiners) = (config.num_workers, self.shared.combiners);
        let role = if combiners == 0 { ThreadRole::Worker } else { ThreadRole::Mapper };
        let mut threads = Vec::with_capacity(workers + 2 * combiners);
        threads.extend(frame.map_cells.iter().enumerate().map(|(m, cell)| cell.snapshot(role, m)));
        // A combiner that ran map tasks in place is also a mapper row,
        // indexed after the mapper pool; one that never helped is omitted:
        // an all-zero phantom row would skew the per-thread tables.
        let mut helped = 0;
        for (c, cell) in frame.helper_cells.iter().enumerate() {
            let row = cell.snapshot(ThreadRole::Mapper, workers + c);
            helped += row.items;
            if row.items > 0 || !row.busy.is_zero() {
                threads.push(row);
            }
        }
        let mapper_rows = threads.len();
        threads.extend(
            frame
                .combiner_cells
                .iter()
                .enumerate()
                .map(|(c, cell)| cell.snapshot(ThreadRole::Combiner, c)),
        );
        let (mappers, combiner_rows) = threads.split_at(mapper_rows);
        stats.emitted = mappers.iter().map(|t| t.items).sum();
        timer.stop(&mut stats);
        let spilled_per_mapper: Vec<u64> =
            frame.spilled.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        let spilled = spilled_per_mapper.iter().sum();
        // A Phoenix worker folds every pair it emits, on the spot.
        let consumed = if combiners == 0 {
            stats.emitted
        } else {
            combiner_rows.iter().map(|t| t.items).sum::<u64>() + helped + spilled
        };
        let suggested_ratio = pool_throughput(mappers)
            .zip(combine_throughput(&threads, spilled))
            .map(|(map, combine)| ramr_telemetry::suggested_ratio(map, combine));

        let partials = frame.partials.into_inner().unwrap_or_else(PoisonError::into_inner);

        // --- Reduce phase (the carried hashes ride along unread) -----------
        let timer = PhaseTimer::start(PhaseKind::Reduce);
        let buckets = phases::bucket_by_key_hashed::<J>(partials, config.num_reducers);
        let runs = phases::reduce_parallel(job, buckets, phases::reduce_bucket_hashed)?;
        timer.stop(&mut stats);

        // --- Merge phase ---------------------------------------------------
        let timer = PhaseTimer::start(PhaseKind::Merge);
        let merged = phases::merge_sorted_runs(runs);
        timer.stop(&mut stats);

        stats.output_keys = merged.len() as u64;
        let report = EngineReport {
            backend: self.backend,
            threads,
            consumed,
            spilled,
            helped,
            spilled_per_mapper,
            suggested_ratio,
            adaptation: Vec::new(),
            faults: frame.fault_log.snapshot(0, false),
            plan: (combiners > 0).then(|| self.plan.clone()),
        };
        Ok(EngineOutcome { output: JobOutput::from_sorted(merged, stats), report })
    }

    /// Builds the next epoch's frame: fresh per-job state (telemetry cells,
    /// fault log, error slot) around the session's long-lived queues.
    fn frame_for(&self, job: &J, input: &[J::Input], tasks: Vec<TaskRange>) -> JobFrame<J> {
        let (config, combiners) = (&self.shared.config, self.shared.combiners);
        let fresh_cells = |n: usize| (0..n).map(|_| TelemetryCell::default()).collect();
        JobFrame {
            job: job as *const J,
            input: input.as_ptr(),
            input_len: input.len(),
            retry_safe: job.is_retry_safe(),
            queues: TaskQueues::new(tasks, self.machine.sockets.max(1)),
            // Fault-tolerance surfaces — all inert by default: no retries,
            // no skipping, no watchdog, no extra atomics on the hot paths.
            fault_log: FaultLog::new(),
            cancel: AtomicBool::new(false),
            watchdog_done: AtomicBool::new(false),
            board: config.watchdog.map(|_| ProgressBoard::new(config.num_workers + combiners)),
            errors: ErrorSlot::default(),
            map_cells: fresh_cells(config.num_workers),
            combiner_cells: fresh_cells(combiners),
            helper_cells: fresh_cells(combiners),
            spilled: (0..config.num_workers).map(|_| AtomicU64::new(0)).collect(),
            partials: Mutex::new(Vec::new()),
            submitter: std::thread::current(),
        }
    }
}

impl<J: MapReduceJob + 'static> Drop for EngineSession<J> {
    fn drop(&mut self) {
        self.shared.shut_down(&mut self.handles);
    }
}

/// Runs one epoch: publishes `frame` to the parked pools, runs `supervise`
/// on the calling thread while they work — then the `caller`'s mapper role
/// — and waits for every pooled worker to be done with the frame and
/// unpublishes it.
///
/// Everything after `supervise` is the drop of one guard, so it happens on
/// unwind too: `supervise` spawns a thread, which can panic, and the
/// workers hold a raw pointer to a frame on the caller's stack. The unwind
/// must not continue past that stack frame while any worker is still inside
/// the epoch.
///
/// Mapper 0's queue is closed exactly once per epoch, on one of three paths:
/// by `fold_loop` when it returns, by [`Role::settle`] when it unwound, or by
/// the guard when `supervise` unwound before the role ran. Its
/// combiner drains until that close, so a missing one hangs the epoch; a
/// second one, landing after the combiner has re-armed the queue, would end
/// the next epoch's drain early on a stale flag. The guard therefore closes
/// only a role it still holds, and gives the role up before running it.
fn with_epoch<J: MapReduceJob, R>(
    shared: &SessionShared<J>,
    handles: &[JoinHandle<()>],
    frame: &JobFrame<J>,
    caller: CallerRole<'_, J>,
    supervise: impl FnOnce() -> R,
) -> R {
    struct EpochGuard<'a, J: MapReduceJob> {
        shared: &'a SessionShared<J>,
        frame: &'a JobFrame<J>,
        /// The caller's role until it starts running.
        caller: Option<CallerRole<'a, J>>,
        supervised: bool,
    }

    impl<J: MapReduceJob> Drop for EpochGuard<'_, J> {
        fn drop(&mut self) {
            if !self.supervised {
                // Nobody is left to run the job to its end: have the
                // workers abandon it (every wait polls the flag on a
                // timeout), and end the stream of the mapper that will now
                // never run.
                self.frame.cancel.store(true, Ordering::Release);
                if let Some(write) =
                    self.caller.take().and_then(|caller| caller.role.write.as_mut())
                {
                    write.tx.finish();
                }
            }
            self.shared.wait_all_done();
            self.frame.watchdog_done.store(true, Ordering::Release);
            self.shared.frame.store(std::ptr::null_mut(), Ordering::Relaxed);
        }
    }

    // Arm the done-counter BEFORE publishing the epoch: a worker that
    // finishes instantly must find the counter already counting it. It
    // counts the pooled threads only; the caller's role ends before the
    // guard waits. The epoch's Release publishes both Relaxed stores.
    shared.busy.store(shared.config.num_workers + shared.combiners - 1, Ordering::Relaxed);
    shared.frame.store(std::ptr::from_ref(frame).cast_mut(), Ordering::Relaxed);
    shared.epoch.fetch_add(1, Ordering::Release);
    wake(handles);
    let mut guard = EpochGuard { shared, frame, caller: Some(caller), supervised: false };
    let out = supervise();
    if let Some(CallerRole { role, job, input }) = guard.caller.take() {
        run_role(&shared.config, frame, job, input, role);
    }
    guard.supervised = true;
    out
}

/// The submitting thread's share of an epoch: mapper 0, and the job
/// and input `submit` was handed — the borrows the frame carries as raw
/// pointers for the pooled threads.
struct CallerRole<'a, J: MapReduceJob> {
    role: &'a mut Role<J>,
    job: &'a J,
    input: &'a [J::Input],
}

/// What a role is, for its thread name (`ramr-mapper-N`) and its watchdog
/// label (`mapper[N]`).
#[derive(Clone, Copy)]
enum RoleKind {
    /// A decoupled mapper: maps through its write-end.
    Mapper,
    /// A Phoenix worker: folds what it maps.
    Worker,
    /// Folds its mappers' queues, and maps in place while they are empty.
    Combiner,
}

impl RoleKind {
    fn name(self) -> &'static str {
        match self {
            Self::Mapper => "mapper",
            Self::Worker => "worker",
            Self::Combiner => "combiner",
        }
    }
}

/// One thread's part in the session, kept for the session's life so that an
/// epoch allocates none of it: its queue ends — a combiner's read-ends, a
/// mapper's write-end, a worker neither — where it runs, the task group it
/// claims from first, and the container its last job drained (a hash table
/// grows once per session, not once per job). Owned by a pooled thread, or,
/// for mapper 0, by the session, whose `submit` runs it on the caller.
struct Role<J: MapReduceJob> {
    kind: RoleKind,
    /// Mapper, worker or combiner `index`.
    index: usize,
    slot: CpuSlot,
    home_group: usize,
    reads: Vec<PairConsumer<J>>,
    write: Option<WriteEnd<J>>,
    kept: Option<KeptContainer<J::Key, J::Value>>,
}

impl<J: MapReduceJob> Role<J> {
    fn new(kind: RoleKind, index: usize, slot: CpuSlot, home_group: usize) -> Self {
        Self { kind, index, slot, home_group, reads: Vec::new(), write: None, kept: None }
    }

    /// One epoch of [`fold_loop`]; what the role folded is its partial.
    fn run(&mut self, config: &RuntimeConfig, ep: &Epoch<'_, J>) -> RoleOutcome<J> {
        let (frame, i) = (ep.frame, self.index);
        // Progress-board slots list the mappers first, then the combiners.
        let (reads_cell, tasks_cell, board_slot) = match self.kind {
            RoleKind::Combiner => {
                (Some(&frame.combiner_cells[i]), &frame.helper_cells[i], config.num_workers + i)
            }
            RoleKind::Mapper | RoleKind::Worker => (None, &frame.map_cells[i], i),
        };
        let pairs = fold_loop(
            ep.job,
            ep.input,
            config,
            &frame.queues,
            self.home_group,
            &mut self.reads,
            self.write.as_mut(),
            &mut self.kept,
            reads_cell,
            tasks_cell,
            &ep.ctx,
            board_slot,
        );
        if let Some(write) = &self.write {
            frame.spilled[i].store(write.spilled, Ordering::Relaxed);
        }
        let pairs = pairs?;
        Ok((!pairs.is_empty()).then_some(pairs))
    }

    /// Readies the role's queue ends for the next epoch, on every exit.
    ///
    /// `fold_loop` closes a write-end itself unless it unwound, so finish it
    /// here only then (closed+empty is the combiner's end-of-map signal, and
    /// a mapper that never closes would wedge it). A redundant second finish
    /// would race this mapper's combiner, which drains and *reopens* the
    /// queue before signalling done — re-closing the re-armed queue makes
    /// the next epoch's combiner exit early on the stale flag and silently
    /// discard pairs.
    ///
    /// Read-ends are drained and re-armed. That is safe with respect to
    /// their producers, which have all finished (either the loop saw every
    /// queue closed, or the drain waits for the close), and independent of
    /// the other combiners, whose queues are disjoint.
    fn settle(&mut self, unwound: bool) {
        if let (true, Some(write)) = (unwound, &mut self.write) {
            write.tx.finish();
        }
        self.reads.iter_mut().for_each(drain_for_reuse);
    }
}

/// One published epoch as a role sees it.
struct Epoch<'a, J: MapReduceJob> {
    frame: &'a JobFrame<J>,
    job: &'a J,
    input: &'a [J::Input],
    ctx: FaultCtx<'a>,
}

/// What one role yields for one epoch: its combined partial when it
/// folded any pair, or the error that fails the job.
type RoleOutcome<J> = Result<Option<phases::HashedPairs<J>>, RuntimeError>;

/// The one epoch loop every pooled thread runs, whatever its role: pin once,
/// then for each published epoch run `role` for exactly one job (see
/// [`run_role`]) and signal done.
fn epoch_worker<J: MapReduceJob>(shared: &SessionShared<J>, mut role: Role<J>) {
    maybe_pin(shared.config.pin_os_threads, role.slot);
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: `ptr` came from the epoch published for this iteration.
        // The coordinator armed `busy` to count this thread before it
        // published, and neither returns nor unwinds past the frame (nor
        // frees the job/input borrows smuggled through it) until `busy`
        // is zero again — `with_epoch`'s guard. This thread decrements
        // `busy` only at the bottom of this iteration, after its last use
        // of `frame`, `job` and `input`.
        let frame = unsafe { &*ptr };
        let (job, input) = unsafe { (frame.job(), frame.input()) };
        run_role(&shared.config, frame, job, input, &mut role);
        // Cloned first: once `busy` is zero the frame may be gone.
        let submitter = frame.submitter.clone();
        if shared.busy.fetch_sub(1, Ordering::AcqRel) == 1 {
            submitter.unpark();
        }
    }
}

/// Runs `role` for one epoch of `frame` (whose job and input are `job` and
/// `input`) on the calling thread — a pooled worker, or the caller running
/// mapper 0 — and files the outcome in the frame.
///
/// [`Role::run`] yields the thread's combined partial or the error that
/// fails the job, and runs under `catch_unwind` so a panicking job cannot
/// kill a pooled thread, nor unwind out of `submit`. [`Role::settle`] runs
/// after it either way and is told whether it unwound.
fn run_role<J: MapReduceJob>(
    config: &RuntimeConfig,
    frame: &JobFrame<J>,
    job: &J,
    input: &[J::Input],
    role: &mut Role<J>,
) {
    let ctx = FaultCtx::new(
        config,
        frame.retry_safe,
        &frame.fault_log,
        &frame.cancel,
        frame.board.as_ref(),
    );
    let epoch = Epoch { frame, job, input, ctx };
    let result = catch_unwind(AssertUnwindSafe(|| role.run(config, &epoch)));
    role.settle(result.is_err());
    match result {
        Ok(Ok(Some(pairs))) => {
            frame.partials.lock().unwrap_or_else(PoisonError::into_inner).push(pairs)
        }
        Ok(Ok(None)) => {}
        Ok(Err(e)) => frame.errors.record(e),
        Err(panic) => {
            frame.errors.record(RuntimeError::WorkerPanic(phases::panic_message(&*panic)))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use mr_core::Emitter;

    /// Counts `x % 5`; while `hold` is set every map call instead parks
    /// until the job is cancelled, which pins its worker inside the epoch.
    #[derive(Default)]
    struct Gated {
        hold: AtomicBool,
        entered: AtomicUsize,
        inside: AtomicUsize,
    }

    impl MapReduceJob for Gated {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            self.inside.fetch_add(1, Ordering::SeqCst);
            self.entered.fetch_add(1, Ordering::SeqCst);
            if self.hold.load(Ordering::SeqCst) {
                while !emit.is_cancelled() {
                    std::thread::yield_now();
                }
            } else {
                for &x in task {
                    emit.emit(x % 5, 1);
                }
            }
            self.inside.fetch_sub(1, Ordering::SeqCst);
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(5)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }
    }

    #[test]
    fn an_unwinding_supervisor_ends_the_epoch_before_the_frame_dies() {
        let input: Vec<u64> = (0..4000).collect();
        let cfg = RuntimeConfig::builder()
            .num_workers(3)
            .num_combiners(2)
            .task_size(16)
            .queue_capacity(64)
            .batch_size(8)
            .build()
            .unwrap();
        let mut session = Backend::RamrStatic.session::<Gated>(cfg).unwrap();
        let job = Gated::default();

        // The supervisor panics only once a worker is provably inside the
        // job, so the guard has live workers to wait out.
        job.hold.store(true, Ordering::SeqCst);
        let tasks = session.split(input.len());
        let frame = session.frame_for(&job, &input, tasks);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let caller = CallerRole { role: &mut session.caller, job: &job, input: &input };
            with_epoch(&session.shared, &session.handles, &frame, caller, || {
                while job.entered.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                panic!("supervisor exploded");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(job.inside.load(Ordering::SeqCst), 0);
        assert_eq!(session.shared.busy.load(Ordering::SeqCst), 0);
        assert!(session.shared.frame.load(Ordering::SeqCst).is_null());
        drop(frame);

        // The same pools serve the next job, exactly.
        job.hold.store(false, Ordering::SeqCst);
        let out = session.submit(&job, &input).unwrap().output;
        let expected: Vec<(u64, u64)> = (0..5).map(|k| (k, 800)).collect();
        assert_eq!(out.pairs, expected);
    }

    #[test]
    fn a_supervisor_that_unwinds_before_the_job_starts_still_closes_mapper_0() {
        // Supervision fails before the caller ever ran mapper 0, so nobody
        // but the guard can end that mapper's stream, and its combiner
        // drains until it ends. The cases run on a thread of their own so
        // that a lost close fails the deadline instead of hanging the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let cases = std::thread::spawn(move || {
            let input: Vec<u64> = (0..4000).collect();
            for (workers, combiners) in [(1, 1), (3, 2)] {
                let case = format!("{workers} + {combiners}");
                let cfg = RuntimeConfig::builder()
                    .num_workers(workers)
                    .num_combiners(combiners)
                    .task_size(16)
                    .queue_capacity(64)
                    .batch_size(8)
                    .build()
                    .unwrap();
                let mut session = Backend::RamrStatic.session::<Gated>(cfg).unwrap();
                let job = Gated::default();
                let tasks = session.split(input.len());
                let frame = session.frame_for(&job, &input, tasks);
                let caller = CallerRole { role: &mut session.caller, job: &job, input: &input };
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    with_epoch(&session.shared, &session.handles, &frame, caller, || {
                        panic!("supervisor exploded at once")
                    })
                }));
                assert!(unwound.is_err(), "{case}");
                assert_eq!(session.shared.busy.load(Ordering::SeqCst), 0, "{case}");
                drop(frame);

                let out = session.submit(&job, &input).unwrap().output;
                let expected: Vec<(u64, u64)> = (0..5).map(|k| (k, 800)).collect();
                assert_eq!(out.pairs, expected, "{case}");
            }
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(10)) {
            // A failed assertion drops the sender: re-raise it from here.
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => cases.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("the epoch after an unwound supervisor did not end within 10 s")
            }
        }
    }
}
