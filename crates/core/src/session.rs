//! Job sessions: the mapper/combiner pools spawned once and reused for a
//! stream of jobs — the runtime's one execution core.
//!
//! Spawning and pinning the pool threads and allocating every SPSC queue is
//! a fixed bill; for many short jobs back to back it dominates.
//! [`EngineSession`] pays it once: workers are spawned (and pinned, via the
//! `ramr-topology` placement plan) at construction, park on a condvar
//! between jobs, and the SPSC queues are *reset* (re-armed via
//! [`Producer::finish`]/[`Consumer::reopen`]) rather than reallocated. A
//! fresh run ([`Engine::submit`](crate::Engine::submit)) is the degenerate
//! stream: a session opened, used for one epoch and dropped.
//!
//! # Caller-runs
//!
//! A session spawns `num_workers + num_combiners − 1` threads: the thread
//! that calls `submit` is mapper 0. It keeps that mapper's write-end,
//! emit buffer, spill container and home task group in the session and runs
//! [`mapper_loop`] for it on its own stack, under the same `catch_unwind`
//! and error filing as a pooled role. An epoch therefore wakes `T − 1`
//! parked threads while the caller keeps its own CPU busy, so the kernel
//! places each woken thread on a CPU that is still idle instead of stacking
//! two on the one the waker is about to leave. With `pin_os_threads` set the
//! caller pins itself to mapper 0's slot for the map-combine phase and gets
//! its own mask back afterwards ([`CallerPin`]).
//!
//! # Phoenix sessions
//!
//! The Phoenix++ baseline is this session with no combiners
//! ([`Backend::Phoenix`], DESIGN §6r): `num_workers` mappers without a
//! queue, each running the combiners' [`fold_loop`] over no read-ends, so
//! it folds what it maps into its own kept container; `num_workers − 1` of
//! them are pooled as `ramr-worker-N`. Epochs, caller-runs, fault handling,
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
//!    and publishes the frame pointer together with the bumped epoch under
//!    the state mutex.
//! 2. Workers wake, run exactly one job's worth of their role loop
//!    ([`mapper_loop`] or [`fold_loop`], each hosted by the one
//!    [`epoch_worker`] skeleton), close their queues with `finish` (not
//!    drop), and decrement the done-counter. The coordinator meanwhile runs
//!    mapper 0 through the same [`run_role`] body.
//! 3. `submit` returns — or unwinds, see [`with_epoch`] — only after the
//!    counter hits zero, so the frame — and the `&J`/`&[J::Input]` borrows
//!    smuggled through it — never outlives the epoch. Combiners re-arm
//!    (drain + reopen) their read-ends before signalling done.
//!
//! Because every epoch gets fresh telemetry cells, a fresh fault log and a
//! fresh error slot inside its frame, per-job state cannot bleed between
//! jobs; the epoch counter is the generation stamp that keeps a stale
//! worker from ever touching a newer job's frame.
//!
//! [`Producer::finish`]: ramr_spsc::Producer::finish
//! [`Consumer::reopen`]: ramr_spsc::Consumer::reopen

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    fold_loop, mapper_loop, maybe_pin, thread_labels, watchdog_loop, CallerPin, ErrorSlot,
    FaultCtx, HashedPair, PairConsumer, PairProducer,
};

/// Everything one job (epoch) shares with the parked worker pools. Lives on
/// the coordinator's stack for exactly the duration of one `submit`; workers
/// reach it through the raw pointer published in [`SessionState`].
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
/// `J::Input: Sync`; the rest are atomics, mutexes and telemetry cells),
/// and the epoch protocol guarantees the pointee outlives every
/// dereference.
struct FramePtr<J: MapReduceJob>(*const JobFrame<J>);

impl<J: MapReduceJob> Clone for FramePtr<J> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<J: MapReduceJob> Copy for FramePtr<J> {}
// SAFETY: see the type's documentation — workers only ever share `&JobFrame`.
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
    /// The combiner pool's size: `config.num_combiners`, or 0 for a Phoenix
    /// session, whose mappers fold what they map.
    combiners: usize,
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
    caller: MapperState<J>,
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
        let labels = thread_labels(config.num_workers, combiners);
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
            state: Mutex::new(SessionState { epoch: 0, shutdown: false, frame: None }),
            start: Condvar::new(),
            busy: Mutex::new(0),
            done: Condvar::new(),
        });

        // One SPSC queue per mapper of a decoupled session, allocated once
        // for the session's lifetime. The read-ends are grouped per combiner
        // via the placement plan; each combiner worker then owns its group
        // for the session's life. A Phoenix worker has neither a queue nor
        // an emit buffer.
        let emit_block = if decoupled { config.effective_emit_buffer() } else { 0 };
        let mut mappers = Vec::with_capacity(config.num_workers);
        let mut consumers_of: Vec<Vec<PairConsumer<J>>> =
            (0..combiners).map(|_| Vec::new()).collect();
        for m in 0..config.num_workers {
            let tx = decoupled.then(|| {
                let (tx, rx) = SpscQueue::with_capacity(config.queue_capacity).split();
                consumers_of[plan.combiner_of_mapper(m)].push(rx);
                tx
            });
            mappers.push(MapperState {
                m,
                slot: slot_of_mapper(m),
                home_group: group_of_mapper(m),
                tx,
                buffer: Vec::with_capacity(emit_block),
                kept: None,
            });
        }
        // Mapper 0 is the submitting thread's: `submit` runs it in place
        // while the pool works.
        let mut mappers = mappers.into_iter();
        let caller = mappers.next().expect("validated: num_workers >= 1");

        let mut handles = Vec::with_capacity(config.num_workers + combiners - 1);
        let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(body)
                .map_err(|e| RuntimeError::Spawn(format!("{name}: {e}")))
        };

        // Each pooled thread is the one `epoch_worker` skeleton around one
        // of the two role loops, with the loop's arguments bound here.
        let spawned = (|| -> Result<(), RuntimeError> {
            let role = if decoupled { "mapper" } else { "worker" };
            for mapper in mappers {
                let shared = Arc::clone(&shared);
                let slot = mapper.slot;
                let name = format!("ramr-{role}-{}", mapper.m);
                let body = move || {
                    let config = &shared.config;
                    epoch_worker(
                        &shared,
                        slot,
                        mapper,
                        |mapper, ep| mapper.run(config, ep),
                        |mapper, _, unwound| mapper.settle(unwound),
                    )
                };
                handles.push(spawn(name, Box::new(body))?);
            }
            for (c, group) in consumers_of.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let slot = plan.combiner_slot(c);
                // A combiner with nothing to read helps map from the task
                // queue of the mappers it serves.
                let home_group = (0..config.num_workers)
                    .find(|&m| plan.combiner_of_mapper(m) == c)
                    .map_or(0, group_of_mapper);
                let body = move || {
                    let config = &shared.config;
                    epoch_worker(
                        &shared,
                        slot,
                        // Next to its read-ends a combiner keeps the
                        // container its last job drained: a hash table
                        // grows once per session, not once per job.
                        (group, None),
                        |(group, kept), ep| {
                            fold_loop(
                                ep.job,
                                ep.input,
                                config,
                                &ep.frame.queues,
                                home_group,
                                group,
                                kept,
                                Some(&ep.frame.combiner_cells[c]),
                                &ep.frame.helper_cells[c],
                                &ep.ctx,
                                config.num_workers + c,
                            )
                            .map(Some)
                        },
                        // Re-arm this combiner's read-ends before
                        // signalling done. Safe with respect to *this*
                        // group's producers (they have all finished: either
                        // the loop saw every queue closed, or the drain
                        // waits for the close); independent of the other
                        // combiners, whose queues are disjoint.
                        |(group, _), _, _| group.iter_mut().for_each(drain_for_reuse),
                    )
                };
                handles.push(spawn(format!("ramr-combiner-{c}"), Box::new(body))?);
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
            let caller = CallerRole { mapper: &mut self.caller, job, input };
            let watchdog = with_epoch(&self.shared, &frame, caller, || {
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
        }
    }
}

impl<J: MapReduceJob + 'static> Drop for EngineSession<J> {
    fn drop(&mut self) {
        relock(self.shared.state.lock()).shutdown = true;
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
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
/// by `mapper_loop` on its success path, by its `settle` when it panicked,
/// or by the guard when `supervise` unwound before the role ran. Its
/// combiner drains until that close, so a missing one hangs the epoch; a
/// second one, landing after the combiner has re-armed the queue, would end
/// the next epoch's drain early on a stale flag. The guard therefore closes
/// only a role it still holds, and gives the role up before running it.
fn with_epoch<J: MapReduceJob, R>(
    shared: &SessionShared<J>,
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
                if let Some(tx) = self.caller.take().and_then(|role| role.mapper.tx.as_mut()) {
                    tx.finish();
                }
            }
            self.shared.wait_all_done();
            self.frame.watchdog_done.store(true, Ordering::Release);
            relock(self.shared.state.lock()).frame = None;
        }
    }

    // Arm the done-counter BEFORE publishing the epoch: a worker that
    // finishes instantly must find the counter already counting it. It
    // counts the pooled threads only; the caller's role ends before the
    // guard waits.
    *relock(shared.busy.lock()) = shared.config.num_workers + shared.combiners - 1;
    {
        let mut st = relock(shared.state.lock());
        st.epoch += 1;
        st.frame = Some(FramePtr(frame));
    }
    shared.start.notify_all();
    let mut guard = EpochGuard { shared, frame, caller: Some(caller), supervised: false };
    let out = supervise();
    if let Some(CallerRole { mapper, job, input }) = guard.caller.take() {
        let config = &shared.config;
        run_role(
            config,
            frame,
            job,
            input,
            mapper,
            |m, ep| m.run(config, ep),
            |m, _, unwound| m.settle(unwound),
        );
    }
    guard.supervised = true;
    out
}

/// The submitting thread's share of an epoch: mapper 0, and the job
/// and input `submit` was handed — the borrows the frame carries as raw
/// pointers for the pooled threads.
struct CallerRole<'a, J: MapReduceJob> {
    mapper: &'a mut MapperState<J>,
    job: &'a J,
    input: &'a [J::Input],
}

/// A mapper's session-long state: its queue's write-end, the emit
/// buffer and the spill container kept next to it so that an epoch allocates
/// none of them, where it runs and the task group it claims from first.
/// Owned by a pooled `ramr-mapper-N` thread, or, for mapper 0, by the
/// session, whose `submit` runs it on the caller. A Phoenix worker is a
/// mapper with no queue.
struct MapperState<J: MapReduceJob> {
    m: usize,
    slot: CpuSlot,
    home_group: usize,
    /// `None` for a Phoenix worker, which folds what it maps.
    tx: Option<PairProducer<J>>,
    buffer: Vec<HashedPair<J>>,
    /// The container the last epoch that spilled (or folded) drained — a
    /// hash table grows once per session here too, as a combiner's does.
    kept: Option<KeptContainer<J::Key, J::Value>>,
}

impl<J: MapReduceJob> MapperState<J> {
    /// One epoch of [`mapper_loop`], or without a queue of [`fold_loop`]
    /// over no read-ends; what it spilled or folded is its partial.
    fn run(&mut self, config: &RuntimeConfig, ep: &Epoch<'_, J>) -> RoleOutcome<J> {
        let (queues, cell, ctx, m) =
            (&ep.frame.queues, &ep.frame.map_cells[self.m], &ep.ctx, self.m);
        let (job, input, group, kept) = (ep.job, ep.input, self.home_group, &mut self.kept);
        let pairs = match &mut self.tx {
            Some(tx) => mapper_loop(
                job,
                input,
                config,
                queues,
                group,
                tx,
                &mut self.buffer,
                kept,
                cell,
                &ep.frame.spilled[m],
                ctx,
                m,
            )?,
            None => {
                fold_loop(job, input, config, queues, group, &mut [], kept, None, cell, ctx, m)?
            }
        };
        Ok((!pairs.is_empty()).then_some(pairs))
    }

    /// `mapper_loop` closes the queue itself on its success path, so finish
    /// here only when the job unwound before reaching that close
    /// (closed+empty is the combiner's end-of-map signal, and a mapper that
    /// never closes would wedge it). A redundant second finish would race
    /// this mapper's combiner, which drains and *reopens* the queue before
    /// signalling done — re-closing the re-armed queue makes the next
    /// epoch's combiner exit early on the stale flag and silently discard
    /// pairs.
    fn settle(&mut self, unwound: bool) {
        if let (true, Some(tx)) = (unwound, &mut self.tx) {
            tx.finish();
        }
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
/// combines, or the error that fails the job.
type RoleOutcome<J> = Result<Option<phases::HashedPairs<J>>, RuntimeError>;

/// The one epoch loop every pooled thread runs, whatever its role: pin once,
/// then for each published epoch run `role` for exactly one job (see
/// [`run_role`]) and signal done.
///
/// `ends` are the queue ends the thread owns for the session's life. `role`
/// is one of the two role loops of `runtime.rs` with its arguments bound.
fn epoch_worker<J: MapReduceJob, E>(
    shared: &SessionShared<J>,
    slot: CpuSlot,
    mut ends: E,
    role: impl Fn(&mut E, &Epoch<'_, J>) -> RoleOutcome<J>,
    settle: impl Fn(&mut E, &Epoch<'_, J>, bool),
) {
    maybe_pin(shared.config.pin_os_threads, slot);
    let mut last = 0u64;
    while let Some(ptr) = shared.next_epoch(&mut last) {
        // SAFETY: `ptr` came from the epoch published for this iteration.
        // The coordinator armed `busy` to count this thread before it
        // published, and neither returns nor unwinds past the frame (nor
        // frees the job/input borrows smuggled through it) until `busy`
        // is zero again — `with_epoch`'s guard. This thread decrements
        // `busy` only at the bottom of this iteration, after its last use
        // of `frame`, `job` and `input`.
        let frame = unsafe { &*ptr.0 };
        let (job, input) = unsafe { (frame.job(), frame.input()) };
        run_role(&shared.config, frame, job, input, &mut ends, &role, &settle);
        shared.worker_done();
    }
}

/// Runs `role` for one epoch of `frame` (whose job and input are `job` and
/// `input`) on the calling thread — a pooled worker, or the caller running
/// mapper 0 — and files the outcome in the frame.
///
/// `role` yields the thread's combined partial (when its role combines) or
/// the error that fails the job, and runs under `catch_unwind` so a
/// panicking job cannot kill a pooled thread, nor unwind out of `submit`.
/// `settle` runs after it either way and is told whether it unwound: a role
/// loop closes its write-end only on its success path, and end-of-stream
/// must be signalled regardless.
fn run_role<J: MapReduceJob, E>(
    config: &RuntimeConfig,
    frame: &JobFrame<J>,
    job: &J,
    input: &[J::Input],
    ends: &mut E,
    role: impl Fn(&mut E, &Epoch<'_, J>) -> RoleOutcome<J>,
    settle: impl Fn(&mut E, &Epoch<'_, J>, bool),
) {
    let ctx = FaultCtx::new(
        config,
        frame.retry_safe,
        &frame.fault_log,
        &frame.cancel,
        frame.board.as_ref(),
    );
    let epoch = Epoch { frame, job, input, ctx };
    let result = catch_unwind(AssertUnwindSafe(|| role(ends, &epoch)));
    settle(ends, &epoch, result.is_err());
    match result {
        Ok(Ok(Some(pairs))) => relock(frame.partials.lock()).push(pairs),
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
            let caller = CallerRole { mapper: &mut session.caller, job: &job, input: &input };
            with_epoch(&session.shared, &frame, caller, || {
                while job.entered.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                panic!("supervisor exploded");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(job.inside.load(Ordering::SeqCst), 0);
        assert_eq!(*relock(session.shared.busy.lock()), 0);
        assert!(relock(session.shared.state.lock()).frame.is_none());
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
                let caller = CallerRole { mapper: &mut session.caller, job: &job, input: &input };
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    with_epoch(&session.shared, &frame, caller, || {
                        panic!("supervisor exploded at once")
                    })
                }));
                assert!(unwound.is_err(), "{case}");
                assert_eq!(*relock(session.shared.busy.lock()), 0, "{case}");
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
