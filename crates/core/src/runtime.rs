//! The decoupled map/combine runtime (paper §III, Fig 2): what each pool
//! thread does for one job — the one role loop that a mapper, a combiner
//! and a Phoenix worker all run, told apart only by their queue ends — and
//! the watchdog. The threads themselves live in `session.rs`, which hosts
//! this loop on its pools and assembles the [`EngineReport`](crate::EngineReport)
//! a job leaves behind from what each loop returns ([`Folded`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mr_core::{
    ContainerKind, Emitter, HasherKind, MapReduceJob, PushBackoff, RuntimeConfig, RuntimeError,
    TaskRange,
};
use phoenix_mr::{phases, TaskQueues};
use ramr_containers::{Hashed, HashedJobContainer, KeptContainer, PairFeed};
use ramr_spsc::{Consumer, Producer};
use ramr_telemetry::{BatchHistogram, FaultMetrics, ProgressBoard, ThreadRole, ThreadTelemetry};
use ramr_topology::{
    current_thread_affinity, pin_current_thread, set_current_thread_affinity, CpuSlot,
};

/// One element of a mapper's pipeline queue: the key with its hash computed
/// once at emission (the hash-once pipeline), plus the value.
pub(crate) type HashedPair<J> = (Hashed<<J as MapReduceJob>::Key>, <J as MapReduceJob>::Value);
/// The write half of one mapper's pipeline queue.
pub(crate) type PairProducer<J> = Producer<HashedPair<J>>;
/// The read half of one mapper's pipeline queue.
pub(crate) type PairConsumer<J> = Consumer<HashedPair<J>>;

/// One zero-progress combine round's wait, derived from the configured
/// backoff: spin for `spins` rounds after the last progress (data may be
/// one block away), then `park` — off the core a co-located mapper may
/// need — until a producer rings, with `sleep` as the ceiling.
fn idle_wait(backoff: PushBackoff, idle_rounds: u32, park: impl FnOnce(Duration)) {
    if idle_rounds > backoff.spins {
        park(backoff.sleep);
    } else {
        std::hint::spin_loop();
    }
}

/// How much a queue must hold before it is worth waking a parked combiner
/// for: a batch at least, and the high-water mark (half the ring)
/// where that is more. Each wake-up is a syscall on the *mapper's* critical path, so a combiner that
/// is mostly idle is woken once per half queue, not once per block; a queue
/// that closes wakes it regardless.
fn wake_at(batch: usize, config: &RuntimeConfig) -> usize {
    batch.max(config.queue_capacity / 2)
}

pub(crate) fn maybe_pin(enabled: bool, slot: CpuSlot) {
    if enabled {
        if let CpuSlot::Pinned(cpu) = slot {
            // Best-effort: the plan may target a machine model larger than
            // the actual host.
            let _ = pin_current_thread(cpu);
        }
    }
}

/// [`maybe_pin`] for a thread that is a pool member only for a while: the
/// thread that submits to a session runs its mapper 0, pinned to that
/// mapper's slot for the map-combine phase, and gets its own mask back when
/// this guard drops — on unwind too. A pin whose mask could not be saved is
/// not taken.
pub(crate) struct CallerPin(Option<Vec<usize>>);

impl CallerPin {
    pub(crate) fn enter(enabled: bool, slot: CpuSlot) -> Self {
        let saved = match slot {
            CpuSlot::Pinned(cpu) if enabled => {
                current_thread_affinity().ok().filter(|_| pin_current_thread(cpu).is_ok())
            }
            _ => None,
        };
        Self(saved)
    }
}

impl Drop for CallerPin {
    fn drop(&mut self) {
        if let Some(saved) = &self.0 {
            let _ = set_current_thread_affinity(saved);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: per-task retries, poison skipping and the pipeline
// watchdog.
// ---------------------------------------------------------------------------

/// How often the watchdog wakes to sample the progress board. Sleeping in
/// slices keeps teardown prompt: the watchdog notices the run's `done`
/// signal within one slice.
const WATCHDOG_SLICE: Duration = Duration::from_millis(5);

/// Per-run fault-tolerance context shared by every worker thread: the
/// retry/skip policy, the cooperative cancel flag the watchdog trips, and
/// (when a watchdog is armed) the progress board. Each thread records its
/// own retries and skips ([`Folded::faults`]). All
/// fields are inert at the default configuration, so the hot paths run
/// unchanged — no staging, no extra atomics.
pub(crate) struct FaultCtx<'a> {
    /// Panicked-task re-executions allowed per task.
    retries: u32,
    /// Whether a task that exhausts its retries is skipped (and recorded)
    /// instead of failing the run.
    skip_poison: bool,
    /// Staged (buffer-then-publish) task execution engages only when the
    /// job opted in via [`MapReduceJob::is_retry_safe`] *and* retries or
    /// skipping are configured.
    staged: bool,
    cancel: &'a AtomicBool,
    /// `Some` only when [`RuntimeConfig::watchdog`] armed one.
    board: Option<&'a ProgressBoard>,
}

impl<'a> FaultCtx<'a> {
    pub(crate) fn new(
        config: &RuntimeConfig,
        retry_safe: bool,
        cancel: &'a AtomicBool,
        board: Option<&'a ProgressBoard>,
    ) -> Self {
        Self {
            retries: config.max_task_retries,
            skip_poison: config.skip_poison_tasks,
            staged: retry_safe && (config.max_task_retries > 0 || config.skip_poison_tasks),
            cancel,
            board,
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records one unit of pipeline progress for thread `slot`: a task
    /// completed, a block flushed, a batch consumed. A no-op without a
    /// watchdog.
    fn progress(&self, slot: usize) {
        if let Some(board) = self.board {
            board.bump(slot);
        }
    }
}

/// Marks a thread live on the progress board for its whole scope. The drop
/// guard deregisters even on unwind, so a panicking worker never leaves the
/// watchdog counting a thread that is already gone.
struct LiveGuard<'a>(Option<&'a ProgressBoard>);

impl<'a> LiveGuard<'a> {
    fn enter(board: Option<&'a ProgressBoard>) -> Self {
        if let Some(b) = board {
            b.thread_started();
        }
        Self(board)
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.0 {
            b.thread_done();
        }
    }
}

/// The pipeline watchdog: samples the progress board until the run signals
/// `done`; if the board's total stops advancing for `period` while worker
/// threads are still live, it trips the cooperative cancel flag and returns
/// the [`RuntimeError::Stalled`] diagnosis.
///
/// Cancellation is *cooperative* — safe Rust cannot kill a thread — so a
/// wedged run only unwinds if its blocking points poll the flag. The
/// runtime's own waits all do (task claiming, combine rounds); user map code
/// can via [`Emitter::is_cancelled`], which every task's emitter is wired
/// to.
pub(crate) fn watchdog_loop(
    period: Duration,
    board: &ProgressBoard,
    labels: &[String],
    cancel: &AtomicBool,
    done: &AtomicBool,
) -> Option<RuntimeError> {
    let mut last_total = board.total();
    let mut last_change = Instant::now();
    loop {
        if done.load(Ordering::Acquire) {
            return None;
        }
        std::thread::sleep(WATCHDOG_SLICE.min(period));
        let total = board.total();
        if total != last_total || board.live_threads() == 0 {
            // Progress — or nothing left to watch (threads between phases).
            last_total = total;
            last_change = Instant::now();
            continue;
        }
        let idle = last_change.elapsed();
        if idle < period {
            continue;
        }
        cancel.store(true, Ordering::Release);
        let per_thread: Vec<String> = board
            .snapshot()
            .iter()
            .zip(labels)
            .map(|(count, label)| format!("{label}={count}"))
            .collect();
        let diagnostics = format!(
            "{} live worker thread(s); per-thread progress counts: {}",
            board.live_threads(),
            per_thread.join(" ")
        );
        return Some(RuntimeError::Stalled {
            phase: "map-combine".into(),
            idle_ms: idle.as_millis() as u64,
            diagnostics,
        });
    }
}

/// Runs one claimed map task, handing every emission to `sink`, and returns
/// the pairs it emitted — the one map-task body behind every thread that
/// maps (mapper, helping combiner, Phoenix worker), so all of them fail
/// alike.
///
/// Under [`FaultCtx::staged`] the emissions are staged per task and reach
/// `sink` only after the map call succeeds, so a panicked (and retried)
/// attempt publishes nothing; a task skipped as poison emits zero pairs. Its
/// retries and skip are recorded in `faults`.
/// Otherwise the map call feeds `sink` directly and a panic unwinds into the
/// caller. Either way the task runs through [`MapReduceJob::map_to`], with
/// `sink`'s own type, and its emitter carries the run's cancel flag.
fn run_task<J: MapReduceJob>(
    job: &J,
    task: &TaskRange,
    input: &[J::Input],
    ctx: &FaultCtx<'_>,
    faults: &mut FaultMetrics,
    mut sink: impl FnMut(J::Key, J::Value),
) -> u64 {
    if ctx.staged {
        let staged = phases::map_task_staged(
            job,
            task,
            input,
            ctx.retries,
            ctx.skip_poison,
            ctx.cancel,
            faults,
        );
        let Some((pairs, count)) = staged else { return 0 };
        for (key, value) in pairs {
            sink(key, value);
        }
        count
    } else {
        let mut emitter = Emitter::with_cancel(&mut sink, ctx.cancel);
        job.map_to(&input[task.start..task.end], &mut emitter);
        emitter.emitted()
    }
}

/// A decoupled mapper's end of its pipeline queue: the queue's write half
/// and the emit buffer, both kept by the session across its epochs so that
/// an epoch allocates neither, and what one epoch folded instead of queueing.
/// Whatever a cancelled or panicked epoch left in the buffer is discarded
/// when the next one starts.
pub(crate) struct WriteEnd<J: MapReduceJob> {
    pub(crate) tx: PairProducer<J>,
    buffer: Vec<HashedPair<J>>,
    /// Pairs this epoch's flushes folded into the mapper's own container.
    pub(crate) spilled: u64,
    /// This epoch's first fold error. Once set, every block is dropped and
    /// the mapper claims no further task.
    error: Option<RuntimeError>,
}

impl<J: MapReduceJob> WriteEnd<J> {
    pub(crate) fn new(tx: PairProducer<J>, emit_block: usize) -> Self {
        Self { tx, buffer: Vec::with_capacity(emit_block), spilled: 0, error: None }
    }

    /// Hands the emit buffer on, leaving it empty. **Lag-routed:** the block
    /// is published — what fits, with one tail update — only when the
    /// combiner has caught up: fewer than a batch of pairs unread, or the
    /// combiner parked on the queue with nothing to do. Otherwise, and for
    /// whatever did not fit, the mapper folds the pairs into its own
    /// container itself (DESIGN §6.4). Nothing waits and nothing is
    /// lost: a pair reaches a container by the queue or by the spill, and
    /// reduce merges both. A flush that spilled adds one to the row's
    /// `stall_events`. The publish is timed as `stalled`; the fold is combine
    /// work done on the map side, timed as `spill`, and part of the
    /// enclosing `busy`.
    #[inline(never)]
    fn flush(
        &mut self,
        fold: &mut Fold<'_, '_, J>,
        row: &mut ThreadTelemetry,
        config: &RuntimeConfig,
    ) {
        let occupied = self.buffer.len();
        if occupied == 0 || self.error.is_some() {
            self.buffer.clear();
            return;
        }
        if self.tx.len() < config.batch_size || self.tx.consumer_parked() {
            let publish_start = config.telemetry.then(Instant::now);
            self.tx.push_batch_drain(&mut self.buffer);
            if let Some(t) = publish_start {
                row.stalled += t.elapsed();
                row.batches += 1;
                row.occupancy.record(occupied, config.effective_emit_buffer());
            }
            if self.buffer.is_empty() {
                return;
            }
        }
        row.stall_events += 1;
        self.spilled += self.buffer.len() as u64;
        let fold_start = config.telemetry.then(Instant::now);
        // A combine panic unwinds from here out through the map call.
        if let Err(e) = fold.insert_from(&mut self.buffer) {
            self.error = Some(e);
            self.buffer.clear();
        }
        if let Some(t) = fold_start {
            row.spill += t.elapsed();
        }
    }
}

/// A role's combine container for one epoch. `kept` is the container this
/// thread's previous job in the session drained; it is taken over when it is
/// what this job would build anyway (see [`HashedJobContainer::reusing`]) —
/// a hash table then starts at the size the last job grew it to — and put
/// back only by [`drain`](Self::drain), so a job that ends in an error, a
/// panic or a cancellation drops the container with its pairs.
struct Fold<'a, 'j, J: MapReduceJob> {
    job: &'j J,
    config: &'a RuntimeConfig,
    kept: &'a mut Option<KeptContainer<J::Key, J::Value>>,
    container: Option<HashedJobContainer<'j, J>>,
}

impl<'j, J: MapReduceJob> Fold<'_, 'j, J> {
    /// The container, built on first use.
    fn container(&mut self) -> Result<&mut HashedJobContainer<'j, J>, RuntimeError> {
        match &mut self.container {
            Some(container) => Ok(container),
            empty @ None => {
                let (job, config) = (self.job, self.config);
                let kept = self.kept.take();
                let built = HashedJobContainer::reusing(
                    job,
                    config.container,
                    config.fixed_capacity,
                    kept,
                )?;
                Ok(empty.insert(built))
            }
        }
    }

    fn insert_from(&mut self, feed: impl PairFeed<J::Key, J::Value>) -> Result<(), RuntimeError> {
        self.container()?.insert_from(feed)
    }

    /// The job's pairs, with the emptied container back in `kept`. A
    /// cancelled run abandoned its queues and tasks: what the container
    /// holds is partial, nobody will read it, and it is dropped.
    fn drain(self, cancelled: bool) -> phases::HashedPairs<J> {
        let mut pairs = Vec::new();
        if let Some(container) = self.container.filter(|_| !cancelled) {
            *self.kept = Some(container.drain_to_keep(&mut pairs));
        }
        pairs
    }
}

/// One claimed map task as a [`PairFeed`]: every emission is hashed once and
/// handed straight to the container arm [`HashedJobContainer::insert_from`]
/// picked for the task. The task runs through [`MapReduceJob::map_to`], so a
/// job that overrides it gets a map loop with the hash and the arm inlined;
/// one that implements only `map` pays one indirect call per pair. Counts
/// the task's emissions into `emitted`, its retries and skip into `faults`.
struct TaskFeed<'a, 'c, J: MapReduceJob> {
    job: &'a J,
    task: &'a TaskRange,
    input: &'a [J::Input],
    ctx: &'a FaultCtx<'c>,
    faults: &'a mut FaultMetrics,
    /// `None` when the container is an array, which indexes by
    /// [`MapReduceJob::key_index`] and never reads a hash: the task's keys
    /// then carry 0 instead, also next to a combiner's queued pairs, which
    /// carry real ones. Nothing downstream reads it (buckets and reduce
    /// order by key alone). Hashing a `hg-dense` pair costs the worker about
    /// a tenth of its time.
    hasher: Option<HasherKind>,
    emitted: &'a mut u64,
}

impl<J: MapReduceJob> PairFeed<J::Key, J::Value> for TaskFeed<'_, '_, J> {
    fn feed(self, mut sink: impl FnMut(Hashed<J::Key>, J::Value)) {
        let (job, task, input, ctx, faults) =
            (self.job, self.task, self.input, self.ctx, self.faults);
        *self.emitted += match self.hasher {
            Some(hasher) => run_task(job, task, input, ctx, faults, |key, value| {
                sink(Hashed::wrap(hasher, key), value)
            }),
            None => run_task(job, task, input, ctx, faults, |key, value| {
                sink(Hashed::new(0, key), value)
            }),
        };
    }
}

/// One batched read in a combine round. While the mapper is still running
/// only full batches are taken (paper §III-A: "the buffer is divided into
/// blocks of elements that are processed contiguously"); once its queue is
/// `closed` — the flag must have been read *before* this call — whatever
/// remains is consumed, partial batches included. Returns the pairs taken.
fn pop_round<T: Send>(rx: &mut Consumer<T>, closed: bool, batch: usize, f: impl FnMut(T)) -> usize {
    if closed {
        rx.pop_batch(batch, f)
    } else if rx.pop_batch_exact(batch, f) {
        batch
    } else {
        0
    }
}

/// One [`pop_round`] as a [`PairFeed`]: the container picks its arm once and
/// the pop callback is that arm alone. The pairs taken land in `taken`.
struct BatchedRead<'a, T: Send> {
    rx: &'a mut Consumer<T>,
    closed: bool,
    batch: usize,
    taken: &'a mut usize,
}

impl<K: Send, V: Send> PairFeed<K, V> for BatchedRead<'_, (Hashed<K>, V)> {
    #[inline]
    fn feed(self, mut sink: impl FnMut(Hashed<K>, V)) {
        *self.taken = pop_round(self.rx, self.closed, self.batch, |(key, value)| sink(key, value));
    }
}

/// The one role loop (DESIGN §6.2): a combiner runs it over its
/// read-ends, a Phoenix worker over none, and a decoupled mapper over none
/// with a [`WriteEnd`]. Each round takes one batched read from every live
/// queue ([`pop_round`]). A round that took nothing claims a map task from
/// `home_group`. Without a write-end the task is folded *in place* with one
/// [`insert_from`](HashedJobContainer::insert_from) — every emission hashed
/// once ([`TaskFeed`]) and handed straight to the container, no emit buffer
/// and no queue crossing, as a Phoenix++ worker folds. With one, every
/// emission is hashed into the emit buffer, and each full buffer goes out
/// through [`WriteEnd::flush`]: to the queue while the combiner keeps up,
/// else into the mapper's own container. With neither a batch nor a task
/// the loop parks on its live queues, and with no live queue either it
/// ends. So a worker or a mapper claims tasks until there are none, and a
/// combiner maps exactly while it has nothing to read; its mapper, finding
/// it a batch behind meanwhile, folds its blocks itself (DESIGN §6.4). The
/// trigger is the thread's own idleness, so there is nothing to tune.
///
/// A mapper's last partial block goes out *before* its queue closes — the
/// combiner treats closed+empty as end-of-stream — and the queue is closed
/// with `finish` (rather than by a drop, which would lose the write half the
/// session re-arms for the next job) on every exit but an unwind, which the
/// session's settle covers.
///
/// A combine or map panic, or an insert error, leaves the loop — by
/// unwinding or by `?` — and fails the job: the session files the error and
/// drains the queues left unread. No mapper waits on this loop, so leaving
/// it early cannot wedge the epoch.
///
/// Fills its telemetry rows and returns them, in [`Folded`], with the pairs,
/// the spill count and the fault records; an error drops them. `reads` (a
/// combiner's row, `None` for a role without read-ends) gets the queue
/// reads: `items` consumed, `busy` the rounds that read, `stalled` the idle
/// rounds with their waits and `stall_events` their count, `batches` and
/// occupancy the batched reads. `tasks` (a mapper's or worker's row, or a
/// combiner's helper row) gets the map tasks: `items` emitted and `busy` the
/// task time; without a write-end `batches` are the tasks and occupancy their
/// fill relative to `task_size`, and the row never stalls. A mapper's row
/// instead counts its publishes in `batches` (occupancy relative to the emit
/// buffer) and their time in `stalled`, net of `busy`; its flushes that
/// spilled in `stall_events`, their folds' time in `spill`. Timers fire twice
/// per round and once per flush, never per pair.
///
/// Queues seen closed and drained are swapped behind `live`, so both the
/// rounds and the idle wait cover only queues that still owe data.
///
/// **Warm container:** see [`Fold`]. A role without a write-end builds its
/// container before the first round; a mapper builds it at its first spill.
#[allow(clippy::too_many_arguments)] // internal: mirrors the paper's knob list
pub(crate) fn fold_loop<J: MapReduceJob>(
    job: &J,
    input: &[J::Input],
    config: &RuntimeConfig,
    queues: &TaskQueues,
    home_group: usize,
    consumers: &mut [PairConsumer<J>],
    mut write: Option<&mut WriteEnd<J>>,
    kept: &mut Option<KeptContainer<J::Key, J::Value>>,
    mut tasks: ThreadTelemetry,
    mut reads: Option<ThreadTelemetry>,
    ctx: &FaultCtx<'_>,
    slot: usize,
) -> Result<Folded<J>, RuntimeError> {
    let _live = LiveGuard::enter(ctx.board);
    let telemetry = config.telemetry;
    let batch = config.batch_size;
    let emit_block = config.effective_emit_buffer();
    let wall_start = telemetry.then(Instant::now);
    let mut faults = FaultMetrics::default();
    if let Some(w) = write.as_deref_mut() {
        w.buffer.clear();
        w.buffer.reserve(emit_block);
        w.spilled = 0;
        w.error = None;
    }
    let result = (|| {
        let mut fold = Fold { job, config, kept, container: None };
        if write.is_none() {
            // Up front, not at the first insert: a job its container cannot
            // serve fails here even on empty input, on every backend.
            fold.container()?;
        }
        let hasher = (config.container != ContainerKind::Array).then_some(config.hasher);
        let mut idle_rounds = 0u32;
        let mut live = consumers.len();
        // Watchdog cancellation abandons the job: the run is being torn down
        // and its partial results discarded.
        while !ctx.cancelled() {
            let round_start = telemetry.then(Instant::now);
            let mut progressed = false;
            let mut next = 0;
            while next < live {
                let rx = &mut consumers[next];
                // Read the close flag BEFORE consuming: a queue observed
                // closed and then drained to empty can never produce again
                // (the producer's pushes all happen before its close).
                let closed = rx.is_closed();
                let mut taken = 0;
                fold.insert_from(BatchedRead { rx, closed, batch, taken: &mut taken })?;
                if taken > 0 {
                    progressed = true;
                    ctx.progress(slot);
                    // Only a role with read-ends gets here, and it has a row.
                    if let Some(reads) = &mut reads {
                        reads.items += taken as u64;
                        if telemetry {
                            reads.batches += 1;
                            reads.occupancy.record(taken, batch);
                        }
                    }
                }
                if closed && rx.is_empty() {
                    live -= 1;
                    consumers.swap(next, live);
                } else {
                    next += 1;
                }
            }
            if progressed {
                idle_rounds = 0;
                if let (Some(t), Some(reads)) = (round_start, &mut reads) {
                    reads.busy += t.elapsed();
                }
                continue;
            }
            // `is_exhausted` is loads only, so polling it every idle round
            // after hand-out ends writes nothing the claimers share.
            let task = if queues.is_exhausted() { None } else { queues.claim(home_group) };
            if let Some(task) = task {
                if let Some(w) = write.as_deref_mut() {
                    let stalled_before = tasks.stalled;
                    let emitted = run_task(job, task, input, ctx, &mut faults, |key, value| {
                        // Hash once, here at emission: the carried hash rides
                        // the queue and is reused by combine, bucketing and
                        // reduce.
                        w.buffer.push((Hashed::wrap(config.hasher, key), value));
                        if w.buffer.len() >= emit_block {
                            w.flush(&mut fold, &mut tasks, config);
                            ctx.progress(slot);
                        }
                    });
                    tasks.items += emitted;
                    if let Some(t) = round_start {
                        // Useful map time: the round minus the publish time
                        // its emissions accrued.
                        tasks.busy += t.elapsed().saturating_sub(tasks.stalled - stalled_before);
                    }
                    if let Some(e) = w.error.take() {
                        return Err(e);
                    }
                } else {
                    let (emitted, faults) = (&mut tasks.items, &mut faults);
                    fold.insert_from(TaskFeed { job, task, input, ctx, faults, hasher, emitted })?;
                    if let Some(t) = round_start {
                        tasks.busy += t.elapsed();
                        tasks.batches += 1;
                        tasks.occupancy.record(task.end - task.start, config.task_size);
                    }
                }
                ctx.progress(slot);
                idle_rounds = 0;
                continue;
            }
            if live == 0 {
                break;
            }
            idle_rounds = idle_rounds.saturating_add(1);
            idle_wait(config.push_backoff, idle_rounds, |ceiling| {
                PairConsumer::<J>::wait_any(&consumers[..live], wake_at(batch, config), ceiling)
            });
            if let Some(reads) = &mut reads {
                reads.stall_events += 1;
                if let Some(t) = round_start {
                    // The wait is inside the measured round, so idle time
                    // lands in `stalled`, and the thread's rows' busy +
                    // stalled track its wall-clock.
                    reads.stalled += t.elapsed();
                }
            }
        }
        if let Some(w) = write.as_deref_mut() {
            // The final flush, timed like a task.
            let stalled_before = tasks.stalled;
            let flush_start = telemetry.then(Instant::now);
            w.flush(&mut fold, &mut tasks, config);
            if let Some(t) = flush_start {
                tasks.busy += t.elapsed().saturating_sub(tasks.stalled - stalled_before);
            }
            if let Some(e) = w.error.take() {
                return Err(e);
            }
        }
        Ok(fold.drain(ctx.cancelled()))
    })();
    let spilled = write.map_or(0, |w| {
        w.tx.finish();
        w.spilled
    });
    if let Some(t) = wall_start {
        tasks.wall = t.elapsed();
        if let Some(reads) = &mut reads {
            reads.wall = tasks.wall;
        }
    }
    Ok(Folded { pairs: result?, tasks, reads, spilled, faults })
}

/// What one role's [`fold_loop`] hands over for one epoch.
pub(crate) struct Folded<J: MapReduceJob> {
    /// The pairs its container holds.
    pub(crate) pairs: phases::HashedPairs<J>,
    /// Its map tasks' row: a mapper's, a worker's or a combiner's helper row.
    pub(crate) tasks: ThreadTelemetry,
    /// Its queue reads' row: a combiner's; a mapper or worker has none.
    pub(crate) reads: Option<ThreadTelemetry>,
    /// Pairs a mapper's flushes folded into its own container.
    pub(crate) spilled: u64,
    /// The retries and skips of its staged tasks.
    pub(crate) faults: FaultMetrics,
}

/// A row of zeros for thread `index` of the `role` pool, for [`fold_loop`]
/// to fill.
pub(crate) fn empty_row(role: ThreadRole, index: usize) -> ThreadTelemetry {
    ThreadTelemetry {
        role,
        index,
        busy: Duration::ZERO,
        stalled: Duration::ZERO,
        spill: Duration::ZERO,
        wall: Duration::ZERO,
        items: 0,
        stall_events: 0,
        batches: 0,
        occupancy: BatchHistogram::default(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::{PoisonError, RwLock};

    use super::*;
    use crate::{Backend, EngineOutput, EngineReport, EngineSession};
    use mr_core::PhaseKind;
    use ramr_telemetry::{combine_throughput, pool_throughput, ThreadRole, ThreadTelemetry};
    use ramr_topology::MachineModel;

    /// Held shared by every session [`run_once`] and [`run_phoenix`] open,
    /// and exclusively by `telemetry_overhead_is_bounded_on_mod9` while it
    /// times, so no other session of this module competes for the CPUs then.
    static CPUS: RwLock<()> = RwLock::new(());

    /// A fresh run: opens a session, submits once and drops it.
    fn run_once<J: MapReduceJob + 'static>(
        cfg: RuntimeConfig,
        job: &J,
        input: &[J::Input],
    ) -> Result<EngineOutput<J>, RuntimeError> {
        let _shared = CPUS.read().unwrap_or_else(PoisonError::into_inner);
        Ok(Backend::RamrStatic.session(cfg)?.submit(job, input)?.into_parts())
    }

    struct Mod9;

    impl MapReduceJob for Mod9 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 9, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn name(&self) -> &str {
            "mod9"
        }
    }

    fn reference(input: &[u64]) -> Vec<(u64, u64)> {
        let mut sums = std::collections::BTreeMap::new();
        for &x in input {
            *sums.entry(x % 9).or_insert(0u64) += x;
        }
        sums.into_iter().collect()
    }

    /// The mapper rows: the mapper pool, then the combiners' helper rows.
    fn mapper_rows(report: &EngineReport) -> impl Iterator<Item = &ThreadTelemetry> {
        report.threads.iter().filter(|t| t.role != ThreadRole::Combiner)
    }

    /// The combiner rows: pairs each combiner read from its queues.
    fn combiner_rows(report: &EngineReport) -> impl Iterator<Item = &ThreadTelemetry> {
        report.threads.iter().filter(|t| t.role == ThreadRole::Combiner)
    }

    /// Pairs emitted, by the mappers and by combiners mapping in place.
    fn emitted(report: &EngineReport) -> u64 {
        mapper_rows(report).map(|t| t.items).sum()
    }

    /// Pairs folded into containers: read from a queue, helped, or spilled.
    fn folded(report: &EngineReport) -> u64 {
        combiner_rows(report).map(|t| t.items).sum::<u64>() + report.helped + report.spilled
    }

    fn config(workers: usize, combiners: usize) -> RuntimeConfig {
        RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(combiners)
            .task_size(17)
            .queue_capacity(64)
            .batch_size(8)
            .num_reducers(3)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_sequential_reference() {
        let input: Vec<u64> = (1..=20_000).collect();
        let (out, _) = run_once(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
    }

    #[test]
    fn all_container_kinds_agree() {
        let input: Vec<u64> = (0..5000).map(|i| i * 31 % 4096).collect();
        let expected = reference(&input);
        for kind in ContainerKind::ALL {
            let mut cfg = config(3, 3);
            cfg.container = kind;
            let out = run_once(cfg, &Mod9, &input).unwrap().0;
            assert_eq!(out.pairs, expected, "container {kind}");
        }
    }

    #[test]
    fn ratio_sweep_preserves_results() {
        let input: Vec<u64> = (0..10_000).collect();
        let expected = reference(&input);
        for (workers, combiners) in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 2), (8, 8)] {
            let out = run_once(config(workers, combiners), &Mod9, &input).unwrap().0;
            assert_eq!(out.pairs, expected, "workers={workers} combiners={combiners}");
        }
    }

    #[test]
    fn batch_size_sweep_preserves_results() {
        let input: Vec<u64> = (0..8000).collect();
        let expected = reference(&input);
        for batch in [1usize, 2, 7, 16, 33, 64] {
            let mut cfg = config(4, 2);
            cfg.batch_size = batch;
            let out = run_once(cfg, &Mod9, &input).unwrap().0;
            assert_eq!(out.pairs, expected, "batch={batch}");
        }
    }

    #[test]
    fn emit_buffer_sweep_preserves_results_and_conservation() {
        let input: Vec<u64> = (0..8000).collect();
        let expected = reference(&input);
        // The emit block is the batch: 1 = element-wise, 2, the test
        // default (8), and queue_capacity (64).
        for emit in [1usize, 2, 8, 64] {
            let mut cfg = config(4, 2);
            cfg.batch_size = emit;
            let (out, report) = run_once(cfg, &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "emit_buffer={emit}");
            let emitted = emitted(&report);
            assert_eq!(emitted, 8000, "emit_buffer={emit}");
            assert_eq!(folded(&report), emitted, "conservation with emit_buffer={emit}");
        }
    }

    #[test]
    fn element_wise_emit_buffer_matches_default() {
        let input: Vec<u64> = (0..12_000).map(|i| i * 13 % 5000).collect();
        let mut element_wise = config(4, 2);
        element_wise.batch_size = 1;
        let a = run_once(element_wise, &Mod9, &input).unwrap().0;
        let b = run_once(config(4, 2), &Mod9, &input).unwrap().0;
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn tiny_queue_capacity_forces_blocking_but_stays_correct() {
        let input: Vec<u64> = (0..5000).collect();
        let mut cfg = config(4, 1);
        cfg.queue_capacity = 2;
        cfg.batch_size = 2;
        let (out, report) = run_once(cfg, &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        let full_events: u64 = mapper_rows(&report).map(|t| t.stall_events).sum();
        assert!(full_events > 0, "a 2-element queue must overflow with 5000 pushes");
        // Every flush that found its combiner behind folded at least one
        // pair itself.
        assert!(report.spilled >= full_events, "{report:?}");
        assert_eq!(folded(&report), 5000, "conservation with the overflow folded by the mappers");
    }

    #[test]
    fn empty_input_terminates_cleanly() {
        let (out, _) = run_once(config(4, 2), &Mod9, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.emitted, 0);
    }

    #[test]
    fn mapper_panic_is_surfaced_and_does_not_hang() {
        struct Panics;
        impl MapReduceJob for Panics {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {
                panic!("mapper exploded");
            }
            fn combine(&self, _: &mut u64, _: u64) {}
            fn key_space(&self) -> Option<usize> {
                Some(1)
            }
            fn key_index(&self, _: &u64) -> usize {
                0
            }
        }
        let err = run_once(config(2, 1), &Panics, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("mapper exploded")));
    }

    #[test]
    fn container_overflow_drains_pipeline_and_reports() {
        let mut cfg = config(4, 2);
        cfg.container = ContainerKind::FixedHash;
        cfg.fixed_capacity = Some(2);
        let input: Vec<u64> = (0..10_000).collect(); // 9 distinct keys > 2
        let err = run_once(cfg, &Mod9, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }));
    }

    #[test]
    fn placement_is_inspectable() {
        let session = EngineSession::<Mod9>::open(
            Backend::RamrStatic,
            config(8, 4),
            MachineModel::fig3_demo(),
        )
        .unwrap();
        let plan = session.placement();
        assert_eq!(plan.num_mappers(), 8);
        assert_eq!(plan.num_combiners(), 4);
        assert_eq!(session.machine().name, "fig3-demo");
    }

    #[test]
    fn stats_report_phase_times_and_counters() {
        let input: Vec<u64> = (0..50_000).collect();
        let out = run_once(config(4, 2), &Mod9, &input).unwrap().0;
        assert_eq!(out.stats.emitted, 50_000);
        assert_eq!(out.stats.output_keys, 9);
        assert!(out.stats.map_combine > Duration::ZERO);
        // The map-combine phase dominates for this job shape (Fig 1).
        assert!(out.stats.fraction(PhaseKind::MapCombine) > 0.3);
    }

    #[test]
    fn run_report_accounts_for_every_pair() {
        let input: Vec<u64> = (0..40_000).collect();
        let (out, report) = run_once(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        // The four mappers, then one row per combiner that mapped in place.
        let rows: Vec<&ThreadTelemetry> = mapper_rows(&report).collect();
        let indexes: Vec<usize> = rows.iter().map(|t| t.index).collect();
        assert_eq!(indexes[..4], [0, 1, 2, 3]);
        assert!(indexes[4..].iter().all(|&i| i == 4 || i == 5), "{indexes:?}");
        assert!(rows.len() <= 4 + 2);
        assert_eq!(rows[4..].iter().map(|t| t.items).sum::<u64>(), report.helped);
        assert_eq!(combiner_rows(&report).count(), 2);
        assert_eq!(report.spilled_per_mapper.len(), 4);
        assert_eq!(report.spilled_per_mapper.iter().sum::<u64>(), report.spilled);
        let emitted = emitted(&report);
        assert_eq!(emitted, 40_000, "every input element emits once");
        assert_eq!(out.stats.emitted, emitted);
        assert_eq!(folded(&report), emitted, "conservation: all pairs folded, by either route");
        assert_eq!(report.consumed, emitted);
        assert_eq!(report.plan.expect("a decoupled run has a plan").num_mappers(), 4);
    }

    /// Opaque busy-work whose loop the optimizer cannot elide; used to give
    /// synthetic jobs a controllable map/combine cost.
    fn spin_work(iters: u64) -> u64 {
        let mut acc = iters.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..iters {
            acc = std::hint::black_box(acc.rotate_left(7) ^ 0xabcd_ef01);
        }
        acc
    }

    /// A job with tunable per-element map cost and per-pair combine cost.
    struct Synthetic {
        map_work: u64,
        combine_work: u64,
    }

    impl MapReduceJob for Synthetic {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                std::hint::black_box(spin_work(self.map_work));
                emit.emit(x % 16, 1);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            std::hint::black_box(spin_work(self.combine_work));
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(16)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }
    }

    #[test]
    fn telemetry_accounts_for_thread_wall_clock() {
        // Busy + stalled must track each thread's own wall-clock — for a
        // combiner that mapped in place, together with the busy time of its
        // helper row: the only untimed work is task claiming and loop
        // bookkeeping. Use a job with real map and combine cost so the run
        // is long enough for the 10% bound to be meaningful.
        let input: Vec<u64> = (0..60_000).collect();
        let mut cfg = config(4, 2);
        cfg.task_size = 1000;
        cfg.queue_capacity = 1024;
        cfg.batch_size = 64;
        let job = Synthetic { map_work: 40, combine_work: 40 };
        let (_, report) = run_once(cfg, &job, &input).unwrap();
        let slack = Duration::from_millis(2);
        let (mappers, rest) = report.threads.split_at(4);
        let helpers: Vec<&ThreadTelemetry> =
            rest.iter().filter(|t| t.role == ThreadRole::Mapper).collect();
        for t in mappers.iter().chain(combiner_rows(&report)) {
            assert!(t.wall > Duration::ZERO, "telemetry on: wall must be recorded for {t:?}");
            let help = helpers
                .iter()
                .find(|h| t.role == ThreadRole::Combiner && h.index == 4 + t.index)
                .map_or(Duration::ZERO, |h| {
                    assert_eq!((h.wall, h.stalled), (t.wall, Duration::ZERO), "{h:?}");
                    h.busy
                });
            let accounted = t.busy + t.stalled + help;
            assert!(
                accounted <= t.wall + slack,
                "{}[{}]: busy+stalled {accounted:?} exceeds wall {:?}",
                t.role,
                t.index,
                t.wall
            );
            assert!(
                accounted + slack >= Duration::from_secs_f64(t.wall.as_secs_f64() * 0.9),
                "{}[{}]: busy+stalled {accounted:?} under 90% of wall {:?}",
                t.role,
                t.index,
                t.wall
            );
        }
        // Every combiner batch lands in the occupancy histogram.
        let batches: u64 = combiner_rows(&report).map(|t| t.batches).sum();
        let recorded: u64 = combiner_rows(&report).map(|t| t.occupancy.total()).sum();
        assert!(batches > 0, "combiners must have consumed batched reads");
        assert_eq!(recorded, batches);
    }

    #[test]
    fn suggested_ratio_tracks_relative_throughput_direction() {
        // The paper's criterion: a light combine lets one combiner serve
        // many mappers (high ratio); a heavy combine pulls the suggestion
        // back toward 1:1. Compare the two directions on the same shape.
        // The heavy combine leaves the combiner behind, so the mappers fold
        // part of the job themselves; the direction must hold with those
        // folds counted as combine work (DESIGN §6.8).
        let input: Vec<u64> = (0..40_000).collect();
        let mut cfg = config(2, 1);
        cfg.task_size = 500;
        cfg.queue_capacity = 1024;
        cfg.batch_size = 64;
        let run = |job: &Synthetic| {
            let (_, report) = run_once(cfg.clone(), job, &input).unwrap();
            let ratio = report.suggested_ratio.expect("telemetry on: ratio must be derivable");
            (ratio, report)
        };
        let (light_combine, _) = run(&Synthetic { map_work: 150, combine_work: 0 });
        let (heavy_combine, heavy) = run(&Synthetic { map_work: 0, combine_work: 150 });
        assert!(heavy.spilled_per_mapper.iter().sum::<u64>() > 0, "{heavy:?}");
        assert!(mapper_rows(&heavy).any(|t| !t.spill.is_zero()), "{heavy:?}");
        assert_eq!(heavy_combine, 1, "combine slower than map clamps to the 1:1 floor: {heavy:?}");
        assert!(
            light_combine > heavy_combine,
            "cheap combine must suggest a higher ratio: light={light_combine} \
             heavy={heavy_combine}"
        );
    }

    #[test]
    fn telemetry_disabled_still_reports_exact_counters() {
        let input: Vec<u64> = (0..20_000).collect();
        let mut cfg = config(4, 2);
        cfg.telemetry = false;
        let (out, report) = run_once(cfg, &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        let emitted = emitted(&report);
        assert_eq!(emitted, 20_000);
        assert_eq!(folded(&report), emitted);
        for t in &report.threads {
            assert_eq!(t.busy, Duration::ZERO);
            assert_eq!(t.stalled, Duration::ZERO);
            assert_eq!(t.wall, Duration::ZERO);
        }
        let mappers: Vec<ThreadTelemetry> = mapper_rows(&report).cloned().collect();
        assert_eq!(pool_throughput(&mappers), None);
        assert_eq!(report.suggested_ratio, None);
    }

    #[test]
    fn telemetry_overhead_is_bounded_on_mod9() {
        // Acceptance bound: instrumented wall-clock ≤ 5% over the
        // counter-stubbed baseline (telemetry = false) on Mod9 at 1M
        // elements. Interleave the measurements and keep the minimum of
        // each so scheduler noise cancels; the structural overhead is a
        // handful of Instant reads per task/flush/round, far below 5%.
        // The session has one thread per CPU, and no other session of
        // this module runs while it is timed.
        let input: Vec<u64> = (0..1_000_000).collect();
        let cpus = std::thread::available_parallelism().map_or(2, |n| n.get()).max(2);
        let mut cfg = config(cpus - 1, 1);
        cfg.task_size = 4096;
        cfg.queue_capacity = 5000;
        cfg.batch_size = 1000;
        let mut stubbed = cfg.clone();
        stubbed.telemetry = false;
        let _alone = CPUS.write().unwrap_or_else(PoisonError::into_inner);
        let time_one = |cfg: &RuntimeConfig| {
            let start = Instant::now();
            let out = Backend::RamrStatic.session(cfg.clone()).unwrap().submit(&Mod9, &input);
            let out = out.unwrap().into_parts().0;
            let elapsed = start.elapsed();
            assert_eq!(out.stats.emitted, 1_000_000);
            elapsed
        };
        let mut best_on = Duration::MAX;
        let mut best_off = Duration::MAX;
        for _ in 0..5 {
            best_off = best_off.min(time_one(&stubbed));
            best_on = best_on.min(time_one(&cfg));
        }
        let bound =
            Duration::from_secs_f64(best_off.as_secs_f64() * 1.05) + Duration::from_millis(4);
        assert!(
            best_on <= bound,
            "telemetry overhead too high: instrumented {best_on:?} vs stubbed {best_off:?} \
             (bound {bound:?})"
        );
    }

    #[test]
    fn spill_folds_count_as_combine_work_in_the_ratio() {
        // Map runs at 100 k pairs/s, combine at 400 k: one combiner keeps
        // up with four mappers. The mapper mapped 10 000 pairs in 100 ms and
        // folded 6 000 of them itself in 15 ms; the combiner read the other
        // 4 000 in 10 ms. Counting the folds as map time would read map at
        // 87 k pairs/s and combine at 400 k, and suggest 5.
        let thread = |role, busy_ms, spill_ms, items| ThreadTelemetry {
            role,
            index: 0,
            busy: Duration::from_millis(busy_ms),
            stalled: Duration::ZERO,
            spill: Duration::from_millis(spill_ms),
            wall: Duration::from_millis(busy_ms),
            items,
            stall_events: 0,
            batches: 0,
            occupancy: Default::default(),
        };
        let threads = [
            thread(ThreadRole::Mapper, 115, 15, 10_000),
            thread(ThreadRole::Combiner, 10, 0, 4_000),
        ];
        let map = pool_throughput(&threads[..1]).unwrap();
        let combine = combine_throughput(&threads, 6_000).unwrap();
        assert!((map - 100_000.0).abs() < 1e-6);
        assert!((combine - 400_000.0).abs() < 1e-6);
        assert_eq!(ramr_telemetry::suggested_ratio(map, combine), 4);
    }

    #[test]
    fn run_report_flags_back_pressure_on_tiny_queues() {
        let input: Vec<u64> = (0..20_000).collect();
        let mut cfg = config(4, 1);
        cfg.queue_capacity = 2;
        cfg.batch_size = 2;
        let (_, report) = run_once(cfg, &Mod9, &input).unwrap();
        // Each mapper row counts the flushes that found its combiner behind.
        let full_events: u64 = mapper_rows(&report).map(|t| t.stall_events).sum();
        assert!(full_events > 0, "2-slot queues must report back-pressure");
    }

    #[test]
    fn agrees_with_phoenix_baseline() {
        let input: Vec<u64> = (0..30_000).map(|i| i * 7 % 10_000).collect();
        let ramr_out = run_once(config(4, 2), &Mod9, &input).unwrap().0;
        let phoenix = Backend::Phoenix.session(config(4, 4)).unwrap().submit(&Mod9, &input);
        let phoenix = phoenix.unwrap().output;
        assert_eq!(ramr_out.pairs, reference(&input));
        assert_eq!(phoenix.pairs, reference(&input));
    }

    #[test]
    fn static_run_records_no_adaptation() {
        let input: Vec<u64> = (0..5000).collect();
        let engine = Backend::RamrStatic.engine(config(4, 2)).unwrap();
        let report = crate::Engine::submit(&engine, &Mod9, &input).unwrap().report;
        assert!(report.adaptation.is_empty(), "no controller, no trace");
    }

    // --- Fault tolerance ---------------------------------------------------

    /// Mod9 with one poison task: the task containing `poison` panics on
    /// its first `fail_attempts` executions — after emitting, so a broken
    /// retry path would double-count pairs into the pipeline.
    struct FlakyMod9 {
        poison: u64,
        fail_attempts: u32,
        attempts: AtomicU32,
    }

    impl FlakyMod9 {
        fn new(poison: u64, fail_attempts: u32) -> Self {
            Self { poison, fail_attempts, attempts: AtomicU32::new(0) }
        }
    }

    impl MapReduceJob for FlakyMod9 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 9, x);
            }
            if task.contains(&self.poison) {
                let attempt = 1 + self.attempts.fetch_add(1, Ordering::SeqCst);
                if attempt <= self.fail_attempts {
                    panic!("flaky task tripped");
                }
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn is_retry_safe(&self) -> bool {
            true
        }
    }

    #[test]
    fn retries_recover_transient_poison_task_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        let mut cfg = config(4, 2);
        cfg.max_task_retries = 2;
        let (out, report) = run_once(cfg, &FlakyMod9::new(40, 2), &input).unwrap();
        assert_eq!(out.pairs, reference(&input), "retried pairs count once");
        assert_eq!(report.faults.retries, 2);
        assert!(report.faults.skipped.is_empty());
        assert!(report.faults.summary().unwrap().contains("retr"));
    }

    #[test]
    fn exhausted_retries_without_skip_fail_fast_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        let mut cfg = config(4, 2);
        cfg.max_task_retries = 1;
        let err = run_once(cfg, &FlakyMod9::new(40, u32::MAX), &input).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("flaky task")),
            "got {err}"
        );
    }

    #[test]
    fn skip_poison_tasks_completes_with_the_skip_recorded_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        // Element 40 sits at index 40 → task [34, 51) at task_size 17: the
        // split is task-aligned while 6 · 17 = 102 or more elements remain.
        let surviving: Vec<u64> = input.iter().copied().filter(|x| !(34..51).contains(x)).collect();
        let mut cfg = config(4, 2);
        cfg.max_task_retries = 1;
        cfg.skip_poison_tasks = true;
        let (out, report) = run_once(cfg, &FlakyMod9::new(40, u32::MAX), &input).unwrap();
        assert_eq!(out.pairs, reference(&surviving), "only the poison task missing");
        assert_eq!(report.faults.skipped.len(), 1);
        let skip = &report.faults.skipped[0];
        assert_eq!((skip.start, skip.end), (34, 51));
        assert_eq!(skip.attempts, 2, "initial attempt + one retry");
        assert!(skip.message.contains("flaky task"), "{}", skip.message);
    }

    #[test]
    fn retries_are_ignored_for_jobs_that_do_not_opt_in() {
        struct Unsafe(FlakyMod9);
        impl MapReduceJob for Unsafe {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
                self.0.map(task, emit);
            }
            fn combine(&self, acc: &mut u64, v: u64) {
                self.0.combine(acc, v);
            }
            fn key_space(&self) -> Option<usize> {
                Some(9)
            }
            fn key_index(&self, k: &u64) -> usize {
                *k as usize
            }
            // is_retry_safe stays at its default: false.
        }
        let input: Vec<u64> = (0..1000).collect();
        let mut cfg = config(4, 2);
        cfg.max_task_retries = 5;
        cfg.skip_poison_tasks = true;
        let err = run_once(cfg, &Unsafe(FlakyMod9::new(40, u32::MAX)), &input).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(_)),
            "a non-retry-safe job must keep fail-fast semantics, got {err}"
        );
    }

    /// Wedges on the task containing element 40 until cancelled — the
    /// cooperative never-returning task the watchdog exists for.
    struct HangsOnPoison;

    impl MapReduceJob for HangsOnPoison {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            if task.contains(&40) {
                while !emit.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return;
            }
            for &x in task {
                emit.emit(x % 9, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }
    }

    #[test]
    fn watchdog_cancels_wedged_runs_with_a_stall_diagnosis_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        let mut cfg = config(2, 1);
        cfg.watchdog = Some(Duration::from_millis(200));
        let started = Instant::now();
        let err = run_once(cfg, &HangsOnPoison, &input).unwrap_err();
        let elapsed = started.elapsed();
        match err {
            RuntimeError::Stalled { ref phase, idle_ms, ref diagnostics } => {
                assert_eq!(phase, "map-combine");
                assert!(idle_ms >= 200, "idle_ms={idle_ms}");
                assert!(
                    diagnostics.contains("mapper[") && diagnostics.contains("live worker"),
                    "diagnostics must name threads: {diagnostics}"
                );
            }
            other => panic!("expected Stalled, got {other}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "watchdog must cancel promptly, took {elapsed:?}"
        );
    }

    #[test]
    fn default_runs_report_clean_fault_metrics() {
        let input: Vec<u64> = (0..5000).collect();
        let (_, report) = run_once(config(4, 2), &Mod9, &input).unwrap();
        assert!(report.faults.is_clean(), "{:?}", report.faults);
        assert_eq!(report.faults.summary(), None);
    }

    // --- Phoenix sessions: `fold_loop` over no queues -----------------------

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

    fn mod7_reference(input: &[u64]) -> Vec<(u64, u64)> {
        let mut sums = [0u64; 7];
        for &x in input {
            sums[(x % 7) as usize] += x;
        }
        (0..7).filter(|&k| sums[k as usize] != 0).map(|k| (k, sums[k as usize])).collect()
    }

    fn phoenix_config(workers: usize, kind: ContainerKind) -> RuntimeConfig {
        RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(workers)
            .task_size(13)
            .container(kind)
            .num_reducers(3)
            .build()
            .unwrap()
    }

    /// One job on a Phoenix session opened for it and dropped after.
    fn run_phoenix<J: MapReduceJob + 'static>(
        cfg: RuntimeConfig,
        job: &J,
        input: &[J::Input],
    ) -> Result<crate::EngineOutcome<J>, RuntimeError> {
        let _shared = CPUS.read().unwrap_or_else(PoisonError::into_inner);
        Backend::Phoenix.session::<J>(cfg)?.submit(job, input)
    }

    #[test]
    fn matches_sequential_reference_all_containers() {
        let input: Vec<u64> = (1..=10_000).collect();
        for kind in ContainerKind::ALL {
            let out = run_phoenix(phoenix_config(4, kind), &Mod7, &input).unwrap().output;
            assert_eq!(out.pairs, mod7_reference(&input), "container {kind}");
        }
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let out = run_phoenix(phoenix_config(2, ContainerKind::Array), &Mod7, &[]).unwrap().output;
        assert!(out.is_empty());
        assert_eq!(out.stats.tasks, 0);
    }

    #[test]
    fn single_worker_equals_many_workers() {
        let input: Vec<u64> = (0..5000).map(|i| i * 37 % 1013).collect();
        let one = run_phoenix(phoenix_config(1, ContainerKind::Hash), &Mod7, &input).unwrap();
        let many = run_phoenix(phoenix_config(8, ContainerKind::Hash), &Mod7, &input).unwrap();
        assert_eq!(one.output.pairs, many.output.pairs);
    }

    #[test]
    fn stats_count_tasks_and_emissions() {
        let input: Vec<u64> = (0..100).collect();
        let out =
            run_phoenix(phoenix_config(2, ContainerKind::Array), &Mod7, &input).unwrap().output;
        // Six tasks of 13 while 2 · 13 or more elements remain, then the
        // last 22 cut as 6, 4, 3, 3, 2, 1, 1, 1, 1.
        assert_eq!(out.stats.tasks, 15);
        assert_eq!(out.stats.emitted, 100);
        assert_eq!(out.stats.output_keys, 7);
        assert!(out.stats.total() > Duration::ZERO);
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
        let err = run_phoenix(phoenix_config(2, ContainerKind::Hash), &Panics, &[1, 2, 3]);
        let err = err.unwrap_err();
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
        let input: Vec<u64> = (0..100).collect(); // 7 distinct keys > capacity 3
        let err = run_phoenix(cfg, &Mod7, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 3, .. }));
    }

    #[test]
    fn report_accounts_emissions_and_wall_clock() {
        let input: Vec<u64> = (1..=10_000).collect();
        let outcome = run_phoenix(phoenix_config(4, ContainerKind::Hash), &Mod7, &input).unwrap();
        let (out, report) = outcome.into_parts();
        assert_eq!(out.pairs, mod7_reference(&input));
        assert_eq!(report.threads.len(), 4);
        let items: u64 = report.threads.iter().map(|t| t.items).sum();
        let tasks: u64 = report.threads.iter().map(|t| t.batches).sum();
        assert_eq!(items, 10_000);
        // 766 tasks of 13 while 4 · 13 or more elements remain, then the
        // last 42 cut into 18.
        assert_eq!(tasks, 784);
        for t in &report.threads {
            assert_eq!(t.role, ThreadRole::Worker);
            // Inline map+combine never stalls; busy stays within wall.
            assert_eq!(t.stalled, Duration::ZERO);
            assert!(t.busy <= t.wall + Duration::from_millis(1));
            assert_eq!(t.occupancy.total(), t.batches);
        }
        assert!(ramr_telemetry::pool_throughput(&report.threads).unwrap() > 0.0);
    }

    #[test]
    fn telemetry_toggle_zeroes_timing_but_keeps_counters() {
        let input: Vec<u64> = (1..=2_000).collect();
        let mut cfg = phoenix_config(2, ContainerKind::Hash);
        cfg.telemetry = false;
        let report = run_phoenix(cfg, &Mod7, &input).unwrap().report;
        let items: u64 = report.threads.iter().map(|t| t.items).sum();
        assert_eq!(items, 2_000);
        for t in &report.threads {
            assert_eq!(t.busy, Duration::ZERO);
            assert_eq!(t.wall, Duration::ZERO);
        }
        assert_eq!(ramr_telemetry::pool_throughput(&report.threads), None);
    }

    /// Mod7 with one poison task: the task containing `poison` panics on
    /// its first `fail_attempts` executions — *after* emitting, so a broken
    /// retry path would double-count. Keyed by task content, which makes
    /// the fault deterministic regardless of which worker claims the task.
    struct FlakyMod7 {
        poison: u64,
        fail_attempts: u32,
        attempts: AtomicU32,
        retry_safe: bool,
    }

    impl FlakyMod7 {
        fn new(poison: u64, fail_attempts: u32) -> Self {
            Self { poison, fail_attempts, attempts: AtomicU32::new(0), retry_safe: true }
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
                let attempt = 1 + self.attempts.fetch_add(1, Ordering::SeqCst);
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
        let mut cfg = phoenix_config(2, ContainerKind::Hash);
        cfg.max_task_retries = 2;
        let (out, report) = run_phoenix(cfg, &FlakyMod7::new(20, 2), &input).unwrap().into_parts();
        assert_eq!(out.pairs, mod7_reference(&input), "retried emissions must count exactly once");
        assert_eq!(report.faults.retries, 2);
        assert!(report.faults.skipped.is_empty());
    }

    #[test]
    fn exhausted_retries_without_skip_fail_fast() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = phoenix_config(2, ContainerKind::Hash);
        cfg.max_task_retries = 1;
        let err = run_phoenix(cfg, &FlakyMod7::new(20, u32::MAX), &input).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("poison task")));
    }

    #[test]
    fn skip_poison_tasks_completes_and_records_the_skip() {
        let input: Vec<u64> = (1..=100).collect();
        let mut cfg = phoenix_config(2, ContainerKind::Hash);
        cfg.max_task_retries = 1;
        cfg.skip_poison_tasks = true;
        let (out, report) =
            run_phoenix(cfg, &FlakyMod7::new(20, u32::MAX), &input).unwrap().into_parts();
        // Element 20 sits at index 19, i.e. in task [13, 26) at task_size
        // 13 (the split is task-aligned while 2 · 13 or more elements
        // remain) — exactly that slice's contribution is missing.
        let surviving: Vec<u64> = input
            .iter()
            .enumerate()
            .filter(|(i, _)| !(13..26).contains(i))
            .map(|(_, &x)| x)
            .collect();
        assert_eq!(out.pairs, mod7_reference(&surviving));
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
        let mut cfg = phoenix_config(2, ContainerKind::Hash);
        cfg.max_task_retries = 3;
        cfg.skip_poison_tasks = true;
        let mut job = FlakyMod7::new(20, u32::MAX);
        job.retry_safe = false;
        let err = run_phoenix(cfg, &job, &input).unwrap_err();
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
        let input: Vec<u64> = (0..9).collect();
        let out = run_phoenix(phoenix_config(3, ContainerKind::Hash), &Doubler, &input);
        assert_eq!(out.unwrap().output.pairs, vec![(0, 6), (1, 6), (2, 6)]);
    }
}
