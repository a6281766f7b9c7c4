//! Concurrent job scheduler over a shared pooled session.
//!
//! [`EngineSession::submit`] takes `&mut self`: one caller, one job at a
//! time. This module puts a scheduler between many client threads and that
//! hard-serialized epoch protocol. Cloneable [`JobClient`] handles enqueue
//! jobs from any thread into a **bounded submission queue**; a single
//! dispatcher thread owns the [`EngineSession`] and drives its epochs one
//! by one, picking the next job by **policy**:
//!
//! * **FIFO** ([`SchedPolicyKind::Fifo`]) — strict arrival order. Simple,
//!   but a tenant flooding the queue starves light tenants behind it.
//! * **Weighted fair-share** ([`SchedPolicyKind::Fair`]) — stride
//!   scheduling across named tenants: each dispatch advances the chosen
//!   tenant's virtual *pass* by `1/weight`, and the tenant with the
//!   smallest pass runs next, so dispatch counts stay proportional to
//!   weights no matter who floods.
//!
//! Admission control is layered on top: the queue bound **delays** blocking
//! [`JobClient::submit`] calls when full, a per-tenant in-flight quota
//! ([`RuntimeConfig::sched_quota`]) bounds any one tenant's share of it,
//! and [`JobClient::try_submit`] **sheds** load outright — when the queue
//! or quota is exhausted, and also while the scheduler is *saturated*
//! (the watchdog cancelled the previous epoch as stalled and no epoch has
//! completed cleanly since).
//!
//! Fault isolation follows from the session's own epoch isolation (the
//! pools recover from a failed job): a panicking or poisoned job fails only
//! the [`JobTicket`] that submitted it; queued jobs from other tenants run
//! next and the queue never wedges.
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//! use ramr::{Backend, JobScheduler};
//! use std::sync::Arc;
//!
//! struct Count;
//! impl MapReduceJob for Count {
//!     type Input = u64;
//!     type Key = u64;
//!     type Value = u64;
//!     fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
//!         for &x in task {
//!             emit.emit(x % 5, 1);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//!     fn key_space(&self) -> Option<usize> {
//!         Some(5)
//!     }
//!     fn key_index(&self, k: &u64) -> usize {
//!         *k as usize
//!     }
//! }
//!
//! let config = RuntimeConfig::builder().num_workers(2).num_combiners(1).build()?;
//! let sched = JobScheduler::<Count>::new(Backend::RamrStatic, config)?;
//! let client = sched.client("alice");
//! let input: Arc<Vec<u64>> = Arc::new((0..100).collect());
//! let ticket = client.submit(Arc::new(Count), input).unwrap();
//! let done = ticket.wait().unwrap();
//! assert_eq!(done.output.pairs.iter().map(|&(_, v)| v).sum::<u64>(), 100);
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use mr_core::{JobOutput, MapReduceJob, RuntimeConfig, RuntimeError, SchedPolicyKind};

use crate::engine::{Backend, EngineReport};
use crate::session::EngineSession;

/// One stride unit: a tenant's pass advances by `STRIDE_ONE / weight` per
/// dispatched job, so a weight-3 tenant accumulates pass a third as fast —
/// and therefore dispatches three times as often — as a weight-1 tenant.
const STRIDE_ONE: u64 = 1 << 20;

/// Why `try_submit` shed a job — the typed admission-control verdict.
///
/// Carried by the shedding [`SchedError`] variants (via
/// [`SchedError::shed_reason`]), counted per tenant in [`TenantStats`],
/// and mapped onto the wire by the service layer's `RETRY_AFTER`
/// response. The reasons call for different client reactions:
/// a full queue clears as epochs complete (retry soon), a drained rate
/// bucket refills on its own clock (pace yourself), an exhausted
/// quota clears when *this tenant's* jobs finish (wait for your own
/// tickets first), and saturation clears only when the pipeline proves
/// itself healthy again (back off hardest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded submission queue is at capacity.
    QueueFull,
    /// The tenant's token-bucket rate limit is drained. The scheduler
    /// itself never sheds for this reason; admission layers stacked above
    /// it (the service layer's per-tenant rate limiter) refuse the job
    /// before it reaches the queue and account it via
    /// [`JobClient::record_shed`].
    RateLimited,
    /// The submitting tenant holds its full in-flight quota.
    Quota,
    /// The watchdog cancelled the previous epoch and no epoch has
    /// completed cleanly since.
    Saturated,
}

impl ShedReason {
    /// Every reason, in severity order (mildest first).
    pub const ALL: [ShedReason; 4] =
        [ShedReason::QueueFull, ShedReason::RateLimited, ShedReason::Quota, ShedReason::Saturated];

    /// The canonical kebab-case name (`queue-full` / `rate-limited` /
    /// `quota` / `saturated`), as used in wire responses and the CLI
    /// table.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::RateLimited => "rate-limited",
            ShedReason::Quota => "quota",
            ShedReason::Saturated => "saturated",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a submission was refused or a ticket did not complete.
#[derive(Debug)]
pub enum SchedError {
    /// The bounded submission queue is full ([`JobClient::try_submit`]
    /// sheds; the blocking [`JobClient::submit`] waits instead).
    QueueFull {
        /// The configured queue capacity ([`RuntimeConfig::sched_queue`]).
        capacity: usize,
    },
    /// The tenant already holds its full in-flight quota
    /// ([`RuntimeConfig::sched_quota`]) of queued plus running jobs.
    QuotaExceeded {
        /// The tenant that hit its cap.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// The scheduler is saturated: the watchdog cancelled the previous
    /// epoch as stalled and no epoch has completed cleanly since, so
    /// [`JobClient::try_submit`] sheds new load instead of piling onto a
    /// struggling pipeline.
    Saturated,
    /// The scheduler was dropped; the job was not (or will not be) run.
    Shutdown,
    /// The job ran and failed with the session's error; other tenants'
    /// jobs are unaffected.
    Job(RuntimeError),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs)")
            }
            SchedError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant:?} holds its full in-flight quota of {quota} job(s)")
            }
            SchedError::Saturated => {
                f.write_str("scheduler saturated: last epoch stalled; load is being shed")
            }
            SchedError::Shutdown => f.write_str("scheduler shut down before the job ran"),
            SchedError::Job(err) => write!(f, "job failed: {err}"),
        }
    }
}

impl SchedError {
    /// The typed shed reason, when this error is an admission-control
    /// refusal; `None` for [`SchedError::Shutdown`] and
    /// [`SchedError::Job`], which mean the job was accepted (or the
    /// scheduler is gone), not shed.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            SchedError::QueueFull { .. } => Some(ShedReason::QueueFull),
            SchedError::QuotaExceeded { .. } => Some(ShedReason::Quota),
            SchedError::Saturated => Some(ShedReason::Saturated),
            SchedError::Shutdown | SchedError::Job(_) => None,
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Job(err) => Some(err),
            _ => None,
        }
    }
}

/// A finished job: its output and report plus the scheduler-side timings
/// the fairness benches compare.
pub struct CompletedJob<J: MapReduceJob> {
    /// The (final stage's) key-sorted reduced output.
    pub output: JobOutput<J::Key, J::Value>,
    /// The backend-independent run report (the final stage's, for chains).
    pub report: EngineReport,
    /// Time the job spent queued before the dispatcher picked it.
    pub queued: Duration,
    /// Time the dispatcher spent running it — all stages, for chains.
    pub ran: Duration,
    /// Session epochs this ticket consumed: 1 for plain jobs, the round
    /// count for [`JobClient::submit_chain`] submissions.
    pub rounds: usize,
}

// Manual impl: deriving would demand `J: Debug`, which jobs never need.
impl<J: MapReduceJob> std::fmt::Debug for CompletedJob<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletedJob")
            .field("keys", &self.output.pairs.len())
            .field("queued", &self.queued)
            .field("ran", &self.ran)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

/// Per-tenant accounting, snapshot via [`JobScheduler::tenant_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's name.
    pub tenant: String,
    /// The weight the dispatch policy applied to this tenant.
    pub weight: u32,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that ran to a successful output.
    pub completed: u64,
    /// Jobs that ran and failed (panic, stall, overflow, ...).
    pub failed: u64,
    /// `try_submit` calls refused by admission control (the sum of the
    /// per-reason counters below).
    pub shed: u64,
    /// Sheds because the submission queue was at capacity.
    pub shed_queue_full: u64,
    /// Sheds recorded by an admission layer above the scheduler because
    /// the tenant's rate bucket was drained (see
    /// [`JobClient::record_shed`]).
    pub shed_rate_limited: u64,
    /// Sheds because this tenant held its full in-flight quota.
    pub shed_quota: u64,
    /// Sheds because the scheduler was saturated (watchdog-stalled epoch
    /// with no clean completion since).
    pub shed_saturated: u64,
    /// Total time this tenant's jobs spent queued.
    pub queue_wait: Duration,
    /// Longest single queue wait.
    pub max_queue_wait: Duration,
    /// Total epoch time this tenant's jobs consumed.
    pub run_time: Duration,
}

impl TenantStats {
    /// The shed count attributed to one [`ShedReason`].
    pub fn shed_by(&self, reason: ShedReason) -> u64 {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full,
            ShedReason::RateLimited => self.shed_rate_limited,
            ShedReason::Quota => self.shed_quota,
            ShedReason::Saturated => self.shed_saturated,
        }
    }

    fn record_shed(&mut self, reason: ShedReason) {
        self.shed += 1;
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::RateLimited => self.shed_rate_limited += 1,
            ShedReason::Quota => self.shed_quota += 1,
            ShedReason::Saturated => self.shed_saturated += 1,
        }
    }
}

/// A chain continuation: maps the 1-based round number and that round's
/// output to the next round's job, or `None` when the chain is done.
type ChainNext<J> = Box<
    dyn FnMut(
            usize,
            &JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>,
        ) -> Option<Arc<J>>
        + Send,
>;

/// What one queue entry executes: a single epoch, or an iterative chain
/// of epochs dispatched back-to-back as one schedulable unit.
enum Work<J: MapReduceJob> {
    /// One job, one epoch.
    Single(Arc<J>),
    /// An iterative pipeline: after each round the continuation receives
    /// the 1-based round number and that round's output and returns the
    /// next round's job — or `None` when the chain is done. All rounds run
    /// consecutively on the dispatcher's session (warm pools) and are
    /// charged to the tenant as `rounds` stride steps, so fair-share stays
    /// proportional to epochs consumed, not tickets submitted.
    Chain { job: Arc<J>, next: ChainNext<J> },
}

/// One queued job with its completion ticket.
struct Queued<J: MapReduceJob> {
    work: Work<J>,
    input: Arc<Vec<J::Input>>,
    ticket: Arc<Ticket<J>>,
    seq: u64,
    enqueued: Instant,
    /// Caller-chosen execution tag; recorded in the scheduler's execution
    /// ledger the moment the dispatcher claims the job.
    tag: Option<String>,
}

struct TenantState<J: MapReduceJob> {
    queue: VecDeque<Queued<J>>,
    /// Jobs handed to the dispatcher but not yet completed.
    running: usize,
    /// Stride-scheduling virtual time; only consulted under `Fair`.
    pass: u64,
    stats: TenantStats,
}

impl<J: MapReduceJob> TenantState<J> {
    fn in_flight(&self) -> usize {
        self.queue.len() + self.running
    }
}

struct SchedState<J: MapReduceJob> {
    tenants: BTreeMap<String, TenantState<J>>,
    /// Queued jobs across all tenants (bounded by `sched_queue`).
    queued: usize,
    /// Global arrival counter; FIFO dispatch order and the fair-share
    /// within-tenant order.
    next_seq: u64,
    /// Pass of the most recently dispatched tenant — the scheduler's
    /// virtual clock. A tenant going idle→active re-enters at this clock
    /// (not its stale pass), so sleeping never banks credit.
    virtual_pass: u64,
    /// Set when an epoch returns [`RuntimeError::Stalled`], cleared by the
    /// next epoch that completes without stalling.
    saturated: bool,
    /// Tags of every dispatched job, in claim order — the ground truth the
    /// wire-resilience tests audit for exactly-once execution. Only tagged
    /// submissions (see [`JobClient::try_submit_tagged`]) are recorded.
    executions: Vec<String>,
    shutdown: bool,
}

struct Shared<J: MapReduceJob> {
    state: Mutex<SchedState<J>>,
    /// Submitters park here for queue space or quota headroom.
    space: Condvar,
    /// The dispatcher parks here for work.
    work: Condvar,
    config: RuntimeConfig,
}

/// Locks tolerant of poisoning: a panic elsewhere must not cascade.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Ticket<J: MapReduceJob> {
    slot: Mutex<Option<Result<CompletedJob<J>, SchedError>>>,
    done: Condvar,
}

impl<J: MapReduceJob> Ticket<J> {
    fn fulfil(&self, outcome: Result<CompletedJob<J>, SchedError>) {
        *relock(&self.slot) = Some(outcome);
        self.done.notify_all();
    }
}

/// A handle on one submitted job; redeem it with [`JobTicket::wait`].
pub struct JobTicket<J: MapReduceJob> {
    inner: Arc<Ticket<J>>,
}

impl<J: MapReduceJob> std::fmt::Debug for JobTicket<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = relock(&self.inner.slot).is_some();
        f.debug_struct("JobTicket").field("done", &done).finish()
    }
}

impl<J: MapReduceJob> JobTicket<J> {
    /// Blocks until the job completes and returns its outcome.
    ///
    /// # Errors
    ///
    /// [`SchedError::Job`] when the job ran and failed,
    /// [`SchedError::Shutdown`] when the scheduler was dropped first.
    pub fn wait(self) -> Result<CompletedJob<J>, SchedError> {
        let mut slot = relock(&self.inner.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.inner.done.wait(slot).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A cloneable, `Send` submission handle bound to one named tenant.
///
/// Obtained from [`JobScheduler::client`]; any number of clones may submit
/// concurrently from any thread.
pub struct JobClient<J: MapReduceJob> {
    shared: Arc<Shared<J>>,
    tenant: String,
}

impl<J: MapReduceJob> Clone for JobClient<J> {
    fn clone(&self) -> Self {
        JobClient { shared: Arc::clone(&self.shared), tenant: self.tenant.clone() }
    }
}

impl<J: MapReduceJob> std::fmt::Debug for JobClient<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobClient").field("tenant", &self.tenant).finish_non_exhaustive()
    }
}

impl<J: MapReduceJob> JobClient<J> {
    /// The tenant this handle submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Enqueues a job, **delaying** (blocking) while the submission queue
    /// is full or the tenant's quota is exhausted.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the scheduler is dropped while
    /// waiting.
    pub fn submit(
        &self,
        job: Arc<J>,
        input: Arc<Vec<J::Input>>,
    ) -> Result<JobTicket<J>, SchedError> {
        self.enqueue(Work::Single(job), input, true, None)
    }

    /// Enqueues an iterative pipeline as **one** schedulable unit: the
    /// dispatcher runs `job`, hands each round's output to `next` (with
    /// the 1-based round number), and keeps dispatching the jobs it
    /// returns back-to-back on the warm session until `next` returns
    /// `None`. The ticket resolves with the final round's output and
    /// report, and the tenant is charged one fair-share stride step *per
    /// round*, so a 10-round chain costs its tenant exactly what 10
    /// separate submissions would.
    ///
    /// Delays (blocks) exactly like [`JobClient::submit`]. The round count
    /// is capped by [`RuntimeConfig::pipeline_max_stages`]; a chain that
    /// asks for more fails its ticket with
    /// [`RuntimeError::InvalidConfig`].
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the scheduler is dropped while
    /// waiting.
    pub fn submit_chain<F>(
        &self,
        job: Arc<J>,
        input: Arc<Vec<J::Input>>,
        next: F,
    ) -> Result<JobTicket<J>, SchedError>
    where
        F: FnMut(usize, &JobOutput<J::Key, J::Value>) -> Option<Arc<J>> + Send + 'static,
    {
        self.enqueue(Work::Chain { job, next: Box::new(next) }, input, true, None)
    }

    /// Enqueues a job without blocking, **shedding** when admission
    /// control refuses it.
    ///
    /// # Errors
    ///
    /// [`SchedError::QueueFull`] / [`SchedError::QuotaExceeded`] /
    /// [`SchedError::Saturated`] when the load was shed — each carries a
    /// typed [`ShedReason`] via [`SchedError::shed_reason`] and is counted
    /// per reason in the tenant's [`TenantStats`] — or
    /// [`SchedError::Shutdown`] when the scheduler is gone.
    pub fn try_submit(
        &self,
        job: Arc<J>,
        input: Arc<Vec<J::Input>>,
    ) -> Result<JobTicket<J>, SchedError> {
        self.enqueue(Work::Single(job), input, false, None)
    }

    /// [`JobClient::try_submit`], but stamps the job with an execution
    /// `tag` that the dispatcher appends to the scheduler's execution
    /// ledger ([`JobScheduler::execution_ledger`]) the moment it claims
    /// the job. The service layer tags each wire submission with its
    /// tenant-scoped `request_id`, making "every request executed exactly
    /// once" auditable against the scheduler's own record.
    ///
    /// # Errors
    ///
    /// Exactly as [`JobClient::try_submit`].
    pub fn try_submit_tagged(
        &self,
        job: Arc<J>,
        input: Arc<Vec<J::Input>>,
        tag: &str,
    ) -> Result<JobTicket<J>, SchedError> {
        self.enqueue(Work::Single(job), input, false, Some(tag.to_string()))
    }

    /// Counts a shed that happened in an admission layer stacked *above*
    /// the scheduler (e.g. the service layer's per-tenant token-bucket
    /// rate limiter) into this tenant's [`TenantStats`], so one snapshot
    /// reports the full admission picture regardless of which layer
    /// refused the job.
    pub fn record_shed(&self, reason: ShedReason) {
        let mut state = relock(&self.shared.state);
        tenant_entry(&mut state, &self.shared.config, &self.tenant).stats.record_shed(reason);
    }

    fn enqueue(
        &self,
        work: Work<J>,
        input: Arc<Vec<J::Input>>,
        block: bool,
        tag: Option<String>,
    ) -> Result<JobTicket<J>, SchedError> {
        let shared = &self.shared;
        let quota = shared.config.sched_quota;
        let capacity = shared.config.sched_queue;
        let mut state = relock(&shared.state);
        loop {
            if state.shutdown {
                return Err(SchedError::Shutdown);
            }
            let refusal = {
                let tenant = tenant_entry(&mut state, &shared.config, &self.tenant);
                if quota > 0 && tenant.in_flight() >= quota {
                    Some(SchedError::QuotaExceeded { tenant: self.tenant.clone(), quota })
                } else {
                    None
                }
            }
            .or(if state.queued >= capacity {
                Some(SchedError::QueueFull { capacity })
            } else if !block && state.saturated {
                Some(SchedError::Saturated)
            } else {
                None
            });
            match refusal {
                None => break,
                Some(err) if !block => {
                    let reason = err.shed_reason().expect("refusals are always shed errors");
                    tenant_entry(&mut state, &shared.config, &self.tenant)
                        .stats
                        .record_shed(reason);
                    return Err(err);
                }
                // Saturation never reaches here (it only sheds try_submit):
                // a blocking submit delays on queue space and quota alone.
                Some(_) => {
                    state =
                        shared.space.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
        let ticket = Arc::new(Ticket { slot: Mutex::new(None), done: Condvar::new() });
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queued += 1;
        let virtual_pass = state.virtual_pass;
        let tenant = tenant_entry(&mut state, &shared.config, &self.tenant);
        if tenant.queue.is_empty() {
            // Re-entering the active set: catch up to the virtual clock so
            // time spent idle is not banked as dispatch credit.
            tenant.pass = tenant.pass.max(virtual_pass);
        }
        tenant.stats.submitted += 1;
        tenant.queue.push_back(Queued {
            work,
            input,
            ticket: Arc::clone(&ticket),
            seq,
            enqueued: Instant::now(),
            tag,
        });
        shared.work.notify_one();
        Ok(JobTicket { inner: ticket })
    }
}

/// Finds or creates the tenant's state, weighting it per the policy.
fn tenant_entry<'a, J: MapReduceJob>(
    state: &'a mut SchedState<J>,
    config: &RuntimeConfig,
    name: &str,
) -> &'a mut TenantState<J> {
    if !state.tenants.contains_key(name) {
        let stats = TenantStats {
            tenant: name.to_string(),
            weight: config.sched_policy.weight_of(name),
            ..TenantStats::default()
        };
        state.tenants.insert(
            name.to_string(),
            TenantState { queue: VecDeque::new(), running: 0, pass: state.virtual_pass, stats },
        );
    }
    state.tenants.get_mut(name).expect("tenant just inserted")
}

/// The scheduler: owns the dispatcher thread that owns the session.
///
/// Dropping it shuts the queue down: jobs not yet dispatched complete
/// their tickets with [`SchedError::Shutdown`], the in-flight epoch (if
/// any) finishes, and the session's worker pools are torn down.
pub struct JobScheduler<J: MapReduceJob + Send + 'static> {
    shared: Arc<Shared<J>>,
    backend: Backend,
    dispatcher: Option<thread::JoinHandle<()>>,
}

impl<J: MapReduceJob + Send + 'static> std::fmt::Debug for JobScheduler<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler").field("backend", &self.backend).finish_non_exhaustive()
    }
}

impl<J: MapReduceJob + Send + 'static> JobScheduler<J> {
    /// Opens a pooled session for `backend` on a dedicated dispatcher
    /// thread and starts scheduling.
    ///
    /// The session is constructed *on* the dispatcher thread (worker
    /// pools, placement and queues live there for the scheduler's whole
    /// life); construction errors are reported back synchronously.
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::session`] validation/spawn errors, and
    /// [`RuntimeError::Spawn`] when the dispatcher thread itself cannot be
    /// spawned.
    pub fn new(backend: Backend, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                tenants: BTreeMap::new(),
                queued: 0,
                next_seq: 0,
                virtual_pass: 0,
                saturated: false,
                executions: Vec::new(),
                shutdown: false,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            config: config.clone(),
        });
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), RuntimeError>>();
        let thread_shared = Arc::clone(&shared);
        let dispatcher = thread::Builder::new()
            .name("ramr-sched".into())
            .spawn(move || {
                let session = match backend.session::<J>(config) {
                    Ok(session) => {
                        let _ = ready_tx.send(Ok(()));
                        session
                    }
                    Err(err) => {
                        let _ = ready_tx.send(Err(err));
                        return;
                    }
                };
                dispatch_loop(&thread_shared, session);
            })
            .map_err(|e| RuntimeError::Spawn(format!("ramr-sched dispatcher: {e}")))?;
        let ready = ready_rx
            .recv()
            .unwrap_or_else(|_| Err(RuntimeError::Spawn("dispatcher died during setup".into())));
        if let Err(err) = ready {
            let _ = dispatcher.join();
            return Err(err);
        }
        Ok(JobScheduler { shared, backend, dispatcher: Some(dispatcher) })
    }

    /// Which backend the shared session executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The scheduler's configuration (queue bound, policy, quota, and the
    /// runtime knobs the session was built with).
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// A submission handle for `tenant`. Any number of handles (and
    /// clones) may submit concurrently; handles for the same tenant share
    /// its queue, quota and stats.
    pub fn client(&self, tenant: &str) -> JobClient<J> {
        JobClient { shared: Arc::clone(&self.shared), tenant: tenant.to_string() }
    }

    /// A snapshot of every tenant's accounting, in tenant-name order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let state = relock(&self.shared.state);
        state.tenants.values().map(|t| t.stats.clone()).collect()
    }

    /// Jobs currently queued (accepted but not yet dispatched), across
    /// all tenants. A live gauge for the service layer's telemetry.
    pub fn queue_depth(&self) -> usize {
        relock(&self.shared.state).queued
    }

    /// The configured submission-queue bound
    /// ([`RuntimeConfig::sched_queue`]).
    #[allow(clippy::misnamed_getters)] // capacity of the queue; the knob is named sched_queue
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.sched_queue
    }

    /// The execution ledger: the tag of every tagged job the dispatcher
    /// has claimed for execution, in claim order. Jobs submitted without
    /// a tag (plain [`JobClient::submit`] / [`JobClient::try_submit`])
    /// are not recorded. The wire-resilience suite cross-checks this
    /// against the set of submitted `request_id`s to prove exactly-once
    /// execution under connection churn.
    pub fn execution_ledger(&self) -> Vec<String> {
        relock(&self.shared.state).executions.clone()
    }

    /// Whether the scheduler is currently saturated: the watchdog
    /// cancelled the last epoch as stalled and no epoch has completed
    /// cleanly since, so [`JobClient::try_submit`] is shedding.
    pub fn is_saturated(&self) -> bool {
        relock(&self.shared.state).saturated
    }
}

impl<J: MapReduceJob + Send + 'static> Drop for JobScheduler<J> {
    fn drop(&mut self) {
        {
            let mut state = relock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        self.drain_queued();
    }
}

/// Picks the next tenant to dispatch from, by policy. Returns the tenant
/// name, or `None` when no tenant has queued work.
fn pick_tenant<J: MapReduceJob>(state: &SchedState<J>, kind: SchedPolicyKind) -> Option<String> {
    let active = state.tenants.iter().filter(|(_, t)| !t.queue.is_empty());
    match kind {
        // Oldest arrival anywhere wins.
        SchedPolicyKind::Fifo => active
            .min_by_key(|(_, t)| t.queue.front().map_or(u64::MAX, |q| q.seq))
            .map(|(name, _)| name.clone()),
        // Smallest pass wins; arrival order breaks ties deterministically.
        SchedPolicyKind::Fair => active
            .min_by_key(|(_, t)| (t.pass, t.queue.front().map_or(u64::MAX, |q| q.seq)))
            .map(|(name, _)| name.clone()),
    }
}

/// The dispatcher: repeatedly picks a queued job by policy, runs it as one
/// session epoch, and fulfils its ticket. Runs until shutdown; on exit,
/// fulfils every still-queued ticket with [`SchedError::Shutdown`].
fn dispatch_loop<J: MapReduceJob + Send + 'static>(
    shared: &Shared<J>,
    mut session: EngineSession<J>,
) {
    let kind = shared.config.sched_policy.kind;
    loop {
        // Phase 1: wait for work and claim one job. Shutdown wins over
        // queued work — abandoned jobs are drained to `Shutdown` tickets
        // by the scheduler's `Drop`.
        let (tenant, queued) = {
            let mut state = relock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(name) = pick_tenant(&state, kind) {
                    let tenant = state.tenants.get_mut(&name).expect("picked tenant exists");
                    let queued = tenant.queue.pop_front().expect("picked tenant has work");
                    tenant.running += 1;
                    let pass = tenant.pass;
                    let stride = STRIDE_ONE / u64::from(tenant.stats.weight.max(1));
                    if kind == SchedPolicyKind::Fair {
                        // Stride step: advance the tenant's pass and the
                        // scheduler's virtual clock.
                        tenant.pass = pass.saturating_add(stride);
                        state.virtual_pass = state.virtual_pass.max(pass);
                    }
                    state.queued -= 1;
                    if let Some(tag) = &queued.tag {
                        // Claimed for execution: the ledger entry is made
                        // here, under the state lock, so a tag can never
                        // be recorded twice or dropped between claim and
                        // run.
                        state.executions.push(tag.clone());
                    }
                    // A queue slot freed: wake delayed submitters.
                    shared.space.notify_all();
                    break (name, queued);
                }
                state = shared.work.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        // Phase 2: run the epoch(s) outside the scheduler lock. A chain
        // runs all its rounds back-to-back here, on the same warm session,
        // so the whole pipeline is one schedulable unit.
        let Queued { work, input, ticket, enqueued, .. } = queued;
        let waited = enqueued.elapsed();
        let started = Instant::now();
        let (outcome, rounds) = run_work(&shared.config, &mut session, work, &input);
        let ran = started.elapsed();

        // Phase 3: account, update saturation, fulfil the ticket.
        let stalled = outcome.as_ref().err().is_some_and(is_stalled);
        {
            let mut state = relock(&shared.state);
            state.saturated = stalled;
            let tenant = state.tenants.get_mut(&tenant).expect("running tenant exists");
            tenant.running -= 1;
            tenant.stats.queue_wait += waited;
            tenant.stats.max_queue_wait = tenant.stats.max_queue_wait.max(waited);
            tenant.stats.run_time += ran;
            match &outcome {
                Ok(_) => tenant.stats.completed += 1,
                Err(_) => tenant.stats.failed += 1,
            }
            if kind == SchedPolicyKind::Fair && rounds > 1 {
                // Chains consumed `rounds` epochs but phase 1 charged one
                // stride step; charge the remainder so dispatch share stays
                // proportional to epochs consumed, not tickets claimed.
                let stride = STRIDE_ONE / u64::from(tenant.stats.weight.max(1));
                let extra = stride.saturating_mul(rounds as u64 - 1);
                tenant.pass = tenant.pass.saturating_add(extra);
                let pass = tenant.pass;
                state.virtual_pass = state.virtual_pass.max(pass);
            }
            // Quota headroom freed: wake delayed submitters.
            shared.space.notify_all();
        }
        ticket.fulfil(
            outcome
                .map(|done| CompletedJob {
                    output: done.output,
                    report: done.report,
                    queued: waited,
                    ran,
                    rounds,
                })
                .map_err(SchedError::Job),
        );
    }
}

/// Whether an epoch (possibly wrapped in a chain's stage attribution)
/// stalled — the signal that flips the scheduler saturated.
fn is_stalled(err: &RuntimeError) -> bool {
    match err {
        RuntimeError::Stalled { .. } => true,
        RuntimeError::StageFailed { source, .. } => is_stalled(source),
        _ => false,
    }
}

/// Runs one queue entry on the dispatcher's session: one epoch for
/// [`Work::Single`], every round of a [`Work::Chain`] consecutively.
/// Returns the final outcome plus the number of epochs consumed (for
/// fair-share charging, counted even on failure).
fn run_work<J: MapReduceJob + 'static>(
    config: &RuntimeConfig,
    session: &mut EngineSession<J>,
    work: Work<J>,
    input: &[J::Input],
) -> (Result<crate::engine::EngineOutcome<J>, RuntimeError>, usize) {
    match work {
        Work::Single(job) => (session.submit(&job, input), 1),
        Work::Chain { mut job, mut next } => {
            let cap = config.pipeline_max_stages;
            let mut round = 0usize;
            let result = loop {
                round += 1;
                match session.submit(&*job, input) {
                    Ok(outcome) => match next(round, &outcome.output) {
                        None => break Ok(outcome),
                        Some(_) if round >= cap => {
                            break Err(RuntimeError::InvalidConfig(format!(
                                "pipeline exceeded pipeline_max_stages ({cap}); raise \
                                 RAMR_PIPELINE_MAX_STAGES or shorten the chain"
                            )));
                        }
                        Some(next_job) => job = next_job,
                    },
                    Err(source) => {
                        break Err(RuntimeError::StageFailed {
                            stage: round,
                            job: job.name().to_string(),
                            source: Box::new(source),
                        });
                    }
                }
            };
            (result, round)
        }
    }
}

impl<J: MapReduceJob + Send + 'static> JobScheduler<J> {
    /// Fulfils every still-queued ticket with [`SchedError::Shutdown`].
    /// Called from `Drop` after the dispatcher has exited.
    fn drain_queued(&self) {
        let mut state = relock(&self.shared.state);
        let mut orphans = Vec::new();
        for tenant in state.tenants.values_mut() {
            while let Some(q) = tenant.queue.pop_front() {
                orphans.push(q.ticket);
            }
        }
        state.queued = 0;
        drop(state);
        for ticket in orphans {
            ticket.fulfil(Err(SchedError::Shutdown));
        }
    }
}
