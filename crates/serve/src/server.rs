//! The server: accept loop, per-connection protocol drivers, pool cache,
//! and the graceful-shutdown choreography.
//!
//! Thread structure (one box per thread kind; no thread per job):
//!
//! ```text
//! accept loop ──spawns──▶ connection driver ──spawns──▶ writer
//!   (1 per server)          (1 per client)              (1 per client)
//!
//! a job:    dispatcher ──hook: queue push + unpark──▶ writer of the
//!           connection the job is bound to ──▶ outcome_of, encode, send
//! a reply:  Value ──encode once──▶ LEN SP JSON NL bytes
//!             ├─ nothing queued, no write in flight ─▶ written by the sender
//!             └─ otherwise ─▶ bounded backlog ─▶ written by the writer
//! ```
//!
//! The connection driver owns the read side of its socket and writes its
//! own replies in place when it can; frames never tear or overtake each
//! other. The writer renders each completed job its hook queued and sends
//! the terminal frame. Every frame write and every wait for backlog space
//! is bounded by the write deadline; a slow client that exceeds it is
//! kicked. Every blocking read carries a short timeout, which doubles as
//! the shutdown poll: when the stop flag rises, a driver closes its
//! connection, whose writer says `BYE` once its jobs have resolved; the
//! accept loop joins them all before [`Server::wait`] returns.
//!
//! Wire-level resilience is a per-tenant **dedup ledger**: a `SUBMIT`
//! carrying a `request_id` is recorded before admission, so the same id
//! re-sent after a reconnect re-attaches to the in-flight job (or replays
//! its parked terminal frame, kept as the bytes first encoded) instead of
//! executing twice. Terminal frames whose connection died park in the
//! ledger until the tenant claims them or the park TTL expires. The same ledger holds each tenant's
//! token-bucket rate limiter.
//!
//! Shutdown itself is one atomic take of the pool map: dropping a
//! [`ramr::JobScheduler`] lets the in-flight epoch finish and fulfils
//! every queued ticket with a shutdown error, so accepted jobs always
//! resolve to a `RESULT` or a `JOB_ERROR` — never silence.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mr_apps::inputs::{InputFlavor, Platform, DEFAULT_SCALE};
use mr_apps::AppKind;
use ramr::{Backend, ShedReason, TenantStats};
use ramr_telemetry::json::Value;

use crate::proto::{self, RequestKind, ResponseKind, PROTOCOL_VERSION};
use crate::registry::{self, AppPool, WireSpec, POISON_APP, SERVABLE_APPS};
use crate::ServeConfig;

/// How often idle reads wake to poll the stop flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_NAP: Duration = Duration::from_millis(20);

/// Frames a connection's outbound backlog holds before senders must wait.
const OUTBOUND_QUEUE: usize = 64;

/// How long a sender waits for backlog space, and how long any thread
/// spends on one frame's socket write, before the client is declared too
/// slow and its connection is kicked. Kicked connections' terminal
/// frames park in the dedup ledger for reconnect pickup.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// A connection that negotiated a heartbeat and then stays silent for
/// this many intervals is dropped.
const HEARTBEAT_GRACE: u32 = 3;

/// Dedup-ledger entries one tenant may hold; beyond it the oldest
/// completed entry is evicted (and with no evictable entry, new
/// `request_id` submits are refused).
const DEDUP_CAP: usize = 1024;

/// A pool's identity: same app + backend + knob overrides ⇒ same pool.
type PoolKey = (String, String, Vec<(String, String)>);

/// One `request_id`'s place in the dedup ledger. `W` is the connection
/// handle a terminal frame goes to (a plain value in the ledger's tests).
enum JobState<W = Binding> {
    /// Accepted and running; `writer` is the connection the terminal
    /// frame should go to — rebound every time the tenant re-sends this
    /// `request_id` from a new connection.
    InFlight { writer: W },
    /// Terminal frame produced, kept as its wire bytes (claimed or not)
    /// until the park TTL expires so a reconnecting client can always
    /// re-claim its result. `None` when the frame exceeded the frame
    /// bound: it could never be sent, so a replay sends nothing. Its
    /// completion time is its place in [`TenantLedger::done`].
    Done { frame: Option<Encoded>, claimed: bool },
}

/// How the dedup ledger answers a `SUBMIT` that carries a `request_id`.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Admit {
    /// In flight: delivery is rebound to the submitting connection.
    Rebound,
    /// Completed: the retained terminal frame is replayed.
    Replay(Option<Encoded>),
    /// Never seen (or forgotten): reserved as in flight, to be admitted.
    Fresh,
}

/// Per-tenant wire-resilience state: the dedup ledger, the rate bucket,
/// and the resilience counters the `METRICS` endpoint reports.
///
/// Every ledger operation is amortised O(1). `done` holds the `Done` ids
/// in completion order; a completion time is taken under the `ledgers`
/// lock, so it never decreases along the queue. The sweep pops expired ids
/// off its front, the [`DEDUP_CAP`] eviction pops the oldest completed id,
/// and the in-flight count is `jobs.len() - done.len()`. An entry never
/// moves in the queue: a replay only claims it, and an `InFlight` entry is
/// never in it.
struct TenantLedger<W = Binding> {
    jobs: HashMap<String, JobState<W>>,
    /// `(completed at, request_id)` of every `Done` entry, oldest first.
    done: VecDeque<(Instant, String)>,
    /// Token-bucket level; refilled on every admission check.
    tokens: f64,
    last_refill: Instant,
    /// Whether this tenant has completed a HELLO before (the first one
    /// is a connect, every later one a reconnect).
    seen_hello: bool,
    reconnects: u64,
    dedup_hits: u64,
    parked: u64,
    expired: u64,
    /// Unclaimed entries the [`DEDUP_CAP`] eviction dropped: results lost.
    evicted_unclaimed: u64,
    rate_limited: u64,
}

impl<W> TenantLedger<W> {
    fn new(burst: f64) -> TenantLedger<W> {
        TenantLedger {
            jobs: HashMap::new(),
            done: VecDeque::new(),
            tokens: burst,
            last_refill: Instant::now(),
            seen_hello: false,
            reconnects: 0,
            dedup_hits: 0,
            parked: 0,
            expired: 0,
            evicted_unclaimed: 0,
            rate_limited: 0,
        }
    }

    /// Drops `Done` entries completed `ttl` or longer before `now`; an
    /// entry dropped without ever having been claimed counts as expired
    /// (its result was lost).
    fn sweep(&mut self, now: Instant, ttl: Duration) {
        while let Some(&(at, _)) = self.done.front() {
            if now.saturating_duration_since(at) < ttl {
                break;
            }
            let (_, rid) = self.done.pop_front().expect("the front was just read");
            if let Some(JobState::Done { claimed: false, .. }) = self.jobs.remove(&rid) {
                self.expired += 1;
            }
        }
    }

    /// Entries whose job has not completed yet.
    fn in_flight(&self) -> usize {
        self.jobs.len() - self.done.len()
    }

    /// The connection an in-flight `rid` is bound to.
    fn bound(&self, rid: &str) -> Option<&W> {
        match self.jobs.get(rid) {
            Some(JobState::InFlight { writer }) => Some(writer),
            _ => None,
        }
    }

    /// Looks up a submitted `request_id` sent from connection `writer`.
    /// A fresh id is reserved as in flight before admission, so a
    /// duplicate arriving from a reconnect re-binds instead of re-running;
    /// at [`DEDUP_CAP`] entries it evicts the oldest completed one
    /// (counting it in `evicted_unclaimed` if never claimed), and with
    /// every entry in flight the submit is refused with the returned
    /// message.
    fn admit(&mut self, rid: &str, writer: W) -> Result<Admit, String> {
        match self.jobs.get_mut(rid) {
            Some(JobState::InFlight { writer: bound }) => {
                *bound = writer;
                self.dedup_hits += 1;
                Ok(Admit::Rebound)
            }
            Some(JobState::Done { frame, claimed }) => {
                self.dedup_hits += 1;
                *claimed = true;
                Ok(Admit::Replay(frame.clone()))
            }
            None => {
                if self.jobs.len() >= DEDUP_CAP {
                    let Some((_, oldest)) = self.done.pop_front() else {
                        return Err(format!(
                            "dedup ledger full ({DEDUP_CAP} in-flight request_ids)"
                        ));
                    };
                    if let Some(JobState::Done { claimed: false, .. }) = self.jobs.remove(&oldest) {
                        self.evicted_unclaimed += 1;
                    }
                }
                self.jobs.insert(rid.to_string(), JobState::InFlight { writer });
                Ok(Admit::Fresh)
            }
        }
    }

    /// Completes an in-flight `rid` at `now` with its terminal frame,
    /// counted as claimed, and returns the connection it is bound to;
    /// `None` (and no change) when `rid` is not in flight.
    fn complete(&mut self, rid: &str, frame: Option<Encoded>, now: Instant) -> Option<W> {
        let state = self.jobs.get_mut(rid)?;
        let JobState::InFlight { .. } = state else { return None };
        let JobState::InFlight { writer } =
            std::mem::replace(state, JobState::Done { frame, claimed: true })
        else {
            unreachable!("matched InFlight above")
        };
        debug_assert!(self.done.back().is_none_or(|&(at, _)| at <= now));
        self.done.push_back((now, rid.to_string()));
        Some(writer)
    }

    /// A completed `rid` whose terminal frame could not be sent: parked
    /// unclaimed until a replay claims it or the TTL expires it.
    fn park(&mut self, rid: &str) {
        if let Some(JobState::Done { claimed, .. }) = self.jobs.get_mut(rid) {
            *claimed = false;
        }
        self.parked += 1;
    }

    /// Drops an in-flight reservation, returning the connection it is
    /// bound to. A completed entry stays put.
    fn unreserve(&mut self, rid: &str) -> Option<W> {
        match self.jobs.remove_entry(rid) {
            Some((_, JobState::InFlight { writer })) => Some(writer),
            Some((key, done)) => {
                // A racing duplicate cannot have completed the job — only
                // the submit path that reserved it owns it — but keep the
                // entry rather than lose a terminal frame.
                self.jobs.insert(key, done);
                None
            }
            None => None,
        }
    }
}

struct Inner {
    config: ServeConfig,
    stop: AtomicBool,
    /// `None` once shutdown has taken (and dropped) the pools.
    pools: Mutex<Option<BTreeMap<PoolKey, Arc<dyn AppPool>>>>,
    /// Per-tenant dedup ledgers, rate buckets, and resilience counters.
    /// Never held across a `pools` lock (or vice versa): every path takes
    /// the two sequentially, so no lock order can deadlock. A connection's
    /// outbound lock may be taken under it, never the other way round.
    ledgers: Mutex<BTreeMap<String, TenantLedger>>,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// One second of burst, but always at least one token.
    fn burst(&self) -> f64 {
        self.config.rate.max(1.0)
    }

    fn park_ttl(&self) -> Duration {
        Duration::from_millis(self.config.park_ttl_ms.max(1))
    }

    /// Runs `body` with the tenant's ledger (created on first touch),
    /// sweeping expired entries first.
    fn with_ledger<T>(&self, tenant: &str, body: impl FnOnce(&mut TenantLedger) -> T) -> T {
        let mut guard = self.ledgers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !guard.contains_key(tenant) {
            guard.insert(tenant.to_string(), TenantLedger::new(self.burst()));
        }
        let ledger = guard.get_mut(tenant).expect("inserted above");
        ledger.sweep(Instant::now(), self.park_ttl());
        body(ledger)
    }

    /// Counts a completed HELLO; returns the negotiated heartbeat
    /// interval (the client's proposal clamped by the server ceiling; 0
    /// when either side declines).
    fn note_hello(&self, tenant: &str, proposed_ms: u64) -> u64 {
        self.with_ledger(tenant, |ledger| {
            if ledger.seen_hello {
                ledger.reconnects += 1;
            }
            ledger.seen_hello = true;
        });
        if proposed_ms == 0 || self.config.heartbeat_ms == 0 {
            0
        } else {
            proposed_ms.min(self.config.heartbeat_ms)
        }
    }

    /// Token-bucket admission: `true` means the submit may proceed. A
    /// refusal is counted in the tenant's ledger (the pool-level stats
    /// are the caller's job, since the pool may not exist yet).
    fn rate_ok(&self, tenant: &str) -> bool {
        let rate = self.config.rate;
        if rate <= 0.0 {
            return true;
        }
        let burst = self.burst();
        self.with_ledger(tenant, |ledger| {
            let now = Instant::now();
            let elapsed = now.duration_since(ledger.last_refill).as_secs_f64();
            ledger.last_refill = now;
            ledger.tokens = (ledger.tokens + elapsed * rate).min(burst);
            if ledger.tokens >= 1.0 {
                ledger.tokens -= 1.0;
                true
            } else {
                ledger.rate_limited += 1;
                false
            }
        })
    }

    /// Sends an accepted job's terminal frame: a `request_id` job's to the
    /// connection the ledger binds the id to, retained there either way
    /// (claimed on success, parked on failure) so a reconnecting tenant can
    /// re-claim it until the TTL expires; any other job's to `to`.
    fn deliver(&self, tenant: &str, rid: Option<&str>, to: Option<Binding>, reply: &Value) {
        let frame = proto::encode_frame(reply, self.config.max_frame).ok().map(Arc::new);
        // The entry flips to Done *before* the send: the client may react
        // to the terminal frame instantly (query METRICS, re-submit), and
        // must never observe its own completed job as still in flight.
        // Its completion time is read under the ledger lock, so completion
        // times never decrease along the ledger's `done` queue.
        let bound = rid.and_then(|rid| {
            self.with_ledger(tenant, |ledger| ledger.complete(rid, frame.clone(), Instant::now()))
        });
        // The send happens outside the ledger lock; both bindings are held
        // until the frame is queued or parked.
        let to = bound.as_ref().or(to.as_ref());
        let sent = to.zip(frame).is_some_and(|(to, frame)| to.0.send_terminal(frame).is_ok());
        if let (Some(rid), false) = (rid, sent) {
            self.with_ledger(tenant, |ledger| ledger.park(rid));
        }
    }

    /// Finds or builds the pool for one submit. Building happens under
    /// the map lock, so two racing submits cannot double-spawn a pool.
    fn pool_for(
        &self,
        key: &PoolKey,
        config: &mr_core::RuntimeConfig,
        backend: Backend,
    ) -> Result<Arc<dyn AppPool>, String> {
        let mut guard = self.pools.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let pools = guard.as_mut().ok_or("server is shutting down")?;
        if let Some(pool) = pools.get(key) {
            return Ok(Arc::clone(pool));
        }
        if pools.len() >= self.config.max_pools {
            return Err(format!(
                "pool limit reached ({} of {}): reuse an existing app/backend/knob set \
                 or raise RAMR_SERVE_MAX_POOLS",
                pools.len(),
                self.config.max_pools
            ));
        }
        let pool = registry::make_pool(&key.0, backend, config.clone(), self.config.chaos)?;
        pools.insert(key.clone(), Arc::clone(&pool));
        Ok(pool)
    }

    /// Raises the stop flag and drops every pool. Dropping a scheduler
    /// drains its in-flight epoch and fulfils queued tickets with a
    /// shutdown error, so every accepted job resolves promptly.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let taken = self.pools.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        drop(taken);
    }

    /// The `METRICS_REPORT` frame: live gauges for every pool plus the
    /// per-tenant accounting (including the typed shed breakdown).
    fn metrics_frame(&self) -> Value {
        let guard = self.pools.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut pools = Vec::new();
        if let Some(map) = guard.as_ref() {
            for ((app, backend, knobs), pool) in map {
                let status = pool.status();
                let knobs = knobs.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone())));
                pools.push(obj([
                    ("app", Value::Str(app.clone())),
                    ("backend", Value::Str(backend.clone())),
                    ("knobs", Value::Obj(knobs.collect())),
                    ("queue_depth", Value::Num(status.queue_depth as f64)),
                    ("queue_capacity", Value::Num(status.queue_capacity as f64)),
                    ("saturated", Value::Bool(status.saturated)),
                    ("tenants", Value::Arr(pool.tenant_stats().iter().map(tenant_json).collect())),
                ]));
            }
        }
        let shutting_down = guard.is_none();
        drop(guard);
        // Ledgers are taken after the pool guard is released — the two
        // locks never nest.
        let mut tenants = Vec::new();
        {
            let mut guard = self.ledgers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let now = Instant::now();
            for (name, ledger) in guard.iter_mut() {
                ledger.sweep(now, self.park_ttl());
                let num = |n: u64| Value::Num(n as f64);
                tenants.push(obj([
                    ("tenant", Value::Str(name.clone())),
                    ("reconnects", num(ledger.reconnects)),
                    ("dedup_hits", num(ledger.dedup_hits)),
                    ("parked", num(ledger.parked)),
                    ("expired", num(ledger.expired)),
                    ("evicted_unclaimed", num(ledger.evicted_unclaimed)),
                    ("rate_limited", num(ledger.rate_limited)),
                    ("ledger_in_flight", num(ledger.in_flight() as u64)),
                    ("ledger_entries", num(ledger.jobs.len() as u64)),
                ]));
            }
        }
        frame(
            ResponseKind::MetricsReport,
            [
                ("shutting_down", Value::Bool(shutting_down)),
                ("pools", Value::Arr(pools)),
                ("tenants", Value::Arr(tenants)),
            ],
        )
    }

    /// The union of every pool's execution ledger: the tenant-scoped
    /// `request_id` tag of each dispatched wire job, in per-pool claim
    /// order. The chaos suite audits this for exactly-once execution.
    fn execution_ledger(&self) -> Vec<String> {
        let guard = self.pools.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut tags = Vec::new();
        if let Some(map) = guard.as_ref() {
            for pool in map.values() {
                tags.extend(pool.executed_tags());
            }
        }
        tags
    }
}

fn tenant_json(s: &TenantStats) -> Value {
    let ms = |d: std::time::Duration| Value::Num(d.as_secs_f64() * 1e3);
    let num = |n: u64| Value::Num(n as f64);
    obj([
        ("tenant", Value::Str(s.tenant.clone())),
        ("weight", num(u64::from(s.weight))),
        ("submitted", num(s.submitted)),
        ("completed", num(s.completed)),
        ("failed", num(s.failed)),
        ("shed", num(s.shed)),
        ("shed_queue_full", num(s.shed_queue_full)),
        ("shed_rate_limited", num(s.shed_rate_limited)),
        ("shed_quota", num(s.shed_quota)),
        ("shed_saturated", num(s.shed_saturated)),
        ("queue_wait_ms", ms(s.queue_wait)),
        ("max_queue_wait_ms", ms(s.max_queue_wait)),
        ("run_time_ms", ms(s.run_time)),
    ])
}

/// Builds a response frame: the kind's wire name plus the given members.
fn frame<'a>(kind: ResponseKind, members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    obj(members.into_iter().chain([("type", Value::Str(kind.as_str().into()))]))
}

/// A JSON object of the given members.
fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One frame's wire bytes (`LEN SP JSON NL`), encoded once and shared by
/// the outbound backlog and the dedup ledger without copying.
type Encoded = Arc<Vec<u8>>;

/// The shared state behind one connection's write side.
struct OutboundState {
    /// Frames waiting their turn, oldest first. Empty unless a write was
    /// in flight when they were sent.
    frames: VecDeque<Encoded>,
    /// Completed jobs for the writer thread to render and send.
    jobs: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Live [`Binding`]s: accepted jobs whose terminal frame this
    /// connection still owes.
    bound: usize,
    /// Some thread — a sender writing in place or the writer thread — is
    /// writing a frame to the socket right now.
    writing: bool,
    /// Graceful close: the driver sends nothing more; the writer drains
    /// what is queued and exits once no job is bound here.
    closing: bool,
    /// Say `BYE` on that exit.
    bye: bool,
    /// Broken socket or kicked slow client: sends fail, frames drop.
    dead: bool,
}

/// One connection's write side. A sender that finds nothing queued and
/// no write in flight writes its frame to the socket itself; otherwise it
/// appends to a bounded backlog that a dedicated writer thread drains in
/// order. Senders wait up to [`WRITE_DEADLINE`] for backlog space, and
/// every frame write is bounded by the same deadline; a client that
/// cannot keep up that long is kicked (its socket is shut down, which
/// also frees the reader), so one stalled consumer can never wedge a
/// thread indefinitely.
struct Outbound {
    state: Mutex<OutboundState>,
    /// Senders park here for backlog space.
    space: Condvar,
    /// The writer thread parks here for frames, jobs and `bound` to reach 0.
    work: Condvar,
    /// The socket every frame is written to (carrying the write
    /// timeout), also shut down on kick/death.
    sock: TcpStream,
    max_frame: usize,
}

impl Outbound {
    /// The write side of `stream`. The socket's write timeout is set here,
    /// once, so every frame write on it is bounded by [`WRITE_DEADLINE`]
    /// whichever thread makes it.
    fn open(stream: &TcpStream, max_frame: usize) -> io::Result<Arc<Outbound>> {
        stream.set_write_timeout(Some(WRITE_DEADLINE))?;
        Ok(Arc::new(Outbound {
            state: Mutex::new(OutboundState {
                frames: VecDeque::new(),
                jobs: VecDeque::new(),
                bound: 0,
                writing: false,
                closing: false,
                bye: false,
                dead: false,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            sock: stream.try_clone()?,
            max_frame,
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboundState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Kills the connection. Queued jobs stay: the writer still renders
    /// them, and their terminal frames park.
    fn kick(&self, state: &mut OutboundState) {
        state.dead = true;
        state.frames.clear();
        let _ = self.sock.shutdown(Shutdown::Both);
        self.space.notify_all();
        self.work.notify_all();
    }

    /// Writes one frame with `state.writing` held by the caller, then
    /// releases it. A failed write kicks the connection.
    fn write(&self, frame: &[u8]) -> io::Result<()> {
        let written = write_by_deadline(&self.sock, frame);
        let mut state = self.lock();
        state.writing = false;
        match written {
            Ok(()) => {
                // Frames queued behind this one (or a pending close) are
                // the writer thread's to handle now.
                if !state.frames.is_empty() || state.closing {
                    self.work.notify_one();
                }
                Ok(())
            }
            Err(e) => {
                self.kick(&mut state);
                Err(e)
            }
        }
    }

    /// Encodes and sends one frame; delivery failures are returned (the
    /// driver closes on them) — a vanished or too-slow client cannot be
    /// told anything.
    fn send(&self, value: &Value) -> io::Result<()> {
        self.send_encoded(Arc::new(proto::encode_frame(value, self.max_frame)?))
    }

    /// Sends one encoded frame: written in place when nothing is ahead of
    /// it, else queued for the writer thread.
    fn send_encoded(&self, frame: Encoded) -> io::Result<()> {
        let deadline = Instant::now() + WRITE_DEADLINE;
        let mut state = self.lock();
        while !state.dead && !state.closing && state.frames.len() >= OUTBOUND_QUEUE {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Slow client: the backlog sat full for the whole deadline.
                self.kick(&mut state);
                return Err(io::Error::new(io::ErrorKind::TimedOut, "client too slow"));
            }
            let (guard, _) = self
                .space
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
        if state.dead || state.closing {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection closed"));
        }
        if state.writing || !state.frames.is_empty() {
            state.frames.push_back(frame);
            self.work.notify_one();
            return Ok(());
        }
        state.writing = true;
        drop(state);
        self.write(&frame)
    }

    /// Queues a job's terminal frame for the writer thread. It never waits
    /// for backlog space: the connection owes at most one per job bound to
    /// it, and the sender is usually this connection's writer thread, the
    /// one that drains the backlog.
    fn send_terminal(&self, frame: Encoded) -> io::Result<()> {
        let mut state = self.lock();
        if state.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection closed"));
        }
        state.frames.push_back(frame);
        self.work.notify_one();
        Ok(())
    }

    /// Hands a completed job to the writer thread: a queue push and an
    /// unpark, so the scheduler's dispatcher can call it. A dead
    /// connection takes it too; its writer renders the job and parks it.
    fn push(&self, job: Box<dyn FnOnce() + Send>) {
        self.lock().jobs.push_back(job);
        self.work.notify_one();
    }

    /// Binds an accepted job's terminal frame to this connection.
    fn bind(self: &Arc<Self>) -> Binding {
        self.lock().bound += 1;
        Binding(Arc::clone(self))
    }

    /// Graceful close: the writer thread drains what is queued, waits out
    /// every job bound here, says `BYE` if asked, and exits.
    fn finish(&self, bye: bool) {
        let mut state = self.lock();
        state.closing = true;
        state.bye = bye;
        self.work.notify_all();
        self.space.notify_all();
    }
}

/// Writes all of `bytes`, giving up once [`WRITE_DEADLINE`] has passed
/// with part of the frame still unsent. Each blocking `write` is bounded
/// by the socket's write timeout (the same deadline, set at connection
/// setup), so a peer that stops reading costs at most one deadline.
fn write_by_deadline(mut sock: &TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + WRITE_DEADLINE;
    while !bytes.is_empty() {
        match sock.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !bytes.is_empty() && Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "client too slow"));
        }
    }
    Ok(())
}

/// A connection's claim on one accepted job's terminal frame. While any
/// is alive, the connection's writer thread neither says `BYE` nor exits,
/// so the job always has a live writer to render and send (or park) its
/// frame. The ledger moves a `request_id`'s binding to the connection that
/// re-sends it.
struct Binding(Arc<Outbound>);

impl Drop for Binding {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.bound -= 1;
        if state.bound == 0 {
            self.0.work.notify_one();
        }
    }
}

/// The writer thread: drains the backlog that builds up while another
/// thread's write is in flight, in order, and renders and sends the jobs
/// the completion hooks queue. It exits once the connection is closing
/// with nothing queued, in flight or bound here.
fn writer_loop(out: &Outbound) {
    let mut state = out.lock();
    loop {
        if !state.writing {
            if let Some(frame) = state.frames.pop_front() {
                state.writing = true;
                out.space.notify_all();
                drop(state);
                // A failed write kicks the connection; queued jobs still
                // get rendered, and their frames park.
                let _ = out.write(&frame);
                state = out.lock();
                continue;
            }
        }
        if let Some(job) = state.jobs.pop_front() {
            drop(state);
            job();
            state = out.lock();
            continue;
        }
        if state.closing && state.bound == 0 && !state.writing {
            // Every job bound here has resolved, so a client that reads
            // until BYE has seen all of its RESULT / JOB_ERROR frames.
            if state.bye && !state.dead {
                drop(state);
                if let Ok(bye) = proto::encode_frame(&frame(ResponseKind::Bye, []), out.max_frame) {
                    let _ = write_by_deadline(&out.sock, &bye);
                }
            }
            return;
        }
        state = out.work.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// The running server. Binds on [`Server::bind`]; runs until
/// [`Server::shutdown`] (or a client's authorized `SHUTDOWN` frame);
/// [`Server::wait`] joins every thread the server spawned.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("stopping", &self.inner.stopping())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and starts accepting connections.
    ///
    /// # Errors
    ///
    /// The bind/configuration error when the address is unusable.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            config,
            stop: AtomicBool::new(false),
            pools: Mutex::new(Some(BTreeMap::new())),
            ledgers: Mutex::new(BTreeMap::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("ramr-serve-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))
            .map_err(|e| io::Error::other(format!("cannot spawn accept thread: {e}")))?;
        Ok(Server { inner, addr, accept: Some(accept) })
    }

    /// The bound address (resolves `HOST:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown: stop accepting, drain the in-flight
    /// epoch, fulfil queued tickets with a shutdown error, `BYE` every
    /// connection. Returns immediately; [`Server::wait`] blocks until the
    /// choreography completes.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// The scheduler-side execution ledger: the tenant-scoped
    /// `request_id` tag (`tenant:request_id`) of each dispatched wire job,
    /// across all pools, in per-pool claim order. Each pool keeps only its
    /// most recent 4 096 tags ([`ramr::JobScheduler::execution_ledger`]).
    /// Jobs submitted without a `request_id` are not recorded. The
    /// wire-resilience tests cross-check this against the set of submitted
    /// ids to prove exactly-once execution under connection churn.
    pub fn execution_ledger(&self) -> Vec<String> {
        self.inner.execution_ledger()
    }

    /// Blocks until the server has fully stopped (accept loop and every
    /// connection thread joined). Call [`Server::shutdown`] first — or
    /// rely on a client's `SHUTDOWN` frame — to make it stop.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    let mut drivers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !inner.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                let spawned = thread::Builder::new()
                    .name("ramr-serve-conn".into())
                    .spawn(move || drive_connection(&conn_inner, stream));
                match spawned {
                    Ok(handle) => drivers.push(handle),
                    Err(_) => { /* out of threads: drop the connection */ }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_NAP),
            Err(_) => thread::sleep(ACCEPT_NAP),
        }
        drivers.retain(|h| !h.is_finished());
    }
    for handle in drivers {
        let _ = handle.join();
    }
}

/// Everything one connection needs, bundled for the handlers.
struct Conn<'a> {
    inner: &'a Arc<Inner>,
    writer: Arc<Outbound>,
    tenant: String,
}

fn drive_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let Ok(out) = Outbound::open(&stream, inner.config.max_frame) else { return };
    let writer = Arc::clone(&out);
    let writer_thread =
        thread::Builder::new().name("ramr-serve-write".into()).spawn(move || writer_loop(&out));
    let Ok(writer_thread) = writer_thread else { return };
    let mut reader = BufReader::new(stream);
    let max_frame = inner.config.max_frame;

    // Handshake: the first frame must be an authenticated HELLO. It may
    // propose a heartbeat interval; the negotiated value (clamped by the
    // server's ceiling) is echoed in WELCOME and enforced from then on.
    let mut heartbeat_ms = 0u64;
    let hello_outcome = loop {
        match proto::read_frame(&mut reader, max_frame) {
            Ok(Some(hello)) => match check_hello(inner, &hello) {
                Ok(tenant) => {
                    let proposed = hello.get("heartbeat_ms").and_then(Value::as_u64).unwrap_or(0);
                    heartbeat_ms = inner.note_hello(&tenant, proposed);
                    let apps: Vec<Value> = SERVABLE_APPS
                        .iter()
                        .map(|a| Value::Str((*a).into()))
                        .chain(inner.config.chaos.then(|| Value::Str(POISON_APP.into())))
                        .collect();
                    let welcome = frame(
                        ResponseKind::Welcome,
                        [
                            ("tenant", Value::Str(tenant.clone())),
                            ("version", Value::Num(PROTOCOL_VERSION as f64)),
                            ("apps", Value::Arr(apps)),
                            ("heartbeat_ms", Value::Num(heartbeat_ms as f64)),
                        ],
                    );
                    if writer.send(&welcome).is_err() {
                        break None;
                    }
                    break Some(tenant);
                }
                Err(message) => {
                    let _ =
                        writer.send(&frame(ResponseKind::Error, [("error", Value::Str(message))]));
                    break None;
                }
            },
            Ok(None) => break None,
            Err(e) if timed_out(&e) => {
                if inner.stopping() {
                    let _ = writer.send(&frame(ResponseKind::Bye, []));
                    break None;
                }
            }
            Err(_) => {
                let _ = writer.send(&frame(
                    ResponseKind::Error,
                    [("error", Value::Str("malformed frame before HELLO".into()))],
                ));
                break None;
            }
        }
    };
    let Some(tenant) = hello_outcome else {
        writer.finish(false);
        let _ = writer_thread.join();
        return;
    };

    let conn = Conn { inner, writer, tenant };
    // A heartbeat-negotiated connection that stays silent for
    // HEARTBEAT_GRACE intervals is declared dead; its terminal frames
    // park in the ledger for the reconnecting client to claim.
    let idle_deadline = (heartbeat_ms > 0)
        .then(|| Duration::from_millis(heartbeat_ms.saturating_mul(u64::from(HEARTBEAT_GRACE))));
    let mut last_heard = Instant::now();
    let mut peer_gone = false;
    loop {
        match proto::read_frame(&mut reader, max_frame) {
            Ok(Some(request)) => {
                last_heard = Instant::now();
                if !handle_request(&conn, &request) {
                    break;
                }
            }
            Ok(None) => {
                peer_gone = true; // client closed its write half
                break;
            }
            Err(e) if timed_out(&e) => {
                if conn.inner.stopping() {
                    break;
                }
                if idle_deadline.is_some_and(|d| last_heard.elapsed() > d) {
                    peer_gone = true; // missed heartbeats: the peer is gone
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = conn.writer.send(&frame(
                    ResponseKind::Error,
                    [("error", Value::Str(format!("protocol error: {e}")))],
                ));
                break;
            }
            Err(_) => {
                peer_gone = true;
                break;
            }
        }
    }

    if peer_gone {
        // The socket is gone; kill the outbound *before* the jobs bound
        // here resolve, so their terminal frames fail to send and park in
        // the ledger for the reconnecting client instead of vanishing into
        // a half-closed socket's kernel buffer.
        conn.writer.kick(&mut conn.writer.lock());
    }
    conn.writer.finish(!peer_gone);
    let _ = writer_thread.join();
}

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Validates a HELLO frame; returns the tenant name.
fn check_hello(inner: &Inner, hello: &Value) -> Result<String, String> {
    let kind = proto::frame_type(hello)?;
    if RequestKind::from_wire(kind) != Some(RequestKind::Hello) {
        return Err(format!("expected HELLO as the first frame, got {kind:?}"));
    }
    let tenant = hello
        .get("tenant")
        .and_then(Value::as_str)
        .filter(|t| !t.is_empty())
        .ok_or("HELLO needs a non-empty string \"tenant\"")?;
    check_token(inner, hello, "HELLO")?;
    Ok(tenant.to_string())
}

fn check_token(inner: &Inner, request: &Value, what: &str) -> Result<(), String> {
    if let Some(expected) = &inner.config.token {
        let presented = request.get("token").and_then(Value::as_str);
        if presented != Some(expected.as_str()) {
            return Err(format!("{what} rejected: bad or missing token"));
        }
    }
    Ok(())
}

/// Dispatches one steady-state request. Returns `false` when the
/// connection should close.
fn handle_request(conn: &Conn<'_>, request: &Value) -> bool {
    let kind = match proto::frame_type(request) {
        Ok(kind) => kind,
        Err(message) => {
            let _ = conn.writer.send(&frame(ResponseKind::Error, [("error", Value::Str(message))]));
            return false;
        }
    };
    match RequestKind::from_wire(kind) {
        Some(RequestKind::Submit) => {
            handle_submit(conn, request);
            true
        }
        Some(RequestKind::Metrics) => conn.writer.send(&conn.inner.metrics_frame()).is_ok(),
        Some(RequestKind::Ping) => {
            // Heartbeat probe: echo the nonce (when given) back in PONG.
            let members = match request.get("nonce") {
                Some(nonce) => vec![("nonce", nonce.clone())],
                None => Vec::new(),
            };
            conn.writer.send(&frame(ResponseKind::Pong, members)).is_ok()
        }
        Some(RequestKind::Shutdown) => {
            match check_token(conn.inner, request, "SHUTDOWN") {
                Ok(()) => {
                    // Dropping the pools resolves every in-flight ticket;
                    // the writer BYEs once this connection's have.
                    conn.inner.shutdown();
                    false
                }
                Err(message) => {
                    let _ = conn
                        .writer
                        .send(&frame(ResponseKind::Error, [("error", Value::Str(message))]));
                    true
                }
            }
        }
        Some(RequestKind::Hello) => {
            let _ = conn.writer.send(&frame(
                ResponseKind::Error,
                [("error", Value::Str("already authenticated".into()))],
            ));
            false
        }
        None => {
            let _ = conn.writer.send(&frame(
                ResponseKind::Error,
                [("error", Value::Str(format!("unknown request type {kind:?}")))],
            ));
            false
        }
    }
}

/// One SUBMIT: admission-check, then either answer ACCEPTED and hook the
/// job's completion, or answer RETRY_AFTER / JOB_ERROR. The hook queues
/// the completed job for the writer of the connection the job is bound to
/// then. Job-scoped failures keep the connection alive — only
/// protocol-level breakage closes it.
///
/// A SUBMIT carrying a `request_id` goes through the dedup ledger:
/// * a known in-flight id re-binds delivery to this connection and is
///   re-ACCEPTED (never re-executed);
/// * a known completed id is re-ACCEPTED and its retained terminal frame
///   replayed;
/// * a fresh id is *reserved* before admission, so a duplicate racing in
///   from a reconnect can never double-execute the job.
fn handle_submit(conn: &Conn<'_>, request: &Value) {
    let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
    let rid = request.get("request_id").and_then(Value::as_str).map(str::to_string);
    let job_error_frame = |message: String| {
        frame(
            ResponseKind::JobError,
            [("id", Value::Num(id as f64)), ("error", Value::Str(message))],
        )
    };
    let accepted_frame = frame(ResponseKind::Accepted, [("id", Value::Num(id as f64))]);

    // Dedup / reservation, for request_id submits.
    if let Some(rid) = &rid {
        match conn.inner.with_ledger(&conn.tenant, |ledger| ledger.admit(rid, conn.writer.bind())) {
            Ok(Admit::Rebound) => {
                let _ = conn.writer.send(&accepted_frame);
                return;
            }
            Ok(Admit::Replay(reply)) => {
                let _ = conn.writer.send(&accepted_frame);
                if let Some(reply) = reply {
                    let _ = conn.writer.send_encoded(reply);
                }
                return;
            }
            Err(message) => {
                let _ = conn.writer.send(&job_error_frame(message));
                return;
            }
            Ok(Admit::Fresh) => {}
        }
    }

    // A terminal refusal: for a reserved id, delivered to whichever
    // connection the id is bound to now and retained as the id's outcome
    // (a later duplicate replays it instead of re-running).
    let refuse_terminal = |conn: &Conn<'_>, reply: Value| {
        let own = rid.is_none().then(|| conn.writer.bind());
        conn.inner.deliver(&conn.tenant, rid.as_deref(), own, &reply);
    };
    // A retryable refusal: drop the reservation (the client is expected
    // to re-submit the same id afresh) and answer the live connection.
    let refuse_retryable = |conn: &Conn<'_>, reply: Value| {
        let bound = rid
            .as_ref()
            .and_then(|rid| conn.inner.with_ledger(&conn.tenant, |ledger| ledger.unreserve(rid)));
        let _ = bound.as_ref().map_or(&conn.writer, |bound| &bound.0).send(&reply);
    };

    let parsed = parse_submit(conn.inner, request);
    let (app, backend, spec, echo, config, key) = match parsed {
        Ok(parts) => parts,
        Err(message) => return refuse_terminal(conn, job_error_frame(message)),
    };
    let pool = match conn.inner.pool_for(&key, &config, backend) {
        Ok(pool) => pool,
        Err(message) => return refuse_terminal(conn, job_error_frame(message)),
    };

    let retry_after = |reason: ShedReason| {
        let status = pool.status();
        let hint = registry::retry_hint_ms(reason, conn.inner.config.retry_ms);
        frame(
            ResponseKind::RetryAfter,
            [
                ("id", Value::Num(id as f64)),
                ("reason", Value::Str(reason.as_str().into())),
                ("retry_after_ms", Value::Num(hint as f64)),
                ("queue_depth", Value::Num(status.queue_depth as f64)),
                ("queue_capacity", Value::Num(status.queue_capacity as f64)),
                ("saturated", Value::Bool(status.saturated)),
            ],
        )
    };

    // Rate limiting layers *under* the scheduler's own admission: the
    // token bucket is charged per fresh submit (dedup re-attaches above
    // never reach here), and a refusal sheds exactly like the scheduler's
    // own reasons — typed, counted, and carrying a retry hint.
    if !conn.inner.rate_ok(&conn.tenant) {
        pool.record_shed(&conn.tenant, ShedReason::RateLimited);
        return refuse_retryable(conn, retry_after(ShedReason::RateLimited));
    }

    let tag = rid.as_ref().map(|rid| format!("{}:{rid}", conn.tenant));
    match pool.try_submit(&conn.tenant, &spec, echo, tag.as_deref()) {
        Ok(accepted) => {
            let _ = conn.writer.send(&accepted_frame);
            let inner = Arc::clone(conn.inner);
            let tenant = conn.tenant.clone();
            // A job without a request_id is bound to this connection for
            // life; one with an id, to whichever connection the ledger
            // holds for it when the job completes.
            let own = rid.is_none().then(|| conn.writer.bind());
            accepted(Box::new(move |render| {
                let to = match &rid {
                    Some(rid) => {
                        inner.with_ledger(&tenant, |ledger| ledger.bound(rid).map(|w| w.0.bind()))
                    }
                    None => own,
                };
                // Only this job's own delivery completes its ledger entry,
                // so `to` is always set.
                let Some(to) = to else { return };
                Arc::clone(&to.0).push(Box::new(move || {
                    let mut members = vec![("id", Value::Num(id as f64))];
                    members.extend(rid.as_ref().map(|rid| ("request_id", Value::Str(rid.clone()))));
                    let kind = match render() {
                        Ok(outcome) => {
                            members.extend([
                                ("tenant", Value::Str(tenant.clone())),
                                ("app", Value::Str(app)),
                                ("backend", Value::Str(backend.as_str().to_string())),
                                ("keys", Value::Num(outcome.keys as f64)),
                                ("digest", Value::Str(outcome.digest)),
                                ("queued_ms", Value::Num(outcome.queued_ms)),
                                ("ran_ms", Value::Num(outcome.ran_ms)),
                                ("metrics", outcome.metrics),
                            ]);
                            members
                                .extend(outcome.rendered.map(|text| ("output", Value::Str(text))));
                            ResponseKind::Result
                        }
                        Err(err) => {
                            members.push(("error", Value::Str(err.to_string())));
                            ResponseKind::JobError
                        }
                    };
                    inner.deliver(&tenant, rid.as_deref(), Some(to), &frame(kind, members));
                }));
            }));
        }
        Err(err) => match err.shed_reason() {
            Some(reason) => refuse_retryable(conn, retry_after(reason)),
            None => refuse_terminal(conn, job_error_frame(err.to_string())),
        },
    }
}

type ParsedSubmit = (String, Backend, WireSpec, bool, mr_core::RuntimeConfig, PoolKey);

/// Parses and validates a SUBMIT frame into everything the pool needs.
fn parse_submit(inner: &Inner, request: &Value) -> Result<ParsedSubmit, String> {
    let app = request
        .get("app")
        .and_then(Value::as_str)
        .ok_or("SUBMIT needs a string \"app\"")?
        .to_string();
    let platform = match request.get("platform").and_then(Value::as_str).unwrap_or("hwl") {
        "hwl" => Platform::Haswell,
        "phi" => Platform::XeonPhi,
        other => return Err(format!("unknown platform {other:?} (hwl|phi)")),
    };
    let flavor = match request.get("flavor").and_then(Value::as_str).unwrap_or("small") {
        "small" => InputFlavor::Small,
        "medium" => InputFlavor::Medium,
        "large" => InputFlavor::Large,
        other => return Err(format!("unknown flavor {other:?} (small|medium|large)")),
    };
    let scale = match request.get("scale") {
        None => DEFAULT_SCALE,
        Some(value) => {
            value.as_u64().filter(|&s| s > 0).ok_or("\"scale\" must be a positive integer")?
        }
    };
    let backend = match request.get("backend").and_then(Value::as_str) {
        None => inner.config.default_backend,
        Some(name) => name
            .parse::<Backend>()
            .map_err(|_| format!("unknown backend {name:?} (ramr-static|ramr-adaptive|phoenix)"))?,
    };
    let echo = request.get("echo_output").and_then(Value::as_bool).unwrap_or(false);

    // Knob overrides: ENV_KNOBS cli names, applied through the exact
    // parse/apply path `ramr run --<knob>` uses, on top of the server's
    // base config (with the app's preferred container as the default).
    let mut knobs: Vec<(String, String)> = Vec::new();
    if let Some(Value::Obj(members)) = request.get("knobs") {
        for (name, raw) in members {
            let raw =
                raw.as_str().ok_or_else(|| format!("knob {name:?} must map to a string value"))?;
            knobs.push((name.clone(), raw.to_string()));
        }
    }
    let mut builder = inner.config.base.clone().into_builder();
    if let Some(kind) = app_kind(&app) {
        builder = builder.container(kind.default_container());
    }
    for (name, raw) in &knobs {
        let knob = mr_core::ENV_KNOBS
            .iter()
            .find(|k| k.cli == name)
            .ok_or_else(|| format!("unknown knob {name:?} (use ENV_KNOBS cli names)"))?;
        let source = format!("knob {name}");
        builder = (knob.apply)(builder, raw, &source)
            .map_err(|e| mr_core::RuntimeError::InvalidConfig(e).to_string())?;
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let key = (app.clone(), backend.as_str().to_string(), knobs);
    Ok((app, backend, WireSpec { platform, flavor, scale }, echo, config, key))
}

fn app_kind(app: &str) -> Option<AppKind> {
    match app {
        "wc" => Some(AppKind::WordCount),
        "hg" => Some(AppKind::Histogram),
        "lr" => Some(AppKind::LinearRegression),
        "km" => Some(AppKind::Kmeans),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// The dedup ledger as first written: every sweep and every cap
    /// eviction scans all entries, and the victim is the `Done` entry with
    /// the smallest `(completed at, request_id)`. Kept as the oracle the
    /// queue-ordered [`TenantLedger`] is checked against.
    #[derive(Default)]
    struct ScanLedger {
        jobs: BTreeMap<String, Scanned>,
        expired: u64,
        evicted_unclaimed: u64,
        dedup_hits: u64,
        parked: u64,
        /// The entry the last `admit` evicted.
        victim: Option<String>,
    }

    enum Scanned {
        InFlight(u32),
        Done { frame: Option<Encoded>, at: Instant, claimed: bool },
    }

    impl ScanLedger {
        fn sweep(&mut self, now: Instant, ttl: Duration) {
            let mut expired = 0;
            self.jobs.retain(|_, state| match state {
                Scanned::InFlight(_) => true,
                Scanned::Done { at, claimed, .. } => {
                    let keep = now.saturating_duration_since(*at) < ttl;
                    if !keep && !*claimed {
                        expired += 1;
                    }
                    keep
                }
            });
            self.expired += expired;
        }

        fn in_flight(&self) -> usize {
            self.jobs.values().filter(|s| matches!(s, Scanned::InFlight(_))).count()
        }

        fn admit(&mut self, rid: &str, writer: u32) -> Result<Admit, String> {
            self.victim = None;
            match self.jobs.get_mut(rid) {
                Some(Scanned::InFlight(bound)) => {
                    *bound = writer;
                    self.dedup_hits += 1;
                    Ok(Admit::Rebound)
                }
                Some(Scanned::Done { frame, claimed, .. }) => {
                    self.dedup_hits += 1;
                    *claimed = true;
                    Ok(Admit::Replay(frame.clone()))
                }
                None => {
                    if self.jobs.len() >= DEDUP_CAP {
                        let oldest = self
                            .jobs
                            .iter()
                            .filter_map(|(key, state)| match state {
                                Scanned::Done { at, .. } => Some((*at, key.clone())),
                                Scanned::InFlight(_) => None,
                            })
                            .min();
                        let Some((_, key)) = oldest else {
                            return Err(format!(
                                "dedup ledger full ({DEDUP_CAP} in-flight request_ids)"
                            ));
                        };
                        if let Some(Scanned::Done { claimed: false, .. }) = self.jobs.remove(&key) {
                            self.evicted_unclaimed += 1;
                        }
                        self.victim = Some(key);
                    }
                    self.jobs.insert(rid.to_string(), Scanned::InFlight(writer));
                    Ok(Admit::Fresh)
                }
            }
        }

        fn complete(&mut self, rid: &str, frame: Option<Encoded>, now: Instant) -> Option<u32> {
            match self.jobs.get_mut(rid) {
                Some(state @ Scanned::InFlight(_)) => {
                    let done = Scanned::Done { frame, at: now, claimed: true };
                    match std::mem::replace(state, done) {
                        Scanned::InFlight(writer) => Some(writer),
                        Scanned::Done { .. } => None,
                    }
                }
                _ => None,
            }
        }

        fn park(&mut self, rid: &str) {
            if let Some(Scanned::Done { claimed, .. }) = self.jobs.get_mut(rid) {
                *claimed = false;
            }
            self.parked += 1;
        }

        fn unreserve(&mut self, rid: &str) -> Option<u32> {
            match self.jobs.remove(rid) {
                Some(Scanned::InFlight(writer)) => Some(writer),
                Some(done) => {
                    self.jobs.insert(rid.to_string(), done);
                    None
                }
                None => None,
            }
        }
    }

    /// SplitMix64: the model check's seeded operation stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Asserts that the two ledgers hold the same entries in the same
    /// states.
    fn assert_same_entries(ledger: &TenantLedger<u32>, oracle: &ScanLedger, at: &str) {
        assert_eq!(ledger.jobs.len(), oracle.jobs.len(), "{at}: entry count");
        for (rid, expected) in &oracle.jobs {
            match (ledger.jobs.get(rid), expected) {
                (Some(JobState::InFlight { writer }), Scanned::InFlight(w)) => {
                    assert_eq!(writer, w, "{at}: {rid}'s connection");
                }
                (
                    Some(JobState::Done { frame, claimed }),
                    Scanned::Done { frame: f, claimed: c, .. },
                ) => {
                    assert_eq!((frame, claimed), (f, c), "{at}: {rid}'s terminal frame");
                }
                _ => panic!("{at}: {rid} is in a different state"),
            }
        }
    }

    /// Seeded reserve / deliver / replay / unreserve / sweep sequences,
    /// applied to the ledger and to the scanning oracle on one injected
    /// clock: every answer, every cap victim, every `expired` count and
    /// every `ledger_in_flight` reading agree. The clock advances on every
    /// step, as `Instant::now()` read under the ledgers lock does, so no
    /// two entries complete at the same instant (on such a tie the queue
    /// evicts the first completed, the scan the smaller id).
    #[test]
    fn the_queue_ordered_ledger_answers_like_the_scan_it_replaced() {
        // (park TTL, then percent of steps that submit, deliver, unreserve;
        // the rest only sweep), from expiry-heavy to cap-bound.
        let shapes = [
            (Duration::from_millis(5), 50, 40, 5),
            (Duration::from_millis(30), 55, 35, 5),
            (Duration::from_secs(3600), 60, 35, 3),
            (Duration::from_secs(3600), 85, 8, 4),
        ];
        let (mut victims, mut refusals, mut replays, mut rebinds) = (0, 0, 0, 0);
        let (mut expired, mut lost) = (0, 0);
        for (shape, &(ttl, submit, deliver, unreserve)) in shapes.iter().enumerate() {
            for seed in 0..2u64 {
                let mut rng = Rng(0x5eed_0000 + 16 * shape as u64 + seed);
                let mut ledger = TenantLedger::<u32>::new(1.0);
                let mut oracle = ScanLedger::default();
                let mut now = Instant::now();
                let mut running: Vec<String> = Vec::new();
                for step in 0..6000u32 {
                    let at = format!("shape {shape} seed {seed} step {step}");
                    now += if rng.below(50) == 0 {
                        ttl / 2
                    } else {
                        Duration::from_micros(1 + rng.below(100))
                    };
                    ledger.sweep(now, ttl);
                    oracle.sweep(now, ttl);
                    let roll = rng.below(100);
                    if roll < submit {
                        let rid = format!("r{}", rng.below(1300));
                        let writer = rng.below(4) as u32;
                        let answer = ledger.admit(&rid, writer);
                        assert_eq!(answer, oracle.admit(&rid, writer), "{at}: admit {rid}");
                        match &answer {
                            Ok(Admit::Fresh) => running.push(rid),
                            Ok(Admit::Rebound) => rebinds += 1,
                            Ok(Admit::Replay(_)) => replays += 1,
                            Err(_) => refusals += 1,
                        }
                        if let Some(victim) = &oracle.victim {
                            assert!(!ledger.jobs.contains_key(victim), "{at}: victim {victim}");
                            victims += 1;
                        }
                    } else if roll < submit + deliver && !running.is_empty() {
                        let pick = rng.below(running.len() as u64) as usize;
                        let rid = running.swap_remove(pick);
                        let frame = (rng.below(8) > 0).then(|| Arc::new(rid.clone().into_bytes()));
                        let writer = ledger.complete(&rid, frame.clone(), now);
                        assert_eq!(writer, oracle.complete(&rid, frame, now), "{at}: deliver");
                        if writer.is_none() || rng.below(3) == 0 {
                            ledger.park(&rid);
                            oracle.park(&rid);
                        }
                    } else if roll < submit + deliver + unreserve {
                        let rid = format!("r{}", rng.below(1300));
                        assert_eq!(
                            ledger.unreserve(&rid),
                            oracle.unreserve(&rid),
                            "{at}: unreserve"
                        );
                    }
                    assert_eq!(ledger.in_flight(), oracle.in_flight(), "{at}: ledger_in_flight");
                    assert_eq!(ledger.jobs.len(), oracle.jobs.len(), "{at}: ledger_entries");
                    assert_eq!(
                        (
                            ledger.expired,
                            ledger.evicted_unclaimed,
                            ledger.dedup_hits,
                            ledger.parked
                        ),
                        (
                            oracle.expired,
                            oracle.evicted_unclaimed,
                            oracle.dedup_hits,
                            oracle.parked
                        ),
                        "{at}: expired, evicted_unclaimed, dedup_hits, parked"
                    );
                    if step % 97 == 0 {
                        assert_same_entries(&ledger, &oracle, &at);
                    }
                }
                assert_same_entries(&ledger, &oracle, "the end");
                expired += oracle.expired;
                lost += oracle.evicted_unclaimed;
            }
        }
        // Every path was taken, so agreement means something.
        for (path, count) in [
            ("cap evictions", victims),
            ("full refusals", refusals),
            ("replays", replays),
            ("rebinds", rebinds),
            ("expiries", expired),
            ("unclaimed evictions", lost),
        ] {
            assert!(count > 0, "the model check never took the {path} path");
        }
    }

    /// A tenant whose ledger holds [`DEDUP_CAP`] in-flight ids has a fresh
    /// id refused; in-flight entries are never evicted.
    #[test]
    fn a_ledger_full_of_in_flight_ids_refuses_a_fresh_one() {
        let mut ledger = TenantLedger::<u32>::new(1.0);
        for i in 0..DEDUP_CAP {
            assert_eq!(ledger.admit(&format!("r{i}"), 0), Ok(Admit::Fresh));
        }
        assert_eq!(
            ledger.admit("fresh", 1),
            Err("dedup ledger full (1024 in-flight request_ids)".to_string())
        );
        assert_eq!((ledger.in_flight(), ledger.jobs.len()), (DEDUP_CAP, DEDUP_CAP));
        // A known id is still answered.
        assert_eq!(ledger.admit("r7", 2), Ok(Admit::Rebound));
        assert_eq!(ledger.unreserve("r7"), Some(2));
        assert_eq!(ledger.admit("fresh", 1), Ok(Admit::Fresh));
    }

    /// At the cap a fresh id evicts the entry that completed first — not
    /// the smallest id, not one a replay or an `unreserve` touched later.
    #[test]
    fn the_cap_evicts_the_oldest_completed_entry() {
        let mut ledger = TenantLedger::<u32>::new(1.0);
        for i in 0..DEDUP_CAP {
            assert_eq!(ledger.admit(&format!("r{i}"), 0), Ok(Admit::Fresh));
        }
        let t0 = Instant::now();
        for (k, rid) in ["r900", "r5", "r700"].into_iter().enumerate() {
            assert_eq!(ledger.complete(rid, None, t0 + Duration::from_millis(k as u64)), Some(0));
        }
        assert_eq!(ledger.admit("r900", 1), Ok(Admit::Replay(None)));
        assert_eq!(ledger.unreserve("r900"), None);
        assert_eq!(ledger.in_flight(), DEDUP_CAP - 3);
        for (fresh, victim) in [("x", "r900"), ("y", "r5"), ("z", "r700")] {
            assert_eq!(ledger.admit(fresh, 1), Ok(Admit::Fresh));
            assert!(!ledger.jobs.contains_key(victim), "{fresh} evicts {victim}");
            assert_eq!(ledger.jobs.len(), DEDUP_CAP);
        }
        assert!(ledger.admit("w", 1).is_err(), "nothing completed is left to evict");
        assert_eq!(ledger.in_flight(), DEDUP_CAP);
    }

    /// A cap eviction of a parked entry, whose result no client ever got,
    /// counts in `evicted_unclaimed`; one of a claimed entry does not.
    #[test]
    fn an_unclaimed_entry_evicted_at_the_cap_counts_as_lost() {
        let mut ledger = TenantLedger::<u32>::new(1.0);
        for i in 0..DEDUP_CAP {
            assert_eq!(ledger.admit(&format!("r{i}"), 0), Ok(Admit::Fresh));
        }
        let t0 = Instant::now();
        ledger.complete("r1", None, t0);
        ledger.park("r1");
        ledger.complete("r2", None, t0 + Duration::from_millis(1));
        assert_eq!(ledger.admit("x", 1), Ok(Admit::Fresh));
        assert!(!ledger.jobs.contains_key("r1"), "the parked entry completed first");
        assert_eq!(ledger.evicted_unclaimed, 1);
        assert_eq!(ledger.admit("y", 1), Ok(Admit::Fresh));
        assert!(!ledger.jobs.contains_key("r2"));
        assert_eq!((ledger.evicted_unclaimed, ledger.expired), (1, 0));
    }

    /// The sweep reads the clock it is given: an entry expires exactly
    /// `ttl` after it completed, counted as `expired` only if unclaimed.
    #[test]
    fn the_sweep_expires_entries_a_ttl_after_they_completed() {
        let ttl = Duration::from_millis(100);
        let mut ledger = TenantLedger::<u32>::new(1.0);
        let t0 = Instant::now();
        for rid in ["parked", "claimed", "running"] {
            assert_eq!(ledger.admit(rid, 0), Ok(Admit::Fresh));
        }
        ledger.complete("parked", None, t0);
        ledger.park("parked");
        ledger.complete("claimed", None, t0 + Duration::from_millis(10));
        ledger.sweep(t0 + ttl - Duration::from_nanos(1), ttl);
        assert_eq!((ledger.jobs.len(), ledger.expired), (3, 0));
        ledger.sweep(t0 + ttl, ttl);
        assert_eq!((ledger.jobs.len(), ledger.expired), (2, 1));
        ledger.sweep(t0 + Duration::from_secs(3600), ttl);
        assert_eq!((ledger.jobs.len(), ledger.expired, ledger.in_flight()), (1, 1, 1));
    }

    /// A job that completes after its connection dropped still has its
    /// terminal frame rendered, by the dead connection's writer, and parked;
    /// the tenant's next connection re-sends the id and gets the frame
    /// replayed without the job running again.
    #[test]
    fn a_job_that_completes_after_its_connection_dropped_is_parked_and_replayed() {
        let mut config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
        config.base =
            config.base.into_builder().num_workers(2).num_combiners(1).build().expect("config");
        let server = Server::bind(config).expect("server binds loopback");
        let addr = server.local_addr().to_string();
        let request = |kind: RequestKind, members: Vec<(&'static str, Value)>| {
            obj(members.into_iter().chain([("type", Value::Str(kind.as_str().into()))]))
        };
        let hello = request(RequestKind::Hello, vec![("tenant", Value::Str("gone".into()))]);
        let submit = request(
            RequestKind::Submit,
            vec![
                ("id", Value::Num(1.0)),
                ("request_id", Value::Str("late".into())),
                ("app", Value::Str("wc".into())),
                // 400 times the input of a 1 ms job: it is still running
                // when the connection drops right after ACCEPTED.
                ("scale", Value::Num(50.0)),
            ],
        );
        // One connection: HELLO and SUBMIT, then every reply up to the
        // first of kind `until`; the connection closes on return.
        let exchange = |until: ResponseKind| {
            let mut stream = TcpStream::connect(&addr).expect("dial");
            for request in [&hello, &submit] {
                proto::write_frame(&mut stream, request, 1 << 20).expect("a request writes");
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut kinds = Vec::new();
            loop {
                let reply = proto::read_frame(&mut reader, 16 << 20).expect("a reply reads");
                let reply = reply.expect("the server keeps the connection open");
                kinds.push(proto::frame_type(&reply).expect("typed").to_string());
                if kinds.last().is_some_and(|kind| kind == until.as_str()) {
                    return (kinds, reply);
                }
            }
        };
        let (kinds, _) = exchange(ResponseKind::Accepted);
        assert_eq!(kinds, ["WELCOME", "ACCEPTED"]);
        // The connection is closed here; the job completes after it.
        let deadline = Instant::now() + Duration::from_secs(60);
        let gauge = |name| {
            let metrics = server.inner.metrics_frame();
            let tenants = metrics.get("tenants").and_then(Value::as_arr).expect("tenants");
            tenants[0].get(name).and_then(Value::as_u64).expect("a ledger gauge")
        };
        while gauge("ledger_in_flight") > 0 {
            assert!(Instant::now() < deadline, "the job never resolved");
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(gauge("parked"), 1, "the frame found no connection to go to");
        let (kinds, result) = exchange(ResponseKind::Result);
        assert_eq!(kinds, ["WELCOME", "ACCEPTED", "RESULT"]);
        assert_eq!(result.get("request_id").and_then(Value::as_str), Some("late"));
        assert!(result.get("keys").and_then(Value::as_u64).is_some_and(|keys| keys > 0));
        assert_eq!((gauge("parked"), gauge("dedup_hits")), (1, 1));
        assert_eq!(server.execution_ledger(), ["gone:late"], "replayed, not run again");
    }

    /// A frame larger than every socket buffer, written in place to a peer
    /// that never reads, gives up once the write deadline has passed — not
    /// one deadline per partial write — and kills the connection, so no
    /// thread blocks on a stalled socket longer than the deadline.
    #[test]
    fn an_in_place_write_to_a_peer_that_never_reads_gives_up_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (stream, _) = listener.accept().expect("accept");
        let writer = Outbound::open(&stream, usize::MAX).expect("open");
        let (done, outcome) = mpsc::channel();
        let sender = Arc::clone(&writer);
        let sending = thread::spawn(move || {
            let _ = done.send(sender.send_encoded(Arc::new(vec![b' '; 16 << 20])));
        });
        let sent = outcome
            .recv_timeout(WRITE_DEADLINE + Duration::from_secs(3))
            .expect("the write gave up within the deadline");
        sending.join().expect("the sending thread");
        assert_eq!(sent.expect_err("nothing read the frame").kind(), io::ErrorKind::TimedOut);
        let after = writer.send(&frame(ResponseKind::Pong, []));
        assert!(after.is_err(), "a kicked connection takes no more frames");
    }
}
