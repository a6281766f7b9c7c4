//! The server: accept loop, per-connection protocol drivers, pool cache,
//! and the graceful-shutdown choreography.
//!
//! Thread structure (one box per thread kind):
//!
//! ```text
//! accept loop ──spawns──▶ connection driver ──spawns──▶ job waiter
//!   (1 per server)          (1 per client)              (1 per accepted job)
//!                                 │ spawns
//!                                 ▼
//!                           backlog writer
//!                           (1 per client)
//!
//! a reply:  Value ──encode once──▶ LEN SP JSON NL bytes
//!             ├─ nothing queued, no write in flight ─▶ written by the sender
//!             └─ otherwise ─▶ bounded backlog ─▶ written by the backlog writer
//! ```
//!
//! The connection driver owns the read side of its socket. Replies are
//! encoded once, by the thread that produced them, and in the common case
//! written to the socket by that same thread: the driver writes its own
//! `ACCEPTED` / `METRICS_REPORT` / `PONG`, a job waiter writes its
//! `RESULT`. Only a frame sent while another write is in flight joins a
//! **bounded backlog**, which the per-connection writer thread drains in
//! order, so frames never tear or overtake each other. Every frame write
//! and every wait for backlog space is bounded by the write deadline; a
//! slow client that exceeds it is kicked rather than allowed to wedge a
//! waiter or the driver. Every blocking read carries a short timeout, which
//! doubles as the shutdown poll: when the stop flag rises, drivers finish
//! their waiters, say `BYE`, and exit; the accept loop joins them all
//! before [`Server::wait`] returns.
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

use std::collections::{BTreeMap, VecDeque};
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

/// One `request_id`'s place in the dedup ledger.
enum JobState {
    /// Accepted and running; `writer` is the connection the terminal
    /// frame should go to — rebound every time the tenant re-sends this
    /// `request_id` from a new connection.
    InFlight { writer: FrameWriter },
    /// Terminal frame produced, kept as its wire bytes (claimed or not)
    /// until the park TTL expires so a reconnecting client can always
    /// re-claim its result. `None` when the frame exceeded the frame
    /// bound: it could never be sent, so a replay sends nothing.
    Done { frame: Option<Encoded>, at: Instant, claimed: bool },
}

/// Per-tenant wire-resilience state: the dedup ledger, the rate bucket,
/// and the resilience counters the `METRICS` endpoint reports.
struct TenantLedger {
    jobs: BTreeMap<String, JobState>,
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
    rate_limited: u64,
}

impl TenantLedger {
    fn new(burst: f64) -> TenantLedger {
        TenantLedger {
            jobs: BTreeMap::new(),
            tokens: burst,
            last_refill: Instant::now(),
            seen_hello: false,
            reconnects: 0,
            dedup_hits: 0,
            parked: 0,
            expired: 0,
            rate_limited: 0,
        }
    }

    /// Drops `Done` entries older than `ttl`; an entry evicted without
    /// ever having been claimed counts as expired (its result was lost).
    fn sweep(&mut self, ttl: Duration) {
        let mut expired = 0;
        self.jobs.retain(|_, state| match state {
            JobState::InFlight { .. } => true,
            JobState::Done { at, claimed, .. } => {
                let keep = at.elapsed() < ttl;
                if !keep && !*claimed {
                    expired += 1;
                }
                keep
            }
        });
        self.expired += expired;
    }
}

struct Inner {
    config: ServeConfig,
    stop: AtomicBool,
    /// `None` once shutdown has taken (and dropped) the pools.
    pools: Mutex<Option<BTreeMap<PoolKey, Arc<dyn AppPool>>>>,
    /// Per-tenant dedup ledgers, rate buckets, and resilience counters.
    /// Never held across a `pools` lock (or vice versa): every path takes
    /// the two sequentially, so no lock order can deadlock.
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
        let ledger =
            guard.entry(tenant.to_string()).or_insert_with(|| TenantLedger::new(self.burst()));
        ledger.sweep(self.park_ttl());
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

    /// Routes a `request_id` job's terminal frame: sent to the
    /// connection currently bound to the id when possible, and retained
    /// in the ledger either way (claimed on success, parked on failure)
    /// so a reconnecting tenant can re-claim it until the TTL expires.
    fn deliver(&self, tenant: &str, rid: &str, reply: &Value) {
        let frame = proto::encode_frame(reply, self.config.max_frame).ok().map(Arc::new);
        // The entry flips to Done *before* the send: the client may react
        // to the terminal frame instantly (query METRICS, re-submit), and
        // must never observe its own completed job as still in flight.
        let writer = self.with_ledger(tenant, |ledger| match ledger.jobs.get_mut(rid) {
            Some(state @ JobState::InFlight { .. }) => {
                let done =
                    JobState::Done { frame: frame.clone(), at: Instant::now(), claimed: true };
                match std::mem::replace(state, done) {
                    JobState::InFlight { writer } => Some(writer),
                    JobState::Done { .. } => None,
                }
            }
            _ => None,
        });
        // The send happens outside the ledger lock: a stalled client must
        // not block other tenants' submits for the write deadline.
        let sent = writer.zip(frame).is_some_and(|(w, frame)| w.send_encoded(frame).is_ok());
        if !sent {
            self.with_ledger(tenant, |ledger| {
                if let Some(JobState::Done { claimed, .. }) = ledger.jobs.get_mut(rid) {
                    *claimed = false;
                }
                ledger.parked += 1;
            });
        }
    }

    /// Removes a `request_id` reservation after an admission refusal,
    /// returning the connection currently bound to it (rebound by any
    /// duplicate that raced in) so the refusal reaches the live client.
    fn unreserve(&self, tenant: &str, rid: &str) -> Option<FrameWriter> {
        self.with_ledger(tenant, |ledger| match ledger.jobs.remove(rid) {
            Some(JobState::InFlight { writer }) => Some(writer),
            Some(done @ JobState::Done { .. }) => {
                // A racing duplicate cannot have completed the job — only
                // this call's submit path owns it — but keep the entry
                // rather than lose a terminal frame.
                ledger.jobs.insert(rid.to_string(), done);
                None
            }
            None => None,
        })
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
    /// shutdown error, so waiter threads resolve promptly.
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
                let mut entry = BTreeMap::new();
                entry.insert("app".into(), Value::Str(app.clone()));
                entry.insert("backend".into(), Value::Str(backend.clone()));
                entry.insert(
                    "knobs".into(),
                    Value::Obj(
                        knobs.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect(),
                    ),
                );
                entry.insert("queue_depth".into(), Value::Num(status.queue_depth as f64));
                entry.insert("queue_capacity".into(), Value::Num(status.queue_capacity as f64));
                entry.insert("saturated".into(), Value::Bool(status.saturated));
                entry.insert(
                    "tenants".into(),
                    Value::Arr(pool.tenant_stats().iter().map(tenant_json).collect()),
                );
                pools.push(Value::Obj(entry));
            }
        }
        let shutting_down = guard.is_none();
        drop(guard);
        // Ledgers are taken after the pool guard is released — the two
        // locks never nest.
        let mut tenants = Vec::new();
        {
            let mut guard = self.ledgers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (name, ledger) in guard.iter_mut() {
                ledger.sweep(self.park_ttl());
                let inflight =
                    ledger.jobs.values().filter(|s| matches!(s, JobState::InFlight { .. })).count();
                let num = |n: u64| Value::Num(n as f64);
                tenants.push(Value::Obj(
                    [
                        ("tenant".to_string(), Value::Str(name.clone())),
                        ("reconnects".to_string(), num(ledger.reconnects)),
                        ("dedup_hits".to_string(), num(ledger.dedup_hits)),
                        ("parked".to_string(), num(ledger.parked)),
                        ("expired".to_string(), num(ledger.expired)),
                        ("rate_limited".to_string(), num(ledger.rate_limited)),
                        ("ledger_in_flight".to_string(), num(inflight as u64)),
                        ("ledger_entries".to_string(), num(ledger.jobs.len() as u64)),
                    ]
                    .into_iter()
                    .collect(),
                ));
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
    Value::Obj(
        [
            ("tenant".to_string(), Value::Str(s.tenant.clone())),
            ("weight".to_string(), num(u64::from(s.weight))),
            ("submitted".to_string(), num(s.submitted)),
            ("completed".to_string(), num(s.completed)),
            ("failed".to_string(), num(s.failed)),
            ("shed".to_string(), num(s.shed)),
            ("shed_queue_full".to_string(), num(s.shed_queue_full)),
            ("shed_rate_limited".to_string(), num(s.shed_rate_limited)),
            ("shed_quota".to_string(), num(s.shed_quota)),
            ("shed_saturated".to_string(), num(s.shed_saturated)),
            ("queue_wait_ms".to_string(), ms(s.queue_wait)),
            ("max_queue_wait_ms".to_string(), ms(s.max_queue_wait)),
            ("run_time_ms".to_string(), ms(s.run_time)),
        ]
        .into_iter()
        .collect(),
    )
}

/// Builds a response frame: the kind's wire name plus the given members.
fn frame<'a>(kind: ResponseKind, members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let mut obj: BTreeMap<String, Value> =
        members.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    obj.insert("type".into(), Value::Str(kind.as_str().into()));
    Value::Obj(obj)
}

/// One frame's wire bytes (`LEN SP JSON NL`), encoded once and shared by
/// the outbound backlog and the dedup ledger without copying.
type Encoded = Arc<Vec<u8>>;

/// The shared state behind one connection's write side.
struct OutboundState {
    /// Frames waiting their turn, oldest first. Empty unless a write was
    /// in flight when they were sent.
    frames: VecDeque<Encoded>,
    /// Some thread — a sender writing in place or the writer thread — is
    /// writing a frame to the socket right now.
    writing: bool,
    /// Graceful close: no new sends, the writer drains what is queued.
    closing: bool,
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
    /// The writer thread parks here for a backlog to drain.
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
                writing: false,
                closing: false,
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

/// A cloneable handle on a connection's write side; waiter threads and
/// the connection driver interleave whole frames through it.
#[derive(Clone)]
struct FrameWriter {
    out: Arc<Outbound>,
}

impl FrameWriter {
    /// Encodes and sends one frame; delivery failures are returned (the
    /// driver closes on them, the ledger parks terminal frames on them) —
    /// a vanished or too-slow client cannot be told anything.
    fn send(&self, value: &Value) -> io::Result<()> {
        self.send_encoded(Arc::new(proto::encode_frame(value, self.out.max_frame)?))
    }

    /// Sends one encoded frame: written in place when nothing is ahead of
    /// it, else queued for the writer thread.
    fn send_encoded(&self, frame: Encoded) -> io::Result<()> {
        let out = &*self.out;
        let deadline = Instant::now() + WRITE_DEADLINE;
        let mut state = out.lock();
        while !state.dead && !state.closing && state.frames.len() >= OUTBOUND_QUEUE {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Slow client: the backlog sat full for the whole deadline.
                out.kick(&mut state);
                return Err(io::Error::new(io::ErrorKind::TimedOut, "client too slow"));
            }
            let (guard, _) = out
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
            out.work.notify_one();
            return Ok(());
        }
        state.writing = true;
        drop(state);
        out.write(&frame)
    }

    /// Hard close for a vanished peer: marks the connection dead right
    /// away so waiter threads see their sends fail — and park terminal
    /// frames in the ledger — instead of writing into a closed socket's
    /// kernel buffer, where the frame would be silently discarded.
    fn abandon(&self) {
        let mut state = self.out.lock();
        self.out.kick(&mut state);
    }

    /// Graceful close: lets the writer thread drain the backlog and exit.
    fn finish(&self) {
        let mut state = self.out.lock();
        state.closing = true;
        self.out.work.notify_all();
        self.out.space.notify_all();
    }
}

/// The writer thread: drains the backlog that builds up while another
/// thread's write is in flight, in order, then exits once the connection
/// is closing with nothing queued or in flight (or at once when dead).
fn writer_loop(out: &Outbound) {
    let mut state = out.lock();
    loop {
        if state.dead {
            return;
        }
        if !state.writing {
            if let Some(frame) = state.frames.pop_front() {
                state.writing = true;
                out.space.notify_all();
                drop(state);
                if out.write(&frame).is_err() {
                    return;
                }
                state = out.lock();
                continue;
            }
            if state.closing {
                return;
            }
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
    writer: FrameWriter,
    tenant: String,
    /// Waiter threads for this connection's accepted jobs.
    waiters: Vec<thread::JoinHandle<()>>,
}

fn drive_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let Ok(out) = Outbound::open(&stream, inner.config.max_frame) else { return };
    let writer = FrameWriter { out: Arc::clone(&out) };
    let writer_thread = {
        let out = Arc::clone(&out);
        thread::Builder::new().name("ramr-serve-write".into()).spawn(move || writer_loop(&out))
    };
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
        writer.finish();
        let _ = writer_thread.join();
        return;
    };

    let mut conn = Conn { inner, writer, tenant, waiters: Vec::new() };
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
                if !handle_request(&mut conn, &request) {
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
        // The socket is gone; kill the outbound *before* resolving the
        // waiters, so their terminal frames fail to send and park in the
        // ledger for the reconnecting client instead of vanishing into a
        // half-closed socket's kernel buffer.
        conn.writer.abandon();
    }
    // Resolve every in-flight job before saying goodbye, so a client that
    // reads until BYE has seen all of its RESULT / JOB_ERROR frames.
    for waiter in conn.waiters.drain(..) {
        let _ = waiter.join();
    }
    if !peer_gone {
        let _ = conn.writer.send(&frame(ResponseKind::Bye, []));
    }
    conn.writer.finish();
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
fn handle_request(conn: &mut Conn<'_>, request: &Value) -> bool {
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
                    // the driver joins its waiters and BYEs on return.
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

/// One SUBMIT: admission-check, then either spawn a waiter (ACCEPTED) or
/// answer RETRY_AFTER / JOB_ERROR. Job-scoped failures keep the
/// connection alive — only protocol-level breakage closes it.
///
/// A SUBMIT carrying a `request_id` goes through the dedup ledger:
/// * a known in-flight id re-binds delivery to this connection and is
///   re-ACCEPTED (never re-executed);
/// * a known completed id is re-ACCEPTED and its retained terminal frame
///   replayed;
/// * a fresh id is *reserved* before admission, so a duplicate racing in
///   from a reconnect can never double-execute the job.
fn handle_submit(conn: &mut Conn<'_>, request: &Value) {
    // Opportunistically reap finished waiters so long-lived connections
    // do not accumulate dead handles.
    conn.waiters.retain(|h| !h.is_finished());

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
        enum Hit {
            Rebound,
            Replay(Option<Encoded>),
            Full,
            Fresh,
        }
        let hit = conn.inner.with_ledger(&conn.tenant, |ledger| {
            match ledger.jobs.get_mut(rid) {
                Some(JobState::InFlight { writer }) => {
                    *writer = conn.writer.clone();
                    ledger.dedup_hits += 1;
                    Hit::Rebound
                }
                Some(JobState::Done { frame, claimed, .. }) => {
                    ledger.dedup_hits += 1;
                    *claimed = true;
                    Hit::Replay(frame.clone())
                }
                None => {
                    if ledger.jobs.len() >= DEDUP_CAP {
                        // Evict the oldest completed entry to make room.
                        let oldest = ledger
                            .jobs
                            .iter()
                            .filter_map(|(key, state)| match state {
                                JobState::Done { at, .. } => Some((*at, key.clone())),
                                JobState::InFlight { .. } => None,
                            })
                            .min();
                        match oldest {
                            Some((_, key)) => {
                                ledger.jobs.remove(&key);
                            }
                            None => return Hit::Full,
                        }
                    }
                    // Reserve before admission: a duplicate arriving from
                    // a reconnect now re-binds instead of re-submitting.
                    ledger
                        .jobs
                        .insert(rid.clone(), JobState::InFlight { writer: conn.writer.clone() });
                    Hit::Fresh
                }
            }
        });
        match hit {
            Hit::Rebound => {
                let _ = conn.writer.send(&accepted_frame);
                return;
            }
            Hit::Replay(reply) => {
                let _ = conn.writer.send(&accepted_frame);
                if let Some(reply) = reply {
                    let _ = conn.writer.send_encoded(reply);
                }
                return;
            }
            Hit::Full => {
                let _ = conn.writer.send(&job_error_frame(format!(
                    "dedup ledger full ({DEDUP_CAP} in-flight request_ids)"
                )));
                return;
            }
            Hit::Fresh => {}
        }
    }

    // A terminal refusal for a reserved id: deliver to whichever
    // connection the id is bound to now and retain it as the id's
    // outcome (a later duplicate replays it instead of re-running).
    let refuse_terminal = |conn: &Conn<'_>, reply: Value| match &rid {
        Some(rid) => conn.inner.deliver(&conn.tenant, rid, &reply),
        None => {
            let _ = conn.writer.send(&reply);
        }
    };
    // A retryable refusal: drop the reservation (the client is expected
    // to re-submit the same id afresh) and answer the live connection.
    let refuse_retryable = |conn: &Conn<'_>, reply: Value| {
        let writer = rid
            .as_ref()
            .and_then(|rid| conn.inner.unreserve(&conn.tenant, rid))
            .unwrap_or_else(|| conn.writer.clone());
        let _ = writer.send(&reply);
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
        Ok(waiter) => {
            let _ = conn.writer.send(&accepted_frame);
            let writer = conn.writer.clone();
            let tenant = conn.tenant.clone();
            let backend_name = backend.as_str().to_string();
            let inner = Arc::clone(conn.inner);
            let rid = rid.clone();
            let run = move || {
                let reply = match waiter() {
                    Ok(outcome) => {
                        let mut members = vec![
                            ("id", Value::Num(id as f64)),
                            ("tenant", Value::Str(tenant.clone())),
                            ("app", Value::Str(app)),
                            ("backend", Value::Str(backend_name)),
                            ("keys", Value::Num(outcome.keys as f64)),
                            ("digest", Value::Str(outcome.digest)),
                            ("queued_ms", Value::Num(outcome.queued_ms)),
                            ("ran_ms", Value::Num(outcome.ran_ms)),
                            ("metrics", outcome.metrics),
                        ];
                        if let Some(rid) = &rid {
                            members.push(("request_id", Value::Str(rid.clone())));
                        }
                        if let Some(rendered) = outcome.rendered {
                            members.push(("output", Value::Str(rendered)));
                        }
                        frame(ResponseKind::Result, members)
                    }
                    Err(err) => {
                        let mut members = vec![
                            ("id", Value::Num(id as f64)),
                            ("error", Value::Str(err.to_string())),
                        ];
                        if let Some(rid) = &rid {
                            members.push(("request_id", Value::Str(rid.clone())));
                        }
                        frame(ResponseKind::JobError, members)
                    }
                };
                match &rid {
                    // Ledgered job: route through the dedup ledger so a
                    // vanished client's terminal frame parks for pickup.
                    Some(rid) => inner.deliver(&tenant, rid, &reply),
                    // Legacy (no request_id): the client may be gone;
                    // nothing useful to do about it.
                    None => {
                        let _ = writer.send(&reply);
                    }
                }
            };
            if let Ok(handle) = thread::Builder::new().name("ramr-serve-job".into()).spawn(run) {
                conn.waiters.push(handle);
            }
            // On spawn failure (thread exhaustion) the closure is consumed
            // by the failed spawn; the ticket resolves at shutdown.
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
        builder = (knob.apply)(builder, raw, &source).map_err(|e| e.to_string())?;
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

    /// A frame larger than every socket buffer, written in place to a peer
    /// that never reads, gives up once the write deadline has passed — not
    /// one deadline per partial write — and kills the connection, so no
    /// thread blocks on a stalled socket longer than the deadline.
    #[test]
    fn an_in_place_write_to_a_peer_that_never_reads_gives_up_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (stream, _) = listener.accept().expect("accept");
        let writer = FrameWriter { out: Outbound::open(&stream, usize::MAX).expect("open") };
        let (done, outcome) = mpsc::channel();
        let sender = writer.clone();
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
