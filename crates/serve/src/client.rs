//! The client library behind `ramr client`, the socket tests, and the
//! benchmark's `serve-small` workload.
//!
//! [`ServeClient`] is a synchronous handle over (possibly several
//! consecutive) connections: connect + `HELLO` in
//! [`ServeClient::connect`], then [`submit`](ServeClient::submit) /
//! [`next_result`](ServeClient::next_result) (or the one-call
//! [`run_job`](ServeClient::run_job) which retries through
//! backpressure), [`metrics`](ServeClient::metrics), and
//! [`shutdown`](ServeClient::shutdown). Because results stream back
//! asynchronously, frames can arrive out of the order this client asks
//! for them; a small pending queue reorders them, so e.g. a `RESULT`
//! landing while we wait for a `METRICS_REPORT` is kept, not lost.
//!
//! # Exactly-once across reconnects
//!
//! Every `SUBMIT` is stamped with a durable `request_id` and recorded
//! before the first byte leaves the socket. When the connection dies
//! mid-job (and [`ClientOptions::max_reconnect_attempts`] is nonzero, as
//! it is by default), the client re-dials with decorrelated-jitter
//! backoff, re-`HELLO`s, and re-sends the recorded `SUBMIT` frames
//! verbatim. The server's dedup ledger recognises the `request_id`s and
//! re-attaches the jobs instead of re-executing them; terminal frames
//! that raced the disconnect are replayed from the server's parking
//! ledger. The client in turn keeps a bounded set of completed
//! `request_id`s so a replayed terminal frame it already consumed is
//! counted ([`ServeClient::duplicate_terminals`]) and dropped, never
//! surfaced twice.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ramr_telemetry::json::Value;

use crate::proto::{self, RequestKind, ResponseKind, PROTOCOL_VERSION};

/// Ceiling for the decorrelated-jitter backoff between shed retries in
/// [`ServeClient::run_job`] and between reconnect attempts.
const BACKOFF_CAP_MS: u64 = 2_000;

/// How many completed `request_id`s the client remembers for duplicate
/// suppression before forgetting the oldest.
const COMPLETED_CAP: usize = 4_096;

/// Socket read timeout while waiting for frames: short enough to notice
/// a due heartbeat and poll for recovery, long enough not to spin.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent something this client cannot make sense of.
    Protocol(String),
    /// The server answered with an `ERROR` frame (auth, unknown app, ...).
    Remote(String),
    /// A submit was shed; carries the server's typed reason and hint.
    Shed {
        /// The wire reason (`queue-full` / `rate-limited` / `quota` /
        /// `saturated`).
        reason: String,
        /// The server's suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// The job ran (or was queued) and failed; carries the server's
    /// `JOB_ERROR` message.
    JobFailed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server refused: {m}"),
            ServeError::Shed { reason, retry_after_ms } => {
                write!(f, "job shed ({reason}); retry after {retry_after_ms} ms")
            }
            ServeError::JobFailed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One job to submit: the wire-side mirror of a `ramr run` invocation.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// App wire name (`wc` / `hg` / `lr` / `km`, `poison` in chaos mode).
    pub app: String,
    /// Paper platform of the Table I row (`hwl` / `phi`).
    pub platform: String,
    /// Input flavor (`small` / `medium` / `large`).
    pub flavor: String,
    /// Scale divisor over Table I (larger = smaller input).
    pub scale: u64,
    /// Backend override; `None` uses the server's default.
    pub backend: Option<String>,
    /// Per-job knob overrides: `ENV_KNOBS` cli names → raw values.
    pub knobs: Vec<(String, String)>,
    /// Ask the server to echo the full rendered output in the `RESULT`.
    pub echo_output: bool,
}

impl JobRequest {
    /// A request for `app` with the CLI's defaults (hwl / small /
    /// scale 2000, server-default backend, no overrides).
    pub fn new(app: &str) -> JobRequest {
        JobRequest {
            app: app.to_string(),
            platform: "hwl".into(),
            flavor: "small".into(),
            scale: mr_apps::inputs::DEFAULT_SCALE,
            backend: None,
            knobs: Vec::new(),
            echo_output: false,
        }
    }
}

/// One completed job as reported over the wire.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The submit id this result answers.
    pub id: u64,
    /// The durable dedup id the client stamped on the `SUBMIT`, echoed
    /// back by the server (`None` on frames from pre-dedup servers).
    pub request_id: Option<String>,
    /// Distinct keys in the reduced output.
    pub keys: u64,
    /// FNV-1a 64 digest of the canonical rendering (hex).
    pub digest: String,
    /// The rendered output, when the submit asked for an echo.
    pub output: Option<String>,
    /// Milliseconds the job spent queued.
    pub queued_ms: f64,
    /// Milliseconds the epoch ran.
    pub ran_ms: f64,
    /// How many `RETRY_AFTER` responses the submit absorbed before being
    /// accepted (only counted by [`ServeClient::run_job`]).
    pub sheds: u64,
    /// The full `--metrics-json` report for the run.
    pub metrics: Value,
}

/// Tuning for a [`ServeClient`]: reconnect policy and heartbeat.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// How many consecutive re-dials to attempt, resuming in-flight
    /// `request_id`s, before giving up and surfacing the original error.
    /// `0` surfaces raw socket errors (the pre-resilience behavior).
    pub max_reconnect_attempts: u32,
    /// First-retry floor for the decorrelated-jitter backoff, in ms.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in ms (both reconnects and shed retries).
    pub backoff_cap_ms: u64,
    /// Heartbeat interval to propose in `HELLO`, in ms. `0` (the
    /// default) proposes none; otherwise the server answers with
    /// `min(proposal, server ceiling)` and both sides enforce it.
    pub heartbeat_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            max_reconnect_attempts: 8,
            backoff_base_ms: 50,
            backoff_cap_ms: BACKOFF_CAP_MS,
            heartbeat_ms: 0,
        }
    }
}

/// One live socket: the buffered read half and the raw write half.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A synchronous client, authenticated as one tenant, that survives
/// connection churn (see the module docs for the resume protocol).
pub struct ServeClient {
    addr: String,
    tenant: String,
    token: Option<String>,
    opts: ClientOptions,
    conn: Conn,
    max_frame: usize,
    next_id: u64,
    /// Session-unique prefix baked into every `request_id` so ids from
    /// different client processes of the same tenant never collide.
    nonce: u64,
    /// XorShift64 state feeding the backoff jitter and ping nonces.
    rng: u64,
    /// Heartbeat interval negotiated in the latest `WELCOME` (0 = off).
    heartbeat_ms: u64,
    /// When the last frame left this client (heartbeat bookkeeping).
    last_write: Instant,
    /// `SUBMIT` frames sent but not yet terminally answered, by submit
    /// id; re-sent verbatim after a reconnect.
    inflight: BTreeMap<u64, Value>,
    /// Frames read while waiting for a different kind.
    pending: VecDeque<Value>,
    /// Completed `request_id`s (bounded by `COMPLETED_CAP`): terminal
    /// frames seen again after a replay are dropped, not re-surfaced.
    completed: BTreeSet<String>,
    completed_order: VecDeque<String>,
    reconnects: u64,
    duplicate_terminals: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("next_id", &self.next_id)
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects to `addr` and authenticates as `tenant`, with default
    /// [`ClientOptions`] (auto-reconnect on, no heartbeat).
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when the server refuses the handshake
    /// (bad token), [`ServeError::Io`]/[`ServeError::Protocol`] on
    /// transport trouble.
    pub fn connect(
        addr: &str,
        tenant: &str,
        token: Option<&str>,
    ) -> Result<ServeClient, ServeError> {
        ServeClient::connect_with(addr, tenant, token, ClientOptions::default())
    }

    /// [`connect`](Self::connect) with explicit reconnect/heartbeat
    /// tuning.
    ///
    /// # Errors
    ///
    /// As [`connect`](Self::connect); the initial dial is never retried,
    /// only established sessions recover.
    pub fn connect_with(
        addr: &str,
        tenant: &str,
        token: Option<&str>,
        opts: ClientOptions,
    ) -> Result<ServeClient, ServeError> {
        let (conn, heartbeat_ms) = dial(addr, tenant, token, opts.heartbeat_ms, 4 << 20)?;
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            ^ (u64::from(std::process::id()) << 32);
        Ok(ServeClient {
            addr: addr.to_string(),
            tenant: tenant.to_string(),
            token: token.map(str::to_string),
            opts,
            conn,
            max_frame: 4 << 20,
            next_id: 1,
            nonce,
            rng: nonce | 1,
            heartbeat_ms,
            last_write: Instant::now(),
            inflight: BTreeMap::new(),
            pending: VecDeque::new(),
            completed: BTreeSet::new(),
            completed_order: VecDeque::new(),
            reconnects: 0,
            duplicate_terminals: 0,
        })
    }

    /// How many times this client re-dialed and resumed after losing an
    /// established connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many terminal frames arrived for a `request_id` that was
    /// already completed (replays absorbed by dedup, never surfaced).
    pub fn duplicate_terminals(&self) -> u64 {
        self.duplicate_terminals
    }

    /// Submits one job without retrying. Returns the assigned submit id;
    /// the result arrives later via [`next_result`](Self::next_result).
    ///
    /// # Errors
    ///
    /// [`ServeError::Shed`] when admission control refused it (retry
    /// after the carried hint), [`ServeError::JobFailed`] when the server
    /// rejected the job spec itself.
    pub fn submit(&mut self, request: &JobRequest) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let rid = format!("{}-{:x}-{id}", self.tenant, self.nonce);
        let mut members = vec![
            ("type", Value::Str(RequestKind::Submit.as_str().into())),
            ("id", Value::Num(id as f64)),
            ("request_id", Value::Str(rid.clone())),
            ("app", Value::Str(request.app.clone())),
            ("platform", Value::Str(request.platform.clone())),
            ("flavor", Value::Str(request.flavor.clone())),
            ("scale", Value::Num(request.scale as f64)),
        ];
        if let Some(backend) = &request.backend {
            members.push(("backend", Value::Str(backend.clone())));
        }
        if request.echo_output {
            members.push(("echo_output", Value::Bool(true)));
        }
        let knobs: BTreeMap<String, Value> =
            request.knobs.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
        members.push(("knobs", Value::Obj(knobs)));
        let frame = to_obj(&members);
        // Recorded *before* the send: if the socket dies mid-write the
        // recovery path re-sends this exact frame and the server's dedup
        // ledger keeps the job single-execution.
        self.inflight.insert(id, frame.clone());
        if let Err(e) = self.send_value(&frame) {
            if let Err(e) = self.try_recover(e) {
                self.inflight.remove(&id);
                return Err(e);
            }
        }
        loop {
            let reply = match self.read_kind_resumable(
                &[ResponseKind::Accepted, ResponseKind::RetryAfter, ResponseKind::JobError],
                true,
            ) {
                Ok(reply) => reply,
                Err(e) => {
                    self.inflight.remove(&id);
                    return Err(e);
                }
            };
            match proto::frame_type(&reply).map_err(ServeError::Protocol)? {
                "ACCEPTED" => {
                    // A stale ack (another id, replayed by a resume) is
                    // not ours; keep waiting.
                    match reply.get("id").and_then(Value::as_u64) {
                        Some(got) if got != id => continue,
                        _ => return Ok(id),
                    }
                }
                "RETRY_AFTER" => {
                    // The shed submit was never admitted; a retry will
                    // carry a fresh request_id.
                    self.inflight.remove(&id);
                    return Err(ServeError::Shed {
                        reason: reply
                            .get("reason")
                            .and_then(Value::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        retry_after_ms: reply
                            .get("retry_after_ms")
                            .and_then(Value::as_u64)
                            .unwrap_or(50),
                    });
                }
                _ => {
                    // JOB_ERROR: only ours if it names our request_id
                    // (or carries none, from a submit refused pre-dedup).
                    match reply.get("request_id").and_then(Value::as_str) {
                        Some(got) if got != rid => {
                            self.pending.push_back(reply);
                            continue;
                        }
                        _ => {
                            self.inflight.remove(&id);
                            return Err(ServeError::JobFailed(
                                reply
                                    .get("error")
                                    .and_then(Value::as_str)
                                    .unwrap_or("unspecified")
                                    .to_string(),
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Blocks for the next `RESULT` (any id), converting `JOB_ERROR`
    /// frames into [`ServeError::JobFailed`]. Survives connection churn
    /// while submits are in flight.
    pub fn next_result(&mut self) -> Result<JobResult, ServeError> {
        let reply =
            self.read_kind_resumable(&[ResponseKind::Result, ResponseKind::JobError], true)?;
        match proto::frame_type(&reply).map_err(ServeError::Protocol)? {
            "RESULT" => parse_result(&reply),
            _ => Err(ServeError::JobFailed(
                reply.get("error").and_then(Value::as_str).unwrap_or("unspecified").to_string(),
            )),
        }
    }

    /// Submits one job end to end: retries through `RETRY_AFTER`
    /// backpressure with decorrelated-jitter backoff (floored at the
    /// server's hint, capped at [`ClientOptions::backoff_cap_ms`], up to
    /// `max retries` = 1000) and blocks for the matching result.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobFailed`] when the job ran and failed;
    /// [`ServeError::Shed`] only if the retry budget is exhausted.
    pub fn run_job(&mut self, request: &JobRequest) -> Result<JobResult, ServeError> {
        let mut sheds = 0u64;
        let mut prev_ms = self.opts.backoff_base_ms;
        let id = loop {
            match self.submit(request) {
                Ok(id) => break id,
                Err(ServeError::Shed { retry_after_ms, reason }) => {
                    sheds += 1;
                    if sheds > 1000 {
                        return Err(ServeError::Shed { reason, retry_after_ms });
                    }
                    let wait = shed_backoff(
                        retry_after_ms,
                        prev_ms,
                        self.opts.backoff_cap_ms,
                        self.next_rand(),
                    );
                    prev_ms = wait;
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(other) => return Err(other),
            }
        };
        loop {
            let mut result = self.next_result()?;
            if result.id == id {
                result.sheds = sheds;
                return Ok(result);
            }
            // A result for an earlier overlapping submit: keep it for a
            // later next_result call.
            self.pending.push_back(result_to_frame(&result));
        }
    }

    /// Fetches the live telemetry snapshot (`METRICS` →
    /// `METRICS_REPORT`), returned as the parsed JSON frame.
    pub fn metrics(&mut self) -> Result<Value, ServeError> {
        self.send(&[("type", Value::Str(RequestKind::Metrics.as_str().into()))])?;
        self.read_kind(&[ResponseKind::MetricsReport])
    }

    /// Asks the server to shut down gracefully and reads until `BYE`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when the server refuses (bad token).
    pub fn shutdown(&mut self, token: Option<&str>) -> Result<(), ServeError> {
        let mut members = vec![("type", Value::Str(RequestKind::Shutdown.as_str().into()))];
        if let Some(token) = token {
            members.push(("token", Value::Str(token.into())));
        }
        self.send(&members)?;
        self.read_kind(&[ResponseKind::Bye]).map(|_| ())
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn send(&mut self, members: &[(&str, Value)]) -> Result<(), ServeError> {
        let frame = to_obj(members);
        self.send_value(&frame)
    }

    fn send_value(&mut self, frame: &Value) -> Result<(), ServeError> {
        proto::write_frame(&mut self.conn.writer, frame, self.max_frame)?;
        self.last_write = Instant::now();
        Ok(())
    }

    /// Sends a `PING` if the negotiated heartbeat interval has elapsed
    /// since the last outgoing frame. Write errors are swallowed here:
    /// the read path notices the dead socket and recovers.
    fn maybe_ping(&mut self) {
        if self.heartbeat_ms == 0
            || self.last_write.elapsed() < Duration::from_millis(self.heartbeat_ms)
        {
            return;
        }
        let nonce = self.next_rand() & 0xffff_ffff;
        let _ = self.send(&[
            ("type", Value::Str(RequestKind::Ping.as_str().into())),
            ("nonce", Value::Num(nonce as f64)),
        ]);
    }

    /// Re-dials, re-`HELLO`s, and re-sends every in-flight `SUBMIT`
    /// frame, with decorrelated-jitter backoff between attempts.
    /// Returns `Err(err)` (the original failure) when nothing is in flight
    /// (nothing to resume) or the attempt budget, possibly zero, runs out.
    fn try_recover(&mut self, err: ServeError) -> Result<(), ServeError> {
        if self.inflight.is_empty() {
            return Err(err);
        }
        let mut prev_ms = self.opts.backoff_base_ms;
        'attempts: for attempt in 0..self.opts.max_reconnect_attempts {
            if attempt > 0 {
                let wait = shed_backoff(
                    self.opts.backoff_base_ms,
                    prev_ms,
                    self.opts.backoff_cap_ms,
                    self.next_rand(),
                );
                prev_ms = wait;
                std::thread::sleep(Duration::from_millis(wait));
            }
            let (conn, heartbeat_ms) = match dial(
                &self.addr,
                &self.tenant,
                self.token.as_deref(),
                self.opts.heartbeat_ms,
                self.max_frame,
            ) {
                Ok(dialed) => dialed,
                Err(_) => continue 'attempts,
            };
            self.conn = conn;
            self.heartbeat_ms = heartbeat_ms;
            self.last_write = Instant::now();
            // Resume: replay the recorded SUBMITs in submit order. The
            // server rebinds in-flight request_ids and replays parked
            // terminal frames; duplicates die in the completed set.
            let frames: Vec<Value> = self.inflight.values().cloned().collect();
            for frame in &frames {
                if self.send_value(frame).is_err() {
                    continue 'attempts;
                }
            }
            self.reconnects += 1;
            return Ok(());
        }
        Err(err)
    }

    fn read_kind(&mut self, kinds: &[ResponseKind]) -> Result<Value, ServeError> {
        self.read_kind_resumable(kinds, false)
    }

    /// Reads frames until one of `kinds` arrives, parking other response
    /// kinds in the pending queue. `ERROR` frames surface as
    /// [`ServeError::Remote`] regardless of what was asked for. With
    /// `resume`, transport failures trigger [`Self::try_recover`]
    /// instead of surfacing.
    ///
    /// All ingestion-time bookkeeping lives here: terminal frames are
    /// deduplicated against the completed set and retired from the
    /// in-flight map, `PONG`s are absorbed, and stale acks replayed by a
    /// resume are dropped.
    fn read_kind_resumable(
        &mut self,
        kinds: &[ResponseKind],
        resume: bool,
    ) -> Result<Value, ServeError> {
        let accepts = |frame: &Value| {
            proto::frame_type(frame)
                .ok()
                .and_then(ResponseKind::from_wire)
                .is_some_and(|k| kinds.contains(&k))
        };
        if let Some(at) = self.pending.iter().position(accepts) {
            return Ok(self.pending.remove(at).expect("position just found"));
        }
        loop {
            let frame = match proto::read_frame(&mut self.conn.reader, self.max_frame) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    let err = ServeError::Protocol("server closed the connection".into());
                    if resume {
                        self.try_recover(err)?;
                        continue;
                    }
                    return Err(err);
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    self.maybe_ping();
                    continue;
                }
                Err(e) => {
                    let err = ServeError::Io(e);
                    if resume {
                        self.try_recover(err)?;
                        continue;
                    }
                    return Err(err);
                }
            };
            let kind = proto::frame_type(&frame).map_err(ServeError::Protocol)?.to_string();
            match ResponseKind::from_wire(&kind) {
                Some(ResponseKind::Pong) => continue,
                Some(ResponseKind::Result | ResponseKind::JobError) => {
                    if let Some(rid) = frame.get("request_id").and_then(Value::as_str) {
                        if self.completed.contains(rid) {
                            self.duplicate_terminals += 1;
                            continue;
                        }
                        let rid = rid.to_string();
                        let id = frame.get("id").and_then(Value::as_u64).or_else(|| {
                            self.inflight
                                .iter()
                                .find(|(_, f)| {
                                    f.get("request_id").and_then(Value::as_str)
                                        == Some(rid.as_str())
                                })
                                .map(|(id, _)| *id)
                        });
                        if let Some(id) = id {
                            self.inflight.remove(&id);
                        }
                        self.note_completed(rid);
                    }
                }
                _ => {}
            }
            if accepts(&frame) {
                return Ok(frame);
            }
            match ResponseKind::from_wire(&kind) {
                Some(ResponseKind::Error) => {
                    return Err(ServeError::Remote(
                        frame
                            .get("error")
                            .and_then(Value::as_str)
                            .unwrap_or("unspecified")
                            .to_string(),
                    ));
                }
                // An ack nobody is awaiting can only be the echo of a
                // resume re-send; it carries no new information.
                Some(ResponseKind::Accepted | ResponseKind::RetryAfter) => continue,
                Some(_) => self.pending.push_back(frame),
                None => {
                    return Err(ServeError::Protocol(format!("unknown response kind {kind:?}")))
                }
            }
        }
    }

    fn note_completed(&mut self, rid: String) {
        if self.completed.insert(rid.clone()) {
            self.completed_order.push_back(rid);
            while self.completed_order.len() > COMPLETED_CAP {
                if let Some(evict) = self.completed_order.pop_front() {
                    self.completed.remove(&evict);
                }
            }
        }
    }
}

/// One reconnect/shed wait via decorrelated jitter: uniformly random in
/// `[low, high)` where `low` is the floor (server hint or base) and
/// `high` grows with the previous wait (`prev * 3`) but never past
/// `cap`. `rand` supplies the randomness so the schedule is a pure
/// function, unit-testable without sleeping.
fn shed_backoff(floor_ms: u64, prev_ms: u64, cap_ms: u64, rand: u64) -> u64 {
    let low = floor_ms.max(1);
    let high = prev_ms.saturating_mul(3).clamp(low + 1, cap_ms.max(low + 1));
    low + rand % (high - low)
}

/// Dials `addr`, performs the `HELLO`/`WELCOME` handshake (proposing
/// `heartbeat_ms` when nonzero), and arms the read-poll timeout.
/// Returns the connection and the negotiated heartbeat interval.
fn dial(
    addr: &str,
    tenant: &str,
    token: Option<&str>,
    heartbeat_ms: u64,
    max_frame: usize,
) -> Result<(Conn, u64), ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut hello = vec![
        ("type", Value::Str(RequestKind::Hello.as_str().into())),
        ("tenant", Value::Str(tenant.into())),
        ("version", Value::Num(PROTOCOL_VERSION as f64)),
    ];
    if let Some(token) = token {
        hello.push(("token", Value::Str(token.into())));
    }
    if heartbeat_ms > 0 {
        hello.push(("heartbeat_ms", Value::Num(heartbeat_ms as f64)));
    }
    proto::write_frame(&mut writer, &to_obj(&hello), max_frame)?;
    let welcome = loop {
        match proto::read_frame(&mut reader, max_frame) {
            Ok(Some(frame)) => break frame,
            Ok(None) => {
                return Err(ServeError::Protocol(
                    "server closed the connection during handshake".into(),
                ))
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    };
    match proto::frame_type(&welcome).map_err(ServeError::Protocol)? {
        "WELCOME" => {}
        "ERROR" => {
            return Err(ServeError::Remote(
                welcome.get("error").and_then(Value::as_str).unwrap_or("unspecified").to_string(),
            ));
        }
        other => {
            return Err(ServeError::Protocol(format!("expected WELCOME, got {other:?}")));
        }
    }
    debug_assert_eq!(welcome.get("tenant").and_then(Value::as_str), Some(tenant));
    let negotiated = welcome.get("heartbeat_ms").and_then(Value::as_u64).unwrap_or(0);
    // The poll tick keeps the heartbeat and recovery paths responsive;
    // read_frame's mid-frame patience still rides out slow frames.
    reader.get_ref().set_read_timeout(Some(POLL_TICK)).ok();
    Ok((Conn { reader, writer }, negotiated))
}

fn to_obj(members: &[(&str, Value)]) -> Value {
    Value::Obj(members.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

fn parse_result(frame: &Value) -> Result<JobResult, ServeError> {
    let field_u64 = |name: &str| {
        frame
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| ServeError::Protocol(format!("RESULT missing numeric {name:?}")))
    };
    let field_f64 = |name: &str| {
        frame
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| ServeError::Protocol(format!("RESULT missing numeric {name:?}")))
    };
    Ok(JobResult {
        id: field_u64("id")?,
        request_id: frame.get("request_id").and_then(Value::as_str).map(str::to_string),
        keys: field_u64("keys")?,
        digest: frame
            .get("digest")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Protocol("RESULT missing digest".into()))?
            .to_string(),
        output: frame.get("output").and_then(Value::as_str).map(str::to_string),
        queued_ms: field_f64("queued_ms")?,
        ran_ms: field_f64("ran_ms")?,
        sheds: 0,
        metrics: frame.get("metrics").cloned().unwrap_or(Value::Null),
    })
}

/// Re-frames a parsed result so it can sit in the pending queue next to
/// raw frames (used when results arrive out of submit order).
fn result_to_frame(result: &JobResult) -> Value {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("type".into(), Value::Str(ResponseKind::Result.as_str().into()));
    obj.insert("id".into(), Value::Num(result.id as f64));
    if let Some(rid) = &result.request_id {
        obj.insert("request_id".into(), Value::Str(rid.clone()));
    }
    obj.insert("keys".into(), Value::Num(result.keys as f64));
    obj.insert("digest".into(), Value::Str(result.digest.clone()));
    if let Some(output) = &result.output {
        obj.insert("output".into(), Value::Str(output.clone()));
    }
    obj.insert("queued_ms".into(), Value::Num(result.queued_ms));
    obj.insert("ran_ms".into(), Value::Num(result.ran_ms));
    obj.insert("metrics".into(), result.metrics.clone());
    Value::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks `shed_backoff` through a deterministic random stream,
    /// returning the full wait schedule.
    fn schedule(floor_ms: u64, cap_ms: u64, mut rng: u64, steps: usize) -> Vec<u64> {
        let mut prev = 50;
        (0..steps)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                prev = shed_backoff(floor_ms, prev, cap_ms, rng);
                prev
            })
            .collect()
    }

    #[test]
    fn shed_backoff_stays_between_hint_and_cap() {
        for seed in 1..=8u64 {
            for wait in schedule(25, BACKOFF_CAP_MS, seed, 64) {
                assert!((25..=BACKOFF_CAP_MS).contains(&wait), "wait {wait} out of bounds");
            }
        }
    }

    #[test]
    fn shed_backoff_is_decorrelated_jitter() {
        // Different random streams must diverge (no lockstep thundering
        // herd), and a maximal-jitter walk must actually grow.
        assert_ne!(schedule(50, BACKOFF_CAP_MS, 1, 16), schedule(50, BACKOFF_CAP_MS, 2, 16));
        let mut prev = 50;
        let mut grew = false;
        for _ in 0..16 {
            let next = shed_backoff(50, prev, BACKOFF_CAP_MS, u64::MAX - 1);
            grew |= next > prev;
            prev = next;
        }
        assert!(grew, "maximal jitter never grew past the base wait");
    }

    #[test]
    fn shed_backoff_never_drops_below_the_server_hint() {
        // Even when the cap is tighter than the hint, the hint wins:
        // retrying sooner than the server asked is never correct.
        assert_eq!(shed_backoff(500, 100, 200, 0), 500);
        // Degenerate zeroes stay sane (no div-by-zero, no zero sleep).
        assert_eq!(shed_backoff(0, 0, 0, 0), 1);
    }

    #[test]
    fn shed_backoff_caps_runaway_growth() {
        let mut prev = 50;
        for _ in 0..64 {
            prev = shed_backoff(50, prev, 400, u64::MAX - 7);
            assert!(prev <= 400, "wait {prev} exceeded the cap");
        }
    }

    #[test]
    fn client_options_default_to_resilient() {
        let opts = ClientOptions::default();
        assert!(opts.max_reconnect_attempts >= 4);
        assert!(opts.backoff_base_ms >= 1);
        assert_eq!(opts.backoff_cap_ms, BACKOFF_CAP_MS);
        assert_eq!(opts.heartbeat_ms, 0);
    }
}
