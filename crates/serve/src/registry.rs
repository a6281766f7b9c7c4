//! The app registry: typed schedulers behind a type-erased pool surface.
//!
//! [`JobScheduler`] is generic over one job type, but the wire carries
//! heterogeneous jobs. Each served app therefore gets its own
//! `TypedPool` — a scheduler plus an input cache — behind the
//! object-safe `AppPool` trait, and the server keys pools by
//! `(app, backend, knob overrides)` so jobs sharing a knob set share a
//! worker pool (the PR 5 pooling win) while divergent knob sets get their
//! own sessions.
//!
//! Inputs are generated server-side from the same deterministic Table I
//! generators the CLI uses (`mr_apps::inputs`), keyed by
//! `(platform, flavor, scale)` and cached as `Arc`s, so a job submission
//! names its input instead of shipping it — the differential tests compare
//! a socket run against an in-process run of the *same* generated input.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mr_apps::inputs::{hg_input, km_input, lr_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, KmeansState, LinearRegression, WordCount};
use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
use ramr::{Backend, JobScheduler, SchedError, ShedReason, TenantStats};
use ramr_telemetry::json::{self, Value};

/// Apps a server will run, in wire-name order: the four single-pass
/// Table I applications (PCA and MM need multi-pass/matrix-task
/// construction and are not servable). `poison` joins the list only when
/// chaos mode is on.
pub const SERVABLE_APPS: [&str; 4] = ["wc", "hg", "lr", "km"];

/// The wire name of the chaos app (a job whose map always panics),
/// registered only when [`ServeConfig::chaos`](crate::ServeConfig::chaos)
/// is set.
pub const POISON_APP: &str = "poison";

/// A parsed `SUBMIT` input spec: which Table I input to generate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireSpec {
    /// Paper platform the Table I row is read for (`hwl` / `phi`).
    pub platform: Platform,
    /// Input flavor (`small` / `medium` / `large`).
    pub flavor: InputFlavor,
    /// Scale divisor over the Table I size (larger = smaller input).
    pub scale: u64,
}

/// What one completed job sends back over the wire.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Number of distinct keys in the reduced output.
    pub keys: u64,
    /// FNV-1a 64 digest (hex) of the canonical rendering.
    pub digest: String,
    /// The canonical rendering itself, when the submit asked to echo it.
    pub rendered: Option<String>,
    /// Milliseconds the job waited in the submission queue.
    pub queued_ms: f64,
    /// Milliseconds the epoch ran.
    pub ran_ms: f64,
    /// The full `--metrics-json` report, as a parsed JSON tree.
    pub metrics: Value,
}

/// Waits for one accepted job and produces its wire outcome. Runs on a
/// per-job waiter thread so the connection loop never blocks on an epoch.
pub(crate) type Waiter = Box<dyn FnOnce() -> Result<JobOutcome, SchedError> + Send>;

/// A point-in-time pool gauge for the `METRICS` endpoint.
#[derive(Debug, Clone)]
pub struct PoolStatus {
    /// Jobs queued behind the dispatcher right now.
    pub queue_depth: usize,
    /// The configured queue bound.
    pub queue_capacity: usize,
    /// Whether the scheduler is shedding due to a stalled epoch.
    pub saturated: bool,
}

/// One served app: a typed scheduler behind a type-erased surface.
pub(crate) trait AppPool: Send + Sync {
    /// Non-blocking admission: hand back a waiter for the accepted job,
    /// or the typed shed reason. `tag`, when present, is recorded in the
    /// scheduler's execution ledger at dispatch (the server passes the
    /// tenant-scoped `request_id`).
    fn try_submit(
        &self,
        tenant: &str,
        spec: &WireSpec,
        echo: bool,
        tag: Option<&str>,
    ) -> Result<Waiter, SchedError>;

    /// Live queue gauges.
    fn status(&self) -> PoolStatus;

    /// Per-tenant accounting, including the shed breakdown.
    fn tenant_stats(&self) -> Vec<TenantStats>;

    /// Counts a shed decided above the scheduler (the server's rate
    /// limiter) into this pool's per-tenant stats.
    fn record_shed(&self, tenant: &str, reason: ShedReason);

    /// The scheduler's execution ledger (tags of dispatched jobs, in
    /// claim order); the wire-resilience tests audit it for exactly-once.
    fn executed_tags(&self) -> Vec<String>;
}

/// Renders a reduced output canonically: one `{key:?}\t{value:?}` line per
/// pair, in the runtime's key-sorted order. Both sides of the differential
/// test render through this exact function, so "byte-identical" is
/// well-defined across the socket.
pub fn render_pairs<K: std::fmt::Debug, V: std::fmt::Debug>(pairs: &[(K, V)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (k, v) in pairs {
        let _ = writeln!(out, "{k:?}\t{v:?}");
    }
    out
}

/// FNV-1a 64 over `text`, rendered as 16 hex digits. Stable across
/// platforms and builds, so a client can compare digests from different
/// servers.
pub fn digest64(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Renders a completed job into its wire outcome; shared by the server's
/// waiter threads and the differential tests' in-process baseline. The
/// metrics are [`EngineReport::metrics`](ramr::EngineReport::metrics), the
/// same report `ramr run --metrics-json` writes; `backend` is the one `done`
/// ran on, which its report already names.
pub fn outcome_of<J: MapReduceJob>(
    app: &str,
    backend: Backend,
    config: &RuntimeConfig,
    done: &ramr::CompletedJob<J>,
    echo: bool,
) -> JobOutcome {
    debug_assert_eq!(backend, done.report.backend, "a report names the backend it ran on");
    let rendered = render_pairs(&done.output.pairs);
    let metrics = json::parse(&done.report.metrics(app, config, &done.output.stats).to_json())
        .expect("MetricsReport::to_json emits valid JSON");
    JobOutcome {
        keys: done.output.pairs.len() as u64,
        digest: digest64(&rendered),
        rendered: echo.then_some(rendered),
        queued_ms: done.queued.as_secs_f64() * 1e3,
        ran_ms: done.ran.as_secs_f64() * 1e3,
        metrics,
    }
}

/// Builds `(job, input)` for one wire spec; the `TypedPool` caches the
/// result per spec (k-means seeds its job from the input, so job and
/// input are constructed — and cached — together).
type MakeJob<J> =
    Box<dyn Fn(&WireSpec) -> (Arc<J>, Arc<Vec<<J as MapReduceJob>::Input>>) + Send + Sync>;

/// A materialised `(job, input)` pair, cached per [`WireSpec`].
type CachedInput<J> = (Arc<J>, Arc<Vec<<J as MapReduceJob>::Input>>);

/// A scheduler for one concrete job type plus its input cache.
struct TypedPool<J: MapReduceJob + Send + 'static> {
    app: &'static str,
    backend: Backend,
    sched: JobScheduler<J>,
    make: MakeJob<J>,
    cache: Mutex<BTreeMap<WireSpec, CachedInput<J>>>,
}

// WireSpec needs Ord for the BTreeMap cache key.
impl PartialOrd for WireSpec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WireSpec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |s: &WireSpec| (format!("{:?}", s.platform), format!("{:?}", s.flavor), s.scale);
        key(self).cmp(&key(other))
    }
}

impl<J: MapReduceJob + Send + 'static> TypedPool<J> {
    fn job_and_input(&self, spec: &WireSpec) -> (Arc<J>, Arc<Vec<J::Input>>) {
        let mut cache = self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (job, input) = cache.entry(spec.clone()).or_insert_with(|| (self.make)(spec));
        (Arc::clone(job), Arc::clone(input))
    }
}

impl<J: MapReduceJob + Send + 'static> AppPool for TypedPool<J> {
    fn try_submit(
        &self,
        tenant: &str,
        spec: &WireSpec,
        echo: bool,
        tag: Option<&str>,
    ) -> Result<Waiter, SchedError> {
        let (job, input) = self.job_and_input(spec);
        let client = self.sched.client(tenant);
        let ticket = match tag {
            Some(tag) => client.try_submit_tagged(job, input, tag)?,
            None => client.try_submit(job, input)?,
        };
        let app = self.app;
        let backend = self.backend;
        let config = self.sched.config().clone();
        Ok(Box::new(move || {
            ticket.wait().map(|done| outcome_of(app, backend, &config, &done, echo))
        }))
    }

    fn status(&self) -> PoolStatus {
        PoolStatus {
            queue_depth: self.sched.queue_depth(),
            queue_capacity: self.sched.queue_capacity(),
            saturated: self.sched.is_saturated(),
        }
    }

    fn tenant_stats(&self) -> Vec<TenantStats> {
        self.sched.tenant_stats()
    }

    fn record_shed(&self, tenant: &str, reason: ShedReason) {
        self.sched.client(tenant).record_shed(reason);
    }

    fn executed_tags(&self) -> Vec<String> {
        self.sched.execution_ledger()
    }
}

/// A job whose map always panics — the chaos app (`poison`), registered
/// only when the server runs with chaos mode on. Used by the fault-
/// isolation tests: a tenant submitting it gets a `JOB_ERROR` while every
/// other connection keeps being served.
#[derive(Debug)]
pub struct PoisonJob;

impl MapReduceJob for PoisonJob {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, _task: &[u64], _emit: &mut Emitter<'_, u64, u64>) {
        panic!("poison job: deliberate map-side panic");
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(8)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

/// Constructs the pool for one wire app name on `backend` with `config`.
///
/// # Errors
///
/// Names the unknown/unservable app (PCA and MM are refused: they need
/// multi-pass or matrix-task construction the wire spec cannot express).
pub(crate) fn make_pool(
    app: &str,
    backend: Backend,
    config: RuntimeConfig,
    chaos: bool,
) -> Result<Arc<dyn AppPool>, String> {
    fn pool<J: MapReduceJob + Send + 'static>(
        app: &'static str,
        backend: Backend,
        config: RuntimeConfig,
        make: MakeJob<J>,
    ) -> Result<Arc<dyn AppPool>, String> {
        let sched = JobScheduler::<J>::new(backend, config)
            .map_err(|e| format!("cannot open a {app} pool: {e}"))?;
        Ok(Arc::new(TypedPool { app, backend, sched, make, cache: Mutex::new(BTreeMap::new()) }))
    }

    let table1 = |app: AppKind, spec: &WireSpec| InputSpec::table1(app, spec.platform, spec.flavor);
    match app {
        "wc" => pool::<WordCount>(
            "wc",
            backend,
            config,
            Box::new(move |spec| {
                let input = wc_input(&table1(AppKind::WordCount, spec), spec.scale);
                (Arc::new(WordCount), Arc::new(input))
            }),
        ),
        "hg" => pool::<Histogram>(
            "hg",
            backend,
            config,
            Box::new(move |spec| {
                let input = hg_input(&table1(AppKind::Histogram, spec), spec.scale);
                (Arc::new(Histogram), Arc::new(input))
            }),
        ),
        "lr" => pool::<LinearRegression>(
            "lr",
            backend,
            config,
            Box::new(move |spec| {
                let input = lr_input(&table1(AppKind::LinearRegression, spec), spec.scale);
                (Arc::new(LinearRegression), Arc::new(input))
            }),
        ),
        "km" => pool(
            "km",
            backend,
            config,
            Box::new(move |spec| {
                let input = km_input(&table1(AppKind::Kmeans, spec), spec.scale);
                let job = KmeansState::seeded(&input, 16).job();
                (Arc::new(job), Arc::new(input))
            }),
        ),
        POISON_APP if chaos => pool::<PoisonJob>(
            POISON_APP,
            backend,
            config,
            Box::new(|_spec| (Arc::new(PoisonJob), Arc::new((0..64).collect()))),
        ),
        POISON_APP => {
            Err(format!("app {POISON_APP:?} is only served in chaos mode (RAMR_SERVE_CHAOS=1)"))
        }
        other => Err(format!(
            "unknown or unservable app {other:?} (servable: {})",
            SERVABLE_APPS.join(", ")
        )),
    }
}

/// The milliseconds a shed client should wait before retrying, scaled by
/// reason severity: saturation backs off four times as hard as a full
/// queue, a drained rate bucket or an exhausted quota twice (see
/// [`ShedReason`]).
pub fn retry_hint_ms(reason: ShedReason, base_ms: u64) -> u64 {
    match reason {
        ShedReason::QueueFull => base_ms,
        ShedReason::RateLimited | ShedReason::Quota => base_ms * 2,
        ShedReason::Saturated => base_ms * 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        assert_eq!(digest64(""), "cbf29ce484222325");
        assert_eq!(digest64("a\t1\n"), digest64("a\t1\n"));
        assert_ne!(digest64("a\t1\nb\t2\n"), digest64("b\t2\na\t1\n"));
    }

    #[test]
    fn rendering_is_line_per_pair() {
        let pairs = vec![("a".to_string(), 1u64), ("b".to_string(), 2)];
        assert_eq!(render_pairs(&pairs), "\"a\"\t1\n\"b\"\t2\n");
    }

    #[test]
    fn retry_hints_scale_with_severity() {
        assert_eq!(retry_hint_ms(ShedReason::QueueFull, 50), 50);
        assert_eq!(retry_hint_ms(ShedReason::RateLimited, 50), 100);
        assert_eq!(retry_hint_ms(ShedReason::Quota, 50), 100);
        assert_eq!(retry_hint_ms(ShedReason::Saturated, 50), 200);
    }
}
