//! Runtime configuration: the tuning knobs §III of the paper exposes.

use std::time::Duration;

use crate::RuntimeError;

/// Which intermediate container each worker/combiner allocates.
///
/// Mirrors the Phoenix++ modular-container design: the paper's default is a
/// thread-local **fixed array** for every application whose key range is
/// known a priori, and a **hash table** for Word Count; the "stressed" runs
/// of Figs 8b/9b/10b switch to fixed-size hash tables (HG, KM, LR, WC) and
/// regular hash tables (MM, PCA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// Dense array over a key space known a priori; the fastest option.
    Array,
    /// Growable open-addressing hash table for arbitrary key sets.
    Hash,
    /// Fixed-capacity open-addressing hash table: hash cost without resize
    /// cost, overflow is a runtime error.
    FixedHash,
}

impl ContainerKind {
    /// All container kinds, for configuration sweeps.
    pub const ALL: [ContainerKind; 3] =
        [ContainerKind::Array, ContainerKind::Hash, ContainerKind::FixedHash];
}

impl std::fmt::Display for ContainerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ContainerKind::Array => "array",
            ContainerKind::Hash => "hash",
            ContainerKind::FixedHash => "fixed-hash",
        };
        f.write_str(s)
    }
}

/// Which hash function keys are hashed with — at the emission sink (where
/// the hash-once pipeline computes each key's hash exactly once) and inside
/// the hash containers.
///
/// Both options are deterministic across runs and processes (no random
/// seed), so the differential suite can pin byte-identical output under
/// either. The default is the word-at-a-time `Fx` hasher; `Fnv` preserves
/// the seed's byte-at-a-time FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HasherKind {
    /// Byte-at-a-time FNV-1a: one xor+multiply per input byte.
    Fnv,
    /// Word-at-a-time FxHash-style: one rotate+xor+multiply per 8 bytes.
    Fx,
}

impl HasherKind {
    /// All hasher kinds, for configuration sweeps.
    pub const ALL: [HasherKind; 2] = [HasherKind::Fnv, HasherKind::Fx];
}

impl std::fmt::Display for HasherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HasherKind::Fnv => "fnv",
            HasherKind::Fx => "fx",
        };
        f.write_str(s)
    }
}

/// Thread-to-CPU placement policy (paper §III-B and §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinningPolicyKind {
    /// RAMR's contention-aware policy: each combiner is placed on logical
    /// cores contiguous (in remapped physical order) with its assigned
    /// mappers, so mapper→combiner traffic flows through the closest shared
    /// cache and complementary phases share a physical core.
    Ramr,
    /// Round-robin over logical CPU ids, role-oblivious.
    RoundRobin,
    /// No pinning: threads migrate at the whim of the OS scheduler.
    OsDefault,
}

impl PinningPolicyKind {
    /// All policies, for comparison sweeps (Fig 5).
    pub const ALL: [PinningPolicyKind; 3] =
        [PinningPolicyKind::Ramr, PinningPolicyKind::RoundRobin, PinningPolicyKind::OsDefault];
}

impl std::fmt::Display for PinningPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PinningPolicyKind::Ramr => "ramr",
            PinningPolicyKind::RoundRobin => "round-robin",
            PinningPolicyKind::OsDefault => "os-default",
        };
        f.write_str(s)
    }
}

/// What an idle combiner does while its queues are short of a batch: spin
/// `spins` rounds, then park until a mapper publishes a batch and rings.
///
/// The paper found that letting mappers sleep after a failed push improves
/// runtime over the original busy-wait loop ("Sleep on failed push"). A
/// mapper here never waits on a full queue — it folds the block itself — so
/// the policy paces the other end: the idle combiner is parked off its core
/// and woken by its mappers' progress, not by a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushBackoff {
    /// Idle rounds spun before the first park.
    pub spins: u32,
    /// Ceiling of one park: how often a parked thread re-polls the
    /// watchdog's cancel flag, and the safety net should a wake-up ever go
    /// missing. It does not pace the hand-off.
    pub sleep: Duration,
}

impl Default for PushBackoff {
    /// The paper's preferred setting: 64 spins, then parks of at most 50 µs.
    fn default() -> Self {
        PushBackoff { spins: 64, sleep: Duration::from_micros(50) }
    }
}

/// Dispatch order of the concurrent job scheduler (`ramr::sched`) across
/// tenants with queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicyKind {
    /// Strict arrival order, tenant-oblivious: the oldest queued job in the
    /// whole scheduler runs next. A flooding tenant can starve light ones.
    Fifo,
    /// Weighted fair-share (stride scheduling): each dispatched job advances
    /// its tenant's virtual pass by `1/weight`, and the tenant with the
    /// smallest pass runs next — so over any window, dispatch counts are
    /// proportional to weights regardless of arrival order.
    Fair,
}

impl std::fmt::Display for SchedPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::Fair => "fair",
        };
        f.write_str(s)
    }
}

/// Scheduling policy of the concurrent job scheduler: the dispatch order
/// plus per-tenant weights.
///
/// Parses from the `RAMR_SCHED_POLICY` / `--sched-policy` syntax:
/// `fifo`, `fair` (all tenants weight 1), or `fair:alice=3,bob=1`
/// (named tenants weighted; unnamed tenants default to weight 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPolicy {
    /// Dispatch order across tenants.
    pub kind: SchedPolicyKind,
    /// Per-tenant weights for [`SchedPolicyKind::Fair`], as `(tenant,
    /// weight)` pairs; weights must be nonzero (validated). Tenants not
    /// listed get weight 1. Must be empty under FIFO.
    pub weights: Vec<(String, u32)>,
}

impl SchedPolicy {
    /// Strict arrival order — the default.
    pub fn fifo() -> Self {
        SchedPolicy { kind: SchedPolicyKind::Fifo, weights: Vec::new() }
    }

    /// Weighted fair-share with every tenant at weight 1.
    pub fn fair() -> Self {
        SchedPolicy { kind: SchedPolicyKind::Fair, weights: Vec::new() }
    }

    /// The weight a tenant dispatches with under this policy: its listed
    /// weight, or 1 when unlisted (FIFO ignores weights entirely).
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.weights.iter().find(|(name, _)| name == tenant).map_or(1, |&(_, w)| w)
    }
}

impl Default for SchedPolicy {
    fn default() -> Self {
        Self::fifo()
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        for (i, (tenant, weight)) in self.weights.iter().enumerate() {
            f.write_str(if i == 0 { ":" } else { "," })?;
            write!(f, "{tenant}={weight}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, weights) = match s.split_once(':') {
            Some((kind, weights)) => (kind, Some(weights)),
            None => (s, None),
        };
        match (kind, weights) {
            ("fifo", None) => Ok(SchedPolicy::fifo()),
            ("fifo", Some(_)) => Err("fifo takes no tenant weights".into()),
            ("fair", None) => Ok(SchedPolicy::fair()),
            ("fair", Some(list)) => {
                let mut weights = Vec::new();
                for entry in list.split(',') {
                    let (tenant, weight) = entry
                        .split_once('=')
                        .ok_or_else(|| format!("expected tenant=weight, got {entry:?}"))?;
                    let weight: u32 = weight
                        .parse()
                        .map_err(|_| format!("weight for tenant {tenant:?} is not a number"))?;
                    weights.push((tenant.to_string(), weight));
                }
                Ok(SchedPolicy { kind: SchedPolicyKind::Fair, weights })
            }
            (other, _) => Err(format!("unknown policy {other:?} (expected fifo or fair)")),
        }
    }
}

/// Complete tuning surface for a runtime invocation.
///
/// Defaults follow the paper: queue capacity 5000 (within 2% of optimal
/// across all test-cases), batch size 1000 (the Haswell optimum), a 1:1
/// mapper/combiner ratio, sleep-on-failed-push, and the RAMR pinning policy.
///
/// Every field is public so harnesses can sweep it; use
/// [`RuntimeConfig::builder`] for validated construction and
/// [`RuntimeConfig::from_env`] for the environment-variable tuning interface
/// the paper mentions.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Size of the general-purpose pool executing map, reduce and merge
    /// tasks (the paper's "top pool").
    pub num_workers: usize,
    /// Size of the combiner pool; must be ≤ `num_workers`. The
    /// mapper/combiner ratio is `num_workers / num_combiners`.
    pub num_combiners: usize,
    /// Input elements in the largest map task; the tail is cut finer, down
    /// to `task_size / 8`, so that the threads that map run out of work
    /// together (see [`task_ranges_for`](crate::task_ranges_for)). Large
    /// tasks load-balance poorly; small tasks pay library overhead (paper
    /// §III).
    pub task_size: usize,
    /// Capacity of each mapper→combiner SPSC queue, in elements.
    pub queue_capacity: usize,
    /// Elements consumed per batched read (paper §III-A, §IV-C), and
    /// accumulated per emit block on the mapper side (see
    /// [`RuntimeConfig::effective_emit_buffer`]). A batch size of 1
    /// degenerates to element-wise consumption and publication.
    pub batch_size: usize,
    /// Intermediate container allocated per worker/combiner.
    pub container: ContainerKind,
    /// Key hash function used at the emission sink and in the hash
    /// containers. Both options are deterministic; output is identical
    /// under either (keys are routed differently but the final merge is
    /// key-sorted).
    pub hasher: HasherKind,
    /// Thread placement policy.
    pub pinning: PinningPolicyKind,
    /// Behaviour of an idle combiner (see [`PushBackoff`]).
    pub push_backoff: PushBackoff,
    /// Whether to actually invoke `sched_setaffinity`. Disabled by default
    /// so tests behave identically on constrained CI machines; the placement
    /// plan is still computed and reported.
    pub pin_os_threads: bool,
    /// Number of reduce partitions; defaults to the host's available
    /// parallelism, whatever `num_workers` is set to.
    pub num_reducers: usize,
    /// Cap on distinct keys of the fixed-size hash container, and slot
    /// count of the array container; `None` derives it from the job's
    /// `key_space`, and a fixed-size hash container with neither caps at
    /// 65 536 keys.
    pub fixed_capacity: Option<usize>,
    /// Whether worker threads record wall-clock telemetry (busy/stall/idle
    /// accounting and batch-occupancy histograms). Cheap enough to leave on
    /// (the default); disable to get the counter-stubbed baseline the
    /// telemetry overhead bound is measured against.
    pub telemetry: bool,
    /// How many times a panicked map task is re-executed before the run
    /// gives up on it. The default (0) preserves fail-fast: the first
    /// panic aborts the run with [`RuntimeError::WorkerPanic`]. Retries
    /// only take effect for jobs declaring
    /// [`MapReduceJob::is_retry_safe`](crate::MapReduceJob::is_retry_safe);
    /// for others the runtime silently keeps fail-fast. When fault
    /// tolerance is active the runtime buffers each task's full emission
    /// set and publishes it only after the task succeeds, so a retried
    /// task's pairs are counted exactly once.
    pub max_task_retries: u32,
    /// Whether a task that still fails after [`max_task_retries`] attempts
    /// is *skipped* — Hadoop-style bad-record skipping at task granularity —
    /// instead of aborting the run. Skipped tasks are recorded in the run
    /// report's fault section (task id, input range, attempts, panic
    /// message). Off by default; like retries, only honoured for
    /// retry-safe jobs.
    ///
    /// [`max_task_retries`]: Self::max_task_retries
    pub skip_poison_tasks: bool,
    /// Stall detector period: when set, a watchdog thread samples pipeline
    /// progress (tasks claimed, pairs published/consumed, retries) and, if
    /// no counter moves for this long while worker threads are still live,
    /// cancels the run and returns [`RuntimeError::Stalled`] with a
    /// per-thread diagnostics snapshot. `None` (the default) disables the
    /// watchdog entirely. Must be nonzero when set (validated).
    pub watchdog: Option<Duration>,
    /// Capacity of the concurrent scheduler's bounded submission queue, in
    /// jobs across all tenants. Blocking submits park when the queue is
    /// full; `try_submit` sheds instead. Only read by `ramr::sched`; the
    /// direct runtime paths ignore it. Must be nonzero (validated).
    pub sched_queue: usize,
    /// Dispatch policy of the concurrent scheduler: FIFO (the default) or
    /// weighted fair-share across named tenants. Only read by
    /// `ramr::sched`.
    pub sched_policy: SchedPolicy,
    /// Per-tenant in-flight cap for the concurrent scheduler: queued plus
    /// running jobs a single tenant may hold at once. 0 (the default)
    /// means unlimited. Only read by `ramr::sched`.
    pub sched_quota: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self {
            num_workers: workers,
            num_combiners: workers,
            task_size: 4096,
            queue_capacity: 5000,
            batch_size: 1000,
            container: ContainerKind::Array,
            hasher: HasherKind::Fx,
            pinning: PinningPolicyKind::Ramr,
            push_backoff: PushBackoff::default(),
            pin_os_threads: false,
            num_reducers: workers,
            fixed_capacity: None,
            telemetry: true,
            max_task_retries: 0,
            skip_poison_tasks: false,
            watchdog: None,
            sched_queue: 64,
            sched_policy: SchedPolicy::default(),
            sched_quota: 0,
        }
    }
}

impl RuntimeConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { config: Self::default() }
    }

    /// Re-opens this configuration as a builder, so a base config can be
    /// overlaid with further knob settings (the service layer applies
    /// per-job [`ENV_KNOBS`] overrides on top of the server's base this
    /// way).
    pub fn into_builder(self) -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { config: self }
    }

    /// Mapper-to-combiner ratio implied by the pool sizes, rounded up.
    ///
    /// A workload with equal map and combine throughput wants ratio 1; a
    /// light combine lets one combiner serve several mappers (Fig 4).
    pub fn mapper_combiner_ratio(&self) -> usize {
        self.num_workers.div_ceil(self.num_combiners.max(1))
    }

    /// The emit-buffer size mappers use: `batch_size` (symmetric
    /// producer/consumer block sizes), never exceeding `queue_capacity`
    /// (a larger block could never be published in one piece).
    pub fn effective_emit_buffer(&self) -> usize {
        self.batch_size.min(self.queue_capacity)
    }

    /// Reads overrides from `RAMR_*` environment variables, mirroring the
    /// paper's "finely tuned via a set of environmental variables".
    ///
    /// Recognized: `RAMR_WORKERS`, `RAMR_COMBINERS`, `RAMR_TASK_SIZE`,
    /// `RAMR_QUEUE_CAPACITY`, `RAMR_BATCH_SIZE`, `RAMR_REDUCERS`,
    /// `RAMR_FIXED_CAPACITY`, `RAMR_PUSH_SPINS`,
    /// `RAMR_PUSH_SLEEP_US` (the two fields of [`PushBackoff`]; each sets
    /// its own and leaves the other alone), `RAMR_CONTAINER`
    /// (`array|hash|fixed-hash`), `RAMR_HASHER` (`fnv|fx`), `RAMR_PINNING`
    /// (`ramr|round-robin|os-default`), `RAMR_PIN_THREADS` and
    /// `RAMR_TELEMETRY` (`0|1|true|false|yes|no`, case-insensitive),
    /// `RAMR_TASK_RETRIES` (re-executions of a panicked map task before
    /// giving up), `RAMR_SKIP_POISON_TASKS` (boolean: complete
    /// the run without tasks whose retries are exhausted, recording them in
    /// the fault report), `RAMR_WATCHDOG_MS` (stall-detector period in
    /// milliseconds; must be nonzero), the concurrent-scheduler knobs
    /// `RAMR_SCHED_QUEUE` (submission-queue capacity in jobs),
    /// `RAMR_SCHED_POLICY` (`fifo`, `fair`, or `fair:tenant=weight,...`)
    /// and `RAMR_SCHED_QUOTA` (per-tenant in-flight cap; 0 = unlimited).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when a variable is present but
    /// unparsable, or when the resulting configuration is inconsistent.
    pub fn from_env() -> Result<Self, RuntimeError> {
        let mut b = Self::builder();
        for k in ENV_KNOBS {
            if let Ok(raw) = std::env::var(k.env) {
                b = (k.apply)(b, &raw, k.env).map_err(RuntimeError::InvalidConfig)?;
            }
        }
        b.build()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when any pool or sizing knob
    /// is zero, or when the combiner pool exceeds the general-purpose pool.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        fn nonzero(value: usize, what: &str) -> Result<(), RuntimeError> {
            if value == 0 {
                Err(RuntimeError::InvalidConfig(format!("{what} must be nonzero")))
            } else {
                Ok(())
            }
        }
        nonzero(self.num_workers, "num_workers")?;
        nonzero(self.num_combiners, "num_combiners")?;
        nonzero(self.task_size, "task_size")?;
        nonzero(self.queue_capacity, "queue_capacity")?;
        nonzero(self.batch_size, "batch_size")?;
        nonzero(self.num_reducers, "num_reducers")?;
        if self.num_combiners > self.num_workers {
            return Err(RuntimeError::InvalidConfig(format!(
                "combiner pool ({}) larger than general-purpose pool ({}); the paper requires \
                 a less or equal number of combine workers",
                self.num_combiners, self.num_workers
            )));
        }
        if self.batch_size > self.queue_capacity {
            return Err(RuntimeError::InvalidConfig(format!(
                "batch_size ({}) exceeds queue_capacity ({}); a batch could never fill",
                self.batch_size, self.queue_capacity
            )));
        }
        if self.watchdog == Some(Duration::ZERO) {
            return Err(RuntimeError::InvalidConfig(
                "watchdog period must be nonzero when set (a zero period would fire \
                 immediately); use None to disable the watchdog"
                    .into(),
            ));
        }
        nonzero(self.sched_queue, "sched_queue")?;
        if self.sched_policy.kind == SchedPolicyKind::Fifo && !self.sched_policy.weights.is_empty()
        {
            return Err(RuntimeError::InvalidConfig(
                "sched_policy: FIFO dispatch ignores tenant weights; use fair:T=W,... or \
                 clear the weight list"
                    .into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for (tenant, weight) in &self.sched_policy.weights {
            if tenant.is_empty() {
                return Err(RuntimeError::InvalidConfig(
                    "sched_policy: tenant names must be nonempty".into(),
                ));
            }
            if *weight == 0 {
                return Err(RuntimeError::InvalidConfig(format!(
                    "sched_policy: tenant {tenant:?} has weight 0; a zero-weight tenant \
                     could never dispatch"
                )));
            }
            if !seen.insert(tenant.as_str()) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "sched_policy: tenant {tenant:?} is weighted twice"
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`RuntimeConfig`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the general-purpose pool size.
    pub fn num_workers(mut self, n: usize) -> Self {
        self.config.num_workers = n;
        self
    }

    /// Sets the combiner pool size.
    pub fn num_combiners(mut self, n: usize) -> Self {
        self.config.num_combiners = n;
        self
    }

    /// Sets the input elements in the largest map task.
    pub fn task_size(mut self, n: usize) -> Self {
        self.config.task_size = n;
        self
    }

    /// Sets per-queue capacity in elements.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// Sets the batched-consume block size.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.config.batch_size = n;
        self
    }

    /// Sets the intermediate container kind.
    pub fn container(mut self, kind: ContainerKind) -> Self {
        self.config.container = kind;
        self
    }

    /// Sets the key hash function.
    pub fn hasher(mut self, kind: HasherKind) -> Self {
        self.config.hasher = kind;
        self
    }

    /// Sets the pinning policy.
    pub fn pinning(mut self, policy: PinningPolicyKind) -> Self {
        self.config.pinning = policy;
        self
    }

    /// Sets the full-queue backoff behaviour.
    pub fn push_backoff(mut self, backoff: PushBackoff) -> Self {
        self.config.push_backoff = backoff;
        self
    }

    /// Enables or disables real OS-level thread pinning.
    pub fn pin_os_threads(mut self, pin: bool) -> Self {
        self.config.pin_os_threads = pin;
        self
    }

    /// Sets the number of reduce partitions.
    pub fn num_reducers(mut self, n: usize) -> Self {
        self.config.num_reducers = n;
        self
    }

    /// Sets the capacity for fixed-size containers.
    pub fn fixed_capacity(mut self, n: usize) -> Self {
        self.config.fixed_capacity = Some(n);
        self
    }

    /// Enables or disables per-thread wall-clock telemetry.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.config.telemetry = on;
        self
    }

    /// Sets how many times a panicked map task is retried (0 = fail-fast).
    pub fn max_task_retries(mut self, n: u32) -> Self {
        self.config.max_task_retries = n;
        self
    }

    /// Enables or disables skipping of tasks whose retries are exhausted.
    pub fn skip_poison_tasks(mut self, on: bool) -> Self {
        self.config.skip_poison_tasks = on;
        self
    }

    /// Enables the pipeline stall watchdog with the given period.
    pub fn watchdog(mut self, period: Duration) -> Self {
        self.config.watchdog = Some(period);
        self
    }

    /// Sets the concurrent scheduler's submission-queue capacity.
    pub fn sched_queue(mut self, n: usize) -> Self {
        self.config.sched_queue = n;
        self
    }

    /// Sets the concurrent scheduler's dispatch policy.
    pub fn sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.config.sched_policy = policy;
        self
    }

    /// Sets the concurrent scheduler's per-tenant in-flight quota
    /// (0 = unlimited).
    pub fn sched_quota(mut self, n: usize) -> Self {
        self.config.sched_quota = n;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeConfig::validate`] failures.
    pub fn build(self) -> Result<RuntimeConfig, RuntimeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One row of a tuning surface: a knob's environment variable, its CLI
/// flag, and the shared parse/apply behaviour for the config `C` it sets.
///
/// Every consumer of a knob surface — [`RuntimeConfig::from_env`], the
/// CLI's flag table and help text, the service layer's wire overrides and
/// the docs-drift tests — derives its view from one table of these rows:
/// [`ENV_KNOBS`] for the runtime (`C` = [`RuntimeConfigBuilder`]), and the
/// service layer's `SERVE_KNOBS` for its own config. A knob therefore cannot
/// exist on one surface and be silently missing from another.
pub struct EnvKnob<C> {
    /// The environment variable name (`RAMR_*`).
    pub env: &'static str,
    /// The CLI flag name, without the leading `--`.
    pub cli: &'static str,
    /// Placeholder for the knob's value in help text (`N`, `MS`, `0|1`,
    /// an enumeration, ...).
    pub value: &'static str,
    /// One-line description for help text and docs.
    pub help: &'static str,
    /// Parses `raw` and applies it to the config. `source` names where the
    /// value came from (the env var, the CLI flag or the wire knob) for the
    /// error message; a caller that reports a [`RuntimeError`] wraps it in
    /// [`RuntimeError::InvalidConfig`].
    pub apply: fn(C, &str, &str) -> Result<C, String>,
}

impl<C> std::fmt::Debug for EnvKnob<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvKnob")
            .field("env", &self.env)
            .field("cli", &self.cli)
            .field("value", &self.value)
            .finish_non_exhaustive()
    }
}

/// Parses a knob's raw value; the error names `source=raw`.
///
/// # Errors
///
/// `cannot parse {source}={raw}` when `raw` is not a `T`.
pub fn parse_knob<T: std::str::FromStr>(raw: &str, source: &str) -> Result<T, String> {
    raw.parse::<T>().map_err(|_| format!("cannot parse {source}={raw}"))
}

/// Parses a boolean knob: `1|true|yes|on` or `0|false|no|off`, any case.
///
/// # Errors
///
/// Names `source=raw` and the accepted spellings.
pub fn parse_knob_bool(raw: &str, source: &str) -> Result<bool, String> {
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "0" | "false" | "no" | "off" => Ok(false),
        _ => Err(format!("cannot parse {source}={raw} (expected 0|1|true|false|yes|no)")),
    }
}

/// The runtime's complete tuning surface, one [`EnvKnob`] row per knob.
///
/// This is the *only* place a knob's env-var and CLI names are written
/// down; see [`EnvKnob`] for the consumers that derive from it.
pub const ENV_KNOBS: &[EnvKnob<RuntimeConfigBuilder>] = &[
    EnvKnob {
        env: "RAMR_WORKERS",
        cli: "workers",
        value: "N",
        help: "general-purpose (mapper) pool size",
        apply: |b, raw, src| Ok(b.num_workers(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_COMBINERS",
        cli: "combiners",
        value: "N",
        help: "combiner pool size (must be <= workers)",
        apply: |b, raw, src| Ok(b.num_combiners(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_TASK_SIZE",
        cli: "task",
        value: "N",
        help: "largest map task, in input elements; the tail is cut finer",
        apply: |b, raw, src| Ok(b.task_size(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_QUEUE_CAPACITY",
        cli: "queue",
        value: "N",
        help: "per-mapper SPSC queue capacity, in elements",
        apply: |b, raw, src| Ok(b.queue_capacity(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_BATCH_SIZE",
        cli: "batch",
        value: "N",
        help: "combiner batched-read and mapper emit-block size, in elements",
        apply: |b, raw, src| Ok(b.batch_size(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_CONTAINER",
        cli: "container",
        value: "array|hash|fixed-hash",
        help: "intermediate container kind",
        apply: |b, raw, _| {
            Ok(b.container(match raw {
                "array" => ContainerKind::Array,
                "hash" => ContainerKind::Hash,
                "fixed-hash" => ContainerKind::FixedHash,
                other => return Err(format!("unknown container kind {other:?}")),
            }))
        },
    },
    EnvKnob {
        env: "RAMR_HASHER",
        cli: "hasher",
        value: "fnv|fx",
        help: "key hash function (byte-wise FNV-1a or word-wise Fx)",
        apply: |b, raw, _| {
            Ok(b.hasher(match raw {
                "fnv" => HasherKind::Fnv,
                "fx" => HasherKind::Fx,
                other => return Err(format!("unknown hasher kind {other:?}")),
            }))
        },
    },
    EnvKnob {
        env: "RAMR_PINNING",
        cli: "pinning",
        value: "ramr|round-robin|os-default",
        help: "thread placement policy",
        apply: |b, raw, _| {
            Ok(b.pinning(match raw {
                "ramr" => PinningPolicyKind::Ramr,
                "round-robin" => PinningPolicyKind::RoundRobin,
                "os-default" => PinningPolicyKind::OsDefault,
                other => return Err(format!("unknown pinning policy {other:?}")),
            }))
        },
    },
    EnvKnob {
        env: "RAMR_REDUCERS",
        cli: "reducers",
        value: "N",
        help: "reduce partitions (default: host CPUs)",
        apply: |b, raw, src| Ok(b.num_reducers(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_FIXED_CAPACITY",
        cli: "fixed-capacity",
        value: "N",
        help: "capacity for fixed-size containers (default: job key space)",
        apply: |b, raw, src| Ok(b.fixed_capacity(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_PUSH_SPINS",
        cli: "push-spins",
        value: "N",
        help: "spins before an idle combiner parks",
        apply: |mut b, raw, src| {
            b.config.push_backoff.spins = parse_knob(raw, src)?;
            Ok(b)
        },
    },
    EnvKnob {
        env: "RAMR_PUSH_SLEEP_US",
        cli: "push-sleep-us",
        value: "US",
        help: "ceiling of one idle-combiner park (cancel-poll interval), in microseconds",
        apply: |mut b, raw, src| {
            b.config.push_backoff.sleep = Duration::from_micros(parse_knob(raw, src)?);
            Ok(b)
        },
    },
    EnvKnob {
        env: "RAMR_PIN_THREADS",
        cli: "pin",
        value: "0|1",
        help: "actually invoke sched_setaffinity (plan is computed either way)",
        apply: |b, raw, src| Ok(b.pin_os_threads(parse_knob_bool(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_TELEMETRY",
        cli: "telemetry",
        value: "0|1",
        help: "per-thread wall-clock telemetry (on by default)",
        apply: |b, raw, src| Ok(b.telemetry(parse_knob_bool(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_TASK_RETRIES",
        cli: "task-retries",
        value: "N",
        help: "re-executions of a panicked map task (0 = fail-fast)",
        apply: |b, raw, src| Ok(b.max_task_retries(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_SKIP_POISON_TASKS",
        cli: "skip-poison",
        value: "0|1",
        help: "skip tasks whose retries are exhausted instead of aborting",
        apply: |b, raw, src| Ok(b.skip_poison_tasks(parse_knob_bool(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_WATCHDOG_MS",
        cli: "watchdog-ms",
        value: "MS",
        help: "stall watchdog period, in milliseconds (unset = off)",
        apply: |b, raw, src| Ok(b.watchdog(Duration::from_millis(parse_knob(raw, src)?))),
    },
    EnvKnob {
        env: "RAMR_SCHED_QUEUE",
        cli: "sched-queue",
        value: "N",
        help: "scheduler submission-queue capacity, in jobs (all tenants)",
        apply: |b, raw, src| Ok(b.sched_queue(parse_knob(raw, src)?)),
    },
    EnvKnob {
        env: "RAMR_SCHED_POLICY",
        cli: "sched-policy",
        value: "fifo|fair[:T=W,...]",
        help: "scheduler dispatch policy: arrival order or weighted fair-share",
        apply: |b, raw, src| {
            let policy = raw.parse::<SchedPolicy>().map_err(|e| format!("{src}={raw}: {e}"))?;
            Ok(b.sched_policy(policy))
        },
    },
    EnvKnob {
        env: "RAMR_SCHED_QUOTA",
        cli: "sched-quota",
        value: "N",
        help: "per-tenant in-flight job quota (0 = unlimited)",
        apply: |b, raw, src| Ok(b.sched_quota(parse_knob(raw, src)?)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize env mutation: tests run concurrently in one process.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn default_config_is_valid() {
        RuntimeConfig::default().validate().expect("default config must validate");
    }

    #[test]
    fn builder_round_trips_fields() {
        let c = RuntimeConfig::builder()
            .num_workers(8)
            .num_combiners(4)
            .task_size(100)
            .queue_capacity(5000)
            .batch_size(250)
            .container(ContainerKind::Hash)
            .pinning(PinningPolicyKind::RoundRobin)
            .num_reducers(3)
            .fixed_capacity(777)
            .build()
            .unwrap();
        assert_eq!(c.num_workers, 8);
        assert_eq!(c.num_combiners, 4);
        assert_eq!(c.mapper_combiner_ratio(), 2);
        assert_eq!(c.task_size, 100);
        assert_eq!(c.batch_size, 250);
        assert_eq!(c.container, ContainerKind::Hash);
        assert_eq!(c.pinning, PinningPolicyKind::RoundRobin);
        assert_eq!(c.num_reducers, 3);
        assert_eq!(c.fixed_capacity, Some(777));
    }

    #[test]
    fn rejects_zero_knobs() {
        for build in [
            RuntimeConfig::builder().num_workers(0).build(),
            RuntimeConfig::builder().num_workers(1).num_combiners(0).build(),
            RuntimeConfig::builder().task_size(0).build(),
            RuntimeConfig::builder().queue_capacity(0).build(),
            RuntimeConfig::builder().batch_size(0).build(),
            RuntimeConfig::builder().num_reducers(0).build(),
        ] {
            assert!(build.is_err());
        }
    }

    #[test]
    fn rejects_more_combiners_than_workers() {
        let err = RuntimeConfig::builder().num_workers(2).num_combiners(3).build().unwrap_err();
        assert!(err.to_string().contains("combiner pool"));
    }

    #[test]
    fn rejects_batch_larger_than_queue() {
        let err = RuntimeConfig::builder().queue_capacity(10).batch_size(11).build().unwrap_err();
        assert!(err.to_string().contains("batch_size"));
    }

    #[test]
    fn emit_buffer_defaults_to_batch_size() {
        let c = RuntimeConfig::builder().queue_capacity(5000).batch_size(250).build().unwrap();
        assert_eq!(c.effective_emit_buffer(), 250);
        // Never past the queue, even on a config that skipped validation.
        let c = RuntimeConfig { queue_capacity: 32, batch_size: 64, ..RuntimeConfig::default() };
        assert_eq!(c.effective_emit_buffer(), 32);
    }

    #[test]
    fn emit_buffer_from_env() {
        // The emit block has no knob of its own: it follows RAMR_BATCH_SIZE.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAMR_BATCH_SIZE", "77");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_BATCH_SIZE");
        assert_eq!(c.batch_size, 77);
        assert_eq!(c.effective_emit_buffer(), 77);
    }

    #[test]
    fn ratio_rounds_up() {
        let c = RuntimeConfig::builder().num_workers(7).num_combiners(2).build().unwrap();
        assert_eq!(c.mapper_combiner_ratio(), 4);
    }

    #[test]
    fn container_kind_display() {
        assert_eq!(ContainerKind::Array.to_string(), "array");
        assert_eq!(ContainerKind::Hash.to_string(), "hash");
        assert_eq!(ContainerKind::FixedHash.to_string(), "fixed-hash");
    }

    #[test]
    fn hasher_kind_display_and_default() {
        assert_eq!(HasherKind::Fnv.to_string(), "fnv");
        assert_eq!(HasherKind::Fx.to_string(), "fx");
        assert_eq!(RuntimeConfig::default().hasher, HasherKind::Fx);
    }

    #[test]
    fn from_env_reads_hasher() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAMR_HASHER", "fnv");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_HASHER");
        assert_eq!(c.hasher, HasherKind::Fnv);

        std::env::set_var("RAMR_HASHER", "sip");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_HASHER");
        assert!(err.to_string().contains("sip"));
    }

    #[test]
    fn pinning_policy_display() {
        assert_eq!(PinningPolicyKind::Ramr.to_string(), "ramr");
        assert_eq!(PinningPolicyKind::RoundRobin.to_string(), "round-robin");
        assert_eq!(PinningPolicyKind::OsDefault.to_string(), "os-default");
    }

    #[test]
    fn from_env_reads_reducers_fixed_capacity_and_backoff_knobs() {
        let _guard = ENV_LOCK.lock().unwrap();
        // Regression: these four knobs were silently ignored, breaking the
        // paper's env-var tuning contract for a third of the surface.
        std::env::set_var("RAMR_REDUCERS", "5");
        std::env::set_var("RAMR_FIXED_CAPACITY", "321");
        std::env::set_var("RAMR_PUSH_SPINS", "17");
        std::env::set_var("RAMR_PUSH_SLEEP_US", "250");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_REDUCERS");
        std::env::remove_var("RAMR_FIXED_CAPACITY");
        std::env::remove_var("RAMR_PUSH_SPINS");
        std::env::remove_var("RAMR_PUSH_SLEEP_US");
        assert_eq!(c.num_reducers, 5);
        assert_eq!(c.fixed_capacity, Some(321));
        assert_eq!(c.push_backoff, PushBackoff { spins: 17, sleep: Duration::from_micros(250) });
    }

    #[test]
    fn from_env_backoff_knobs_default_each_other() {
        let _guard = ENV_LOCK.lock().unwrap();
        // Each knob sets its own field; the other keeps the paper's default.
        std::env::set_var("RAMR_PUSH_SPINS", "9");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_PUSH_SPINS");
        assert_eq!(c.push_backoff, PushBackoff { spins: 9, sleep: Duration::from_micros(50) });
        std::env::set_var("RAMR_PUSH_SLEEP_US", "250");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_PUSH_SLEEP_US");
        assert_eq!(c.push_backoff, PushBackoff { spins: 64, sleep: Duration::from_micros(250) });
    }

    #[test]
    fn from_env_accepts_boolean_words_for_pin_threads() {
        let _guard = ENV_LOCK.lock().unwrap();
        for (raw, expected) in
            [("true", true), ("FALSE", false), ("yes", true), ("no", false), ("1", true)]
        {
            std::env::set_var("RAMR_PIN_THREADS", raw);
            let c = RuntimeConfig::from_env().unwrap();
            assert_eq!(c.pin_os_threads, expected, "RAMR_PIN_THREADS={raw}");
        }
        std::env::set_var("RAMR_PIN_THREADS", "maybe");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_PIN_THREADS");
        assert!(err.to_string().contains("RAMR_PIN_THREADS"));
    }

    #[test]
    fn from_env_reads_telemetry_toggle() {
        let _guard = ENV_LOCK.lock().unwrap();
        assert!(RuntimeConfig::default().telemetry, "telemetry is on by default");
        std::env::set_var("RAMR_TELEMETRY", "off");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_TELEMETRY");
        assert!(!c.telemetry);
    }

    #[test]
    fn fault_tolerance_defaults_off() {
        let c = RuntimeConfig::default();
        assert_eq!(c.max_task_retries, 0, "retries must default to fail-fast");
        assert!(!c.skip_poison_tasks, "poison skipping must be opt-in");
        assert_eq!(c.watchdog, None, "watchdog must be opt-in");
    }

    #[test]
    fn builder_round_trips_fault_tolerance_knobs() {
        let c = RuntimeConfig::builder()
            .max_task_retries(3)
            .skip_poison_tasks(true)
            .watchdog(Duration::from_millis(200))
            .build()
            .unwrap();
        assert_eq!(c.max_task_retries, 3);
        assert!(c.skip_poison_tasks);
        assert_eq!(c.watchdog, Some(Duration::from_millis(200)));
    }

    #[test]
    fn rejects_zero_watchdog_period() {
        let err = RuntimeConfig::builder().watchdog(Duration::ZERO).build().unwrap_err();
        assert!(err.to_string().contains("watchdog"), "{err}");
    }

    #[test]
    fn from_env_reads_fault_tolerance_knobs() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAMR_TASK_RETRIES", "2");
        std::env::set_var("RAMR_SKIP_POISON_TASKS", "yes");
        std::env::set_var("RAMR_WATCHDOG_MS", "250");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_TASK_RETRIES");
        std::env::remove_var("RAMR_SKIP_POISON_TASKS");
        std::env::remove_var("RAMR_WATCHDOG_MS");
        assert_eq!(c.max_task_retries, 2);
        assert!(c.skip_poison_tasks);
        assert_eq!(c.watchdog, Some(Duration::from_millis(250)));

        std::env::set_var("RAMR_WATCHDOG_MS", "0");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_WATCHDOG_MS");
        assert!(err.to_string().contains("watchdog"), "{err}");

        std::env::set_var("RAMR_TASK_RETRIES", "lots");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_TASK_RETRIES");
        assert!(err.to_string().contains("RAMR_TASK_RETRIES"), "{err}");
    }

    #[test]
    fn sched_knobs_default_to_fifo_unbounded_tenants() {
        let c = RuntimeConfig::default();
        assert_eq!(c.sched_queue, 64);
        assert_eq!(c.sched_policy, SchedPolicy::fifo());
        assert_eq!(c.sched_quota, 0, "quota must default to unlimited");
    }

    #[test]
    fn sched_policy_parses_and_round_trips() {
        for (raw, kind, weights) in [
            ("fifo", SchedPolicyKind::Fifo, vec![]),
            ("fair", SchedPolicyKind::Fair, vec![]),
            (
                "fair:alice=3,bob=1",
                SchedPolicyKind::Fair,
                vec![("alice".to_string(), 3), ("bob".to_string(), 1)],
            ),
        ] {
            let policy: SchedPolicy = raw.parse().unwrap();
            assert_eq!(policy.kind, kind, "{raw}");
            assert_eq!(policy.weights, weights, "{raw}");
            assert_eq!(policy.to_string(), raw, "display must round-trip");
            assert_eq!(policy.to_string().parse::<SchedPolicy>().unwrap(), policy);
        }
        assert_eq!("fair:a=3".parse::<SchedPolicy>().unwrap().weight_of("a"), 3);
        assert_eq!("fair:a=3".parse::<SchedPolicy>().unwrap().weight_of("b"), 1);
        for bad in ["fifo:a=1", "lifo", "fair:a", "fair:a=many"] {
            assert!(bad.parse::<SchedPolicy>().is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn rejects_inconsistent_sched_policies() {
        let err = RuntimeConfig::builder().sched_queue(0).build().unwrap_err();
        assert!(err.to_string().contains("sched_queue"), "{err}");
        let fifo_weighted =
            SchedPolicy { kind: SchedPolicyKind::Fifo, weights: vec![("a".to_string(), 1)] };
        let err = RuntimeConfig::builder().sched_policy(fifo_weighted).build().unwrap_err();
        assert!(err.to_string().contains("FIFO"), "{err}");
        let zero = SchedPolicy { kind: SchedPolicyKind::Fair, weights: vec![("a".to_string(), 0)] };
        let err = RuntimeConfig::builder().sched_policy(zero).build().unwrap_err();
        assert!(err.to_string().contains("weight 0"), "{err}");
        let dup = SchedPolicy {
            kind: SchedPolicyKind::Fair,
            weights: vec![("a".to_string(), 1), ("a".to_string(), 2)],
        };
        let err = RuntimeConfig::builder().sched_policy(dup).build().unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn from_env_reads_sched_knobs() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAMR_SCHED_QUEUE", "9");
        std::env::set_var("RAMR_SCHED_POLICY", "fair:flood=1,light=4");
        std::env::set_var("RAMR_SCHED_QUOTA", "2");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_SCHED_QUEUE");
        std::env::remove_var("RAMR_SCHED_POLICY");
        std::env::remove_var("RAMR_SCHED_QUOTA");
        assert_eq!(c.sched_queue, 9);
        assert_eq!(c.sched_policy.kind, SchedPolicyKind::Fair);
        assert_eq!(c.sched_policy.weight_of("light"), 4);
        assert_eq!(c.sched_quota, 2);

        std::env::set_var("RAMR_SCHED_POLICY", "round-robin");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_SCHED_POLICY");
        assert!(err.to_string().contains("RAMR_SCHED_POLICY"), "{err}");
    }

    #[test]
    fn from_env_reports_a_bad_value_as_invalid_config() {
        let _guard = ENV_LOCK.lock().unwrap();
        for (env, raw, message) in [
            ("RAMR_WORKERS", "many", "cannot parse RAMR_WORKERS=many"),
            ("RAMR_CONTAINER", "tree", "unknown container kind \"tree\""),
            (
                "RAMR_TELEMETRY",
                "maybe",
                "cannot parse RAMR_TELEMETRY=maybe (expected 0|1|true|false|yes|no)",
            ),
        ] {
            std::env::set_var(env, raw);
            let err = RuntimeConfig::from_env().unwrap_err();
            std::env::remove_var(env);
            assert_eq!(err, RuntimeError::InvalidConfig(message.into()));
            assert_eq!(err.to_string(), format!("invalid configuration: {message}"));
        }
    }

    #[test]
    fn knob_table_names_are_unique_and_well_formed() {
        let mut envs = std::collections::HashSet::new();
        let mut clis = std::collections::HashSet::new();
        for k in ENV_KNOBS {
            assert!(k.env.starts_with("RAMR_"), "{} must be namespaced", k.env);
            assert!(!k.cli.starts_with('-'), "cli name {} is flag-prefixed", k.cli);
            assert!(!k.help.is_empty() && !k.value.is_empty(), "{} lacks help text", k.env);
            assert!(envs.insert(k.env), "duplicate env var {}", k.env);
            assert!(clis.insert(k.cli), "duplicate cli flag {}", k.cli);
        }
    }

    fn by_cli(cli: &str) -> &'static EnvKnob<RuntimeConfigBuilder> {
        ENV_KNOBS.iter().find(|k| k.cli == cli).expect("knob exists")
    }

    #[test]
    fn push_backoff_halves_compose_in_either_order() {
        // The two fields of `PushBackoff` are separate knobs; applying both
        // composes regardless of order.
        for (first, second) in [("push-spins", "push-sleep-us"), ("push-sleep-us", "push-spins")] {
            let mut b = RuntimeConfig::builder();
            let raw = |cli: &str| if cli == "push-spins" { "17" } else { "250" };
            b = (by_cli(first).apply)(b, raw(first), first).unwrap();
            b = (by_cli(second).apply)(b, raw(second), second).unwrap();
            let c = b.build().unwrap();
            assert_eq!(
                c.push_backoff,
                PushBackoff { spins: 17, sleep: Duration::from_micros(250) },
                "order {first} then {second}"
            );
        }
    }

    #[test]
    fn knob_apply_reports_its_source() {
        let err =
            (by_cli("workers").apply)(RuntimeConfig::builder(), "many", "--workers").unwrap_err();
        assert!(err.to_string().contains("--workers=many"), "{err}");
    }

    #[test]
    fn every_knob_applies_a_parseable_value() {
        for k in ENV_KNOBS {
            let raw = match k.value {
                "N" | "MS" | "US" => "3",
                "F" => "0.5",
                "0|1" => "1",
                v => v.split('|').next().unwrap(),
            };
            (k.apply)(RuntimeConfig::builder(), raw, k.env)
                .unwrap_or_else(|e| panic!("{} rejected sample value {raw}: {e}", k.env));
        }
    }

    #[test]
    fn from_env_reads_overrides() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAMR_TASK_SIZE", "123");
        std::env::set_var("RAMR_CONTAINER", "fixed-hash");
        let c = RuntimeConfig::from_env().unwrap();
        std::env::remove_var("RAMR_TASK_SIZE");
        std::env::remove_var("RAMR_CONTAINER");
        assert_eq!(c.task_size, 123);
        assert_eq!(c.container, ContainerKind::FixedHash);

        std::env::set_var("RAMR_PINNING", "bogus");
        let err = RuntimeConfig::from_env().unwrap_err();
        std::env::remove_var("RAMR_PINNING");
        assert!(err.to_string().contains("bogus"));
    }
}
