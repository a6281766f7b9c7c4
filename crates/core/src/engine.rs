//! One front door for the execution backends.
//!
//! The CLI, the differential tests and the benches all used to maintain
//! parallel per-backend call paths (`if ramr { ... } else if phoenix
//! { ... }`), each re-deriving the same telemetry summary from a different
//! report type. This module collapses that: pick a [`Backend`], obtain an
//! [`AnyEngine`] (or a pooled [`EngineSession`]), and consume the
//! backend-independent [`EngineReport`]. Every backend runs on the one
//! executor, [`EngineSession`]: Phoenix is a session with no combiners.
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//! use ramr::{Backend, Engine};
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
//! let input: Vec<u64> = (0..100).collect();
//! for backend in Backend::ALL {
//!     let engine = backend.engine(config.clone())?;
//!     let outcome = engine.submit(&Count, &input)?;
//!     assert_eq!(outcome.output.pairs.iter().map(|&(_, v)| v).sum::<u64>(), 100);
//!     assert_eq!(outcome.report.backend, backend);
//! }
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

use std::time::Duration;

use mr_core::{JobOutput, MapReduceJob, PhaseStats, RuntimeConfig, RuntimeError};
use ramr_telemetry::report::MetricsReport;
use ramr_telemetry::{FaultMetrics, ThreadTelemetry};
use ramr_topology::{MachineModel, PlacementPlan};

use crate::pipeline::{PipelineOutcome, StagePlan};
use crate::session::EngineSession;

/// The execution backends the workspace ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// RAMR: the paper's §III decoupled mapper and combiner pools, each
    /// pool balancing load with the other one block or task at a time
    /// (DESIGN §6l, §6q).
    RamrStatic,
    /// A second name for [`RamrStatic`](Backend::RamrStatic), kept only
    /// because the benchmark ledger still submits under it: it opens the
    /// same session, and its reports carry the name that was requested.
    RamrAdaptive,
    /// The Phoenix++-style baseline: every worker maps and combines
    /// inline, no pipeline decoupling — a session with no combiners
    /// (DESIGN §6r).
    Phoenix,
}

impl Backend {
    /// Every distinct backend, in the canonical comparison order.
    pub const ALL: [Backend; 2] = [Backend::RamrStatic, Backend::Phoenix];

    /// The canonical lowercase name (`ramr-static` / `ramr-adaptive` /
    /// `phoenix`), as accepted by [`FromStr`](std::str::FromStr).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::RamrStatic => "ramr-static",
            Backend::RamrAdaptive => "ramr-adaptive",
            Backend::Phoenix => "phoenix",
        }
    }

    /// Builds the engine for this backend over `config`. The engine holds
    /// no threads: every [`submit`](Engine::submit) opens a
    /// [`Backend::session`], runs one job on it and drops it.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `config` fails
    /// validation — here, at construction, before any submit.
    pub fn engine(self, config: RuntimeConfig) -> Result<AnyEngine, RuntimeError> {
        config.validate()?;
        Ok(AnyEngine { backend: self, config })
    }

    /// Opens a pooled session for this backend (see [`EngineSession`]):
    /// decoupled mappers and combiners, or Phoenix workers that fold what
    /// they map.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] as for [`Backend::engine`];
    /// additionally propagates placement failures and returns
    /// [`RuntimeError::Spawn`] when a pool thread cannot be spawned.
    pub fn session<J: MapReduceJob + 'static>(
        self,
        config: RuntimeConfig,
    ) -> Result<EngineSession<J>, RuntimeError> {
        EngineSession::open(self, config, MachineModel::host())
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ramr-static" | "static" => Ok(Backend::RamrStatic),
            "ramr-adaptive" | "adaptive" => Ok(Backend::RamrAdaptive),
            "phoenix" => Ok(Backend::Phoenix),
            other => Err(format!(
                "unknown backend '{other}' (expected ramr-static, ramr-adaptive or phoenix)"
            )),
        }
    }
}

/// Everything one job leaves behind besides its output, the same shape
/// whichever backend produced it: the per-thread rows, the pairs each route
/// folded, the ratio suggestion, faults and placement.
///
/// In a decoupled session every pair emitted is folded into a container
/// by one of three routes: read from a queue by a combiner, emitted in
/// place by a map task a combiner ran itself ([`helped`](Self::helped)), or
/// folded by a mapper that found its combiner behind
/// ([`spilled`](Self::spilled)). So on every run that returns,
/// `consumed == emitted == queued + helped + spilled`, where `queued` is
/// the `items` of the combiner rows. A Phoenix worker folds what it emits inline: there
/// `consumed == emitted` and the other routes are zero.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The backend that produced this report.
    pub backend: Backend,
    /// Per-thread telemetry, mapper rows then combiner rows.
    ///
    /// A mapper row (`index` `m < num_workers`) counts the pairs it emitted
    /// (`items`), useful map time (`busy`, which includes folding spilled
    /// pairs; that part is also `spill`), time publishing blocks to the
    /// queue (`stalled` — a publish never waits for room), the blocks
    /// published (`batches`) and their occupancy, and the thread's own
    /// wall-clock. Its `stall_events` counts the emit-buffer flushes that
    /// found the combiner behind and so folded pairs instead of queueing
    /// them.
    ///
    /// A combiner that ran map tasks in place appends one more mapper row,
    /// `index = num_workers + c`, shaped like a Phoenix worker's: `items`
    /// are the pairs it emitted in place, `busy` the whole time of those
    /// tasks, `batches` the tasks and the occupancy histogram their fill,
    /// `wall` the combiner thread's own — so for that thread `busy + stalled`
    /// of its combiner row plus `busy` of this row tracks its wall-clock. It
    /// never stalls and spills nothing. A combiner that never helped has no
    /// such row.
    ///
    /// A combiner row counts the pairs it read from its queues (`items`),
    /// time consuming batches (`busy`), idle spin/sleep time waiting for data
    /// (`stalled`), the batched reads (`batches`) and their occupancy
    /// histogram (paper §III-A); `stall_events` counts idle rounds. A
    /// Phoenix session has worker rows only: `items` counts emissions,
    /// `batches` tasks, the occupancy histogram task fill, and `stalled` is
    /// zero.
    ///
    /// In every row the timing fields, `batches` and the occupancy histogram
    /// are recorded only when `RuntimeConfig::telemetry` is on, and are zero
    /// otherwise; the counters `items` and `stall_events` are always exact.
    pub threads: Vec<ThreadTelemetry>,
    /// Total pairs folded into containers, by any route. Equals the pairs
    /// emitted on every schedule; for Phoenix (inline combine) too.
    pub consumed: u64,
    /// The part of [`consumed`](Self::consumed) mappers folded themselves:
    /// the sum of [`spilled_per_mapper`](Self::spilled_per_mapper). Zero for
    /// Phoenix.
    pub spilled: u64,
    /// The part of [`consumed`](Self::consumed) combiners emitted in place,
    /// from map tasks they claimed while they had no full batch to read: the
    /// sum of `items` over the helper rows of [`threads`](Self::threads).
    /// Zero for Phoenix.
    pub helped: u64,
    /// Pairs each mapper folded *itself*: the blocks it did not hand to a
    /// combiner that was behind, and the part of a block the queue had no
    /// room for — they never crossed a queue. One entry per mapper of the
    /// pool, zero for one whose combiner always kept up.
    pub spilled_per_mapper: Vec<u64>,
    /// The paper's throughput criterion for the mapper:combiner ratio: how
    /// many mappers one combiner keeps up with, from *measured* relative
    /// throughput (`ramr_telemetry::combine_throughput` over the mapper rows'
    /// `ramr_telemetry::pool_throughput`, ≥ 1). Both sides count a spill
    /// fold as combine work, so a combiner-bound run whose mappers fold much
    /// of the job themselves still reads as combiner-bound. `None` with
    /// telemetry off, and for Phoenix, whose workers have no role split to
    /// tune (no combine time is measured apart).
    pub suggested_ratio: Option<usize>,
    /// Always empty: no run moves threads between the pools. Kept only for
    /// the benchmark ledger, which still reads it.
    pub adaptation: Vec<AdaptationEvent>,
    /// Fault-tolerance accounting: task retries performed and poison tasks
    /// skipped under [`RuntimeConfig::max_task_retries`] /
    /// [`RuntimeConfig::skip_poison_tasks`]. All-zero (see
    /// [`FaultMetrics::is_clean`]) when fault tolerance is off or nothing
    /// failed; runs that *fail* report their faults through the returned
    /// [`RuntimeError`] instead.
    pub faults: FaultMetrics,
    /// The thread placement plan; `None` for Phoenix, whose workers pin by
    /// their own policy semantics, not a mapper/combiner plan.
    pub plan: Option<PlacementPlan>,
}

impl EngineReport {
    /// The whole-run [`MetricsReport`] of the job this report came from —
    /// the `--metrics-json` dump and a wire outcome's metrics: `app` and
    /// the knobs of `config` that shaped the run, the phase times and
    /// emission count of the job's `stats`, and this report's routes, rows
    /// and faults.
    pub fn metrics(&self, app: &str, config: &RuntimeConfig, stats: &PhaseStats) -> MetricsReport {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        MetricsReport {
            app: app.to_string(),
            runtime: self.backend.as_str().to_string(),
            workers: config.num_workers as u64,
            combiners: config.num_combiners as u64,
            batch_size: config.batch_size as u64,
            emit_buffer: config.effective_emit_buffer() as u64,
            queue_capacity: config.queue_capacity as u64,
            phase_ns: [
                ns(stats.partition),
                ns(stats.map_combine),
                ns(stats.reduce),
                ns(stats.merge),
            ],
            emitted: stats.emitted,
            consumed: self.consumed,
            spilled: self.spilled,
            helped: self.helped,
            threads: self.threads.clone(),
            faults: self.faults.clone(),
        }
    }
}

/// The element type of [`EngineReport::adaptation`], shrunk to what the
/// benchmark ledger reads. No run records one; kept only for that reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptationEvent {
    /// Threads mapping after the event.
    pub active_mappers: usize,
    /// Threads combining after the event.
    pub active_combiners: usize,
}

impl AdaptationEvent {
    /// Whether the event moved a thread between the pools: never.
    pub fn acted(&self) -> bool {
        false
    }
}

/// A job's output paired with the backend-independent [`EngineReport`] —
/// the tuple shape [`EngineOutcome::into_parts`] splits into.
pub type EngineOutput<J> =
    (JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>, EngineReport);

/// What one submitted job produced: the key-sorted reduced output plus the
/// backend-independent report, always attached. This is the single return
/// shape of [`Engine::submit`] and [`EngineSession::submit`] — there is no
/// unreported spelling; callers that only want pairs take `.output` (the
/// report costs nothing extra, it is assembled from telemetry the run
/// already collected).
pub struct EngineOutcome<J: MapReduceJob> {
    /// The key-sorted reduced output.
    pub output: JobOutput<J::Key, J::Value>,
    /// The backend-independent run report.
    pub report: EngineReport,
}

impl<J: MapReduceJob> EngineOutcome<J> {
    /// Splits the outcome into an `(output, report)` tuple.
    pub fn into_parts(self) -> EngineOutput<J> {
        (self.output, self.report)
    }
}

impl<J: MapReduceJob> std::fmt::Debug for EngineOutcome<J>
where
    J::Key: std::fmt::Debug,
    J::Value: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOutcome")
            .field("output", &self.output)
            .field("report", &self.report)
            .finish()
    }
}

/// The unified execution interface over the backends.
///
/// Generic over the job at the *method* level (like the runtimes
/// themselves), so one engine value can run heterogeneous jobs; the trait
/// is therefore not object-safe — dispatch through [`AnyEngine`], which
/// implements it over [`Backend::session`].
pub trait Engine {
    /// Which backend this engine executes on.
    fn backend(&self) -> Backend;

    /// The engine's configuration.
    fn config(&self) -> &RuntimeConfig;

    /// Executes `job` over `input`, returning the key-sorted reduced
    /// output with its report always attached ([`EngineOutcome`]).
    ///
    /// A fresh run *is* a one-epoch session: the pools are spawned, serve
    /// this one job and are joined before the call returns. Callers that
    /// submit a stream of jobs and care about that per-job setup hold a
    /// [`Backend::session`] instead. `J: 'static` because the pool threads
    /// are typed by `J` and are ordinary (non-scoped) threads.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`RuntimeError`].
    fn submit<J: MapReduceJob + 'static>(
        &self,
        job: &J,
        input: &[J::Input],
    ) -> Result<EngineOutcome<J>, RuntimeError>;

    /// Executes a multi-stage [`StagePlan`] built with
    /// [`Pipeline`](crate::pipeline::Pipeline), handing each stage's output
    /// to the next splitter as owned in-memory pairs.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StageFailed`] wrapping the failing stage's error.
    fn pipeline<P: StagePlan>(
        &self,
        plan: P,
        input: &[P::Input],
    ) -> Result<PipelineOutcome<P::Key, P::Value>, RuntimeError>
    where
        Self: Sized,
    {
        crate::pipeline::run(self.backend(), self.config().clone(), plan, input)
    }
}

/// An [`Engine`] for any [`Backend`], selected at runtime — the value the
/// CLI, benches and differential tests dispatch through instead of
/// hand-rolled per-backend arms.
pub struct AnyEngine {
    backend: Backend,
    /// Validated by [`Backend::engine`].
    config: RuntimeConfig,
}

impl std::fmt::Debug for AnyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyEngine").field("backend", &self.backend).finish_non_exhaustive()
    }
}

impl Engine for AnyEngine {
    fn backend(&self) -> Backend {
        self.backend
    }

    fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    fn submit<J: MapReduceJob + 'static>(
        &self,
        job: &J,
        input: &[J::Input],
    ) -> Result<EngineOutcome<J>, RuntimeError> {
        self.backend.session::<J>(self.config.clone())?.submit(job, input)
    }
}
