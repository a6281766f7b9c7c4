//! One front door for the execution backends.
//!
//! The CLI, the differential tests and the benches all used to maintain
//! parallel per-backend call paths (`if ramr { ... } else if phoenix
//! { ... }`), each re-deriving the same telemetry summary from a different
//! report type. This module collapses that: pick a [`Backend`], obtain an
//! [`AnyEngine`] (or a pooled [`EngineSession`]), and consume the
//! backend-independent [`EngineReport`]. Every backend runs on the one
//! executor, [`RamrSession`]: Phoenix is a session with no combiners.
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

use mr_core::{JobOutput, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr_telemetry::{FaultMetrics, ThreadTelemetry};
use ramr_topology::PlacementPlan;

use crate::pipeline::{PipelineOutcome, StagePlan};
use crate::runtime::RunReport;
use crate::session::RamrSession;

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

    /// Opens a pooled session for this backend (see [`EngineSession`]) —
    /// the one place a backend is mapped to its shape of [`RamrSession`]:
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
        let session = match self {
            Backend::RamrStatic | Backend::RamrAdaptive => RamrSession::new(config)?,
            Backend::Phoenix => RamrSession::phoenix(config)?,
        };
        Ok(EngineSession { backend: self, session })
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

/// A backend-independent summary of one run's report — the fields every
/// consumer (CLI tables, metrics JSON, benches, differential tests) needs,
/// derived identically no matter which backend produced them.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The backend that produced this report.
    pub backend: Backend,
    /// Per-thread telemetry: mappers then combiners for RAMR (combiners
    /// that mapped in place appear in both halves, as in [`RunReport`]),
    /// workers for Phoenix: `items` counts emissions, `batches` tasks, the
    /// occupancy histogram task fill, and `stalled` is zero.
    pub threads: Vec<ThreadTelemetry>,
    /// Total pairs folded into containers, by any route: read from a queue,
    /// emitted in place by a map task a combiner ran itself
    /// ([`RunReport::helped_per_combiner`]), or folded by a mapper that
    /// found its combiner behind ([`spilled`](Self::spilled)). Equals
    /// the pairs emitted on every schedule; for Phoenix (inline combine) too.
    pub consumed: u64,
    /// The part of [`consumed`](Self::consumed) mappers folded themselves
    /// ([`RunReport::spilled_per_mapper`]); zero for Phoenix.
    pub spilled: u64,
    /// The throughput-derived mapper:combiner ratio suggestion
    /// ([`RunReport::suggested_ratio`]); `None` for Phoenix, whose workers
    /// have no role split to tune (no combine time is measured apart).
    pub suggested_ratio: Option<usize>,
    /// Always empty: no run moves threads between the pools. Kept only for
    /// the benchmark ledger, which still reads it.
    pub adaptation: Vec<AdaptationEvent>,
    /// Fault-tolerance accounting for the run.
    pub faults: FaultMetrics,
    /// The thread placement plan; `None` for Phoenix, whose workers pin by
    /// their own policy semantics, not a mapper/combiner plan.
    pub plan: Option<PlacementPlan>,
}

impl EngineReport {
    fn from_run(backend: Backend, report: RunReport) -> Self {
        let spilled = report.spilled_per_mapper.iter().sum::<u64>();
        let folded = report.consumed_per_combiner.iter().chain(&report.helped_per_combiner);
        // A Phoenix worker folds every pair it emits, on the spot.
        let inline = report.combiner_telemetry.is_empty();
        let consumed = if inline {
            report.emitted_per_mapper.iter().sum()
        } else {
            folded.sum::<u64>() + spilled
        };
        let suggested_ratio = report.suggested_ratio();
        let mut threads = report.mapper_telemetry;
        threads.extend(report.combiner_telemetry);
        EngineReport {
            backend,
            threads,
            consumed,
            spilled,
            suggested_ratio,
            adaptation: Vec::new(),
            faults: report.faults,
            plan: (!inline).then_some(report.plan),
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
    /// [`RuntimeError::StageFailed`] wrapping the failing stage's error,
    /// or [`RuntimeError::InvalidConfig`] when the plan exceeds
    /// `pipeline_max_stages`.
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

/// A pooled submission channel for any backend: a persistent
/// [`RamrSession`] — threads, queues and containers reused across jobs —
/// opened in the shape [`Backend::session`] picked, with the backend it was
/// opened for.
pub struct EngineSession<J: MapReduceJob + 'static> {
    /// Resolved once at construction: the report tag can never drift from
    /// the session that produced it.
    backend: Backend,
    session: RamrSession<J>,
}

impl<J: MapReduceJob + 'static> std::fmt::Debug for EngineSession<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("backend", &self.backend)
            .field("session", &self.session)
            .finish()
    }
}

impl<J: MapReduceJob + 'static> EngineSession<J> {
    /// Which backend this session executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The session's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        self.session.config()
    }

    /// Executes one job from the stream, returning its output with the
    /// report always attached ([`EngineOutcome`]).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`RuntimeError`]; a failed submit leaves
    /// the session usable for the next one.
    pub fn submit(
        &mut self,
        job: &J,
        input: &[J::Input],
    ) -> Result<EngineOutcome<J>, RuntimeError> {
        let (output, report) = self.session.submit_with_report(job, input)?;
        Ok(EngineOutcome { output, report: EngineReport::from_run(self.backend, report) })
    }
}
