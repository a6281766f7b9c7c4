//! Multi-stage DAG pipelines: chain MapReduce jobs with zero-copy handoff.
//!
//! A pipeline is a typed stage chain built with [`Pipeline::stage`] /
//! [`StagePlan::then`] (plus the [`Pipeline::iterate`] combinator for
//! k-means-style converge-until-ε loops). Stage boundaries hand the
//! upstream [`JobOutput`] to the downstream splitter as **owned in-memory
//! pairs** — no rendering to text, no re-parsing, no pool reallocation —
//! and execution runs over the pooled [`EngineSession`] epoch protocol, so
//! within a stage (every round of an iterate loop) the worker pools stay
//! warm.
//!
//! Entry point: [`Engine::pipeline`](crate::Engine::pipeline).
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//! use ramr::{Backend, Engine, Pipeline, StagePlan};
//!
//! struct Histogram;
//! impl MapReduceJob for Histogram {
//!     type Input = u64;
//!     type Key = u64;
//!     type Value = u64;
//!     fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
//!         for &x in task {
//!             emit.emit(x % 10, 1);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//!     fn key_space(&self) -> Option<usize> {
//!         Some(10)
//!     }
//!     fn key_index(&self, k: &u64) -> usize {
//!         *k as usize
//!     }
//! }
//!
//! /// Second stage: bucket the histogram counts themselves.
//! struct CountOfCounts;
//! impl MapReduceJob for CountOfCounts {
//!     type Input = (u64, u64);
//!     type Key = u64;
//!     type Value = u64;
//!     fn map(&self, task: &[(u64, u64)], emit: &mut Emitter<'_, u64, u64>) {
//!         for &(_, count) in task {
//!             emit.emit(count % 2, 1);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//!     fn key_space(&self) -> Option<usize> {
//!         Some(2)
//!     }
//!     fn key_index(&self, k: &u64) -> usize {
//!         *k as usize
//!     }
//! }
//!
//! let config = RuntimeConfig::builder().num_workers(2).num_combiners(1).build()?;
//! let engine = Backend::RamrStatic.engine(config)?;
//! let input: Vec<u64> = (0..100).collect();
//! let plan = Pipeline::stage(Histogram).then_pairs(CountOfCounts);
//! let outcome = engine.pipeline(plan, &input)?;
//! assert_eq!(outcome.report.stages.len(), 2);
//! assert_eq!(outcome.output.pairs.iter().map(|&(_, v)| v).sum::<u64>(), 10);
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

use std::time::{Duration, Instant};

use mr_core::{JobOutput, MapReduceJob, RuntimeConfig, RuntimeError};

use crate::engine::{Backend, EngineReport};
use crate::session::EngineSession;

/// Builder entry points for stage plans. A pipeline is described by value
/// — `Pipeline::stage(a).then_pairs(b)` — and executed by handing the plan
/// to [`Engine::pipeline`](crate::Engine::pipeline).
#[derive(Debug)]
pub struct Pipeline;

impl Pipeline {
    /// Starts a plan with a single stage running `job`.
    pub fn stage<J: MapReduceJob + 'static>(job: J) -> Stage<J> {
        Stage { job }
    }

    /// Starts a plan that reruns `job` until `step` reports convergence.
    ///
    /// After every round, `step` receives the job (mutably — this is where
    /// k-means folds the accumulated clusters back into its centroids) and
    /// the round's output, and returns a residual; the loop stops as soon
    /// as the residual drops to `pipeline_epsilon` or below. All rounds
    /// share one pooled session, so worker pools stay warm across the
    /// whole loop, and each round counts as a stage against
    /// `pipeline_max_stages`. Cap the rounds explicitly with
    /// [`Iterate::rounds`].
    pub fn iterate<J, S>(job: J, step: S) -> Iterate<J, S>
    where
        J: MapReduceJob + 'static,
        S: FnMut(&mut J, &JobOutput<J::Key, J::Value>) -> f64,
    {
        Iterate { job, step, rounds: None }
    }
}

/// A single-job stage — the root of every `then` chain.
#[derive(Debug, Clone)]
pub struct Stage<J> {
    job: J,
}

/// A chained plan: run `prev`, hand its owned output through `split`, run
/// `job` on the result.
pub struct Then<P, J, F> {
    prev: P,
    job: J,
    split: F,
}

impl<P, J, F> std::fmt::Debug for Then<P, J, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Then").finish_non_exhaustive()
    }
}

/// An iterate-until-converged loop (see [`Pipeline::iterate`]).
pub struct Iterate<J, S> {
    job: J,
    step: S,
    rounds: Option<usize>,
}

impl<J, S> std::fmt::Debug for Iterate<J, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iterate").field("rounds", &self.rounds).finish_non_exhaustive()
    }
}

impl<J, S> Iterate<J, S> {
    /// Caps the loop at `n` rounds. Convergence still stops it early;
    /// hitting the cap unconverged is not an error — the pipeline returns
    /// the last round's output with
    /// [`PipelineReport::converged`] set to `false`.
    #[must_use]
    pub fn rounds(mut self, n: usize) -> Self {
        self.rounds = Some(n);
        self
    }
}

/// The identity splitter [`then_pairs`](StagePlan::then_pairs) installs:
/// the upstream `(key, value)` pairs become the downstream input items
/// verbatim ([`JobOutput::into_pairs`] as a function pointer).
pub type PairSplit<K, V> = fn(JobOutput<K, V>) -> Vec<(K, V)>;

/// A composable pipeline plan: something that can execute its stages over
/// a [`PipelineExec`] and yield the final stage's output.
///
/// Implemented by [`Stage`], [`Then`] and [`Iterate`]; extend chains with
/// [`then`](StagePlan::then) / [`then_pairs`](StagePlan::then_pairs).
pub trait StagePlan {
    /// The first stage's input item type.
    type Input;
    /// The final stage's key type.
    type Key;
    /// The final stage's value type.
    type Value;

    /// Runs every stage of this plan, threading the executor's stage
    /// budget and per-stage reports.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StageFailed`] wrapping the failing stage's error,
    /// or [`RuntimeError::InvalidConfig`] when the stage budget
    /// (`pipeline_max_stages`) is exhausted.
    fn run_stages(
        &mut self,
        exec: &mut PipelineExec,
        input: &[Self::Input],
    ) -> Result<JobOutput<Self::Key, Self::Value>, RuntimeError>;

    /// Chains `job` after this plan. `split` receives the upstream output
    /// **by value** (owned pairs, zero-copy handoff) and renders the
    /// downstream stage's input items.
    fn then<J2, F>(self, job: J2, split: F) -> Then<Self, J2, F>
    where
        Self: Sized,
        J2: MapReduceJob + 'static,
        F: FnMut(JobOutput<Self::Key, Self::Value>) -> Vec<J2::Input>,
    {
        Then { prev: self, job, split }
    }

    /// Chains a job whose input items *are* the upstream `(key, value)`
    /// pairs: the handoff moves the upstream pair vector straight into the
    /// downstream splitter with no per-item work at all.
    fn then_pairs<J2>(self, job: J2) -> Then<Self, J2, PairSplit<Self::Key, Self::Value>>
    where
        Self: Sized,
        Self::Key: mr_core::MrKey,
        Self::Value: mr_core::MrValue,
        J2: MapReduceJob<Input = (Self::Key, Self::Value)> + 'static,
    {
        Then { prev: self, job, split: JobOutput::into_pairs }
    }
}

impl<J: MapReduceJob + 'static> StagePlan for Stage<J> {
    type Input = J::Input;
    type Key = J::Key;
    type Value = J::Value;

    fn run_stages(
        &mut self,
        exec: &mut PipelineExec,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        exec.run_stage(&self.job, input)
    }
}

impl<P, J2, F> StagePlan for Then<P, J2, F>
where
    P: StagePlan,
    J2: MapReduceJob + 'static,
    F: FnMut(JobOutput<P::Key, P::Value>) -> Vec<J2::Input>,
{
    type Input = P::Input;
    type Key = J2::Key;
    type Value = J2::Value;

    fn run_stages(
        &mut self,
        exec: &mut PipelineExec,
        input: &[P::Input],
    ) -> Result<JobOutput<J2::Key, J2::Value>, RuntimeError> {
        let upstream = self.prev.run_stages(exec, input)?;
        let next = (self.split)(upstream);
        exec.run_stage(&self.job, &next)
    }
}

impl<J, S> StagePlan for Iterate<J, S>
where
    J: MapReduceJob + 'static,
    S: FnMut(&mut J, &JobOutput<J::Key, J::Value>) -> f64,
{
    type Input = J::Input;
    type Key = J::Key;
    type Value = J::Value;

    fn run_stages(
        &mut self,
        exec: &mut PipelineExec,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        exec.run_iterate(&mut self.job, &mut self.step, self.rounds, input)
    }
}

/// Pipeline execution state threaded through a plan's stages: the stage
/// budget and the per-stage reports.
#[derive(Debug)]
pub struct PipelineExec {
    backend: Backend,
    config: RuntimeConfig,
    stages_run: usize,
    reports: Vec<StageReport>,
    converged: bool,
}

impl PipelineExec {
    /// Claims the next stage number, failing when the chain has exhausted
    /// `pipeline_max_stages`.
    fn budget(&mut self) -> Result<usize, RuntimeError> {
        if self.stages_run >= self.config.pipeline_max_stages {
            return Err(RuntimeError::InvalidConfig(format!(
                "pipeline exceeded pipeline_max_stages ({}); raise RAMR_PIPELINE_MAX_STAGES or \
                 shorten the chain",
                self.config.pipeline_max_stages
            )));
        }
        self.stages_run += 1;
        Ok(self.stages_run)
    }

    /// Runs one stage on an already-open session: submits and records the
    /// [`StageReport`].
    fn run_on<J: MapReduceJob + 'static>(
        &mut self,
        session: &mut EngineSession<J>,
        job: &J,
        input: &[J::Input],
        round: Option<usize>,
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        let stage = self.budget()?;
        let started = Instant::now();
        let outcome = session.submit(job, input).map_err(|source| RuntimeError::StageFailed {
            stage,
            job: job.name().to_string(),
            source: Box::new(source),
        })?;
        let elapsed = started.elapsed();
        self.reports.push(StageReport {
            stage,
            job: job.name().to_string(),
            round,
            input_items: input.len(),
            output_keys: outcome.output.pairs.len(),
            elapsed,
            residual: None,
            report: outcome.report,
        });
        Ok(outcome.output)
    }

    /// Runs a one-job stage on a fresh pooled session for that job type.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StageFailed`] when the stage's submit fails;
    /// session construction and budget errors propagate unwrapped.
    pub fn run_stage<J: MapReduceJob + 'static>(
        &mut self,
        job: &J,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        let mut session = self.backend.session::<J>(self.config.clone())?;
        self.run_on(&mut session, job, input, None)
    }

    /// Runs an iterate-until-converged loop: every round reuses one pooled
    /// session (warm pools) and counts as a stage against the budget.
    ///
    /// # Errors
    ///
    /// Same as [`run_stage`](PipelineExec::run_stage); additionally
    /// [`RuntimeError::InvalidConfig`] when an uncapped loop exhausts
    /// `pipeline_max_stages` before converging.
    pub fn run_iterate<J, S>(
        &mut self,
        job: &mut J,
        step: &mut S,
        rounds: Option<usize>,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError>
    where
        J: MapReduceJob + 'static,
        S: FnMut(&mut J, &JobOutput<J::Key, J::Value>) -> f64,
    {
        let mut session = self.backend.session::<J>(self.config.clone())?;
        let mut round = 0usize;
        loop {
            round += 1;
            let output = self.run_on(&mut session, job, input, Some(round))?;
            let residual = step(job, &output);
            if let Some(last) = self.reports.last_mut() {
                last.residual = Some(residual);
            }
            if residual <= self.config.pipeline_epsilon {
                return Ok(output);
            }
            if rounds.is_some_and(|cap| round >= cap) {
                self.converged = false;
                return Ok(output);
            }
        }
    }
}

/// One stage's execution record inside a [`PipelineReport`].
#[derive(Debug, Clone)]
pub struct StageReport {
    /// 1-based stage number in execution order (iterate rounds each get
    /// their own number).
    pub stage: usize,
    /// The stage job's [`name`](MapReduceJob::name).
    pub job: String,
    /// For iterate stages, the 1-based round number within the loop.
    pub round: Option<usize>,
    /// Items handed to this stage's splitter.
    pub input_items: usize,
    /// Distinct keys in this stage's reduced output.
    pub output_keys: usize,
    /// Wall-clock time of this stage's submit.
    pub elapsed: Duration,
    /// The convergence residual the iterate step reported after this
    /// round; `None` for plain stages.
    pub residual: Option<f64>,
    /// The stage's full backend-independent report (telemetry, faults).
    pub report: EngineReport,
}

/// The aggregate record of one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
    /// End-to-end wall-clock time, splitters included.
    pub elapsed: Duration,
    /// `false` iff an iterate loop hit its [`rounds`](Iterate::rounds) cap
    /// before its residual dropped to `pipeline_epsilon`.
    pub converged: bool,
}

impl PipelineReport {
    /// Whether every stage ran without retries, suppressed errors, skipped
    /// tasks or a watchdog firing.
    pub fn faults_clean(&self) -> bool {
        self.stages.iter().all(|s| s.report.faults.is_clean())
    }
}

/// A pipeline's final-stage output paired with its [`PipelineReport`].
pub struct PipelineOutcome<K, V> {
    /// The final stage's key-sorted reduced output.
    pub output: JobOutput<K, V>,
    /// Per-stage and aggregate execution records.
    pub report: PipelineReport,
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for PipelineOutcome<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineOutcome")
            .field("output", &self.output)
            .field("report", &self.report)
            .finish()
    }
}

/// Executes `plan` over `input` on `backend` — the engine-side entry
/// behind [`Engine::pipeline`](crate::Engine::pipeline).
pub(crate) fn run<P: StagePlan>(
    backend: Backend,
    config: RuntimeConfig,
    mut plan: P,
    input: &[P::Input],
) -> Result<PipelineOutcome<P::Key, P::Value>, RuntimeError> {
    let started = Instant::now();
    let mut exec =
        PipelineExec { backend, config, stages_run: 0, reports: Vec::new(), converged: true };
    let output = plan.run_stages(&mut exec, input)?;
    Ok(PipelineOutcome {
        output,
        report: PipelineReport {
            stages: exec.reports,
            elapsed: started.elapsed(),
            converged: exec.converged,
        },
    })
}
