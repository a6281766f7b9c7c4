//! Throughput-driven tuning of the mapper/combiner ratio and batch size.
//!
//! The paper fixes the ratio per application: "this ratio is application
//! dependent and is driven by the throughput (in processed elements/second)
//! of the map and combine functions" (§III-B), and tunes batch size per
//! machine (§IV-C). This module automates both, at three points in a job's
//! lifecycle:
//!
//! * **Before the run** — [`calibrate`] measures the two throughputs on a
//!   sample of the input (map into a null sink, combine folding the sampled
//!   pairs into a real container) and [`Calibration::suggest`] converts them
//!   into pool sizes (with combiner head-room) plus an L1-share-derived
//!   batch size.
//! * **During the run** — the *online controller* half of this module:
//!   [`PoolObservation`] condenses a sampling window of live per-thread
//!   telemetry, [`decide`] turns it into at most one thread re-role and one
//!   bounded batch-size nudge per tick, and [`AdaptationEvent`] records what
//!   happened for the run's adaptation trace. The runtime drives this loop
//!   when `RuntimeConfig::adaptive` is on (see `RamrSession::submit`).
//! * **After the run** — `RunReport::suggested_ratio` re-derives the paper's
//!   criterion from whole-run telemetry, which is what the controller's
//!   verdict is compared against in the ablation.
//!
//! # Example
//!
//! ```
//! use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
//! use ramr::tuning::calibrate;
//!
//! struct Double;
//! impl MapReduceJob for Double {
//!     type Input = u64;
//!     type Key = u64;
//!     type Value = u64;
//!     fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
//!         for &x in task {
//!             emit.emit(x % 8, x * 2);
//!         }
//!     }
//!     fn combine(&self, acc: &mut u64, v: u64) {
//!         *acc += v;
//!     }
//!     fn key_space(&self) -> Option<usize> {
//!         Some(8)
//!     }
//!     fn key_index(&self, k: &u64) -> usize {
//!         *k as usize
//!     }
//! }
//!
//! let sample: Vec<u64> = (0..10_000).collect();
//! // `suggest` splits the requested thread budget; it needs at least 2
//! // (a 1-worker base is rejected rather than silently widened).
//! let base = RuntimeConfig::builder().num_workers(4).num_combiners(2).build()?;
//! let calibration = calibrate(&Double, &sample, &base)?;
//! let tuned = calibration.suggest(base)?;
//! assert!(tuned.num_combiners <= tuned.num_workers);
//! # Ok::<(), mr_core::RuntimeError>(())
//! ```

use std::time::{Duration, Instant};

use mr_core::{Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr_containers::JobContainer;
use ramr_telemetry::{pool_throughput, ThreadTelemetry};
use ramr_topology::MachineModel;

/// Measured per-element costs of a job's two sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Nanoseconds per input element in the map function (excluding
    /// emission transport).
    pub map_ns_per_elem: f64,
    /// Nanoseconds per intermediate pair in the combine-insert path.
    pub combine_ns_per_pair: f64,
    /// Intermediate pairs emitted per input element in the sample.
    pub emits_per_elem: f64,
    /// Size of one intermediate pair in bytes.
    pub pair_bytes: usize,
}

impl Calibration {
    /// Fraction of the total per-element work that belongs to the combine
    /// side — the quantity that drives the mapper/combiner ratio.
    pub fn combine_share(&self) -> f64 {
        let combine = self.emits_per_elem * self.combine_ns_per_pair;
        combine / (self.map_ns_per_elem + combine).max(f64::MIN_POSITIVE)
    }

    /// Derives a tuned configuration from `base`: the total thread count
    /// (`base.num_workers`) is split into mappers and combiners by measured
    /// throughput with 25% combiner head-room, and the batch size is set to
    /// half the per-thread L1 share divided by the pair size (the locality
    /// window behind the paper's Fig 7 optima), clamped to the queue
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `base.num_workers < 2`
    /// — one thread cannot be split into a mapper and a combiner, and
    /// silently widening the request would hand back a configuration using
    /// more cores than the caller asked for. Otherwise propagates
    /// validation errors from the resulting configuration.
    pub fn suggest(&self, base: RuntimeConfig) -> Result<RuntimeConfig, RuntimeError> {
        let total = base.num_workers;
        if total < 2 {
            return Err(RuntimeError::InvalidConfig(format!(
                "cannot split {total} thread(s) into decoupled mapper and combiner pools; \
                 request at least 2 workers"
            )));
        }
        let combiners =
            ((total as f64 * self.combine_share() * 1.25).ceil() as usize).clamp(1, total / 2);
        let machine = MachineModel::detect();
        let l1_share = (u64::from(machine.l1d_kb) * 1024 / machine.smt as u64) as usize;
        let batch = (l1_share / 2 / self.pair_bytes.max(1)).clamp(16, base.queue_capacity);
        let tuned = RuntimeConfig {
            num_workers: total - combiners,
            num_combiners: combiners,
            batch_size: batch,
            ..base
        };
        tuned.validate()?;
        Ok(tuned)
    }
}

/// Measures map and combine throughput on a sample of the input.
///
/// The map side runs over `sample` with a null emitter; the combine side
/// replays the sampled emissions into a real container of the configured
/// kind (so hash-versus-array costs are captured). Run this on an idle
/// machine with a sample large enough to amortize timer resolution — a few
/// thousand elements suffice for the paper's applications.
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidConfig`] when `sample` is empty or emits
/// nothing, and propagates container construction errors.
pub fn calibrate<J: MapReduceJob>(
    job: &J,
    sample: &[J::Input],
    config: &RuntimeConfig,
) -> Result<Calibration, RuntimeError> {
    if sample.is_empty() {
        return Err(RuntimeError::InvalidConfig("calibration sample is empty".into()));
    }

    // Map side: collect emissions (their cost is measured, the buffer push
    // approximates the queue write).
    let mut pairs: Vec<(J::Key, J::Value)> = Vec::new();
    let started = Instant::now();
    {
        let mut sink = |k: J::Key, v: J::Value| pairs.push((k, v));
        let mut emitter = Emitter::new(&mut sink);
        job.map(sample, &mut emitter);
    }
    let map_ns = started.elapsed().as_nanos() as f64;
    if pairs.is_empty() {
        return Err(RuntimeError::InvalidConfig(
            "calibration sample emitted no pairs; use a larger sample".into(),
        ));
    }

    // Combine side: fold the sampled pairs into a real container.
    let emitted = pairs.len() as f64;
    let mut container = JobContainer::for_job(job, config.container, config.fixed_capacity)?;
    let started = Instant::now();
    for (k, v) in pairs {
        container.insert(k, v)?;
    }
    let combine_ns = started.elapsed().as_nanos() as f64;

    Ok(Calibration {
        map_ns_per_elem: (map_ns / sample.len() as f64).max(1.0),
        combine_ns_per_pair: (combine_ns / emitted).max(0.1),
        emits_per_elem: emitted / sample.len() as f64,
        pair_bytes: std::mem::size_of::<(J::Key, J::Value)>(),
    })
}

// ---------------------------------------------------------------------------
// Online adaptive controller (the in-flight half of the tuning story).
// ---------------------------------------------------------------------------

/// Minimum batched reads a sampling window must contain before the batch
/// occupancy signal is trusted. Below this the full/empty fractions are
/// dominated by a handful of boundary batches.
const MIN_BATCHES_FOR_SIGNAL: u64 = 8;

/// Mapper stall fraction above which the combiner pool is declared starving
/// the mappers (blocks pile up behind full queues), regardless of what the
/// throughput estimate says.
const MAPPER_STALL_THRESHOLD: f64 = 0.25;

/// Combiner idle fraction above which — with mappers running freely — the
/// combiner pool is declared oversized.
const COMBINER_IDLE_THRESHOLD: f64 = 0.6;

/// Gate on the mapper-stall override: adding a combiner only helps when the
/// existing combiners are actually busy. Above this combiner idle fraction,
/// mapper stalls cannot be a combine-capacity problem — an extra combiner
/// would idle like the others — so the override stands down and the
/// throughput criterion keeps control.
const COMBINER_STALL_GATE: f64 = 0.5;

/// Batched reads fuller than this fraction of the window mean the combiners
/// always find a full block waiting (a backlog): grow the batch to amortize
/// more synchronization per read.
const READS_FULL_THRESHOLD: f64 = 0.9;

/// Batched reads fuller than the configured size less often than this mean
/// the block rarely fills before the combiner arrives: shrink the batch so
/// reads stop waiting for stragglers.
const READS_SPARSE_THRESHOLD: f64 = 0.25;

/// Bounds the online controller must keep its two actuators inside.
///
/// Derived from the starting configuration by [`AdaptiveBounds::from_config`]
/// so a run can never adapt itself outside what the operator provisioned:
/// dedicated combiners are never re-rolled as mappers (they own no task
/// queue), at least one mapper always survives, and the batch size moves
/// within a 4x window of the configured value, capped by the queue capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBounds {
    /// Fewest active combiners (the dedicated pool size).
    pub min_combiners: usize,
    /// Most active combiners (everything but one mapper re-rolled).
    pub max_combiners: usize,
    /// Smallest batch size the controller may set.
    pub min_batch: usize,
    /// Largest batch size the controller may set.
    pub max_batch: usize,
}

impl AdaptiveBounds {
    /// Derives the controller's actuator bounds from a starting config.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        Self {
            min_combiners: config.num_combiners,
            max_combiners: config.num_combiners + config.num_workers.saturating_sub(1),
            min_batch: (config.batch_size / 4).max(1),
            max_batch: (config.batch_size.saturating_mul(4)).min(config.queue_capacity),
        }
    }

    /// Total threads the adaptive pool owns (mappers + combiners).
    pub fn total_threads(&self) -> usize {
        // max_combiners = dedicated + flex - 1, so total = max + 1.
        self.max_combiners + 1
    }
}

/// One sampling window of live pool telemetry, condensed to the signals the
/// controller acts on.
///
/// Built from *deltas* between successive snapshots of the worker cells
/// ([`ThreadTelemetry::delta_since`]), so every field describes only the
/// elapsed window — the workload's current phase — never the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolObservation {
    /// Pairs emitted per busy-second across mapping threads (`None` when
    /// the window recorded no mapper busy time).
    pub map_throughput: Option<f64>,
    /// Pairs folded per busy-second across combining threads.
    pub combine_throughput: Option<f64>,
    /// Fraction of mapper accounted time spent blocked publishing blocks to
    /// full queues, in `[0, 1]`.
    pub mapper_stall_fraction: f64,
    /// Fraction of combiner accounted time spent idle waiting for data.
    pub combiner_stall_fraction: f64,
    /// Fraction of the window's batched reads that were completely full.
    pub read_full_fraction: f64,
    /// Batched reads performed in the window (gates the occupancy signal).
    pub combine_batches: u64,
    /// Pairs emitted by mappers in the window.
    pub pairs_emitted: u64,
    /// Pairs consumed by combiners in the window.
    pub pairs_consumed: u64,
}

impl PoolObservation {
    /// Condenses per-thread window deltas into one observation.
    ///
    /// `mappers` are the deltas of the map-side accumulators, `combiners`
    /// the deltas of every combining participant (dedicated combiners and
    /// re-rolled mappers alike).
    pub fn from_windows(mappers: &[ThreadTelemetry], combiners: &[ThreadTelemetry]) -> Self {
        fn stall_fraction(threads: &[ThreadTelemetry]) -> f64 {
            let busy: f64 = threads.iter().map(|t| t.busy.as_secs_f64()).sum();
            let stalled: f64 = threads.iter().map(|t| t.stalled.as_secs_f64()).sum();
            let accounted = busy + stalled;
            if accounted > 0.0 {
                stalled / accounted
            } else {
                0.0
            }
        }
        let mut occupancy = ramr_telemetry::BatchHistogram::default();
        for t in combiners {
            occupancy.merge(&t.occupancy);
        }
        Self {
            map_throughput: pool_throughput(mappers),
            combine_throughput: pool_throughput(combiners),
            mapper_stall_fraction: stall_fraction(mappers),
            combiner_stall_fraction: stall_fraction(combiners),
            read_full_fraction: occupancy.full_fraction(),
            combine_batches: occupancy.total(),
            pairs_emitted: mappers.iter().map(|t| t.items).sum(),
            pairs_consumed: combiners.iter().map(|t| t.items).sum(),
        }
    }

    /// The paper's throughput criterion evaluated on this window, when both
    /// throughputs were observable.
    pub fn suggested_ratio(&self) -> Option<usize> {
        Some(ramr_telemetry::suggested_ratio(self.map_throughput?, self.combine_throughput?))
    }
}

/// What the controller chose to do after one sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Change to the active combiner count: `+1` re-rolls one mapper as a
    /// combiner, `-1` sends one re-rolled combiner back to mapping, `0`
    /// holds. Never moves more than one thread per tick (hysteresis).
    pub combiner_step: isize,
    /// Batch size combiners should use from now on (possibly unchanged).
    pub batch_size: usize,
    /// Human-readable cause, for the adaptation trace.
    pub reason: &'static str,
}

/// The controller policy: one observation window in, at most one thread
/// re-role and one batch nudge out.
///
/// Ratio control follows the paper's throughput criterion — the window's
/// relative combine/map throughput implies how many mappers one combiner
/// sustains, hence a target combiner count for the fixed thread budget —
/// stepped one thread at a time with a ±1 dead-band so adjacent-target
/// rounding cannot oscillate the pools. Two *starvation overrides* outrank
/// the estimate, because they observe the failure directly rather than
/// inferring it: mappers blocked on full queues force a combiner to be
/// added; combiners idling while mappers run freely force one to be
/// removed. Batch control follows the read-occupancy histogram within
/// [`AdaptiveBounds`]' window: always-full reads double the batch (backlog
/// — amortize synchronization), rarely-full reads halve it (stop waiting
/// for blocks that never fill).
pub fn decide(
    obs: &PoolObservation,
    active_combiners: usize,
    batch_size: usize,
    bounds: &AdaptiveBounds,
) -> Decision {
    // Batch nudge (independent of the ratio decision).
    let mut batch = batch_size;
    if obs.combine_batches >= MIN_BATCHES_FOR_SIGNAL {
        if obs.read_full_fraction > READS_FULL_THRESHOLD {
            batch = batch_size.saturating_mul(2).min(bounds.max_batch);
        } else if obs.read_full_fraction < READS_SPARSE_THRESHOLD {
            batch = (batch_size / 2).max(bounds.min_batch);
        }
    }

    // Throughput-criterion target for the combiner pool.
    let mut step: isize = 0;
    let mut reason = "hold";
    if let Some(ratio) = obs.suggested_ratio() {
        // `ratio` mappers per combiner over `total` threads puts the
        // combiner share at total / (ratio + 1).
        let total = bounds.total_threads() as f64;
        let target = ((total / (ratio as f64 + 1.0)).round() as usize)
            .clamp(bounds.min_combiners, bounds.max_combiners);
        // ±1 dead-band: a target one away is within rounding noise of the
        // current split; acting on it would oscillate between neighbours.
        if target > active_combiners + 1 {
            step = 1;
            reason = "throughput criterion wants more combiners";
        } else if target + 1 < active_combiners {
            step = -1;
            reason = "throughput criterion wants fewer combiners";
        }
    }

    // Starvation overrides: direct evidence of one pool starving the other.
    // The mapper-stall override is gated on the combiners being busy — if
    // they are mostly idle, the stall is batch-fill latency or scheduling,
    // and another idle combiner cannot fix it.
    if obs.mapper_stall_fraction > MAPPER_STALL_THRESHOLD
        && obs.combiner_stall_fraction < COMBINER_STALL_GATE
        && step <= 0
    {
        step = 1;
        reason = "mappers stalling on full queues";
    } else if obs.combiner_stall_fraction > COMBINER_IDLE_THRESHOLD
        && obs.mapper_stall_fraction < 0.05
        && step >= 0
    {
        step = -1;
        reason = "combiners idle while mappers run freely";
    }

    // Clamp to the actuator bounds.
    if (step > 0 && active_combiners >= bounds.max_combiners)
        || (step < 0 && active_combiners <= bounds.min_combiners)
    {
        step = 0;
        if batch == batch_size {
            reason = "hold (at bounds)";
        }
    }
    if step == 0 && batch != batch_size {
        reason = if batch > batch_size {
            "reads always full: growing batch"
        } else {
            "reads rarely full: shrinking batch"
        };
    }
    Decision { combiner_step: step, batch_size: batch, reason }
}

/// One tick of the adaptation trace: what the controller saw and did.
///
/// A run in adaptive mode records one event per sampling interval (holds
/// included), so the trace is a complete account of the controller's view —
/// `RunReport::adaptation` hands it back and the CLI prints the acting
/// subset.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationEvent {
    /// Offset from the start of the map-combine phase.
    pub at: Duration,
    /// Threads mapping after this tick's action.
    pub active_mappers: usize,
    /// Threads combining after this tick's action.
    pub active_combiners: usize,
    /// Combiner batch size after this tick's action.
    pub batch_size: usize,
    /// The window signals the decision was based on.
    pub observation: PoolObservation,
    /// The cause recorded by [`decide`].
    pub reason: &'static str,
}

impl AdaptationEvent {
    /// `true` when this tick changed a pool or the batch size.
    pub fn acted(&self) -> bool {
        !self.reason.starts_with("hold")
    }

    /// One trace line: `t+12.3ms 6m/3c batch 500 — <reason> [map 1.2M/s combine 0.9M/s]`.
    pub fn describe(&self) -> String {
        let tp = |t: Option<f64>| match t {
            Some(v) => format!("{:.2}M/s", v / 1e6),
            None => "?".to_string(),
        };
        format!(
            "t+{:<8.1?} {}m/{}c batch {:<5} — {} [map {} combine {} | stall m {:.0}% c {:.0}% \
             | reads full {:.0}%]",
            self.at,
            self.active_mappers,
            self.active_combiners,
            self.batch_size,
            self.reason,
            tp(self.observation.map_throughput),
            tp(self.observation.combine_throughput),
            100.0 * self.observation.mapper_stall_fraction,
            100.0 * self.observation.combiner_stall_fraction,
            100.0 * self.observation.read_full_fraction,
        )
    }
}

/// The split a finished stage hands to the next one: how a pipeline's
/// adaptive controller avoids re-converging from the static default at
/// every stage boundary.
///
/// Derived from the previous stage's adaptation trace by
/// [`AdaptiveSeed::from_trace`] and applied (one-shot) through
/// `EngineSession::set_adaptive_seed`; the next epoch's controller then
/// starts at this split instead of `num_combiners` / `batch_size` and
/// keeps adapting from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSeed {
    /// Flex threads that start the next epoch already re-rolled as
    /// combiners, on top of the dedicated pool.
    pub extra_combiners: usize,
    /// Batched-read size the next epoch starts with.
    pub batch_size: usize,
}

impl AdaptiveSeed {
    /// Derives the next stage's seed from the previous stage's adaptation
    /// trace: its final split and batch window, clamped into the
    /// [`AdaptiveBounds`] the next epoch will run under. `None` when the
    /// trace is empty — the controller never ticked, so nothing was
    /// learned and the next stage starts from the configured default.
    pub fn from_trace(config: &RuntimeConfig, trace: &[AdaptationEvent]) -> Option<Self> {
        let last = trace.last()?;
        let bounds = AdaptiveBounds::from_config(config);
        let extra = last
            .active_combiners
            .saturating_sub(bounds.min_combiners)
            .min(bounds.max_combiners - bounds.min_combiners);
        Some(AdaptiveSeed {
            extra_combiners: extra,
            batch_size: last.batch_size.clamp(bounds.min_batch, bounds.max_batch),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::ContainerKind;

    struct Light;

    impl MapReduceJob for Light {
        type Input = u64;
        type Key = u32;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
            for &x in task {
                emit.emit((x % 16) as u32, 1);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(16)
        }

        fn key_index(&self, k: &u32) -> usize {
            *k as usize
        }
    }

    /// Heavy combine: folds with an artificial compute kernel.
    struct HeavyCombine;

    impl MapReduceJob for HeavyCombine {
        type Input = u64;
        type Key = u32;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
            for &x in task {
                emit.emit((x % 16) as u32, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            let mut x = *acc ^ v;
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).rotate_left(17);
            }
            *acc = acc.wrapping_add(v | (x & 1));
        }

        fn key_space(&self) -> Option<usize> {
            Some(16)
        }

        fn key_index(&self, k: &u32) -> usize {
            *k as usize
        }
    }

    fn sample() -> Vec<u64> {
        (0..50_000).collect()
    }

    #[test]
    fn calibration_measures_positive_costs() {
        let c = calibrate(&Light, &sample(), &RuntimeConfig::default()).unwrap();
        assert!(c.map_ns_per_elem > 0.0);
        assert!(c.combine_ns_per_pair > 0.0);
        assert!((c.emits_per_elem - 1.0).abs() < 1e-9);
        assert_eq!(c.pair_bytes, std::mem::size_of::<(u32, u64)>());
    }

    #[test]
    fn heavier_combine_gets_more_combiners() {
        let base = RuntimeConfig::builder().num_workers(16).num_combiners(16).build().unwrap();
        let light = calibrate(&Light, &sample(), &base).unwrap();
        let heavy = calibrate(&HeavyCombine, &sample(), &base).unwrap();
        assert!(
            heavy.combine_share() > light.combine_share(),
            "heavy {:.3} vs light {:.3}",
            heavy.combine_share(),
            light.combine_share()
        );
        let light_cfg = light.suggest(base.clone()).unwrap();
        let heavy_cfg = heavy.suggest(base).unwrap();
        assert!(heavy_cfg.num_combiners >= light_cfg.num_combiners);
    }

    #[test]
    fn suggestions_always_validate() {
        let c = Calibration {
            map_ns_per_elem: 100.0,
            combine_ns_per_pair: 100.0,
            emits_per_elem: 4.0,
            pair_bytes: 16,
        };
        for workers in [2usize, 3, 8, 56, 228] {
            let base = RuntimeConfig::builder()
                .num_workers(workers)
                .num_combiners(workers)
                .build()
                .unwrap();
            let tuned = c.suggest(base).unwrap();
            tuned.validate().unwrap();
            assert_eq!(tuned.num_workers + tuned.num_combiners, workers);
        }
    }

    #[test]
    fn suggest_rejects_a_single_thread_instead_of_widening_it() {
        // Regression: `suggest` used to bump a 1-worker request to 2
        // threads silently, handing back a configuration that used more
        // cores than the caller budgeted.
        let c = Calibration {
            map_ns_per_elem: 100.0,
            combine_ns_per_pair: 100.0,
            emits_per_elem: 4.0,
            pair_bytes: 16,
        };
        let base = RuntimeConfig::builder().num_workers(1).num_combiners(1).build().unwrap();
        let err = c.suggest(base).unwrap_err();
        assert!(err.to_string().contains("at least 2 workers"), "{err}");
    }

    #[test]
    fn batch_respects_queue_capacity() {
        let c = Calibration {
            map_ns_per_elem: 10.0,
            combine_ns_per_pair: 1.0,
            emits_per_elem: 1.0,
            pair_bytes: 1, // absurdly small pairs would want a giant batch
        };
        let base = RuntimeConfig::builder()
            .num_workers(4)
            .num_combiners(4)
            .queue_capacity(100)
            .batch_size(10)
            .build()
            .unwrap();
        let tuned = c.suggest(base).unwrap();
        assert!(tuned.batch_size <= 100);
        assert!(tuned.batch_size >= 16);
    }

    #[test]
    fn empty_sample_is_rejected() {
        let err = calibrate(&Light, &[], &RuntimeConfig::default()).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn non_emitting_sample_is_rejected() {
        struct Silent;
        impl MapReduceJob for Silent {
            type Input = u64;
            type Key = u32;
            type Value = u64;
            fn map(&self, _: &[u64], _: &mut Emitter<'_, u32, u64>) {}
            fn combine(&self, _: &mut u64, _: u64) {}
        }
        let cfg = RuntimeConfig::builder().container(ContainerKind::Hash).build().unwrap();
        let err = calibrate(&Silent, &[1, 2, 3], &cfg).unwrap_err();
        assert!(err.to_string().contains("no pairs"));
    }

    fn bounds_for(workers: usize, combiners: usize, batch: usize, queue: usize) -> AdaptiveBounds {
        AdaptiveBounds::from_config(
            &RuntimeConfig::builder()
                .num_workers(workers)
                .num_combiners(combiners)
                .batch_size(batch)
                .queue_capacity(queue)
                .build()
                .unwrap(),
        )
    }

    fn obs() -> PoolObservation {
        PoolObservation {
            map_throughput: Some(1000.0),
            combine_throughput: Some(1000.0),
            combine_batches: 100,
            pairs_emitted: 10_000,
            pairs_consumed: 10_000,
            read_full_fraction: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn bounds_keep_one_mapper_and_all_dedicated_combiners() {
        let b = bounds_for(8, 1, 100, 1000);
        assert_eq!(b.min_combiners, 1);
        assert_eq!(b.max_combiners, 8, "8 flex threads: at most 7 re-rolled, 1 keeps mapping");
        assert_eq!(b.total_threads(), 9);
        assert_eq!(b.min_batch, 25);
        assert_eq!(b.max_batch, 400);
        // Batch window is capped by the queue capacity.
        assert_eq!(bounds_for(4, 2, 800, 1000).max_batch, 1000);
    }

    #[test]
    fn equal_throughput_from_bad_start_adds_combiners() {
        // 9 threads, 1 combiner, equal map/combine speed: the criterion
        // wants a 1:1 split (target 5 of 9), far above 1 -> step up.
        let b = bounds_for(8, 1, 100, 1000);
        let d = decide(&obs(), 1, 100, &b);
        assert_eq!(d.combiner_step, 1, "{}", d.reason);
        // ... and keeps stepping until the dead-band around the target.
        assert_eq!(decide(&obs(), 3, 100, &b).combiner_step, 1);
        assert_eq!(decide(&obs(), 4, 100, &b).combiner_step, 0, "inside the dead-band");
        assert_eq!(decide(&obs(), 5, 100, &b).combiner_step, 0, "inside the dead-band");
        assert_eq!(decide(&obs(), 7, 100, &b).combiner_step, -1, "overshoot steps back");
    }

    #[test]
    fn fast_combine_sheds_combiners() {
        // Combine 8x faster than map: one combiner serves 8 mappers, the
        // target collapses to 1 of 9.
        let o = PoolObservation { combine_throughput: Some(8000.0), ..obs() };
        let b = bounds_for(8, 1, 100, 1000);
        assert_eq!(decide(&o, 5, 100, &b).combiner_step, -1);
        // Already at the dedicated floor: clamped.
        assert_eq!(decide(&o, 1, 100, &b).combiner_step, 0);
    }

    #[test]
    fn mapper_stall_overrides_throughput_estimate() {
        // Throughput says shed combiners, but mappers are visibly blocked
        // on full queues: direct evidence wins.
        let o = PoolObservation {
            combine_throughput: Some(8000.0),
            mapper_stall_fraction: 0.4,
            ..obs()
        };
        let b = bounds_for(8, 1, 100, 1000);
        let d = decide(&o, 5, 100, &b);
        assert_eq!(d.combiner_step, 1);
        assert!(d.reason.contains("stalling"), "{}", d.reason);
        // At the ceiling the override still cannot exceed the bounds.
        assert_eq!(decide(&o, 8, 100, &b).combiner_step, 0);
    }

    #[test]
    fn mapper_stall_with_idle_combiners_does_not_add_more() {
        // Mappers blocked while the existing combiners are mostly idle:
        // another combiner would idle like the rest, so the override is
        // gated out and the throughput criterion keeps control.
        let o = PoolObservation {
            combine_throughput: Some(8000.0),
            mapper_stall_fraction: 0.4,
            combiner_stall_fraction: 0.9,
            ..obs()
        };
        let b = bounds_for(8, 1, 100, 1000);
        assert_eq!(decide(&o, 5, 100, &b).combiner_step, -1, "criterion resumes control");
    }

    #[test]
    fn idle_combiners_step_back_only_when_mappers_run_freely() {
        let idle = PoolObservation { combiner_stall_fraction: 0.8, ..obs() };
        let b = bounds_for(8, 2, 100, 1000);
        // Dead-band target (5) vs active 5: throughput holds; idleness acts.
        let d = decide(&idle, 5, 100, &b);
        assert_eq!(d.combiner_step, -1, "{}", d.reason);
        // Same idleness but mappers also stalling: conflicting signals —
        // neither override fires (idle combiners gate the mapper-stall
        // override; stalled mappers gate the idle-combiner one) and the
        // dead-banded throughput criterion holds.
        let both = PoolObservation { mapper_stall_fraction: 0.3, ..idle };
        assert_eq!(decide(&both, 5, 100, &b).combiner_step, 0);
        // Never below the dedicated pool.
        assert_eq!(decide(&idle, 2, 100, &b).combiner_step, 0);
    }

    #[test]
    fn batch_adapts_within_bounds_on_occupancy_extremes() {
        let b = bounds_for(4, 2, 100, 1000);
        let full = PoolObservation { read_full_fraction: 0.95, ..obs() };
        assert_eq!(decide(&full, 3, 100, &b).batch_size, 200);
        assert_eq!(decide(&full, 3, 400, &b).batch_size, 400, "capped at max_batch");
        let sparse = PoolObservation { read_full_fraction: 0.1, ..obs() };
        assert_eq!(decide(&sparse, 3, 100, &b).batch_size, 50);
        assert_eq!(decide(&sparse, 3, 25, &b).batch_size, 25, "floored at min_batch");
        // Mid-range occupancy holds the batch.
        assert_eq!(decide(&obs(), 3, 100, &b).batch_size, 100);
        // Too few reads in the window: the signal is ignored.
        let thin = PoolObservation { read_full_fraction: 1.0, combine_batches: 2, ..obs() };
        assert_eq!(decide(&thin, 3, 100, &b).batch_size, 100);
    }

    #[test]
    fn no_throughput_signal_holds_the_pools() {
        let blind = PoolObservation::default();
        let b = bounds_for(8, 1, 100, 1000);
        let d = decide(&blind, 3, 100, &b);
        assert_eq!(d.combiner_step, 0);
        assert_eq!(d.batch_size, 100);
        assert!(!AdaptationEvent {
            at: Duration::ZERO,
            active_mappers: 6,
            active_combiners: 3,
            batch_size: 100,
            observation: blind,
            reason: d.reason,
        }
        .acted());
    }

    #[test]
    fn observation_from_windows_aggregates_pools() {
        use ramr_telemetry::{BatchHistogram, ThreadRole};
        let mk = |role, busy_ms: u64, stalled_ms: u64, items, full: u64, partial: u64| {
            let mut occupancy = BatchHistogram::default();
            for _ in 0..full {
                occupancy.record(8, 8);
            }
            for _ in 0..partial {
                occupancy.record(2, 8);
            }
            ThreadTelemetry {
                role,
                index: 0,
                busy: Duration::from_millis(busy_ms),
                stalled: Duration::from_millis(stalled_ms),
                spill: Duration::ZERO,
                wall: Duration::from_millis(busy_ms + stalled_ms),
                items,
                stall_events: 0,
                batches: full + partial,
                occupancy,
            }
        };
        let mappers = [
            mk(ThreadRole::Mapper, 90, 10, 9000, 0, 0),
            mk(ThreadRole::Mapper, 60, 40, 6000, 0, 0),
        ];
        let combiners = [mk(ThreadRole::Combiner, 100, 100, 12_000, 6, 2)];
        let o = PoolObservation::from_windows(&mappers, &combiners);
        // 15000 items over 0.15 busy seconds.
        assert!((o.map_throughput.unwrap() - 100_000.0).abs() < 1e-6);
        assert!((o.combine_throughput.unwrap() - 120_000.0).abs() < 1e-6);
        assert!((o.mapper_stall_fraction - 0.25).abs() < 1e-9);
        assert!((o.combiner_stall_fraction - 0.5).abs() < 1e-9);
        assert_eq!(o.combine_batches, 8);
        assert!((o.read_full_fraction - 0.75).abs() < 1e-9);
        assert_eq!(o.pairs_emitted, 15_000);
        assert_eq!(o.pairs_consumed, 12_000);
        assert_eq!(o.suggested_ratio(), Some(1));
        // Empty windows observe nothing rather than fabricating zeros.
        let empty = PoolObservation::from_windows(&[], &[]);
        assert_eq!(empty.map_throughput, None);
        assert_eq!(empty.suggested_ratio(), None);
    }

    #[test]
    fn adaptation_event_describe_is_scannable() {
        let e = AdaptationEvent {
            at: Duration::from_millis(12),
            active_mappers: 6,
            active_combiners: 3,
            batch_size: 500,
            observation: obs(),
            reason: "mappers stalling on full queues",
        };
        assert!(e.acted());
        let line = e.describe();
        assert!(line.contains("6m/3c"), "{line}");
        assert!(line.contains("batch 500"), "{line}");
        assert!(line.contains("stalling"), "{line}");
    }

    #[test]
    fn adaptive_seed_derives_from_the_final_trace_event() {
        let config = RuntimeConfig::builder()
            .num_workers(8)
            .num_combiners(2)
            .batch_size(100)
            .queue_capacity(1000)
            .build()
            .unwrap();
        let event = |combiners: usize, batch| AdaptationEvent {
            at: Duration::ZERO,
            active_mappers: 10usize.saturating_sub(combiners),
            active_combiners: combiners,
            batch_size: batch,
            observation: PoolObservation::default(),
            reason: "hold",
        };
        // Empty trace: nothing learned, no seed.
        assert_eq!(AdaptiveSeed::from_trace(&config, &[]), None);
        // The last event wins; extra = final split minus the dedicated pool.
        let seed = AdaptiveSeed::from_trace(&config, &[event(2, 100), event(5, 200)]).unwrap();
        assert_eq!(seed, AdaptiveSeed { extra_combiners: 3, batch_size: 200 });
        // Out-of-range values clamp into the next epoch's bounds.
        let seed = AdaptiveSeed::from_trace(&config, &[event(40, 100_000)]).unwrap();
        assert_eq!(seed.extra_combiners, 7, "at most num_workers - 1 flex re-rolled");
        assert_eq!(seed.batch_size, 400, "batch capped at 4x the configured size");
    }

    #[test]
    fn end_to_end_tuned_run_is_correct() {
        let base = RuntimeConfig::builder()
            .num_workers(4)
            .num_combiners(4)
            .task_size(256)
            .build()
            .unwrap();
        let input = sample();
        let calibration = calibrate(&Light, &input[..5000], &base).unwrap();
        let tuned = calibration.suggest(base).unwrap();
        let out = crate::RamrSession::new(tuned).unwrap().submit(&Light, &input).unwrap();
        assert_eq!(out.len(), 16);
        assert_eq!(out.iter().map(|(_, v)| v).sum::<u64>(), input.len() as u64);
    }
}
