//! Throughput-driven tuning of the mapper/combiner ratio and batch size.
//!
//! The paper fixes the ratio per application: "this ratio is application
//! dependent and is driven by the throughput (in processed elements/second)
//! of the map and combine functions" (§III-B), and tunes batch size per
//! machine (§IV-C). This module automates both, at two points in a job's
//! lifecycle:
//!
//! * **Before the run** — [`calibrate`] measures the two throughputs on a
//!   sample of the input (map into a null sink, combine folding the sampled
//!   pairs into a real container) and [`Calibration::suggest`] converts them
//!   into pool sizes (with combiner head-room) plus an L1-share-derived
//!   batch size.
//! * **After the run** — [`EngineReport::suggested_ratio`] re-derives the
//!   paper's criterion from whole-run telemetry.
//!
//! [`EngineReport::suggested_ratio`]: crate::EngineReport::suggested_ratio
//!
//! During the run nothing is re-tuned: a mapper whose combiner is behind
//! folds its blocks itself, and a combiner with nothing to read maps, so
//! load moves between the pools one block or task at a time whatever split
//! was configured.
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

use std::time::Instant;

use mr_core::{Emitter, MapReduceJob, RuntimeConfig, RuntimeError};
use ramr_containers::{Hashed, HashedJobContainer};
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
/// The map side runs `sample` through [`MapReduceJob::map_to`], the call the
/// runtimes make, into a buffer of hashed pairs; the combine side
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

    // Map side: collect emissions, hashed once as a mapper's sink does (their
    // cost is measured, the buffer push approximates the queue write).
    let mut pairs = Vec::new();
    let started = Instant::now();
    {
        let mut sink = |k: J::Key, v: J::Value| pairs.push((Hashed::wrap(config.hasher, k), v));
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(sample, &mut emitter);
    }
    let map_ns = started.elapsed().as_nanos() as f64;
    if pairs.is_empty() {
        return Err(RuntimeError::InvalidConfig(
            "calibration sample emitted no pairs; use a larger sample".into(),
        ));
    }

    // Combine side: fold the sampled pairs into a real container.
    let emitted = pairs.len() as f64;
    let mut container = HashedJobContainer::for_job(job, config.container, config.fixed_capacity)?;
    let started = Instant::now();
    container.insert_from(&mut pairs)?;
    let combine_ns = started.elapsed().as_nanos() as f64;

    Ok(Calibration {
        map_ns_per_elem: (map_ns / sample.len() as f64).max(1.0),
        combine_ns_per_pair: (combine_ns / emitted).max(0.1),
        emits_per_elem: emitted / sample.len() as f64,
        pair_bytes: std::mem::size_of::<(J::Key, J::Value)>(),
    })
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
        let mut session = crate::Backend::RamrStatic.session(tuned).unwrap();
        let out = session.submit(&Light, &input).unwrap().output;
        assert_eq!(out.len(), 16);
        assert_eq!(out.iter().map(|(_, v)| v).sum::<u64>(), input.len() as u64);
    }
}
