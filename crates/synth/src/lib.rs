//! The workload-aware synthetic test-suite of paper §III-C.
//!
//! "In order to evaluate RAMR under variable map/combine workload
//! combinations, we implemented a synthetic test-suite that allows for easy
//! configuration of the type and intensity of the map and combine phases."
//!
//! Two kernel families are provided, mirroring the paper's:
//!
//! * **CPU-intensive** — "computationally heavy trigonometric and
//!   exponential functions, which access contiguous, small datasets"
//!   ([`KernelKind::Cpu`]);
//! * **memory-intensive** — "computationally light operations ... applied
//!   on wide datasets with non-regular access pattern"
//!   ([`KernelKind::Memory`]).
//!
//! A [`SynthSpec`] picks a kernel and intensity for each side; the resulting
//! [`SynthJob`] is a real, runnable [`mr_core::MapReduceJob`] (used by the
//! functional test suite on both runtimes), and [`SynthSpec::profile`]
//! exports the equivalent `ramr_perfmodel::WorkloadProfile` so the `mrsim`
//! performance model can sweep the Fig 4 parameter space deterministically.
//!
//! # Example
//!
//! ```
//! use mr_synth::{KernelKind, SynthSpec};
//!
//! // Fig 4's use-case: fixed CPU-intensive map, variable memory-intensive
//! // combine.
//! let spec = SynthSpec::new(KernelKind::Cpu, 200, KernelKind::Memory, 50);
//! let job = spec.job();
//! let profile = spec.profile();
//! assert!(profile.map.instructions > profile.combine.instructions);
//! assert_eq!(job.spec(), &spec);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod job;
mod kernel;

pub use job::SynthJob;
pub use kernel::{KernelKind, WIDE_DATASET_WORDS};

use ramr_perfmodel::{AccessPattern, PhaseProfile, WorkloadProfile};

/// Number of intermediate pairs each synthetic input element emits.
pub const SYNTH_EMITS_PER_ELEM: usize = 2;

/// Key space of the synthetic jobs (dense, array-container friendly).
pub const SYNTH_KEY_SPACE: usize = 512;

/// Configuration of one synthetic workload: kernel kind and intensity
/// (iterations) for the map and the combine side independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthSpec {
    /// Map-side kernel family.
    pub map_kind: KernelKind,
    /// Map-side iterations per input element (the workload intensity knob).
    pub map_intensity: u32,
    /// Combine-side kernel family.
    pub combine_kind: KernelKind,
    /// Combine-side iterations per intermediate pair (Fig 4's x-axis:
    /// "the number of instructions per combine task").
    pub combine_intensity: u32,
}

impl SynthSpec {
    /// Creates a spec; intensities are iteration counts of the respective
    /// kernels.
    pub fn new(
        map_kind: KernelKind,
        map_intensity: u32,
        combine_kind: KernelKind,
        combine_intensity: u32,
    ) -> Self {
        Self { map_kind, map_intensity, combine_kind, combine_intensity }
    }

    /// The Fig 4 configuration: CPU-intensive map at fixed intensity,
    /// memory-intensive combine at the given intensity.
    pub fn fig4(combine_intensity: u32) -> Self {
        Self::new(KernelKind::Cpu, 200, KernelKind::Memory, combine_intensity)
    }

    /// Builds the runnable job for this spec.
    pub fn job(&self) -> SynthJob {
        SynthJob::new(*self)
    }

    /// Exports the equivalent analytic workload profile for the
    /// performance model.
    pub fn profile(&self) -> WorkloadProfile {
        fn phase(kind: KernelKind, intensity: u32) -> PhaseProfile {
            let iters = f64::from(intensity).max(1.0);
            match kind {
                // x = f(x) chains of transcendental approximations: many
                // instructions, almost no memory, long dependency chains.
                KernelKind::Cpu => PhaseProfile {
                    instructions: 30.0 * iters,
                    mem_refs: 2.0 * iters,
                    access: AccessPattern::CacheResident,
                    ilp: 0.5,
                },
                // Pointer-chase over the wide dataset: few instructions,
                // every one a dependent irregular load.
                KernelKind::Memory => PhaseProfile {
                    instructions: 6.0 * iters,
                    mem_refs: 2.0 * iters,
                    access: AccessPattern::Irregular {
                        working_set_bytes: (WIDE_DATASET_WORDS * 8) as u64,
                    },
                    ilp: 0.8,
                },
            }
        }
        WorkloadProfile {
            name: format!(
                "synth-{}x{}-{}x{}",
                self.map_kind, self.map_intensity, self.combine_kind, self.combine_intensity
            ),
            input_bytes_per_elem: 8.0,
            emits_per_elem: SYNTH_EMITS_PER_ELEM as f64,
            pair_bytes: 16,
            pair_serialize_instr: 0.0,
            map: phase(self.map_kind, self.map_intensity),
            combine: phase(self.combine_kind, self.combine_intensity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_spec_shape() {
        let light = SynthSpec::fig4(5);
        let heavy = SynthSpec::fig4(500);
        assert_eq!(light.map_kind, KernelKind::Cpu);
        assert_eq!(light.combine_kind, KernelKind::Memory);
        let lp = light.profile();
        let hp = heavy.profile();
        assert!(hp.combine.instructions > lp.combine.instructions * 50.0);
        assert_eq!(lp.map, hp.map, "map intensity is fixed in the Fig 4 sweep");
    }

    #[test]
    fn cpu_profile_is_compute_heavy_memory_profile_is_not() {
        let cpu = SynthSpec::new(KernelKind::Cpu, 100, KernelKind::Cpu, 100).profile();
        let mem = SynthSpec::new(KernelKind::Memory, 100, KernelKind::Memory, 100).profile();
        assert!(cpu.map.instructions > mem.map.instructions);
        assert!(matches!(mem.map.access, AccessPattern::Irregular { .. }));
        assert!(matches!(cpu.map.access, AccessPattern::CacheResident));
    }

    #[test]
    fn zero_intensity_is_clamped() {
        let p = SynthSpec::new(KernelKind::Cpu, 0, KernelKind::Memory, 0).profile();
        assert!(p.map.instructions > 0.0);
        assert!(p.combine.instructions > 0.0);
    }
}
