//! The synthetic workload as a runnable MapReduce job.

use std::hint::black_box;

use mr_core::{Emitter, MapReduceJob};

use crate::kernel::run_kernel;
use crate::{SynthSpec, SYNTH_EMITS_PER_ELEM, SYNTH_KEY_SPACE};

/// A runnable synthetic job: each input element runs the map kernel and
/// emits [`SYNTH_EMITS_PER_ELEM`] pairs into a dense key space; each combine
/// runs the combine kernel and folds the count.
///
/// Each kernel output goes to [`black_box`] (so the optimizer cannot remove
/// the work) while the *semantic* values stay simple counts — the
/// differential test suite can therefore compare outputs across runtimes
/// exactly.
#[derive(Debug)]
pub struct SynthJob {
    spec: SynthSpec,
}

impl SynthJob {
    /// Creates the job for `spec`.
    pub fn new(spec: SynthSpec) -> Self {
        Self { spec }
    }

    /// The configuration this job runs.
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }
}

impl MapReduceJob for SynthJob {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        for &seed in task {
            black_box(run_kernel(self.spec.map_kind, seed, self.spec.map_intensity));
            for i in 0..SYNTH_EMITS_PER_ELEM as u64 {
                let key = ((seed.wrapping_add(i).wrapping_mul(0x9e37_79b9)) as usize
                    % SYNTH_KEY_SPACE) as u32;
                emit.emit(key, 1);
            }
        }
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        black_box(run_kernel(self.spec.combine_kind, *acc ^ incoming, self.spec.combine_intensity));
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(SYNTH_KEY_SPACE)
    }

    fn key_index(&self, key: &u32) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "synthetic"
    }

    /// Emissions are a pure function of the task's seeds, so staged
    /// retries keep the pair stream exact. The kernels' outputs are
    /// discarded, so the extra kernel runs of a retried attempt change
    /// nothing.
    fn is_retry_safe(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;

    fn run_sequential(job: &SynthJob, input: &[u64]) -> Vec<(u32, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        let mut sink = |k: u32, v: u64| {
            let acc = counts.entry(k).or_insert(0u64);
            // Mirror a runtime's combine-on-insert (first insert stores).
            if *acc == 0 {
                *acc = v;
            } else {
                job.combine(acc, v);
            }
        };
        let mut emitter = Emitter::new(&mut sink);
        job.map_to(input, &mut emitter);
        counts.into_iter().collect()
    }

    #[test]
    fn emits_fixed_pairs_per_element_into_key_space() {
        let job = SynthSpec::new(KernelKind::Cpu, 2, KernelKind::Cpu, 2).job();
        let out = run_sequential(&job, &(0..1000).collect::<Vec<_>>());
        let total: u64 = out.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 1000 * SYNTH_EMITS_PER_ELEM as u64);
        assert!(out.iter().all(|(k, _)| (*k as usize) < SYNTH_KEY_SPACE));
    }

    #[test]
    fn semantic_values_are_kernel_independent() {
        // The counts must not depend on kernel kind or intensity — only the
        // time a job takes does.
        let a = run_sequential(
            &SynthSpec::new(KernelKind::Cpu, 1, KernelKind::Cpu, 1).job(),
            &(0..500).collect::<Vec<_>>(),
        );
        let b = run_sequential(
            &SynthSpec::new(KernelKind::Memory, 9, KernelKind::Memory, 7).job(),
            &(0..500).collect::<Vec<_>>(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn key_space_is_declared_for_the_array_container() {
        let job = SynthSpec::fig4(10).job();
        assert_eq!(job.key_space(), Some(SYNTH_KEY_SPACE));
        assert_eq!(job.key_index(&17), 17);
    }
}
