//! The two tunable kernels: CPU-intensive and memory-intensive.

use std::sync::Arc;
use std::sync::OnceLock;

/// Size of the shared wide dataset the memory kernel walks, in 8-byte
/// words (8 MiB — larger than any private cache on either paper platform,
/// so every dependent access is a far-cache or DRAM event).
pub const WIDE_DATASET_WORDS: usize = 1 << 20;

/// Kernel family (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Heavy trigonometric/exponential chains over contiguous small data.
    Cpu,
    /// Light operations over a wide dataset with non-regular accesses.
    Memory,
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelKind::Cpu => "cpu",
            KernelKind::Memory => "mem",
        })
    }
}

/// The shared wide dataset, lazily initialized once per process with a
/// fixed xorshift fill so runs are reproducible.
pub(crate) fn wide_dataset() -> &'static Arc<Vec<u64>> {
    static DATASET: OnceLock<Arc<Vec<u64>>> = OnceLock::new();
    DATASET.get_or_init(|| {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data = (0..WIDE_DATASET_WORDS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Arc::new(data)
    })
}

/// Runs `iters` iterations of the CPU-intensive kernel seeded by `seed`,
/// returning a value that depends on every iteration (so the optimizer
/// cannot elide the work).
#[inline]
fn cpu_kernel(seed: u64, iters: u32) -> u64 {
    let mut x = (seed as f64).mul_add(1e-9, 1.1);
    for _ in 0..iters {
        // A chain of transcendental operations with a carried dependency.
        x = (x.sin() + x.cos()).exp().sqrt() + 0.1;
        if !x.is_finite() {
            x = 1.1;
        }
    }
    x.to_bits()
}

/// Runs `iters` dependent, non-regular accesses into the wide dataset,
/// returning the xor of everything read.
#[inline]
fn memory_kernel(seed: u64, iters: u32) -> u64 {
    let data = wide_dataset();
    let mask = (WIDE_DATASET_WORDS - 1) as u64;
    let mut idx = seed & mask;
    let mut acc = 0u64;
    for _ in 0..iters {
        let word = data[idx as usize];
        acc ^= word;
        // Next index depends on the loaded value: a true pointer chase.
        idx = word.wrapping_add(idx).wrapping_mul(0x2545_f491_4f6c_dd1d) & mask;
    }
    acc
}

/// Dispatches to the configured kernel.
#[inline]
pub(crate) fn run_kernel(kind: KernelKind, seed: u64, iters: u32) -> u64 {
    match kind {
        KernelKind::Cpu => cpu_kernel(seed, iters),
        KernelKind::Memory => memory_kernel(seed, iters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(cpu_kernel(42, 100), cpu_kernel(42, 100));
        assert_eq!(memory_kernel(42, 100), memory_kernel(42, 100));
    }

    #[test]
    fn kernels_depend_on_iteration_count() {
        assert_ne!(cpu_kernel(1, 10), cpu_kernel(1, 11));
        assert_ne!(memory_kernel(1, 10), memory_kernel(1, 50));
    }

    #[test]
    fn zero_iterations_is_cheap_identity_like() {
        let a = cpu_kernel(7, 0);
        let b = cpu_kernel(9, 0);
        // Still seed-dependent (the seed enters the initial state).
        assert_ne!(a, b);
        assert_eq!(memory_kernel(7, 0), 0);
    }

    #[test]
    fn wide_dataset_is_shared_and_fixed() {
        let a = wide_dataset();
        let b = wide_dataset();
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(a.len(), WIDE_DATASET_WORDS);
        assert_eq!(a[0], a[0]);
    }

    #[test]
    fn display_names() {
        assert_eq!(KernelKind::Cpu.to_string(), "cpu");
        assert_eq!(KernelKind::Memory.to_string(), "mem");
    }
}
