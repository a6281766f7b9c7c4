//! Deterministic fault injection for MapReduce runtimes.
//!
//! The fault-tolerance machinery in `ramr`/`phoenix-mr` (task retries,
//! poison skipping, the pipeline watchdog) is only trustworthy if it can be
//! exercised against *reproducible* failures. This crate provides that
//! harness:
//!
//! * [`FaultKind`] — the failure modes a task can be given: panic for the
//!   first N attempts, hang until cooperatively cancelled, or run slowly.
//! * [`FaultPlan`] — a set of faults keyed by a task fingerprint, either
//!   hand-built for targeted tests or drawn from a seeded [`XorShift64`]
//!   stream so chaos suites replay bit-identically across runs.
//! * [`FaultyJob`] — a [`MapReduceJob`] wrapper that injects the planned
//!   faults around an inner job's `map` while delegating everything else
//!   (combine, key space, retry-safety) untouched.
//! * [`net::ChaosProxy`] — a seeded TCP proxy that delays, splits,
//!   truncates, and kills proxied connections deterministically, for the
//!   serve layer's reconnect and exactly-once tests.
//!
//! Faults are keyed by the *first input element* of a task (through a
//! caller-supplied fingerprint function), not by worker or wall-clock:
//! task boundaries are a pure function of `task_size`, so a plan names the
//! same logical tasks no matter which thread claims them or in what order.
//! Panics fire *after* the inner map has emitted, which is the adversarial
//! ordering for exactly-once retries — a runtime that publishes eagerly
//! will double-count.

pub mod net;

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use mr_core::{Emitter, MapReduceJob};

/// A deterministic pseudo-random stream (xorshift64*). Deliberately tiny:
/// the workspace's vendored `rand` is an offline stub, and fault plans only
/// need reproducible bits, not statistical quality.
#[derive(Debug, Clone)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// Creates a generator from `seed` (0 is remapped — xorshift has a
    /// zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// Next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One failure mode, attached to the task whose fingerprint is `key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic after emitting, on the first `fail_attempts` executions of
    /// the task; attempts beyond that succeed. `u32::MAX` makes the task
    /// permanently poisonous.
    PanicOnTask {
        /// Task fingerprint this fault binds to.
        key: u64,
        /// How many leading attempts panic.
        fail_attempts: u32,
    },
    /// Never return: poll [`Emitter::is_cancelled`] in a sleep loop until
    /// the runtime's watchdog cancels the run. Emits nothing.
    HangOnTask {
        /// Task fingerprint this fault binds to.
        key: u64,
    },
    /// Sleep before mapping — slow but *progressing*, so a correctly
    /// scoped watchdog must not fire on it.
    DelayTask {
        /// Task fingerprint this fault binds to.
        key: u64,
        /// Delay applied before the inner map runs.
        micros: u64,
    },
}

impl FaultKind {
    /// The task fingerprint this fault binds to.
    pub fn key(&self) -> u64 {
        match self {
            FaultKind::PanicOnTask { key, .. }
            | FaultKind::HangOnTask { key }
            | FaultKind::DelayTask { key, .. } => *key,
        }
    }
}

/// A reproducible set of faults, looked up by task fingerprint.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan with no faults: [`FaultyJob`] degenerates to pure delegation.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan holding exactly the given faults. Later faults for the same
    /// key shadow earlier ones.
    pub fn with_faults(faults: Vec<FaultKind>) -> Self {
        Self { faults }
    }

    /// Draws a chaos plan from a seeded stream: up to `max_faults` distinct
    /// fingerprints from `0..key_domain` get a transient
    /// [`FaultKind::PanicOnTask`] with 1–3 failing attempts. The same
    /// `(seed, key_domain, max_faults)` always yields the same plan.
    pub fn seeded_panics(seed: u64, key_domain: u64, max_faults: usize) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut faults = Vec::new();
        let mut taken = std::collections::HashSet::new();
        while faults.len() < max_faults && taken.len() < key_domain as usize {
            let key = rng.below(key_domain.max(1));
            if taken.insert(key) {
                let fail_attempts = 1 + rng.below(3) as u32;
                faults.push(FaultKind::PanicOnTask { key, fail_attempts });
            }
        }
        Self { faults }
    }

    /// The fault bound to `key`, if any (last match wins).
    fn fault_for(&self, key: u64) -> Option<&FaultKind> {
        self.faults.iter().rev().find(|f| f.key() == key)
    }

    /// All faults in the plan, in insertion order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }
}

/// A [`MapReduceJob`] wrapper that injects the faults of a [`FaultPlan`]
/// around `inner`'s map phase.
///
/// The task fingerprint is `key_of(first element of the task)` — a plain
/// function pointer so the wrapper stays `Sync` without extra bounds. Use
/// [`FaultyJob::attempts_for`] after a run to assert how often a task ran.
pub struct FaultyJob<J: MapReduceJob> {
    inner: J,
    plan: FaultPlan,
    key_of: fn(&J::Input) -> u64,
    attempts: Mutex<HashMap<u64, u32>>,
}

impl<J: MapReduceJob> FaultyJob<J> {
    /// Wraps `inner` so tasks fingerprinted by `key_of` suffer the faults
    /// in `plan`.
    pub fn new(inner: J, plan: FaultPlan, key_of: fn(&J::Input) -> u64) -> Self {
        Self { inner, plan, key_of, attempts: Mutex::new(HashMap::new()) }
    }

    /// How many times the task fingerprinted `key` entered `map`.
    pub fn attempts_for(&self, key: u64) -> u32 {
        self.attempts.lock().unwrap().get(&key).copied().unwrap_or(0)
    }

    /// The wrapped job.
    pub fn inner(&self) -> &J {
        &self.inner
    }

    /// Fingerprint of a task, as `map` computes it.
    pub fn fingerprint(&self, task: &[J::Input]) -> Option<u64> {
        task.first().map(self.key_of)
    }

    /// Records an attempt and returns its 1-based ordinal. The guard is
    /// dropped before the caller panics so retries never observe a
    /// poisoned mutex.
    fn record_attempt(&self, key: u64) -> u32 {
        let mut attempts = self.attempts.lock().unwrap();
        let slot = attempts.entry(key).or_insert(0);
        *slot += 1;
        *slot
    }
}

impl<J: MapReduceJob> MapReduceJob for FaultyJob<J> {
    type Input = J::Input;
    type Key = J::Key;
    type Value = J::Value;

    fn map(&self, task: &[Self::Input], emit: &mut Emitter<'_, Self::Key, Self::Value>) {
        let fault = self.fingerprint(task).and_then(|key| self.plan.fault_for(key).cloned());
        match fault {
            Some(FaultKind::HangOnTask { key }) => {
                self.record_attempt(key);
                while !emit.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Some(FaultKind::DelayTask { key, micros }) => {
                self.record_attempt(key);
                std::thread::sleep(Duration::from_micros(micros));
                self.inner.map(task, emit);
            }
            Some(FaultKind::PanicOnTask { key, fail_attempts }) => {
                self.inner.map(task, emit);
                let attempt = self.record_attempt(key);
                if attempt <= fail_attempts {
                    panic!("injected fault: task {key} attempt {attempt}");
                }
            }
            None => self.inner.map(task, emit),
        }
    }

    fn combine(&self, acc: &mut Self::Value, incoming: Self::Value) {
        self.inner.combine(acc, incoming);
    }

    fn reduce(&self, key: &Self::Key, combined: Self::Value) -> Self::Value {
        self.inner.reduce(key, combined)
    }

    fn key_space(&self) -> Option<usize> {
        self.inner.key_space()
    }

    fn key_index(&self, key: &Self::Key) -> usize {
        self.inner.key_index(key)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_retry_safe(&self) -> bool {
        self.inner.is_retry_safe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;

    impl MapReduceJob for Sum {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 4, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(4)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn is_retry_safe(&self) -> bool {
            true
        }
    }

    fn collect(job: &impl MapReduceJob<Input = u64, Key = u64, Value = u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut sink = |k, v| out.push((k, v));
        let mut emit = Emitter::new(&mut sink);
        job.map_to(&[10, 11, 12], &mut emit);
        out
    }

    #[test]
    fn seeded_plans_are_reproducible_and_respect_bounds() {
        let a = FaultPlan::seeded_panics(42, 100, 5);
        let b = FaultPlan::seeded_panics(42, 100, 5);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.faults().len(), 5);
        for f in a.faults() {
            match f {
                FaultKind::PanicOnTask { key, fail_attempts } => {
                    assert!(*key < 100);
                    assert!((1..=3).contains(fail_attempts));
                }
                other => panic!("seeded plan emitted {other:?}"),
            }
        }
        let c = FaultPlan::seeded_panics(43, 100, 5);
        assert_ne!(a.faults(), c.faults(), "different seeds should differ");
        // Distinct fingerprints even when max_faults crowds the domain.
        let tight = FaultPlan::seeded_panics(7, 3, 10);
        let mut keys: Vec<u64> = tight.faults().iter().map(FaultKind::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), tight.faults().len());
    }

    #[test]
    fn empty_plan_is_pure_delegation() {
        let job = FaultyJob::new(Sum, FaultPlan::none(), |x| *x);
        assert_eq!(collect(&job), collect(&Sum));
        assert_eq!(job.key_space(), Some(4));
        assert!(job.is_retry_safe());
        assert_eq!(job.attempts_for(10), 0);
    }

    #[test]
    fn panic_fault_emits_then_panics_for_the_configured_attempts() {
        let plan =
            FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key: 10, fail_attempts: 2 }]);
        let job = FaultyJob::new(Sum, plan, |x| *x);
        for attempt in 1..=2u32 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| collect(&job)))
                .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("task 10"), "attempt {attempt}: {msg}");
        }
        // Third attempt succeeds with the full emission set.
        assert_eq!(collect(&job), collect(&Sum));
        assert_eq!(job.attempts_for(10), 3);
    }

    #[test]
    fn delay_fault_still_produces_inner_output() {
        let plan = FaultPlan::with_faults(vec![FaultKind::DelayTask { key: 10, micros: 50 }]);
        let job = FaultyJob::new(Sum, plan, |x| *x);
        assert_eq!(collect(&job), collect(&Sum));
        assert_eq!(job.attempts_for(10), 1);
    }

    #[test]
    fn hang_fault_returns_once_cancelled() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let plan = FaultPlan::with_faults(vec![FaultKind::HangOnTask { key: 10 }]);
        let job = FaultyJob::new(Sum, plan, |x| *x);
        let cancel = AtomicBool::new(true); // pre-cancelled: must return immediately
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut sink = |k, v| out.push((k, v));
        let mut emit = Emitter::with_cancel(&mut sink, &cancel);
        job.map_to(&[10, 11], &mut emit);
        assert!(out.is_empty(), "a hung task must not emit");
        assert!(cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn fault_lookup_prefers_the_latest_entry() {
        let plan = FaultPlan::with_faults(vec![
            FaultKind::PanicOnTask { key: 9, fail_attempts: 1 },
            FaultKind::DelayTask { key: 9, micros: 5 },
        ]);
        assert_eq!(plan.fault_for(9), Some(&FaultKind::DelayTask { key: 9, micros: 5 }));
        assert_eq!(plan.fault_for(8), None);
    }
}
