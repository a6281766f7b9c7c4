//! Property-based differential testing: random commutative-monoid jobs over
//! random inputs must agree between the two runtimes and a sequential
//! reference, for arbitrary configurations.

use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig};
use proptest::prelude::*;
use ramr::{Backend, Engine};

/// Which commutative, associative fold the job uses.
#[derive(Debug, Clone, Copy)]
enum Fold {
    Sum,
    Min,
    Max,
    SaturatingMul,
}

#[derive(Debug)]
struct RandomJob {
    key_space: u32,
    fold: Fold,
    emits: u8,
}

impl MapReduceJob for RandomJob {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        for &x in task {
            for i in 0..u64::from(self.emits) {
                let key = ((x ^ (i << 32)).wrapping_mul(0x2545_f491_4f6c_dd1d)
                    % u64::from(self.key_space)) as u32;
                emit.emit(key, x.wrapping_add(i) | 1);
            }
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc = match self.fold {
            Fold::Sum => acc.wrapping_add(v),
            Fold::Min => (*acc).min(v),
            Fold::Max => (*acc).max(v),
            Fold::SaturatingMul => acc.saturating_mul(v),
        };
    }

    fn key_space(&self) -> Option<usize> {
        Some(self.key_space as usize)
    }

    fn key_index(&self, k: &u32) -> usize {
        *k as usize
    }
}

fn reference(job: &RandomJob, input: &[u64]) -> Vec<(u32, u64)> {
    let mut acc: std::collections::BTreeMap<u32, u64> = Default::default();
    let mut sink = |k: u32, v: u64| {
        use std::collections::btree_map::Entry;
        match acc.entry(k) {
            Entry::Vacant(e) => {
                e.insert(v);
            }
            Entry::Occupied(mut e) => job.combine(e.get_mut(), v),
        }
    };
    let mut emitter = Emitter::new(&mut sink);
    job.map_to(input, &mut emitter);
    acc.into_iter().collect()
}

fn fold_strategy() -> impl Strategy<Value = Fold> {
    prop_oneof![Just(Fold::Sum), Just(Fold::Min), Just(Fold::Max), Just(Fold::SaturatingMul)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_jobs_agree_across_runtimes(
        input in proptest::collection::vec(any::<u64>(), 0..3000),
        key_space in 1u32..300,
        fold in fold_strategy(),
        emits in 1u8..5,
        workers in 1usize..5,
        combiner_frac in 1usize..5,
        task_size in 1usize..500,
        batch in 1usize..64,
        container_hash in any::<bool>(),
    ) {
        let combiners = (workers * combiner_frac / 4).clamp(1, workers);
        let job = RandomJob { key_space, fold, emits };
        let cfg = RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(combiners)
            .task_size(task_size)
            .queue_capacity(64)
            .batch_size(batch.min(64))
            .container(if container_hash { ContainerKind::Hash } else { ContainerKind::Array })
            .build()
            .unwrap();
        let expected = reference(&job, &input);
        let ramr = Backend::RamrStatic.engine(cfg.clone()).unwrap().submit(&job, &input).unwrap().output;
        let phoenix = Backend::Phoenix.engine(cfg).unwrap().submit(&job, &input).unwrap().output;
        prop_assert_eq!(&ramr.pairs, &expected);
        prop_assert_eq!(&phoenix.pairs, &expected);
    }
}
