//! The guided tail split end to end: inputs that straddle the point where a
//! session stops handing out full tasks — `T · task_size` elements left, for
//! `T` mapping threads — run on every backend and container, and each must
//! give the serial output, map every task of `task_ranges_for` exactly once
//! and fold every pair it emits. A short service job is cut too.

use std::sync::atomic::{AtomicU64, Ordering};

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, WordCount};
use mr_core::{task_ranges_for, ContainerKind, Emitter, MapReduceJob, RuntimeConfig};
use ramr::Backend;
use ramr_serve::ServeConfig;

const TASK: usize = 64;
const KEYS: u64 = 13;

/// Sums `x` under `x % KEYS` and counts its map calls.
#[derive(Default)]
struct CountedSum {
    calls: AtomicU64,
}

impl MapReduceJob for CountedSum {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        for &x in task {
            emit.emit(x % KEYS, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(KEYS as usize)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

fn serial(input: &[u64]) -> Vec<(u64, u64)> {
    let mut sums = [0u64; KEYS as usize];
    for &x in input {
        sums[(x % KEYS) as usize] += x;
    }
    (0..KEYS).zip(sums).filter(|&(_, sum)| sum != 0).collect()
}

/// A session on `backend` whose mapping threads number `threads`: that many
/// Phoenix workers, or mappers and combiners half and half (the odd one a
/// mapper).
fn config(backend: Backend, threads: usize, container: ContainerKind) -> RuntimeConfig {
    let (workers, combiners) = match backend {
        Backend::Phoenix => (threads, 1),
        _ => (threads - threads / 2, threads / 2),
    };
    RuntimeConfig::builder()
        .num_workers(workers)
        .num_combiners(combiners)
        .task_size(TASK)
        .queue_capacity(64)
        .batch_size(8)
        .container(container)
        .build()
        .unwrap()
}

#[test]
fn inputs_around_the_tail_threshold_split_and_fold_exactly() {
    for backend in Backend::ALL {
        for threads in 2..=4 {
            for container in ContainerKind::ALL {
                let mut session =
                    backend.session::<CountedSum>(config(backend, threads, container)).unwrap();
                let edge = threads * TASK;
                for len in [edge - 1, edge, edge + 1, 2 * edge + 17] {
                    let case = format!("{backend}, T = {threads}, {container}, {len} elements");
                    let input: Vec<u64> = (0..len as u64).collect();
                    let job = CountedSum::default();
                    let (out, report) = session.submit(&job, &input).unwrap().into_parts();
                    let tasks = task_ranges_for(len, TASK, threads).len() as u64;
                    assert_eq!(out.pairs, serial(&input), "{case}");
                    assert_eq!(out.stats.tasks, tasks, "{case}");
                    assert_eq!(job.calls.load(Ordering::Relaxed), tasks, "{case}: one call a task");
                    assert_eq!(out.stats.emitted, len as u64, "{case}");
                    assert_eq!(report.consumed, out.stats.emitted, "{case}: consumed == emitted");
                }
            }
        }
    }
}

/// A `serve-small` job — word count over the small Haswell input at scale
/// 20 000 — on the server's default base config and two mapping threads
/// (one mapper and one combiner; a Phoenix pool of two workers). At the
/// server's task size of 1024 the floor is 128 lines, under the job's 333,
/// so the tail split cuts the job into three tasks.
#[test]
fn a_short_service_job_is_cut_at_the_floor() {
    let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
    let input = wc_input(&spec, 20_000);
    assert_eq!(input.len(), 333);
    let base = ServeConfig::default().base;
    assert_eq!(base.task_size, 1024);
    for backend in Backend::ALL {
        let workers = if backend == Backend::Phoenix { 2 } else { 1 };
        let config = base
            .clone()
            .into_builder()
            .num_workers(workers)
            .num_combiners(1)
            .container(AppKind::WordCount.default_container())
            .build()
            .unwrap();
        let mut session = backend.session::<WordCount>(config).unwrap();
        let out = session.submit(&WordCount, &input).unwrap().output;
        assert_eq!(out.stats.tasks, task_ranges_for(333, 1024, 2).len() as u64, "{backend}");
        assert_eq!(out.stats.tasks, 3, "{backend}");
    }
}
