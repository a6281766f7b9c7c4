//! Layer micro-measurements of the traced run: each layer a pair crosses
//! is priced **from outside**, by timing calls into the public functions
//! the runtimes themselves call, over the workload's own pair stream.
//!
//! Nothing here feeds an end-to-end metric. These are the numbers a later
//! change to one layer names beforehand ("`spsc_ns_per_pair` halves, so
//! `static_job_ms` on `hg-dense` falls by at most the mapper stall share").

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mr_core::{task_ranges, Emitter, MapReduceJob, RuntimeConfig};
use phoenix_mr::phases::{bucket_by_key_hashed, merge_sorted_runs, reduce_bucket_hashed};
use ramr::{Backend, Engine, JobScheduler};
use ramr_containers::{Hashed, HashedJobContainer};
use ramr_spsc::{BackoffPolicy, SpscQueue};

use crate::report::Values;
use crate::stats::median;

/// Pairs a micro-measurement should see in total before its median is
/// trusted; short streams (k-means: 20k pairs) are repeated to reach it.
const MICRO_PAIRS_TARGET: usize = 2_000_000;

fn reps_for(pairs: usize) -> usize {
    (MICRO_PAIRS_TARGET / pairs.max(1)).clamp(3, 50)
}

fn ns_per(elapsed: std::time::Duration, count: usize) -> f64 {
    elapsed.as_nanos() as f64 / count.max(1) as f64
}

/// Prices the pair path — map emit → hash → SPSC push/pop → combine insert
/// → bucket → reduce → merge — for `job` over `input`, one layer at a time
/// on the calling thread (two threads for the queue), and checks that the
/// layers chained by hand produce the oracle's output.
///
/// # Errors
///
/// A message when a container refuses the job or the chained layers'
/// output differs from `oracle`.
pub fn pair_path<J>(
    job: &J,
    input: &[J::Input],
    config: &RuntimeConfig,
    oracle: &[(J::Key, J::Value)],
    values: &mut Values,
) -> Result<(), String>
where
    J: MapReduceJob,
    J::Value: PartialEq,
{
    let tasks = task_ranges(input.len(), config.task_size);
    let map_all = |sink: &mut dyn FnMut(J::Key, J::Value)| {
        for task in &tasks {
            job.map(&input[task.start..task.end], &mut Emitter::new(&mut *sink));
        }
    };

    let mut pairs: Vec<(J::Key, J::Value)> = Vec::new();
    map_all(&mut |k, v| pairs.push((k, v)));
    let n = pairs.len();
    let reps = reps_for(n);

    // map: the job's map function through the Emitter into a counting sink.
    let map_ns: Vec<f64> = (0..reps)
        .map(|_| {
            let mut count = 0usize;
            let started = Instant::now();
            map_all(&mut |k, v| {
                count += 1;
                black_box((&k, &v));
            });
            ns_per(started.elapsed(), count)
        })
        .collect();
    values.put("map_ns_per_pair", "ns", median(&map_ns));

    // hash: the emission-time hash-once wrap over the emitted key stream.
    let mut hashed: Vec<(Hashed<J::Key>, J::Value)> = Vec::new();
    let hash_ns: Vec<f64> = (0..reps)
        .map(|_| {
            let stream = pairs.clone();
            hashed = Vec::with_capacity(n);
            let started = Instant::now();
            for (k, v) in stream {
                hashed.push((Hashed::wrap(config.hasher, k), v));
            }
            ns_per(started.elapsed(), n)
        })
        .collect();
    values.put("hash_ns_per_key", "ns", median(&hash_ns));
    drop(pairs);

    // spsc: one producer publishing emit-buffer blocks, one consumer doing
    // batched reads into a no-op sink; shipped capacity, batch and backoff.
    let emit_block = config.effective_emit_buffer();
    let policy = BackoffPolicy::default();
    let mut full_events = Vec::with_capacity(reps);
    let spsc_ns: Vec<f64> = (0..reps)
        .map(|_| {
            let stream = hashed.clone();
            let (mut tx, mut rx) = SpscQueue::with_capacity(config.queue_capacity).split();
            let batch = config.batch_size;
            let (elapsed, full) = std::thread::scope(|scope| {
                let consumer = scope.spawn(move || {
                    let mut popped = 0usize;
                    loop {
                        let got = rx.pop_batch(batch, |pair| {
                            black_box(&pair);
                        });
                        popped += got;
                        if got == 0 {
                            // Closed is only final once a pop after it is empty.
                            if rx.is_closed() && rx.pop_batch(batch, |_| popped += 1) == 0 {
                                return popped;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
                let started = Instant::now();
                let mut full = 0u64;
                let mut block = Vec::with_capacity(emit_block);
                for pair in stream {
                    block.push(pair);
                    if block.len() == emit_block {
                        full += tx.push_batch_with_backoff(&mut block, &policy);
                    }
                }
                full += tx.push_batch_with_backoff(&mut block, &policy);
                tx.finish();
                let popped = consumer.join().expect("spsc consumer panicked");
                assert_eq!(popped, n, "the queue lost or duplicated pairs");
                (started.elapsed(), full)
            });
            full_events.push(full as f64);
            ns_per(elapsed, n)
        })
        .collect();
    values.put("spsc_ns_per_pair", "ns", median(&spsc_ns));
    values.put("spsc_full_events", "count", median(&full_events));

    // combine: insert into the container kind the workload uses, two
    // containers of half the stream each (so reduce has duplicates to fold).
    let mut partials = Vec::new();
    let mut combine_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut stream = hashed.clone();
        let tail = stream.split_off(n / 2);
        partials.clear();
        let mut spent = std::time::Duration::ZERO;
        for half in [stream, tail] {
            let mut container =
                HashedJobContainer::for_job(job, config.container, config.fixed_capacity)
                    .map_err(|e| format!("container: {e}"))?;
            let started = Instant::now();
            for (k, v) in half {
                container.insert(k, v).map_err(|e| format!("insert: {e}"))?;
            }
            spent += started.elapsed();
            let mut drained = Vec::with_capacity(container.len());
            container.drain_into(&mut drained);
            partials.push(drained);
        }
        combine_ns.push(ns_per(spent, n));
    }
    values.put("combine_ns_per_pair", "ns", median(&combine_ns));
    drop(hashed);

    // bucket / reduce / merge: the phases downstream of the containers.
    let partial_keys: usize = partials.iter().map(Vec::len).sum();
    let key_reps = reps_for(partial_keys);
    let (mut bucket_ns, mut reduce_ns, mut merge_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut merged = Vec::new();
    for _ in 0..key_reps {
        let parts = partials.clone();
        let started = Instant::now();
        let buckets = bucket_by_key_hashed::<J>(parts, config.num_reducers);
        bucket_ns.push(ns_per(started.elapsed(), partial_keys));

        let started = Instant::now();
        let runs: Vec<_> = buckets.into_iter().map(|b| reduce_bucket_hashed(job, b)).collect();
        reduce_ns.push(ns_per(started.elapsed(), partial_keys));

        let started = Instant::now();
        merged = merge_sorted_runs(runs);
        merge_ns.push(ns_per(started.elapsed(), merged.len()));
    }
    values.put("bucket_ns_per_key", "ns", median(&bucket_ns));
    values.put("reduce_ns_per_key", "ns", median(&reduce_ns));
    values.put("merge_ns_per_key", "ns", median(&merge_ns));

    if merged.as_slice() != oracle {
        return Err("the hand-chained layers' output differs from the oracle's".into());
    }
    Ok(())
}

/// A one-element job that does nothing: what is left when it runs is the
/// cost of running *a* job — epoch wake-up, thread spawn, dispatch.
#[derive(Debug, Clone, Copy)]
pub struct NoOp;

impl MapReduceJob for NoOp {
    type Input = u64;
    type Key = u32;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u32, u64>) {
        for &x in task {
            emit.emit(0, x);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(1)
    }

    fn key_index(&self, _key: &u32) -> usize {
        0
    }

    fn name(&self) -> &str {
        "noop"
    }
}

/// Median wall time of `op` in µs over `reps` back-to-back calls, after one
/// untimed call that warms the path.
pub fn median_us(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            op();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Prices running *a* job, independent of any pair: a warm session epoch,
/// a cold spawn-per-run submit, and the scheduler's dispatch on top of the
/// epoch. Each is measured back to back, the way `km-iterate`'s rounds and
/// `serve-small`'s jobs arrive. `config` is the static arm's configuration.
///
/// # Errors
///
/// A message when a session, engine or scheduler cannot be built or a
/// no-op job fails.
pub fn per_job(config: &RuntimeConfig, reps: usize, values: &mut Values) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let input = Arc::new(vec![1u64]);
    let mut failed = false;

    let mut session =
        Backend::RamrStatic.session::<NoOp>(config.clone()).map_err(|e| fail("session", &e))?;
    let epoch_us = median_us(reps, || failed |= session.submit(&NoOp, &input).is_err());
    drop(session);
    values.put("session_epoch_us", "us", epoch_us);

    let engine = Backend::RamrStatic.engine(config.clone()).map_err(|e| fail("engine", &e))?;
    let cold_us = median_us(reps.div_ceil(4), || failed |= engine.submit(&NoOp, &input).is_err());
    values.put("cold_submit_us", "us", cold_us);

    let sched = JobScheduler::<NoOp>::new(Backend::RamrStatic, config.clone())
        .map_err(|e| fail("scheduler", &e))?;
    let client = sched.client("bench");
    let job = Arc::new(NoOp);
    let sched_us = median_us(reps, || {
        failed |= client
            .submit(Arc::clone(&job), Arc::clone(&input))
            .and_then(|ticket| ticket.wait())
            .is_err();
    });
    values.put("sched_dispatch_us", "us", sched_us - epoch_us);

    if failed {
        return Err("a no-op job failed".into());
    }
    Ok(())
}
