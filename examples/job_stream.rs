//! Job streams: run many jobs on one persistent session instead of
//! opening a fresh one per job.
//!
//! `RamrSession` spawns and pins the mapper/combiner pools once; each
//! `submit` wakes the parked workers, runs one job over the reused SPSC
//! queues, and parks them again. For streams of short jobs this removes
//! the per-job thread-spawn and allocation cost (`cold_submit_us` vs
//! `session_epoch_us` in `ramr-benchmark` is the measured gap). The
//! same stream also runs unchanged on any backend through the unified
//! [`Backend`]/[`Engine`] front door.
//!
//! ```sh
//! cargo run -p ramr --example job_stream
//! ```

use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
use ramr::{Backend, RamrSession};

/// Counts how often each digit appears as the last digit of the inputs.
struct LastDigit;

impl MapReduceJob for LastDigit {
    type Input = u64;
    type Key = u8;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u8, u64>) {
        for &x in task {
            emit.emit((x % 10) as u8, 1);
        }
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(10)
    }

    fn key_index(&self, key: &u8) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "last-digit"
    }
}

fn main() -> Result<(), mr_core::RuntimeError> {
    let config = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(1024)
        .queue_capacity(5000)
        .batch_size(1000)
        .build()?;

    // One session, many jobs: the pools spawn here and park between
    // submits. Each batch below is a separate job with its own output,
    // telemetry and fault records.
    let mut session = RamrSession::<LastDigit>::new(config.clone())?;
    println!("streaming 8 jobs through one persistent session:");
    for batch in 0..8u64 {
        let input: Vec<u64> =
            (batch * 100_000..(batch + 1) * 100_000).map(|i| i * 2654435761 % 1_000_003).collect();
        let output = session.submit(&LastDigit, &input)?;
        let busiest = output.iter().max_by_key(|(_, count)| *count);
        println!(
            "  job {batch}: {} keys, {} pairs emitted, busiest digit {:?}",
            output.len(),
            output.stats.emitted,
            busiest.map(|(digit, count)| (*digit, *count)),
        );
    }
    println!("jobs run on the pooled workers: {}", session.jobs_run());

    // The same submission loop works on every backend: `session()` gives
    // the pooled RAMR executor where the backend supports it, and a
    // spawn-per-job shim otherwise — output is identical either way.
    let input: Vec<u64> = (0..100_000).map(|i| i * 2654435761 % 1_000_003).collect();
    for backend in Backend::ALL {
        let mut session = backend.session::<LastDigit>(config.clone())?;
        let outcome = session.submit(&LastDigit, &input)?;
        println!("{backend}: {} keys from the unified front door", outcome.output.len());
    }
    Ok(())
}
