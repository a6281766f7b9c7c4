//! Quickstart: define a job, submit it through the engine front door,
//! inspect the output and the always-attached report.
//!
//! ```sh
//! cargo run -p ramr --example quickstart
//! ```

use mr_core::{Emitter, MapReduceJob, PhaseKind, RuntimeConfig};
use ramr::{Backend, Engine};

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
        .num_combiners(2) // mapper:combiner ratio 2
        .task_size(1024)
        .queue_capacity(5000) // the paper's tuned capacity
        .batch_size(1000) // the paper's Haswell-optimal batch
        .build()?;

    let input: Vec<u64> = (0..1_000_000).map(|i| i * 2654435761 % 1_000_003).collect();
    let engine = Backend::RamrStatic.engine(config)?;
    let outcome = engine.submit(&LastDigit, &input)?;
    let output = outcome.output;

    println!("digit counts (RAMR decoupled runtime):");
    for (digit, count) in output.iter() {
        println!("  {digit}: {count}");
    }
    let stats = &output.stats;
    println!(
        "\nphases: map-combine {:?} ({:.0}%), reduce {:?}, merge {:?}",
        stats.map_combine,
        100.0 * stats.fraction(PhaseKind::MapCombine),
        stats.reduce,
        stats.merge,
    );
    println!(
        "tasks {} | emitted {} | spilled {}",
        stats.tasks, stats.emitted, outcome.report.spilled
    );
    println!("faults clean: {}", outcome.report.faults.is_clean());
    Ok(())
}
