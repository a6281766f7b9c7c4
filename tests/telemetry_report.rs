//! End-to-end telemetry: a real run's metrics dump must round-trip through
//! JSON on disk, and both runtimes' telemetry must satisfy the conservation
//! and accounting invariants the CLI and tuning docs rely on.

use mr_core::{Emitter, MapReduceJob, RuntimeConfig};
use ramr::{Backend, Engine};
use ramr_telemetry::report::MetricsReport;
use ramr_telemetry::ThreadRole;

struct Mod13;

impl MapReduceJob for Mod13 {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        for &x in task {
            emit.emit(x % 13, 1);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }

    fn key_space(&self) -> Option<usize> {
        Some(13)
    }

    fn key_index(&self, k: &u64) -> usize {
        *k as usize
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(500)
        .queue_capacity(256)
        .batch_size(32)
        .build()
        .unwrap()
}

/// Builds the report exactly the way the CLI's `--metrics-json` path does.
fn report_from_run(input: &[u64]) -> MetricsReport {
    let engine = Backend::RamrStatic.engine(config()).unwrap();
    let (out, run) = engine.submit(&Mod13, input).unwrap().into_parts();
    run.metrics("mod13", &config(), &out.stats)
}

#[test]
fn metrics_json_round_trips_through_a_file() {
    let input: Vec<u64> = (0..50_000).collect();
    let report = report_from_run(&input);
    let path = std::env::temp_dir().join(format!("ramr-metrics-{}.json", std::process::id()));
    std::fs::write(&path, report.to_json()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let back = MetricsReport::from_json(&text).expect("file round trip");
    assert_eq!(back, report);
    assert_eq!(back.suggested_ratio(), report.suggested_ratio());
}

#[test]
fn real_run_report_satisfies_conservation() {
    let input: Vec<u64> = (0..50_000).collect();
    let report = report_from_run(&input);
    assert_eq!(report.emitted, 50_000);
    assert_eq!(report.consumed, report.emitted, "pipeline must conserve pairs");
    let mapper_items: u64 =
        report.threads.iter().filter(|t| t.role == ThreadRole::Mapper).map(|t| t.items).sum();
    assert_eq!(mapper_items, report.emitted);
    // Telemetry defaults on: both pools accrued busy time, so the
    // throughput criterion is derivable from any run.
    assert!(report.map_throughput().is_some());
    assert!(report.combine_throughput().is_some());
    assert!(report.suggested_ratio().unwrap() >= 1);
}

#[test]
fn both_runtimes_expose_comparable_telemetry() {
    let input: Vec<u64> = (0..20_000).collect();
    let ramr_report =
        Backend::RamrStatic.engine(config()).unwrap().submit(&Mod13, &input).unwrap().report;
    let phx_report =
        Backend::Phoenix.engine(config()).unwrap().submit(&Mod13, &input).unwrap().report;
    let ramr_items: u64 =
        ramr_report.threads.iter().filter(|t| t.role == ThreadRole::Mapper).map(|t| t.items).sum();
    let phx_items: u64 = phx_report.threads.iter().map(|t| t.items).sum();
    assert_eq!(ramr_items, phx_items, "both runtimes emit the same pairs");
    // The baseline's workers never stall (inline combine); the decoupled
    // runtime may — but both account busy time, and Phoenix's inline
    // combine consumes exactly what its workers emitted.
    assert!(phx_report.threads.iter().all(|t| t.stalled.is_zero()));
    assert_eq!(phx_report.consumed, phx_items);
    assert!(phx_report.suggested_ratio.is_none(), "Phoenix has no role split to tune");
}
