//! End-to-end runtime benchmarks: every backend behind the unified
//! [`Engine`] front door on real (scaled) workloads, plus pooled-session
//! versus spawn-per-job submission. Absolute numbers depend on this
//! machine's core count; the modeled figures in `src/bin/` carry the
//! paper comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr_apps::inputs::{hg_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, WordCount};
use mr_core::RuntimeConfig;
use ramr::{Backend, Engine};

fn config(app: AppKind) -> RuntimeConfig {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    RuntimeConfig::builder()
        .num_workers(threads.max(2))
        .num_combiners((threads / 2).max(1))
        .task_size(256)
        .queue_capacity(5000)
        .batch_size(1000)
        .container(app.default_container())
        .build()
        .expect("valid bench config")
}

fn bench_word_count(c: &mut Criterion) {
    let spec = InputSpec::table1(AppKind::WordCount, Platform::XeonPhi, InputFlavor::Small);
    let lines = wc_input(&spec, 20_000);
    let mut group = c.benchmark_group("runtimes/word-count");
    group.sample_size(10);
    for backend in Backend::ALL {
        group.bench_with_input(
            BenchmarkId::new(backend.as_str(), lines.len()),
            &lines,
            |b, lines| {
                let engine = backend.engine(config(AppKind::WordCount)).unwrap();
                b.iter(|| engine.submit(&WordCount, lines).unwrap().output.len())
            },
        );
    }
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let spec = InputSpec::table1(AppKind::Histogram, Platform::XeonPhi, InputFlavor::Small);
    let pixels = hg_input(&spec, 2_000);
    let mut group = c.benchmark_group("runtimes/histogram");
    group.sample_size(10);
    for backend in Backend::ALL {
        group.bench_with_input(
            BenchmarkId::new(backend.as_str(), pixels.len()),
            &pixels,
            |b, px| {
                let engine = backend.engine(config(AppKind::Histogram)).unwrap();
                b.iter(|| engine.submit(&Histogram, px).unwrap().output.len())
            },
        );
    }
    group.finish();
}

/// Short-job submission: one held session taking a stream of submits
/// versus a fresh engine — a session opened and dropped — per job. The
/// held session amortizes thread creation and queue allocation; the gap is
/// `cold_submit_us` minus `session_epoch_us` in `ramr-benchmark`'s ledger.
fn bench_job_stream(c: &mut Criterion) {
    // Scale divides the Table I quantity: 20 000 keeps each job around a
    // millisecond, short enough that spawn-per-run overhead is visible.
    let spec = InputSpec::table1(AppKind::WordCount, Platform::XeonPhi, InputFlavor::Small);
    let lines = wc_input(&spec, 20_000);
    let mut group = c.benchmark_group("runtimes/job-stream");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("fresh-per-job", lines.len()), &lines, |b, lines| {
        b.iter(|| {
            Backend::RamrStatic
                .engine(config(AppKind::WordCount))
                .unwrap()
                .submit(&WordCount, lines)
                .unwrap()
                .output
                .len()
        })
    });
    group.bench_with_input(BenchmarkId::new("pooled", lines.len()), &lines, |b, lines| {
        let mut session =
            Backend::RamrStatic.session::<WordCount>(config(AppKind::WordCount)).unwrap();
        b.iter(|| session.submit(&WordCount, lines).unwrap().output.len())
    });
    group.finish();
}

criterion_group!(benches, bench_word_count, bench_histogram, bench_job_stream);
criterion_main!(benches);
