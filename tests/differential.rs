//! Differential tests: every paper application must produce the output of
//! an independent sequential fold on both backends, the Phoenix++-style
//! baseline and the decoupled RAMR runtime. The two share one executor, so
//! neither is the other's oracle.
//!
//! Integer-valued jobs (WC, HG, LR, MM) are compared exactly; float-valued
//! jobs (KM, PCA) within a relative tolerance, since the runtimes fold
//! combine operations in different orders.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use mr_apps::inputs::{
    hg_input, km_input, lr_input, mm_matrices, pca_matrix, wc_input, InputFlavor, InputSpec,
    Platform,
};
use mr_apps::{
    AppKind, Histogram, KmeansState, LinearRegression, MatrixMultiply, PcaCovJob, PcaMeanJob,
    WordCount, WordCountString,
};
use mr_core::{task_ranges_for, Emitter, JobOutput, MapReduceJob, MrKey, RuntimeConfig};
use ramr::{Backend, Engine};

const SCALE: u64 = 20_000;

fn config(app: AppKind) -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(97)
        .queue_capacity(256)
        .batch_size(32)
        .container(app.default_container())
        .build()
        .expect("valid test config")
}

fn spec(app: AppKind) -> InputSpec {
    InputSpec::table1(app, Platform::Haswell, InputFlavor::Small)
}

type BothOutputs<J> = (
    JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>,
    JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>,
);

fn run_both<J: MapReduceJob + 'static>(
    job: &J,
    input: &[J::Input],
    config: RuntimeConfig,
) -> BothOutputs<J> {
    let ramr =
        Backend::RamrStatic.engine(config.clone()).unwrap().submit(job, input).unwrap().output;
    let phoenix = Backend::Phoenix.engine(config).unwrap().submit(job, input).unwrap().output;
    (ramr, phoenix)
}

type Pairs<J> = Vec<(<J as MapReduceJob>::Key, <J as MapReduceJob>::Value)>;

/// The oracle: every task mapped in order into a `BTreeMap`, each emission
/// folded with `combine`, then `reduce` applied once per key.
fn sequential_fold<J: MapReduceJob>(job: &J, input: &[J::Input], task_size: usize) -> Pairs<J> {
    let mut folded = BTreeMap::new();
    for task in task_ranges_for(input.len(), task_size, 1) {
        let mut sink = |key, value| match folded.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(mut slot) => job.combine(slot.get_mut(), value),
        };
        job.map(&input[task.start..task.end], &mut Emitter::new(&mut sink));
    }
    folded
        .into_iter()
        .map(|(key, value)| {
            let value = job.reduce(&key, value);
            (key, value)
        })
        .collect()
}

/// Runs both backends and checks each against the sequential fold exactly;
/// returns RAMR's output for further checks.
fn agree_exactly<J>(
    job: &J,
    input: &[J::Input],
    config: RuntimeConfig,
) -> JobOutput<J::Key, J::Value>
where
    J: MapReduceJob + 'static,
    J::Value: PartialEq + std::fmt::Debug,
{
    let expected = sequential_fold(job, input, config.task_size);
    let (ramr, phoenix) = run_both(job, input, config);
    assert_eq!(ramr.pairs, expected, "ramr-static vs the sequential fold");
    assert_eq!(phoenix.pairs, expected, "phoenix vs the sequential fold");
    ramr
}

fn assert_float_close<K: MrKey>(a: &[(K, f64)], b: &[(K, f64)]) {
    assert_eq!(a.len(), b.len(), "key sets differ");
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        assert_eq!(ka, kb);
        let scale = va.abs().max(vb.abs()).max(1.0);
        assert!((va - vb).abs() / scale < 1e-9, "{ka:?}: {va} vs {vb}");
    }
}

#[test]
fn word_count_agrees() {
    let input = wc_input(&spec(AppKind::WordCount), SCALE);
    let ramr = agree_exactly(&WordCount, &input, config(AppKind::WordCount));
    assert!(!ramr.is_empty());
}

#[test]
fn histogram_agrees_and_conserves_pixels() {
    let input = hg_input(&spec(AppKind::Histogram), SCALE);
    let ramr = agree_exactly(&Histogram, &input, config(AppKind::Histogram));
    // Conservation: each channel's bins sum to the pixel count.
    let red: u64 = ramr.iter().filter(|(k, _)| *k < 256).map(|(_, v)| v).sum();
    assert_eq!(red, input.len() as u64);
}

#[test]
fn linear_regression_agrees_exactly() {
    let input = lr_input(&spec(AppKind::LinearRegression), SCALE);
    let ramr = agree_exactly(&LinearRegression, &input, config(AppKind::LinearRegression));
    assert_eq!(ramr.len(), 5, "exactly the five LR statistics");
}

#[test]
fn kmeans_iteration_agrees_within_tolerance() {
    let input = km_input(&spec(AppKind::Kmeans), SCALE);
    let state = KmeansState::seeded(&input, 8);
    let job = state.job();
    let cfg = config(AppKind::Kmeans);
    let expected = sequential_fold(&job, &input, cfg.task_size);
    let (ramr, phoenix) = run_both(&job, &input, cfg);
    for output in [ramr, phoenix] {
        assert_eq!(output.len(), expected.len());
        for ((ka, va), (kb, vb)) in output.iter().zip(&expected) {
            assert_eq!(ka, kb);
            assert_eq!(va.count, vb.count, "cluster {ka} population differs");
            for d in 0..mr_apps::DIM {
                let scale = va.sum[d].abs().max(1.0);
                assert!((va.sum[d] - vb.sum[d]).abs() / scale < 1e-9);
            }
        }
    }
}

#[test]
fn matrix_multiply_agrees_and_matches_reference() {
    let (a, b) = mm_matrices(&spec(AppKind::MatrixMultiply), 2_000_000);
    let (a, b) = (Arc::new(a), Arc::new(b));
    let job = MatrixMultiply::new(Arc::clone(&a), Arc::clone(&b), 8);
    let tasks = job.tasks();
    let ramr = agree_exactly(&job, &tasks, config(AppKind::MatrixMultiply));
    // Cross-check against the sequential reference product.
    let reference = a.multiply_reference(&b);
    let n = job.n();
    for (key, value) in ramr.iter() {
        let (i, j) = ((*key as usize) / n, (*key as usize) % n);
        assert_eq!(*value, reference.at(i, j), "C[{i}][{j}]");
    }
}

#[test]
fn pca_two_stage_agrees_within_tolerance() {
    let matrix = Arc::new(pca_matrix(&spec(AppKind::Pca), 200_000));
    let mean_job = PcaMeanJob::new(Arc::clone(&matrix));
    let tasks = mean_job.tasks();
    // The means are exact integer sums.
    let ramr_means = agree_exactly(&mean_job, &tasks, config(AppKind::Pca));

    let means = Arc::new(mean_job.means(&ramr_means.pairs));
    let cov_job = PcaCovJob::new(Arc::clone(&matrix), means);
    let tasks = cov_job.tasks();
    let cfg = config(AppKind::Pca);
    let expected = sequential_fold(&cov_job, &tasks, cfg.task_size);
    let (ramr_cov, phoenix_cov) = run_both(&cov_job, &tasks, cfg);
    assert_float_close(&ramr_cov.pairs, &expected);
    assert_float_close(&phoenix_cov.pairs, &expected);
    // Diagonal entries are variances: non-negative.
    let n = matrix.n();
    for (key, value) in ramr_cov.iter() {
        let (i, j) = cov_job.unflatten(*key);
        if i == j {
            assert!(*value >= -1e-9, "variance of row {i} must be non-negative");
        }
        assert!(j >= i, "only the upper triangle is emitted");
        let _ = n;
    }
}

#[test]
fn emit_buffer_sweep_agrees_with_baseline_and_element_wise() {
    // Emission batching must be invisible in the output: the emit block is
    // the batch, and every size — element-wise (1), tiny (2), the default,
    // and a whole queue's worth — matches the sequential fold on both
    // backends, and the element-wise RAMR run.
    let input = wc_input(&spec(AppKind::WordCount), SCALE);
    let base = config(AppKind::WordCount);
    let mut element_wise_cfg = base.clone();
    element_wise_cfg.batch_size = 1;
    let element_wise = Backend::RamrStatic
        .engine(element_wise_cfg)
        .unwrap()
        .submit(&WordCount, &input)
        .unwrap()
        .output;
    for batch in [1, 2, base.batch_size, base.queue_capacity] {
        let mut cfg = base.clone();
        cfg.batch_size = batch;
        let ramr = agree_exactly(&WordCount, &input, cfg);
        assert_eq!(ramr.pairs, element_wise.pairs, "batch_size={batch} vs element-wise");
    }
}

#[test]
fn pooled_sessions_match_fresh_runs_on_every_backend() {
    // The acceptance bar for persistent sessions: a stream of submits
    // through one pooled session produces results identical to fresh
    // per-job engines — same output pairs, same conservation counts, same
    // (clean) fault metrics — for every backend, on every job of the
    // stream. Raw telemetry timings are scheduler-dependent and excluded.
    let input = wc_input(&spec(AppKind::WordCount), SCALE);
    for backend in Backend::ALL {
        let cfg = config(AppKind::WordCount);
        let mut session = backend.session::<WordCount>(cfg.clone()).unwrap();
        for round in 0..4 {
            let fresh_engine = backend.engine(cfg.clone()).unwrap();
            let (fresh, fresh_report) =
                fresh_engine.submit(&WordCount, &input).unwrap().into_parts();
            let (pooled, pooled_report) = session.submit(&WordCount, &input).unwrap().into_parts();
            assert_eq!(pooled.pairs, fresh.pairs, "{backend} round {round}: output differs");
            assert_eq!(
                pooled.stats.emitted, fresh.stats.emitted,
                "{backend} round {round}: emission counts differ"
            );
            assert_eq!(
                pooled_report.consumed, fresh_report.consumed,
                "{backend} round {round}: consumption differs"
            );
            assert_eq!(
                pooled_report.faults, fresh_report.faults,
                "{backend} round {round}: fault metrics differ"
            );
            assert_eq!(pooled_report.backend, backend);
        }
    }
}

#[test]
fn pooled_sessions_match_fresh_runs_under_faults() {
    // Same identity under active fault tolerance: a poison task is skipped,
    // and the recorded fault metrics (retries, skipped task identity) are
    // identical between the pooled session and a fresh engine, backend by
    // backend — the "including reports/faults" half of the acceptance bar.
    use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};
    let task = 32usize;
    let input: Vec<String> =
        (0..400).map(|i| format!("t{i} alpha beta w{} v{}", i % 7, i % 13)).collect();
    #[allow(clippy::ptr_arg)]
    fn ordinal_of(line: &String) -> u64 {
        let token = line.split_ascii_whitespace().next().expect("nonempty line");
        token[1..].parse::<u64>().expect("t<index> token") / 32
    }
    let cfg = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(task)
        .queue_capacity(256)
        .batch_size(16)
        .container(mr_core::ContainerKind::Hash)
        .max_task_retries(1)
        .skip_poison_tasks(true)
        .build()
        .unwrap();
    let plan =
        || FaultPlan::with_faults(vec![FaultKind::PanicOnTask { key: 3, fail_attempts: u32::MAX }]);
    for backend in Backend::ALL {
        let mut session = backend.session::<FaultyJob<mr_apps::WordCount>>(cfg.clone()).unwrap();
        for round in 0..2 {
            let fresh_job = FaultyJob::new(mr_apps::WordCount, plan(), ordinal_of);
            let (fresh, fresh_report) = backend
                .engine(cfg.clone())
                .unwrap()
                .submit(&fresh_job, &input)
                .unwrap()
                .into_parts();
            let pooled_job = FaultyJob::new(mr_apps::WordCount, plan(), ordinal_of);
            let (pooled, pooled_report) = session.submit(&pooled_job, &input).unwrap().into_parts();
            assert_eq!(pooled.pairs, fresh.pairs, "{backend} round {round}");
            assert_eq!(
                pooled_report.faults, fresh_report.faults,
                "{backend} round {round}: fault records differ"
            );
            assert_eq!(pooled_report.faults.skipped.len(), 1, "{backend} round {round}");
        }
    }
}

#[test]
fn hashers_and_backends_all_produce_identical_output() {
    // The RAMR_HASHER knob must be invisible in the output: the final pairs
    // are key-sorted with one pair per key, so which hasher bucketed them
    // (and on which backend) cannot show. Pin byte-identical output across
    // the full hasher x backend matrix against one reference run. The seed
    // `String` key path (`WordCountString`) must agree with the `CompactKey`
    // path in every cell too: same words, same counts, same order.
    let input = wc_input(&spec(AppKind::WordCount), SCALE);
    let reference = Backend::RamrStatic
        .engine(config(AppKind::WordCount))
        .unwrap()
        .submit(&WordCount, &input)
        .unwrap()
        .output;
    assert!(!reference.is_empty());
    let reference_strings: Vec<(String, u64)> =
        reference.pairs.iter().map(|(k, v)| (k.as_str().to_owned(), *v)).collect();
    for hasher in mr_core::HasherKind::ALL {
        for backend in Backend::ALL {
            let mut cfg = config(AppKind::WordCount);
            cfg.hasher = hasher;
            let engine = backend.engine(cfg).unwrap();
            let out = engine.submit(&WordCount, &input).unwrap().output;
            assert_eq!(
                out.pairs, reference.pairs,
                "{backend} with {hasher} diverges from the reference output"
            );
            let seed = engine.submit(&WordCountString, &input).unwrap().output;
            assert_eq!(
                seed.pairs, reference_strings,
                "{backend} with {hasher}: the String key path diverges from the CompactKey path"
            );
        }
    }
}

#[test]
fn stressed_containers_agree_too() {
    // Figs 8b/9b configuration: fixed-size hash / hash containers.
    let input = hg_input(&spec(AppKind::Histogram), SCALE);
    let mut cfg = config(AppKind::Histogram);
    cfg.container = AppKind::Histogram.stressed_container();
    cfg.fixed_capacity = Some(768);
    agree_exactly(&Histogram, &input, cfg);
}
