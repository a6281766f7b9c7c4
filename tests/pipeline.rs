//! Pipeline suite: multi-stage chains must be nothing more than the serial
//! job sequence — byte-identical output on every backend — with exact
//! stage attribution on failure and a hard stage budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mr_apps::inputs::{km_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, InvertedIndex, KmeansState, TopKDf, WordCount};
use mr_core::{ContainerKind, RuntimeConfig, RuntimeError};
use ramr::{Backend, Engine, Pipeline, StagePlan};
use ramr_faultinject::{FaultKind, FaultPlan, FaultyJob};

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(2)
        .task_size(64)
        .queue_capacity(256)
        .batch_size(32)
        .container(ContainerKind::Hash)
        .build()
        .unwrap()
}

fn docs(n: u64) -> Vec<(u32, String)> {
    let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
    wc_input(&spec, n).into_iter().enumerate().map(|(i, l)| (i as u32, l)).collect()
}

#[test]
fn chained_pipeline_is_byte_identical_to_serial_on_every_backend() {
    // The zero-copy handoff must be invisible: on each backend, the
    // two-stage chain equals running stage one, feeding its pairs to stage
    // two by hand — and all backends agree byte-for-byte (integer-valued
    // jobs with associative deterministic folds).
    let input = docs(2_000);
    let topk = TopKDf { k: 12 };
    let mut reference = None;
    for backend in Backend::ALL {
        let engine = backend.engine(config()).unwrap();
        let chained =
            engine.pipeline(Pipeline::stage(InvertedIndex).then_pairs(topk), &input).unwrap();
        assert_eq!(chained.report.stages.len(), 2, "{backend}");
        assert_eq!(chained.report.stages[0].job, "inverted-index", "{backend}");
        assert_eq!(chained.report.stages[1].job, "top-k-df", "{backend}");
        assert!(chained.report.converged, "{backend}: no iterate loop ran");
        assert!(chained.report.faults_clean(), "{backend}");

        let index = engine.submit(&InvertedIndex, &input).unwrap().output;
        assert_eq!(
            chained.report.stages[1].input_items,
            index.pairs.len(),
            "{backend}: stage 2 must receive exactly stage 1's pairs"
        );
        let serial = engine.submit(&topk, &index.pairs).unwrap().output;
        assert_eq!(chained.output.pairs, serial.pairs, "{backend}: chain != serial");

        match &reference {
            None => reference = Some(chained.output.pairs),
            Some(prev) => {
                assert_eq!(&chained.output.pairs, prev, "{backend} diverges from first backend");
            }
        }
    }
}

#[test]
fn kmeans_iterate_matches_the_manual_serial_loop() {
    // The iterate combinator on one warm session must walk the exact same
    // Lloyd trajectory as a hand-written submit loop: same round count,
    // same cluster populations, centroid sums within float tolerance.
    let spec = InputSpec::table1(AppKind::Kmeans, Platform::Haswell, InputFlavor::Small);
    let points = km_input(&spec, 2_000);
    let cap = 12;

    // Manual serial loop, fresh engine per round (the cold baseline).
    let engine = Backend::RamrStatic.engine(config()).unwrap();
    let mut manual = KmeansState::seeded(&points, 8);
    let mut manual_rounds = 0;
    let manual_out = loop {
        manual_rounds += 1;
        let out = engine.submit(&manual.job(), &points).unwrap().output;
        let movement = manual.step(&out.pairs);
        if movement <= 1e-6 || manual_rounds >= cap {
            break out;
        }
    };

    // The same loop as an iterate pipeline over one pooled session.
    let mut state = KmeansState::seeded(&points, 8);
    let plan = Pipeline::iterate(state.job(), move |job, out| {
        let movement = state.step(&out.pairs);
        *job = state.job();
        movement
    })
    .rounds(cap);
    let outcome = engine.pipeline(plan, &points).unwrap();

    assert_eq!(outcome.report.stages.len(), manual_rounds, "round counts differ");
    assert_eq!(outcome.output.len(), manual_out.len(), "cluster sets differ");
    for ((ka, va), (kb, vb)) in outcome.output.iter().zip(manual_out.iter()) {
        assert_eq!(ka, kb);
        assert_eq!(va.count, vb.count, "cluster {ka} population differs");
        for d in 0..mr_apps::DIM {
            let scale = va.sum[d].abs().max(1.0);
            assert!((va.sum[d] - vb.sum[d]).abs() / scale < 1e-9, "cluster {ka} dim {d}");
        }
    }
    // Rounds are stages: each one is numbered and carries its residual.
    for (i, stage) in outcome.report.stages.iter().enumerate() {
        assert_eq!(stage.round, Some(i + 1));
        assert!(stage.residual.is_some(), "round {} recorded no residual", i + 1);
    }
}

#[test]
fn uncapped_iterate_stops_at_the_rounds_cap_unconverged() {
    let input: Vec<(u32, String)> = docs(4_000);
    let plan =
        Pipeline::iterate(InvertedIndex, |_job, _out| f64::INFINITY /* never converges */)
            .rounds(3);
    let outcome = Backend::RamrStatic.engine(config()).unwrap().pipeline(plan, &input).unwrap();
    assert_eq!(outcome.report.stages.len(), 3);
    assert!(!outcome.report.converged, "cap hit must be reported, not silently dropped");
}

#[test]
fn a_never_converging_iterate_stops_unconverged_after_64_rounds() {
    let input = docs(4_000);
    let plan =
        Pipeline::iterate(InvertedIndex, |_job, _out| f64::INFINITY /* never converges */);
    let outcome = Backend::RamrStatic.engine(config()).unwrap().pipeline(plan, &input).unwrap();
    assert_eq!(outcome.report.stages.len(), 64);
    assert_eq!(outcome.report.stages.last().and_then(|s| s.round), Some(64));
    assert!(!outcome.report.converged, "the default cap is reported like an explicit one");
}

/// Task ordinal of a word-count line (leading `t<index>` token / 16).
#[allow(clippy::ptr_arg)]
fn ordinal_of(line: &String) -> u64 {
    let token = line.split_ascii_whitespace().next().expect("nonempty line");
    token[1..].parse::<u64>().expect("t<index> token") / 16
}

#[test]
fn a_poisoned_second_stage_fails_once_with_stage_attribution() {
    // Stage 1 is healthy; stage 2 carries a permanent poison task with
    // retries off. The pipeline must fail exactly once (stage 2 submits a
    // single time) and the error must name stage 2 and the failing job,
    // wrapping the real worker panic as its source.
    let lines: Vec<String> =
        (0..256).map(|i| format!("t{i} alpha beta w{} v{}", i % 7, i % 13)).collect();
    let poisoned = || {
        FaultyJob::new(
            WordCount,
            FaultPlan::with_faults(vec![FaultKind::PanicOnTask {
                key: 1,
                fail_attempts: u32::MAX,
            }]),
            ordinal_of,
        )
    };
    let mut cfg = config();
    cfg.task_size = 16;
    for backend in Backend::ALL {
        let stage2_runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&stage2_runs);
        let healthy = FaultyJob::new(WordCount, FaultPlan::default(), ordinal_of);
        let plan = Pipeline::stage(healthy).then(poisoned(), move |out| {
            counter.fetch_add(1, Ordering::SeqCst);
            // Rebuild lines from stage 1's words so the poison ordinal of
            // stage 2 is independent of stage 1's counts.
            out.pairs.iter().enumerate().map(|(i, (w, _))| format!("t{i} {}", w.as_str())).collect()
        });
        let err = backend.engine(cfg.clone()).unwrap().pipeline(plan, &lines).unwrap_err();
        assert_eq!(stage2_runs.load(Ordering::SeqCst), 1, "{backend}: stage 2 must run once");
        match err {
            RuntimeError::StageFailed { stage, job, source } => {
                assert_eq!(stage, 2, "{backend}: wrong stage blamed");
                assert_eq!(job, "word-count", "{backend}");
                assert!(
                    matches!(*source, RuntimeError::WorkerPanic(_)),
                    "{backend}: source must be the worker panic, got {source}"
                );
            }
            other => panic!("{backend}: expected StageFailed, got {other}"),
        }
    }
}
