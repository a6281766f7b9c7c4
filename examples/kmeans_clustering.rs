//! Iterative KMeans as an iterate-until-converged pipeline: one Lloyd
//! iteration per stage, all rounds on one warm worker pool — the paper's
//! best-case workload
//! (compute-heavy map, streaming combine).
//!
//! ```sh
//! cargo run -p ramr --example kmeans_clustering
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mr_apps::inputs::{km_input, InputFlavor, InputSpec, Platform};
use mr_apps::{kmeans::KmeansState, AppKind};
use mr_core::RuntimeConfig;
use ramr::{Backend, Engine, Pipeline};

fn main() -> Result<(), mr_core::RuntimeError> {
    let spec = InputSpec::table1(AppKind::Kmeans, Platform::Haswell, InputFlavor::Small);
    let points = km_input(&spec, 100);
    println!("clustering {} points into 8 clusters", points.len());

    let config = RuntimeConfig::builder()
        .num_workers(4)
        .num_combiners(1) // KM's combine is light: one combiner serves all
        .task_size(512)
        .build()?;
    let engine = Backend::RamrStatic.engine(config)?;

    // The iterate combinator reruns the job until the step closure's
    // residual drops to `pipeline_epsilon` (default 1e-6): each round folds
    // the accumulated clusters back into the centroids and refreshes the
    // job for the next stage. The state lives in an `Rc` so the final
    // centroids remain readable after the pipeline consumes the closure.
    let state = Rc::new(RefCell::new(KmeansState::seeded(&points, 8)));
    let stepper = Rc::clone(&state);
    let plan = Pipeline::iterate(state.borrow().job(), move |job, out| {
        let mut state = stepper.borrow_mut();
        let movement = state.step(&out.pairs);
        *job = state.job();
        movement
    })
    .rounds(30);
    let outcome = engine.pipeline(plan, &points)?;

    for stage in &outcome.report.stages {
        println!(
            "iteration {:>2}: max centroid movement {:.6} ({:.2} ms)",
            stage.round.unwrap_or(stage.stage),
            stage.residual.unwrap_or(f64::NAN),
            stage.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\n{} in {} round(s); final centroids:",
        if outcome.report.converged { "converged" } else { "round cap hit" },
        outcome.report.stages.len(),
    );
    for (i, c) in state.borrow().centroids().iter().enumerate() {
        println!("  c{i}: [{:8.3} {:8.3} {:8.3}]", c[0], c[1], c[2]);
    }
    Ok(())
}
