//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`fig1_breakdown`, `fig4_synthetic`, ..., `table1_inputs`); this library
//! holds what they share: the mapping from paper applications to simulation
//! jobs at Table I scale, runtime-vs-runtime speedup helpers, and small
//! fixed-width table printing.
//!
//! Every number here comes from the `mrsim` model (see that crate's
//! documentation for why). Real-thread measurements of the runtimes live
//! in the separate `benchmark/` package, the repository's one perf harness.

#![warn(missing_docs)]

use mr_apps::inputs::{InputFlavor, InputSpec, PaperQuantity, Platform, KMEANS_CLUSTERS};
use mr_apps::AppKind;
use mrsim::{simulate, RuntimeKind, SimConfig, SimJob};
use ramr_perfmodel::catalog;
use ramr_topology::MachineModel;

/// The machine model for a Table I platform column.
fn machine_for(platform: Platform) -> MachineModel {
    match platform {
        Platform::Haswell => MachineModel::haswell_server(),
        Platform::XeonPhi => MachineModel::xeon_phi(),
    }
}

/// Distinct intermediate keys per application (bounds reduce/merge).
pub fn unique_keys(app: AppKind, spec: &InputSpec) -> u64 {
    match app {
        AppKind::WordCount => 200_000, // realistic text vocabulary
        AppKind::Histogram => 768,
        AppKind::LinearRegression => 5,
        AppKind::Kmeans => KMEANS_CLUSTERS as u64,
        AppKind::MatrixMultiply | AppKind::Pca => {
            let dim = match spec.paper {
                PaperQuantity::MatrixDim(d) => d as u64,
                _ => 1000,
            };
            if app == AppKind::MatrixMultiply {
                dim * dim
            } else {
                dim * dim / 2
            }
        }
    }
}

/// Simulation elements for one Table I cell: byte/element rows use the
/// paper count directly; matrix rows convert to the number of map tasks the
/// workload profile is calibrated for (MM: row × 32-wide k-block tasks;
/// PCA: one task per emitted covariance pair).
fn sim_elements(app: AppKind, spec: &InputSpec) -> u64 {
    match spec.paper {
        PaperQuantity::Bytes(_) | PaperQuantity::Elements(_) => spec.scaled_elements(1),
        PaperQuantity::MatrixDim(d) => {
            let d = d as u64;
            match app {
                AppKind::MatrixMultiply => d * d / 32,
                _ => d * d / 2,
            }
        }
    }
}

/// Map task size per application (elements per task): matrix apps have
/// coarse per-element work, streaming apps fine-grained elements.
fn sim_task_size(app: AppKind) -> usize {
    match app {
        AppKind::MatrixMultiply => 32,
        AppKind::Pca => 64,
        _ => 4096,
    }
}

/// Builds the simulation job for one application/platform/flavor cell.
pub fn sim_job(app: AppKind, platform: Platform, flavor: InputFlavor, stressed: bool) -> SimJob {
    let spec = InputSpec::table1(app, platform, flavor);
    let profile =
        if stressed { catalog::stressed_profile(app) } else { catalog::default_profile(app) };
    SimJob {
        profile,
        input_elements: sim_elements(app, &spec),
        unique_keys: unique_keys(app, &spec),
    }
}

/// A base simulation config for `runtime` on `platform`, with the
/// app-appropriate task size.
pub fn sim_config(app: AppKind, platform: Platform, runtime: RuntimeKind) -> SimConfig {
    let machine = machine_for(platform);
    let mut cfg = match runtime {
        RuntimeKind::Phoenix => SimConfig::phoenix(machine),
        RuntimeKind::Ramr => SimConfig::ramr(machine),
    };
    cfg.task_size = sim_task_size(app);
    cfg
}

/// RAMR-over-Phoenix++ speedup for one cell (the quantity of Figs 8/9).
pub fn speedup(app: AppKind, platform: Platform, flavor: InputFlavor, stressed: bool) -> f64 {
    let job = sim_job(app, platform, flavor, stressed);
    let phoenix = simulate(&job, &sim_config(app, platform, RuntimeKind::Phoenix));
    let ramr = simulate(&job, &sim_config(app, platform, RuntimeKind::Ramr));
    phoenix.total_ns() / ramr.total_ns()
}

/// Geometric-mean helper for averaging speedups.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints a header row followed by a separator, with fixed 10-char columns.
pub fn print_header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>10}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(11 * cols.len()));
}

/// Prints one row: a label then fixed-width formatted numbers.
pub fn print_row(label: &str, values: &[f64]) {
    let mut row = format!("{label:>10}");
    for v in values {
        row.push_str(&format!(" {v:>10.2}"));
    }
    println!("{row}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_jobs_cover_the_whole_matrix() {
        for app in AppKind::ALL {
            for platform in [Platform::Haswell, Platform::XeonPhi] {
                for flavor in InputFlavor::ALL {
                    let job = sim_job(app, platform, flavor, false);
                    assert!(job.input_elements > 0, "{app} {platform} {flavor}");
                    assert!(job.unique_keys > 0);
                }
            }
        }
    }

    #[test]
    fn speedups_are_finite_and_positive() {
        for app in AppKind::ALL {
            let s = speedup(app, Platform::Haswell, InputFlavor::Large, false);
            assert!(s.is_finite() && s > 0.0, "{app}: {s}");
        }
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn larger_flavors_take_longer() {
        let small = sim_job(AppKind::WordCount, Platform::Haswell, InputFlavor::Small, false);
        let large = sim_job(AppKind::WordCount, Platform::Haswell, InputFlavor::Large, false);
        assert!(large.input_elements > small.input_elements);
    }
}
