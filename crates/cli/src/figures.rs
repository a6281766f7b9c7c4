//! `ramr figures [NAME...]`: the paper's evaluation — Table I and Figs
//! 1–10, plus the ablation sweeps — printed from the `mrsim` model.
//!
//! Every number comes from the model (see that crate's documentation for
//! why), priced from one definition of a Table I cell as a model job
//! ([`sim_job`], [`sim_config`]); `ramr simulate` prices the same cell, so
//! it prints what the figures print. Real-thread measurements of the
//! runtimes live in the separate `benchmark/` package.

use mr_apps::inputs::{
    InputFlavor, InputSpec, PaperQuantity, Platform, DEFAULT_SCALE, KMEANS_CLUSTERS,
};
use mr_apps::AppKind;
use mr_synth::SynthSpec;
use mrsim::{auto_split, simulate, RuntimeKind, SimConfig, SimJob};
use ramr_perfmodel::{catalog, characterize};
use ramr_topology::{
    physical_position_of, thrid_to_cpu, CommDistance, MachineModel, PinningPolicyKind,
    PlacementPlan,
};

/// Every figure by name, in the order a bare `ramr figures` prints them.
const FIGURES: [(&str, fn()); 11] = [
    ("table1_inputs", table1_inputs),
    ("fig1_breakdown", fig1_breakdown),
    ("fig3_pinning_map", fig3_pinning_map),
    ("fig4_synthetic", fig4_synthetic),
    ("fig5_pinning", fig5_pinning),
    ("fig6_batched", fig6_batched),
    ("fig7_batch_size", fig7_batch_size),
    ("fig8_haswell", fig8_haswell),
    ("fig9_phi", fig9_phi),
    ("fig10_suitability", fig10_suitability),
    ("ablations", ablations),
];

/// Prints the named figures in the order given, or every figure under an
/// `[i/11] name` banner when `names` is empty.
///
/// # Errors
///
/// An unknown name, listing the known ones; nothing is printed then.
pub(crate) fn run(names: &[String]) -> Result<(), String> {
    if names.is_empty() {
        for (i, (name, figure)) in FIGURES.iter().enumerate() {
            println!("\n{:=^78}", format!(" [{}/{}] {name} ", i + 1, FIGURES.len()));
            figure();
        }
        return Ok(());
    }
    let known = || FIGURES.map(|(name, _)| name).join(", ");
    let figures = names
        .iter()
        .map(|wanted| {
            let found = FIGURES.iter().find(|(name, _)| name == wanted);
            found
                .map(|&(_, figure)| figure)
                .ok_or_else(|| format!("unknown figure {wanted:?}; the figures are: {}", known()))
        })
        .collect::<Result<Vec<fn()>, String>>()?;
    for figure in figures {
        figure();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// One Table I cell as a model job.
// ---------------------------------------------------------------------------

/// The machine model for a Table I platform column.
fn machine_for(platform: Platform) -> MachineModel {
    match platform {
        Platform::Haswell => MachineModel::haswell_server(),
        Platform::XeonPhi => MachineModel::xeon_phi(),
    }
}

/// Distinct intermediate keys per application (bounds reduce/merge).
fn unique_keys(app: AppKind, spec: &InputSpec) -> u64 {
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

/// The simulation job for one application/platform/flavor cell.
pub(crate) fn sim_job(
    app: AppKind,
    platform: Platform,
    flavor: InputFlavor,
    stressed: bool,
) -> SimJob {
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
pub(crate) fn sim_config(app: AppKind, platform: Platform, runtime: RuntimeKind) -> SimConfig {
    let machine = machine_for(platform);
    let mut cfg = match runtime {
        RuntimeKind::Phoenix => SimConfig::phoenix(machine),
        RuntimeKind::Ramr => SimConfig::ramr(machine),
    };
    cfg.task_size = sim_task_size(app);
    cfg
}

/// RAMR-over-Phoenix++ speedup for one cell (the quantity of Figs 8/9).
fn speedup(app: AppKind, platform: Platform, flavor: InputFlavor, stressed: bool) -> f64 {
    let job = sim_job(app, platform, flavor, stressed);
    let phoenix = simulate(&job, &sim_config(app, platform, RuntimeKind::Phoenix));
    let ramr = simulate(&job, &sim_config(app, platform, RuntimeKind::Ramr));
    phoenix.total_ns() / ramr.total_ns()
}

/// Geometric mean, for averaging speedups.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints a header row followed by a separator, with fixed 10-char columns.
fn print_header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>10}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(11 * cols.len()));
}

/// Prints one row: a label then fixed-width formatted numbers.
fn print_row(label: &str, values: &[f64]) {
    let mut row = format!("{label:>10}");
    for v in values {
        row.push_str(&format!(" {v:>10.2}"));
    }
    println!("{row}");
}

// ---------------------------------------------------------------------------
// The figures.
// ---------------------------------------------------------------------------

/// Table I: the paper's input quantities per application/platform/flavor,
/// and the element counts the deterministic generators produce at the
/// default scale divisor.
fn table1_inputs() {
    fn paper_cell(q: PaperQuantity) -> String {
        match q {
            PaperQuantity::Bytes(b) if b >= 1_000_000_000 => format!("{:.1}GB", b as f64 / 1e9),
            PaperQuantity::Bytes(b) => format!("{}MB", b / 1_000_000),
            PaperQuantity::Elements(e) if e >= 1_000_000 => format!("{}M", e / 1_000_000),
            PaperQuantity::Elements(e) => format!("{}K", e / 1_000),
            PaperQuantity::MatrixDim(d) => format!("{d}x{d}"),
        }
    }
    println!("TABLE I: input sizes (paper quantity | generated elements at scale {DEFAULT_SCALE})");
    println!(
        "{:>4} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
        "", "Small HWL", "Small PHI", "Medium HWL", "Medium PHI", "Large HWL", "Large PHI"
    );
    println!("{}", "-".repeat(88));
    for app in AppKind::ALL {
        let mut cells = Vec::new();
        for flavor in InputFlavor::ALL {
            for platform in [Platform::Haswell, Platform::XeonPhi] {
                let spec = InputSpec::table1(app, platform, flavor);
                cells.push(format!(
                    "{}({})",
                    paper_cell(spec.paper),
                    spec.scaled_elements(DEFAULT_SCALE)
                ));
            }
        }
        println!(
            "{:>4} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
            app.abbrev(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5]
        );
    }
    println!();
    println!("Generators are deterministic (seeded); scale divides counts, dims by cbrt.");
}

/// Fig 1: run-time breakdown of the Phoenix++ suite — the map-combine phase
/// dominates execution (paper: 82.4% on average).
fn fig1_breakdown() {
    println!("FIG 1: phase breakdown of the baseline runtime (Haswell, large inputs)");
    println!("Paper: map-combine dominates with 82.4% on average.\n");
    print_header(&["app", "map-comb%", "reduce%", "merge%", "partition%"]);
    let mut mc_sum = 0.0;
    for app in AppKind::ALL {
        let job = sim_job(app, Platform::Haswell, InputFlavor::Large, false);
        let r = simulate(&job, &sim_config(app, Platform::Haswell, RuntimeKind::Phoenix));
        let total = r.total_ns();
        let mc = 100.0 * r.map_combine_ns / total;
        mc_sum += mc;
        print_row(
            app.abbrev(),
            &[
                mc,
                100.0 * r.reduce_ns / total,
                100.0 * r.merge_ns / total,
                100.0 * r.partition_ns / total,
            ],
        );
    }
    println!("\naverage map-combine share: {:.1}% (paper: 82.4%)", mc_sum / 6.0);
}

/// Fig 3: the communication-aware `thrid_to_cpu` remapping, on the paper's
/// worked example (2 NUMA nodes x 4 cores x 2-way hyper-threading).
fn fig3_pinning_map() {
    let m = MachineModel::fig3_demo();
    println!("FIG 3: thrid_to_cpu remapping on {m}");
    let seq = thrid_to_cpu(m.sockets, m.cores_per_socket, m.smt);
    println!("\nthread id -> cpu id (physical position):");
    for (thread, &cpu) in seq.iter().enumerate() {
        let p = physical_position_of(cpu, m.sockets, m.cores_per_socket, m.smt);
        println!(
            "  thr {thread:2} -> cpu {cpu:2}  (socket {}, core {}, smt {})",
            p.socket, p.core, p.thread
        );
    }

    println!("\nRatio-1 placement (8 mappers, 8 combiners):");
    let plan = PlacementPlan::compute(&m, 8, 8, PinningPolicyKind::Ramr).expect("valid pools");
    for mapper in 0..8 {
        let d = plan.mapper_combiner_distance(mapper);
        println!(
            "  mapper {mapper} {:?} <-> combiner {} {:?}: {d}",
            plan.mapper_slot(mapper),
            plan.combiner_of_mapper(mapper),
            plan.combiner_slot(plan.combiner_of_mapper(mapper)),
        );
        assert_eq!(d, CommDistance::SharedCore);
    }
    println!("\nEvery pair communicates through a shared physical core's L1/L2, as in the paper.");
}

/// The Fig 4 synthetic job: a CPU-intensive map at fixed intensity and a
/// memory-intensive combine of `combine_intensity` iterations.
fn fig4_job(combine_intensity: u32) -> SimJob {
    SimJob {
        profile: SynthSpec::fig4(combine_intensity).profile(),
        input_elements: 20_000_000,
        unique_keys: mr_synth::SYNTH_KEY_SPACE as u64,
    }
}

/// RAMR's modeled time for `job` on Haswell with `ratio` mappers per
/// combiner.
fn ramr_at_ratio(job: &SimJob, ratio: usize) -> f64 {
    let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
    let total = cfg.total_threads;
    let combiners = (total / (ratio + 1)).max(1);
    cfg.combiners = combiners;
    cfg.mappers = total - combiners;
    simulate(job, &cfg).total_ns()
}

/// Fig 4: combine workload impact on the optimal mapper/combiner ratio.
/// The paper observes the best ratio moving 3 -> 2 -> 1 as the combine
/// grows heavier, with RAMR below Phoenix++ throughout.
fn fig4_synthetic() {
    println!("FIG 4: synthetic suite — CPU map (fixed), memory combine (swept), Haswell");
    println!("Columns: RAMR at mapper:combiner ratio 3, 2, 1; Phoenix++. Times in ms.\n");
    print_header(&["comb-iters", "ratio=3", "ratio=2", "ratio=1", "phoenix++", "best"]);
    for intensity in [1u32, 2, 5, 10, 20, 50, 100, 200, 400] {
        let j = fig4_job(intensity);
        let r3 = ramr_at_ratio(&j, 3) / 1e6;
        let r2 = ramr_at_ratio(&j, 2) / 1e6;
        let r1 = ramr_at_ratio(&j, 1) / 1e6;
        let phoenix =
            simulate(&j, &SimConfig::phoenix(MachineModel::haswell_server())).total_ns() / 1e6;
        let best = if r3 <= r2 && r3 <= r1 {
            3
        } else if r2 <= r1 {
            2
        } else {
            1
        };
        println!(
            "{:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            intensity, r3, r2, r1, phoenix, best
        );
    }
    println!("\nPaper: light combine -> ratio 3 best; moderate -> 2; heavy -> 1;");
    println!("RAMR outperforms Phoenix++ on this CPU-map/memory-combine synthetic.");
}

/// Fig 5: the contention-aware pinning policy versus round-robin and the
/// OS scheduler (paper: avg 2.28x over RR, 2.04x over Linux on Haswell;
/// only 1-3% gains on the Xeon Phi's ring).
fn fig5_pinning() {
    fn gains(platform: Platform) -> (Vec<f64>, Vec<f64>) {
        let mut vs_rr = Vec::new();
        let mut vs_os = Vec::new();
        print_header(&["app", "vs RR", "vs OS"]);
        for app in AppKind::ALL {
            let job = sim_job(app, platform, InputFlavor::Large, false);
            let mut cfg = sim_config(app, platform, RuntimeKind::Ramr);
            // Hold the tuned split fixed across policies, as the paper does.
            let (m, c) = auto_split(&job, &cfg);
            cfg.mappers = m;
            cfg.combiners = c;
            cfg.pinning = PinningPolicyKind::Ramr;
            let ramr = simulate(&job, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::RoundRobin;
            let rr = simulate(&job, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::OsDefault;
            let os = simulate(&job, &cfg).total_ns();
            vs_rr.push(rr / ramr);
            vs_os.push(os / ramr);
            print_row(app.abbrev(), &[rr / ramr, os / ramr]);
        }
        (vs_rr, vs_os)
    }

    println!("FIG 5: RAMR pinning policy speedups, Haswell (large inputs)");
    println!("Paper: avg 2.28x vs RR, 2.04x vs Linux; HG and LR exceptionally faster.\n");
    let (rr, os) = gains(Platform::Haswell);
    println!(
        "\nHaswell average: {:.2}x vs RR (paper 2.28x), {:.2}x vs OS (paper 2.04x)",
        geomean(&rr),
        geomean(&os)
    );

    println!("\nXeon Phi (paper: gains limited to 1-3% on the ring interconnect):\n");
    let (rr, os) = gains(Platform::XeonPhi);
    println!(
        "\nPhi average: {:.2}x vs RR, {:.2}x vs OS — small, as the paper reports",
        geomean(&rr),
        geomean(&os)
    );
}

/// Fig 6: speedup of the batched consume method over element-wise
/// consumption (paper: up to 3.1x on Haswell, up to 11.4x on the Xeon Phi).
fn fig6_batched() {
    println!("FIG 6: batched-consume speedup (batch 1000 vs element-wise), large inputs");
    println!("Paper: up to 3.1x on Haswell (HWL), up to 11.4x on Xeon Phi (PHI).\n");
    print_header(&["app", "HWL", "PHI"]);
    let mut max_hwl: f64 = 0.0;
    let mut max_phi: f64 = 0.0;
    for app in AppKind::ALL {
        let mut row = Vec::new();
        for platform in [Platform::Haswell, Platform::XeonPhi] {
            let job = sim_job(app, platform, InputFlavor::Large, false);
            let mut cfg = sim_config(app, platform, RuntimeKind::Ramr);
            cfg.batch_size = 1;
            let unbatched = simulate(&job, &cfg).total_ns();
            cfg.batch_size = 1000;
            let batched = simulate(&job, &cfg).total_ns();
            row.push(unbatched / batched);
        }
        max_hwl = max_hwl.max(row[0]);
        max_phi = max_phi.max(row[1]);
        print_row(app.abbrev(), &row);
    }
    println!("\nmax speedups: HWL {max_hwl:.1}x (paper 3.1x), PHI {max_phi:.1}x (paper 11.4x)");
}

/// Fig 7: batch-size sensitivity. Execution time normalized to the first
/// data point of each curve (paper: Haswell profits up to ~1000 elements,
/// the Phi prefers 20-500 due to its smaller per-thread cache).
fn fig7_batch_size() {
    const BATCHES: [usize; 8] = [1, 5, 20, 100, 500, 1000, 2000, 5000];
    for platform in [Platform::Haswell, Platform::XeonPhi] {
        println!("FIG 7 ({platform}): normalized run time vs batch size");
        let cols: Vec<String> = BATCHES.iter().map(|b| b.to_string()).collect();
        let col_refs: Vec<&str> =
            std::iter::once("app").chain(cols.iter().map(String::as_str)).collect();
        print_header(&col_refs);
        for app in AppKind::ALL {
            let job = sim_job(app, platform, InputFlavor::Large, false);
            let mut times = Vec::new();
            for &batch in &BATCHES {
                let mut cfg = sim_config(app, platform, RuntimeKind::Ramr);
                cfg.batch_size = batch;
                times.push(simulate(&job, &cfg).total_ns());
            }
            let first = times[0];
            let normalized: Vec<f64> = times.iter().map(|t| t / first).collect();
            print_row(app.abbrev(), &normalized);
        }
        println!();
    }
    println!("Paper: all Haswell curves profit from ~1000-element batches; the Phi's");
    println!("optima sit at 20-500 elements (much smaller cache capacity per thread).");
}

/// One Fig 8/9 panel: RAMR's speedup over Phoenix++ per app and flavor on
/// `platform`, with the per-app and suite geometric means.
fn speedup_table(platform: Platform, stressed: bool) {
    print_header(&["app", "small", "medium", "large", "mean"]);
    let mut all = Vec::new();
    for app in AppKind::ALL {
        let per_flavor: Vec<f64> =
            InputFlavor::ALL.iter().map(|&f| speedup(app, platform, f, stressed)).collect();
        let mean = geomean(&per_flavor);
        all.push(mean);
        let mut row = per_flavor;
        row.push(mean);
        print_row(app.abbrev(), &row);
    }
    println!("{:>10} {:>43} {:>10.2}", "suite", "", geomean(&all));
}

/// Figs 8a/8b: RAMR execution-time speedup over Phoenix++ on the Haswell
/// server, for the three Table I input flavors, with default containers
/// (8a) and with the stressed hash containers (8b).
fn fig8_haswell() {
    println!("FIG 8a: RAMR speedup over Phoenix++ — Haswell, default containers");
    println!("Paper: KM 1.95x, MM 1.77x, PCA ~1x, WC 0.82x, HG ~1/3x, LR ~1/3.8x\n");
    speedup_table(Platform::Haswell, false);

    println!("\nFIG 8b: Haswell, stressed containers (fixed-size hash for HG/KM/LR/WC,");
    println!("regular hash for MM/PCA). Paper: 5/6 faster, avg 1.57x, MM max 2.46x.\n");
    speedup_table(Platform::Haswell, true);
}

/// Figs 9a/9b: RAMR speedup over Phoenix++ on the Xeon Phi co-processor.
fn fig9_phi() {
    println!("FIG 9a: RAMR speedup over Phoenix++ — Xeon Phi, default containers");
    println!("Paper: WC 1.59x, KM 2.8x, MM 1.52x, PCA ~1x, HG 1/2.84x, LR 1/2.87x\n");
    speedup_table(Platform::XeonPhi, false);

    println!("\nFIG 9b: Xeon Phi, stressed containers.");
    println!("Paper: 5/6 faster, max 5.34x, average 2.6x.\n");
    speedup_table(Platform::XeonPhi, true);
}

/// Figs 10a/10b: the IPB / MSPI / RSPI suitability metrics per application
/// (map/combine phase only), with default and stressed containers.
fn fig10_suitability() {
    fn table(stressed: bool) {
        let machine = MachineModel::haswell_server();
        print_header(&["app", "IPB", "MSPI", "RSPI"]);
        for app in AppKind::ALL {
            let profile = if stressed {
                catalog::stressed_profile(app)
            } else {
                catalog::default_profile(app)
            };
            let m = characterize(&profile, &machine);
            println!("{:>10} {:>10.2} {:>10.4} {:>10.4}", app.abbrev(), m.ipb, m.mspi, m.rspi);
        }
    }

    println!("FIG 10a: suitability metrics, default containers (Haswell model)");
    println!("Paper: HG/LR light + few stalls (unsuitable); KM/MM complex + frequent");
    println!("stalls (suitable); PCA high IPB but rare stalls; WC inconclusive.\n");
    table(false);

    println!("\nFIG 10b: stressed containers.");
    println!("Paper: metrics rise for HG/LR; WC unchanged (already hashed); MM and KM");
    println!("stalls drop slightly (right-sized containers); PCA still rarely stalls.\n");
    table(true);
}

/// The design choices the paper fixes by tuning: queue capacity (paper:
/// 5000 within 2% of optimal), sleep-vs-busy-wait on a failed push (paper:
/// sleeping improves run time), and task size (paper: large tasks balance
/// poorly, small tasks pay library overhead).
fn ablations() {
    let platform = Platform::Haswell;

    println!("ABLATION 1: queue capacity sweep (WC, large). Paper: 5000 within 2% of best.\n");
    print_header(&["capacity", "time(ms)", "vs-best"]);
    let job = sim_job(AppKind::WordCount, platform, InputFlavor::Large, false);
    let caps = [100usize, 500, 1000, 2000, 5000, 10_000, 50_000];
    let times: Vec<f64> = caps
        .iter()
        .map(|&cap| {
            let mut cfg = sim_config(AppKind::WordCount, platform, RuntimeKind::Ramr);
            cfg.queue_capacity = cap;
            cfg.batch_size = cfg.batch_size.min(cap);
            simulate(&job, &cfg).total_ns()
        })
        .collect();
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    for (cap, t) in caps.iter().zip(&times) {
        println!("{:>10} {:>10.1} {:>10.3}", cap, t / 1e6, t / best);
    }

    println!("\nABLATION 2: sleep vs busy-wait on failed push (combiner-bottlenecked WC).\n");
    let mut cfg = sim_config(AppKind::WordCount, platform, RuntimeKind::Ramr);
    let (m, c) = auto_split(&job, &cfg);
    // Deliberately undersize the combiner pool to provoke full queues.
    cfg.mappers = m + c - (c / 4).max(1);
    cfg.combiners = (c / 4).max(1);
    cfg.busy_wait_push = false;
    let sleeping = simulate(&job, &cfg).total_ns();
    cfg.busy_wait_push = true;
    let spinning = simulate(&job, &cfg).total_ns();
    println!("  sleep-on-failed-push: {:.1} ms", sleeping / 1e6);
    println!(
        "  busy-wait:            {:.1} ms ({:.2}x worse)",
        spinning / 1e6,
        spinning / sleeping
    );

    println!("\nABLATION 3: task size sweep (KM, large). U-shaped: overhead vs balance.\n");
    print_header(&["task-size", "time(ms)", "vs-best"]);
    let job = sim_job(AppKind::Kmeans, platform, InputFlavor::Large, false);
    let sizes = [64usize, 256, 1024, 4096, 16_384, 131_072, 1_048_576];
    let times: Vec<f64> = sizes
        .iter()
        .map(|&ts| {
            let mut cfg = sim_config(AppKind::Kmeans, platform, RuntimeKind::Ramr);
            cfg.task_size = ts;
            simulate(&job, &cfg).total_ns()
        })
        .collect();
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    for (ts, t) in sizes.iter().zip(&times) {
        println!("{:>10} {:>10.1} {:>10.3}", ts, t / 1e6, t / best);
    }
}

/// Shape assertions over the cells the figures print: the relations the
/// paper's narrative claims within and between whole figures.
#[cfg(test)]
mod tests {
    use super::*;

    fn suite_mean(platform: Platform, stressed: bool) -> f64 {
        let speedups: Vec<f64> = AppKind::ALL
            .iter()
            .map(|&app| speedup(app, platform, InputFlavor::Large, stressed))
            .collect();
        geomean(&speedups)
    }

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

    #[test]
    fn stressed_containers_raise_the_suite_average_on_both_machines() {
        // Fig 8a -> 8b and Fig 9a -> 9b: hash containers move the suite in
        // RAMR's favour (paper: Haswell avg reaches 1.57x, Phi 2.6x).
        for platform in [Platform::Haswell, Platform::XeonPhi] {
            let default = suite_mean(platform, false);
            let stressed = suite_mean(platform, true);
            assert!(
                stressed > default,
                "{platform}: stressed {stressed:.2} must exceed default {default:.2}"
            );
        }
    }

    #[test]
    fn phi_stressed_average_exceeds_haswell_stressed_average() {
        // Paper: 2.6x (Phi) vs 1.57x (Haswell).
        let hwl = suite_mean(Platform::Haswell, true);
        let phi = suite_mean(Platform::XeonPhi, true);
        assert!(phi > hwl, "phi {phi:.2} vs hwl {hwl:.2}");
    }

    #[test]
    fn speedups_are_stable_across_input_flavors() {
        // Figs 8/9 plot three bars per app that sit close together: the
        // runtimes' relative standing is input-size insensitive at these
        // scales.
        for app in AppKind::ALL {
            let values: Vec<f64> = InputFlavor::ALL
                .iter()
                .map(|&f| speedup(app, Platform::Haswell, f, false))
                .collect();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(0.0f64, f64::max);
            assert!(max / min < 1.25, "{app}: flavor spread too wide: {values:?}");
        }
    }

    #[test]
    fn suitability_predicts_speedup_ordering() {
        // The SIV-E thesis end to end: rank applications by stall-weighted
        // intensity (the suitability argument) and by modeled speedup; the
        // clearly-suitable must beat the clearly-unsuitable on both metrics.
        let machine = MachineModel::haswell_server();
        let score = |app| {
            let m = characterize(&catalog::default_profile(app), &machine);
            m.ipb * m.stall_score() // intensity x stall head-room
        };
        let gain = |app| speedup(app, Platform::Haswell, InputFlavor::Large, false);
        for suitable in [AppKind::Kmeans, AppKind::MatrixMultiply] {
            for unsuitable in [AppKind::Histogram, AppKind::LinearRegression] {
                assert!(score(suitable) > score(unsuitable));
                assert!(gain(suitable) > gain(unsuitable));
            }
        }
    }

    #[test]
    fn phoenix_configs_price_every_cell() {
        // Smoke over the whole Table I matrix for the baseline pricing too.
        for app in AppKind::ALL {
            for platform in [Platform::Haswell, Platform::XeonPhi] {
                for flavor in InputFlavor::ALL {
                    let job = sim_job(app, platform, flavor, false);
                    let report = simulate(&job, &sim_config(app, platform, RuntimeKind::Phoenix));
                    assert!(report.total_ns().is_finite() && report.total_ns() > 0.0);
                    assert!(report.map_combine_fraction() > 0.0);
                }
            }
        }
    }

    #[test]
    fn fig4_best_ratio_moves_from_three_to_one() {
        // Light combine: one combiner serves three mappers best.
        let light = fig4_job(2);
        assert!(ramr_at_ratio(&light, 3) < ramr_at_ratio(&light, 1));
        // Heavy combine: equal pools win.
        let heavy = fig4_job(400);
        assert!(ramr_at_ratio(&heavy, 1) < ramr_at_ratio(&heavy, 3));
        // Somewhere in between, ratio 2 is the best of the three.
        let mut crossover_seen = false;
        for intensity in [10u32, 20, 30, 50, 80, 120] {
            let j = fig4_job(intensity);
            let (r3, r2, r1) = (ramr_at_ratio(&j, 3), ramr_at_ratio(&j, 2), ramr_at_ratio(&j, 1));
            if r2 <= r3 && r2 <= r1 {
                crossover_seen = true;
            }
        }
        assert!(crossover_seen, "an intermediate intensity must prefer ratio 2");
    }

    #[test]
    fn fig4_ramr_beats_phoenix_on_the_synthetic() {
        // CPU-intensive map + memory-intensive combine: the complementary
        // profile RAMR is built for.
        for intensity in [5u32, 50, 200] {
            let j = fig4_job(intensity);
            let phoenix = simulate(&j, &SimConfig::phoenix(MachineModel::haswell_server()));
            let best_ramr =
                [1usize, 2, 3].iter().map(|&r| ramr_at_ratio(&j, r)).fold(f64::INFINITY, f64::min);
            assert!(
                best_ramr < phoenix.total_ns(),
                "intensity {intensity}: RAMR {best_ramr:.3e} vs phoenix {:.3e}",
                phoenix.total_ns()
            );
        }
    }

    #[test]
    fn fig8_fig9_shapes_hold_across_flavors() {
        for platform in [Platform::Haswell, Platform::XeonPhi] {
            for flavor in InputFlavor::ALL {
                let km = speedup(AppKind::Kmeans, platform, flavor, false);
                let hg = speedup(AppKind::Histogram, platform, flavor, false);
                assert!(km > 1.0, "KM wins on {platform} {flavor}: {km:.2}");
                assert!(hg < 1.0, "HG loses on {platform} {flavor}: {hg:.2}");
            }
        }
    }

    #[test]
    fn queue_capacity_5000_is_near_optimal() {
        // Paper SIII-A: "a maximum capacity of five thousand elements
        // achieves near-optimal (within 2%) performance across all
        // test-cases".
        for app in AppKind::ALL {
            let job = SimJob {
                profile: catalog::default_profile(app),
                input_elements: 5_000_000,
                unique_keys: 10_000,
            };
            let time_at = |capacity: usize| {
                let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
                cfg.queue_capacity = capacity;
                cfg.batch_size = cfg.batch_size.min(capacity);
                simulate(&job, &cfg).total_ns()
            };
            let at_5000 = time_at(5000);
            let best = [1000usize, 2000, 5000, 10_000, 20_000, 100_000]
                .iter()
                .map(|&c| time_at(c))
                .fold(f64::INFINITY, f64::min);
            assert!(
                at_5000 <= best * 1.05,
                "{app}: capacity 5000 must be within ~2% of optimal ({at_5000:.3e} vs {best:.3e})"
            );
        }
    }
}
