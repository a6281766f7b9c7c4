//! Calibration dump: prints every figure-relevant quantity so model
//! constants can be tuned against the paper's published numbers.

use mr_apps::AppKind;
use mrsim::{simulate, SimConfig, SimJob};
use ramr_perfmodel::catalog;
use ramr_topology::{MachineModel, PinningPolicyKind};

fn job(app: AppKind, stressed: bool) -> SimJob {
    let profile =
        if stressed { catalog::stressed_profile(app) } else { catalog::default_profile(app) };
    let (elements, keys) = match app {
        AppKind::WordCount => (2_000_000, 5_000),
        AppKind::Histogram => (60_000_000, 768),
        AppKind::LinearRegression => (50_000_000, 5),
        AppKind::Kmeans => (2_000_000, 64),
        AppKind::Pca => (500_000, 500_000),
        AppKind::MatrixMultiply => (32_000, 65_536),
    };
    SimJob { profile, input_elements: elements, unique_keys: keys }
}

fn main() {
    for (mname, machine) in
        [("HWL", MachineModel::haswell_server()), ("PHI", MachineModel::xeon_phi())]
    {
        println!("=== {mname} ===");
        for stressed in [false, true] {
            println!(" containers: {}", if stressed { "hash/stressed" } else { "default" });
            for app in AppKind::ALL {
                let j = job(app, stressed);
                let p = simulate(&j, &SimConfig::phoenix(machine.clone()));
                let r = simulate(&j, &SimConfig::ramr(machine.clone()));
                println!(
                    "  {:3} speedup {:5.2}  (M/C {}/{}  mc_frac_p {:.2} q_ovh {:.2} bw {:.2} map_util {:.2})",
                    app.abbrev(),
                    p.total_ns() / r.total_ns(),
                    r.mappers, r.combiners,
                    p.map_combine_fraction(),
                    r.queue_overhead_fraction,
                    r.bandwidth_utilization,
                    r.mapper_utilization,
                );
            }
        }
        // pinning gains (default containers)
        println!(" pinning gains vs RR / OS:");
        for app in AppKind::ALL {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(machine.clone());
            cfg.pinning = PinningPolicyKind::Ramr;
            let ramr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::RoundRobin;
            let rr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::OsDefault;
            let os = simulate(&j, &cfg).total_ns();
            println!("  {:3} rr {:5.2} os {:5.2}", app.abbrev(), rr / ramr, os / ramr);
        }
        // batching gains
        println!(" batching gains (batch 1 -> 1000):");
        for app in AppKind::ALL {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(machine.clone());
            cfg.batch_size = 1;
            let un = simulate(&j, &cfg).total_ns();
            cfg.batch_size = 1000;
            let b = simulate(&j, &cfg).total_ns();
            println!("  {:3} gain {:5.2}", app.abbrev(), un / b);
        }
        // batch sweep KM
        print!(" KM batch sweep:");
        for &batch in &[1usize, 5, 20, 100, 500, 1000, 2000, 5000] {
            let j = job(AppKind::Kmeans, false);
            let mut cfg = SimConfig::ramr(machine.clone());
            cfg.batch_size = batch;
            print!(" {}:{:.3e}", batch, simulate(&j, &cfg).total_ns());
        }
        println!();
    }
}
