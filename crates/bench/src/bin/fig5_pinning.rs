//! Fig 5: the contention-aware pinning policy versus round-robin and the
//! OS scheduler (paper: avg 2.28x over RR, 2.04x over Linux on Haswell;
//! only 1-3% gains on the Xeon Phi's ring).

use mr_apps::inputs::{InputFlavor, Platform};
use mr_apps::AppKind;
use mr_bench::{geomean, sim_config, sim_job};
use mrsim::{auto_split, simulate, RuntimeKind};
use ramr_topology::PinningPolicyKind;

fn gains(platform: Platform) -> (Vec<f64>, Vec<f64>) {
    let mut vs_rr = Vec::new();
    let mut vs_os = Vec::new();
    mr_bench::print_header(&["app", "vs RR", "vs OS"]);
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
        mr_bench::print_row(app.abbrev(), &[rr / ramr, os / ramr]);
    }
    (vs_rr, vs_os)
}

fn main() {
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
