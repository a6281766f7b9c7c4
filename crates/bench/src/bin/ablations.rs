//! Ablation benches for the design choices the paper fixes by tuning:
//! queue capacity (paper: 5000 within 2% of optimal), sleep-vs-busy-wait on
//! failed push (paper: sleeping improves runtime), and task size (paper:
//! large tasks load-balance poorly, small tasks pay library overhead).

use mr_apps::inputs::{InputFlavor, Platform};
use mr_apps::AppKind;
use mr_bench::{sim_config, sim_job};
use mrsim::{auto_split, simulate, RuntimeKind};

fn main() {
    let platform = Platform::Haswell;

    println!("ABLATION 1: queue capacity sweep (WC, large). Paper: 5000 within 2% of best.\n");
    mr_bench::print_header(&["capacity", "time(ms)", "vs-best"]);
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
    mr_bench::print_header(&["task-size", "time(ms)", "vs-best"]);
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
