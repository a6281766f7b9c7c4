//! Ablation benches for the design choices the paper fixes by tuning:
//! queue capacity (paper: 5000 within 2% of optimal), sleep-vs-busy-wait on
//! failed push (paper: sleeping improves runtime), task size (paper: large
//! tasks load-balance poorly, small tasks pay library overhead), and the
//! mapper-side emit buffer (this implementation's producer-side mirror of
//! the batched read; measured on real threads, not the simulator).

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, WordCount};
use mr_bench::{sim_config, sim_job};
use mr_core::RuntimeConfig;
use mrsim::{auto_split, simulate, RuntimeKind};
use ramr::RamrSession;
use ramr_telemetry::ThreadTelemetry;

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

    println!(
        "\nABLATION 4: emit-buffer sweep (WC, real threads). 1 = element-wise \
         publication; larger blocks amortize the tail update.\n"
    );
    mr_bench::print_header(&[
        "emit-buf",
        "time(ms)",
        "vs-best",
        "back-pres",
        "map-stall%",
        "cmb-busy%",
        "ratio",
    ]);
    let spec = InputSpec::table1(AppKind::WordCount, Platform::XeonPhi, InputFlavor::Small);
    let lines = wc_input(&spec, 2_000);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let buffers = [1usize, 2, 8, 64, 256, 1000];
    // Pool-wide share of wall-clock the threads spent in `stalled` / `busy`.
    let share = |threads: &[ThreadTelemetry], stalled: bool| -> f64 {
        let wall: f64 = threads.iter().map(|t| t.wall.as_secs_f64()).sum();
        let part: f64 = threads
            .iter()
            .map(|t| if stalled { t.stalled.as_secs_f64() } else { t.busy.as_secs_f64() })
            .sum();
        if wall > 0.0 {
            100.0 * part / wall
        } else {
            0.0
        }
    };
    let mut rows = Vec::new();
    for &emit in &buffers {
        let cfg = RuntimeConfig::builder()
            .num_workers(threads.max(2))
            .num_combiners((threads / 2).max(1))
            .task_size(256)
            .queue_capacity(5000)
            .batch_size(1000)
            .container(AppKind::WordCount.default_container())
            .emit_buffer_size(emit)
            .build()
            .expect("valid ablation config");
        // Warm-up and measured run share one set of pools: the sweep prices
        // the emit buffer, not thread spawn.
        let mut session = RamrSession::new(cfg).expect("session");
        session.submit(&WordCount, &lines).expect("warm-up run"); // warm caches/allocator
        let start = std::time::Instant::now();
        let (_, report) = session.submit_with_report(&WordCount, &lines).expect("measured run");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        rows.push((
            emit,
            ms,
            report.back_pressure(),
            share(&report.mapper_telemetry, true),
            share(&report.combiner_telemetry, false),
            report.suggested_ratio(),
        ));
    }
    let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (emit, ms, bp, map_stall, cmb_busy, ratio) in rows {
        let ratio = ratio.map_or_else(|| "-".to_string(), |r| format!("{r}:1"));
        println!(
            "{emit:>10} {ms:>10.1} {:>10.3} {bp:>10.4} {map_stall:>10.1} {cmb_busy:>10.1} \
             {ratio:>10}",
            ms / best
        );
    }
}
