//! The CLI subcommands.

use std::sync::Arc;
use std::time::Instant;

use mr_apps::inputs::{
    hg_input, km_input, lr_input, mm_matrices, pca_matrix, wc_input, InputFlavor, InputSpec,
    Platform, DEFAULT_SCALE,
};
use mr_apps::{
    AppKind, Histogram, KmeansState, LinearRegression, MatrixMultiply, PcaCovJob, PcaMeanJob,
    WordCount,
};
use mr_core::{ContainerKind, MapReduceJob, PhaseKind, RuntimeConfig};
use ramr::{Backend, Engine, EngineReport, JobScheduler, Pipeline};
use ramr_telemetry::report::breakdown_table;
use ramr_topology::{thrid_to_cpu, MachineModel};

use crate::args::Args;

/// Help text for `ramr help`.
pub const HELP: &str = "\
ramr — Resource-Aware MapReduce runtime driver (DATE 2020 reproduction)

USAGE:
  ramr run      --app <wc|hg|lr|km|pca|mm>
                [--runtime ramr|ramr-static|ramr-adaptive|phoenix|both]
                [--input FILE] [--input-a FILE --input-b FILE (mm)]
                [--flavor small|medium|large] [--platform hwl|phi]
                [--scale N] [--runs N] [--metrics-json FILE]
                [--workers N] [--combiners N] [--task N] [--queue N]
                [--batch N] [--emit-buffer N] [--reducers N]
                [--fixed-capacity N] [--container array|hash|fixed-hash]
                [--hasher fnv|fx]
                [--pinning ramr|round-robin|os-default] [--pin 0|1]
                [--push-spins N] [--push-sleep-us US] [--telemetry 0|1]
                [--task-retries N] [--skip-poison 0|1] [--watchdog-ms MS]
                [--sched-jobs N] [--sched-tenants N] [--sched-queue N]
                [--sched-policy fifo|fair:T=W,...] [--sched-quota N]
                [--stages N (km: iterate-rounds cap, default 20)]
                [--pipeline-max-stages N] [--pipeline-epsilon F]
  ramr simulate --app <...> [--machine hwl|phi] [--flavor ...]
                [--stressed 0|1] [--batch N] [--queue N] [--task N]
  ramr tune     --app <...> [--scale N] [--workers N] [--container ...]
  ramr generate --app <...> --out FILE [--out-b FILE (mm)]
                [--flavor ...] [--platform ...] [--scale N]
  ramr serve    [--serve-addr HOST:PORT] [--serve-token TOKEN]
                [--serve-max-pools N] [--serve-retry-ms MS]
                [--serve-chaos 0|1] [--serve-max-frame BYTES]
                [--serve-rate PER_SEC] [--serve-heartbeat-ms MS]
                [--serve-park-ttl-ms MS]
                [--backend ramr-static|ramr-adaptive|phoenix]
                [runtime knobs as the pools' base config]
  ramr client   --addr HOST:PORT [--tenant NAME] [--token TOKEN]
                [--app wc|hg|lr|km] [--platform hwl|phi] [--flavor ...]
                [--scale N] [--jobs N] [--backend ...] [--echo 0|1]
                [--print-metrics 0|1] [--shutdown 0|1]
                [runtime knobs as per-job overrides]
  ramr topology
  ramr help

`run` executes on real threads with generated Table I inputs (scaled by
--scale, default 2000); `simulate` prices the full-size workload on the
paper's machine models; `tune` measures map/combine throughput and suggests
pool sizes and batch size.

Every knob flag above mirrors a RAMR_* environment variable one-to-one
(see TUNING.md); both surfaces parse through the same shared table, so a
knob cannot exist in one and be missing from the other.

`run` also prints a per-thread telemetry breakdown (busy/stall shares,
throughput, batch fullness) and, with --metrics-json FILE, dumps the full
machine-readable report for offline tuning (see EXPERIMENTS.md). A mapper
row indexed past --workers (mapper[W + c]) is combiner c's helper row: the
map tasks it ran in place while it had no full batch to read. On the
summary line, queue-full counts the flushes of a mapper that found its
combiner a full batch behind (or the queue without room) and folded the
block itself; spilled counts the pairs it folded that way. `ramr` and
`ramr-adaptive` both name `ramr-static`. See TUNING.md for the full knob
cookbook.

Fault tolerance (opt-in, see DESIGN.md): --task-retries N re-executes a
panicked map task up to N times (jobs must declare is_retry_safe);
--skip-poison 1 records tasks that still fail and completes the run
without them; --watchdog-ms N cancels a wedged pipeline and reports a
per-thread stall diagnosis instead of hanging forever.

km runs as an iterate-until-converged *pipeline* by default: every Lloyd
round is one stage on a shared warm worker pool, and a per-stage
summary (round, residual, keys, time) is printed. --stages
caps the rounds; --pipeline-epsilon sets the convergence threshold and
--pipeline-max-stages the hard stage budget (both are RAMR_* knobs, see
TUNING.md). With --metrics-json or --sched-jobs, km falls back to a
single-iteration run.

With --sched-jobs N (> 0) the run goes through the concurrent job
scheduler instead of a single engine call: --sched-tenants T client
threads each submit N copies of the job against one shared worker pool,
and a per-tenant summary (completed/failed/shed with its queue-full /
quota / saturated breakdown, queue wait, run time) is printed per
backend. --sched-queue bounds the submission queue, --sched-policy picks
fifo or weighted fair-share dispatch, and --sched-quota caps any one
tenant's in-flight jobs (see DESIGN.md §6g).

`serve` runs the long-running job server over that scheduler: clients
connect over TCP, authenticate as named tenants, submit jobs with
per-job knob overrides, and stream back results; shedding maps to
RETRY_AFTER responses on the wire. `client` is the matching driver:
submit --jobs N jobs (retrying through backpressure), optionally fetch
the live --print-metrics snapshot, and --shutdown 1 stops the server.
Every --serve-* flag mirrors a RAMR_SERVE_* environment variable through
one shared table, exactly like the runtime knobs. See SERVICE.md for the
protocol reference and operator guide.
";

fn parse_app(args: &Args) -> Result<AppKind, String> {
    match args.get("app").unwrap_or("wc") {
        "wc" => Ok(AppKind::WordCount),
        "hg" => Ok(AppKind::Histogram),
        "lr" => Ok(AppKind::LinearRegression),
        "km" => Ok(AppKind::Kmeans),
        "pca" => Ok(AppKind::Pca),
        "mm" => Ok(AppKind::MatrixMultiply),
        other => Err(format!("unknown --app {other:?} (wc|hg|lr|km|pca|mm)")),
    }
}

fn parse_flavor(args: &Args) -> Result<InputFlavor, String> {
    match args.get("flavor").unwrap_or("small") {
        "small" => Ok(InputFlavor::Small),
        "medium" => Ok(InputFlavor::Medium),
        "large" => Ok(InputFlavor::Large),
        other => Err(format!("unknown --flavor {other:?} (small|medium|large)")),
    }
}

fn parse_platform(args: &Args, flag: &str, default: &str) -> Result<Platform, String> {
    match args.get(flag).unwrap_or(default) {
        "hwl" => Ok(Platform::Haswell),
        "phi" => Ok(Platform::XeonPhi),
        other => Err(format!("unknown --{flag} {other:?} (hwl|phi)")),
    }
}

fn parse_container(raw: &str) -> Result<ContainerKind, String> {
    match raw {
        "array" => Ok(ContainerKind::Array),
        "hash" => Ok(ContainerKind::Hash),
        "fixed-hash" => Ok(ContainerKind::FixedHash),
        other => Err(format!("unknown container {other:?} (array|hash|fixed-hash)")),
    }
}

fn build_config(args: &Args, app: AppKind) -> Result<RuntimeConfig, String> {
    // CLI-specific defaults (the run command targets short interactive
    // experiments, not the library's paper defaults): half the threads as
    // combiners, a smaller task size, the app's preferred container.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = args.get_or("workers", threads.max(2))?;
    let mut builder = RuntimeConfig::builder()
        .num_workers(workers)
        .num_combiners((workers / 2).max(1))
        .task_size(1024)
        .queue_capacity(5000)
        .batch_size(1000)
        .container(app.default_container());
    // Every knob present on the command line is applied through the shared
    // mr_core::ENV_KNOBS table — the exact parse/apply path that
    // RuntimeConfig::from_env uses for the knob's RAMR_* twin.
    for knob in mr_core::ENV_KNOBS {
        if let Some(raw) = args.get(knob.cli) {
            let source = format!("--{}", knob.cli);
            builder = (knob.apply)(builder, raw, &source).map_err(|e| e.to_string())?;
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// The backends a `run` invocation exercises: `--runtime both` runs RAMR
/// and Phoenix, `ramr` is `ramr-static`, and a backend named in full
/// (`ramr-static`, `ramr-adaptive`, `phoenix`) is taken literally.
fn parse_runtime(args: &Args) -> Result<Vec<Backend>, String> {
    match args.get("runtime").unwrap_or("both") {
        "ramr" => Ok(vec![Backend::RamrStatic]),
        "both" => Ok(vec![Backend::RamrStatic, Backend::Phoenix]),
        other => other.parse::<Backend>().map(|backend| vec![backend]).map_err(|_| {
            format!("unknown --runtime {other:?} (ramr|ramr-static|ramr-adaptive|phoenix|both)")
        }),
    }
}

/// Executes a job on the selected backend(s), printing timing, a
/// per-thread telemetry breakdown, and agreement. Each backend opens one
/// [`Backend::session`] and runs all `runs` jobs on it, so the first (cold)
/// job — the one that grows the kept containers — is timed apart from the
/// warm ones after it. When `metrics_json` is set, the last run's full
/// [`MetricsReport`](ramr_telemetry::report::MetricsReport) (preferring a
/// RAMR backend when several ran) is written there as JSON.
fn execute<J: MapReduceJob + 'static>(
    job: &J,
    input: &[J::Input],
    config: &RuntimeConfig,
    backends: &[Backend],
    runs: usize,
    app: AppKind,
    metrics_json: Option<&str>,
) -> Result<(), String> {
    let mut outputs: Vec<(Backend, _, EngineReport)> = Vec::new();
    for &backend in backends {
        let mut session = backend.session::<J>(config.clone()).map_err(|e| e.to_string())?;
        let mut samples = Vec::with_capacity(runs.max(1));
        let mut last = None;
        for _ in 0..runs.max(1) {
            let started = Instant::now();
            let outcome = session.submit(job, input).map_err(|e| e.to_string())?;
            samples.push(started.elapsed().as_secs_f64() * 1e3);
            last = Some(outcome);
        }
        let outcome = last.expect("at least one run");
        let (output, report) = (outcome.output, outcome.report);
        let (cold, warm) = samples.split_first().expect("at least one run");
        let warm = match warm.len() {
            0 => "-".to_string(),
            n => format!("{:.2} ms mean of {n}", warm.iter().sum::<f64>() / n as f64),
        };
        println!(
            "{:>13}: cold {cold:.2} ms | warm {warm} | {} keys | map-combine {:.0}% | \
             emitted {} | queue-full {} | spilled {} | helped {}",
            backend.as_str(),
            output.len(),
            100.0 * output.stats.fraction(PhaseKind::MapCombine),
            output.stats.emitted,
            output.stats.queue_full_events,
            report.spilled,
            report.helped,
        );
        if let Some(summary) = report.faults.summary() {
            println!("  faults: {summary}");
        }
        if config.telemetry {
            print!("{}", breakdown_table(&report.threads));
            if let Some(ratio) = report.suggested_ratio {
                println!("  suggested mapper:combiner ratio {ratio}:1 (throughput criterion)");
            }
        }
        outputs.push((backend, output, report));
    }
    if let Some(path) = metrics_json {
        let (_, output, report) = outputs
            .iter()
            .find(|(b, ..)| *b != Backend::Phoenix)
            .or(outputs.first())
            .ok_or("--metrics-json requires at least one runtime to run")?;
        let metrics = report.metrics(app.abbrev(), config, &output.stats);
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("  metrics written to {path}");
    }
    if outputs.len() == 2 {
        let equal = outputs[0].1.len() == outputs[1].1.len();
        println!(
            "  agreement: both runtimes produced {} keys ({})",
            outputs[0].1.len(),
            if equal { "match" } else { "MISMATCH" }
        );
        if !equal {
            return Err("runtime outputs disagree".into());
        }
    }
    Ok(())
}

/// Drives the job through the concurrent [`JobScheduler`]: `tenants`
/// client threads each submit `jobs_per_tenant` copies against one shared
/// pool, then the per-tenant accounting is printed. Every ticket must
/// resolve to the same key count — tenants run identical jobs, so a
/// divergence means the scheduler leaked state between them.
fn execute_scheduled<J: MapReduceJob + Send + 'static>(
    job: Arc<J>,
    input: Arc<Vec<J::Input>>,
    config: &RuntimeConfig,
    backends: &[Backend],
    tenants: usize,
    jobs_per_tenant: usize,
) -> Result<(), String> {
    if tenants == 0 {
        return Err("--sched-tenants must be at least 1".into());
    }
    for &backend in backends {
        let sched =
            Arc::new(JobScheduler::new(backend, config.clone()).map_err(|e| e.to_string())?);
        let started = Instant::now();
        let mut handles = Vec::new();
        for t in 0..tenants {
            let sched = Arc::clone(&sched);
            let job = Arc::clone(&job);
            let input = Arc::clone(&input);
            handles.push(std::thread::spawn(move || -> Result<usize, String> {
                let client = sched.client(&format!("tenant-{t}"));
                let mut tickets = Vec::with_capacity(jobs_per_tenant);
                for _ in 0..jobs_per_tenant {
                    let ticket = client
                        .submit(Arc::clone(&job), Arc::clone(&input))
                        .map_err(|e| e.to_string())?;
                    tickets.push(ticket);
                }
                let mut keys = 0;
                for ticket in tickets {
                    keys = ticket.wait().map_err(|e| e.to_string())?.output.len();
                }
                Ok(keys)
            }));
        }
        let mut keys = None;
        for handle in handles {
            let tenant_keys = handle.join().map_err(|_| "a tenant thread panicked")??;
            match keys {
                Some(prev) if prev != tenant_keys => {
                    return Err(format!(
                        "tenants disagree on identical jobs: {prev} vs {tenant_keys} keys"
                    ));
                }
                _ => keys = Some(tenant_keys),
            }
        }
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>13}: {elapsed:8.2} ms for {} job(s) from {tenants} tenant(s) \
             ({} dispatch, queue {}) | {} keys per job",
            backend.as_str(),
            tenants * jobs_per_tenant,
            config.sched_policy,
            config.sched_queue,
            keys.unwrap_or(0),
        );
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        // `shed` breaks down by the typed ShedReason: queue-full / quota /
        // saturated, in that order.
        println!(
            "  {:<12} {:>6} {:>9} {:>6} {:>20} {:>12} {:>12} {:>12}",
            "tenant",
            "weight",
            "completed",
            "failed",
            "shed(qf/rl/qt/sat)",
            "mean-wait",
            "max-wait",
            "run-time"
        );
        for s in sched.tenant_stats() {
            let finished = (s.completed + s.failed).max(1);
            println!(
                "  {:<12} {:>6} {:>9} {:>6} {:>20} {:>9.2} ms {:>9.2} ms {:>9.2} ms",
                s.tenant,
                s.weight,
                s.completed,
                s.failed,
                format!(
                    "{} ({}/{}/{}/{})",
                    s.shed, s.shed_queue_full, s.shed_rate_limited, s.shed_quota, s.shed_saturated
                ),
                ms(s.queue_wait) / finished as f64,
                ms(s.max_queue_wait),
                ms(s.run_time),
            );
        }
    }
    Ok(())
}

/// km's default path: Lloyd's iterations as an iterate-until-converged
/// [`Pipeline`], one round per stage on a shared warm pool. Prints a
/// per-round summary per backend.
fn execute_kmeans(
    input: &[mr_apps::Point],
    config: &RuntimeConfig,
    backends: &[Backend],
    stages: usize,
) -> Result<(), String> {
    if stages == 0 {
        return Err("--stages must be at least 1".into());
    }
    let mut final_keys = Vec::new();
    for &backend in backends {
        let engine = backend.engine(config.clone()).map_err(|e| e.to_string())?;
        let mut state = KmeansState::seeded(input, 16);
        let plan = Pipeline::iterate(state.job(), move |job, out| {
            let residual = state.step(&out.pairs);
            *job = state.job();
            residual
        })
        .rounds(stages);
        let outcome = engine.pipeline(plan, input).map_err(|e| e.to_string())?;
        let report = &outcome.report;
        println!(
            "{:>13}: {:8.2} ms | {} round(s), {} | {} clusters{}",
            backend.as_str(),
            report.elapsed.as_secs_f64() * 1e3,
            report.stages.len(),
            if report.converged { "converged" } else { "round cap hit" },
            outcome.output.len(),
            if report.faults_clean() { "" } else { " | FAULTS (see per-stage reports)" },
        );
        println!("  {:>5} {:>10} {:>6} {:>12}", "round", "time(ms)", "keys", "residual");
        for stage in &report.stages {
            println!(
                "  {:>5} {:>10.2} {:>6} {:>12}",
                stage.round.unwrap_or(stage.stage),
                stage.elapsed.as_secs_f64() * 1e3,
                stage.output_keys,
                stage.residual.map_or_else(|| "-".to_string(), |r| format!("{r:.3e}")),
            );
        }
        final_keys.push((backend, outcome.output.len()));
    }
    if let [(_, a), (_, b)] = final_keys[..] {
        println!(
            "  agreement: both runtimes produced {a} clusters ({})",
            if a == b { "match" } else { "MISMATCH" }
        );
        if a != b {
            return Err("runtime outputs disagree".into());
        }
    }
    Ok(())
}

/// How `run` drives a job: one engine call per backend, or `tenants`
/// threads flooding the shared scheduler with `jobs` submissions each.
enum RunMode<'a> {
    Direct { runs: usize, metrics_json: Option<&'a str> },
    Scheduled { tenants: usize, jobs: usize },
}

/// Single dispatch point for every `run` application arm.
fn drive<J: MapReduceJob + Send + 'static>(
    job: J,
    input: Vec<J::Input>,
    config: &RuntimeConfig,
    backends: &[Backend],
    app: AppKind,
    mode: &RunMode<'_>,
) -> Result<(), String> {
    match *mode {
        RunMode::Direct { runs, metrics_json } => {
            execute(&job, &input, config, backends, runs, app, metrics_json)
        }
        RunMode::Scheduled { tenants, jobs } => {
            execute_scheduled(Arc::new(job), Arc::new(input), config, backends, tenants, jobs)
        }
    }
}

/// `ramr run`: execute an application on real threads.
pub fn run(args: &Args) -> Result<(), String> {
    let app = parse_app(args)?;
    let flavor = parse_flavor(args)?;
    let platform = parse_platform(args, "platform", "hwl")?;
    let scale = args.get_or("scale", DEFAULT_SCALE)?;
    let runs = args.get_or("runs", 1usize)?;
    let spec = InputSpec::table1(app, platform, flavor);
    let config = build_config(args, app)?;
    let backends = parse_runtime(args)?;
    let metrics_json = args.get("metrics-json");
    let sched_jobs = args.get_or("sched-jobs", 0usize)?;
    let sched_tenants = args.get_or("sched-tenants", 2usize)?;
    let mode = if sched_jobs > 0 {
        if metrics_json.is_some() {
            return Err("--metrics-json is a single-run report; drop it or --sched-jobs".into());
        }
        RunMode::Scheduled { tenants: sched_tenants, jobs: sched_jobs }
    } else {
        RunMode::Direct { runs, metrics_json }
    };
    let source = match args.get("input") {
        Some(path) => format!("file {path}"),
        None => format!("paper {:?}, scale {scale}", spec.paper),
    };
    println!(
        "{} | {platform} {flavor} ({source}) | workers {} combiners {} \
         batch {} emit-buffer {} queue {} container {}",
        app.abbrev(),
        config.num_workers,
        config.num_combiners,
        config.batch_size,
        config.effective_emit_buffer(),
        config.queue_capacity,
        config.container,
    );
    let from_file = args.get("input").map(std::path::PathBuf::from);
    let io_err = |e: std::io::Error| e.to_string();
    match app {
        AppKind::WordCount => {
            let input = match &from_file {
                Some(path) => mr_apps::io::read_text(path).map_err(io_err)?,
                None => wc_input(&spec, scale),
            };
            drive(WordCount, input, &config, &backends, app, &mode)
        }
        AppKind::Histogram => {
            let input = match &from_file {
                Some(path) => mr_apps::io::read_pixels(path).map_err(io_err)?,
                None => hg_input(&spec, scale),
            };
            drive(Histogram, input, &config, &backends, app, &mode)
        }
        AppKind::LinearRegression => {
            let input = match &from_file {
                Some(path) => mr_apps::io::read_lr_points(path).map_err(io_err)?,
                None => lr_input(&spec, scale),
            };
            drive(LinearRegression, input, &config, &backends, app, &mode)
        }
        AppKind::Kmeans => {
            let input = match &from_file {
                Some(path) => mr_apps::io::read_km_points(path).map_err(io_err)?,
                None => km_input(&spec, scale),
            };
            // The iterative pipeline is km's default; --metrics-json and
            // the scheduler path are single-iteration shapes, so they keep
            // the one-round job.
            if let RunMode::Direct { metrics_json: None, .. } = mode {
                let stages = args.get_or("stages", 20usize)?;
                execute_kmeans(&input, &config, &backends, stages)
            } else {
                let state = KmeansState::seeded(&input, 16);
                drive(state.job(), input, &config, &backends, app, &mode)
            }
        }
        AppKind::Pca => {
            let matrix = Arc::new(match &from_file {
                Some(path) => mr_apps::io::read_matrix(path).map_err(io_err)?,
                None => pca_matrix(&spec, scale),
            });
            let mean_job = PcaMeanJob::new(Arc::clone(&matrix));
            let tasks = mean_job.tasks();
            // The mean pass is tiny; run it inline, then time the cov pass.
            let means = {
                let engine =
                    Backend::RamrStatic.engine(config.clone()).map_err(|e| e.to_string())?;
                let out = engine.submit(&mean_job, &tasks).map_err(|e| e.to_string())?;
                Arc::new(mean_job.means(&out.output.pairs))
            };
            let cov_job = PcaCovJob::new(matrix, means);
            let tasks = cov_job.tasks();
            drive(cov_job, tasks, &config, &backends, app, &mode)
        }
        AppKind::MatrixMultiply => {
            let (a, b) = match (args.get("input-a"), args.get("input-b")) {
                (Some(pa), Some(pb)) => (
                    mr_apps::io::read_matrix(std::path::Path::new(pa)).map_err(io_err)?,
                    mr_apps::io::read_matrix(std::path::Path::new(pb)).map_err(io_err)?,
                ),
                (None, None) => mm_matrices(&spec, scale),
                _ => return Err("mm needs both --input-a and --input-b, or neither".into()),
            };
            let job = MatrixMultiply::new(Arc::new(a), Arc::new(b), 16);
            let tasks = job.tasks();
            drive(job, tasks, &config, &backends, app, &mode)
        }
    }
}

/// `ramr generate`: write an application's Table I input to a file.
pub fn generate(args: &Args) -> Result<(), String> {
    let app = parse_app(args)?;
    let flavor = parse_flavor(args)?;
    let platform = parse_platform(args, "platform", "hwl")?;
    let scale = args.get_or("scale", DEFAULT_SCALE)?;
    let out =
        std::path::PathBuf::from(args.get("out").ok_or("--out FILE is required for generate")?);
    let spec = InputSpec::table1(app, platform, flavor);
    let io_err = |e: std::io::Error| e.to_string();
    let written = match app {
        AppKind::WordCount => {
            let lines = wc_input(&spec, scale);
            mr_apps::io::write_text(&out, &lines).map_err(io_err)?;
            lines.len()
        }
        AppKind::Histogram => {
            let pixels = hg_input(&spec, scale);
            mr_apps::io::write_pixels(&out, &pixels).map_err(io_err)?;
            pixels.len()
        }
        AppKind::LinearRegression => {
            let points = lr_input(&spec, scale);
            mr_apps::io::write_lr_points(&out, &points).map_err(io_err)?;
            points.len()
        }
        AppKind::Kmeans => {
            let points = km_input(&spec, scale);
            mr_apps::io::write_km_points(&out, &points).map_err(io_err)?;
            points.len()
        }
        AppKind::Pca => {
            let matrix = pca_matrix(&spec, scale);
            mr_apps::io::write_matrix(&out, &matrix).map_err(io_err)?;
            matrix.n() * matrix.n()
        }
        AppKind::MatrixMultiply => {
            let out_b = std::path::PathBuf::from(
                args.get("out-b").ok_or("--out-b FILE is required for mm (two factors)")?,
            );
            let (a, b) = mm_matrices(&spec, scale);
            mr_apps::io::write_matrix(&out, &a).map_err(io_err)?;
            mr_apps::io::write_matrix(&out_b, &b).map_err(io_err)?;
            2 * a.n() * a.n()
        }
    };
    println!(
        "{}: wrote {written} elements to {} ({platform} {flavor}, scale {scale})",
        app.abbrev(),
        out.display()
    );
    Ok(())
}

/// `ramr simulate`: price the full-size workload on a machine model.
pub fn simulate(args: &Args) -> Result<(), String> {
    use mrsim::{simulate, RuntimeKind, SimConfig, SimJob};
    let app = parse_app(args)?;
    let flavor = parse_flavor(args)?;
    let platform = parse_platform(args, "machine", "hwl")?;
    let stressed = args.get_or("stressed", 0u8)? != 0;
    let machine = match platform {
        Platform::Haswell => MachineModel::haswell_server(),
        Platform::XeonPhi => MachineModel::xeon_phi(),
    };
    let spec = InputSpec::table1(app, platform, flavor);
    let profile = if stressed {
        ramr_perfmodel::catalog::stressed_profile(app)
    } else {
        ramr_perfmodel::catalog::default_profile(app)
    };
    let job = SimJob { profile, input_elements: spec.scaled_elements(1), unique_keys: 10_000 };
    let apply = |cfg: &mut SimConfig| -> Result<(), String> {
        cfg.batch_size = args.get_or("batch", cfg.batch_size)?;
        cfg.queue_capacity = args.get_or("queue", cfg.queue_capacity)?;
        cfg.task_size = args.get_or("task", cfg.task_size)?;
        Ok(())
    };
    let mut phoenix_cfg = SimConfig::phoenix(machine.clone());
    apply(&mut phoenix_cfg)?;
    let mut ramr_cfg = SimConfig::ramr(machine.clone());
    apply(&mut ramr_cfg)?;
    let phoenix = simulate(&job, &phoenix_cfg);
    let ramr = simulate(&job, &ramr_cfg);
    let _ = RuntimeKind::Ramr;
    println!(
        "{} on {} ({flavor}, {} containers): phoenix++ {:.2} ms | ramr {:.2} ms \
         ({} mappers + {} combiners) | speedup {:.2}x",
        app.abbrev(),
        machine.name,
        if stressed { "stressed" } else { "default" },
        phoenix.total_ns() / 1e6,
        ramr.total_ns() / 1e6,
        ramr.mappers,
        ramr.combiners,
        phoenix.total_ns() / ramr.total_ns(),
    );
    Ok(())
}

/// `ramr tune`: calibrate and suggest a configuration.
pub fn tune(args: &Args) -> Result<(), String> {
    let app = parse_app(args)?;
    let scale = args.get_or("scale", 20_000u64)?;
    let spec = InputSpec::table1(app, Platform::Haswell, InputFlavor::Small);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let workers = args.get_or("workers", threads.max(2))?;
    let container = match args.get("container") {
        Some(raw) => parse_container(raw)?,
        None => app.default_container(),
    };
    let base = RuntimeConfig::builder()
        .num_workers(workers)
        .num_combiners(workers.max(2) / 2)
        .container(container)
        .build()
        .map_err(|e| e.to_string())?;

    fn report<J: MapReduceJob>(
        job: &J,
        sample: &[J::Input],
        base: RuntimeConfig,
    ) -> Result<(), String> {
        let calibration = ramr::tuning::calibrate(job, sample, &base).map_err(|e| e.to_string())?;
        let tuned = calibration.suggest(base).map_err(|e| e.to_string())?;
        println!(
            "map {:.1} ns/elem | combine {:.1} ns/pair | {:.2} pairs/elem | combine share {:.1}%",
            calibration.map_ns_per_elem,
            calibration.combine_ns_per_pair,
            calibration.emits_per_elem,
            100.0 * calibration.combine_share(),
        );
        println!(
            "suggested: {} mappers + {} combiners (ratio {}), batch {}",
            tuned.num_workers,
            tuned.num_combiners,
            tuned.mapper_combiner_ratio(),
            tuned.batch_size,
        );
        Ok(())
    }

    println!("calibrating {} on a scaled sample (scale {scale})...", app.abbrev());
    match app {
        AppKind::WordCount => report(&WordCount, &wc_input(&spec, scale), base),
        AppKind::Histogram => report(&Histogram, &hg_input(&spec, scale), base),
        AppKind::LinearRegression => report(&LinearRegression, &lr_input(&spec, scale), base),
        AppKind::Kmeans => {
            let input = km_input(&spec, scale);
            let state = KmeansState::seeded(&input, 16);
            report(&state.job(), &input, base)
        }
        AppKind::Pca => {
            let matrix = Arc::new(pca_matrix(&spec, scale));
            let n = matrix.n();
            let job = PcaCovJob::new(matrix, Arc::new(vec![0.0; n]));
            let tasks = job.tasks();
            report(&job, &tasks, base)
        }
        AppKind::MatrixMultiply => {
            let (a, b) = mm_matrices(&spec, scale);
            let job = MatrixMultiply::new(Arc::new(a), Arc::new(b), 16);
            let tasks = job.tasks();
            report(&job, &tasks, base)
        }
    }
}

/// `ramr serve`: run the long-running job server (see SERVICE.md).
///
/// Environment (`RAMR_SERVE_*`) is read first, then every `--serve-*`
/// flag overrides it through the shared `SERVE_KNOBS` table; runtime knob
/// flags (`--workers`, `--sched-queue`, ...) shape the base configuration
/// every pool starts from, exactly as they shape `ramr run`.
pub fn serve(args: &Args) -> Result<(), String> {
    let mut config = ramr_serve::ServeConfig::from_env()?;
    for knob in ramr_serve::SERVE_KNOBS {
        if let Some(raw) = args.get(knob.cli) {
            config = (knob.apply)(config, raw, &format!("--{}", knob.cli))?;
        }
    }
    if let Some(raw) = args.get("backend") {
        config.default_backend = raw.parse::<Backend>().map_err(|_| {
            format!("unknown --backend {raw:?} (ramr-static|ramr-adaptive|phoenix)")
        })?;
    }
    let mut builder = config.base.clone().into_builder();
    for knob in mr_core::ENV_KNOBS {
        if let Some(raw) = args.get(knob.cli) {
            let source = format!("--{}", knob.cli);
            builder = (knob.apply)(builder, raw, &source).map_err(|e| e.to_string())?;
        }
    }
    config.base = builder.build().map_err(|e| e.to_string())?;
    let server = ramr_serve::Server::bind(config).map_err(|e| e.to_string())?;
    // The smoke scripts wait for this exact "listening on" line.
    println!("ramr-serve listening on {}", server.local_addr());
    server.wait();
    println!("ramr-serve stopped");
    Ok(())
}

/// `ramr client`: drive a running server (used by tests, CI smoke, and
/// the load bench; see SERVICE.md for the quickstart).
pub fn client(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("--addr HOST:PORT is required for client")?;
    let tenant = args.get("tenant").unwrap_or("cli");
    let token = args.get("token");
    let jobs = args.get_or("jobs", 1usize)?;
    let echo = args.get_or("echo", 0u8)? != 0;
    let print_metrics = args.get_or("print-metrics", 0u8)? != 0;
    let shutdown = args.get_or("shutdown", 0u8)? != 0;

    let mut request = ramr_serve::JobRequest::new(args.get("app").unwrap_or("wc"));
    request.platform = args.get("platform").unwrap_or("hwl").to_string();
    request.flavor = args.get("flavor").unwrap_or("small").to_string();
    request.scale = args.get_or("scale", request.scale)?;
    request.backend = args.get("backend").map(str::to_string);
    request.echo_output = echo;
    // Any runtime knob flag present becomes a per-job override, forwarded
    // by its ENV_KNOBS cli name and parsed server-side through the same
    // shared table `ramr run` uses locally.
    for knob in mr_core::ENV_KNOBS {
        if let Some(raw) = args.get(knob.cli) {
            request.knobs.push((knob.cli.to_string(), raw.to_string()));
        }
    }

    let mut client = ramr_serve::ServeClient::connect(addr, tenant, token)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for n in 0..jobs {
        let result = client.run_job(&request).map_err(|e| e.to_string())?;
        println!(
            "job {n}: {} keys | digest {} | queued {:8.2} ms | ran {:8.2} ms | sheds {}",
            result.keys, result.digest, result.queued_ms, result.ran_ms, result.sheds,
        );
        if let Some(output) = &result.output {
            print!("{output}");
        }
    }
    if print_metrics {
        let snapshot = client.metrics().map_err(|e| e.to_string())?;
        println!("{}", snapshot.to_json());
    }
    if shutdown {
        client.shutdown(token).map_err(|e| e.to_string())?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// `ramr topology`: show the detected host and the Fig 3 remap.
pub fn topology() -> Result<(), String> {
    let host = MachineModel::detect();
    println!("detected: {host}");
    println!(
        "pinning supported: {}",
        if ramr_topology::pinning_supported() { "yes (sched_setaffinity)" } else { "no" }
    );
    let seq = thrid_to_cpu(host.sockets, host.cores_per_socket, host.smt);
    let shown = seq.len().min(32);
    println!("thrid_to_cpu[0..{shown}]: {:?}", &seq[..shown]);
    for preset in [MachineModel::haswell_server(), MachineModel::xeon_phi()] {
        println!("preset: {preset}");
    }
    Ok(())
}
