//! `ramr-adaptive` is a second name for `ramr-static`, kept because the
//! benchmark ledger still submits under it. Whichever surface the name
//! arrives through — `Backend::from_str`, a wire `SUBMIT`, or
//! `ramr run --runtime` — it must open the caller-runs session (`T − 1`
//! pool threads, a mapper/combiner placement plan, no adaptation trace) and
//! produce exactly what `ramr-static` produces.
//!
//! This binary counts its own process's pool threads by name, so it holds
//! this one test only.

use std::process::Command;
use std::time::{Duration, Instant};

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, WordCount};
use mr_core::{ContainerKind, RuntimeConfig};
use ramr::Backend;
use ramr_serve::{JobRequest, ServeClient, ServeConfig, Server};
use ramr_telemetry::json::Value;
use ramr_telemetry::report::MetricsReport;
use ramr_telemetry::ThreadRole;

const WORKERS: usize = 2;
const COMBINERS: usize = 1;
/// Table I divisor: jobs of about a millisecond.
const SCALE: u64 = 20_000;

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(WORKERS)
        .num_combiners(COMBINERS)
        .task_size(256)
        .queue_capacity(5000)
        .batch_size(500)
        .container(ContainerKind::Hash)
        .build()
        .expect("valid test config")
}

/// Live `ramr-mapper-N` / `ramr-combiner-N` threads of this process, polled
/// until the count reads `want` (or five seconds pass). `None` where `/proc`
/// is not available.
fn pool_threads_settling_to(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let seen = std::fs::read_dir("/proc/self/task")
            .ok()?
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("ramr-mapper-") || name.starts_with("ramr-combiner-"))
            .count();
        if seen == want || Instant::now() >= deadline {
            return Some(seen);
        }
        std::thread::yield_now();
    }
}

fn assert_pooled(want: usize, surface: &str) {
    if let Some(seen) = pool_threads_settling_to(want) {
        assert_eq!(seen, want, "{surface}: pool threads");
    }
}

/// `ramr run --app wc` under `runtime`: the summary line's key and emitted
/// counts, and the `--metrics-json` report.
fn cli_run(runtime: &str) -> (String, MetricsReport) {
    let path = std::env::temp_dir().join(format!("ramr-cli-{runtime}-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_ramr"))
        .args(["run", "--app", "wc", "--runtime", runtime, "--scale", &SCALE.to_string()])
        .args(["--workers", &WORKERS.to_string(), "--combiners", &COMBINERS.to_string()])
        .arg("--metrics-json")
        .arg(&path)
        .output()
        .expect("the ramr binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--runtime {runtime} failed: {stdout}");
    let summary = stdout
        .lines()
        .find(|line| line.trim_start().starts_with(&format!("{runtime}:")))
        .unwrap_or_else(|| panic!("no {runtime} summary line in: {stdout}"));
    // "… | N keys | map-combine P% | emitted E | spilled …": keep the
    // counts that do not depend on timing or scheduling.
    let counts: Vec<&str> = summary
        .split(" | ")
        .filter(|field| field.ends_with(" keys") || field.starts_with("emitted "))
        .collect();
    let json = std::fs::read_to_string(&path).expect("metrics written");
    let _ = std::fs::remove_file(&path);
    (counts.join(" | "), MetricsReport::from_json(&json).expect("metrics parse"))
}

#[test]
fn ramr_adaptive_names_the_caller_runs_static_session_on_every_surface() {
    let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
    let input = wc_input(&spec, SCALE);
    let pooled = WORKERS + COMBINERS - 1;

    // --- Backend::from_str, in process -----------------------------------
    assert_eq!("ramr-adaptive".parse::<Backend>(), Ok(Backend::RamrAdaptive));
    let expected = {
        let mut session = Backend::RamrStatic.session::<WordCount>(config()).unwrap();
        session.submit(&WordCount, &input).unwrap().output.pairs
    };
    let mut session = Backend::RamrAdaptive.session::<WordCount>(config()).unwrap();
    assert_pooled(pooled, "in process");
    let outcome = session.submit(&WordCount, &input).unwrap();
    assert_eq!(outcome.report.backend, Backend::RamrAdaptive, "reports carry the requested name");
    assert!(outcome.report.adaptation.is_empty());
    assert_eq!(outcome.output.pairs, expected, "in process");
    let second = session.submit(&WordCount, &input).unwrap();
    let plan = second.report.plan.expect("a decoupled session reports its placement plan");
    assert_eq!((plan.num_mappers(), plan.num_combiners()), (WORKERS, COMBINERS));
    assert_eq!(second.output.pairs, expected, "in process, second epoch");
    drop(session);
    assert_pooled(0, "in process, dropped");

    // --- A wire SUBMIT ----------------------------------------------------
    let mut serve = ServeConfig { base: config(), ..ServeConfig::default() };
    serve.addr = "127.0.0.1:0".into();
    let server = Server::bind(serve).expect("server binds loopback");
    let mut client =
        ServeClient::connect(&server.local_addr().to_string(), "compat", None).expect("connect");
    let mut wire = |backend: Backend| {
        let mut request = JobRequest::new("wc");
        request.scale = SCALE;
        request.backend = Some(backend.as_str().to_string());
        request.echo_output = true;
        client.run_job(&request).expect("wire job")
    };
    let adaptive = wire(Backend::RamrAdaptive);
    assert_pooled(pooled, "wire");
    let reference = wire(Backend::RamrStatic);
    assert_eq!(adaptive.output, reference.output, "wire: echoed output");
    assert_eq!(adaptive.digest, reference.digest, "wire: digest");
    assert_eq!(adaptive.metrics.get("runtime").and_then(Value::as_str), Some("ramr-adaptive"));
    drop(client);
    drop(server);

    // --- ramr run --runtime ramr-adaptive -----------------------------------
    let (adaptive_counts, adaptive) = cli_run("ramr-adaptive");
    let (static_counts, reference) = cli_run("ramr-static");
    assert_eq!(adaptive_counts, static_counts, "cli: keys and emitted pairs");
    assert_eq!(adaptive.runtime, "ramr-adaptive");
    assert_eq!((adaptive.emitted, adaptive.consumed), (reference.emitted, reference.consumed));
    let mappers =
        adaptive.threads.iter().filter(|t| t.role == ThreadRole::Mapper && t.index < WORKERS);
    assert_eq!(mappers.count(), WORKERS, "cli: one row per mapper of the pool");
}
