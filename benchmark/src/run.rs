//! Running one workload in this process, or the whole set in children.

use std::process::{Command, Stdio};
use std::time::Instant;

use ramr_telemetry::json::{self, Value};
use ramr_topology::MachineModel;

use crate::measure::{rotate, Arm, ArmSamples, Budget, Detail, JobRecord, Tracer};
use crate::report::{obj, RunReport, Spec, Values};
use crate::stats::{median, percentile, spread, Summary};
use crate::workloads::{self, Bench, Opts};
use crate::Args;

/// Times a workload is set up per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Rotations of a `--smoke` run.
const SMOKE_ROTATIONS: usize = 3;

/// Repetitions of each no-op-job measurement in the traced run.
const PER_JOB_REPS: usize = 300;

/// A job's child spans may exceed its own span by this share before the
/// span accounting counts as broken (clocks are read at different points).
const SPAN_SLACK: f64 = 0.02;

/// Thread budget `T = clamp(nproc, 2, 4)`: enough for one mapper and one
/// combiner, never more threads than the box has cores (up to four).
fn thread_budget(nproc: usize) -> usize {
    nproc.clamp(2, 4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn detailed(samples: &ArmSamples) -> impl Iterator<Item = (&JobRecord, &Detail)> {
    samples.jobs.iter().filter_map(|j| j.detail.as_ref().map(|d| (j, d)))
}

/// The median of `pick` over the jobs that recorded detail and for which
/// `pick` has a value; `None` when there are none.
fn median_of<'a>(
    samples: &'a ArmSamples,
    pick: impl Fn(&'a JobRecord, &'a Detail) -> Option<f64>,
) -> Option<f64> {
    let picked: Vec<f64> = detailed(samples).filter_map(|(j, d)| pick(j, d)).collect();
    (!picked.is_empty()).then(|| median(&picked))
}

/// Runs `name` once in this process and prints its result line.
///
/// # Errors
///
/// Set-up or measurement could not be carried out at all (as opposed to
/// jobs failing, which is reported in the result line).
pub fn one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = Spec::load(&args.spec)?;
    let threads = args.threads.unwrap_or_else(|| thread_budget(nproc()));
    let opts = Opts { seed: args.seed, threads, smoke: args.smoke, traced: args.trace };
    let budget = if args.smoke {
        Budget::Rotations(SMOKE_ROTATIONS)
    } else {
        Budget::Seconds(args.seconds.unwrap_or(spec.run_seconds))
    };
    println!(
        "== {name} seed {} T={threads} (nproc {}) {} ==",
        args.seed,
        nproc(),
        if args.trace { "traced" } else { "timed, tracing off" }
    );

    let report =
        if args.trace { traced(name, &opts, budget)? } else { timed(name, &opts, budget)? };
    println!(
        "  attempted {} failed {} failed_frac {:.6} checks {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        if report.checks_ok { "ok" } else { "BROKEN" }
    );
    let wanted = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    println!("{}", report.result_line(wanted, args.detail)?);
    Ok(report.correct())
}

fn describe(bench: &dyn Bench) {
    let info = bench.info();
    println!("  input   {} (digest {})", info.sizing, info.input_digest);
    println!("  oracle  digest {} serial fold {:.3} ms", info.oracle_digest, info.serial_ms);
}

fn tally(arms: &[ArmSamples]) -> (u64, u64) {
    let jobs = || arms.iter().flat_map(|a| a.jobs.iter());
    (jobs().count() as u64, jobs().filter(|j| !j.ok).count() as u64)
}

/// The timed run: tracing off, the three backends in rotation.
fn timed(name: &str, opts: &Opts, budget: Budget) -> Result<RunReport, String> {
    let mut values = Values::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set up several times, and measure a share of the window on every
    // instance: setup_s is the median set-up, and a session that happened
    // to come up in a slow or fast mode (thread placement decides how the
    // mapper's backoff sleeps line up with the combiner) is one instance
    // among several instead of the whole run.
    let share = match budget {
        Budget::Seconds(s) => Budget::Seconds(s / SETUP_REPEATS as f64),
        rotations => rotations,
    };
    let arms: Vec<(Arm, bool)> = Arm::TIMED.iter().map(|&arm| (arm, false)).collect();
    let mut samples: Vec<ArmSamples> = arms.iter().map(|_| ArmSamples::default()).collect();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut pairs = 0.0;
    for instance in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut bench = workloads::setup(name, opts)?;
        setups.push(started.elapsed().as_secs_f64());
        if instance == 0 {
            describe(bench.as_ref());
        }
        for (into, from) in samples.iter_mut().zip(rotate(bench.as_mut(), &arms, share)) {
            into.busy_ms += from.busy_ms;
            into.jobs.extend(from.jobs);
        }
        attempted += bench.info().warmup.0;
        failed += bench.info().warmup.1;
        pairs = bench.info().pairs_per_job as f64;
    }
    let (a, f) = tally(&samples);
    attempted += a;
    failed += f;

    for ((arm, _), arm_samples) in arms.iter().zip(&samples) {
        let walls = arm_samples.walls();
        let summary = Summary::of(&walls);
        let metric = match arm {
            Arm::Static => "static_job_ms",
            Arm::Adaptive => "adaptive_job_ms",
            _ => "phoenix_job_ms",
        };
        values.put(metric, "ms", summary.median);
        println!("    {summary}  ({:.2} Mpairs/s)", pairs / summary.median / 1e3);
    }
    let static_arm = &samples[0];
    values.put(
        "static_jobs_per_s",
        "1/s",
        static_arm.jobs.len() as f64 / (static_arm.busy_ms / 1e3),
    );
    values.put("setup_s", "s", median(&setups));
    values.put("peak_rss_mb", "MB", peak_rss_mb()?);
    Ok(RunReport { attempted, failed, checks_ok: true, values })
}

/// The traced run: spans kept in memory, per-layer metrics, span file.
fn traced(name: &str, opts: &Opts, budget: Budget) -> Result<RunReport, String> {
    let mut values = Values::default();
    let mut bench = workloads::setup(name, opts)?;
    describe(bench.as_ref());
    let info = bench.info().clone();
    let mut checks_ok = true;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            println!("  CHECK FAILED: {what}");
            checks_ok = false;
        }
    };

    // The static arm runs twice per rotation, with and without span
    // recording; their ratio is the tracing overhead.
    let arms = [
        (Arm::Static, true),
        (Arm::Adaptive, true),
        (Arm::Phoenix, true),
        (Arm::Static, false),
        (Arm::StaticNoTelemetry, false),
    ];
    let samples = rotate(bench.as_mut(), &arms, budget);
    let (timed_attempted, timed_failed) = tally(&samples);
    let attempted = bench.info().warmup.0 + timed_attempted;
    let failed = bench.info().warmup.1 + timed_failed;
    let [static_traced, adaptive, phoenix, static_plain, static_quiet] = &samples[..] else {
        unreachable!("one ArmSamples per arm");
    };

    let mut tracer = Tracer::default();
    for ((arm, _), arm_samples) in arms.iter().zip(&samples) {
        for job in &arm_samples.jobs {
            tracer.record(info.root_span, *arm, job);
        }
    }

    // Phase spans and the root's self time, static backend.
    let of = |pick: fn(&JobRecord, &Detail) -> f64| {
        median_of(static_traced, |j, d| Some(pick(j, d))).ok_or("the static arm recorded no detail")
    };
    values.put("partition_ms", "ms", of(|_, d| d.phases_ms[0])?);
    values.put("map_combine_ms", "ms", of(|_, d| d.phases_ms[1])?);
    values.put("reduce_ms", "ms", of(|_, d| d.phases_ms[2])?);
    values.put("merge_ms", "ms", of(|_, d| d.phases_ms[3])?);
    fn children(d: &Detail) -> f64 {
        d.spans.iter().filter(|s| s.0 == 1).map(|s| s.2).sum()
    }
    values.put("submit_overhead_ms", "ms", of(|j, d| j.wall_ms - children(d))?);
    for samples in &samples {
        check(
            detailed(samples).all(|(j, d)| children(d) <= j.wall_ms * (1.0 + SPAN_SLACK)),
            "a job's child spans exceed the job span by more than 2%",
        );
    }

    values.put("mapper_busy_frac", "frac", of(|_, d| d.pools.mapper_busy)?);
    values.put("mapper_stall_frac", "frac", of(|_, d| d.pools.mapper_stall)?);
    values.put("combiner_busy_frac", "frac", of(|_, d| d.pools.combiner_busy)?);
    values.put("combiner_stall_frac", "frac", of(|_, d| d.pools.combiner_stall)?);
    values.put("queue_full_events", "count", of(|_, d| d.pools.queue_full as f64)?);
    values.put("emitted_pairs", "count", of(|_, d| d.emitted as f64)?);
    values.put("output_keys", "count", of(|_, d| d.output_keys as f64)?);
    for samples in &samples[..3] {
        let mut counts = detailed(samples).map(|(_, d)| (d.emitted, d.output_keys));
        let first = counts.next();
        check(
            counts.all(|c| Some(c) == first),
            "emitted_pairs / output_keys differ between two jobs over the same input",
        );
    }

    let plain_walls = static_plain.walls();

    // Workload-specific layers: each only where the library returns it (the
    // wire does not carry the controller's trace; only pipelines have
    // stages; only wire jobs queue).
    if let Some(events) = median_of(adaptive, |_, d| d.adaptation.map(|a| a.0 as f64)) {
        values.put("adaptation_events", "count", events);
        let split = median_of(adaptive, |_, d| d.adaptation.map(|a| a.1));
        values.put("final_split", "frac", split.unwrap_or(0.0));
    }
    if let Some(handoff) = median_of(static_traced, |j, d| {
        d.stages.map(|(staged_ms, rounds)| (j.wall_ms - staged_ms) * 1e3 / rounds.max(1) as f64)
    }) {
        values.put("handoff_us_per_round", "us", handoff);
    }
    if let Some(queued) = median_of(static_traced, |_, d| d.wire.map(|w| w.0)) {
        values.put("wire_queued_ms", "ms", queued);
        let ran = median_of(static_traced, |_, d| d.wire.map(|w| w.1));
        values.put("wire_ran_ms", "ms", ran.unwrap_or(0.0));
        let overhead = median_of(static_traced, |j, d| d.wire.map(|w| j.wall_ms - w.0 - w.1));
        values.put("wire_overhead_ms", "ms", overhead.unwrap_or(0.0));
        let sheds: u64 = detailed(static_traced).filter_map(|(_, d)| d.wire).map(|w| w.2).sum();
        let jobs = static_traced.jobs.len() as f64;
        values.put("shed_frac", "frac", sheds as f64 / (jobs + sheds as f64));
        for p in [50.0, 95.0, 99.0] {
            values.put(&format!("wire_job_ms_p{p}"), "ms", percentile(&plain_walls, p));
        }
    }

    let plain_ms = median(&plain_walls);
    values.put("static_job_ms_p90", "ms", percentile(&plain_walls, 90.0));
    values.put("trace_overhead_frac", "frac", median(&static_traced.walls()) / plain_ms);
    values.put("telemetry_overhead_frac", "frac", plain_ms / median(&static_quiet.walls()));
    values.put("serial_job_ms", "ms", info.serial_ms);
    values.put("scaling_eff", "frac", info.serial_ms / (opts.threads as f64 * plain_ms));
    values.put("sim_predicted_ms", "ms", info.sim_ms.0);
    values.put("model_ratio", "frac", info.sim_ms.0 / plain_ms);
    values.put("sim_phoenix_ms", "ms", info.sim_ms.1);
    values.put("model_ratio_phoenix", "frac", info.sim_ms.1 / median(&phoenix.walls()));

    println!("  layers, priced from outside over this workload's own pair stream:");
    if let Err(broken) = bench.layers(&mut values) {
        check(false, &broken);
    }
    drop(bench);
    crate::layers::per_job(&info.config, PER_JOB_REPS, &mut values)?;

    let jobs = tracer.jobs();
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.into_json(name).to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  wrote {} ({jobs} jobs)", path.display());
    Ok(RunReport { attempted, failed, checks_ok, values })
}

/// What a child printed last, parsed.
fn child_result(workload: &str, seed: u64, trace: bool, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--detail", "--spec", &args.spec])
        .stderr(Stdio::inherit());
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if let Some(threads) = args.threads {
        command.args(["--threads", &threads.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything the child printed but its result line, which is kept.
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{report}");
    json::parse(last).map_err(|e| format!("{workload} printed no result ({}): {e}", output.status))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload of `BENCHMARK.json`, each run in a child process,
/// prints the set's medians and spreads, and writes it to `--out`.
///
/// # Errors
///
/// A child could not be run or printed no result.
pub fn set(args: &Args) -> Result<bool, String> {
    let spec = Spec::load(&args.spec)?;
    let threads = args.threads.unwrap_or_else(|| thread_budget(nproc()));
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for name in &spec.workloads {
        let mut runs = Vec::new();
        for run in 0..args.runs {
            runs.push(child_result(name, args.seed + run as u64, false, args)?);
        }
        let traced =
            if args.trace { Some(child_result(name, args.seed, true, args)?) } else { None };
        let sum = |key: &str| -> f64 {
            runs.iter().chain(&traced).filter_map(|r| r.get(key)?.as_f64()).sum()
        };
        all_correct &= runs
            .iter()
            .chain(&traced)
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));

        println!("-- {name}: {} timed run(s) --", runs.len());
        let mut end_to_end = Vec::new();
        for metric in &spec.end_to_end {
            let series: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&metric.name)?.get("value")?.as_f64())
                .collect();
            if series.len() != runs.len() {
                return Err(format!("{name}: a run did not report {}", metric.name));
            }
            let spread_note = if series.len() >= 4 {
                format!("spread {:.4}", spread(&series))
            } else {
                "spread n/a (< 4 runs)".to_string()
            };
            println!(
                "  {:<22} median {:>12.4} {:<5} {spread_note} (bound {:.2})",
                metric.name,
                median(&series),
                metric.unit,
                metric.bound.unwrap_or(0.0)
            );
            end_to_end.push((
                metric.name.as_str(),
                obj(&[
                    ("unit", Value::Str(metric.unit.clone())),
                    ("values", Value::Arr(series.into_iter().map(Value::Num).collect())),
                ]),
            ));
        }
        workloads.push((
            name.as_str(),
            obj(&[
                ("attempted", Value::Num(sum("attempted"))),
                ("failed", Value::Num(sum("failed"))),
                ("end_to_end", obj(&end_to_end)),
                (
                    "per_layer",
                    traced.as_ref().and_then(|t| t.get("detail")).cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }

    let machine = MachineModel::detect();
    let document = obj(&[
        ("bench", Value::Str("ramr-benchmark".into())),
        ("claim", Value::Null),
        ("seed", Value::Num(args.seed as f64)),
        ("runs_per_workload", Value::Num(args.runs as f64)),
        ("run_seconds", Value::Num(args.seconds.unwrap_or(spec.run_seconds))),
        ("smoke", Value::Bool(args.smoke)),
        ("threads", Value::Num(threads as f64)),
        ("nproc", Value::Num(nproc() as f64)),
        (
            "machine",
            obj(&[
                ("name", Value::Str(machine.name.clone())),
                ("sockets", Value::Num(machine.sockets as f64)),
                ("cores_per_socket", Value::Num(machine.cores_per_socket as f64)),
                ("smt", Value::Num(machine.smt as f64)),
            ]),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("git_commit", Value::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("workloads", obj(&workloads)),
    ]);
    if let Some(out) = &args.out {
        std::fs::write(out, document.to_json() + "\n")
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_is_clamped_to_two_through_four() {
        assert_eq!([1, 2, 3, 4, 64].map(thread_budget), [2, 2, 3, 4, 4]);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
