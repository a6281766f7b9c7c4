//! `ramr` — command-line driver for the RAMR reproduction.
//!
//! ```text
//! ramr run      --app wc --runtime ramr --flavor small --scale 2000 [knobs]
//! ramr simulate --app km --machine hwl [--stressed 1]
//! ramr figures  [NAME...]
//! ramr tune     --app wc --scale 20000
//! ramr topology
//! ramr help
//! ```
//!
//! `run` executes a paper application on real threads with generated
//! Table I inputs; `simulate` prices it on the paper's machines;
//! `figures` prints the paper's Table I and Figs 1–10 from the same model;
//! `tune` calibrates map/combine throughput and suggests a configuration;
//! `topology` shows the detected host and the `thrid_to_cpu` remap.

mod args;
mod commands;
mod figures;

use args::Args;

/// `run` flags that are not runtime knobs (input selection, repetition,
/// output). The knob flags are not listed anywhere in the CLI: they come
/// from `mr_core::ENV_KNOBS`, the same table `RuntimeConfig::from_env`
/// parses, so the two surfaces cannot drift apart.
const RUN_BASE_FLAGS: &[&str] = &[
    "app",
    "runtime",
    "flavor",
    "platform",
    "scale",
    "runs",
    "input",
    "input-a",
    "input-b",
    "metrics-json",
    "sched-tenants",
    "sched-jobs",
    "stages",
];

fn run_flags() -> Vec<&'static str> {
    let mut flags = RUN_BASE_FLAGS.to_vec();
    flags.extend(mr_core::ENV_KNOBS.iter().map(|k| k.cli));
    flags
}
const GENERATE_FLAGS: &[&str] = &["app", "flavor", "platform", "scale", "out", "out-b"];
const SIM_FLAGS: &[&str] = &["app", "machine", "flavor", "stressed", "batch", "queue", "task"];
const TUNE_FLAGS: &[&str] = &["app", "scale", "workers", "container"];

/// `serve` takes the service knobs (from `ramr_serve::SERVE_KNOBS`, the
/// same table `ServeConfig::from_env` parses), a default `--backend`, and
/// every runtime knob flag as the pools' base configuration.
fn serve_flags() -> Vec<&'static str> {
    let mut flags = vec!["backend"];
    flags.extend(ramr_serve::SERVE_KNOBS.iter().map(|k| k.cli));
    flags.extend(mr_core::ENV_KNOBS.iter().map(|k| k.cli));
    flags
}

/// `client` flags that are not per-job knob overrides; every
/// `mr_core::ENV_KNOBS` cli name is also accepted and forwarded to the
/// server as a per-job override.
const CLIENT_BASE_FLAGS: &[&str] = &[
    "addr",
    "tenant",
    "token",
    "app",
    "platform",
    "flavor",
    "scale",
    "jobs",
    "backend",
    "echo",
    "print-metrics",
    "shutdown",
];

fn client_flags() -> Vec<&'static str> {
    let mut flags = CLIENT_BASE_FLAGS.to_vec();
    flags.extend(mr_core::ENV_KNOBS.iter().map(|k| k.cli));
    flags
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = raw.first().cloned().unwrap_or_else(|| "help".to_string());
    let rest = raw.into_iter().skip(1);
    let no_positionals = |a: Args| -> Result<Args, String> {
        match a.positionals() {
            [] => Ok(a),
            extra => Err(format!("unexpected arguments: {extra:?}")),
        }
    };
    let outcome = match command.as_str() {
        "run" => {
            Args::parse(rest, &run_flags()).and_then(no_positionals).and_then(|a| commands::run(&a))
        }
        "simulate" => Args::parse(rest, SIM_FLAGS)
            .and_then(no_positionals)
            .and_then(|a| commands::simulate(&a)),
        "tune" => {
            Args::parse(rest, TUNE_FLAGS).and_then(no_positionals).and_then(|a| commands::tune(&a))
        }
        "generate" => Args::parse(rest, GENERATE_FLAGS)
            .and_then(no_positionals)
            .and_then(|a| commands::generate(&a)),
        "serve" => Args::parse(rest, &serve_flags())
            .and_then(no_positionals)
            .and_then(|a| commands::serve(&a)),
        "client" => Args::parse(rest, &client_flags())
            .and_then(no_positionals)
            .and_then(|a| commands::client(&a)),
        "figures" => Args::parse(rest, &[]).and_then(|a| figures::run(a.positionals())),
        "topology" => commands::topology(),
        "help" | "--help" | "-h" => {
            print!("{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `ramr help`")),
    };
    if let Err(message) = outcome {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
}
