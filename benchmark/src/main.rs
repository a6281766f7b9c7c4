//! `ramr-benchmark`: one harness, five workloads, every layer priced.
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                  [--smoke] [--threads T] [--runs K] [--out FILE]
//! benchmark/run.sh compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is the contract's result object. Without it, every
//! workload of `BENCHMARK.json` runs in a child process of its own (`--runs`
//! times each, on consecutive seeds) and the set is written to `--out`.

mod compare;
mod gen;
mod layers;
mod measure;
mod oracle;
mod report;
mod run;
mod stats;
mod workloads;

use std::process::ExitCode;

/// The command line, parsed.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload in this process; all of them in children when `None`.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure; `BENCHMARK.json`'s `run_seconds` when `None`.
    pub seconds: Option<f64>,
    /// Traced run: per-layer metrics and the span file.
    pub trace: bool,
    /// Tiny sizes, three rotations, same checks.
    pub smoke: bool,
    /// Thread budget override.
    pub threads: Option<usize>,
    /// Runs per workload of a full set.
    pub runs: usize,
    /// Where a full set is written.
    pub out: Option<String>,
    /// Append every measured value to the result line (children of a set).
    pub detail: bool,
    /// Path of `BENCHMARK.json`.
    pub spec: String,
}

fn parse(mut raw: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        threads: None,
        runs: 1,
        out: None,
        detail: false,
        spec: "BENCHMARK.json".into(),
    };
    while let Some(flag) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: cannot parse {text:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = num(&flag, value("a number")?)?,
            "--seconds" => args.seconds = Some(num(&flag, value("a number")?)?),
            "--threads" => args.threads = Some(num(&flag, value("a number")?)?),
            "--runs" => args.runs = num(&flag, value("a number")?)?,
            "--out" => args.out = Some(value("a path")?),
            "--spec" => args.spec = value("a path")?,
            "--smoke" => args.smoke = true,
            "--detail" => args.detail = true,
            // `--trace` alone switches tracing on; the driver's spelling
            // passes an explicit 0 or 1.
            "--trace" => {
                args.trace = match raw.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.runs == 0 || args.threads == Some(0) || args.threads == Some(1) {
        return Err("--runs must be at least 1 and --threads at least 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    let outcome = if raw.next_if(|a| a == "compare").is_some() {
        compare::main(&raw.collect::<Vec<_>>())
    } else {
        parse(raw).and_then(|args| match &args.workload {
            Some(name) => run::one(name, &args),
            None => run::set(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ramr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
