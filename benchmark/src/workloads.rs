//! The five workloads: what each generates, runs and checks.
//!
//! Names are final — later issues cite them. Sizes are frozen constants in
//! elements, not seconds, chosen once (see the README, "How sizes were
//! frozen") so that each workload is dominated by the layers it exists to
//! expose; both sides of any later comparison therefore do identical work.

use std::sync::Arc;
use std::time::Instant;

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::kmeans::ClusterAccum;
use mr_apps::{AppKind, Histogram, KmeansJob, KmeansState, Point, WordCount};
use mr_core::{ContainerKind, MapReduceJob, RuntimeConfig};
use mr_synth::{KernelKind, SynthSpec, SYNTH_KEY_SPACE};
use mrsim::{simulate, SimConfig, SimJob};
use ramr::{AnyEngine, Backend, Engine, EngineSession, JobScheduler, Pipeline};
use ramr_perfmodel::{catalog, WorkloadProfile};
use ramr_serve::proto::{read_frame, write_frame};
use ramr_serve::{
    digest64, outcome_of, render_pairs, JobRequest, JobResult, ServeClient, ServeConfig, Server,
};
use ramr_telemetry::json::Value;
use ramr_telemetry::report::MetricsReport;
use ramr_topology::MachineModel;

use crate::gen::{self, InputDigest, ZipfSpec};
use crate::layers;
use crate::measure::{Arm, Detail, JobRecord, PoolShares, Workload};
use crate::oracle::{self, Pairs};
use crate::report::{obj, Values};

/// The five workload names, in ledger order.
pub const NAMES: [&str; 5] = ["wc-zipf", "hg-dense", "synth-cpu", "km-iterate", "serve-small"];

/// Untimed repetitions of every arm before measuring starts (part of
/// `setup_s`): pools spawn, queues and tables reach their steady size.
const WARMUP_ROTATIONS: usize = 3;

/// Frozen input sizes, in elements.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// `wc-zipf`: the Zipf stream (10 words a line, ~400k pairs).
    wc: ZipfSpec,
    /// `hg-dense`: pixels (3 pairs each).
    hg_pixels: usize,
    /// `synth-cpu`: elements (2 pairs each).
    synth_elements: usize,
    /// `km-iterate`: points, clusters, rounds.
    km: (usize, usize, usize),
    /// `serve-small`: wire jobs each connection submits per slice, and the
    /// Table I scale divisor of the `wc`/`hwl`/`small` input.
    wire: (usize, u64),
}

const FULL: Sizes = Sizes {
    wc: ZipfSpec {
        lines: 40_000,
        words_per_line: 10,
        vocabulary: 200_000,
        exponent: 1.0,
        max_word_len: 14,
    },
    hg_pixels: 350_000,
    synth_elements: 24_576,
    km: (20_000, 16, 30),
    wire: (20, 20_000),
};

const SMOKE: Sizes = Sizes {
    wc: ZipfSpec {
        lines: 2_000,
        words_per_line: 10,
        vocabulary: 5_000,
        exponent: 1.0,
        max_word_len: 14,
    },
    hg_pixels: 20_000,
    synth_elements: 8_192,
    km: (2_000, 16, 5),
    wire: (3, 100_000),
};

/// What a run needs to know to set a workload up.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The only source of randomness for in-process inputs.
    pub seed: u64,
    /// Thread budget `T`.
    pub threads: usize,
    /// Tiny sizes (`--smoke`).
    pub smoke: bool,
    /// Also build what only the traced run uses (the telemetry-off arm).
    pub traced: bool,
}

impl Opts {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }

    fn arms(&self) -> Vec<Arm> {
        let mut arms = Arm::TIMED.to_vec();
        if self.traced {
            arms.push(Arm::StaticNoTelemetry);
        }
        arms
    }
}

/// What set-up learned about a workload, printed with every result.
#[derive(Debug, Clone)]
pub struct Info {
    /// One line on what was generated.
    pub sizing: String,
    /// Digest of the generated input.
    pub input_digest: String,
    /// `digest64(render_pairs(..))` of the oracle's output.
    pub oracle_digest: String,
    /// Wall time of the oracle's single-threaded fold, ms.
    pub serial_ms: f64,
    /// Pairs one job emits (one pipeline: all its rounds).
    pub pairs_per_job: u64,
    /// `mrsim`'s predicted (RAMR static, Phoenix) job time on the detected
    /// machine, ms.
    pub sim_ms: (f64, f64),
    /// Name of the root span of one job in the trace.
    pub root_span: &'static str,
    /// Untimed jobs (warm-up) attempted and failed so far.
    pub warmup: (u64, u64),
    /// The static arm's `RuntimeConfig`.
    pub config: RuntimeConfig,
}

/// A set-up workload: sliceable, and able to price its own layers.
pub trait Bench: Workload {
    /// What set-up learned.
    fn info(&self) -> &Info;

    /// The traced run's layer micro-measurements over this workload's own
    /// pair stream.
    ///
    /// # Errors
    ///
    /// A message when a layer cannot be measured or produces wrong output.
    fn layers(&mut self, values: &mut Values) -> Result<(), String>;
}

/// Sets `name` up: generates its input from `opts.seed`, folds the oracle,
/// builds sessions (or server and connections), and warms every arm.
///
/// # Errors
///
/// Names the unknown workload or the part of set-up that failed.
pub fn setup(name: &str, opts: &Opts) -> Result<Box<dyn Bench>, String> {
    let sizes = opts.sizes();
    match name {
        "wc-zipf" => {
            let lines = gen::zipf_lines(&sizes.wc, opts.seed);
            let digest = InputDigest::of_lines(&lines);
            let sizing = format!(
                "{} lines x {} words, Zipf({}) over {} words, hash container",
                sizes.wc.lines, sizes.wc.words_per_line, sizes.wc.exponent, sizes.wc.vocabulary
            );
            let profile = catalog::default_profile(AppKind::WordCount);
            SingleJob::setup(WordCount, lines, ContainerKind::Hash, opts, sizing, digest, profile)
        }
        "hg-dense" => {
            let pixels = gen::pixels(sizes.hg_pixels, opts.seed);
            let digest = InputDigest::of_pixels(&pixels);
            let sizing = format!("{} uniform pixels, 768-slot array container", sizes.hg_pixels);
            let profile = catalog::default_profile(AppKind::Histogram);
            SingleJob::setup(Histogram, pixels, ContainerKind::Array, opts, sizing, digest, profile)
        }
        "synth-cpu" => {
            let elements = gen::synth_elements(sizes.synth_elements, opts.seed);
            let digest = InputDigest::of_u64s(&elements);
            let spec = SynthSpec::new(KernelKind::Cpu, 25, KernelKind::Memory, 5);
            let sizing = format!(
                "{} elements, CPU map x{}, memory combine x{}, {SYNTH_KEY_SPACE} keys, array \
                 container",
                sizes.synth_elements, spec.map_intensity, spec.combine_intensity
            );
            let profile = spec.profile();
            SingleJob::setup(
                spec.job(),
                elements,
                ContainerKind::Array,
                opts,
                sizing,
                digest,
                profile,
            )
        }
        "km-iterate" => KmIterate::setup(sizes.km, opts),
        "serve-small" => ServeSmall::setup(sizes.wire, opts),
        other => Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    }
}

/// The `RuntimeConfig` of one arm: the thread budget split as the issue
/// fixes it (RAMR: `T - T/2` mappers + `T/2` combiners; Phoenix: `T`
/// workers), the app's default container, and shipped defaults otherwise.
fn config_for(arm: Arm, threads: usize, container: ContainerKind) -> Result<RuntimeConfig, String> {
    let (workers, combiners) = match arm.backend() {
        Backend::Phoenix => (threads, threads),
        _ => (threads - threads / 2, threads / 2),
    };
    RuntimeConfig::builder()
        .num_workers(workers)
        .num_combiners(combiners)
        .container(container)
        .telemetry(arm.telemetry())
        .build()
        .map_err(|e| format!("config for {arm:?}: {e}"))
}

/// `mrsim`'s prediction for the same job and thread split on the detected
/// machine — the model column of the paper / model / measured table.
fn sim_ms(profile: WorkloadProfile, elements: usize, keys: usize, threads: usize) -> (f64, f64) {
    let machine = MachineModel::detect();
    let threads = threads.min(machine.logical_cpus()).max(2);
    let job = SimJob { profile, input_elements: elements as u64, unique_keys: keys as u64 };
    let ramr = SimConfig {
        total_threads: threads,
        mappers: threads - threads / 2,
        combiners: threads / 2,
        ..SimConfig::ramr(machine.clone())
    };
    let phoenix = SimConfig { total_threads: threads, ..SimConfig::phoenix(machine) };
    (simulate(&job, &ramr).total_ns() / 1e6, simulate(&job, &phoenix).total_ns() / 1e6)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The four phase spans of one epoch, `depth` levels under the job's root.
fn phase_spans(depth: u8, phases_ms: [f64; 4]) -> impl Iterator<Item = (u8, &'static str, f64)> {
    ["partition", "map_combine", "reduce", "merge"]
        .into_iter()
        .zip(phases_ms)
        .map(move |(name, d)| (depth, name, d))
}

/// Runs `WARMUP_ROTATIONS` untimed rotations and tallies them.
fn warm_up(workload: &mut dyn Workload, arms: &[Arm]) -> (u64, u64) {
    let mut jobs = Vec::new();
    for _ in 0..WARMUP_ROTATIONS {
        for &arm in arms {
            workload.slice(arm, false, &mut jobs);
        }
    }
    (jobs.len() as u64, jobs.iter().filter(|j| !j.ok).count() as u64)
}

/// Timed submits one pooled session serves before it is replaced.
///
/// With pinning off (the shipped default) the OS places a session's mapper
/// and combiner threads once, and how their backoff sleeps then line up
/// makes the whole session ~15% faster or slower for as long as it lives.
/// A run that measured one session would report whichever mode it drew;
/// replacing the session every few submits makes every run sample the mix
/// of modes a user's sessions see, so its median is the typical session's.
const SESSION_SLICES: usize = 3;

/// One arm's pooled session and how many timed submits it has served.
struct Slot<J: MapReduceJob + 'static> {
    arm: Arm,
    config: RuntimeConfig,
    session: EngineSession<J>,
    served: usize,
}

/// `wc-zipf`, `hg-dense`, `synth-cpu`: one job, one warm
/// `EngineSession::submit` per slice.
struct SingleJob<J: MapReduceJob + 'static> {
    job: J,
    input: Vec<J::Input>,
    oracle: Pairs<J>,
    slots: Vec<Slot<J>>,
    epoch: Instant,
    info: Info,
}

impl<J> SingleJob<J>
where
    J: MapReduceJob + 'static,
    J::Value: PartialEq,
{
    fn setup(
        job: J,
        input: Vec<J::Input>,
        container: ContainerKind,
        opts: &Opts,
        sizing: String,
        input_digest: String,
        profile: WorkloadProfile,
    ) -> Result<Box<dyn Bench>, String> {
        let started = Instant::now();
        let oracle = oracle::fold(&job, &input);
        let serial_ms = ms(started.elapsed());
        let arms = opts.arms();
        let slots = arms
            .iter()
            .map(|&arm| {
                let config = config_for(arm, opts.threads, container)?;
                let session =
                    arm.backend().session::<J>(config.clone()).map_err(|e| e.to_string())?;
                Ok(Slot { arm, config, session, served: 0 })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let info = Info {
            sizing,
            input_digest,
            oracle_digest: digest64(&render_pairs(&oracle)),
            serial_ms,
            pairs_per_job: 0,
            sim_ms: sim_ms(profile, input.len(), oracle.len(), opts.threads),
            root_span: "job",
            warmup: (0, 0),
            config: config_for(Arm::Static, opts.threads, container)?,
        };
        let mut this = SingleJob { job, input, oracle, slots, epoch: Instant::now(), info };
        // The first job on every arm must also reproduce the oracle's digest
        // through the same rendering the wire uses.
        for slot in &mut this.slots {
            let outcome = slot.session.submit(&this.job, &this.input).map_err(|e| e.to_string())?;
            if digest64(&render_pairs(&outcome.output.pairs)) != this.info.oracle_digest {
                return Err(format!("{:?}: output digest differs from the oracle's", slot.arm));
            }
            this.info.pairs_per_job = outcome.output.stats.emitted;
        }
        this.info.warmup = warm_up(&mut this, &arms);
        Ok(Box::new(this))
    }
}

impl<J> Workload for SingleJob<J>
where
    J: MapReduceJob + 'static,
    J::Value: PartialEq,
{
    fn slice(&mut self, arm: Arm, detail: bool, out: &mut Vec<JobRecord>) -> f64 {
        let slot = self.slots.iter_mut().find(|s| s.arm == arm).expect("arm was set up");
        if slot.served == SESSION_SLICES {
            // A fresh pool, warmed by one untimed submit that is checked
            // like any other job.
            let warm = arm.backend().session::<J>(slot.config.clone()).and_then(|mut fresh| {
                let outcome = fresh.submit(&self.job, &self.input)?;
                slot.session = fresh;
                Ok(outcome.output.pairs == self.oracle)
            });
            self.info.warmup.0 += 1;
            self.info.warmup.1 += u64::from(!matches!(warm, Ok(true)));
            slot.served = 0;
        }
        slot.served += 1;
        let started = Instant::now();
        let outcome = slot.session.submit(&self.job, &self.input);
        let wall_ms = ms(started.elapsed());
        let start_ms = ms(started.duration_since(self.epoch));
        let record = match outcome {
            Err(_) => JobRecord { start_ms, wall_ms, ok: false, detail: None },
            Ok(outcome) => {
                let stats = &outcome.output.stats;
                let phases_ms =
                    [stats.partition, stats.map_combine, stats.reduce, stats.merge].map(ms);
                let detail = detail.then(|| Detail {
                    spans: phase_spans(1, phases_ms).collect(),
                    phases_ms,
                    emitted: stats.emitted,
                    output_keys: stats.output_keys,
                    pools: PoolShares::of(&outcome.report.threads),
                    adaptation: adaptation_of(&outcome.report),
                    ..Detail::default()
                });
                JobRecord { start_ms, wall_ms, ok: outcome.output.pairs == self.oracle, detail }
            }
        };
        out.push(record);
        wall_ms
    }
}

/// Ticks of the adaptive controller that acted, and the share of threads
/// mapping at its last tick.
fn adaptation_of(report: &ramr::EngineReport) -> Option<(u64, f64)> {
    let last = report.adaptation.last()?;
    let acted = report.adaptation.iter().filter(|e| e.acted()).count() as u64;
    let threads = (last.active_mappers + last.active_combiners).max(1);
    Some((acted, last.active_mappers as f64 / threads as f64))
}

impl<J> Bench for SingleJob<J>
where
    J: MapReduceJob + 'static,
    J::Value: PartialEq,
{
    fn info(&self) -> &Info {
        &self.info
    }

    fn layers(&mut self, values: &mut Values) -> Result<(), String> {
        layers::pair_path(&self.job, &self.input, &self.info.config, &self.oracle, values)
    }
}

/// `km-iterate`: one whole `Engine::pipeline` call per slice — a fresh
/// pooled session, then `rounds` tiny epochs over it.
struct KmIterate {
    points: Vec<Point>,
    clusters: usize,
    rounds: usize,
    oracle: Vec<(u32, ClusterAccum)>,
    engines: Vec<(Arm, AnyEngine)>,
    epoch: Instant,
    info: Info,
}

impl KmIterate {
    fn setup(
        (points, clusters, rounds): (usize, usize, usize),
        opts: &Opts,
    ) -> Result<Box<dyn Bench>, String> {
        let points = gen::lattice_points(points, opts.seed);
        let started = Instant::now();
        let oracle = oracle::kmeans(&points, clusters, rounds);
        let serial_ms = ms(started.elapsed());
        let arms = opts.arms();
        let engines = arms
            .iter()
            .map(|&arm| {
                let config = config_for(arm, opts.threads, ContainerKind::Array)?;
                Ok((arm, arm.backend().engine(config).map_err(|e| e.to_string())?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (static_ms, phoenix_ms) =
            sim_ms(catalog::default_profile(AppKind::Kmeans), points.len(), clusters, opts.threads);
        let info = Info {
            sizing: format!(
                "{} lattice points, {clusters} clusters, exactly {rounds} rounds per pipeline",
                points.len()
            ),
            input_digest: InputDigest::of_points(&points),
            oracle_digest: digest64(&render_pairs(&oracle)),
            serial_ms,
            pairs_per_job: (points.len() * rounds) as u64,
            sim_ms: (static_ms * rounds as f64, phoenix_ms * rounds as f64),
            root_span: "pipeline",
            warmup: (0, 0),
            config: config_for(Arm::Static, opts.threads, ContainerKind::Array)?,
        };
        let mut this =
            KmIterate { points, clusters, rounds, oracle, engines, epoch: Instant::now(), info };
        this.info.warmup = warm_up(&mut this, &arms);
        Ok(Box::new(this))
    }
}

impl Workload for KmIterate {
    fn slice(&mut self, arm: Arm, detail: bool, out: &mut Vec<JobRecord>) -> f64 {
        let engine = &self.engines.iter().find(|(a, _)| *a == arm).expect("arm was set up").1;
        let mut state = KmeansState::seeded(&self.points, self.clusters);
        // The step never converges (residual = inf), so the round cap, not
        // the data, fixes the work: exactly `rounds` epochs every time.
        let plan = Pipeline::iterate(state.job(), move |job: &mut KmeansJob, round| {
            state.step(&round.pairs);
            *job = state.job();
            f64::INFINITY
        })
        .rounds(self.rounds);
        let started = Instant::now();
        let outcome = engine.pipeline(plan, &self.points);
        let wall_ms = ms(started.elapsed());
        let start_ms = ms(started.duration_since(self.epoch));
        let record = match outcome {
            Err(_) => JobRecord { start_ms, wall_ms, ok: false, detail: None },
            Ok(outcome) => {
                let stages = &outcome.report.stages;
                let ok = outcome.output.pairs == self.oracle && stages.len() == self.rounds;
                let detail = detail.then(|| {
                    // Phase durations come back for the last round only;
                    // busy/stall shares are pooled over every round.
                    let stats = &outcome.output.stats;
                    let threads: Vec<_> =
                        stages.iter().flat_map(|s| s.report.threads.iter().cloned()).collect();
                    let staged_ms: f64 = stages.iter().map(|s| ms(s.elapsed)).sum();
                    Detail {
                        spans: stages.iter().map(|s| (1, "stage", ms(s.elapsed))).collect(),
                        phases_ms: [stats.partition, stats.map_combine, stats.reduce, stats.merge]
                            .map(ms),
                        emitted: stats.emitted,
                        output_keys: stats.output_keys,
                        pools: PoolShares::of(&threads),
                        adaptation: stages.last().and_then(|s| adaptation_of(&s.report)),
                        stages: Some((staged_ms, stages.len())),
                        ..Detail::default()
                    }
                });
                JobRecord { start_ms, wall_ms, ok, detail }
            }
        };
        out.push(record);
        wall_ms
    }
}

impl Bench for KmIterate {
    fn info(&self) -> &Info {
        &self.info
    }

    fn layers(&mut self, values: &mut Values) -> Result<(), String> {
        // Round one's job: every later round has the same shape.
        let job = KmeansState::seeded(&self.points, self.clusters).job();
        let oracle = oracle::fold(&job, &self.points);
        layers::pair_path(&job, &self.points, &self.info.config, &oracle, values)
    }
}

/// `serve-small`: an in-process server, `T` closed-loop connections
/// (distinct tenants), each submitting a fixed count of small `wc` jobs
/// back to back per slice.
struct ServeSmall {
    server: Option<Server>,
    clients: Vec<ServeClient>,
    threads: usize,
    jobs_per_slice: usize,
    scale: u64,
    input: Arc<Vec<String>>,
    oracle: Pairs<WordCount>,
    epoch: Instant,
    info: Info,
}

impl ServeSmall {
    fn setup((jobs_per_slice, scale): (usize, u64), opts: &Opts) -> Result<Box<dyn Bench>, String> {
        // The server generates wire inputs itself from the Table I spec; the
        // oracle folds the same generator's output. `--seed` cannot reach it.
        let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
        let input = Arc::new(wc_input(&spec, scale));
        let started = Instant::now();
        let oracle = oracle::fold(&WordCount, &input);
        let serial_ms = ms(started.elapsed());

        let base = config_for(Arm::Static, opts.threads, ContainerKind::Hash)?;
        let mut config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
        config.base = config
            .base
            .into_builder()
            .num_workers(base.num_workers)
            .num_combiners(base.num_combiners)
            .build()
            .map_err(|e| e.to_string())?;
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let clients = (0..opts.threads)
            .map(|i| ServeClient::connect(&addr, &format!("tenant-{i}"), None))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;

        let info = Info {
            sizing: format!(
                "{} connections x {jobs_per_slice} wc/hwl/small/scale={scale} jobs per slice \
                 ({} lines each), closed loop; --seed does not reach this workload",
                opts.threads,
                input.len()
            ),
            input_digest: InputDigest::of_lines(&input),
            oracle_digest: digest64(&render_pairs(&oracle)),
            serial_ms,
            pairs_per_job: oracle.iter().map(|(_, count)| count).sum(),
            sim_ms: sim_ms(
                catalog::default_profile(AppKind::WordCount),
                input.len(),
                oracle.len(),
                opts.threads,
            ),
            root_span: "wire_job",
            warmup: (0, 0),
            config: base,
        };
        let mut this = ServeSmall {
            server: Some(server),
            clients,
            threads: opts.threads,
            jobs_per_slice,
            scale,
            input,
            oracle,
            epoch: Instant::now(),
            info,
        };
        this.info.warmup = warm_up(&mut this, &opts.arms());
        Ok(Box::new(this))
    }

    /// The `SUBMIT` of one arm. Each distinct (backend, knob set) gets its
    /// own pool server-side; the four arms fit `max_pools`' default of 4.
    fn request(&self, arm: Arm) -> JobRequest {
        let mut request = JobRequest::new("wc");
        request.scale = self.scale;
        request.backend = Some(arm.backend().as_str().to_string());
        match arm {
            Arm::Phoenix => request.knobs.push(("workers".into(), self.threads.to_string())),
            Arm::StaticNoTelemetry => request.knobs.push(("telemetry".into(), "0".into())),
            Arm::Static | Arm::Adaptive => {}
        }
        request
    }
}

/// One wire job's record, from the client's clock and the `JobResult`.
fn wire_record(
    result: Result<JobResult, ramr_serve::ServeError>,
    start_ms: f64,
    wall_ms: f64,
    oracle_digest: &str,
    detail: bool,
) -> JobRecord {
    let Ok(result) = result else {
        return JobRecord { start_ms, wall_ms, ok: false, detail: None };
    };
    let ok = result.digest == oracle_digest;
    let detail = detail
        .then(|| MetricsReport::from_json(&result.metrics.to_json()).ok())
        .flatten()
        .map(|report| {
            let phases_ms = report.phase_ns.map(|ns| ns as f64 / 1e6);
            let mut spans = vec![(1, "queued", result.queued_ms), (1, "ran", result.ran_ms)];
            spans.extend(phase_spans(2, phases_ms));
            Detail {
                spans,
                phases_ms,
                emitted: report.emitted,
                output_keys: result.keys,
                pools: PoolShares::of(&report.threads),
                wire: Some((result.queued_ms, result.ran_ms, result.sheds)),
                ..Detail::default()
            }
        });
    JobRecord { start_ms, wall_ms, ok, detail }
}

impl Workload for ServeSmall {
    fn slice(&mut self, arm: Arm, detail: bool, out: &mut Vec<JobRecord>) -> f64 {
        let request = self.request(arm);
        let (epoch, jobs, digest) = (self.epoch, self.jobs_per_slice, &self.info.oracle_digest);
        let started = Instant::now();
        let records: Vec<Vec<JobRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let request = &request;
                    scope.spawn(move || {
                        (0..jobs)
                            .map(|_| {
                                let sent = Instant::now();
                                let result = client.run_job(request);
                                let wall_ms = ms(sent.elapsed());
                                let start_ms = ms(sent.duration_since(epoch));
                                wire_record(result, start_ms, wall_ms, digest, detail)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load generator panicked")).collect()
        });
        let wall_ms = ms(started.elapsed());
        out.extend(records.into_iter().flatten());
        wall_ms
    }
}

impl Drop for ServeSmall {
    fn drop(&mut self) {
        // Close the connections first so the server's drain has nothing to
        // wait for, then stop it and join its threads.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
    }
}

impl Bench for ServeSmall {
    fn info(&self) -> &Info {
        &self.info
    }

    fn layers(&mut self, values: &mut Values) -> Result<(), String> {
        let config = self.info.config.clone();
        layers::pair_path(&WordCount, &self.input, &config, &self.oracle, values)?;

        // A real CompletedJob, through the same scheduler type the server
        // wraps, to price what the waiter thread does with it.
        let sched = JobScheduler::<WordCount>::new(Backend::RamrStatic, config.clone())
            .map_err(|e| e.to_string())?;
        let done = sched
            .client("bench")
            .submit(Arc::new(WordCount), Arc::clone(&self.input))
            .and_then(|ticket| ticket.wait())
            .map_err(|e| e.to_string())?;
        const REPS: usize = 200;
        let mut outcome = outcome_of("wc", Backend::RamrStatic, &config, &done, false);
        values.put(
            "outcome_of_us",
            "us",
            layers::median_us(REPS, || {
                outcome = outcome_of("wc", Backend::RamrStatic, &config, &done, false);
            }),
        );
        values.put(
            "render_digest_us",
            "us",
            layers::median_us(REPS, || {
                std::hint::black_box(digest64(&render_pairs(&done.output.pairs)));
            }),
        );

        // The frames of one job, rebuilt member for member: the SUBMIT the
        // client writes and the RESULT the server answers with.
        let request = self.request(Arm::Static);
        let submit = obj(&[
            ("type", Value::Str("SUBMIT".into())),
            ("id", Value::Num(1.0)),
            ("request_id", Value::Str("tenant-0-17f2a9c3d4e5b6a7-1".into())),
            ("app", Value::Str(request.app.clone())),
            ("platform", Value::Str(request.platform.clone())),
            ("flavor", Value::Str(request.flavor.clone())),
            ("scale", Value::Num(request.scale as f64)),
            ("backend", Value::Str(request.backend.clone().unwrap_or_default())),
            ("knobs", obj(&[])),
        ]);
        let result = obj(&[
            ("type", Value::Str("RESULT".into())),
            ("id", Value::Num(1.0)),
            ("request_id", Value::Str("tenant-0-17f2a9c3d4e5b6a7-1".into())),
            ("keys", Value::Num(outcome.keys as f64)),
            ("digest", Value::Str(outcome.digest.clone())),
            ("queued_ms", Value::Num(outcome.queued_ms)),
            ("ran_ms", Value::Num(outcome.ran_ms)),
            ("metrics", outcome.metrics.clone()),
        ]);
        let max_frame = ServeConfig::default().max_frame;
        let mut wire = Vec::new();
        let mut codec_failed = false;
        let codec_us = layers::median_us(REPS, || {
            for frame in [&submit, &result] {
                wire.clear();
                codec_failed |= write_frame(&mut wire, frame, max_frame).is_err();
                let read = read_frame(&mut std::io::Cursor::new(&wire), max_frame);
                codec_failed |= !matches!(read, Ok(Some(_)));
            }
        });
        if codec_failed {
            return Err("a frame did not survive write_frame + read_frame".into());
        }
        values.put("frame_codec_us", "us", codec_us);
        values.put("result_frame_bytes", "bytes", result.to_json().len() as f64);

        // A request that runs no job: the floor under every wire latency.
        let client = self.clients.first_mut().ok_or("no connection")?;
        let mut rtt_failed = false;
        let rtt_us = layers::median_us(REPS, || rtt_failed |= client.metrics().is_err());
        if rtt_failed {
            return Err("a METRICS round trip failed".into());
        }
        values.put("loopback_rtt_us", "us", rtt_us);
        Ok(())
    }
}
