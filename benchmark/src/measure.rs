//! The measuring loop shared by all five workloads, and the span recorder.
//!
//! A workload exposes one operation: run a *slice* on an *arm*. A slice is
//! the smallest unit that exercises the system the way its callers do — one
//! `submit` for the in-process workloads, one whole `Engine::pipeline` call
//! for `km-iterate`, `T` clients × a fixed count of wire jobs for
//! `serve-small`. The loop rotates the arms slice by slice so machine drift
//! hits every backend alike, and only ever stops after a whole rotation so
//! every arm does the same number of slices.

use std::time::Instant;

use ramr::Backend;
use ramr_telemetry::json::Value;
use ramr_telemetry::{ThreadRole, ThreadTelemetry};

use crate::report::obj;

/// One configuration a job runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// `Backend::RamrStatic`, shipped defaults.
    Static,
    /// `Backend::RamrAdaptive`, shipped defaults.
    Adaptive,
    /// `Backend::Phoenix`, shipped defaults.
    Phoenix,
    /// `Backend::RamrStatic` with `config.telemetry` off — the denominator
    /// of `telemetry_overhead_frac`; traced runs only.
    StaticNoTelemetry,
}

impl Arm {
    /// The three arms of a timed run, in rotation order.
    pub const TIMED: [Arm; 3] = [Arm::Static, Arm::Adaptive, Arm::Phoenix];

    /// The backend this arm executes on.
    pub fn backend(self) -> Backend {
        match self {
            Arm::Static | Arm::StaticNoTelemetry => Backend::RamrStatic,
            Arm::Adaptive => Backend::RamrAdaptive,
            Arm::Phoenix => Backend::Phoenix,
        }
    }

    /// Whether `config.telemetry` stays on (the shipped default).
    pub fn telemetry(self) -> bool {
        self != Arm::StaticNoTelemetry
    }
}

/// Per-pool shares of one job, from the per-thread telemetry the library
/// returns: busy and stalled time as a share of the pool's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolShares {
    /// Mapper (or Phoenix worker) busy share.
    pub mapper_busy: f64,
    /// Mapper stalled share — blocked pushing into a full SPSC queue.
    pub mapper_stall: f64,
    /// Combiner busy share.
    pub combiner_busy: f64,
    /// Combiner stalled share — polling empty queues.
    pub combiner_stall: f64,
    /// Failed pushes on full queues, summed over mappers (the runtime's
    /// own definition of `PhaseStats::queue_full_events`).
    pub queue_full: u64,
}

impl PoolShares {
    /// Aggregates per-thread telemetry into per-pool shares.
    pub fn of(threads: &[ThreadTelemetry]) -> PoolShares {
        let share = |role: fn(ThreadRole) -> bool, part: fn(&ThreadTelemetry) -> f64| {
            let (num, den) = threads
                .iter()
                .filter(|t| role(t.role))
                .fold((0.0, 0.0), |(n, d), t| (n + part(t), d + t.wall.as_secs_f64()));
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        };
        let mapper = |r| matches!(r, ThreadRole::Mapper | ThreadRole::Worker);
        let combiner = |r| matches!(r, ThreadRole::Combiner);
        PoolShares {
            mapper_busy: share(mapper, |t| t.busy.as_secs_f64()),
            mapper_stall: share(mapper, |t| t.stalled.as_secs_f64()),
            combiner_busy: share(combiner, |t| t.busy.as_secs_f64()),
            combiner_stall: share(combiner, |t| t.stalled.as_secs_f64()),
            queue_full: threads
                .iter()
                .filter(|t| t.role == ThreadRole::Mapper)
                .map(|t| t.stall_events)
                .sum(),
        }
    }
}

/// What a traced job records beyond its wall time, all of it read from the
/// values the library returned.
#[derive(Debug, Clone, Default)]
pub struct Detail {
    /// Child spans in pre-order as `(depth, name, duration ms)`; depth 1 is
    /// a direct child of the job's root span. Siblings are laid out back to
    /// back from their parent's start.
    pub spans: Vec<(u8, &'static str, f64)>,
    /// `[partition, map_combine, reduce, merge]` in ms.
    pub phases_ms: [f64; 4],
    /// Pairs emitted by map functions.
    pub emitted: u64,
    /// Distinct keys in the output.
    pub output_keys: u64,
    /// Pool busy/stall shares.
    pub pools: PoolShares,
    /// Adaptive controller: ticks that acted, and the share of threads
    /// mapping at the last tick.
    pub adaptation: Option<(u64, f64)>,
    /// Wire jobs: `(queued_ms, ran_ms, sheds)` from the `JobResult`.
    pub wire: Option<(f64, f64, u64)>,
    /// Pipelines: Σ `StageReport.elapsed` in ms and the round count.
    pub stages: Option<(f64, usize)>,
}

/// One job as its caller saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Start, in ms since the workload was set up.
    pub start_ms: f64,
    /// Caller-visible wall time in ms.
    pub wall_ms: f64,
    /// Returned `Ok` with output identical to the oracle's.
    pub ok: bool,
    /// Traced detail, when asked for.
    pub detail: Option<Detail>,
}

/// One of the five workloads, set up and warm.
pub trait Workload {
    /// Runs one slice on `arm`, appending one record per job, and returns
    /// the slice's wall time in ms.
    fn slice(&mut self, arm: Arm, detail: bool, out: &mut Vec<JobRecord>) -> f64;
}

/// How long a measuring loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rotations until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many rotations (`--smoke`).
    Rotations(usize),
}

/// What one arm accumulated over a measuring loop.
#[derive(Debug, Default)]
pub struct ArmSamples {
    /// Every job of every slice.
    pub jobs: Vec<JobRecord>,
    /// Σ slice wall time in ms.
    pub busy_ms: f64,
}

impl ArmSamples {
    /// The jobs' wall times.
    pub fn walls(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall_ms).collect()
    }
}

/// Rotates `arms` slice by slice until `budget` is spent. `arms` pairs each
/// arm with whether its jobs record [`Detail`]; the same arm may appear
/// twice (traced runs time the static arm with and without detail).
pub fn rotate(
    workload: &mut dyn Workload,
    arms: &[(Arm, bool)],
    budget: Budget,
) -> Vec<ArmSamples> {
    let mut samples: Vec<ArmSamples> = arms.iter().map(|_| ArmSamples::default()).collect();
    let started = Instant::now();
    let mut rotations = 0usize;
    loop {
        let done = match budget {
            Budget::Seconds(s) => rotations > 0 && started.elapsed().as_secs_f64() >= s,
            Budget::Rotations(n) => rotations >= n,
        };
        if done {
            return samples;
        }
        for (&(arm, detail), into) in arms.iter().zip(samples.iter_mut()) {
            into.busy_ms += workload.slice(arm, detail, &mut into.jobs);
        }
        rotations += 1;
    }
}

/// In-memory span store for the traced run, written out once at exit.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Value>,
    next_id: u64,
    jobs: u64,
}

impl Tracer {
    fn push(&mut self, job: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(obj(&[
            ("id", Value::Num(id as f64)),
            ("parent", parent.map_or(Value::Null, |p| Value::Num(p as f64))),
            ("job", Value::Num(job as f64)),
            ("name", Value::Str(name.to_string())),
            ("start_ms", Value::Num(start)),
            ("end_ms", Value::Num(end)),
        ]));
        id
    }

    /// Records one job as a span tree: a root named `root` (carrying the
    /// arm) with the record's child spans laid out from the returned phase
    /// durations. Every span of the job shares the job id.
    pub fn record(&mut self, root: &str, arm: Arm, rec: &JobRecord) {
        let Some(detail) = &rec.detail else { return };
        let job = self.jobs;
        self.jobs += 1;
        let name = format!("{root}[{}]", arm.backend());
        let root_id = self.push(job, None, &name, rec.start_ms, rec.start_ms + rec.wall_ms);
        // (span id, where its next child starts), indexed by depth.
        let mut stack = vec![(root_id, rec.start_ms)];
        for &(depth, child, ms) in &detail.spans {
            stack.truncate(usize::from(depth));
            let (parent, cursor) = *stack.last().expect("depth >= 1 keeps the root");
            let id = self.push(job, Some(parent), child, cursor, cursor + ms);
            stack.last_mut().expect("non-empty").1 = cursor + ms;
            stack.push((id, cursor));
        }
    }

    /// Number of jobs recorded.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// The whole trace as one JSON document.
    pub fn into_json(self, workload: &str) -> Value {
        obj(&[
            ("workload", Value::Str(workload.to_string())),
            ("unit", Value::Str("ms since set-up".to_string())),
            ("jobs", Value::Num(self.jobs as f64)),
            ("spans", Value::Arr(self.spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(Vec<Arm>);

    impl Workload for Fake {
        fn slice(&mut self, arm: Arm, _detail: bool, out: &mut Vec<JobRecord>) -> f64 {
            self.0.push(arm);
            out.push(JobRecord { start_ms: 0.0, wall_ms: 1.0, ok: true, detail: None });
            1.0
        }
    }

    #[test]
    fn rotation_gives_every_arm_the_same_number_of_slices() {
        let mut fake = Fake(Vec::new());
        let arms: Vec<(Arm, bool)> = Arm::TIMED.iter().map(|&a| (a, false)).collect();
        let samples = rotate(&mut fake, &arms, Budget::Rotations(4));
        assert!(samples.iter().all(|s| s.jobs.len() == 4 && s.busy_ms == 4.0));
        assert_eq!(&fake.0[..4], &[Arm::Static, Arm::Adaptive, Arm::Phoenix, Arm::Static]);
        // A zero-second budget still measures one whole rotation.
        let samples = rotate(&mut fake, &arms, Budget::Seconds(0.0));
        assert!(samples.iter().all(|s| s.jobs.len() == 1));
    }

    #[test]
    fn spans_nest_by_depth_and_siblings_run_back_to_back() {
        let mut tracer = Tracer::default();
        let detail = Detail {
            spans: vec![(1, "queued", 2.0), (1, "ran", 5.0), (2, "map_combine", 4.0)],
            ..Detail::default()
        };
        let rec = JobRecord { start_ms: 10.0, wall_ms: 9.0, ok: true, detail: Some(detail) };
        tracer.record("wire_job", Arm::Static, &rec);
        let doc = tracer.into_json("w");
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
        let field = |i: usize, k: &str| spans[i].get(k).cloned().expect("field");
        assert_eq!(spans.len(), 4);
        assert_eq!(field(0, "name"), Value::Str("wire_job[ramr-static]".into()));
        assert_eq!(field(1, "start_ms"), Value::Num(10.0));
        assert_eq!(field(2, "start_ms"), Value::Num(12.0), "ran starts where queued ended");
        assert_eq!(field(3, "parent"), field(2, "id"), "map_combine nests under ran");
        assert_eq!(field(3, "start_ms"), Value::Num(12.0));
        assert!(spans.iter().all(|s| s.get("job") == Some(&Value::Num(0.0))));
    }
}
