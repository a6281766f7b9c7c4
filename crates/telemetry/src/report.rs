//! The serializable whole-run metrics dump (`ramr … --metrics-json`).

use std::collections::BTreeMap;
use std::time::Duration;

use crate::faults::{FaultMetrics, SkippedTask};
use crate::json::{self, Value};
use crate::{
    combine_throughput, pool_throughput, BatchHistogram, ThreadRole, ThreadTelemetry,
    OCCUPANCY_BUCKETS,
};

/// Everything a tuning session needs from one run, in one flat structure:
/// the configuration knobs that shaped it, the phase wall-clocks, the
/// conservation counters, per-thread telemetry, and the derived
/// throughput/ratio suggestion. Round-trips through JSON via
/// [`to_json`](Self::to_json) / [`from_json`](Self::from_json).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Application name (e.g. `wc`).
    pub app: String,
    /// Which runtime produced the numbers (`ramr` or `phoenix`).
    pub runtime: String,
    /// General-purpose (mapper) pool size.
    pub workers: u64,
    /// Combiner pool size.
    pub combiners: u64,
    /// Combiner-side batched-read size.
    pub batch_size: u64,
    /// Mapper-side emit-buffer block size actually in effect.
    pub emit_buffer: u64,
    /// Per-mapper SPSC queue capacity.
    pub queue_capacity: u64,
    /// Phase wall-clocks in nanoseconds:
    /// `[partition, map_combine, reduce, merge]`.
    pub phase_ns: [u64; 4],
    /// Total pairs emitted by the mapper side.
    pub emitted: u64,
    /// Total pairs folded into containers: read from a queue by the combiner
    /// side, plus what combiners mapped in place ([`helped`](Self::helped))
    /// and what mappers folded themselves ([`spilled`](Self::spilled)).
    /// Equals [`emitted`](Self::emitted) on every run that returns.
    pub consumed: u64,
    /// The part of [`consumed`](Self::consumed) mappers folded themselves
    /// instead of queueing them for a combiner that was behind. Reports
    /// written before mappers could spill parse as zero.
    pub spilled: u64,
    /// The part of [`consumed`](Self::consumed) combiners emitted in place,
    /// from map tasks they ran while they had nothing to read. Reports
    /// written before this count was recorded parse as zero.
    pub helped: u64,
    /// Per-thread telemetry, mappers first, then combiners (or baseline
    /// workers).
    pub threads: Vec<ThreadTelemetry>,
    /// Fault accounting (retries, skipped poison tasks, suppressed errors,
    /// watchdog firings). All-zero/empty on a clean run; reports written
    /// before fault tolerance existed parse as clean.
    pub faults: FaultMetrics,
}

impl MetricsReport {
    /// Aggregate mapper-side throughput (pairs per busy second, spill folds
    /// left out); see [`pool_throughput`].
    pub fn map_throughput(&self) -> Option<f64> {
        pool_throughput(&self.role_threads(ThreadRole::Mapper))
    }

    /// Aggregate combine throughput (pairs per busy second), the
    /// [`spilled`](Self::spilled) pairs counted in; see
    /// [`combine_throughput`].
    pub fn combine_throughput(&self) -> Option<f64> {
        combine_throughput(&self.threads, self.spilled)
    }

    /// The paper's throughput-driven mapper:combiner ratio suggestion;
    /// `None` until both pools recorded busy time.
    pub fn suggested_ratio(&self) -> Option<usize> {
        Some(crate::suggested_ratio(self.map_throughput()?, self.combine_throughput()?))
    }

    fn role_threads(&self, role: ThreadRole) -> Vec<ThreadTelemetry> {
        self.threads.iter().filter(|t| t.role == role).cloned().collect()
    }

    /// Serializes the report to JSON text: [`to_value`](Self::to_value)
    /// written out.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The report as a JSON tree, for embedding in a larger document
    /// without a text round trip.
    pub fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("app".into(), Value::Str(self.app.clone()));
        obj.insert("runtime".into(), Value::Str(self.runtime.clone()));
        obj.insert("workers".into(), num(self.workers));
        obj.insert("combiners".into(), num(self.combiners));
        obj.insert("batch_size".into(), num(self.batch_size));
        obj.insert("emit_buffer".into(), num(self.emit_buffer));
        obj.insert("queue_capacity".into(), num(self.queue_capacity));
        let phases: BTreeMap<String, Value> = ["partition", "map_combine", "reduce", "merge"]
            .iter()
            .zip(self.phase_ns.iter())
            .map(|(name, &ns)| (format!("{name}_ns"), num(ns)))
            .collect();
        obj.insert("phases".into(), Value::Obj(phases));
        obj.insert("emitted".into(), num(self.emitted));
        obj.insert("consumed".into(), num(self.consumed));
        obj.insert("spilled".into(), num(self.spilled));
        obj.insert("helped".into(), num(self.helped));
        obj.insert("threads".into(), Value::Arr(self.threads.iter().map(thread_json).collect()));
        obj.insert("faults".into(), faults_json(&self.faults));
        // Derived values are included for human readers / external tools;
        // from_json ignores them (they re-derive from the threads).
        if let Some(tp) = self.map_throughput() {
            obj.insert("map_throughput_pairs_per_sec".into(), Value::Num(tp));
        }
        if let Some(tp) = self.combine_throughput() {
            obj.insert("combine_throughput_pairs_per_sec".into(), Value::Num(tp));
        }
        if let Some(r) = self.suggested_ratio() {
            obj.insert("suggested_ratio".into(), num(r as u64));
        }
        Value::Obj(obj)
    }

    /// Deserializes a report produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let phases = root.get("phases").ok_or("missing field phases")?;
        let mut phase_ns = [0u64; 4];
        for (slot, name) in phase_ns.iter_mut().zip(["partition", "map_combine", "reduce", "merge"])
        {
            *slot = field_u64(phases, &format!("{name}_ns"))?;
        }
        let threads = root
            .get("threads")
            .and_then(Value::as_arr)
            .ok_or("missing or non-array field threads")?
            .iter()
            .map(thread_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // Reports predating spilling mappers or helping combiners have no
        // count of those routes: zero.
        let optional = |key| match root.get(key) {
            Some(_) => field_u64(&root, key),
            None => Ok(0),
        };
        // Reports predating fault tolerance have no faults section: clean.
        let faults = match root.get("faults") {
            Some(v) => faults_from_json(v)?,
            None => FaultMetrics::default(),
        };
        Ok(MetricsReport {
            app: field_str(&root, "app")?,
            runtime: field_str(&root, "runtime")?,
            workers: field_u64(&root, "workers")?,
            combiners: field_u64(&root, "combiners")?,
            batch_size: field_u64(&root, "batch_size")?,
            emit_buffer: field_u64(&root, "emit_buffer")?,
            queue_capacity: field_u64(&root, "queue_capacity")?,
            phase_ns,
            emitted: field_u64(&root, "emitted")?,
            consumed: field_u64(&root, "consumed")?,
            spilled: optional("spilled")?,
            helped: optional("helped")?,
            threads,
            faults,
        })
    }
}

fn faults_json(faults: &FaultMetrics) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("retries".into(), num(faults.retries));
    obj.insert("suppressed_errors".into(), num(faults.suppressed_errors));
    obj.insert("watchdog_fired".into(), Value::Bool(faults.watchdog_fired));
    let skipped = faults
        .skipped
        .iter()
        .map(|s| {
            let mut t = BTreeMap::new();
            t.insert("task_id".into(), num(s.task_id as u64));
            t.insert("start".into(), num(s.start as u64));
            t.insert("end".into(), num(s.end as u64));
            t.insert("attempts".into(), num(u64::from(s.attempts)));
            t.insert("message".into(), Value::Str(s.message.clone()));
            Value::Obj(t)
        })
        .collect();
    obj.insert("skipped".into(), Value::Arr(skipped));
    Value::Obj(obj)
}

fn faults_from_json(v: &Value) -> Result<FaultMetrics, String> {
    let skipped = v
        .get("skipped")
        .and_then(Value::as_arr)
        .ok_or("missing or non-array faults.skipped")?
        .iter()
        .map(|s| {
            Ok(SkippedTask {
                task_id: field_u64(s, "task_id")? as usize,
                start: field_u64(s, "start")? as usize,
                end: field_u64(s, "end")? as usize,
                attempts: field_u64(s, "attempts")? as u32,
                message: field_str(s, "message")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FaultMetrics {
        retries: field_u64(v, "retries")?,
        suppressed_errors: field_u64(v, "suppressed_errors")?,
        watchdog_fired: v
            .get("watchdog_fired")
            .and_then(Value::as_bool)
            .ok_or("missing or non-boolean faults.watchdog_fired")?,
        skipped,
    })
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer field {key}"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key}"))
}

fn thread_json(t: &ThreadTelemetry) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("role".into(), Value::Str(t.role.as_str().into()));
    obj.insert("index".into(), num(t.index as u64));
    obj.insert("busy_ns".into(), num(ns(t.busy)));
    obj.insert("stalled_ns".into(), num(ns(t.stalled)));
    obj.insert("spill_ns".into(), num(ns(t.spill)));
    obj.insert("wall_ns".into(), num(ns(t.wall)));
    obj.insert("items".into(), num(t.items));
    obj.insert("stall_events".into(), num(t.stall_events));
    obj.insert("batches".into(), num(t.batches));
    obj.insert(
        "occupancy".into(),
        Value::Arr(t.occupancy.buckets.iter().map(|&b| num(b)).collect()),
    );
    Value::Obj(obj)
}

fn thread_from_json(v: &Value) -> Result<ThreadTelemetry, String> {
    let role_name = field_str(v, "role")?;
    let role =
        ThreadRole::parse(&role_name).ok_or_else(|| format!("unknown role {role_name:?}"))?;
    let occupancy_values =
        v.get("occupancy").and_then(Value::as_arr).ok_or("missing or non-array occupancy")?;
    if occupancy_values.len() != OCCUPANCY_BUCKETS {
        return Err(format!(
            "occupancy has {} buckets, expected {OCCUPANCY_BUCKETS}",
            occupancy_values.len()
        ));
    }
    let mut occupancy = BatchHistogram::default();
    for (bucket, value) in occupancy.buckets.iter_mut().zip(occupancy_values) {
        *bucket = value.as_u64().ok_or("non-integer occupancy bucket")?;
    }
    Ok(ThreadTelemetry {
        role,
        index: field_u64(v, "index")? as usize,
        busy: Duration::from_nanos(field_u64(v, "busy_ns")?),
        stalled: Duration::from_nanos(field_u64(v, "stalled_ns")?),
        // Reports predating timed spill folds have none: zero.
        spill: Duration::from_nanos(match v.get("spill_ns") {
            Some(_) => field_u64(v, "spill_ns")?,
            None => 0,
        }),
        wall: Duration::from_nanos(field_u64(v, "wall_ns")?),
        items: field_u64(v, "items")?,
        stall_events: field_u64(v, "stall_events")?,
        batches: field_u64(v, "batches")?,
        occupancy,
    })
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Renders the per-thread breakdown table the CLI prints: one row per
/// thread with busy/stall shares, items, throughput, and batch fullness.
pub fn breakdown_table(threads: &[ThreadTelemetry]) -> String {
    let mut out = String::new();
    out.push_str(
        "  thread        busy(ms)  stall(ms)   busy%  stall%        items  pairs/s   full-batch\n",
    );
    for t in threads {
        let throughput = match t.throughput() {
            Some(tp) if tp >= 1e6 => format!("{:.1}M", tp / 1e6),
            Some(tp) if tp >= 1e3 => format!("{:.1}k", tp / 1e3),
            Some(tp) => format!("{tp:.0}"),
            None => "-".to_string(),
        };
        let full = if t.batches > 0 {
            format!("{:.0}%", 100.0 * t.occupancy.full_fraction())
        } else {
            "-".to_string()
        };
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "  {:<12}{:>10.1}{:>11.1}{:>8.0}{:>8.0}{:>13}{:>9}{:>13}",
            format!("{}[{}]", t.role, t.index),
            t.busy.as_secs_f64() * 1e3,
            t.stalled.as_secs_f64() * 1e3,
            100.0 * t.busy_fraction(),
            100.0 * t.stalled_fraction(),
            t.items,
            throughput,
            full,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let mut occupancy = BatchHistogram::default();
        occupancy.record(8, 8);
        occupancy.record(8, 8);
        occupancy.record(3, 8);
        let thread = |role, index, busy_ms, items| ThreadTelemetry {
            role,
            index,
            busy: Duration::from_millis(busy_ms),
            stalled: Duration::from_millis(busy_ms / 4),
            spill: Duration::ZERO,
            wall: Duration::from_millis(busy_ms + busy_ms / 4),
            items,
            stall_events: 5,
            batches: 3,
            occupancy,
        };
        MetricsReport {
            app: "wc".into(),
            runtime: "ramr".into(),
            workers: 2,
            combiners: 1,
            batch_size: 1000,
            emit_buffer: 1000,
            queue_capacity: 5000,
            phase_ns: [1_000, 80_000_000, 7_000_000, 500_000],
            emitted: 30_000,
            consumed: 30_000,
            spilled: 1_200,
            helped: 0,
            threads: vec![
                thread(ThreadRole::Mapper, 0, 40, 15_000),
                // Mapper 1 folded the 1 200 spilled pairs itself, in 10 ms.
                ThreadTelemetry {
                    spill: Duration::from_millis(10),
                    ..thread(ThreadRole::Mapper, 1, 40, 15_000)
                },
                thread(ThreadRole::Combiner, 0, 60, 28_800),
            ],
            faults: FaultMetrics::default(),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let text = report.to_json();
        let back = MetricsReport::from_json(&text).expect("round trip");
        assert_eq!(back, report);
        // Every route count survives, the in-place one too.
        let helping = MetricsReport { helped: 700, ..sample() };
        let text = helping.to_json();
        assert!(text.contains("\"helped\":700"), "{text}");
        assert_eq!(MetricsReport::from_json(&text).expect("round trip"), helping);
    }

    #[test]
    fn to_value_is_the_tree_to_json_writes() {
        let report = MetricsReport { helped: 700, ..sample() };
        assert_eq!(json::parse(&report.to_json()).expect("valid JSON"), report.to_value());
        assert_eq!(report.to_value().to_json(), report.to_json());
    }

    #[test]
    fn derived_fields_survive_the_round_trip() {
        let report = sample();
        let back = MetricsReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.map_throughput(), report.map_throughput());
        assert_eq!(back.combine_throughput(), report.combine_throughput());
        assert_eq!(back.suggested_ratio(), report.suggested_ratio());
        // Map: 30k pairs over 80 ms mapper busy less 10 ms of spill folds.
        // Combine: 28.8k queued pairs plus 1.2k spilled over 60 ms combiner
        // busy plus those 10 ms. Equal rates: ratio 1.
        let rate = 30_000.0 / 0.07;
        assert!((back.map_throughput().unwrap() - rate).abs() < 1e-6);
        assert!((back.combine_throughput().unwrap() - rate).abs() < 1e-6);
        assert_eq!(back.suggested_ratio(), Some(1));
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = MetricsReport::from_json("{}").unwrap_err();
        assert!(err.contains("phases"), "{err}");
        let mut report = sample();
        report.threads.clear();
        let text = report.to_json().replace("\"emitted\":30000,", "");
        assert!(MetricsReport::from_json(&text).unwrap_err().contains("emitted"));
    }

    #[test]
    fn faults_section_round_trips() {
        let mut report = sample();
        report.faults = FaultMetrics {
            retries: 4,
            suppressed_errors: 1,
            watchdog_fired: true,
            skipped: vec![SkippedTask {
                task_id: 3,
                start: 300,
                end: 400,
                attempts: 3,
                message: "synthetic panic: task 3".into(),
            }],
        };
        let back = MetricsReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
        assert_eq!(back.faults.skipped[0].message, "synthetic panic: task 3");
    }

    #[test]
    fn reports_without_faults_section_parse_as_clean() {
        // A pre-fault-tolerance dump must still load (forward compat).
        let report = sample();
        let text = report.to_json();
        assert!(text.contains("\"faults\""), "faults section must always be serialized");
        let legacy = text.replacen(
            "\"faults\":{\"retries\":0,\"skipped\":[],\"suppressed_errors\":0,\
             \"watchdog_fired\":false},",
            "",
            1,
        );
        assert_ne!(legacy, text, "the faults section should have been stripped");
        let back = MetricsReport::from_json(&legacy).expect("legacy dump parses");
        assert!(back.faults.is_clean());
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_a_spilled_count_parse_as_zero() {
        let report = MetricsReport { spilled: 0, ..sample() };
        let text = report.to_json();
        let legacy = text.replacen("\"spilled\":0,", "", 1);
        assert_ne!(legacy, text, "the spilled count should have been stripped");
        assert_eq!(MetricsReport::from_json(&legacy).expect("legacy dump parses"), report);
    }

    #[test]
    fn reports_without_a_helped_count_parse_as_zero() {
        let report = sample();
        let text = report.to_json();
        let legacy = text.replacen("\"helped\":0,", "", 1);
        assert_ne!(legacy, text, "the helped count should have been stripped");
        assert_eq!(MetricsReport::from_json(&legacy).expect("legacy dump parses"), report);
    }

    #[test]
    fn reports_without_spill_times_parse_as_zero() {
        let report = sample();
        let text = report.to_json();
        let legacy = text.replace("\"spill_ns\":0,", "").replace("\"spill_ns\":10000000,", "");
        assert!(!legacy.contains("spill_ns"), "every spill time should have been stripped");
        let back = MetricsReport::from_json(&legacy).expect("legacy dump parses");
        assert!(back.threads.iter().all(|t| t.spill.is_zero()));
        assert_eq!(back.threads[1].busy, report.threads[1].busy);
    }

    #[test]
    fn breakdown_table_lists_every_thread() {
        let table = breakdown_table(&sample().threads);
        assert!(table.contains("mapper[0]"), "{table}");
        assert!(table.contains("mapper[1]"), "{table}");
        assert!(table.contains("combiner[0]"), "{table}");
        // 2 of 3 recorded batches were full.
        assert!(table.contains("67%"), "{table}");
    }
}
