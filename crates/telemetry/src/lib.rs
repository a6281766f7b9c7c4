//! Per-thread runtime telemetry (the observability layer behind the
//! paper's ratio tuning).
//!
//! The paper drives the mapper:combiner **ratio** knob "by relative
//! map/combine throughput" — which requires knowing *where* each thread's
//! wall-clock went: useful map or combine work, stalls on full SPSC queues,
//! or idle spinning while waiting for data. This crate provides the pieces
//! both runtimes share:
//!
//! * [`LocalTelemetry`] — a plain, thread-local accumulator. All hot-path
//!   instrumentation is `Instant` arithmetic on this struct; nothing is
//!   shared while a worker runs.
//! * [`TelemetryCell`] — a bank of atomic counters a thread publishes its
//!   accumulator into (the same pattern the runtime already uses for its
//!   emitted/consumed counters). No locks, no hot-path atomics: a thread
//!   publishes **once, at exit**.
//! * [`ThreadTelemetry`] — the snapshot the runtime hands back per thread,
//!   with derived fractions and per-thread throughput.
//! * [`suggested_ratio`] — the paper's throughput criterion: how many
//!   mappers one combiner can keep up with, from the mapper rows'
//!   [`pool_throughput`] and the run's [`combine_throughput`].
//! * [`MetricsReport`] (in [`report`]) — a serializable whole-run dump with
//!   a JSON round-trip (see [`json`] for why the JSON layer is in-tree).
//!
//! Instrumentation is designed to be cheap enough to leave on: timers fire
//! once per map *task*, once per emit-buffer *flush*, and once per combiner
//! *round* — never per pair. The runtime still accepts a kill switch
//! (`RuntimeConfig::telemetry`) and a test enforces the overhead bound
//! against that counter-stubbed baseline.

#![warn(missing_docs)]

pub mod faults;
pub mod json;
pub mod report;

pub use faults::{FaultLog, FaultMetrics, ProgressBoard, SkippedTask};
pub use report::MetricsReport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which pool a measured thread belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadRole {
    /// RAMR general-purpose pool: runs map tasks, pushes into SPSC queues.
    Mapper,
    /// RAMR combiner pool: batched reads folded into a private container.
    Combiner,
    /// Baseline (Phoenix++-style) worker: map + combine inline.
    Worker,
}

impl ThreadRole {
    /// Stable lowercase name used in reports and JSON dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadRole::Mapper => "mapper",
            ThreadRole::Combiner => "combiner",
            ThreadRole::Worker => "worker",
        }
    }

    /// Inverse of [`ThreadRole::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mapper" => Some(ThreadRole::Mapper),
            "combiner" => Some(ThreadRole::Combiner),
            "worker" => Some(ThreadRole::Worker),
            _ => None,
        }
    }
}

impl std::str::FromStr for ThreadRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown thread role {s:?}"))
    }
}

impl std::fmt::Display for ThreadRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of buckets in a [`BatchHistogram`].
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Histogram of batch occupancy: how full each batched transfer actually
/// was, as a fraction of the configured block size.
///
/// Bucket `i` counts batches whose occupancy fell in
/// `(i/8, (i+1)/8]` of the block size — bucket 7 is "completely full".
/// For combiners this records batched *reads* (paper §III-A); for mappers
/// it records emit-buffer *flushes* (full except the final drain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    /// Raw per-bucket counts; see the type-level docs for bucket bounds.
    pub buckets: [u64; OCCUPANCY_BUCKETS],
}

impl BatchHistogram {
    /// Records one batch that transferred `occupied` of `capacity` slots.
    /// Zero-occupancy batches and zero capacities are ignored.
    pub fn record(&mut self, occupied: usize, capacity: usize) {
        if occupied == 0 || capacity == 0 {
            return;
        }
        let frac = occupied.min(capacity) * OCCUPANCY_BUCKETS;
        // ceil(frac / capacity) - 1 maps (0,1/8] -> 0, ..., (7/8,1] -> 7.
        let bucket = frac.div_ceil(capacity).saturating_sub(1).min(OCCUPANCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Total batches recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of recorded batches that were completely full, in `[0, 1]`.
    /// Returns 0 when nothing was recorded.
    pub fn full_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.buckets[OCCUPANCY_BUCKETS - 1] as f64 / total as f64
        }
    }

    /// Merges another histogram's counts into this one, bucket-wise.
    pub fn merge(&mut self, other: &BatchHistogram) {
        for (slot, &count) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot = slot.saturating_add(count);
        }
    }
}

/// Thread-local accumulator a worker updates while it runs.
///
/// Plain fields, no atomics: the owning thread mutates it privately and
/// publishes the totals once at exit via [`TelemetryCell::publish`].
#[derive(Debug, Clone, Default)]
pub struct LocalTelemetry {
    /// Time spent doing useful work (map calls for mappers — with the pairs
    /// a mapper folds itself instead of queueing them, see
    /// [`spill`](Self::spill) — consuming batches for combiners,
    /// map+combine for baseline workers).
    pub busy: Duration,
    /// Time *not* spent working: handing blocks to the queue for mappers,
    /// idle-spin/sleep rounds for combiners. Zero for baseline workers (they
    /// never wait).
    pub stalled: Duration,
    /// The part of `busy` a static mapper spent folding blocks into its own
    /// container instead of queueing them — combine work done on a mapper
    /// row. Map throughput leaves it out and combine throughput counts it
    /// (see [`pool_throughput`]). Zero for every other thread.
    pub spill: Duration,
    /// The thread's own wall-clock, first task claim to exit.
    pub wall: Duration,
    /// Pairs emitted (mappers/workers) or consumed (combiners).
    pub items: u64,
    /// Zero-progress events: block flushes that found the combiner behind
    /// and folded pairs themselves (mappers) or idle rounds (combiners).
    pub stall_events: u64,
    /// Batched transfers performed (emit-buffer blocks published to a queue
    /// / batched reads).
    pub batches: u64,
    /// Occupancy of those transfers.
    pub occupancy: BatchHistogram,
}

/// One thread's published telemetry, as returned inside a run report.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTelemetry {
    /// The pool this thread belonged to.
    pub role: ThreadRole,
    /// Index within its pool.
    pub index: usize,
    /// See [`LocalTelemetry::busy`].
    pub busy: Duration,
    /// See [`LocalTelemetry::stalled`].
    pub stalled: Duration,
    /// See [`LocalTelemetry::spill`].
    pub spill: Duration,
    /// See [`LocalTelemetry::wall`].
    pub wall: Duration,
    /// See [`LocalTelemetry::items`].
    pub items: u64,
    /// See [`LocalTelemetry::stall_events`].
    pub stall_events: u64,
    /// See [`LocalTelemetry::batches`].
    pub batches: u64,
    /// See [`LocalTelemetry::occupancy`].
    pub occupancy: BatchHistogram,
}

impl ThreadTelemetry {
    /// Fraction of wall-clock spent busy, in `[0, 1]` (0 when no wall time
    /// was recorded, e.g. with telemetry disabled).
    pub fn busy_fraction(&self) -> f64 {
        fraction(self.busy, self.wall)
    }

    /// Fraction of wall-clock spent stalled or idle, in `[0, 1]`.
    pub fn stalled_fraction(&self) -> f64 {
        fraction(self.stalled, self.wall)
    }

    /// Items per second of *busy* time net of [`spill`](Self::spill) folds
    /// — the thread's useful throughput in its own role. `None` when no such
    /// time was recorded.
    pub fn throughput(&self) -> Option<f64> {
        pool_throughput(std::slice::from_ref(self))
    }
}

fn fraction(part: Duration, whole: Duration) -> f64 {
    let whole = whole.as_secs_f64();
    if whole > 0.0 {
        (part.as_secs_f64() / whole).min(1.0)
    } else {
        0.0
    }
}

/// Aggregate throughput over a pool: total items over total busy seconds
/// net of [`spill`](ThreadTelemetry::spill) folds (items/sec per fully-busy
/// thread) — for a mapper pool, the rate of the map work alone. A combine
/// rate that counts the spilled pairs too adds them and the pool's `spill`
/// time to the combiner pool's totals. `None` when the pool recorded no
/// busy time.
pub fn pool_throughput(threads: &[ThreadTelemetry]) -> Option<f64> {
    let busy: f64 = threads.iter().map(|t| t.busy.saturating_sub(t.spill).as_secs_f64()).sum();
    let items: u64 = threads.iter().map(|t| t.items).sum();
    if busy > 0.0 {
        Some(items as f64 / busy)
    } else {
        None
    }
}

/// Aggregate combine throughput over one run's rows: the pairs the
/// combiner rows read plus the `spilled` pairs mappers folded themselves,
/// over the combiner rows' busy time plus every row's
/// [`spill`](ThreadTelemetry::spill) time — a spill fold is combine work
/// wherever it runs. `None` when no such time was recorded.
pub fn combine_throughput(threads: &[ThreadTelemetry], spilled: u64) -> Option<f64> {
    let combiners = threads.iter().filter(|t| t.role == ThreadRole::Combiner);
    let spill: Duration = threads.iter().map(|t| t.spill).sum();
    let busy = combiners.clone().map(|t| t.busy).sum::<Duration>() + spill;
    let items = combiners.map(|t| t.items).sum::<u64>() + spilled;
    (!busy.is_zero()).then(|| items as f64 / busy.as_secs_f64())
}

/// The paper's throughput criterion for the mapper:combiner ratio: one
/// combiner that folds `combine_throughput` pairs/sec can keep up with
/// `combine_throughput / map_throughput` mappers each producing
/// `map_throughput` pairs/sec. Rounded to the nearest integer, never
/// below 1 (a combiner slower than a mapper still needs the 1:1 floor —
/// the pools cannot invert).
pub fn suggested_ratio(map_throughput: f64, combine_throughput: f64) -> usize {
    if map_throughput <= 0.0 || combine_throughput <= 0.0 {
        return 1;
    }
    ((combine_throughput / map_throughput).round() as usize).max(1)
}

/// A bank of atomic counters one thread publishes into.
///
/// The cell is shared (`&TelemetryCell`) between the spawning scope and the
/// worker. The worker calls [`publish`](Self::publish) exactly once, after
/// its last unit of work, and the scope reads it back with
/// [`snapshot`](Self::snapshot) once the worker is done. Relaxed ordering
/// suffices: the join (or the session's done-counter) is the
/// synchronization point.
#[derive(Debug, Default)]
pub struct TelemetryCell {
    busy_ns: AtomicU64,
    stalled_ns: AtomicU64,
    spill_ns: AtomicU64,
    wall_ns: AtomicU64,
    items: AtomicU64,
    stall_events: AtomicU64,
    batches: AtomicU64,
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
}

impl TelemetryCell {
    /// Publishes a thread's accumulated totals, once, at thread exit.
    pub fn publish(&self, local: &LocalTelemetry) {
        self.busy_ns.store(saturating_ns(local.busy), Ordering::Relaxed);
        self.stalled_ns.store(saturating_ns(local.stalled), Ordering::Relaxed);
        self.spill_ns.store(saturating_ns(local.spill), Ordering::Relaxed);
        self.wall_ns.store(saturating_ns(local.wall), Ordering::Relaxed);
        self.items.store(local.items, Ordering::Relaxed);
        self.stall_events.store(local.stall_events, Ordering::Relaxed);
        self.batches.store(local.batches, Ordering::Relaxed);
        for (slot, &count) in self.occupancy.iter().zip(local.occupancy.buckets.iter()) {
            slot.store(count, Ordering::Relaxed);
        }
    }

    /// Reads the published totals back (call after joining the thread).
    pub fn snapshot(&self, role: ThreadRole, index: usize) -> ThreadTelemetry {
        let mut occupancy = BatchHistogram::default();
        for (bucket, slot) in occupancy.buckets.iter_mut().zip(self.occupancy.iter()) {
            *bucket = slot.load(Ordering::Relaxed);
        }
        ThreadTelemetry {
            role,
            index,
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            stalled: Duration::from_nanos(self.stalled_ns.load(Ordering::Relaxed)),
            spill: Duration::from_nanos(self.spill_ns.load(Ordering::Relaxed)),
            wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
            items: self.items.load(Ordering::Relaxed),
            stall_events: self.stall_events.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            occupancy,
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_unit_interval() {
        let mut h = BatchHistogram::default();
        h.record(1, 8); // 1/8 -> bucket 0
        h.record(4, 8); // 1/2 -> bucket 3
        h.record(5, 8); // 5/8 -> bucket 4
        h.record(8, 8); // full -> bucket 7
        h.record(0, 8); // ignored
        h.record(3, 0); // ignored
        assert_eq!(h.buckets, [1, 0, 0, 1, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert!((h.full_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_overfull_batches() {
        let mut h = BatchHistogram::default();
        h.record(20, 8); // more than capacity: clamp to the full bucket
        assert_eq!(h.buckets[OCCUPANCY_BUCKETS - 1], 1);
    }

    #[test]
    fn cell_round_trips_local_totals() {
        let mut local = LocalTelemetry {
            busy: Duration::from_millis(70),
            stalled: Duration::from_millis(30),
            spill: Duration::from_millis(20),
            wall: Duration::from_millis(100),
            items: 12345,
            stall_events: 7,
            batches: 13,
            ..Default::default()
        };
        local.occupancy.record(8, 8);
        local.occupancy.record(2, 8);
        let cell = TelemetryCell::default();
        cell.publish(&local);
        let snap = cell.snapshot(ThreadRole::Mapper, 3);
        assert_eq!(snap.role, ThreadRole::Mapper);
        assert_eq!(snap.index, 3);
        assert_eq!(snap.busy, local.busy);
        assert_eq!(snap.stalled, local.stalled);
        assert_eq!(snap.spill, local.spill);
        assert_eq!(snap.wall, local.wall);
        assert_eq!(snap.items, 12345);
        assert_eq!(snap.stall_events, 7);
        assert_eq!(snap.batches, 13);
        assert_eq!(snap.occupancy, local.occupancy);
        assert!((snap.busy_fraction() - 0.7).abs() < 1e-9);
        assert!((snap.stalled_fraction() - 0.3).abs() < 1e-9);
        assert!((snap.throughput().unwrap() - 12345.0 / 0.05).abs() < 1e-3);
    }

    #[test]
    fn empty_cell_snapshot_is_all_zero() {
        let snap = TelemetryCell::default().snapshot(ThreadRole::Combiner, 0);
        assert_eq!(snap.busy, Duration::ZERO);
        assert_eq!(snap.items, 0);
        assert_eq!(snap.busy_fraction(), 0.0);
        assert_eq!(snap.throughput(), None);
    }

    #[test]
    fn pool_throughput_aggregates_over_busy_time() {
        let mk = |busy_ms, spill_ms, items| ThreadTelemetry {
            role: ThreadRole::Mapper,
            index: 0,
            busy: Duration::from_millis(busy_ms),
            stalled: Duration::ZERO,
            spill: Duration::from_millis(spill_ms),
            wall: Duration::from_millis(busy_ms),
            items,
            stall_events: 0,
            batches: 0,
            occupancy: BatchHistogram::default(),
        };
        let pool = [mk(100, 0, 1000), mk(300, 0, 1000)];
        // 2000 items over 0.4 busy seconds.
        assert!((pool_throughput(&pool).unwrap() - 5000.0).abs() < 1e-9);
        assert_eq!(pool_throughput(&[]), None);
        // 100 of the second thread's 300 ms were spent folding its own
        // spilled blocks: combine work, so the map rate is over 0.3 s.
        let spilling = [mk(100, 0, 1000), mk(300, 100, 1000)];
        assert!((pool_throughput(&spilling).unwrap() - 2000.0 / 0.3).abs() < 1e-6);
        assert!((spilling[1].throughput().unwrap() - 1000.0 / 0.2).abs() < 1e-6);
        // A thread that did nothing but fold has no map rate.
        assert_eq!(pool_throughput(&[mk(50, 50, 0)]), None);
    }

    #[test]
    fn suggested_ratio_follows_relative_throughput() {
        // Combine 4x faster than map: one combiner feeds four mappers.
        assert_eq!(suggested_ratio(1000.0, 4000.0), 4);
        // Equal throughput: the 1:1 paper default.
        assert_eq!(suggested_ratio(1000.0, 1000.0), 1);
        // Combine slower than map: clamped at the 1:1 floor.
        assert_eq!(suggested_ratio(4000.0, 1000.0), 1);
        // Degenerate inputs.
        assert_eq!(suggested_ratio(0.0, 1000.0), 1);
        assert_eq!(suggested_ratio(1000.0, 0.0), 1);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = BatchHistogram::default();
        a.record(8, 8);
        let mut b = BatchHistogram::default();
        b.record(8, 8);
        b.record(1, 8);
        a.merge(&b);
        assert_eq!(a.buckets[OCCUPANCY_BUCKETS - 1], 2);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn role_names_round_trip() {
        for role in [ThreadRole::Mapper, ThreadRole::Combiner, ThreadRole::Worker] {
            assert_eq!(ThreadRole::parse(role.as_str()), Some(role));
        }
        assert_eq!(ThreadRole::parse("reducer"), None);
    }
}
