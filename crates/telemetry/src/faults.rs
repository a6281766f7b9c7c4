//! Fault accounting shared by both runtimes: what failed, what was
//! retried, what was skipped, and whether the watchdog had to step in.
//!
//! The hot path never touches these types. Each worker thread records its
//! own retries and skips into a [`FaultMetrics`] of its own, only on the
//! (rare) failure path, and hands it over with the rest of its epoch; the
//! runtime sums them ([`Sum`](std::iter::Sum)) into the one carried by the run
//! report and the `--metrics-json` dump. The [`ProgressBoard`] is the one
//! piece the hot path does touch — a relaxed per-thread counter bump per
//! task / flush / batch — and exists so a watchdog can distinguish "slow"
//! from "wedged" without locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// One map task the runtime gave up on after exhausting its retries
/// (recorded only when poison-task skipping is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedTask {
    /// Index of the task in the partition plan.
    pub task_id: usize,
    /// First input element of the task's range.
    pub start: usize,
    /// One past the last input element of the task's range.
    pub end: usize,
    /// How many times the task was executed (1 initial + retries).
    pub attempts: u32,
    /// Panic message of the final failed attempt.
    pub message: String,
}

/// Whole-run fault summary: attached to run reports and serialized into
/// the `faults` section of `--metrics-json`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMetrics {
    /// Total task re-executions across all workers (a task that succeeded
    /// on its 3rd attempt contributes 2).
    pub retries: u64,
    /// Worker errors counted behind the one a failed run surfaced, and
    /// therefore not surfaced individually.
    pub suppressed_errors: u64,
    /// Whether the stall watchdog fired and cancelled the run.
    pub watchdog_fired: bool,
    /// Tasks skipped after exhausting their retries.
    pub skipped: Vec<SkippedTask>,
}

impl FaultMetrics {
    /// Whether the run completed without any fault activity at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.suppressed_errors == 0
            && !self.watchdog_fired
            && self.skipped.is_empty()
    }

    /// One-line human summary for CLI output (`None` when clean).
    pub fn summary(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        let mut parts = Vec::new();
        if self.retries > 0 {
            parts.push(format!("{} task retr{}", self.retries, plural_y(self.retries)));
        }
        if !self.skipped.is_empty() {
            parts.push(format!("{} poison task(s) skipped", self.skipped.len()));
        }
        if self.suppressed_errors > 0 {
            parts.push(format!("{} suppressed error(s)", self.suppressed_errors));
        }
        if self.watchdog_fired {
            parts.push("watchdog fired".to_string());
        }
        Some(parts.join(", "))
    }
}

/// Merges the records of several threads: retries and suppressed errors
/// add up, the watchdog fired if it fired for any, and the skipped tasks are
/// sorted by task id, so a report is the same whichever thread hit which
/// task.
impl std::iter::Sum for FaultMetrics {
    fn sum<I: Iterator<Item = Self>>(parts: I) -> Self {
        let mut all = Self::default();
        for part in parts {
            all.retries += part.retries;
            all.suppressed_errors += part.suppressed_errors;
            all.watchdog_fired |= part.watchdog_fired;
            all.skipped.extend(part.skipped);
        }
        all.skipped.sort_by_key(|s| s.task_id);
        all
    }
}

fn plural_y(n: u64) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// Lock-free pipeline progress counters, one slot per participating
/// thread, plus a slot for the task queue itself.
///
/// Threads bump their own slot (relaxed) whenever they make *any* forward
/// progress — claiming a task, publishing an emit block, consuming a
/// batch, retrying a task. A watchdog samples [`total`](Self::total): if
/// it stops moving while live threads remain, the pipeline is wedged
/// rather than slow, because even a thread stuck behind a full queue
/// would eventually bump its slot once the consumer drains it.
#[derive(Debug)]
pub struct ProgressBoard {
    slots: Vec<AtomicU64>,
    live: AtomicU64,
}

impl ProgressBoard {
    /// Creates a board with `slots` per-thread counters, all zero, and no
    /// live threads registered yet.
    pub fn new(slots: usize) -> Self {
        Self { slots: (0..slots).map(|_| AtomicU64::new(0)).collect(), live: AtomicU64::new(0) }
    }

    /// Number of per-thread slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the board has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records one unit of forward progress for thread `slot`.
    #[inline]
    pub fn bump(&self, slot: usize) {
        if let Some(s) = self.slots.get(slot) {
            s.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sum of all slots — the watchdog's sampled value.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Per-slot snapshot for diagnostics.
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }

    /// Registers a live worker thread; pair with [`thread_done`].
    ///
    /// [`thread_done`]: Self::thread_done
    pub fn thread_started(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
    }

    /// Deregisters a live worker thread (call from a drop guard so panics
    /// deregister too, or the watchdog would wait on a dead thread).
    pub fn thread_done(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// How many registered threads have not finished yet.
    pub fn live_threads(&self) -> u64 {
        self.live.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_metrics_have_no_summary() {
        let m = FaultMetrics::default();
        assert!(m.is_clean());
        assert_eq!(m.summary(), None);
    }

    #[test]
    fn summary_mentions_every_fault_class() {
        let m = FaultMetrics {
            retries: 3,
            suppressed_errors: 2,
            watchdog_fired: true,
            skipped: vec![SkippedTask {
                task_id: 7,
                start: 700,
                end: 800,
                attempts: 4,
                message: "boom".into(),
            }],
        };
        assert!(!m.is_clean());
        let text = m.summary().unwrap();
        assert!(text.contains("3 task retries"), "{text}");
        assert!(text.contains("1 poison task(s) skipped"), "{text}");
        assert!(text.contains("2 suppressed error(s)"), "{text}");
        assert!(text.contains("watchdog fired"), "{text}");
        let m = FaultMetrics { retries: 1, ..FaultMetrics::default() };
        assert_eq!(m.summary().unwrap(), "1 task retry");
    }

    #[test]
    fn merged_records_sort_skips_by_task_id_and_sum_retries() {
        let skip = |task_id| SkippedTask {
            task_id,
            start: task_id * 10,
            end: task_id * 10 + 10,
            attempts: 2,
            message: format!("task {task_id} died"),
        };
        // Two threads' records, each in the order its thread hit its tasks.
        let first =
            FaultMetrics { retries: 2, skipped: vec![skip(5), skip(2)], ..Default::default() };
        let second = FaultMetrics {
            retries: 1,
            suppressed_errors: 1,
            skipped: vec![skip(1)],
            ..Default::default()
        };
        let m: FaultMetrics = [first, second].into_iter().sum();
        assert_eq!(m.retries, 3);
        assert_eq!(m.suppressed_errors, 1);
        assert!(!m.watchdog_fired);
        assert_eq!(m.skipped.iter().map(|s| s.task_id).collect::<Vec<_>>(), vec![1, 2, 5]);
        assert_eq!(
            std::iter::empty::<FaultMetrics>().sum::<FaultMetrics>(),
            FaultMetrics::default()
        );
    }

    #[test]
    fn progress_board_counts_and_tracks_live_threads() {
        let board = ProgressBoard::new(3);
        assert_eq!(board.len(), 3);
        assert!(!board.is_empty());
        assert_eq!(board.total(), 0);
        board.bump(0);
        board.bump(0);
        board.bump(2);
        board.bump(99); // out of range: ignored, not a panic
        assert_eq!(board.total(), 3);
        assert_eq!(board.snapshot(), vec![2, 0, 1]);
        assert_eq!(board.live_threads(), 0);
        board.thread_started();
        board.thread_started();
        assert_eq!(board.live_threads(), 2);
        board.thread_done();
        assert_eq!(board.live_threads(), 1);
    }
}
