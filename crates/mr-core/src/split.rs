//! Input partitioning: turning an input collection into map tasks.
//!
//! The paper's input-partition phase splits the raw input using a
//! user-specified partitioning function, with the *task size* (splits per
//! task) subject to tuning. Here the input is a slice of already-parsed
//! elements, so a task is a contiguous index range of at most `task_size`
//! elements — the largest task; the tail is cut finer, so that the threads
//! claiming tasks run out of work together ([`task_ranges_for`]). Runtimes
//! hand `&input[range]` to [`MapReduceJob::map`].
//!
//! [`MapReduceJob::map`]: crate::MapReduceJob::map

/// Identifier of a map task within one job invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// A contiguous range of input elements forming one map task.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskRange {
    /// Task identifier, dense from zero in input order.
    pub id: TaskId,
    /// Start index into the input slice (inclusive).
    pub start: usize,
    /// End index into the input slice (exclusive).
    pub end: usize,
}

impl TaskRange {
    /// Number of input elements in this task.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the task covers no elements (never produced by
    /// [`task_ranges`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The tail's floor: no task but the last is cut below
/// `task_size / TAIL_FLOOR_DIVISOR` elements (and never below one).
const TAIL_FLOOR_DIVISOR: usize = 8;

/// Partitions `input_len` elements into map tasks for `threads` threads
/// that claim them: `task_size` is the largest task, and the tail is cut
/// finer so that no thread idles behind one coarse last task.
///
/// While at least `threads · task_size` elements remain, a task is
/// `task_size` elements. Below that, each task is `⌈remaining / 2·threads⌉`
/// elements, clamped to `[max(task_size / 8, 1), task_size]` (guided
/// self-scheduling of the tail; the last task may be shorter than the
/// floor). With one thread there is nothing to balance, and every task but
/// the last is `task_size`.
///
/// Returns an empty vector for an empty input. All indices are in-bounds
/// for a slice of length `input_len`, ids are dense from zero, and tasks are
/// contiguous, non-overlapping, in input order, never growing, and cover
/// every element exactly once — properties the tests below fuzz.
///
/// # Panics
///
/// Panics if `task_size` is zero (validated away by
/// [`RuntimeConfig::validate`]).
///
/// [`RuntimeConfig::validate`]: crate::RuntimeConfig::validate
pub fn task_ranges_for(input_len: usize, task_size: usize, threads: usize) -> Vec<TaskRange> {
    assert!(task_size > 0, "task_size must be nonzero");
    let threads = threads.max(1);
    let tail = if threads == 1 { 0 } else { threads.saturating_mul(task_size) };
    let floor = (task_size / TAIL_FLOOR_DIVISOR).max(1);
    let mut tasks = Vec::with_capacity(input_len.div_ceil(task_size));
    let mut start = 0;
    while start < input_len {
        let remaining = input_len - start;
        let len = if remaining >= tail {
            task_size
        } else {
            remaining.div_ceil(2 * threads).clamp(floor, task_size)
        };
        let end = start + len.min(remaining);
        tasks.push(TaskRange { id: TaskId(tasks.len()), start, end });
        start = end;
    }
    tasks
}

/// The split one thread gets: [`task_ranges_for`] with `threads = 1`, so
/// every task but the last is `task_size` elements. Every runtime calls
/// [`task_ranges_for`] with its own thread count; this form stays for the
/// benchmark harness's layer probe (`benchmark/src/layers.rs`).
pub fn task_ranges(input_len: usize, task_size: usize) -> Vec<TaskRange> {
    task_ranges_for(input_len, task_size, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lens(tasks: &[TaskRange]) -> Vec<usize> {
        tasks.iter().map(TaskRange::len).collect()
    }

    #[test]
    fn empty_input_yields_no_tasks() {
        assert!(task_ranges_for(0, 16, 1).is_empty());
        assert!(task_ranges_for(0, 16, 4).is_empty());
    }

    #[test]
    fn exact_division() {
        let tasks = task_ranges_for(12, 4, 1);
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0], TaskRange { id: TaskId(0), start: 0, end: 4 });
        assert_eq!(tasks[2], TaskRange { id: TaskId(2), start: 8, end: 12 });
        assert!(tasks.iter().all(|t| t.len() == 4 && !t.is_empty()));
    }

    #[test]
    fn trailing_short_task() {
        let tasks = task_ranges_for(10, 4, 1);
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[2].len(), 2);
    }

    #[test]
    fn single_oversized_task() {
        let tasks = task_ranges_for(3, 100, 4);
        assert_eq!(tasks.len(), 1);
        assert_eq!((tasks[0].start, tasks[0].end), (0, 3));
    }

    #[test]
    fn two_threads_cut_the_tail_of_a_k_means_round() {
        // 20 000 points at 4 096: three full tasks, then ⌈remaining / 4⌉
        // down to the floor of 512, then what is left.
        let tasks = task_ranges_for(20_000, 4096, 2);
        let expected = [4096, 4096, 4096, 1928, 1446, 1085, 814, 610, 512, 512, 512, 293];
        assert_eq!(lens(&tasks), expected);
        assert_eq!(tasks.last().map(|t| t.end), Some(20_000));
    }

    #[test]
    fn an_input_under_the_floor_stays_one_task() {
        // 333 elements sit below the floor of 4096 / 8 = 512.
        let tasks = task_ranges_for(333, 4096, 2);
        assert_eq!(tasks, [TaskRange { id: TaskId(0), start: 0, end: 333 }]);
    }

    #[test]
    fn a_short_job_over_the_floor_is_cut() {
        // The same 333 elements at the service's task size of 1024: the
        // floor is 128, so any T > 1 cuts three tasks at the floor.
        for threads in 2..=4 {
            assert_eq!(lens(&task_ranges_for(333, 1024, threads)), [128, 128, 77]);
        }
    }

    #[test]
    fn the_one_thread_form_is_the_plain_split() {
        assert_eq!(task_ranges(20_000, 4096), task_ranges_for(20_000, 4096, 1));
        assert_eq!(lens(&task_ranges(20_000, 4096)), [4096, 4096, 4096, 4096, 3616]);
    }

    #[test]
    #[should_panic(expected = "task_size must be nonzero")]
    fn zero_task_size_panics() {
        let _ = task_ranges_for(5, 0, 2);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "task#7");
    }

    proptest! {
        #[test]
        fn tasks_partition_the_input(
            input_len in 0usize..10_000,
            task_size in 1usize..512,
            threads in 1usize..9,
        ) {
            let tasks = task_ranges_for(input_len, task_size, threads);
            let floor = (task_size / 8).max(1);
            // Coverage: concatenated ranges equal 0..input_len, ids dense.
            let mut cursor = 0;
            let mut previous = task_size;
            for (i, t) in tasks.iter().enumerate() {
                prop_assert_eq!(t.id, TaskId(i));
                prop_assert_eq!(t.start, cursor);
                prop_assert!(t.end > t.start);
                prop_assert!(t.len() <= task_size);
                prop_assert!(t.len() <= previous, "sizes never grow");
                if input_len - t.start >= threads * task_size {
                    prop_assert_eq!(t.len(), task_size, "full tasks before the tail");
                }
                if i + 1 < tasks.len() {
                    prop_assert!(t.len() >= floor, "only the last task is under the floor");
                }
                previous = t.len();
                cursor = t.end;
            }
            prop_assert_eq!(cursor, input_len);
        }

        #[test]
        fn one_thread_splits_plainly(input_len in 0usize..10_000, task_size in 1usize..512) {
            let tasks = task_ranges_for(input_len, task_size, 1);
            prop_assert_eq!(tasks.len(), input_len.div_ceil(task_size));
            for t in &tasks {
                prop_assert_eq!(t.start, t.id.0 * task_size);
                prop_assert_eq!(t.end, (t.start + task_size).min(input_len));
            }
        }
    }
}
