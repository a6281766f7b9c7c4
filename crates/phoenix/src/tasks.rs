//! Locality-grouped task queues.
//!
//! The paper adds map tasks to "task queues — one for each locality group"
//! (§III, Fig 2): on a NUMA machine each socket's workers prefer tasks whose
//! input pages live on their node. This module implements that structure:
//! tasks are distributed round-robin across `groups` queues at partition
//! time; a worker drains its own group's queue first and *steals* from other
//! groups only when its own is empty, preserving dynamic load balancing
//! (no task is ever lost and the run ends only when all queues are empty).

use std::sync::atomic::{AtomicUsize, Ordering};

use mr_core::TaskRange;

/// A set of per-locality-group task queues with stealing.
///
/// Lock-free: each group is a pre-partitioned slice of the task list with
/// an atomic cursor; claiming a task is one load and one `fetch_add`.
#[derive(Debug)]
pub struct TaskQueues {
    /// Tasks grouped by locality group: `tasks[g]` is group `g`'s list.
    groups: Vec<Vec<TaskRange>>,
    /// Per-group claim cursors.
    cursors: Vec<AtomicUsize>,
}

impl TaskQueues {
    /// Distributes `tasks` round-robin over `groups` queues.
    ///
    /// Round-robin (rather than contiguous blocks) keeps the groups'
    /// *remaining work* balanced throughout the run, which matters because
    /// stealing is a fallback, not the common path.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn new(tasks: Vec<TaskRange>, groups: usize) -> Self {
        assert!(groups > 0, "at least one locality group is required");
        let mut grouped: Vec<Vec<TaskRange>> = Vec::with_capacity(groups);
        grouped.resize_with(groups, Vec::new);
        for (i, task) in tasks.into_iter().enumerate() {
            grouped[i % groups].push(task);
        }
        let cursors = (0..groups).map(|_| AtomicUsize::new(0)).collect();
        Self { groups: grouped, cursors }
    }

    /// Claims the next task for a worker in `home_group`: its own queue
    /// first, then the others in round-robin order (work stealing).
    ///
    /// Returns `None` only when every queue is exhausted.
    pub fn claim(&self, home_group: usize) -> Option<&TaskRange> {
        let n = self.groups.len();
        let home = home_group % n;
        for offset in 0..n {
            let g = (home + offset) % n;
            // A drained group is skipped on a load alone: probing it with
            // the `fetch_add` would keep writing the line every claimer
            // shares, and grow the cursor without bound.
            if self.remaining_in(g) == 0 {
                continue;
            }
            let idx = self.cursors[g].fetch_add(1, Ordering::Relaxed);
            if let Some(task) = self.groups[g].get(idx) {
                return Some(task);
            }
            // Overshot: claimers that all loaded the cursor before the last
            // task went race here, once each, so a drained group's cursor
            // stops at most one per claimer past its length.
        }
        None
    }

    /// Tasks remaining in one group (approximate under concurrency).
    pub fn remaining_in(&self, group: usize) -> usize {
        let claimed = self.cursors[group].load(Ordering::Relaxed);
        self.groups[group].len().saturating_sub(claimed)
    }

    /// `true` once every group's queue has been fully claimed, i.e. `claim`
    /// can only return `None` from now on. Claimed tasks may still be
    /// executing — this signals the end of task *hand-out*, not of map
    /// work. A combiner with nothing to read polls this to learn whether a
    /// task is left to run in place.
    pub fn is_exhausted(&self) -> bool {
        (0..self.groups.len()).all(|g| self.remaining_in(g) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::task_ranges_for;

    fn queues(n_tasks: usize, groups: usize) -> TaskQueues {
        TaskQueues::new(task_ranges_for(n_tasks * 10, 10, 1), groups)
    }

    #[test]
    fn round_robin_distribution_is_balanced() {
        let q = queues(10, 3);
        assert_eq!((0..3).map(|g| q.remaining_in(g)).sum::<usize>(), 10);
        assert_eq!(q.remaining_in(0), 4);
        assert_eq!(q.remaining_in(1), 3);
        assert_eq!(q.remaining_in(2), 3);
    }

    #[test]
    fn every_task_claimed_exactly_once_single_thread() {
        let q = queues(20, 4);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(task) = q.claim(1) {
            assert!(seen.insert(task.id), "task {} claimed twice", task.id);
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn stealing_drains_foreign_groups() {
        let q = queues(9, 3);
        // A group-0 worker alone must still complete all work.
        let mut count = 0;
        while q.claim(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 9);
        for g in 0..3 {
            assert_eq!(q.remaining_in(g), 0);
        }
    }

    #[test]
    fn home_group_is_preferred() {
        let q = queues(6, 2);
        // Worker in group 1 should drain group 1's tasks (odd ids) first.
        let first = q.claim(1).unwrap();
        assert_eq!(first.id.0 % 2, 1, "first claim must come from the home group");
    }

    #[test]
    fn concurrent_claims_cover_everything_once() {
        let q = std::sync::Arc::new(queues(1000, 4));
        let counters: Vec<std::sync::Arc<std::sync::atomic::AtomicUsize>> =
            (0..1000).map(|_| Default::default()).collect();
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let q = std::sync::Arc::clone(&q);
                let counters = &counters;
                scope.spawn(move || {
                    while let Some(task) = q.claim(worker % 4) {
                        counters[task.id.0].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} claim count");
        }
    }

    #[test]
    fn claims_after_exhaustion_do_not_grow_the_cursors() {
        // Regression: every probe of a drained group used to `fetch_add` its
        // cursor, so a claimer that polls (a combiner looking for a task to
        // help with) kept writing the shared lines and grew them unboundedly.
        let claimers = 4;
        let q = queues(10, 3);
        std::thread::scope(|scope| {
            for worker in 0..claimers {
                let q = &q;
                scope.spawn(move || {
                    while q.claim(worker).is_some() {}
                    for _ in 0..1000 {
                        assert!(q.claim(worker).is_none());
                    }
                });
            }
        });
        assert!(q.is_exhausted());
        for g in 0..q.groups.len() {
            let cursor = q.cursors[g].load(Ordering::Relaxed);
            let len = q.groups[g].len();
            assert!(cursor <= len + claimers, "group {g}: cursor {cursor} for {len} tasks");
        }
    }

    #[test]
    fn empty_task_list_yields_nothing() {
        let q = TaskQueues::new(Vec::new(), 2);
        assert!(q.claim(0).is_none());
        assert!(q.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "at least one locality group")]
    fn zero_groups_panics() {
        let _ = TaskQueues::new(Vec::new(), 0);
    }

    #[test]
    fn out_of_range_home_group_wraps() {
        let q = queues(5, 2);
        assert!(q.claim(7).is_some(), "home group index wraps modulo groups");
    }
}
