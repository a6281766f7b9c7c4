//! Thread-to-CPU placement plans for the three scheduling policies.

use std::collections::BTreeMap;

use mr_core::{PinningPolicyKind, RuntimeError};

use crate::comm::CommDistance;
use crate::machine::MachineModel;
use crate::remap::{physical_position_of, thrid_to_cpu};

/// Where one runtime thread is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuSlot {
    /// Pinned to the given OS logical CPU id.
    Pinned(usize),
    /// Left to the OS scheduler.
    Unpinned,
}

/// A thread within a placement plan, identified by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadRef {
    /// The `i`-th mapper (general-purpose worker) thread.
    Mapper(usize),
    /// The `i`-th combiner thread.
    Combiner(usize),
}

/// A computed placement: which CPU each mapper/combiner occupies and which
/// combiner consumes each mapper's queue.
///
/// The queue assignment follows the paper: "according to the ratio of
/// mapper-to-combiner threads, a set of mapper queues is assigned to each
/// combiner" — contiguous, balanced groups.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    machine: MachineModel,
    policy: PinningPolicyKind,
    mapper_slots: Vec<CpuSlot>,
    combiner_slots: Vec<CpuSlot>,
    combiner_of_mapper: Vec<usize>,
}

impl PlacementPlan {
    /// Computes a plan for `n_mappers` mapper threads and `n_combiners`
    /// combiner threads under `policy`.
    ///
    /// When the thread count exceeds the machine's logical CPUs, placement
    /// wraps around (oversubscription), as a real `sched_setaffinity` call
    /// would allow.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Placement`] if either pool is empty or the
    /// combiner pool outnumbers the mapper pool.
    pub fn compute(
        machine: &MachineModel,
        n_mappers: usize,
        n_combiners: usize,
        policy: PinningPolicyKind,
    ) -> Result<Self, RuntimeError> {
        if n_mappers == 0 || n_combiners == 0 {
            return Err(RuntimeError::Placement("thread pools must be nonempty".into()));
        }
        if n_combiners > n_mappers {
            return Err(RuntimeError::Placement(format!(
                "combiner pool ({n_combiners}) larger than mapper pool ({n_mappers})"
            )));
        }
        let combiner_of_mapper: Vec<usize> =
            (0..n_mappers).map(|m| m * n_combiners / n_mappers).collect();

        let ncpus = machine.logical_cpus();
        let (mapper_slots, combiner_slots) = match policy {
            PinningPolicyKind::OsDefault => {
                (vec![CpuSlot::Unpinned; n_mappers], vec![CpuSlot::Unpinned; n_combiners])
            }
            PinningPolicyKind::RoundRobin | PinningPolicyKind::Ramr => {
                // Both pinned policies walk the threads in creation order
                // (per combiner group: first mapper, the combiner, then the
                // group's remaining mappers) and hand out CPU ids
                // sequentially. The difference is *which* id sequence:
                //
                // * RoundRobin uses the raw OS numbering, in which
                //   consecutive ids are different physical cores and often
                //   different sockets — pairs land far apart;
                // * RAMR first applies the `thrid_to_cpu` remap of Fig 3,
                //   so consecutive slots are SMT siblings, then cores of
                //   the same socket — each combiner sits next to its
                //   mappers.
                let seq: Vec<usize> = match policy {
                    PinningPolicyKind::Ramr => {
                        thrid_to_cpu(machine.sockets, machine.cores_per_socket, machine.smt)
                    }
                    _ => (0..ncpus).collect(),
                };
                let mut mappers = vec![CpuSlot::Unpinned; n_mappers];
                let mut combiners = vec![CpuSlot::Unpinned; n_combiners];
                let mut slot = 0usize;
                let place = |slot: &mut usize| {
                    let cpu = seq[*slot % ncpus];
                    *slot += 1;
                    CpuSlot::Pinned(cpu)
                };
                for (c, combiner_slot) in combiners.iter_mut().enumerate() {
                    let group: Vec<usize> = combiner_of_mapper
                        .iter()
                        .enumerate()
                        .filter(|(_, &cc)| cc == c)
                        .map(|(m, _)| m)
                        .collect();
                    debug_assert!(!group.is_empty(), "every combiner serves >= 1 mapper");
                    mappers[group[0]] = place(&mut slot);
                    *combiner_slot = place(&mut slot);
                    for &m in &group[1..] {
                        mappers[m] = place(&mut slot);
                    }
                }
                (mappers, combiners)
            }
        };

        Ok(Self {
            machine: machine.clone(),
            policy,
            mapper_slots,
            combiner_slots,
            combiner_of_mapper,
        })
    }

    /// The machine this plan was computed for.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The policy that produced this plan.
    pub fn policy(&self) -> PinningPolicyKind {
        self.policy
    }

    /// Number of mapper threads.
    pub fn num_mappers(&self) -> usize {
        self.mapper_slots.len()
    }

    /// Number of combiner threads.
    pub fn num_combiners(&self) -> usize {
        self.combiner_slots.len()
    }

    /// The CPU slot of mapper `m`.
    pub fn mapper_slot(&self, m: usize) -> CpuSlot {
        self.mapper_slots[m]
    }

    /// The CPU slot of combiner `c`.
    pub fn combiner_slot(&self, c: usize) -> CpuSlot {
        self.combiner_slots[c]
    }

    /// Index of the combiner consuming mapper `m`'s queue.
    pub fn combiner_of_mapper(&self, m: usize) -> usize {
        self.combiner_of_mapper[m]
    }

    /// The mappers whose queues combiner `c` consumes (ascending).
    pub fn mappers_of_combiner(&self, c: usize) -> Vec<usize> {
        self.combiner_of_mapper
            .iter()
            .enumerate()
            .filter(|(_, &cc)| cc == c)
            .map(|(m, _)| m)
            .collect()
    }

    /// Communication distance between two slots on this machine.
    fn distance_between(&self, a: CpuSlot, b: CpuSlot) -> CommDistance {
        let (CpuSlot::Pinned(ca), CpuSlot::Pinned(cb)) = (a, b) else {
            return CommDistance::Unpinned;
        };
        let m = &self.machine;
        let pa = physical_position_of(ca, m.sockets, m.cores_per_socket, m.smt);
        let pb = physical_position_of(cb, m.sockets, m.cores_per_socket, m.smt);
        if pa.socket == pb.socket && pa.core == pb.core && ca != cb {
            CommDistance::SharedCore
        } else if ca == cb {
            // Oversubscribed onto the same hardware thread: data stays in
            // the same private cache.
            CommDistance::SharedCore
        } else if pa.socket == pb.socket {
            CommDistance::SameSocket
        } else {
            CommDistance::CrossSocket
        }
    }

    /// Communication distance between mapper `m` and its assigned combiner.
    pub fn mapper_combiner_distance(&self, m: usize) -> CommDistance {
        self.distance_between(self.mapper_slots[m], self.combiner_slots[self.combiner_of_mapper[m]])
    }

    /// Average per-cache-line transfer cost over all mapper→combiner pairs,
    /// in nanoseconds — the quantity the RAMR policy minimizes.
    #[cfg(test)]
    fn avg_transfer_cost_ns(&self) -> f64 {
        let total: f64 = (0..self.num_mappers())
            .map(|m| self.machine.transfer_cost_ns(self.mapper_combiner_distance(m)))
            .sum();
        total / self.num_mappers() as f64
    }

    /// Threads grouped by the physical core they are pinned to, for SMT
    /// contention modelling. Unpinned threads are omitted.
    pub fn threads_by_core(&self) -> BTreeMap<(usize, usize), Vec<ThreadRef>> {
        let m = &self.machine;
        let mut by_core: BTreeMap<(usize, usize), Vec<ThreadRef>> = BTreeMap::new();
        for (i, slot) in self.mapper_slots.iter().enumerate() {
            if let CpuSlot::Pinned(cpu) = slot {
                let p = physical_position_of(*cpu, m.sockets, m.cores_per_socket, m.smt);
                by_core.entry((p.socket, p.core)).or_default().push(ThreadRef::Mapper(i));
            }
        }
        for (i, slot) in self.combiner_slots.iter().enumerate() {
            if let CpuSlot::Pinned(cpu) = slot {
                let p = physical_position_of(*cpu, m.sockets, m.cores_per_socket, m.smt);
                by_core.entry((p.socket, p.core)).or_default().push(ThreadRef::Combiner(i));
            }
        }
        by_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3() -> MachineModel {
        MachineModel::fig3_demo()
    }

    #[test]
    fn queue_assignment_is_balanced_and_contiguous() {
        let plan = PlacementPlan::compute(&fig3(), 8, 3, PinningPolicyKind::OsDefault).unwrap();
        let groups: Vec<Vec<usize>> = (0..3).map(|c| plan.mappers_of_combiner(c)).collect();
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "groups must be balanced: {sizes:?}");
        // Contiguity: each group is a run of consecutive mapper ids.
        for g in &groups {
            assert!(g.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn ramr_ratio_one_pairs_share_cores() {
        let plan = PlacementPlan::compute(&fig3(), 8, 8, PinningPolicyKind::Ramr).unwrap();
        for m in 0..8 {
            assert_eq!(plan.combiner_of_mapper(m), m);
            assert_eq!(plan.mapper_combiner_distance(m), CommDistance::SharedCore);
        }
    }

    #[test]
    fn ramr_keeps_groups_within_a_socket_when_possible() {
        // Ratio 3 on the Fig 3 machine: 6 mappers + 2 combiners = 8 threads
        // per 8 logical CPUs per socket — each group fits in one socket.
        let plan = PlacementPlan::compute(&fig3(), 6, 2, PinningPolicyKind::Ramr).unwrap();
        for m in 0..6 {
            let d = plan.mapper_combiner_distance(m);
            assert!(
                d <= CommDistance::SameSocket,
                "mapper {m} communicates at {d}, expected within-socket"
            );
        }
        // The first mapper of each group shares a core with its combiner.
        for c in 0..2 {
            let first = plan.mappers_of_combiner(c)[0];
            assert_eq!(plan.mapper_combiner_distance(first), CommDistance::SharedCore);
        }
    }

    #[test]
    fn round_robin_is_role_oblivious_and_far() {
        // Without the remap, a mapper and its combiner occupy consecutive
        // OS ids — *different* physical cores (Fig 3's lesson).
        let plan = PlacementPlan::compute(&fig3(), 8, 8, PinningPolicyKind::RoundRobin).unwrap();
        let shared = (0..8)
            .filter(|&m| plan.mapper_combiner_distance(m) == CommDistance::SharedCore)
            .count();
        assert_eq!(shared, 0, "raw OS numbering must not pair SMT siblings");
        let ramr = PlacementPlan::compute(&fig3(), 8, 8, PinningPolicyKind::Ramr).unwrap();
        let ramr_shared = (0..8)
            .filter(|&m| ramr.mapper_combiner_distance(m) == CommDistance::SharedCore)
            .count();
        assert_eq!(ramr_shared, 8);
        assert!(plan.avg_transfer_cost_ns() > ramr.avg_transfer_cost_ns());
    }

    #[test]
    fn ramr_beats_round_robin_on_haswell_transfer_cost() {
        let m = MachineModel::haswell_server();
        // 28 mappers + 28 combiners = all 56 threads, ratio 1.
        let ramr = PlacementPlan::compute(&m, 28, 28, PinningPolicyKind::Ramr).unwrap();
        let rr = PlacementPlan::compute(&m, 28, 28, PinningPolicyKind::RoundRobin).unwrap();
        let os = PlacementPlan::compute(&m, 28, 28, PinningPolicyKind::OsDefault).unwrap();
        assert!(ramr.avg_transfer_cost_ns() < rr.avg_transfer_cost_ns());
        assert!(ramr.avg_transfer_cost_ns() < os.avg_transfer_cost_ns());
    }

    #[test]
    fn pinning_gains_are_small_on_the_phi_ring() {
        let m = MachineModel::xeon_phi();
        let ramr = PlacementPlan::compute(&m, 114, 114, PinningPolicyKind::Ramr).unwrap();
        let rr = PlacementPlan::compute(&m, 114, 114, PinningPolicyKind::RoundRobin).unwrap();
        let gain = rr.avg_transfer_cost_ns() / ramr.avg_transfer_cost_ns();
        assert!(gain > 1.0, "RAMR still wins on the Phi");
        assert!(
            gain < MachineModel::haswell_server().lat.cross_socket_ns
                / MachineModel::haswell_server().lat.shared_core_ns,
            "but by far less than on the NUMA Haswell"
        );
    }

    #[test]
    fn os_default_distances_are_unpinned() {
        let plan = PlacementPlan::compute(&fig3(), 4, 2, PinningPolicyKind::OsDefault).unwrap();
        for m in 0..4 {
            assert_eq!(plan.mapper_combiner_distance(m), CommDistance::Unpinned);
        }
        assert!(plan.threads_by_core().is_empty());
    }

    #[test]
    fn oversubscription_wraps_around() {
        let plan = PlacementPlan::compute(&fig3(), 32, 32, PinningPolicyKind::Ramr).unwrap();
        assert_eq!(plan.num_mappers(), 32);
        for m in 0..32 {
            assert!(matches!(plan.mapper_slot(m), CpuSlot::Pinned(c) if c < 16));
        }
    }

    #[test]
    fn rejects_empty_or_inverted_pools() {
        assert!(PlacementPlan::compute(&fig3(), 0, 1, PinningPolicyKind::Ramr).is_err());
        assert!(PlacementPlan::compute(&fig3(), 1, 0, PinningPolicyKind::Ramr).is_err());
        assert!(PlacementPlan::compute(&fig3(), 2, 3, PinningPolicyKind::Ramr).is_err());
    }

    #[test]
    fn threads_by_core_accounts_for_everyone_pinned() {
        let plan = PlacementPlan::compute(&fig3(), 8, 8, PinningPolicyKind::Ramr).unwrap();
        let total: usize = plan.threads_by_core().values().map(Vec::len).sum();
        assert_eq!(total, 16);
    }
}

impl std::fmt::Display for PlacementPlan {
    /// Renders the placement as one line per physical core, e.g.
    /// `socket 0 core 3: M2 C1`, with unpinned threads summarized at the
    /// end — the textual equivalent of the paper's Fig 3 diagram.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} mappers + {} combiners on {} ({:?})",
            self.num_mappers(),
            self.num_combiners(),
            self.machine,
            self.policy
        )?;
        let by_core = self.threads_by_core();
        for ((socket, core), residents) in &by_core {
            let names: Vec<String> = residents
                .iter()
                .map(|t| match t {
                    ThreadRef::Mapper(m) => format!("M{m}"),
                    ThreadRef::Combiner(c) => format!("C{c}"),
                })
                .collect();
            writeln!(f, "  socket {socket} core {core:>2}: {}", names.join(" "))?;
        }
        let pinned: usize = by_core.values().map(Vec::len).sum();
        let total = self.num_mappers() + self.num_combiners();
        if pinned < total {
            writeln!(f, "  unpinned threads: {}", total - pinned)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_lists_cores_and_roles() {
        let plan =
            PlacementPlan::compute(&MachineModel::fig3_demo(), 4, 4, PinningPolicyKind::Ramr)
                .unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("4 mappers + 4 combiners"));
        assert!(rendered.contains("socket 0 core  0: M0 C0"), "{rendered}");
        assert!(!rendered.contains("unpinned"), "fully pinned plan: {rendered}");
    }

    #[test]
    fn display_reports_unpinned_threads() {
        let plan =
            PlacementPlan::compute(&MachineModel::fig3_demo(), 3, 1, PinningPolicyKind::OsDefault)
                .unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("unpinned threads: 4"), "{rendered}");
    }
}
