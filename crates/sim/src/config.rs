//! Simulation inputs and outputs.

use mr_core::RuntimeError;
use ramr_perfmodel::WorkloadProfile;
use ramr_topology::{MachineModel, PinningPolicyKind};

/// Which runtime's execution structure to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Phoenix++-style: every worker maps and combines serially.
    Phoenix,
    /// RAMR: decoupled mapper and combiner pools joined by SPSC queues.
    Ramr,
}

impl std::fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RuntimeKind::Phoenix => "phoenix++",
            RuntimeKind::Ramr => "ramr",
        })
    }
}

/// The workload to price: a profile plus its scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Per-element cost description (see `ramr_perfmodel::catalog`).
    pub profile: WorkloadProfile,
    /// Number of input elements.
    pub input_elements: u64,
    /// Distinct intermediate keys each container ends up holding (bounds
    /// the reduce/merge phases).
    pub unique_keys: u64,
}

/// One simulated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The machine to execute on.
    pub machine: MachineModel,
    /// Runtime structure.
    pub runtime: RuntimeKind,
    /// Total hardware threads used. Phoenix spawns this many workers; RAMR
    /// splits it into mappers + combiners.
    pub total_threads: usize,
    /// RAMR mapper-pool size; `0` = derive from the profile's map/combine
    /// throughput ratio ([`auto_split`]). Ignored by Phoenix.
    ///
    /// [`auto_split`]: crate::auto_split
    pub mappers: usize,
    /// RAMR combiner-pool size; `0` = derive. Ignored by Phoenix.
    pub combiners: usize,
    /// Thread placement policy.
    pub pinning: PinningPolicyKind,
    /// Batched-read size (elements per consume); `1` disables batching.
    pub batch_size: usize,
    /// SPSC queue capacity in elements.
    pub queue_capacity: usize,
    /// Input elements per map task.
    pub task_size: usize,
    /// Whether mappers busy-wait (rather than sleep) on a full queue.
    pub busy_wait_push: bool,
}

impl SimConfig {
    /// The paper's Phoenix++ setup on `machine`: one worker per hardware
    /// thread.
    pub fn phoenix(machine: MachineModel) -> Self {
        let threads = machine.logical_cpus();
        Self {
            machine,
            runtime: RuntimeKind::Phoenix,
            total_threads: threads,
            mappers: 0,
            combiners: 0,
            pinning: PinningPolicyKind::Ramr,
            batch_size: 1000,
            queue_capacity: 5000,
            task_size: 4096,
            busy_wait_push: false,
        }
    }

    /// The paper's default RAMR setup on `machine`: all hardware threads,
    /// auto-derived mapper/combiner split, RAMR pinning, queue capacity
    /// 5000, batch size 1000, sleep-on-failed-push.
    pub fn ramr(machine: MachineModel) -> Self {
        Self { runtime: RuntimeKind::Ramr, ..Self::phoenix(machine) }
    }

    /// Validates pool arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when thread counts or sizing
    /// knobs are zero or inconsistent.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.total_threads == 0 {
            return Err(RuntimeError::InvalidConfig("total_threads must be nonzero".into()));
        }
        if self.batch_size == 0 || self.queue_capacity == 0 || self.task_size == 0 {
            return Err(RuntimeError::InvalidConfig(
                "batch_size, queue_capacity and task_size must be nonzero".into(),
            ));
        }
        if self.batch_size > self.queue_capacity {
            return Err(RuntimeError::InvalidConfig(
                "batch_size must not exceed queue_capacity".into(),
            ));
        }
        if self.runtime == RuntimeKind::Ramr && (self.mappers != 0) != (self.combiners != 0) {
            return Err(RuntimeError::InvalidConfig(
                "set both mappers and combiners, or neither (auto split)".into(),
            ));
        }
        if self.mappers != 0 && self.combiners > self.mappers {
            return Err(RuntimeError::InvalidConfig(
                "combiner pool must not exceed mapper pool".into(),
            ));
        }
        Ok(())
    }
}

/// The priced execution of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Input partitioning time, ns.
    pub partition_ns: f64,
    /// Map-combine phase time, ns (overlapped for RAMR).
    pub map_combine_ns: f64,
    /// Reduce phase time, ns.
    pub reduce_ns: f64,
    /// Merge phase time, ns.
    pub merge_ns: f64,
    /// Fraction of the map-combine phase spent on queue work (push + pop +
    /// transfer); zero for Phoenix. High values flag RAMR-unsuitable
    /// (lightweight) workloads.
    pub queue_overhead_fraction: f64,
    /// Per-socket memory-bandwidth utilization during map-combine (>1 means
    /// the phase was bandwidth-stretched).
    pub bandwidth_utilization: f64,
    /// Mapper pool utilization in the steady state (1.0 = mappers are the
    /// bottleneck; <1 means they blocked on full queues).
    pub mapper_utilization: f64,
    /// RAMR mapper-pool size actually used (after auto split).
    pub mappers: usize,
    /// RAMR combiner-pool size actually used (after auto split).
    pub combiners: usize,
}

impl SimReport {
    /// Total wall-clock time, ns.
    pub fn total_ns(&self) -> f64 {
        self.partition_ns + self.map_combine_ns + self.reduce_ns + self.merge_ns
    }

    /// Fraction of total time spent in the map-combine phase (Fig 1).
    pub fn map_combine_fraction(&self) -> f64 {
        self.map_combine_ns / self.total_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        SimConfig::phoenix(MachineModel::haswell_server()).validate().unwrap();
        SimConfig::ramr(MachineModel::xeon_phi()).validate().unwrap();
    }

    #[test]
    fn rejects_inconsistent_pools() {
        let mut c = SimConfig::ramr(MachineModel::haswell_server());
        c.mappers = 4;
        assert!(c.validate().is_err(), "mappers without combiners");
        c.combiners = 8;
        assert!(c.validate().is_err(), "combiners > mappers");
        c.combiners = 2;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_knobs() {
        let mut c = SimConfig::phoenix(MachineModel::haswell_server());
        c.batch_size = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::phoenix(MachineModel::haswell_server());
        c.batch_size = 100;
        c.queue_capacity = 10;
        assert!(c.validate().is_err());
        let mut c = SimConfig::phoenix(MachineModel::haswell_server());
        c.total_threads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn report_totals_and_fractions() {
        let r = SimReport {
            partition_ns: 10.0,
            map_combine_ns: 80.0,
            reduce_ns: 7.0,
            merge_ns: 3.0,
            queue_overhead_fraction: 0.1,
            bandwidth_utilization: 0.5,
            mapper_utilization: 1.0,
            mappers: 4,
            combiners: 2,
        };
        assert_eq!(r.total_ns(), 100.0);
        assert!((r.map_combine_fraction() - 0.8).abs() < 1e-12);
    }
}
