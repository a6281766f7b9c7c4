//! Per-application workload descriptors.

use ramr_topology::MachineModel;

/// How a phase touches memory, which determines its stall behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// The phase's working set stays resident in the private caches; memory
    /// references almost never stall (LR's five accumulators, HG's bins).
    CacheResident,
    /// The phase streams through `bytes_per_elem` of data with no reuse —
    /// prefetchable, but bound by memory bandwidth (KM scanning its points,
    /// MM streaming matrix blocks).
    Streaming {
        /// Fresh bytes pulled from memory per element processed.
        bytes_per_elem: f64,
    },
    /// The phase makes dependent, non-regular accesses into a working set
    /// of `working_set_bytes` (hash-table probes, oversized arrays); the
    /// stall rate follows from where that working set fits in the cache
    /// hierarchy.
    Irregular {
        /// Size of the randomly accessed region, bytes.
        working_set_bytes: u64,
    },
}

/// Cost descriptor for one side (map or combine) of a job, per processed
/// element. For the map side an "element" is one input element; for the
/// combine side it is one intermediate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Dynamic instructions per element.
    pub instructions: f64,
    /// Memory references per element (subset of `instructions`).
    pub mem_refs: f64,
    /// Access behaviour of those references.
    pub access: AccessPattern,
    /// Effective superscalar utilization in `(0, 1]`: the fraction of peak
    /// issue width the instruction mix sustains absent memory stalls. Long
    /// dependency chains (FP reductions) push it down and show up as
    /// resource stalls (full RS / ROB).
    pub ilp: f64,
}

impl PhaseProfile {
    /// Nanoseconds of pure compute per element on `machine` (no stalls):
    /// `instructions / (peak_ipc × ilp)` cycles.
    pub fn compute_ns(&self, machine: &MachineModel) -> f64 {
        const PEAK_IPC: f64 = 4.0;
        let eff_ipc = (PEAK_IPC * self.ilp).max(0.25);
        self.instructions / eff_ipc * machine.cycle_ns()
    }
}

/// Complete workload description of one application under one container
/// choice.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Human-readable name ("KM/array", "WC/hash", ...).
    pub name: String,
    /// Bytes of raw input consumed per input element (the IPB denominator).
    pub input_bytes_per_elem: f64,
    /// Intermediate pairs emitted per input element.
    pub emits_per_elem: f64,
    /// Size of one intermediate pair in bytes (what crosses the SPSC queue).
    pub pair_bytes: u64,
    /// Extra instructions a *decoupled* runtime spends per pair to
    /// materialize it for the queue (e.g. Word Count must allocate and copy
    /// an owned string, where inline combining hashes straight out of the
    /// input buffer). Zero for jobs whose pairs are plain values.
    pub pair_serialize_instr: f64,
    /// The map side, per input element (excluding emission cost — the
    /// runtime model adds container-insert or queue-push costs itself).
    pub map: PhaseProfile,
    /// The combine side, per intermediate pair (the container update).
    pub combine: PhaseProfile,
}

impl WorkloadProfile {
    /// Total dynamic instructions per input element (map + its emissions'
    /// combines).
    pub fn instructions_per_input_elem(&self) -> f64 {
        self.map.instructions + self.emits_per_elem * self.combine.instructions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(instructions: f64, ilp: f64) -> PhaseProfile {
        PhaseProfile {
            instructions,
            mem_refs: instructions / 4.0,
            access: AccessPattern::CacheResident,
            ilp,
        }
    }

    #[test]
    fn compute_time_scales_inversely_with_ilp() {
        let m = MachineModel::haswell_server();
        let fast = phase(100.0, 1.0);
        let slow = phase(100.0, 0.25);
        assert!(slow.compute_ns(&m) > fast.compute_ns(&m) * 3.9);
    }

    #[test]
    fn compute_time_scales_with_clock() {
        let hwl = MachineModel::haswell_server(); // 2.6 GHz
        let phi = MachineModel::xeon_phi(); // 1.1 GHz
        let p = phase(100.0, 0.8);
        assert!(p.compute_ns(&phi) > p.compute_ns(&hwl) * 2.0);
    }

    #[test]
    fn instruction_totals_include_combines() {
        let w = WorkloadProfile {
            name: "test".into(),
            input_bytes_per_elem: 4.0,
            emits_per_elem: 3.0,
            pair_bytes: 16,
            pair_serialize_instr: 0.0,
            map: phase(10.0, 1.0),
            combine: phase(5.0, 1.0),
        };
        assert_eq!(w.instructions_per_input_elem(), 25.0);
    }

    #[test]
    fn degenerate_ilp_is_clamped() {
        let m = MachineModel::haswell_server();
        let p = PhaseProfile {
            instructions: 10.0,
            mem_refs: 1.0,
            access: AccessPattern::CacheResident,
            ilp: 0.0,
        };
        assert!(p.compute_ns(&m).is_finite());
    }
}
