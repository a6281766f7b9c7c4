//! The analytic stall and suitability model.

use ramr_topology::MachineModel;

use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};

/// Fraction of a sequential stream's transfer latency the hardware
/// prefetchers fail to hide.
const PREFETCH_MISS_FRACTION: f64 = 0.15;

/// Resource-stall cycles lost per instruction of dependency-chain slack
/// (the `(1 - ilp)` term): full reservation stations / reorder buffer.
const DEPENDENCY_STALL_FACTOR: f64 = 0.35;

/// Per-memory-reference pipeline pressure (load/store buffer occupancy)
/// by access pattern.
fn lsq_pressure(access: AccessPattern) -> f64 {
    match access {
        AccessPattern::CacheResident => 0.02,
        AccessPattern::Streaming { .. } => 0.12,
        AccessPattern::Irregular { .. } => 0.30,
    }
}

/// Stall cycles per element for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Stalls {
    /// Cycles stalled on the memory subsystem (L1/L2 misses and beyond).
    pub mem: f64,
    /// Cycles stalled on dependency chains (full RS / ROB).
    pub dependency: f64,
    /// Cycles stalled on load/store-queue occupancy.
    pub lsq: f64,
}

/// Miss rate and penalty (cycles) for dependent accesses into a working set
/// of `ws` bytes on `machine`.
fn irregular_miss(ws: u64, machine: &MachineModel) -> (f64, f64) {
    let l1 = u64::from(machine.l1d_kb) * 1024;
    let l2 = u64::from(machine.l2_kb) * 1024;
    let shared = u64::from(machine.shared_cache_kb) * 1024;
    let cyc = machine.cycle_ns();
    let l2_pen = 12.0;
    let l3_pen = machine.lat.same_socket_ns / cyc;
    let dram_pen = machine.lat.dram_ns / cyc;
    if ws <= l1 {
        (0.005, l2_pen)
    } else if ws <= l1 + l2 {
        (0.08, l2_pen)
    } else if ws <= shared {
        (0.25, l3_pen)
    } else {
        (0.45, dram_pen)
    }
}

pub(crate) fn phase_stalls(phase: &PhaseProfile, machine: &MachineModel) -> Stalls {
    let cyc = machine.cycle_ns();
    let mem = match phase.access {
        AccessPattern::CacheResident => {
            // Rare conflict misses into L2.
            phase.mem_refs * 0.005 * 12.0
        }
        AccessPattern::Streaming { bytes_per_elem } => {
            // Per-core share of the socket's bandwidth; prefetchers hide
            // most of the latency, the remainder stalls the pipeline.
            let bw_core_gbs = machine.mem_bw_gbs / machine.cores_per_socket as f64;
            let transfer_ns = bytes_per_elem / bw_core_gbs; // GB/s == B/ns
            transfer_ns * PREFETCH_MISS_FRACTION / cyc
        }
        AccessPattern::Irregular { working_set_bytes } => {
            let (miss, penalty) = irregular_miss(working_set_bytes, machine);
            phase.mem_refs * miss * penalty
        }
    };
    let dependency = phase.instructions * (1.0 - phase.ilp) * DEPENDENCY_STALL_FACTOR;
    let lsq = phase.mem_refs * lsq_pressure(phase.access);
    Stalls { mem, dependency, lsq }
}

/// Decomposed per-element cost of one phase on one machine.
///
/// The `mrsim` runtime model needs the split, not just the sum: a thread's
/// *compute* portion contends for its SMT sibling's issue slots, while its
/// *stall* portions are exactly the slots a complementary co-resident
/// thread can soak up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// Pure compute time, ns.
    pub compute_ns: f64,
    /// Memory-subsystem stall time, ns.
    pub mem_stall_ns: f64,
    /// Dependency-chain (RS/ROB) stall time, ns.
    pub dependency_stall_ns: f64,
    /// Load/store-queue occupancy stall time, ns.
    pub lsq_stall_ns: f64,
}

impl PhaseCost {
    /// Total wall-clock per element when running alone, ns.
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.mem_stall_ns + self.resource_stall_ns()
    }

    /// Combined core-resource stall time (dependency + LSQ), ns.
    pub fn resource_stall_ns(&self) -> f64 {
        self.dependency_stall_ns + self.lsq_stall_ns
    }

    /// Fraction of the element time spent issuing instructions — the
    /// thread's demand on its core's execution resources, in `[0, 1]`.
    pub fn cpu_utilization(&self) -> f64 {
        let total = self.total_ns();
        if total == 0.0 {
            0.0
        } else {
            self.compute_ns / total
        }
    }

    /// Scales every component (used for contention inflation).
    pub fn scaled(&self, factor: f64) -> PhaseCost {
        PhaseCost {
            compute_ns: self.compute_ns * factor,
            mem_stall_ns: self.mem_stall_ns * factor,
            dependency_stall_ns: self.dependency_stall_ns * factor,
            lsq_stall_ns: self.lsq_stall_ns * factor,
        }
    }
}

/// Computes the decomposed per-element cost of `phase` on `machine`.
pub fn phase_cost(phase: &PhaseProfile, machine: &MachineModel) -> PhaseCost {
    let stalls = phase_stalls(phase, machine);
    let cyc = machine.cycle_ns();
    PhaseCost {
        compute_ns: phase.compute_ns(machine),
        mem_stall_ns: stalls.mem * cyc,
        dependency_stall_ns: stalls.dependency * cyc,
        lsq_stall_ns: stalls.lsq * cyc,
    }
}

/// The paper's three suitability metrics for one workload on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuitabilityMetrics {
    /// Instructions per input byte.
    pub ipb: f64,
    /// Memory-subsystem stall cycles per instruction.
    pub mspi: f64,
    /// Core-resource stall cycles per instruction.
    pub rspi: f64,
}

impl SuitabilityMetrics {
    /// Combined stall pressure — a convenience for ordering assertions.
    pub fn stall_score(&self) -> f64 {
        self.mspi + self.rspi
    }
}

/// Computes IPB / MSPI / RSPI for `profile` on `machine`, over the whole
/// map-combine phase (as the paper does: "the metrics ... concern the
/// map/combine phase only").
pub fn characterize(profile: &WorkloadProfile, machine: &MachineModel) -> SuitabilityMetrics {
    let instr = profile.instructions_per_input_elem();
    let map_stalls = phase_stalls(&profile.map, machine);
    let combine_stalls = phase_stalls(&profile.combine, machine);
    let mem = map_stalls.mem + profile.emits_per_elem * combine_stalls.mem;
    let resource = map_stalls.dependency
        + map_stalls.lsq
        + profile.emits_per_elem * (combine_stalls.dependency + combine_stalls.lsq);
    SuitabilityMetrics {
        ipb: instr / profile.input_bytes_per_elem,
        mspi: mem / instr,
        rspi: resource / instr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(access: AccessPattern, ilp: f64) -> PhaseProfile {
        PhaseProfile { instructions: 100.0, mem_refs: 25.0, access, ilp }
    }

    #[test]
    fn irregular_stalls_grow_with_working_set() {
        let m = MachineModel::haswell_server();
        let small =
            phase_stalls(&phase(AccessPattern::Irregular { working_set_bytes: 8 << 10 }, 0.9), &m);
        let medium =
            phase_stalls(&phase(AccessPattern::Irregular { working_set_bytes: 1 << 20 }, 0.9), &m);
        let huge =
            phase_stalls(&phase(AccessPattern::Irregular { working_set_bytes: 1 << 30 }, 0.9), &m);
        assert!(small.mem < medium.mem);
        assert!(medium.mem < huge.mem);
    }

    #[test]
    fn cache_resident_is_nearly_stall_free() {
        let m = MachineModel::haswell_server();
        let s = phase_stalls(&phase(AccessPattern::CacheResident, 0.95), &m);
        assert!(s.mem < 2.0, "resident working sets must not stall: {s:?}");
    }

    #[test]
    fn low_ilp_raises_resource_stalls() {
        let m = MachineModel::haswell_server();
        let tight = phase_stalls(&phase(AccessPattern::CacheResident, 0.95), &m);
        let chained = phase_stalls(&phase(AccessPattern::CacheResident, 0.4), &m);
        assert!(chained.dependency > tight.dependency * 3.0);
    }

    #[test]
    fn streaming_stalls_scale_with_bytes() {
        let m = MachineModel::haswell_server();
        let light = phase_stalls(&phase(AccessPattern::Streaming { bytes_per_elem: 8.0 }, 0.9), &m);
        let heavy =
            phase_stalls(&phase(AccessPattern::Streaming { bytes_per_elem: 800.0 }, 0.9), &m);
        assert!((heavy.mem / light.mem - 100.0).abs() < 1.0);
    }

    #[test]
    fn phase_time_includes_stalls() {
        let m = MachineModel::haswell_server();
        let stalled = phase(AccessPattern::Irregular { working_set_bytes: 1 << 30 }, 0.5);
        let clean = phase(AccessPattern::CacheResident, 0.95);
        assert!(phase_cost(&stalled, &m).total_ns() > phase_cost(&clean, &m).total_ns() * 2.0);
    }

    #[test]
    fn characterize_normalizes_by_input_bytes() {
        let m = MachineModel::haswell_server();
        let w = WorkloadProfile {
            name: "t".into(),
            input_bytes_per_elem: 10.0,
            emits_per_elem: 2.0,
            pair_bytes: 16,
            pair_serialize_instr: 0.0,
            map: phase(AccessPattern::CacheResident, 0.9),
            combine: phase(AccessPattern::CacheResident, 0.9),
        };
        let metrics = characterize(&w, &m);
        assert!((metrics.ipb - 30.0).abs() < 1e-9); // (100 + 2*100) / 10
        assert!(metrics.mspi >= 0.0 && metrics.rspi > 0.0);
    }

    #[test]
    fn phase_cost_decomposition_sums_to_time() {
        let m = MachineModel::haswell_server();
        let p = phase(AccessPattern::Irregular { working_set_bytes: 1 << 22 }, 0.6);
        let cost = phase_cost(&p, &m);
        let parts =
            cost.compute_ns + cost.mem_stall_ns + cost.dependency_stall_ns + cost.lsq_stall_ns;
        assert!((cost.total_ns() - parts).abs() < 1e-9);
        assert!(cost.cpu_utilization() > 0.0 && cost.cpu_utilization() < 1.0);
        let doubled = cost.scaled(2.0);
        assert!((doubled.total_ns() - 2.0 * cost.total_ns()).abs() < 1e-9);
    }

    #[test]
    fn phi_dram_penalty_exceeds_haswell() {
        let hwl = MachineModel::haswell_server();
        let phi = MachineModel::xeon_phi();
        let p = phase(AccessPattern::Irregular { working_set_bytes: 1 << 30 }, 0.8);
        // Phi: slower clock (fewer cycles per ns) but much slower DRAM.
        let hwl_ns = phase_stalls(&p, &hwl).mem * hwl.cycle_ns();
        let phi_ns = phase_stalls(&p, &phi).mem * phi.cycle_ns();
        assert!(phi_ns > hwl_ns);
    }
}

impl std::fmt::Display for SuitabilityMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPB {:.2}, MSPI {:.4}, RSPI {:.4}", self.ipb, self.mspi, self.rspi)
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn metrics_display_is_compact() {
        let m = SuitabilityMetrics { ipb: 29.62, mspi: 0.0034, rspi: 0.2239 };
        assert_eq!(m.to_string(), "IPB 29.62, MSPI 0.0034, RSPI 0.2239");
    }
}
