//! Parametric machine descriptions and the two platform presets.

use std::sync::OnceLock;

use crate::comm::CommDistance;

/// How cores are interconnected beyond their private caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// Socket-local last-level cache; sockets form NUMA nodes bridged by an
    /// inter-socket link (the Haswell server).
    NumaSockets,
    /// A bidirectional ring connecting all cores' memory controllers, with
    /// per-core L2 slices contributing to one universally shared L2 (the
    /// Xeon Phi). Cache distance between different cores is nearly uniform,
    /// which is why the paper measured only 1–3% pinning gains there.
    Ring,
}

/// Approximate access latencies used by the communication cost model.
///
/// Values are nanoseconds per cache-line-sized transfer; only their ratios
/// matter for the reproduced figures (the paper's metrics are comparative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLatencies {
    /// Hit in a cache shared by SMT siblings of one physical core (L1/L2).
    pub shared_core_ns: f64,
    /// Hit in the socket-level shared cache (Haswell L3, Phi local L2
    /// neighbourhood).
    pub same_socket_ns: f64,
    /// Transfer crossing the inter-socket link or several ring hops.
    pub cross_socket_ns: f64,
    /// DRAM access.
    pub dram_ns: f64,
}

/// A multi/many-core machine: geometry, caches, and bandwidth.
///
/// The geometry (`sockets × cores_per_socket × smt`) fixes the logical CPU
/// id space; the cache and bandwidth parameters feed the `mrsim` performance
/// model and the `ramr-perfmodel` stall estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable name used in reports ("haswell-server", "xeon-phi").
    pub name: String,
    /// Number of sockets (NUMA nodes for [`Interconnect::NumaSockets`]).
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per physical core.
    pub smt: usize,
    /// Core interconnect topology.
    pub interconnect: Interconnect,
    /// Whether cores execute in order (Xeon Phi / KNC). In-order pipelines
    /// cannot slide independent work past a stalled instruction, so every
    /// exposed stall costs more than on an out-of-order core.
    pub in_order: bool,
    /// Per-core L1D size in KiB.
    pub l1d_kb: u32,
    /// Per-core L2 size in KiB.
    pub l2_kb: u32,
    /// Socket-level shared cache in KiB (L3 on Haswell; the aggregated ring
    /// L2 on the Phi). Zero means none.
    pub shared_cache_kb: u32,
    /// Core clock in GHz (sets the instruction-cost scale).
    pub freq_ghz: f64,
    /// Sustainable memory bandwidth per socket, GiB/s (shared resource in
    /// the contention model).
    pub mem_bw_gbs: f64,
    /// Communication latencies.
    pub lat: CacheLatencies,
}

impl MachineModel {
    /// The dual-socket Intel Haswell server of the evaluation: 2 × 14 cores,
    /// 2-way hyper-threading (56 logical CPUs), 35 MB L3 per socket, NUMA.
    pub fn haswell_server() -> Self {
        Self {
            name: "haswell-server".into(),
            sockets: 2,
            cores_per_socket: 14,
            smt: 2,
            interconnect: Interconnect::NumaSockets,
            in_order: false,
            l1d_kb: 32,
            l2_kb: 256,
            shared_cache_kb: 35 * 1024,
            freq_ghz: 2.6,
            mem_bw_gbs: 60.0,
            lat: CacheLatencies {
                shared_core_ns: 1.5,
                same_socket_ns: 13.0,
                cross_socket_ns: 95.0,
                dram_ns: 90.0,
            },
        }
    }

    /// The Intel Xeon Phi co-processor of the evaluation: 57 cores at
    /// 1.1 GHz, 4-way SMT (228 hardware threads), 28.5 MB of ring-shared L2.
    pub fn xeon_phi() -> Self {
        Self {
            name: "xeon-phi".into(),
            sockets: 1,
            cores_per_socket: 57,
            smt: 4,
            interconnect: Interconnect::Ring,
            in_order: true,
            l1d_kb: 32,
            l2_kb: 512,
            shared_cache_kb: 28 * 1024 + 512,
            freq_ghz: 1.1,
            mem_bw_gbs: 140.0,
            lat: CacheLatencies {
                // Coherence on the Phi goes through the distributed L2
                // ring even between SMT siblings, so the near/far gap is
                // small everywhere — the paper measured only 1-3% pinning
                // gains on this machine.
                shared_core_ns: 14.0,
                same_socket_ns: 24.0,
                cross_socket_ns: 30.0,
                dram_ns: 300.0,
            },
        }
    }

    /// The worked example of Fig 3: two NUMA nodes, four cores per node,
    /// two-way hyper-threading (16 logical CPUs).
    pub fn fig3_demo() -> Self {
        Self {
            name: "fig3-demo".into(),
            sockets: 2,
            cores_per_socket: 4,
            smt: 2,
            ..Self::haswell_server()
        }
    }

    /// A model of the host this process runs on: one socket, no SMT,
    /// `available_parallelism` cores. Used by examples so they work on any
    /// machine.
    ///
    /// Probed once per process: `available_parallelism` is a few syscalls
    /// and file reads, and every fresh session and Phoenix run asks for this
    /// model. Later calls return a copy of the first answer.
    pub fn host() -> Self {
        static HOST: OnceLock<MachineModel> = OnceLock::new();
        HOST.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            Self {
                name: "host".into(),
                sockets: 1,
                cores_per_socket: cores,
                smt: 1,
                ..Self::haswell_server()
            }
        })
        .clone()
    }

    /// Total logical CPUs (`sockets × cores_per_socket × smt`).
    pub fn logical_cpus(&self) -> usize {
        self.sockets * self.cores_per_socket * self.smt
    }

    /// Total physical cores.
    pub fn physical_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Nanoseconds to move one cache line between threads at `distance`.
    pub fn transfer_cost_ns(&self, distance: CommDistance) -> f64 {
        match distance {
            CommDistance::SharedCore => self.lat.shared_core_ns,
            CommDistance::SameSocket => self.lat.same_socket_ns,
            CommDistance::CrossSocket => self.lat.cross_socket_ns,
            CommDistance::Unpinned => {
                // The Linux scheduler's wake-affinity heuristic tends to
                // place a woken consumer on or near its producer's core,
                // but cannot hold it there: the expected distance sits
                // between shared-core and same-socket, degraded by cold
                // caches after each migration. This is why the paper's
                // Linux baseline slightly beats role-oblivious round-robin
                // (2.04x vs 2.28x RAMR advantage) while both lose to
                // explicit contention-aware pinning.
                (self.lat.shared_core_ns + self.lat.same_socket_ns) / 2.0 * 1.15
            }
        }
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.freq_ghz
    }
}

impl std::fmt::Display for MachineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}s x {}c x {}t = {} cpus, {:?})",
            self.name,
            self.sockets,
            self.cores_per_socket,
            self.smt,
            self.logical_cpus(),
            self.interconnect
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_geometry_matches_paper() {
        let m = MachineModel::haswell_server();
        assert_eq!(m.logical_cpus(), 56);
        assert_eq!(m.physical_cores(), 28);
        assert_eq!(m.interconnect, Interconnect::NumaSockets);
    }

    #[test]
    fn xeon_phi_geometry_matches_paper() {
        let m = MachineModel::xeon_phi();
        assert_eq!(m.logical_cpus(), 228);
        assert_eq!(m.physical_cores(), 57);
        assert_eq!(m.interconnect, Interconnect::Ring);
    }

    #[test]
    fn fig3_demo_is_sixteen_cpus() {
        assert_eq!(MachineModel::fig3_demo().logical_cpus(), 16);
    }

    #[test]
    fn transfer_costs_grow_with_distance() {
        let m = MachineModel::haswell_server();
        assert!(
            m.transfer_cost_ns(CommDistance::SharedCore)
                < m.transfer_cost_ns(CommDistance::SameSocket)
        );
        assert!(
            m.transfer_cost_ns(CommDistance::SameSocket)
                < m.transfer_cost_ns(CommDistance::CrossSocket)
        );
        let unpinned = m.transfer_cost_ns(CommDistance::Unpinned);
        assert!(unpinned > m.transfer_cost_ns(CommDistance::SharedCore));
        assert!(unpinned < m.transfer_cost_ns(CommDistance::CrossSocket) * 1.15 + 1.0);
    }

    #[test]
    fn ring_machine_has_flat_remote_costs() {
        let m = MachineModel::xeon_phi();
        let near = m.transfer_cost_ns(CommDistance::SameSocket);
        let far = m.transfer_cost_ns(CommDistance::CrossSocket);
        assert!(
            (far - near) / near < 0.5,
            "Phi's ring keeps remote distances nearly uniform (paper: 1-3% pinning gains)"
        );
    }

    #[test]
    fn host_model_is_usable() {
        let m = MachineModel::host();
        assert!(m.logical_cpus() >= 1);
        assert!(m.to_string().contains("host"));
    }

    #[test]
    fn the_host_is_probed_once_and_answers_alike() {
        assert_eq!(MachineModel::host(), MachineModel::host());
    }

    #[test]
    fn display_is_informative() {
        let s = MachineModel::haswell_server().to_string();
        assert!(s.contains("haswell-server") && s.contains("56"));
    }
}
