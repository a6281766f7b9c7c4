//! Host topology detection from `/proc/cpuinfo`.
//!
//! The RAMR pinning policy needs the real machine's socket/core/SMT
//! geometry to compute placements. On Linux this module parses
//! `/proc/cpuinfo`; elsewhere (or when parsing fails) callers fall back to
//! the flat [`MachineModel::host`] model derived from
//! `available_parallelism`.

use std::collections::BTreeSet;

use crate::machine::MachineModel;

/// Geometry parsed from `/proc/cpuinfo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedGeometry {
    /// Distinct physical packages.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core.
    pub smt: usize,
}

/// Parses `/proc/cpuinfo`-formatted text into a geometry.
///
/// Returns `None` when the text lacks the `physical id` / `core id` fields
/// (virtualized environments often omit them) or is internally inconsistent
/// (logical CPU count not divisible by the core count).
fn parse_cpuinfo(text: &str) -> Option<DetectedGeometry> {
    let mut logical = 0usize;
    let mut sockets: BTreeSet<u32> = BTreeSet::new();
    let mut cores: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut current_socket: Option<u32> = None;

    for line in text.lines() {
        let mut parts = line.splitn(2, ':');
        let key = parts.next()?.trim();
        let value = parts.next().map(str::trim);
        match (key, value) {
            ("processor", Some(_)) => {
                logical += 1;
                current_socket = None;
            }
            ("physical id", Some(v)) => {
                let socket = v.parse().ok()?;
                sockets.insert(socket);
                current_socket = Some(socket);
            }
            ("core id", Some(v)) => {
                let core = v.parse().ok()?;
                cores.insert((current_socket?, core));
            }
            _ => {}
        }
    }

    if logical == 0 || sockets.is_empty() || cores.is_empty() {
        return None;
    }
    let physical_cores = cores.len();
    if !physical_cores.is_multiple_of(sockets.len()) || !logical.is_multiple_of(physical_cores) {
        return None;
    }
    Some(DetectedGeometry {
        sockets: sockets.len(),
        cores_per_socket: physical_cores / sockets.len(),
        smt: logical / physical_cores,
    })
}

impl MachineModel {
    /// Detects the host machine's geometry from `/proc/cpuinfo`, falling
    /// back to [`MachineModel::host`] when unavailable or unparsable.
    ///
    /// Cache/latency parameters keep the Haswell defaults — they only feed
    /// the performance model, while the geometry drives real pinning.
    pub fn detect() -> Self {
        let parsed =
            std::fs::read_to_string("/proc/cpuinfo").ok().as_deref().and_then(parse_cpuinfo);
        match parsed {
            Some(g) => Self {
                name: "detected-host".into(),
                sockets: g.sockets,
                cores_per_socket: g.cores_per_socket,
                smt: g.smt,
                ..Self::host()
            },
            None => Self::host(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_block(processor: u32, socket: u32, core: u32) -> String {
        format!(
            "processor\t: {processor}\nvendor_id\t: GenuineIntel\nphysical id\t: {socket}\n\
             core id\t\t: {core}\ncpu MHz\t\t: 2600.0\n\n"
        )
    }

    #[test]
    fn parses_dual_socket_smt2() {
        // 2 sockets x 2 cores x 2 threads = 8 logical CPUs.
        let mut text = String::new();
        let mut processor = 0;
        for smt in 0..2 {
            let _ = smt;
            for socket in 0..2 {
                for core in 0..2 {
                    text.push_str(&cpu_block(processor, socket, core));
                    processor += 1;
                }
            }
        }
        let g = parse_cpuinfo(&text).expect("valid cpuinfo");
        assert_eq!(g, DetectedGeometry { sockets: 2, cores_per_socket: 2, smt: 2 });
    }

    #[test]
    fn parses_single_core_vm() {
        let text = cpu_block(0, 0, 0);
        let g = parse_cpuinfo(&text).expect("valid cpuinfo");
        assert_eq!(g, DetectedGeometry { sockets: 1, cores_per_socket: 1, smt: 1 });
    }

    #[test]
    fn rejects_missing_topology_fields() {
        let text = "processor\t: 0\nvendor_id\t: GenuineIntel\n\nprocessor\t: 1\n";
        assert_eq!(parse_cpuinfo(text), None);
    }

    #[test]
    fn rejects_inconsistent_counts() {
        // 3 logical CPUs over 2 physical cores is not a valid SMT layout.
        let mut text = String::new();
        text.push_str(&cpu_block(0, 0, 0));
        text.push_str(&cpu_block(1, 0, 1));
        text.push_str(&cpu_block(2, 0, 0));
        assert_eq!(parse_cpuinfo(&text), None);
    }

    #[test]
    fn rejects_empty_input() {
        assert_eq!(parse_cpuinfo(""), None);
    }

    #[test]
    fn detect_always_returns_a_usable_model() {
        let m = MachineModel::detect();
        assert!(m.logical_cpus() >= 1);
        assert!(m.sockets >= 1 && m.smt >= 1);
    }
}
