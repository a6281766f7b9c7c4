//! The `thrid_to_cpu` remapping of Fig 3.
//!
//! Linux enumerates logical CPUs hyperthread-major: ids `0..S*C` are the
//! first hardware thread of every core (socket-major), ids `S*C..2*S*C` the
//! second, and so on. Under that numbering, consecutive ids are *not*
//! physically adjacent. The paper's `thridtocpu()` function re-maps thread
//! ids to a sequence of CPU ids "closely coupled in the physical layout",
//! so that the mapper-combiner pairs `(2i, 2i+1)` share a physical core's
//! L1/L2.

/// Physical position of a logical CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalPos {
    /// Socket (NUMA node) index.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
    /// SMT thread index within the core.
    pub thread: usize,
}

/// Decodes a logical CPU id under the OS (hyperthread-major) numbering.
///
/// # Panics
///
/// Panics if `cpu` is out of range for the geometry.
pub fn physical_position_of(
    cpu: usize,
    sockets: usize,
    cores_per_socket: usize,
    smt: usize,
) -> PhysicalPos {
    let per_thread_block = sockets * cores_per_socket;
    assert!(cpu < per_thread_block * smt, "cpu id {cpu} out of range");
    let thread = cpu / per_thread_block;
    let rem = cpu % per_thread_block;
    PhysicalPos { socket: rem / cores_per_socket, core: rem % cores_per_socket, thread }
}

/// Encodes a physical position into the OS logical CPU id.
fn cpu_id_of(pos: PhysicalPos, sockets: usize, cores_per_socket: usize) -> usize {
    pos.thread * (sockets * cores_per_socket) + pos.socket * cores_per_socket + pos.core
}

/// Computes the remapped CPU id sequence: entry `i` is the OS CPU id that
/// thread id `i` should be pinned to so that consecutive thread ids are
/// physically adjacent (SMT siblings first, then next core, then next
/// socket).
///
/// For the Fig 3 machine (2 sockets × 4 cores × SMT2) this yields
/// `[0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15]`: thread ids
/// `(2i, 2i+1)` land on the two hyperthreads of physical core `i`.
pub fn thrid_to_cpu(sockets: usize, cores_per_socket: usize, smt: usize) -> Vec<usize> {
    let mut seq = Vec::with_capacity(sockets * cores_per_socket * smt);
    for socket in 0..sockets {
        for core in 0..cores_per_socket {
            for thread in 0..smt {
                seq.push(cpu_id_of(
                    PhysicalPos { socket, core, thread },
                    sockets,
                    cores_per_socket,
                ));
            }
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig3_sequence_matches_paper_layout() {
        // 2 sockets x 4 cores x SMT2: pairs (2i, 2i+1) share a core.
        let seq = thrid_to_cpu(2, 4, 2);
        assert_eq!(seq, vec![0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15]);
    }

    #[test]
    fn consecutive_ids_share_a_core() {
        let (s, c, t) = (2, 14, 2);
        let seq = thrid_to_cpu(s, c, t);
        for pair in seq.chunks(t) {
            let positions: Vec<PhysicalPos> =
                pair.iter().map(|&cpu| physical_position_of(cpu, s, c, t)).collect();
            assert!(positions
                .windows(2)
                .all(|w| { w[0].socket == w[1].socket && w[0].core == w[1].core }));
        }
    }

    #[test]
    fn decode_encode_round_trip() {
        let (s, c, t) = (2, 4, 2);
        for cpu in 0..s * c * t {
            let pos = physical_position_of(cpu, s, c, t);
            assert_eq!(cpu_id_of(pos, s, c), cpu);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_panics() {
        let _ = physical_position_of(16, 2, 4, 2);
    }

    #[test]
    fn hyperthread_major_numbering() {
        // On the Fig 3 machine, cpu 0 and cpu 8 are the two hyperthreads of
        // socket 0 core 0 (as drawn on the left of Fig 3).
        let a = physical_position_of(0, 2, 4, 2);
        let b = physical_position_of(8, 2, 4, 2);
        assert_eq!((a.socket, a.core, a.thread), (0, 0, 0));
        assert_eq!((b.socket, b.core, b.thread), (0, 0, 1));
    }

    proptest! {
        #[test]
        fn remap_is_a_permutation(
            sockets in 1usize..4,
            cores in 1usize..16,
            smt in 1usize..5,
        ) {
            let seq = thrid_to_cpu(sockets, cores, smt);
            let n = sockets * cores * smt;
            prop_assert_eq!(seq.len(), n);
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn remap_never_splits_cores_across_sockets(
            sockets in 1usize..4,
            cores in 1usize..8,
            smt in 2usize..5,
        ) {
            let seq = thrid_to_cpu(sockets, cores, smt);
            for chunk in seq.chunks(smt) {
                let first = physical_position_of(chunk[0], sockets, cores, smt);
                for &cpu in chunk {
                    let p = physical_position_of(cpu, sockets, cores, smt);
                    prop_assert_eq!(p.socket, first.socket);
                    prop_assert_eq!(p.core, first.core);
                }
            }
        }
    }
}
