//! Fig 3: the communication-aware `thrid_to_cpu` remapping, on the paper's
//! worked example (2 NUMA nodes x 4 cores x 2-way hyper-threading).

use ramr_topology::{
    physical_position_of, thrid_to_cpu, CommDistance, MachineModel, PinningPolicyKind,
    PlacementPlan,
};

fn main() {
    let m = MachineModel::fig3_demo();
    println!("FIG 3: thrid_to_cpu remapping on {m}");
    let seq = thrid_to_cpu(m.sockets, m.cores_per_socket, m.smt);
    println!("\nthread id -> cpu id (physical position):");
    for (thread, &cpu) in seq.iter().enumerate() {
        let p = physical_position_of(cpu, m.sockets, m.cores_per_socket, m.smt);
        println!(
            "  thr {thread:2} -> cpu {cpu:2}  (socket {}, core {}, smt {})",
            p.socket, p.core, p.thread
        );
    }

    println!("\nRatio-1 placement (8 mappers, 8 combiners):");
    let plan = PlacementPlan::compute(&m, 8, 8, PinningPolicyKind::Ramr).expect("valid pools");
    for mapper in 0..8 {
        let d = plan.mapper_combiner_distance(mapper);
        println!(
            "  mapper {mapper} {:?} <-> combiner {} {:?}: {d}",
            plan.mapper_slot(mapper),
            plan.combiner_of_mapper(mapper),
            plan.combiner_slot(plan.combiner_of_mapper(mapper)),
        );
        assert_eq!(d, CommDistance::SharedCore);
    }
    println!("\nEvery pair communicates through a shared physical core's L1/L2, as in the paper.");
}
