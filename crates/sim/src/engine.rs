//! The pricing engine: closed-form throughput/latency model of both
//! runtimes' map-combine phase plus the shared reduce/merge tail.

use ramr_perfmodel::phase_cost;
use ramr_topology::{CommDistance, MachineModel, PlacementPlan, ThreadRef};

use crate::config::{RuntimeKind, SimConfig, SimJob, SimReport};

// ---------------------------------------------------------------------------
// Model constants. Each is calibrated ONCE against the paper's published
// numbers (see EXPERIMENTS.md) and then reused unchanged for every figure.
// ---------------------------------------------------------------------------

/// Serialized stall exposure: how much more a stall cycle costs when map and
/// combine are *inlined on one thread* (Phoenix++) rather than decoupled.
/// Inline combining interleaves the container's dependent accesses with the
/// map loop, defeating the out-of-order window and the compiler's loop
/// pipelining across the emit boundary; the co-resident SMT sibling runs the
/// *same* mixed workload and contends for exactly the same resources instead
/// of filling the gaps. RAMR's pipelined threads each pay their stalls once,
/// overlapped with the partner's work — precisely the head-room argument of
/// paper §IV-E (high-stall workloads profit, stall-free ones cannot).
const SERIAL_STALL_EXPOSURE: f64 = 6.0;

/// Cycles to invoke the inline emit/combine machinery per pair (Phoenix++).
const EMIT_CYCLES: f64 = 4.0;

/// Cycles for one SPSC push (store + control bookkeeping), excluding the
/// distance-priced RFO of the ring-buffer line (added per placement).
const PUSH_CYCLES: f64 = 14.0;

/// Cycles of per-element consume work, excluding synchronization.
const POP_CYCLES: f64 = 5.0;

/// Cycles of control-variable synchronization per *batch* (one head update
/// plus the producer's next full-check). At batch size 1 this is paid per
/// element — the congestion the paper's batched reads eliminate.
const BATCH_SYNC_CYCLES: f64 = 70.0;

/// Maximum discount on the per-line transfer cost for contiguous batched
/// reads (hardware prefetch across the ring buffer run).
const CONTIG_DISCOUNT_MAX: f64 = 0.75;

/// Extra cost multiplier for threads the OS may migrate (cold caches).
const MIGRATION_PENALTY: f64 = 1.12;

/// Per-task dispatch overhead (dequeue, closure call), ns.
const TASK_OVERHEAD_NS: f64 = 500.0;

/// Partitioning cost per task, ns.
const PARTITION_NS_PER_TASK: f64 = 50.0;

/// Reduce-phase cost per partial pair (hash fold), cycles.
const REDUCE_CYCLES_PER_PAIR: f64 = 60.0;

/// Merge-phase cost per output key per merge level, cycles.
const MERGE_CYCLES_PER_KEY: f64 = 25.0;

/// Combiner wake-up latency fraction when sleeping on empty/full queues.
const SLEEP_WAKE_PENALTY: f64 = 1.01;

/// Core-resource theft when a busy-waiting mapper shares a core with the
/// combiner it is waiting for (the pathology sleep-on-failed-push fixes).
const BUSY_WAIT_CORE_THEFT: f64 = 0.35;

/// Extra stall exposure on in-order cores (the Xeon Phi's KNC pipeline
/// blocks on the first stalled instruction).
const IN_ORDER_EXPOSURE_FACTOR: f64 = 1.75;

/// Producer/consumer lockstep penalty coefficient for queues whose capacity
/// is not comfortably above the producers' burstiness.
const QUEUE_COUPLING_FACTOR: f64 = 0.3;

/// Typical burst of pairs a map task produces before the consumer reacts.
const PRODUCER_BURST_ELEMENTS: f64 = 512.0;

// ---------------------------------------------------------------------------

/// Derives the mapper/combiner pool sizes by searching the split that
/// maximizes the modeled map-combine throughput, as the paper prescribes:
/// the ratio "is application dependent and is driven by the throughput of
/// the map and combine functions" and is finely tuned per invocation. The
/// search prices each candidate with the full placement-aware rate model,
/// so it accounts for queue distances and SMT sharing, not just raw phase
/// costs.
pub fn auto_split(job: &SimJob, cfg: &SimConfig) -> (usize, usize) {
    let total = cfg.total_threads;
    if total == 1 {
        return (1, 1); // degenerate: one thread plays both roles in turn
    }
    // Evaluate candidates at a nominal batch size so the chosen ratio does
    // not flip across a batch-size sensitivity sweep (the paper tunes the
    // ratio per application, then sweeps the other knobs around it).
    let mut nominal = cfg.clone();
    nominal.batch_size = 256;
    nominal.queue_capacity = nominal.queue_capacity.max(256);
    let mut best = (total - 1, 1);
    let mut best_rate = 0.0;
    for combiners in 1..=total / 2 {
        let mappers = total - combiners;
        let (rate, _, _) = map_combine_rate(job, &nominal, mappers, combiners);
        if rate > best_rate {
            best_rate = rate;
            best = (mappers, combiners);
        }
    }
    best
}

/// Fraction of a batch's bytes that spill past the consumer's effective L1
/// window (twice the L1 share: the batch competes with the container's hot
/// set) — the locality cliff behind Fig 7's U-curves, and the reason the
/// Xeon Phi (a quarter of the per-thread L1) prefers much smaller batches.
fn l1_spill_fraction(machine: &MachineModel, batch: usize, pair_bytes: u64) -> f64 {
    let window = 2.0 * f64::from(machine.l1d_kb) * 1024.0 / machine.smt as f64;
    let batch_bytes = batch as f64 * pair_bytes as f64;
    (1.0 - window / batch_bytes).max(0.0)
}

/// Per-pair queue *produce* cost: the push bookkeeping plus the
/// request-for-ownership of a ring-buffer line the consumer read last —
/// crossing the pair's cache distance.
fn push_ns(
    machine: &MachineModel,
    distance: CommDistance,
    pair_bytes: u64,
    serialize_instr: f64,
) -> f64 {
    let cyc = machine.cycle_ns();
    let lines = pair_bytes.div_ceil(64).max(1) as f64;
    (PUSH_CYCLES + serialize_instr) * cyc + 0.5 * lines * machine.transfer_cost_ns(distance)
}

/// Per-pair queue consume cost for one mapper→combiner link.
fn pop_ns(machine: &MachineModel, distance: CommDistance, batch: usize, pair_bytes: u64) -> f64 {
    let cyc = machine.cycle_ns();
    let lines = pair_bytes.div_ceil(64).max(1) as f64;
    let dist_ns = machine.transfer_cost_ns(distance);
    // Contiguous batched reads let the prefetcher overlap at most half of
    // the transfer latency; the line still crosses the interconnect.
    let discount = CONTIG_DISCOUNT_MAX * (1.0 - 1.0 / batch as f64);
    let transfer = lines * dist_ns * (1.0 - 0.5 * discount);
    // One control sync per batch: a head-index update plus the producer's
    // re-read — a round trip at the pair's cache distance. At batch size 1
    // this ping-pong happens per element (the congestion the paper's
    // batched reads remove).
    let sync = (BATCH_SYNC_CYCLES * cyc + 2.0 * dist_ns) / batch as f64;
    // Batches overflowing the L1 window are re-fetched from the next level.
    let spill =
        0.5 * l1_spill_fraction(machine, batch, pair_bytes) * lines * machine.lat.same_socket_ns;
    POP_CYCLES * cyc + transfer + sync + spill
}

/// Load imbalance multiplier of the dynamic task queue: too-large tasks
/// leave threads idle in the last wave (or entirely), too-small tasks are
/// priced separately via [`TASK_OVERHEAD_NS`].
fn imbalance(input_elements: u64, task_size: usize, threads: usize) -> f64 {
    let tasks = (input_elements as f64 / task_size as f64).max(1.0);
    let threads = threads as f64;
    if tasks < threads {
        threads / tasks
    } else {
        1.0 + 0.5 * threads / tasks
    }
}

/// Memory-bandwidth stretch factor: demand beyond the sockets' sustainable
/// bandwidth extends the phase proportionally.
fn bandwidth_stretch(machine: &MachineModel, streaming_bytes_per_ns: f64) -> (f64, f64) {
    let capacity = machine.mem_bw_gbs * machine.sockets as f64; // GB/s == B/ns
    let utilization = streaming_bytes_per_ns / capacity;
    (utilization, utilization.max(1.0))
}

fn streaming_bytes(phase: &ramr_perfmodel::PhaseProfile) -> f64 {
    match phase.access {
        ramr_perfmodel::AccessPattern::Streaming { bytes_per_elem } => bytes_per_elem,
        _ => 0.0,
    }
}

/// The reduce + merge tail, shared by both runtimes (paper: "the rest MR
/// execution remains unchanged"). The number of *partial containers* differs
/// though: one per worker for Phoenix++, one per combiner for RAMR — fewer,
/// larger partials are part of the decoupled design.
fn tail_phases(
    job: &SimJob,
    machine: &MachineModel,
    threads: usize,
    containers: usize,
) -> (f64, f64) {
    let cyc = machine.cycle_ns();
    // Each container holds at most `unique_keys` partials, and the whole
    // run produces at most one partial per emitted pair (jobs like PCA emit
    // every key exactly once, so container count does not multiply them).
    let total_emits = job.input_elements as f64 * job.profile.emits_per_elem;
    let partial_pairs = (job.unique_keys as f64 * containers as f64).min(total_emits);
    let reduce = partial_pairs * REDUCE_CYCLES_PER_PAIR * cyc / threads as f64;
    let levels = (threads as f64).log2().max(1.0);
    let merge = job.unique_keys as f64 * MERGE_CYCLES_PER_KEY * levels * cyc / threads as f64;
    (reduce, merge)
}

/// Prices one configuration.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::validate`] — harnesses validate at
/// construction.
pub fn simulate(job: &SimJob, cfg: &SimConfig) -> SimReport {
    cfg.validate().expect("invalid simulation configuration");
    match cfg.runtime {
        RuntimeKind::Phoenix => simulate_phoenix(job, cfg),
        RuntimeKind::Ramr => simulate_ramr(job, cfg),
    }
}

fn simulate_phoenix(job: &SimJob, cfg: &SimConfig) -> SimReport {
    let machine = &cfg.machine;
    let cyc = machine.cycle_ns();
    let threads = cfg.total_threads;
    let map = phase_cost(&job.profile.map, machine);
    let combine = phase_cost(&job.profile.combine, machine);
    let e = job.profile.emits_per_elem;

    // Serialized per-element cost: map, then e inline combines. Dependency
    // and irregular-access stalls are *exposed* (the OoO window cannot
    // bridge the inline emit boundary); streaming stalls are already
    // bandwidth-bound and pass through unchanged.
    let compute = map.compute_ns + e * (combine.compute_ns + EMIT_CYCLES * cyc);
    // Only dependency-chain stalls and irregular-access misses are exposed:
    // streaming misses are bandwidth-bound regardless of structure, and
    // LSQ occupancy is part of the pipeline either way.
    let exposed_of = |phase: &ramr_perfmodel::PhaseProfile, cost: &ramr_perfmodel::PhaseCost| {
        let mem = match phase.access {
            ramr_perfmodel::AccessPattern::Irregular { .. } => cost.mem_stall_ns,
            _ => 0.0,
        };
        mem + cost.dependency_stall_ns
    };
    let exposed =
        exposed_of(&job.profile.map, &map) + e * exposed_of(&job.profile.combine, &combine);
    let raw = map.mem_stall_ns
        + map.resource_stall_ns()
        + e * (combine.mem_stall_ns + combine.resource_stall_ns());
    let passthrough = raw - exposed;

    // SMT sharing: every core hosts `threads_per_core` identical mixed
    // workers contending for issue slots (utilization taken on the
    // un-exposed mix — contention is physical, not model-inflated).
    let threads_per_core = threads.div_ceil(machine.physical_cores());
    let u = compute / (compute + raw);
    let smt_factor = (threads_per_core as f64 * u).max(1.0);
    // In-order cores (Xeon Phi) cannot slide past a stalled inline combine
    // at all; the exposure is correspondingly deeper.
    let exposure =
        SERIAL_STALL_EXPOSURE * if machine.in_order { IN_ORDER_EXPOSURE_FACTOR } else { 1.0 };
    let elem_ns = compute * smt_factor + passthrough + exposed * exposure;

    // Aggregate streaming demand vs. machine bandwidth.
    let rate_total = threads as f64 / elem_ns; // elements per ns
    let stream = streaming_bytes(&job.profile.map) + e * streaming_bytes(&job.profile.combine);
    let (bw_util, stretch) = bandwidth_stretch(machine, rate_total * stream);

    let n = job.input_elements as f64;
    let tasks = (n / cfg.task_size as f64).ceil().max(1.0);
    let map_combine_ns = n * elem_ns / threads as f64
        * imbalance(job.input_elements, cfg.task_size, threads)
        * stretch
        + tasks * TASK_OVERHEAD_NS / threads as f64;

    let (reduce_ns, merge_ns) = tail_phases(job, machine, threads, threads);
    SimReport {
        partition_ns: tasks * PARTITION_NS_PER_TASK,
        map_combine_ns,
        reduce_ns,
        merge_ns,
        queue_overhead_fraction: 0.0,
        bandwidth_utilization: bw_util,
        mapper_utilization: 1.0,
        mappers: threads,
        combiners: 0,
    }
}

/// Computes the map-combine steady-state rate (input elements per ns) for a
/// given split, along with the map-side-only rate and the average pair cost
/// (for drain accounting). Shared by [`auto_split`]'s search and the full
/// simulation.
/// Contention-adjusted per-thread costs for one (mappers, combiners) split:
/// the placement plan, each mapper's per-input-element time (including its
/// pushes) and each combiner's per-pair time (including its batched pops).
/// Shared by the closed-form rate model and the event-driven simulator.
pub(crate) struct ThreadCosts {
    pub plan: PlacementPlan,
    pub mapper_elem_ns: Vec<f64>,
    pub pair_ns: Vec<f64>,
}

pub(crate) fn per_thread_costs(
    job: &SimJob,
    cfg: &SimConfig,
    mappers: usize,
    combiners: usize,
) -> ThreadCosts {
    let machine = &cfg.machine;
    let plan =
        PlacementPlan::compute(machine, mappers, combiners, cfg.pinning).expect("validated pools");

    let map = phase_cost(&job.profile.map, machine);
    let combine = phase_cost(&job.profile.combine, machine);
    let e = job.profile.emits_per_elem;

    // Issue-slot utilization each role demands of its hardware thread. A
    // combiner only contends while it is actually consuming, so its raw
    // utilization is weighted by an estimated duty cycle (offered pair load
    // over consume capacity, un-inflated first-order estimate).
    let u_map = map.cpu_utilization();
    let naive_map_elem =
        map.total_ns() + e * (PUSH_CYCLES + job.profile.pair_serialize_instr) * machine.cycle_ns();
    let naive_pair = combine.total_ns() + POP_CYCLES * machine.cycle_ns();
    let mut combiner_duty = vec![1.0f64; combiners];
    for (c, duty) in combiner_duty.iter_mut().enumerate() {
        let group_rate = plan.mappers_of_combiner(c).len() as f64 / naive_map_elem;
        *duty = (group_rate * e * naive_pair).min(1.0);
    }
    let u_combine = combine.cpu_utilization();

    // Per-core contention factors from the actual placement.
    let core_factor = |residents: &[ThreadRef]| -> f64 {
        let demand: f64 = residents
            .iter()
            .map(|t| match t {
                ThreadRef::Mapper(_) => u_map,
                ThreadRef::Combiner(c) => u_combine * combiner_duty[*c],
            })
            .sum();
        demand.max(1.0)
    };
    let by_core = plan.threads_by_core();
    let mut mapper_factor = vec![1.0f64; mappers];
    let mut combiner_factor = vec![1.0f64; combiners];
    if by_core.is_empty() {
        // Unpinned: expected contention plus migration penalty.
        let avg_duty = combiner_duty.iter().sum::<f64>() / combiners as f64;
        let total_u = mappers as f64 * u_map + combiners as f64 * u_combine * avg_duty;
        let f = (total_u / machine.physical_cores() as f64).max(1.0) * MIGRATION_PENALTY;
        mapper_factor.fill(f);
        combiner_factor.fill(f);
    } else {
        for residents in by_core.values() {
            let f = core_factor(residents);
            for t in residents {
                match t {
                    ThreadRef::Mapper(m) => mapper_factor[*m] = f,
                    ThreadRef::Combiner(c) => combiner_factor[*c] = f,
                }
            }
        }
    }

    // Mapper-side time per input element: the map work (compute inflated by
    // core sharing) plus e pushes priced at this mapper's queue distance.
    let mapper_elem_ns: Vec<f64> = (0..mappers)
        .map(|m| {
            let push = push_ns(
                machine,
                plan.mapper_combiner_distance(m),
                job.profile.pair_bytes,
                job.profile.pair_serialize_instr,
            );
            map.compute_ns * mapper_factor[m]
                + map.mem_stall_ns
                + map.resource_stall_ns()
                + e * push
        })
        .collect();

    // Combiner-side time per pair, per combiner (distance depends on its
    // mappers' placement).
    let pair_ns: Vec<f64> = (0..combiners)
        .map(|c| {
            let assigned = plan.mappers_of_combiner(c);
            let avg_pop: f64 = assigned
                .iter()
                .map(|&m| {
                    pop_ns(
                        machine,
                        plan.mapper_combiner_distance(m),
                        cfg.batch_size,
                        job.profile.pair_bytes,
                    )
                })
                .sum::<f64>()
                / assigned.len() as f64;
            combine.compute_ns * combiner_factor[c]
                + combine.mem_stall_ns
                + combine.resource_stall_ns()
                + avg_pop
        })
        .collect();

    ThreadCosts { plan, mapper_elem_ns, pair_ns }
}

fn map_combine_rate(
    job: &SimJob,
    cfg: &SimConfig,
    mappers: usize,
    combiners: usize,
) -> (f64, f64, f64) {
    let ThreadCosts { plan, mapper_elem_ns, pair_ns } =
        per_thread_costs(job, cfg, mappers, combiners);
    let e = job.profile.emits_per_elem;
    let combiners = pair_ns.len();

    // Per-group pipelined throughput: the dynamic task queue load-balances
    // *time* across mappers, so each combiner group contributes
    // min(its mappers' map rate, its combiner's consume rate) and the
    // machine's throughput is the sum over groups.
    let mut rate = 0.0; // input elements per ns
    let mut map_side_rate = 0.0;
    let mut any_blocked = false;
    for (c, pair_ns_c) in pair_ns.iter().enumerate() {
        let group = plan.mappers_of_combiner(c);
        let group_map_rate: f64 = group.iter().map(|&m| 1.0 / mapper_elem_ns[m]).sum();
        let combiner_rate = 1.0 / (pair_ns_c * e); // input elements per ns
        map_side_rate += group_map_rate;
        if combiner_rate < group_map_rate {
            any_blocked = true;
            // The group's mappers block on full queues; busy-waiting ones
            // additionally steal issue slots from the co-located combiner
            // (the pathology sleep-on-failed-push fixes).
            let throttle = if cfg.busy_wait_push {
                1.0 / (1.0 + BUSY_WAIT_CORE_THEFT)
            } else {
                1.0 / SLEEP_WAKE_PENALTY
            };
            rate += combiner_rate * throttle;
        } else {
            rate += group_map_rate;
        }
    }
    let _ = any_blocked;
    let avg_pair = pair_ns.iter().sum::<f64>() / combiners as f64;
    (rate, map_side_rate, avg_pair)
}

fn simulate_ramr(job: &SimJob, cfg: &SimConfig) -> SimReport {
    let machine = &cfg.machine;
    let (mappers, combiners) =
        if cfg.mappers > 0 { (cfg.mappers, cfg.combiners) } else { auto_split(job, cfg) };
    let plan =
        PlacementPlan::compute(machine, mappers, combiners, cfg.pinning).expect("validated pools");
    let map = phase_cost(&job.profile.map, machine);
    let combine = phase_cost(&job.profile.combine, machine);
    let e = job.profile.emits_per_elem;
    let (rate, map_side_rate, avg_pair) = map_combine_rate(job, cfg, mappers, combiners);

    let n = job.input_elements as f64;
    let mut phase = n / rate * imbalance(job.input_elements, cfg.task_size, mappers);
    let mapper_utilization = (rate / map_side_rate).min(1.0);

    // Queue coupling: a capacity without comfortable slack above the
    // producers' burstiness runs the pair in lockstep, stalling both sides.
    // Capacity 5000 keeps the penalty under ~3% — the paper's "within 2% of
    // optimal" finding — while small queues degrade visibly.
    let coupling = 1.0
        + QUEUE_COUPLING_FACTOR * (PRODUCER_BURST_ELEMENTS + cfg.batch_size as f64 / 8.0)
            / cfg.queue_capacity as f64;
    phase *= coupling;

    // Pipeline drain: after the last map task the queues still hold up to
    // capacity elements, consumed in batches.
    let drain = (cfg.queue_capacity as f64 / 2.0 + cfg.batch_size as f64) * avg_pair;
    phase += drain;

    // Bandwidth: map streaming plus cross-socket queue traffic.
    let rate_total = n / phase; // input elements per ns (steady state approx)
    let cross_traffic: f64 = (0..mappers)
        .map(|m| match plan.mapper_combiner_distance(m) {
            CommDistance::CrossSocket => job.profile.pair_bytes as f64,
            CommDistance::Unpinned => job.profile.pair_bytes as f64 * 0.5,
            _ => 0.0,
        })
        .sum::<f64>()
        / mappers as f64;
    let stream = streaming_bytes(&job.profile.map) + e * cross_traffic;
    let (bw_util, stretch) = bandwidth_stretch(machine, rate_total * stream);
    phase *= stretch;

    let tasks = (n / cfg.task_size as f64).ceil().max(1.0);
    phase += tasks * TASK_OVERHEAD_NS / mappers as f64;

    // Diagnostics: share of per-element cost that is pure queue machinery.
    let avg_push: f64 = (0..mappers)
        .map(|m| {
            push_ns(
                machine,
                plan.mapper_combiner_distance(m),
                job.profile.pair_bytes,
                job.profile.pair_serialize_instr,
            )
        })
        .sum::<f64>()
        / mappers as f64;
    let queue_ns = e * (avg_push + (avg_pair - combine.total_ns()).max(0.0));
    let work_ns = map.total_ns() + e * combine.total_ns();
    let queue_overhead_fraction = queue_ns / (queue_ns + work_ns);

    let total_threads = mappers + combiners;
    let (reduce_ns, merge_ns) = tail_phases(job, machine, total_threads, combiners);
    SimReport {
        partition_ns: tasks * PARTITION_NS_PER_TASK,
        map_combine_ns: phase,
        reduce_ns,
        merge_ns,
        queue_overhead_fraction,
        bandwidth_utilization: bw_util,
        mapper_utilization,
        mappers,
        combiners,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_apps::AppKind;
    use ramr_perfmodel::catalog;
    use ramr_topology::PinningPolicyKind;

    fn job(app: AppKind, stressed: bool) -> SimJob {
        let profile =
            if stressed { catalog::stressed_profile(app) } else { catalog::default_profile(app) };
        let (elements, keys) = match app {
            AppKind::WordCount => (2_000_000, 5_000),
            AppKind::Histogram => (60_000_000, 768),
            AppKind::LinearRegression => (50_000_000, 5),
            AppKind::Kmeans => (2_000_000, 64),
            AppKind::Pca => (500_000, 500_000),
            AppKind::MatrixMultiply => (32_000, 65_536),
        };
        SimJob { profile, input_elements: elements, unique_keys: keys }
    }

    fn speedup(app: AppKind, stressed: bool, machine: MachineModel) -> f64 {
        let j = job(app, stressed);
        let phoenix = simulate(&j, &SimConfig::phoenix(machine.clone()));
        let ramr = simulate(&j, &SimConfig::ramr(machine));
        phoenix.total_ns() / ramr.total_ns()
    }

    #[test]
    fn fig8a_heavy_apps_win_light_apps_lose_on_haswell() {
        let m = MachineModel::haswell_server;
        assert!(speedup(AppKind::Kmeans, false, m()) > 1.2, "KM must win (paper: 1.95x)");
        assert!(speedup(AppKind::MatrixMultiply, false, m()) > 1.2, "MM must win (paper: 1.77x)");
        let pca = speedup(AppKind::Pca, false, m());
        assert!((0.7..1.4).contains(&pca), "PCA roughly at par (paper: ~1x), got {pca}");
        let wc = speedup(AppKind::WordCount, false, m());
        assert!((0.6..1.0).contains(&wc), "WC slightly slower (paper: 0.82x), got {wc}");
        assert!(speedup(AppKind::Histogram, false, m()) < 0.6, "HG must lose (paper: ~1/3)");
        assert!(
            speedup(AppKind::LinearRegression, false, m()) < 0.6,
            "LR must lose (paper: ~1/3.8)"
        );
    }

    #[test]
    fn fig9a_wc_flips_to_a_win_on_the_phi() {
        // The paper's platform contrast: WC loses 21.6% on Haswell but wins
        // 1.59x on the Xeon Phi.
        let hwl = speedup(AppKind::WordCount, false, MachineModel::haswell_server());
        let phi = speedup(AppKind::WordCount, false, MachineModel::xeon_phi());
        assert!(hwl < 1.0 && phi > 1.0, "WC: hwl {hwl:.2}, phi {phi:.2}");
    }

    #[test]
    fn fig8b_hash_containers_improve_ramr_standing() {
        // With the stressed (hash) containers RAMR wins 5/6 on Haswell.
        let m = MachineModel::haswell_server;
        let mut wins = 0;
        for app in AppKind::ALL {
            if speedup(app, true, m()) > 1.0 {
                wins += 1;
            }
        }
        assert!(wins >= 4, "paper: 5 of 6 apps win with hash containers, got {wins}");
        // And each app's standing does not get worse.
        for app in AppKind::ALL {
            let default = speedup(app, false, m());
            let stressed = speedup(app, true, m());
            assert!(
                stressed > default * 0.8,
                "{app}: hash containers must not hurt RAMR's relative standing \
                 ({default:.2} -> {stressed:.2})"
            );
        }
    }

    #[test]
    fn fig9_phi_amplifies_the_pattern() {
        let phi = MachineModel::xeon_phi;
        assert!(speedup(AppKind::Kmeans, false, phi()) > 1.3, "KM wins big on PHI (paper: 2.8x)");
        assert!(speedup(AppKind::Histogram, false, phi()) < 0.7, "HG loses on PHI");
        // Stressed containers: higher average speedup than Haswell (2.6x vs 1.57x).
        let avg_phi: f64 = AppKind::ALL.iter().map(|&a| speedup(a, true, phi())).sum::<f64>() / 6.0;
        let avg_hwl: f64 = AppKind::ALL
            .iter()
            .map(|&a| speedup(a, true, MachineModel::haswell_server()))
            .sum::<f64>()
            / 6.0;
        assert!(avg_phi > avg_hwl, "PHI stressed avg {avg_phi:.2} must exceed HWL {avg_hwl:.2}");
    }

    #[test]
    fn fig5_pinning_policy_ordering() {
        // RAMR pinning beats round-robin beats nothing, on every app (HWL),
        // holding the mapper/combiner split fixed across policies as the
        // paper does.
        for app in AppKind::ALL {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
            let (m, c) = auto_split(&j, &cfg);
            cfg.mappers = m;
            cfg.combiners = c;
            cfg.pinning = PinningPolicyKind::Ramr;
            let ramr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::RoundRobin;
            let rr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::OsDefault;
            let os = simulate(&j, &cfg).total_ns();
            assert!(ramr <= rr * 1.001, "{app}: RAMR pinning must not lose to RR");
            assert!(ramr <= os * 1.001, "{app}: RAMR pinning must not lose to the OS scheduler");
        }
    }

    #[test]
    fn fig5_light_apps_gain_most_from_pinning() {
        let gain = |app| {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
            let (m, c) = auto_split(&j, &cfg);
            cfg.mappers = m;
            cfg.combiners = c;
            cfg.pinning = PinningPolicyKind::RoundRobin;
            let rr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::Ramr;
            let ramr = simulate(&j, &cfg).total_ns();
            rr / ramr
        };
        // HG and LR are queue-dominated, so placement matters most for them.
        let light = gain(AppKind::Histogram).max(gain(AppKind::LinearRegression));
        let heavy = gain(AppKind::Pca).max(gain(AppKind::Kmeans));
        assert!(light > heavy, "light apps must be the most pinning-sensitive");
    }

    #[test]
    fn fig5_phi_pinning_gains_are_small() {
        for app in AppKind::ALL {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(MachineModel::xeon_phi());
            let (m, c) = auto_split(&j, &cfg);
            cfg.mappers = m;
            cfg.combiners = c;
            cfg.pinning = PinningPolicyKind::RoundRobin;
            let rr = simulate(&j, &cfg).total_ns();
            cfg.pinning = PinningPolicyKind::Ramr;
            let ramr = simulate(&j, &cfg).total_ns();
            let gain = rr / ramr;
            assert!(gain >= 0.99, "{app}: RAMR still ahead on PHI, got {gain:.3}");
            assert!(gain < 1.3, "{app}: PHI pinning gains stay small (paper: 1-3%), got {gain:.3}");
        }
    }

    #[test]
    fn fig6_batching_wins_and_wins_more_on_phi() {
        let gain = |machine: MachineModel, app| {
            let j = job(app, false);
            let mut cfg = SimConfig::ramr(machine);
            cfg.batch_size = 1;
            let unbatched = simulate(&j, &cfg).total_ns();
            cfg.batch_size = 1000.min(cfg.queue_capacity);
            let batched = simulate(&j, &cfg).total_ns();
            unbatched / batched
        };
        for app in AppKind::ALL {
            assert!(gain(MachineModel::haswell_server(), app) >= 1.0, "{app}: batching must help");
        }
        // The paper's largest gains: 3.1x on HWL, 11.4x on PHI — light apps.
        let hwl = gain(MachineModel::haswell_server(), AppKind::Histogram);
        let phi = gain(MachineModel::xeon_phi(), AppKind::Histogram);
        assert!(hwl > 1.5, "HG batching gain on HWL, got {hwl:.2}");
        assert!(
            phi > hwl * 0.95,
            "PHI batching gain must be at least comparable to HWL ({phi:.2} vs {hwl:.2});              the paper reports 11.4x vs 3.1x maxima"
        );
    }

    #[test]
    fn fig7_batch_size_curves_are_u_shaped_with_smaller_phi_optimum() {
        let times = |machine: MachineModel, app| {
            let j = job(app, false);
            [1usize, 5, 20, 100, 500, 1000, 2000, 5000].map(|batch| {
                let mut cfg = SimConfig::ramr(machine.clone());
                cfg.batch_size = batch;
                cfg.queue_capacity = 5000;
                simulate(&j, &cfg).total_ns()
            })
        };
        // Paper (HWL): "all applications profit from a 1000 elements batch
        // size" — time at 1000 sits within a few percent of the curve's
        // minimum, and element-wise consumption (batch 1) is clearly worse.
        for app in AppKind::ALL {
            let t = times(MachineModel::haswell_server(), app);
            let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
            let at_1000 = t[5];
            assert!(at_1000 <= best * 1.10, "{app}: batch 1000 must be near-optimal on HWL");
            assert!(t[0] > best, "{app}: batch 1 must be suboptimal");
        }
        // Paper (PHI): the optima sit at smaller batches (20-500); a
        // 500-element batch is near-optimal and the curve rises by 5000.
        for app in AppKind::ALL {
            let t = times(MachineModel::xeon_phi(), app);
            let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
            let at_500 = t[4];
            assert!(at_500 <= best * 1.10, "{app}: batch 500 must be near-optimal on PHI");
            assert!(t[7] >= at_500, "{app}: batch 5000 must not beat 500 on PHI");
        }
    }

    #[test]
    fn fig1_map_combine_dominates_runtime() {
        // Paper Fig 1: 82.4% average across the suite (Phoenix-style run).
        let mut total_fraction = 0.0;
        for app in AppKind::ALL {
            let j = job(app, false);
            let r = simulate(&j, &SimConfig::phoenix(MachineModel::haswell_server()));
            total_fraction += r.map_combine_fraction();
        }
        let avg = total_fraction / 6.0;
        assert!(avg > 0.7, "map-combine must dominate (paper: 82.4%), got {avg:.2}");
    }

    #[test]
    fn sleep_on_failed_push_beats_busy_wait_when_combiners_bottleneck() {
        // Force a combiner bottleneck: one combiner for many mappers on a
        // combine-heavy profile.
        let j = job(AppKind::WordCount, true);
        let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
        cfg.mappers = 54;
        cfg.combiners = 2;
        cfg.busy_wait_push = false;
        let sleeping = simulate(&j, &cfg).total_ns();
        cfg.busy_wait_push = true;
        let spinning = simulate(&j, &cfg).total_ns();
        assert!(spinning > sleeping, "busy-wait must hurt under combiner bottleneck");
    }

    #[test]
    fn auto_split_tracks_combine_intensity() {
        let cfg = SimConfig::ramr(MachineModel::haswell_server());
        let light = job(AppKind::Kmeans, false); // tiny combine per map work
        let heavy = job(AppKind::WordCount, true); // hash combine, 10 emits
        let (_, c_light) = auto_split(&light, &cfg);
        let (_, c_heavy) = auto_split(&heavy, &cfg);
        assert!(
            c_heavy > c_light,
            "combine-heavy workloads need more combiners ({c_heavy} vs {c_light})"
        );
    }

    #[test]
    fn queue_overhead_fraction_flags_light_apps() {
        let m = MachineModel::haswell_server();
        let light = simulate(&job(AppKind::LinearRegression, false), &SimConfig::ramr(m.clone()));
        let heavy = simulate(&job(AppKind::Pca, false), &SimConfig::ramr(m));
        assert!(light.queue_overhead_fraction > heavy.queue_overhead_fraction * 3.0);
    }

    #[test]
    fn reports_are_deterministic() {
        let j = job(AppKind::Kmeans, false);
        let cfg = SimConfig::ramr(MachineModel::haswell_server());
        assert_eq!(simulate(&j, &cfg), simulate(&j, &cfg));
    }

    #[test]
    fn more_input_means_more_time() {
        let mut j = job(AppKind::Histogram, false);
        let cfg = SimConfig::ramr(MachineModel::haswell_server());
        let small = simulate(&j, &cfg).total_ns();
        j.input_elements *= 4;
        let large = simulate(&j, &cfg).total_ns();
        assert!(large > small * 2.0);
    }
}
