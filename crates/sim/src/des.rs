//! An event-driven simulator of the decoupled map-combine pipeline, built
//! only for tests: it is the reference the closed-form [`simulate`] is
//! checked against.
//!
//! Where [`simulate`] prices the phase with closed-form steady-state rates,
//! this module *executes* it: every mapper, combiner and SPSC queue is a
//! simulation entity; production quanta, batched consumption, full-queue
//! blocking and end-of-map draining are discrete events on a virtual clock.
//! Transient effects the closed form can only approximate — pipeline
//! fill/drain, lockstep stalls on small queues, the exact blocking pattern
//! of an undersized combiner pool — fall out of the event order here.
//!
//! The two models share one cost basis (`per_thread_costs`), so their
//! agreement on steady-state-dominated configurations is a genuine
//! cross-validation of the closed form (see `closed_form_agreement` tests),
//! while their divergence on transient-dominated configurations (tiny
//! queues, tiny inputs) measures exactly the effects the closed form
//! approximates.
//!
//! [`simulate`]: crate::simulate

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::{RuntimeKind, SimConfig, SimJob};
use crate::engine::{auto_split, per_thread_costs};

/// Virtual time in nanoseconds, totally ordered via a tie-breaking sequence
/// number so the simulation is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stamp {
    time_ns: f64,
    seq: u64,
}

impl Eq for Stamp {}

impl PartialOrd for Stamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ns
            .partial_cmp(&other.time_ns)
            .expect("virtual times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Mapper `m` finished producing its current quantum and tries to
    /// enqueue it.
    MapperQuantum(usize),
    /// Combiner `c` finished its current batch (or wakes from idle) and
    /// scans its queues.
    CombinerScan(usize),
}

/// The outcome of an event-driven run.
#[derive(Debug, Clone, PartialEq)]
struct DesReport {
    /// Virtual time at which the last pair was consumed (the map-combine
    /// phase length), ns.
    map_combine_ns: f64,
    /// Pairs pushed by all mappers.
    pairs_produced: u64,
    /// Pairs popped by all combiners.
    pairs_consumed: u64,
    /// Number of times a mapper found its queue full and had to wait.
    full_queue_events: u64,
    /// Per-combiner busy time, ns (the rest is idle/waiting).
    combiner_busy_ns: Vec<f64>,
    /// Per-mapper busy time, ns (production only; waiting excluded).
    mapper_busy_ns: Vec<f64>,
    /// Mapper/combiner pool sizes used.
    mappers: usize,
    /// Combiner pool size used.
    combiners: usize,
}

impl DesReport {
    /// Average combiner utilization over the phase, in `[0, 1]`.
    fn combiner_utilization(&self) -> f64 {
        if self.map_combine_ns == 0.0 || self.combiner_busy_ns.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.combiner_busy_ns.iter().sum();
        busy / (self.map_combine_ns * self.combiner_busy_ns.len() as f64)
    }
}

/// State of one mapper entity.
struct Mapper {
    /// Input elements this mapper still has to map (its share of the
    /// dynamically balanced task pool is drawn lazily).
    queue_len: u64,
    /// Pairs per production quantum.
    quantum: u64,
    /// Time to produce one quantum, ns.
    quantum_ns: f64,
    /// Pairs waiting to be enqueued after a full-queue stall.
    pending: u64,
    /// Whether this mapper has mapped all of its elements and flushed.
    done: bool,
}

/// Runs the decoupled map-combine phase event by event.
///
/// Granularity: mappers produce in quanta of `batch_size` pairs (the
/// consumption granularity), so event counts stay proportional to
/// `total_pairs / batch_size`. Dynamic task balancing is approximated by
/// giving each mapper an equal share of elements up front — the closed
/// form's imbalance term covers the last-wave effect separately.
///
/// # Panics
///
/// Panics if `cfg` fails validation or names the Phoenix runtime (the
/// baseline has no queue pipeline to simulate).
fn simulate_event_driven(job: &SimJob, cfg: &SimConfig) -> DesReport {
    cfg.validate().expect("invalid simulation configuration");
    assert_eq!(
        cfg.runtime,
        RuntimeKind::Ramr,
        "the event-driven simulator models the decoupled pipeline only"
    );
    let (mappers, combiners) =
        if cfg.mappers > 0 { (cfg.mappers, cfg.combiners) } else { auto_split(job, cfg) };
    let costs = per_thread_costs(job, cfg, mappers, combiners);
    let e = job.profile.emits_per_elem;

    // Element shares per mapper (dynamic balancing approximated as even).
    let base = job.input_elements / mappers as u64;
    let remainder = (job.input_elements % mappers as u64) as usize;

    let quantum = cfg.batch_size as u64;
    let mut mapper_state: Vec<Mapper> = (0..mappers)
        .map(|m| {
            let elements = base + u64::from(m < remainder);
            let pairs = (elements as f64 * e).round() as u64;
            // Time to produce `quantum` pairs = quantum/e elements of work.
            let quantum_ns = quantum as f64 / e * costs.mapper_elem_ns[m];
            Mapper { queue_len: pairs, quantum, quantum_ns, pending: 0, done: pairs == 0 }
        })
        .collect();

    // SPSC queue occupancies (pairs), indexed by mapper.
    let mut occupancy = vec![0u64; mappers];
    let capacity = cfg.queue_capacity as u64;

    // Combiner bookkeeping.
    let assigned: Vec<Vec<usize>> =
        (0..combiners).map(|c| costs.plan.mappers_of_combiner(c)).collect();
    let mut combiner_busy = vec![0.0f64; combiners];
    let mut combiner_active = vec![false; combiners];
    let mut mapper_busy = vec![0.0f64; mappers];

    let mut heap: BinaryHeap<Reverse<(Stamp, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push_event = |heap: &mut BinaryHeap<Reverse<(Stamp, Event)>>, t: f64, ev: Event| {
        heap.push(Reverse((Stamp { time_ns: t, seq }, ev)));
        seq += 1;
    };

    // Kick off: every mapper starts producing its first quantum; combiners
    // start their first scan.
    for (m, state) in mapper_state.iter().enumerate() {
        if !state.done {
            push_event(
                &mut heap,
                state.quantum_ns.min(state.queue_len as f64 / e * costs.mapper_elem_ns[m]),
                Event::MapperQuantum(m),
            );
        }
    }
    for (c, active) in combiner_active.iter_mut().enumerate() {
        push_event(&mut heap, 0.0, Event::CombinerScan(c));
        *active = true;
    }

    let mut produced = 0u64;
    let mut consumed = 0u64;
    let mut full_events = 0u64;
    let mut last_consume_ns = 0.0f64;
    let total_pairs: u64 = mapper_state.iter().map(|m| m.queue_len).sum();

    /// Idle combiners re-scan after this many ns (mirrors the runtime's
    /// 50 µs sleep, scaled down since virtual polling is free).
    const IDLE_RESCAN_NS: f64 = 500.0;

    while let Some(Reverse((stamp, event))) = heap.pop() {
        let now = stamp.time_ns;
        match event {
            Event::MapperQuantum(m) => {
                let state = &mut mapper_state[m];
                if state.done && state.pending == 0 {
                    continue;
                }
                // Pairs ready to enqueue: either a freshly produced quantum
                // or a stalled batch retrying.
                let ready = if state.pending > 0 {
                    state.pending
                } else {
                    let fresh = state.quantum.min(state.queue_len);
                    state.queue_len -= fresh;
                    mapper_busy[m] += state.quantum_ns * fresh as f64 / state.quantum as f64;
                    fresh
                };
                let free = capacity - occupancy[m];
                if free == 0 {
                    // Full queue: record the stall and retry after the
                    // combiner's next consumption window.
                    state.pending = ready;
                    full_events += 1;
                    push_event(&mut heap, now + IDLE_RESCAN_NS, Event::MapperQuantum(m));
                } else {
                    let written = ready.min(free);
                    occupancy[m] += written;
                    produced += written;
                    state.pending = ready - written;
                    if state.pending > 0 {
                        full_events += 1;
                        push_event(&mut heap, now + IDLE_RESCAN_NS, Event::MapperQuantum(m));
                    } else if state.queue_len > 0 {
                        push_event(&mut heap, now + state.quantum_ns, Event::MapperQuantum(m));
                    } else {
                        state.done = true;
                    }
                    // Wake the owning combiner if it idles.
                    let c = costs.plan.combiner_of_mapper(m);
                    if !combiner_active[c] {
                        combiner_active[c] = true;
                        push_event(&mut heap, now, Event::CombinerScan(c));
                    }
                }
            }
            Event::CombinerScan(c) => {
                // Take the fullest of this combiner's queues.
                let best = assigned[c]
                    .iter()
                    .copied()
                    .max_by_key(|&m| occupancy[m])
                    .filter(|&m| occupancy[m] > 0);
                match best {
                    Some(m) => {
                        let take = occupancy[m].min(cfg.batch_size as u64);
                        occupancy[m] -= take;
                        consumed += take;
                        let busy = take as f64 * costs.pair_ns[c];
                        combiner_busy[c] += busy;
                        if consumed == total_pairs {
                            last_consume_ns = now + busy;
                        }
                        push_event(&mut heap, now + busy, Event::CombinerScan(c));
                    }
                    None => {
                        let all_done = assigned[c]
                            .iter()
                            .all(|&m| mapper_state[m].done && mapper_state[m].pending == 0);
                        if all_done {
                            combiner_active[c] = false; // retires
                        } else {
                            push_event(&mut heap, now + IDLE_RESCAN_NS, Event::CombinerScan(c));
                        }
                    }
                }
            }
        }
        if consumed == total_pairs && mapper_state.iter().all(|s| s.done && s.pending == 0) {
            break;
        }
    }

    debug_assert_eq!(produced, consumed, "every produced pair must be consumed");
    DesReport {
        map_combine_ns: last_consume_ns,
        pairs_produced: produced,
        pairs_consumed: consumed,
        full_queue_events: full_events,
        combiner_busy_ns: combiner_busy,
        mapper_busy_ns: mapper_busy,
        mappers,
        combiners,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use mr_apps::AppKind;
    use ramr_perfmodel::catalog;
    use ramr_topology::MachineModel;

    fn job(app: AppKind, elements: u64) -> SimJob {
        SimJob {
            profile: catalog::default_profile(app),
            input_elements: elements,
            unique_keys: 1000,
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::ramr(MachineModel::haswell_server())
    }

    #[test]
    fn conservation_every_pair_produced_is_consumed() {
        for app in AppKind::ALL {
            let r = simulate_event_driven(&job(app, 50_000), &cfg());
            assert_eq!(r.pairs_produced, r.pairs_consumed, "{app}");
            assert!(r.map_combine_ns > 0.0, "{app}");
        }
    }

    #[test]
    fn determinism() {
        let a = simulate_event_driven(&job(AppKind::WordCount, 80_000), &cfg());
        let b = simulate_event_driven(&job(AppKind::WordCount, 80_000), &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn closed_form_agreement_on_steady_state() {
        // On large, balanced runs the event-driven phase time must agree
        // with the closed-form model within a modest factor (they share the
        // cost basis; the difference is transients vs steady state).
        for app in [AppKind::Histogram, AppKind::WordCount, AppKind::Kmeans] {
            let j = job(app, 2_000_000);
            let des = simulate_event_driven(&j, &cfg());
            let closed = simulate(&j, &cfg());
            let ratio = des.map_combine_ns / closed.map_combine_ns;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{app}: DES {:.3e} vs closed form {:.3e} (ratio {ratio:.2})",
                des.map_combine_ns,
                closed.map_combine_ns
            );
        }
    }

    #[test]
    fn tiny_queues_block_producers() {
        let j = job(AppKind::Histogram, 100_000);
        let mut small = cfg();
        small.queue_capacity = 8;
        small.batch_size = 8;
        let r = simulate_event_driven(&j, &small);
        assert!(r.full_queue_events > 0, "8-slot queues must stall under HG's fan-out");
        let mut large = cfg();
        large.queue_capacity = 100_000;
        large.batch_size = 8;
        let r_large = simulate_event_driven(&j, &large);
        assert!(r_large.full_queue_events < r.full_queue_events);
    }

    #[test]
    fn undersized_combiner_pool_saturates() {
        let j = job(AppKind::WordCount, 200_000);
        let mut starved = cfg();
        starved.mappers = 54;
        starved.combiners = 2;
        let r = simulate_event_driven(&j, &starved);
        assert!(
            r.combiner_utilization() > 0.9,
            "2 combiners against 54 WC mappers must saturate, got {:.2}",
            r.combiner_utilization()
        );
        let mut balanced = cfg();
        balanced.mappers = 28;
        balanced.combiners = 28;
        let b = simulate_event_driven(&j, &balanced);
        assert!(b.map_combine_ns < r.map_combine_ns, "balancing the pools must help WC");
    }

    #[test]
    fn batching_reduces_phase_time_in_the_event_model_too() {
        let j = job(AppKind::Histogram, 300_000);
        let mut unbatched = cfg();
        unbatched.batch_size = 1;
        let mut batched = cfg();
        batched.batch_size = 1000;
        let r1 = simulate_event_driven(&j, &unbatched);
        let r1000 = simulate_event_driven(&j, &batched);
        assert!(
            r1000.map_combine_ns < r1.map_combine_ns,
            "batch 1000 {:.3e} must beat batch 1 {:.3e}",
            r1000.map_combine_ns,
            r1.map_combine_ns
        );
    }

    #[test]
    fn empty_input_terminates_immediately() {
        let r = simulate_event_driven(&job(AppKind::Histogram, 0), &cfg());
        assert_eq!(r.pairs_produced, 0);
        assert_eq!(r.map_combine_ns, 0.0);
    }

    #[test]
    #[should_panic(expected = "decoupled pipeline only")]
    fn phoenix_is_rejected() {
        let mut c = cfg();
        c.runtime = RuntimeKind::Phoenix;
        let _ = simulate_event_driven(&job(AppKind::Histogram, 10), &c);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mr_apps::AppKind;
    use proptest::prelude::*;
    use ramr_perfmodel::catalog;
    use ramr_topology::MachineModel;

    fn app_strategy() -> impl Strategy<Value = AppKind> {
        prop_oneof![
            Just(AppKind::WordCount),
            Just(AppKind::Histogram),
            Just(AppKind::LinearRegression),
            Just(AppKind::Kmeans),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// For arbitrary valid configurations the event-driven simulator
        /// terminates, conserves pairs, and stays deterministic.
        #[test]
        fn des_invariants_hold_for_arbitrary_configs(
            app in app_strategy(),
            elements in 1u64..60_000,
            combiner_div in 2usize..8,
            batch_pow in 0u32..7,
            capacity_mult in 1usize..6,
            haswell in any::<bool>(),
        ) {
            let machine = if haswell {
                MachineModel::haswell_server()
            } else {
                MachineModel::xeon_phi()
            };
            let total = machine.logical_cpus();
            let combiners = (total / combiner_div).max(1);
            let batch = 1usize << batch_pow;
            let mut cfg = SimConfig::ramr(machine);
            cfg.mappers = total - combiners;
            cfg.combiners = combiners;
            cfg.batch_size = batch;
            cfg.queue_capacity = batch * capacity_mult;
            let job = SimJob {
                profile: catalog::default_profile(app),
                input_elements: elements,
                unique_keys: 100,
            };
            let a = simulate_event_driven(&job, &cfg);
            prop_assert_eq!(a.pairs_produced, a.pairs_consumed);
            prop_assert!(a.map_combine_ns.is_finite());
            prop_assert!(a.map_combine_ns >= 0.0);
            let b = simulate_event_driven(&job, &cfg);
            prop_assert_eq!(a, b);
        }

        /// The closed-form model never returns non-finite or non-positive
        /// times for arbitrary valid configurations, and more input never
        /// takes less time.
        #[test]
        fn closed_form_sanity_for_arbitrary_configs(
            app in app_strategy(),
            elements in 1_000u64..10_000_000,
            batch_pow in 0u32..12,
            task_pow in 4u32..20,
        ) {
            let mut cfg = SimConfig::ramr(MachineModel::haswell_server());
            cfg.batch_size = (1usize << batch_pow).min(cfg.queue_capacity);
            cfg.task_size = 1usize << task_pow;
            let job = |n| SimJob {
                profile: catalog::default_profile(app),
                input_elements: n,
                unique_keys: 1000,
            };
            let small = crate::simulate(&job(elements), &cfg);
            let large = crate::simulate(&job(elements * 2), &cfg);
            prop_assert!(small.total_ns().is_finite() && small.total_ns() > 0.0);
            prop_assert!(large.map_combine_ns >= small.map_combine_ns);
        }
    }
}
