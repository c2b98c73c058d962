//! Engine-equivalence properties: the lane-sharded production engine
//! ([`mf_sim::Sim`]) must be indistinguishable from the single-global-heap
//! reference ([`mf_sim::SingleHeapSim`]).
//!
//! Two layers of evidence:
//!
//! * **Raw queue order** — for arbitrary interleavings of point-to-point
//!   messages, timers, and broadcasts, the two engines pop the exact same
//!   event sequence once each broadcast block the lanes pop whole is
//!   unrolled into its per-target messages. Bit-equality is the strongest
//!   legal tie-break of the `(time, insertion order)` contract: every FIFO
//!   tie resolves the same way on both.
//! * **Whole runs** — [`parsim::run`] (lanes) and [`parsim::run_reference`]
//!   (single heap) produce identical `RunResult`s field for field — peaks,
//!   makespan, traffic, metrics, recordings, digests — across random
//!   strategies, perturbation seeds, and kill/join schedules. The lanes
//!   hand each status block to the cores in one call, the reference one
//!   message at a time, so this also checks the block path.

use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::engine::{Event, EventPayload, Sim, SingleHeapSim};
use mf_sim::FaultModel;
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};
use proptest::prelude::*;

fn tree_for(nx: usize) -> AssemblyTree {
    let a = grid2d(nx, nx, Stencil::Star);
    let p = OrderingKind::Metis.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    s.tree
}

fn strategy_cfg(which: usize, nprocs: usize) -> SolverConfig {
    let base = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(nprocs) };
    match which {
        0 => base,
        1 => SolverConfig {
            slave_selection: SlaveSelection::Memory,
            task_selection: TaskSelection::MemoryAware,
            use_subtree_info: true,
            use_prediction: true,
            ..base
        },
        _ => SolverConfig {
            slave_selection: SlaveSelection::Hybrid,
            task_selection: TaskSelection::MemoryAwareGlobal,
            use_subtree_info: true,
            use_prediction: true,
            ..base
        },
    }
}

/// Names one leg's outcome for the divergence message of the membership
/// property below.
fn outcome_name<E>(r: &std::thread::Result<Result<RunResult, E>>) -> &'static str {
    match r {
        Ok(Ok(_)) => "completed",
        Ok(Err(_)) => "returned an error",
        Err(_) => "panicked",
    }
}

/// One queued operation of the raw-order property, drawn by proptest as
/// a `(kind, delay, a, b)` tuple: kind 0 = point-to-point message from
/// `a` to `b`, kind 1 = timer on `a` with key `b`, kind 2 = broadcast
/// from `a` (processor indices are taken modulo the machine size).
type Op = (usize, u64, usize, u64);

fn apply_op(op: Op, nprocs: usize, lanes: &mut Sim<u64>, heap: &mut SingleHeapSim<u64>, tag: u64) {
    let (kind, delay, a, b) = op;
    match kind {
        0 => {
            let p = EventPayload::Message { from: a % nprocs, to: b as usize % nprocs, msg: tag };
            lanes.schedule(delay, p.clone());
            heap.schedule(delay, p);
        }
        1 => {
            lanes.schedule_timer(a % nprocs, delay, b);
            heap.schedule_timer(a % nprocs, delay, b);
        }
        _ => {
            lanes.schedule_broadcast(delay, a % nprocs, nprocs, tag);
            heap.schedule_broadcast(delay, a % nprocs, nprocs, tag);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Raw queue order: the lane engine's delivery sequence is exactly
    /// the single-heap sequence — the same (hence a legal) resolution of
    /// every FIFO tie — for arbitrary operation interleavings, including
    /// operations scheduled reactively mid-drain and mid-broadcast.
    #[test]
    fn lane_order_is_the_single_heap_order(
        nprocs in 2usize..24,
        ops in prop::collection::vec((0usize..3, 0u64..40, 0usize..24, any::<u64>()), 1..120),
        reschedule_each in 0u64..4,
    ) {
        let mut lanes: Sim<u64> = Sim::with_procs(nprocs);
        let mut heap: SingleHeapSim<u64> = SingleHeapSim::new();
        for (i, &op) in ops.iter().enumerate() {
            apply_op(op, nprocs, &mut lanes, &mut heap, i as u64);
        }
        let mut drained = 0u64;
        let mut pending_ops: Vec<Op> = ops.iter().rev().copied().collect();
        loop {
            // Block boundaries: both engines count every target.
            prop_assert_eq!(lanes.pending(), heap.pending());
            prop_assert_eq!(lanes.delivered(), heap.delivered());
            let Some(Event { at, payload }) = lanes.next() else { break };
            // A block pops whole on the lanes; its ascending per-target
            // messages are the heap's next pops.
            for one in payload.unroll() {
                let b = heap.next();
                prop_assert_eq!(Some(Event { at, payload: one }), b);
                drained += 1;
                // Reactive pushes while draining (also mid-broadcast): the
                // merge front must stay coherent under interleaved updates.
                if drained % 7 < reschedule_each {
                    if let Some(op) = pending_ops.pop() {
                        apply_op(op, nprocs, &mut lanes, &mut heap, 10_000 + drained);
                    }
                }
            }
        }
        prop_assert_eq!(heap.next(), None);
        prop_assert_eq!(lanes.delivered(), heap.delivered());
        prop_assert_eq!(lanes.now(), heap.now());
    }
}

proptest! {
    // Each case runs two full simulations; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Quiet and perturbed runs: every `RunResult` field is identical
    /// across the two engines, for every strategy, with and without
    /// fault-model perturbations (jitter, delay, drops, stragglers).
    #[test]
    fn run_results_identical_across_engines(
        seed in any::<u64>(),
        level in 0.0f64..3.0,
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
        record in any::<bool>(),
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig {
            fault: (level > 0.05).then(|| FaultModel::intensity(seed, level)),
            record_events: record,
            ..cfg0
        };
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// Membership runs: processor loss, recovery, join, and rebalancing
    /// follow the exact same causal order on both engines — kills and
    /// joins are keyed on delivered-event indices, which the equivalence
    /// above makes engine-invariant. Some random kill+join schedules land
    /// outside the recovery protocol's supported envelope (e.g. a kill
    /// that leaves a single survivor before a dormant processor joins
    /// trips a protocol debug assertion); equivalence still holds there —
    /// both engines must reach the exact same edge — so the property
    /// asserts identical outcomes, successful or not, and field-identical
    /// results whenever both runs complete.
    #[test]
    fn kill_join_runs_identical_across_engines(
        strategy in 0usize..3,
        nprocs in 3usize..8,
        nx in 10usize..15,
        kill_idx in 50u64..400,
        join_idx in 100u64..600,
        victim in 1usize..8,
        joiner in 1usize..8,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        // Victim and joiner: distinct, nonzero (proc 0 owns the root
        // subtree in these small mappings; keep it alive so runs finish).
        let victim = 1 + victim % (nprocs - 1);
        let mut joiner = 1 + joiner % (nprocs - 1);
        if joiner == victim {
            joiner = if victim + 1 < nprocs { victim + 1 } else { 1 };
        }
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(kill_idx, victim)],
                join_at: vec![(join_idx, joiner)],
                ..FaultModel::quiet(11)
            }),
            ..cfg0
        };
        let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parsim::run(&tree, &map, &cfg)
        }));
        let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parsim::run_reference(&tree, &map, &cfg)
        }));
        match (a, b) {
            (Ok(Ok(a)), Ok(Ok(b))) => assert_eq!(a, b),
            (Ok(Err(ea)), Ok(Err(eb))) => {
                prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"),
                    "both runs failed, but differently");
            }
            (Err(_), Err(_)) => {
                // Both engines drove the protocol into the identical
                // out-of-envelope edge: equivalence holds.
            }
            (a, b) => panic!(
                "engines diverged: lanes {}, reference {}",
                outcome_name(&a),
                outcome_name(&b),
            ),
        }
    }
}

/// The sampler's timer chain (and its termination logic) is also
/// engine-invariant: sampled runs match field for field, series included.
#[test]
fn sampled_runs_identical_across_engines() {
    let tree = tree_for(14);
    for strategy in 0..3 {
        let cfg = SolverConfig { sample_every: Some(500), ..strategy_cfg(strategy, 6) };
        let map = compute_mapping(&tree, &cfg);
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
        assert_eq!(a, b);
    }
}

/// Whole runs at machine sizes where status blocks dominate the event
/// stream (the properties above stop below 9 processors): quiet, recorded
/// and sampled, every strategy, on a larger grid.
#[test]
fn large_machine_runs_identical_across_engines() {
    let tree = tree_for(40);
    for nprocs in [32, 64] {
        for strategy in 0..3 {
            let cfg0 = strategy_cfg(strategy, nprocs);
            let map = compute_mapping(&tree, &cfg0);
            for cfg in [
                cfg0.clone(),
                SolverConfig { record_events: true, ..cfg0.clone() },
                SolverConfig { sample_every: Some(500), ..cfg0.clone() },
            ] {
                let a = parsim::run(&tree, &map, &cfg).unwrap();
                let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
                assert_eq!(a, b, "nprocs {nprocs} strategy {strategy}");
            }
        }
    }
}

/// The runaway guard trips at the same point on both engines when the
/// first event past the limit is a status block: the lanes pop it whole,
/// the reference pops its first target, and neither hands anything of it
/// to a core — same error, same diagnostic counts. The limits sweep the
/// instants just before status deliveries, so many of them land on a
/// block.
#[test]
fn time_limit_on_a_broadcast_trips_identically() {
    let tree = tree_for(14);
    let cfg0 = strategy_cfg(1, 6);
    let map = compute_mapping(&tree, &cfg0);
    let recorded =
        parsim::run(&tree, &map, &SolverConfig { record_events: true, ..cfg0.clone() }).unwrap();
    let mut applies: Vec<u64> = recorded
        .recording
        .unwrap()
        .events()
        .filter(|te| matches!(te.ev, mf_sim::EventRef::StatusApply { .. }))
        .map(|te| te.at)
        .collect();
    applies.dedup();
    assert!(applies.len() > 10, "{} status instants", applies.len());
    for &at in &applies {
        let cfg = SolverConfig { time_limit: Some(at - 1), ..cfg0.clone() };
        let a = parsim::run(&tree, &map, &cfg).unwrap_err();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap_err();
        assert!(matches!(a, mf_core::SimError::TimeLimit { .. }), "{a:?}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "limit {}", at - 1);
    }
}
