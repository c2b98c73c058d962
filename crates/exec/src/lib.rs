//! Threaded execution backend: the same sans-io [`SchedulerCore`]s the
//! simulator drives, each on its own OS thread.
//!
//! One worker thread per processor owns its core and a *physical* memory
//! ledger it maintains from the core's `Alloc`/`Free` effects — an
//! independent re-derivation of the memory accounting that is checked
//! against the core's own `active_peak` at the end of the run. The
//! calling thread runs [`mf_core::parsim::run_on`], the one orchestrator
//! both backends share, with the workers as its [`CoreHost`]: every input
//! becomes a command to the owning worker, answered with the effects its
//! core emitted. Exactly one command is in flight at a time, so the run is
//! a sequentially consistent interleaving with the same timestamps as the
//! in-process backend, and the whole [`RunResult`] equals
//! [`mf_core::parsim::run`]'s — the equivalence the `backend_equiv`
//! binary asserts over the paper's full matrix set.
//!
//! Noise models (duration jitter, per-message delays and drops) are
//! features of the simulated machine, not of the protocol; this backend
//! rejects them ([`ExecError::Unsupported`]).

#![warn(missing_docs)]

use mf_core::config::SolverConfig;
use mf_core::error::SimError;
use mf_core::mapping::StaticMapping;
use mf_core::parsim::{run_on, CoreHost, ProcFinal, RunResult};
use mf_core::proto::{initial_loads, Effect, Input, SchedulerCore, Violation};
use mf_core::recovery::RecoverySnapshot;
use mf_sim::recorder::MemArea;
use mf_sim::{ProcMemory, Sim, Time};
use mf_symbolic::AssemblyTree;
use std::collections::HashMap;
use std::sync::mpsc;

/// Why a threaded run could not be performed or failed.
#[derive(Debug)]
pub enum ExecError {
    /// The configuration asks for a simulator-only feature (duration
    /// jitter, fault perturbations).
    Unsupported(String),
    /// The run failed the same way a simulated run can fail.
    Sim(SimError),
    /// A worker's physical ledger disagreed with its core's accounting —
    /// the cross-check this backend exists to perform.
    Ledger {
        /// Offending processor.
        proc: usize,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unsupported(what) => {
                write!(f, "threaded backend does not support {what}")
            }
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Ledger { proc, detail } => {
                write!(f, "physical ledger mismatch on proc {proc}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Commands to a worker, one per [`CoreHost`] operation.
enum Cmd {
    /// Feed one input into the core at virtual time `now`.
    Input { now: Time, input: Input },
    /// Report the cheapest deferred ready task (stall-breaker support).
    CheapestDeferred,
    /// Report a recovery snapshot of the core's current state.
    Snapshot,
    /// Report the final per-processor state and exit.
    Finish,
}

/// A worker's answer (the protocol is strictly one reply per command).
enum Reply {
    Effects {
        effects: Vec<Effect>,
        nodes_done: usize,
        violation: Option<Violation>,
    },
    Deferred(Option<(u64, usize)>),
    Snapshot(Box<RecoverySnapshot>),
    /// The final state, plus the ledger cross-check's first disagreement.
    Final(Box<ProcFinal>, Option<String>),
}

/// The per-worker physical memory ledger, re-derived purely from the
/// core's `Alloc`/`Free` effects: outstanding entries per (node, area)
/// plus the running total and peak. In a correct run it reproduces the
/// core's accounting exactly — an end-to-end check that every allocation
/// the protocol reports is matched and sized consistently.
#[derive(Default)]
struct Ledger {
    outstanding: HashMap<(usize, u8), u64>,
    active: u64,
    peak: u64,
    fault: Option<String>,
}

impl Ledger {
    fn area_key(area: MemArea) -> u8 {
        match area {
            MemArea::Front => 0,
            MemArea::Stack => 1,
        }
    }

    fn alloc(&mut self, node: usize, area: MemArea, entries: u64) {
        *self.outstanding.entry((node, Self::area_key(area))).or_insert(0) += entries;
        self.active += entries;
        self.peak = self.peak.max(self.active);
    }

    fn free(&mut self, node: usize, area: MemArea, entries: u64) {
        let slot = self.outstanding.entry((node, Self::area_key(area))).or_insert(0);
        if *slot < entries || self.active < entries {
            if self.fault.is_none() {
                self.fault = Some(format!(
                    "free of {entries} entries for node {node} ({area:?}) exceeds the {} outstanding",
                    *slot
                ));
            }
            return;
        }
        *slot -= entries;
        self.active -= entries;
    }

    /// The first way this ledger disagrees with the core's accounting
    /// `mem`, if any.
    fn check(&mut self, mem: &ProcMemory) -> Option<String> {
        if let Some(fault) = self.fault.take() {
            Some(fault)
        } else if self.peak != mem.active_peak() {
            Some(format!("ledger peak {} != accounting peak {}", self.peak, mem.active_peak()))
        } else if self.active != mem.active() {
            Some(format!("ledger residual {} != accounting residual {}", self.active, mem.active()))
        } else {
            None
        }
    }
}

/// One worker thread: owns its scheduler core and physical ledger,
/// executes commands until told to finish.
fn worker(
    p: usize,
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
    load0: &[u64],
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let mut core = SchedulerCore::new(p, tree, map, cfg, load0);
    let mut ledger = Ledger::default();
    for cmd in rx {
        let reply = match cmd {
            Cmd::Input { now, input } => {
                let effects = core
                    .handle(now, input)
                    .inspect(|e| match *e {
                        Effect::Alloc { node, area, entries } => ledger.alloc(node, area, entries),
                        Effect::Free { node, area, entries } => ledger.free(node, area, entries),
                        _ => {}
                    })
                    .collect();
                Reply::Effects {
                    effects,
                    nodes_done: core.nodes_done(),
                    violation: core.take_violation(),
                }
            }
            Cmd::CheapestDeferred => Reply::Deferred(core.cheapest_deferred()),
            Cmd::Snapshot => Reply::Snapshot(Box::new(core.snapshot())),
            Cmd::Finish => {
                let verdict = ledger.check(core.memory());
                let _ = tx.send(Reply::Final(Box::new(ProcFinal::of(&core)), verdict));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// The threaded [`CoreHost`]: a command and a reply channel per worker.
struct ThreadHost {
    workers: Vec<(mpsc::Sender<Cmd>, mpsc::Receiver<Reply>)>,
    /// Fronts each core had completed at its last reply.
    nodes_done: Vec<usize>,
    /// The first processor whose ledger disagreed at finish, and how.
    ledger_fault: Option<(usize, String)>,
}

impl ThreadHost {
    /// Sends one command to worker `p` and waits for its reply. A worker
    /// only stops answering by panicking, and the thread scope re-raises
    /// that panic anyway.
    fn ask(&self, p: usize, cmd: Cmd) -> Reply {
        let (tx, rx) = &self.workers[p];
        tx.send(cmd)
            .ok()
            .and_then(|()| rx.recv().ok())
            .unwrap_or_else(|| panic!("worker thread {p} terminated unexpectedly"))
    }
}

impl CoreHost for ThreadHost {
    fn handle(
        &mut self,
        p: usize,
        now: Time,
        input: Input,
        effect: impl FnMut(Effect),
    ) -> Option<Violation> {
        let Reply::Effects { effects, nodes_done, violation } =
            self.ask(p, Cmd::Input { now, input })
        else {
            unreachable!("an input is answered with effects")
        };
        self.nodes_done[p] = nodes_done;
        effects.into_iter().for_each(effect);
        violation
    }

    fn nodes_done(&self, p: usize) -> usize {
        self.nodes_done[p]
    }

    fn snapshot(&mut self, p: usize) -> RecoverySnapshot {
        let Reply::Snapshot(snap) = self.ask(p, Cmd::Snapshot) else {
            unreachable!("a snapshot request is answered with a snapshot")
        };
        *snap
    }

    fn cheapest_deferred(&mut self, p: usize) -> Option<(u64, usize)> {
        let Reply::Deferred(best) = self.ask(p, Cmd::CheapestDeferred) else {
            unreachable!("a stall-breaker query is answered with a candidate")
        };
        best
    }

    fn finish(&mut self, p: usize) -> ProcFinal {
        let Reply::Final(fin, verdict) = self.ask(p, Cmd::Finish) else {
            unreachable!("a finish request is answered with the final state")
        };
        if let Some(detail) = verdict {
            self.ledger_fault.get_or_insert((p, detail));
        }
        *fin
    }
}

/// Runs the parallel factorization on real OS threads: one worker per
/// processor, driven by the shared orchestrator on the calling thread.
///
/// Produces the same [`RunResult`] as [`mf_core::parsim::run`], field for
/// field. Returns [`ExecError::Unsupported`] when the configuration asks
/// for simulator-only noise models, and [`ExecError::Ledger`] when a
/// worker's physically re-derived memory ledger disagrees with its core's
/// accounting.
pub fn run_threads(
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
) -> Result<RunResult, ExecError> {
    if cfg.jitter.is_some() {
        return Err(ExecError::Unsupported("duration jitter (simulator-only noise)".into()));
    }
    // Membership faults (kills, joins, a network kill, stragglers) are
    // deterministic and fully supported; only per-message noise (jitter,
    // delays, drops) remains simulator-only.
    if cfg.fault.as_ref().is_some_and(|m| !m.is_message_quiet()) {
        return Err(ExecError::Unsupported("fault perturbations (simulator-only noise)".into()));
    }
    let load0 = initial_loads(tree, map, cfg.nprocs);
    std::thread::scope(|scope| {
        let workers = (0..cfg.nprocs)
            .map(|p| {
                let (cmd_tx, cmd_rx) = mpsc::channel();
                let (reply_tx, reply_rx) = mpsc::channel();
                let load0 = &load0;
                scope.spawn(move || worker(p, tree, map, cfg, load0, cmd_rx, reply_tx));
                (cmd_tx, reply_rx)
            })
            .collect();
        let mut host = ThreadHost { workers, nodes_done: vec![0; cfg.nprocs], ledger_fault: None };
        let result = run_on(tree, map, cfg, Sim::with_procs(cfg.nprocs), &mut host)
            .map_err(ExecError::Sim)?;
        match host.ledger_fault {
            Some((proc, detail)) => Err(ExecError::Ledger { proc, detail }),
            None => Ok(result),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::config::SolverConfig;
    use mf_core::mapping::compute_mapping;
    use mf_order::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_symbolic::seqstack::AssemblyDiscipline;
    use mf_symbolic::AmalgamationOptions;

    fn tree_for(nx: usize) -> AssemblyTree {
        let a = grid2d(nx, nx, Stencil::Star);
        let p = OrderingKind::Metis.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
        mf_symbolic::seqstack::apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        s.tree
    }

    #[test]
    fn threads_match_simulator_exactly() {
        let tree = tree_for(24);
        for cfg in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) },
            SolverConfig {
                type2_front_min: 24,
                capacity: Some(1),
                ..SolverConfig::mumps_baseline(4)
            },
        ] {
            let map = compute_mapping(&tree, &cfg);
            let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
            let thr = run_threads(&tree, &map, &cfg).unwrap();
            assert_eq!(thr, sim);
        }
    }

    #[test]
    fn recording_matches_simulator() {
        let tree = tree_for(20);
        let cfg = SolverConfig {
            type2_front_min: 24,
            record_events: true,
            ..SolverConfig::memory_based(4)
        };
        let map = compute_mapping(&tree, &cfg);
        let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
        let thr = run_threads(&tree, &map, &cfg).unwrap();
        assert!(sim.recording.is_some());
        assert_eq!(thr, sim, "recordings must be bit-identical");
    }

    #[test]
    fn timeseries_matches_simulator() {
        let tree = tree_for(20);
        let cfg = SolverConfig {
            type2_front_min: 24,
            sample_every: Some(50),
            ..SolverConfig::memory_based(4)
        };
        let map = compute_mapping(&tree, &cfg);
        let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
        let thr = run_threads(&tree, &map, &cfg).unwrap();
        // Sampling rides the shared timer protocol, so the threaded
        // backend stays bit-identical with it on — and both backends
        // sample the same series.
        assert!(sim.timeseries.as_ref().is_some_and(|ts| ts.total_len() > 0));
        assert_eq!(thr, sim, "both backends must sample the same series");
    }

    #[test]
    fn noise_models_are_rejected() {
        let tree = tree_for(16);
        let cfg = SolverConfig {
            type2_front_min: 24,
            jitter: Some((7, 0.1)),
            ..SolverConfig::mumps_baseline(2)
        };
        let map = compute_mapping(&tree, &cfg);
        assert!(matches!(run_threads(&tree, &map, &cfg), Err(ExecError::Unsupported(_))));
        let cfg = SolverConfig {
            type2_front_min: 24,
            fault: Some(mf_sim::FaultModel::intensity(13, 3.0)),
            ..SolverConfig::mumps_baseline(2)
        };
        assert!(matches!(run_threads(&tree, &map, &cfg), Err(ExecError::Unsupported(_))));
        // The *quiet* fault model perturbs nothing and is accepted.
        let cfg = SolverConfig {
            type2_front_min: 24,
            fault: Some(mf_sim::FaultModel::quiet(9)),
            ..SolverConfig::mumps_baseline(2)
        };
        let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
        let thr = run_threads(&tree, &map, &cfg).unwrap();
        assert_eq!(thr, sim);
    }

    #[test]
    fn membership_faults_match_simulator_exactly() {
        // Kill and join schedules are deterministic membership faults:
        // the threaded backend must reproduce the simulator's recovery
        // bit for bit. The capped cases also reach the forcing step a
        // recovery-enabled run takes once it is quiescent apart from the
        // failure detector.
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let kill = mf_sim::FaultModel { kill_at: vec![(64, 1)], ..mf_sim::FaultModel::quiet(1) };
        let kill_join = mf_sim::FaultModel {
            kill_at: vec![(256, 2)],
            join_at: vec![(32, 3)],
            ..mf_sim::FaultModel::quiet(1)
        };
        let join = mf_sim::FaultModel { join_at: vec![(64, 3)], ..mf_sim::FaultModel::quiet(1) };
        let cases = [
            (kill.clone(), None),
            (join, None),
            (kill_join.clone(), None),
            (kill, Some(1)),
            (kill_join, Some(1)),
        ];
        for (fault, capacity) in cases {
            let cfg = SolverConfig {
                recovery: Some(mf_core::config::RecoveryConfig::default()),
                fault: Some(fault),
                capacity,
                ..cfg0.clone()
            };
            let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
            let thr = run_threads(&tree, &map, &cfg).unwrap();
            assert_eq!(thr, sim);
            assert_eq!(sim.nodes_done, sim.total_nodes);
            assert!(!sim.dead.is_empty() || sim.metrics.recovery.joins_observed > 0);
            if capacity.is_some() {
                assert!(sim.forced_activations > 0);
                assert!(sim.metrics.forced_activations > 0, "the stall-breaker must force");
            }
        }
    }

    #[test]
    fn network_kill_reports_partitioned() {
        // The same typed error as the simulator backend: a crossed
        // network-kill threshold is a Partitioned, not a hang.
        let tree = tree_for(24);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig {
            fault: Some(mf_sim::FaultModel {
                kill_network_after: Some(10),
                ..mf_sim::FaultModel::quiet(1)
            }),
            ..cfg0
        };
        match run_threads(&tree, &map, &cfg) {
            Err(ExecError::Sim(SimError::Partitioned { after, diag })) => {
                assert_eq!(after, 10);
                assert!(diag.nodes_done < diag.total_nodes);
                assert!(diag.dropped_messages > 0);
                assert!(diag.dead.is_empty(), "a partition kills no processor");
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_still_guards() {
        let tree = tree_for(16);
        let cfg = SolverConfig {
            type2_front_min: 24,
            time_limit: Some(1),
            ..SolverConfig::mumps_baseline(2)
        };
        let map = compute_mapping(&tree, &cfg);
        match run_threads(&tree, &map, &cfg) {
            Err(ExecError::Sim(SimError::TimeLimit { .. })) => {}
            other => panic!("expected TimeLimit, got {other:?}"),
        }
    }
}
