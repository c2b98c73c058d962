//! The two workloads. One operation (op) is one pass over a workload's
//! fixed input list, in a fixed order, so every op does identical work.
//!
//! Each op returns its work time, measured around the calls into the
//! solver crates only, and the problems its checks found. Checks run
//! after the work of each input and outside the measured time.

use std::time::{Duration, Instant};

use mf_bench::sweep::paper_scale_config;
use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
use mf_core::driver::{percent_decrease, percent_increase};
use mf_core::error::SimError;
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_frontal::numeric::NumericStats;
use mf_frontal::Factorization;
use mf_order::OrderingKind::{self, Amd, Metis};
use mf_sim::Histogram;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use mf_sparse::CscMatrix;
use mf_symbolic::seqstack::{apply_liu_order, sequential_peak, AssemblyDiscipline};
use mf_symbolic::{analyze, AmalgamationOptions, AssemblyTree, SymbolicAnalysis};

use crate::inputs;
use crate::probes;
use crate::trace::{Span, Tracer};

/// Largest residual `‖b − A x‖∞ / ‖b‖∞` a solve may leave.
pub const RESIDUAL_TOL: f64 = 1e-10;
/// Simulated processors in `schedule_p32` and in every predicted schedule.
pub const NPROCS: usize = 32;

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["pipeline_large", "schedule_p32"];

/// Outcome of one op.
#[derive(Debug, Default)]
pub struct OpResult {
    /// Time spent inside the solver crates.
    pub work: Duration,
    /// One line per failed check, error or panic.
    pub problems: Vec<String>,
}

/// The deterministic end-to-end quantities of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// Σ over the inputs of the sequential active-memory peak (entries).
    pub active_peak_entries: f64,
    /// Σ over the trees of the memory strategy's max per-processor peak.
    pub peak_entries: f64,
    /// Σ over the trees of the memory strategy's makespan (ticks).
    pub makespan_ticks: f64,
}

/// One named metric value.
pub type Metric = (&'static str, f64);

/// A benchmark workload.
pub trait Workload {
    /// Runs one op, recording spans into `tr` when it is on.
    fn op(&mut self, tr: &mut Tracer) -> OpResult;
    /// Set-up work that needs the warm-up op's results.
    fn after_warmup(&mut self) {}
    /// The end-to-end memory and schedule quantities.
    fn memory(&self) -> Memory;
    /// Per-layer metrics from the traced ops' spans (`ops` of them) plus
    /// this workload's own probes. Metrics it omits are reported as 0.
    fn layers(&self, spans: &[Span], ops: u64) -> Vec<Metric>;
}

/// Builds workload `name` for `seed`: input generation and set-up work.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pipeline_large" => Box::new(Pipeline::new(
            &[
                (PaperMatrix::TwoTone, Metis),
                (PaperMatrix::Xenon2, Amd),
                (PaperMatrix::BmwCra1, Amd),
            ],
            seed,
        )),
        "schedule_p32" => Box::new(Schedule::new(schedule_trees(seed))),
        _ => return None,
    })
}

/// Total busy milliseconds per op in spans called `name`.
fn busy_ms(spans: &[Span], name: &str, ops: u64) -> f64 {
    let ns: u64 = spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum();
    ns as f64 / 1e6 / ops.max(1) as f64
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Ordering and symbolic counts of a set of trees.
fn tree_counts<'a>(trees: impl Iterator<Item = &'a AssemblyTree>) -> Vec<Metric> {
    let (mut fill, mut flops, mut fronts, mut max_front) = (0u64, 0u64, 0usize, 0usize);
    for t in trees {
        let st = t.stats();
        fill += st.factor_entries;
        flops += st.flops;
        fronts += st.nodes;
        max_front = max_front.max(st.max_nfront);
    }
    vec![
        ("order.fill_entries", fill as f64),
        ("order.flops", flops as f64),
        ("symbolic.fronts", fronts as f64),
        ("symbolic.max_front", max_front as f64),
    ]
}

/// Numeric counts summed over factorizations.
fn numeric_counts<'a>(stats: impl Iterator<Item = &'a NumericStats>) -> Vec<Metric> {
    let (mut fe, mut sp, mut ap) = (0u64, 0u64, 0u64);
    for s in stats {
        fe += s.factor_entries;
        sp += s.stack_peak;
        ap += s.active_peak;
    }
    vec![
        ("frontal.factor_entries", fe as f64),
        ("frontal.stack_peak_entries", sp as f64),
        ("frontal.active_peak_entries", ap as f64),
    ]
}

/// The schedule strategies of `schedule_p32`, as `sweep_cell` configures
/// them: the workload baseline and the memory-based strategy (Algorithm 1
/// with the Section 5.1 information, Algorithm 2 task selection), with
/// traces, recorder and sampler off.
pub fn schedule_configs() -> (SolverConfig, SolverConfig) {
    let base = SolverConfig {
        slave_selection: SlaveSelection::Workload,
        task_selection: TaskSelection::Lifo,
        use_subtree_info: false,
        use_prediction: false,
        sample_every: None,
        ..paper_scale_config(NPROCS)
    };
    let mem = SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: true,
        use_prediction: true,
        ..base.clone()
    };
    (base, mem)
}

/// The memory strategy's schedule of `tree` at P = 32:
/// `(max_peak, makespan)`. The tree gets the Liu child order first, as
/// the sweep trees do.
fn predicted_schedule(tree: &AssemblyTree) -> (u64, u64) {
    let mut tree = tree.clone();
    apply_liu_order(&mut tree, AssemblyDiscipline::FrontThenFree);
    let (_, mem) = schedule_configs();
    let map = compute_mapping(&tree, &mem);
    let r = parsim::run(&tree, &map, &mem).expect("predicted schedule runs");
    (r.max_peak, r.makespan)
}

/// Σ of [`predicted_schedule`] over `trees`.
fn predicted_sums<'a>(trees: impl Iterator<Item = &'a AssemblyTree>) -> (f64, f64) {
    trees
        .map(predicted_schedule)
        .fold((0.0, 0.0), |(p, m), (tp, tm)| (p + tp as f64, m + tm as f64))
}

/// Problems with a solution: an entry that is not finite (which
/// `residual_inf`'s max-fold would skip), or a residual above
/// [`RESIDUAL_TOL`].
pub fn check_solution(a: &CscMatrix, x: &[f64], b: &[f64]) -> Option<String> {
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Some(format!("solution entry {i} is {}", x[i]));
    }
    let r = Factorization::residual_inf(a, x, b);
    (r > RESIDUAL_TOL).then(|| format!("residual {r:.3e} above {RESIDUAL_TOL:.0e}"))
}

/// Compares `value` with the reference the warm-up op stored, storing
/// it on the first call.
pub fn check_repeat<T: PartialEq + std::fmt::Debug>(
    what: &str,
    reference: &mut Option<T>,
    value: T,
) -> Option<String> {
    match reference {
        None => {
            *reference = Some(value);
            None
        }
        Some(r) if *r == value => None,
        Some(r) => Some(format!("{what} {value:?} differs from the warm-up op's {r:?}")),
    }
}

// ---------------------------------------------------------------------------
// pipeline_large

struct PipeInput {
    label: String,
    a: CscMatrix,
    ordering: OrderingKind,
    b: Vec<f64>,
    /// Factor digest and active peak of the warm-up op.
    digest: Option<u64>,
    peak: Option<u64>,
    /// The warm-up op's symbolic analysis, for the layer probes.
    analysis: Option<SymbolicAnalysis>,
    /// Numeric statistics of the latest op.
    stats: NumericStats,
}

/// Ordering, symbolic analysis, numeric factorization and one solve per
/// input: the `Solver::builder()` path.
pub struct Pipeline {
    inputs: Vec<PipeInput>,
    predicted: (f64, f64),
}

impl Pipeline {
    fn new(list: &[(PaperMatrix, OrderingKind)], seed: u64) -> Self {
        let inputs = list
            .iter()
            .enumerate()
            .map(|(i, &(m, ordering))| {
                let a = inputs::paper_matrix(m, seed);
                let b = inputs::rhs(a.nrows(), seed, i as u64);
                PipeInput {
                    label: format!("{}/{}", m.name(), ordering.name()),
                    a,
                    ordering,
                    b,
                    digest: None,
                    peak: None,
                    analysis: None,
                    stats: NumericStats::default(),
                }
            })
            .collect();
        Pipeline { inputs, predicted: (0.0, 0.0) }
    }

    fn trees(&self) -> impl Iterator<Item = &AssemblyTree> {
        self.inputs.iter().filter_map(|i| i.analysis.as_ref().map(|s| &s.tree))
    }
}

impl Workload for Pipeline {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        for inp in &mut self.inputs {
            let t = Instant::now();
            let s = tr.begin("order.compute");
            let perm = inp.ordering.compute(&inp.a);
            tr.end(s);
            let s = tr.begin("symbolic.analyze");
            let analysis = analyze(&inp.a, &perm, &AmalgamationOptions::default());
            tr.end(s);
            let s = tr.begin("frontal.factor");
            let f = Factorization::from_symbolic(&inp.a, &analysis);
            tr.end(s);
            let solved = f.map(|f| {
                let s = tr.begin("frontal.solve");
                let x = f.solve(&inp.b);
                tr.end(s);
                (f, x)
            });
            res.work += t.elapsed();

            let s = tr.begin("bench.check");
            match solved {
                Ok((f, x)) => {
                    let problems = [
                        check_solution(&inp.a, &x, &inp.b),
                        check_repeat("factor digest", &mut inp.digest, f.content_digest()),
                        check_repeat("active peak", &mut inp.peak, f.stats.active_peak),
                    ];
                    res.problems.extend(
                        problems.into_iter().flatten().map(|p| format!("{}: {p}", inp.label)),
                    );
                    inp.stats = f.stats;
                }
                Err(e) => res.problems.push(format!("{}: factorization failed: {e}", inp.label)),
            }
            if inp.analysis.is_none() {
                inp.analysis = Some(analysis);
            }
            tr.end(s);
        }
        res
    }

    fn after_warmup(&mut self) {
        self.predicted = predicted_sums(self.trees());
    }

    fn memory(&self) -> Memory {
        Memory {
            active_peak_entries: self.inputs.iter().map(|i| i.stats.active_peak as f64).sum(),
            peak_entries: self.predicted.0,
            makespan_ticks: self.predicted.1,
        }
    }

    fn layers(&self, spans: &[Span], ops: u64) -> Vec<Metric> {
        let mut m = tree_counts(self.trees());
        m.extend(numeric_counts(self.inputs.iter().map(|i| &i.stats)));
        let flops: f64 = self.trees().map(|t| t.total_flops() as f64).sum();
        let factor_ms = busy_ms(spans, "frontal.factor", ops);
        let solve_ms = busy_ms(spans, "frontal.solve", ops);
        let factor_bytes: f64 =
            self.inputs.iter().map(|i| 8.0 * i.stats.factor_entries as f64).sum();
        let analyses: Vec<&SymbolicAnalysis> =
            self.inputs.iter().filter_map(|i| i.analysis.as_ref()).collect();
        let kernels = probes::replay_kernels(self.trees());
        let roofline = probes::roofline_gflops();
        let kernel_ms = kernels.large_ms + kernels.small_ms;
        m.extend([
            ("order.ms", busy_ms(spans, "order.compute", ops)),
            ("symbolic.ms", busy_ms(spans, "symbolic.analyze", ops)),
            ("symbolic.front_structures_ms", probes::front_structures_ms(&analyses)),
            ("frontal.factor_ms", factor_ms),
            ("frontal.factor_gflops", ratio(flops, factor_ms * 1e6)),
            ("frontal.kernel_ms.large_fronts", kernels.large_ms),
            ("frontal.kernel_ms.small_fronts", kernels.small_ms),
            (
                "frontal.kernel_gflops.large_fronts",
                ratio(kernels.large_flops, kernels.large_ms * 1e6),
            ),
            (
                "frontal.kernel_gflops.small_fronts",
                ratio(kernels.small_flops, kernels.small_ms * 1e6),
            ),
            ("frontal.roofline_gflops", roofline),
            (
                "frontal.kernel_pct_roofline",
                100.0
                    * ratio(
                        ratio(kernels.large_flops + kernels.small_flops, kernel_ms * 1e6),
                        roofline,
                    ),
            ),
            ("frontal.nonkernel_ms", factor_ms - kernel_ms),
            ("frontal.solve_ms", solve_ms),
            ("frontal.solve_gbps", ratio(factor_bytes, solve_ms * 1e6)),
        ]);
        m
    }
}

// ---------------------------------------------------------------------------
// schedule_p32

/// The trees of `schedule_p32`: the 8 paper matrices × {AMD, METIS}, each
/// analyzed with default amalgamation and given the Liu child order (as
/// `mf_bench::cache::cached_tree` builds them, unsplit), then the seeded
/// synthetic tree.
pub fn schedule_trees(seed: u64) -> Vec<(String, AssemblyTree)> {
    let mut trees = Vec::new();
    for m in ALL_PAPER_MATRICES {
        let a = inputs::paper_matrix(m, seed);
        for k in [Amd, Metis] {
            let mut s = analyze(&a, &k.compute(&a), &AmalgamationOptions::default());
            apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
            trees.push((format!("{}/{}", m.name(), k.name()), s.tree));
        }
    }
    trees.push(("synth_nd/depth10".to_string(), inputs::synth_tree(seed)));
    trees
}

/// What the checks compare between ops: `(max_peak, makespan, events)`
/// of the baseline and of the memory strategy.
type ScheduleKey = [(u64, u64, u64); 2];

/// Traffic and decision counters of one op, summed over its runs.
#[derive(Debug, Default, Clone)]
struct ScheduleTotals {
    status_msgs: u64,
    status_bytes: u64,
    control_msgs: u64,
    control_bytes: u64,
    events: u64,
    reselect_rounds: u64,
    staleness: Histogram,
    peaks: [u64; 2],
    makespans: [u64; 2],
}

/// Problems with one simulated run: an error, unfinished fronts, memory
/// left allocated or accounting underflows.
pub fn check_schedule(r: &Result<RunResult, SimError>) -> Option<String> {
    let r = match r {
        Ok(r) => r,
        Err(e) => return Some(format!("run failed: {e}")),
    };
    if r.nodes_done != r.total_nodes {
        return Some(format!("{} of {} fronts done", r.nodes_done, r.total_nodes));
    }
    if r.final_active.iter().any(|&a| a != 0) {
        return Some("active memory left at the end".to_string());
    }
    if r.underflows.iter().any(|&u| u != 0) {
        return Some("accounting underflow".to_string());
    }
    None
}

struct ScheduleInput {
    label: String,
    tree: AssemblyTree,
    reference: Option<ScheduleKey>,
}

/// Static mapping plus both strategies per tree, on the quiet model.
pub struct Schedule {
    inputs: Vec<ScheduleInput>,
    base: SolverConfig,
    mem: SolverConfig,
    totals: ScheduleTotals,
}

impl Schedule {
    /// The workload over explicit trees.
    pub fn new(trees: Vec<(String, AssemblyTree)>) -> Self {
        let (base, mem) = schedule_configs();
        let inputs = trees
            .into_iter()
            .map(|(label, tree)| ScheduleInput { label, tree, reference: None })
            .collect();
        Schedule { inputs, base, mem, totals: ScheduleTotals::default() }
    }
}

impl Workload for Schedule {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        let mut totals = ScheduleTotals::default();
        for inp in &mut self.inputs {
            let t = Instant::now();
            let s = tr.begin("core.mapping");
            let map = compute_mapping(&inp.tree, &self.base);
            tr.end(s);
            let s = tr.begin("core.run.workload");
            let rb = parsim::run(&inp.tree, &map, &self.base);
            tr.end(s);
            let s = tr.begin("core.run.memory");
            let rm = parsim::run(&inp.tree, &map, &self.mem);
            tr.end(s);
            res.work += t.elapsed();

            let s = tr.begin("bench.check");
            let mut problems: Vec<String> =
                [&rb, &rm].into_iter().filter_map(check_schedule).collect();
            if let (Ok(rb), Ok(rm)) = (&rb, &rm) {
                let key = [rb, rm].map(|r| (r.max_peak, r.makespan, r.events_delivered));
                problems.extend(check_repeat("(peak, makespan, events)", &mut inp.reference, key));
                for (i, r) in [rb, rm].into_iter().enumerate() {
                    let mt = &r.metrics;
                    totals.status_msgs += mt.status_msgs;
                    totals.status_bytes += mt.status_bytes;
                    totals.control_msgs += mt.control_msgs;
                    totals.control_bytes += mt.control_bytes;
                    totals.events += r.events_delivered;
                    totals.peaks[i] += r.max_peak;
                    totals.makespans[i] += r.makespan;
                }
                totals.reselect_rounds += rm.metrics.reselect_rounds;
                totals.staleness.merge(&rm.metrics.view_staleness);
            }
            res.problems.extend(problems.into_iter().map(|p| format!("{}: {p}", inp.label)));
            tr.end(s);
        }
        self.totals = totals;
        res
    }

    fn memory(&self) -> Memory {
        let active: u64 = self
            .inputs
            .iter()
            .map(|i| sequential_peak(&i.tree, AssemblyDiscipline::FrontThenFree))
            .sum();
        Memory {
            active_peak_entries: active as f64,
            peak_entries: self.totals.peaks[1] as f64,
            makespan_ticks: self.totals.makespans[1] as f64,
        }
    }

    fn layers(&self, spans: &[Span], ops: u64) -> Vec<Metric> {
        let t = &self.totals;
        let mut m = tree_counts(self.inputs.iter().map(|i| &i.tree));
        let run_ms =
            [busy_ms(spans, "core.run.workload", ops), busy_ms(spans, "core.run.memory", ops)];
        m.extend([
            ("core.mapping_ms", busy_ms(spans, "core.mapping", ops)),
            ("core.run_ms.workload", run_ms[0]),
            ("core.run_ms.memory", run_ms[1]),
            ("core.status_msgs", t.status_msgs as f64),
            ("core.status_bytes", t.status_bytes as f64),
            ("core.control_msgs", t.control_msgs as f64),
            ("core.control_bytes", t.control_bytes as f64),
            ("core.status_share", ratio(t.status_msgs as f64, t.events as f64)),
            ("core.view_staleness_p95", t.staleness.quantile(0.95) as f64),
            ("core.reselect_rounds", t.reselect_rounds as f64),
            ("core.peak_decrease_pct", percent_decrease(t.peaks[0], t.peaks[1])),
            ("core.makespan_increase_pct", percent_increase(t.makespans[0], t.makespans[1])),
            ("sim.events", t.events as f64),
            ("sim.ns_per_event", ratio((run_ms[0] + run_ms[1]) * 1e6, t.events as f64)),
        ]);
        m
    }
}
