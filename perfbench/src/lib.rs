//! The repository benchmark: two workloads over the multifrontal solver
//! and its scheduler, timed end to end and, in a separate traced run,
//! layer by layer from outside the solver crates. See `README.md`.

pub mod inputs;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("rss_peak_mb", "MB"),
    ("ok_frac", "ratio"),
    ("active_peak_entries", "entries"),
    ("peak_entries", "entries"),
    ("makespan_ticks", "ticks"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("order.ms", "ms"),
    ("order.fill_entries", "entries"),
    ("order.flops", "flop"),
    ("symbolic.ms", "ms"),
    ("symbolic.front_structures_ms", "ms"),
    ("symbolic.fronts", "count"),
    ("symbolic.max_front", "count"),
    ("frontal.factor_ms", "ms"),
    ("frontal.factor_gflops", "Gflop/s"),
    ("frontal.kernel_ms.large_fronts", "ms"),
    ("frontal.kernel_ms.small_fronts", "ms"),
    ("frontal.kernel_gflops.large_fronts", "Gflop/s"),
    ("frontal.kernel_gflops.small_fronts", "Gflop/s"),
    ("frontal.roofline_gflops", "Gflop/s"),
    ("frontal.kernel_pct_roofline", "%"),
    ("frontal.nonkernel_ms", "ms"),
    ("frontal.solve_ms", "ms"),
    ("frontal.solve_gbps", "GB/s"),
    ("frontal.factor_entries", "entries"),
    ("frontal.stack_peak_entries", "entries"),
    ("frontal.active_peak_entries", "entries"),
    ("rayon.dispatch_us", "us"),
    ("core.mapping_ms", "ms"),
    ("core.run_ms.workload", "ms"),
    ("core.run_ms.memory", "ms"),
    ("core.status_msgs", "count"),
    ("core.status_bytes", "bytes"),
    ("core.control_msgs", "count"),
    ("core.control_bytes", "bytes"),
    ("core.status_share", "ratio"),
    ("core.view_staleness_p95", "ticks"),
    ("core.reselect_rounds", "count"),
    ("core.peak_decrease_pct", "%"),
    ("core.makespan_increase_pct", "%"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("bench.self_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.op_ms_p50_traced", "ms"),
    ("bench.op_ms_p50_untraced", "ms"),
];
