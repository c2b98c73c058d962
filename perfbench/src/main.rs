//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_large --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones,
//! and the traced run also writes its spans as a Chrome trace to
//! `perfbench/out/`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::stats::{median, tail};
use perfbench::trace::{self, Tracer};
use perfbench::workloads::{self, OpResult, Workload};
use perfbench::{probes, END_TO_END, PER_LAYER};

/// Set-up rounds of an untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Fewest ops of each kind (traced, untraced) in a traced run.
const MIN_TRACE_OPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads: ";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(0), seconds, trace: trace.unwrap_or(false) })
}

/// Runs op `id` inside an `op` span, turning a panic into a problem.
fn run_op(w: &mut dyn Workload, tr: &mut Tracer, id: u64) -> OpResult {
    tr.set_op(id);
    tr.begin("op");
    let t = Instant::now();
    let res = panic::catch_unwind(AssertUnwindSafe(|| w.op(tr)))
        .unwrap_or_else(|_| OpResult { work: t.elapsed(), problems: vec!["panicked".into()] });
    tr.close_all();
    for p in res.problems.iter().take(3) {
        eprintln!("op {id}: {p}");
    }
    res
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: every metric of `names`, taking values from `got`
/// and 0 for any the workload does not produce.
fn result_json(
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    got: &[(&str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = got.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v);
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}").unwrap();
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}{}", workloads::NAMES.join(", "));
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs_f64(args.seconds);

    // Set-up: input generation, set-up work and one untimed warm-up op,
    // which also stores the reference every later op is checked against.
    let mut quiet = Tracer::new(false);
    let mut setups = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for round in 0..if args.trace { 1 } else { SETUP_ROUNDS } {
        drop(w.take());
        let t = if round == 0 { start } else { Instant::now() };
        let mut wl =
            workloads::build(&args.workload, args.seed).expect("workload name was checked");
        if !run_op(wl.as_mut(), &mut quiet, 0).problems.is_empty() {
            eprintln!("the warm-up op failed; no reference to check against");
            return ExitCode::FAILURE;
        }
        wl.after_warmup();
        setups.push(t.elapsed().as_secs_f64());
        w = Some(wl);
    }
    let mut w = w.expect("at least one set-up round");

    let mut out = std::io::stdout().lock();
    writeln!(out, "workload {} seed {} ({} s per run)", args.workload, args.seed, args.seconds)
        .unwrap();
    let line = if args.trace {
        traced_run(w.as_mut(), &args, seconds, &mut out)
    } else {
        untraced_run(w.as_mut(), seconds, &setups, &mut out)
    };
    writeln!(out, "{line}").unwrap();
    ExitCode::SUCCESS
}

fn untraced_run(
    w: &mut dyn Workload,
    seconds: Duration,
    setups: &[f64],
    out: &mut impl std::io::Write,
) -> String {
    let mut tr = Tracer::new(false);
    let (mut times, mut failed) = (Vec::new(), 0);
    let t = Instant::now();
    while times.is_empty() || t.elapsed() < seconds {
        let r = run_op(w, &mut tr, times.len() as u64 + 1);
        failed += usize::from(!r.problems.is_empty());
        times.push(ms(r.work));
    }
    let n = times.len();
    let (tail_ms, tail_pct) = tail(&times);
    let mem = w.memory();
    let got = [
        ("setup_s", median(setups)),
        ("ops_per_s", n as f64 / (times.iter().sum::<f64>() / 1e3)),
        ("op_ms_p50", median(&times)),
        ("op_ms_tail", tail_ms),
        ("rss_peak_mb", rss_peak_mb()),
        ("ok_frac", (n - failed) as f64 / n as f64),
        ("active_peak_entries", mem.active_peak_entries),
        ("peak_entries", mem.peak_entries),
        ("makespan_ticks", mem.makespan_ticks),
    ];
    writeln!(out, "{n} ops, {failed} failed; set-up rounds {setups:.3?} s").unwrap();
    writeln!(out, "op_ms_tail is p{tail_pct:.1} of {n} ops; op ms: {times:.1?}").unwrap();
    for (name, v) in &got {
        writeln!(out, "  {name:<22} {v:.6}").unwrap();
    }
    result_json(n, failed, &END_TO_END, &got)
}

fn traced_run(
    w: &mut dyn Workload,
    args: &Args,
    seconds: Duration,
    out: &mut impl std::io::Write,
) -> String {
    // Alternate untraced and traced ops, so that drift hits both alike.
    let mut tr = Tracer::new(false);
    let (mut plain, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
    let t = Instant::now();
    while plain.len().min(traced.len()) < MIN_TRACE_OPS || t.elapsed() < seconds {
        let on = plain.len() > traced.len();
        tr.set_on(on);
        let r = run_op(w, &mut tr, (plain.len() + traced.len()) as u64 + 1);
        failed += usize::from(!r.problems.is_empty());
        if on { &mut traced } else { &mut plain }.push(ms(r.work));
    }
    let ops = traced.len() as u64;
    let spans = tr.spans();
    let table = trace::self_times(spans);
    let self_ms = table.get("op").map_or(0.0, |&(_, _, own)| own as f64 / 1e6 / ops as f64);
    let (p50_traced, p50_plain) = (median(&traced), median(&plain));
    let mut got = w.layers(spans, ops);
    got.extend([
        ("rayon.dispatch_us", probes::rayon_dispatch_us()),
        ("bench.self_ms", self_ms),
        ("bench.trace_overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain),
        ("bench.op_ms_p50_traced", p50_traced),
        ("bench.op_ms_p50_untraced", p50_plain),
    ]);

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_chrome_trace(&mut f, &args.workload, spans)?;
        f.flush()
    });
    match written {
        Ok(()) => writeln!(out, "trace: {}", path.display()).unwrap(),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let n = plain.len() + traced.len();
    writeln!(out, "{n} ops ({ops} traced), {failed} failed").unwrap();
    trace::write_self_time_table(out, spans, ops).unwrap();
    for (name, v) in &got {
        writeln!(out, "  {name:<36} {v:.6}").unwrap();
    }
    result_json(n, failed, &PER_LAYER, &got)
}
