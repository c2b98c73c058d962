//! Wall-clock spans recorded by the benchmark around its calls into the
//! solver crates, kept in memory and written out when the run ends.
//!
//! A disabled tracer records nothing: `begin` and `end` are one branch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Marker returned by a disabled tracer's `begin`.
const NONE: usize = usize::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, such as `frontal.factor`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), op: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the operation id stamped on the following spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, op: self.op, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, id: usize) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans must close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Closes every open span, as after an operation that panicked.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: `(spans, total ns, self ns)`, where a span's self
/// time is its duration minus the durations of its direct children.
/// Spans nest strictly (one thread, closed innermost first), so the
/// direct children of a span never overlap and the subtraction is exact.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(c);
    }
    table
}

/// Writes the per-name self-time table, one row per span name.
pub fn write_self_time_table<W: Write>(w: &mut W, spans: &[Span], ops: u64) -> io::Result<()> {
    let ops = ops.max(1) as f64;
    writeln!(w, "{:<24} {:>7} {:>12} {:>12}", "span", "count", "ms/op", "self ms/op")?;
    for (name, (count, total, own)) in self_times(spans) {
        writeln!(
            w,
            "{name:<24} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6 / ops,
            own as f64 / 1e6 / ops
        )?;
    }
    Ok(())
}

/// Writes `spans` as Chrome trace-event JSON (complete `X` events, one
/// thread track, microsecond timestamps), loadable in Perfetto. Each
/// event carries its operation id and its parent's index.
pub fn write_chrome_trace<W: Write>(w: &mut W, label: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"displayTimeUnit\": \"ms\",")?;
    writeln!(w, "  \"traceEvents\": [")?;
    write!(
        w,
        "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
         \"args\": {{\"name\": \"{label}\"}}}}"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            ",\n    {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"op\": {}, \"parent\": {parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
        )?;
    }
    writeln!(w, "\n  ]")?;
    writeln!(w, "}}")
}
