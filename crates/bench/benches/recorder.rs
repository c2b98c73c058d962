//! Cost of `Recording::record()` on a driver-shaped event mix.
//!
//! The recorder's budget is ≤100 ns/event amortized (DESIGN.md,
//! "Recording cost model"): one fixed-size row append per event, plus a
//! bump allocation into the payload arena for the rare variable-length
//! variants. The mix below mirrors what the parallel drivers actually
//! emit — dominated by memory alloc/free traffic, a status-view refresh
//! every 4th event, and a full 32-processor slave selection (32-entry
//! metric and view-age vectors, 4 picked blocks) every 32nd event.
//!
//! Three configurations:
//!
//! * `off` — the driver-side fast path: `Option<Recording>` is `None`,
//!   so every site is one branch and the builder closure never runs;
//! * `on_unbounded` — the production attribution/export mode (paged
//!   store, unbounded);
//! * `on_ring_64k` — the black-box mode (preallocated circular buffer
//!   with arena compaction).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mf_sim::recorder::{MemArea, SlavePick, StatusKind};
use mf_sim::{CompactEvent, Recording, Time};

const EVENTS: u64 = 100_000;
const NPROCS: usize = 32;

/// The driver-side recording site: one branch when off, build + append
/// when on. Mirrors `SimDriver::record` in `mf_core::parsim`.
#[inline]
fn record(rec: &mut Option<Recording>, at: Time, build: impl FnOnce() -> CompactEvent) {
    if let Some(r) = rec.as_mut() {
        r.record(at, build());
    }
}

/// Feeds `events` mixed events through `rec`; returns a checksum so the
/// off path cannot be optimized away.
fn run_mix(rec: &mut Option<Recording>, events: u64) -> u64 {
    let metric: [u64; NPROCS] = std::array::from_fn(|p| 1_000 + p as u64);
    let view_age: [Time; NPROCS] = std::array::from_fn(|p| 3 * p as Time);
    let picks: [SlavePick; 4] = std::array::from_fn(|p| SlavePick { proc: p, entries: 512 });
    let mut acc = 0u64;
    for i in 0..events {
        let at = i as Time;
        let node = (i % 4096) as usize;
        let p = (i % NPROCS as u64) as usize;
        if i % 32 == 7 {
            record(rec, at, || {
                CompactEvent::slave_selection(p, node, &metric, &view_age, &picks, 0, false)
            });
        } else if i % 4 == 1 {
            record(rec, at, || {
                CompactEvent::status_apply(
                    p,
                    (p + 1) % NPROCS,
                    (p + 1) % NPROCS,
                    StatusKind::MemDelta,
                    5,
                )
            });
        } else if i % 2 == 0 {
            record(rec, at, || CompactEvent::mem_alloc(p, node, MemArea::Front, 128));
        } else {
            record(rec, at, || CompactEvent::mem_free(p, node, MemArea::Front, 128));
        }
        acc = acc.wrapping_add(at);
    }
    acc.wrapping_add(rec.as_ref().map_or(0, |r| r.len() as u64))
}

fn bench_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("off", |b| {
        b.iter(|| {
            let mut rec: Option<Recording> = None;
            run_mix(&mut rec, EVENTS)
        })
    });
    group.bench_function("on_unbounded", |b| {
        b.iter(|| {
            let mut rec = Some(Recording::new(None));
            run_mix(&mut rec, EVENTS)
        })
    });
    group.bench_function("on_ring_64k", |b| {
        b.iter(|| {
            let mut rec = Some(Recording::new(Some(1 << 16)));
            run_mix(&mut rec, EVENTS)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_recorder);
criterion_main!(benches);
