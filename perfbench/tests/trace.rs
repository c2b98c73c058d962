//! Span bookkeeping, the trace export, and the metric lists against
//! `BENCHMARK.json`.

use perfbench::trace::{self_times, write_chrome_trace, Span, Tracer};
use perfbench::{END_TO_END, PER_LAYER};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name, op: 1, start_ns, end_ns, parent }
}

#[test]
fn self_time_subtracts_direct_children() {
    let spans = [
        span("op", 0, 100, None),
        span("order.compute", 10, 40, Some(0)),
        span("frontal.factor", 40, 90, Some(0)),
    ];
    let t = self_times(&spans);
    assert_eq!(t["op"], (1, 100, 20));
    assert_eq!(t["order.compute"], (1, 30, 30));
    assert_eq!(t["frontal.factor"], (1, 50, 50));
}

#[test]
fn tracer_nests_and_stays_silent_when_off() {
    let mut tr = Tracer::new(false);
    let s = tr.begin("op");
    tr.end(s);
    assert!(tr.spans().is_empty());

    tr.set_on(true);
    tr.set_op(4);
    tr.begin("op");
    let c = tr.begin("frontal.solve");
    tr.end(c);
    tr.begin("bench.check");
    tr.close_all();
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.op == 4 && s.end_ns >= s.start_ns));
    assert!(spans[0].end_ns >= spans[2].end_ns, "the op closes last");

    let mut json = Vec::new();
    write_chrome_trace(&mut json, "test", spans).unwrap();
    let json = String::from_utf8(json).unwrap();
    assert!(json.contains("\"traceEvents\""));
    assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
    assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
}

/// The `field` values of the entries listed under `key` in the
/// repository's `BENCHMARK.json`.
fn listed(key: &str, field: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
    let section = &section[..section.find(']').expect("a list")];
    let marker = format!("\"{field}\": \"");
    section.split(marker.as_str()).skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        assert_eq!(
            listed(key, "name"),
            list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(
            listed(key, "unit"),
            list.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>()
        );
    }
    assert_eq!(listed("workloads", "name"), perfbench::workloads::NAMES.to_vec());
}
