//! Causal-span invariants over whole runs: span conservation (every
//! dispatch pairs with exactly one completion on the same span; every
//! allocated span is freed exactly once), exact agreement between the
//! critical-path attribution and the phase profiler's end-to-end latency,
//! span analysis bit-identical to the reference loop's on both engines, and a valid
//! Chrome trace (with flow events) even when the run dies mid-flight.

use smtp::core::experiment::assert_engines_match_reference;
use smtp::trace::{ChromeTraceSink, Event, MemorySink, SharedBuf};
use smtp::types::{Cycle, SpanId};
use smtp::{
    build_system, AppKind, EngineKind, ExperimentConfig, FaultConfig, MachineModel, RunErrorKind,
};
use std::collections::{HashMap, HashSet};

fn quick(nodes: usize, ways: usize, chaos_seed: Option<u64>) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, nodes, ways);
    e.scale = 0.1;
    if let Some(seed) = chaos_seed {
        e.faults = FaultConfig::chaos(seed);
    }
    e
}

/// Run one config on one engine with full tracing and return the event
/// stream.
fn traced_events(e: &ExperimentConfig, engine: EngineKind) -> Vec<(Cycle, Event)> {
    let mut sys = build_system(e);
    sys.tracer().enable_all();
    let store = MemorySink::shared();
    sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
    sys.run_with(e.max_cycles, engine)
        .unwrap_or_else(|err| panic!("{engine} run failed: {err}"));
    let events = store.borrow().clone();
    events
}

/// Span conservation over a completed run's event stream:
/// * every `HandlerDispatch` has exactly one `HandlerComplete` with the
///   same (node, seq) — and that completion carries the same span;
/// * every span that appears anywhere was allocated by exactly one
///   `MshrAlloc` and freed by exactly one `MshrFree`;
/// * every `LinkRetransmit` reuses the span of a previously injected
///   message (the LLP retransmits the buffered original, not a clone with
///   a fresh span).
///
/// Returns the number of retransmissions seen, so fault runs can assert
/// the retry path was actually exercised.
fn check_span_conservation(events: &[(Cycle, Event)], label: &str) -> usize {
    let mut dispatched: HashMap<(u16, u64), SpanId> = HashMap::new();
    let mut completed: HashMap<(u16, u64), SpanId> = HashMap::new();
    let mut allocated: HashMap<u64, usize> = HashMap::new();
    let mut freed: HashMap<u64, usize> = HashMap::new();
    let mut seen_spans: HashSet<u64> = HashSet::new();
    let mut injected: HashSet<u64> = HashSet::new();
    let mut retransmits = 0usize;
    for (_, ev) in events {
        let span = ev.span();
        if span.is_some() {
            seen_spans.insert(span.raw());
        }
        match *ev {
            Event::HandlerDispatch {
                node, seq, span, ..
            } => {
                let prev = dispatched.insert((node.0, seq), span);
                assert!(prev.is_none(), "[{label}] duplicate dispatch seq {seq}");
            }
            Event::HandlerComplete {
                node, seq, span, ..
            } => {
                let prev = completed.insert((node.0, seq), span);
                assert!(prev.is_none(), "[{label}] duplicate completion seq {seq}");
            }
            Event::MshrAlloc { span, .. } => *allocated.entry(span.raw()).or_default() += 1,
            Event::MshrFree { span, .. } => *freed.entry(span.raw()).or_default() += 1,
            Event::NetInject { span, .. } if span.is_some() => {
                injected.insert(span.raw());
            }
            Event::LinkRetransmit { span, .. } => {
                retransmits += 1;
                assert!(
                    span.is_some() && injected.contains(&span.raw()),
                    "[{label}] retransmit carries span {span} never injected"
                );
            }
            _ => {}
        }
    }
    assert!(!dispatched.is_empty(), "[{label}] no handlers dispatched");
    for (key, span) in &dispatched {
        let done = completed.get(key);
        assert_eq!(
            done,
            Some(span),
            "[{label}] dispatch (node {}, seq {}) span {span} has no matching completion",
            key.0,
            key.1
        );
    }
    assert_eq!(
        dispatched.len(),
        completed.len(),
        "[{label}] completions without a dispatch"
    );
    for (raw, count) in &allocated {
        assert_eq!(
            *count,
            1,
            "[{label}] span {} allocated {count} times",
            SpanId(*raw)
        );
        assert_eq!(
            freed.get(raw),
            Some(&1),
            "[{label}] span {} never freed exactly once",
            SpanId(*raw)
        );
    }
    // Conservation in the other direction: no span materializes out of
    // nowhere. Every span on any event traces back to an MSHR allocation.
    for raw in &seen_spans {
        assert!(
            allocated.contains_key(raw),
            "[{label}] span {} appears without an mshr_alloc",
            SpanId(*raw)
        );
    }
    retransmits
}

#[test]
fn spans_conserved_on_serial_engine() {
    let e = quick(2, 2, None);
    check_span_conservation(&traced_events(&e, EngineKind::Serial), "serial x2");
}

#[test]
fn spans_conserved_on_parallel_engine() {
    let e = quick(2, 2, None);
    check_span_conservation(&traced_events(&e, EngineKind::Parallel), "parallel x2");
}

#[test]
fn spans_conserved_under_chaos_faults_and_retransmits_reuse_spans() {
    // Chaos plans drop/corrupt packets, forcing the link-level retry layer
    // to retransmit; the retransmitted message must ride the original
    // span. Across these seeds at least one run must actually retry, or
    // the reuse assertion never fires.
    let mut total_retransmits = 0;
    for (seed, engine) in [
        (7, EngineKind::Serial),
        (11, EngineKind::Serial),
        (11, EngineKind::Parallel),
    ] {
        let e = quick(2, 1, Some(seed));
        let label = format!("chaos {seed} {engine}");
        total_retransmits += check_span_conservation(&traced_events(&e, engine), &label);
    }
    assert!(
        total_retransmits > 0,
        "no chaos seed exercised the retransmit path"
    );
}

/// The acceptance invariant: for a two-node remote-read experiment, the
/// per-edge critical-path attribution of every transaction sums *exactly*
/// to the end-to-end latency the phase profiler measured for the same
/// transaction — two fully independent instrumentation paths (causal spans
/// ride trace events; the profiler stamps phase boundaries keyed by
/// (requester, line)) telescoping to the same number.
#[test]
fn critical_path_telescopes_to_profiler_end_to_end() {
    let e = quick(2, 2, None);
    let mut sys = build_system(&e);
    sys.profiler().keep_records(true);
    // Keep every transaction as an exemplar so the invariant is checked
    // across the whole run, not just the slowest few.
    let causal = sys.enable_causal_spans(usize::MAX);
    let stats = sys.run(e.max_cycles).expect("run must complete");

    let exemplars = causal.exemplars();
    assert!(
        exemplars.len() > 50,
        "too few transactions to be meaningful ({})",
        exemplars.len()
    );
    assert_eq!(exemplars.len() as u64, stats.critical_path.spans);
    assert_eq!(causal.open_count(), 0, "quiesced run left spans open");

    // Every span telescopes internally, and is indexable by its identity
    // (one MSHR per (requester, line) at a time makes the key unique).
    let mut by_key: HashMap<(u16, u64, Cycle), u64> = HashMap::new();
    for ex in &exemplars {
        let per_edge_sum: u64 = ex.cats.iter().sum();
        assert_eq!(
            per_edge_sum,
            ex.latency(),
            "span {}: edge attributions don't telescope",
            ex.span
        );
        by_key.insert((ex.requester.0, ex.line.raw(), ex.alloc_at), per_edge_sum);
    }

    // Every transaction the profiler measured must have a causal span whose
    // per-edge attribution sums to the same end-to-end latency. (The
    // profiler deliberately skips instruction-fetch misses, so the span set
    // is a superset of the record set.)
    let records = sys.profiler().records();
    assert!(records.len() > 50, "too few profiled records");
    for r in &records {
        let alloc = r
            .boundary(smtp::types::PhaseBoundary::Alloc)
            .expect("every record starts at Alloc");
        let per_edge_sum = by_key
            .get(&(r.requester.0, r.line.raw(), alloc))
            .unwrap_or_else(|| {
                panic!(
                    "profiled transaction ({:?}, {:?}, alloc {alloc}) has no causal span",
                    r.requester, r.line
                )
            });
        assert_eq!(
            *per_edge_sum,
            r.end_to_end(),
            "({:?}, {:?}): critical path sums to {per_edge_sum} but the profiler \
             measured {} end-to-end",
            r.requester,
            r.line,
            r.end_to_end()
        );
    }
    // And the run-level aggregate telescopes too.
    let cp = &stats.critical_path;
    assert_eq!(cp.cycles.iter().sum::<u64>(), cp.total_cycles);
}

/// Causal analysis is deterministic across engines: inline the engine
/// emits events in the reference loop's order and the threaded exchange's
/// capture/replay restores it, so breakdown, exemplars and the report
/// section are bit-identical to the reference loop's.
#[test]
fn causal_breakdown_identical_on_both_engines() {
    let mut e = quick(2, 2, None);
    e.workers = Some(2);
    let arm = |sys: &mut smtp::System| sys.enable_causal_spans(4);
    assert_engines_match_reference(&e, "causal x2", arm, |_, causal, res| {
        let stats = res.unwrap_or_else(|err| panic!("run failed: {err}"));
        let trees: Vec<String> = causal.exemplars().iter().map(|x| x.render_tree()).collect();
        (stats.critical_path, trees)
    });
}

/// A run that dies mid-simulation must still leave a *loadable* Chrome
/// trace behind: the error path flushes the tracer, and the sink
/// additionally closes the JSON array on drop. The whole buffer must be
/// one structurally valid JSON document containing flow events.
#[test]
fn chrome_trace_valid_json_after_midrun_failure() {
    let buf = SharedBuf::new();
    let e = quick(2, 2, None);
    let mut sys = build_system(&e);
    sys.enable_causal_spans(2);
    sys.tracer().add_sink(Box::new(ChromeTraceSink::new(
        Box::new(buf.clone()),
        e.nodes,
    )));
    let err = sys.run(2_000).expect_err("2k cycles cannot complete");
    assert_eq!(err.kind, RunErrorKind::Deadlock);
    drop(sys);

    let text = buf.to_string_lossy();
    assert_valid_json(&text);
    assert!(
        text.contains("\"ph\":\"s\"") && text.contains("\"ph\":\"f\""),
        "trace carries no flow events"
    );
    assert!(
        text.contains("\"bp\":\"e\""),
        "flow end not bound enclosing"
    );
}

/// The happy path writes valid JSON too, with matched flow open/close.
#[test]
fn chrome_trace_valid_json_end_to_end() {
    let buf = SharedBuf::new();
    let e = quick(2, 1, None);
    let mut sys = build_system(&e);
    sys.enable_causal_spans(2);
    sys.tracer().add_sink(Box::new(ChromeTraceSink::new(
        Box::new(buf.clone()),
        e.nodes,
    )));
    sys.run(e.max_cycles).expect("run must complete");
    drop(sys);
    let text = buf.to_string_lossy();
    assert_valid_json(&text);
    let starts = text.matches("\"ph\":\"s\"").count();
    let ends = text.matches("\"ph\":\"f\"").count();
    assert!(starts > 0, "no flow chains opened");
    assert_eq!(starts, ends, "unbalanced flow chains");
}

/// Minimal hand-rolled JSON validator: a recursive-descent parser over the
/// full value grammar (objects, arrays, strings with escapes, numbers,
/// literals). Panics with position context on the first violation. The
/// workspace deliberately has no serde; this is the test-side counterpart
/// of the hand-rolled writers.
fn assert_valid_json(text: &str) {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos);
    skip_ws(b, &mut pos);
    assert_eq!(pos, b.len(), "trailing garbage at byte {pos}");
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) {
    assert!(*pos < b.len(), "unexpected end of input");
    match b[*pos] {
        b'{' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return;
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos);
                skip_ws(b, pos);
                assert_eq!(b.get(*pos), Some(&b':'), "expected ':' at byte {pos}");
                *pos += 1;
                skip_ws(b, pos);
                parse_value(b, pos);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return;
                    }
                    other => panic!("expected ',' or '}}' at byte {pos}, got {other:?}"),
                }
            }
        }
        b'[' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return;
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return;
                    }
                    other => panic!("expected ',' or ']' at byte {pos}, got {other:?}"),
                }
            }
        }
        b'"' => parse_string(b, pos),
        b't' => expect_lit(b, pos, b"true"),
        b'f' => expect_lit(b, pos, b"false"),
        b'n' => expect_lit(b, pos, b"null"),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        c => panic!("unexpected byte {c:?} at {pos}"),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) {
    assert_eq!(b.get(*pos), Some(&b'"'), "expected '\"' at byte {pos}");
    *pos += 1;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        assert!(
                            *pos + 4 < b.len()
                                && b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit),
                            "bad \\u escape at byte {pos}"
                        );
                        *pos += 5;
                    }
                    other => panic!("bad escape {other:?} at byte {pos}"),
                }
            }
            c if c < 0x20 => panic!("raw control byte {c:#x} in string at {pos}"),
            _ => *pos += 1,
        }
    }
    panic!("unterminated string");
}

fn parse_number(b: &[u8], pos: &mut usize) {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    assert!(*pos > start, "empty number at byte {start}");
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &[u8]) {
    assert!(
        b[*pos..].starts_with(lit),
        "bad literal at byte {pos}: expected {:?}",
        std::str::from_utf8(lit).unwrap()
    );
    *pos += lit.len();
}
