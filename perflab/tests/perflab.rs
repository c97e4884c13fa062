//! The benchmark's own checks: the emitted metrics are exactly the ones
//! `BENCHMARK.json` names, guest outcomes are deterministic and
//! engine-independent, the golden check can fail, layer timers give usable
//! numbers and the span dump nests. Workloads run shrunk (2 nodes at most,
//! scale 0.05) so a debug build finishes in seconds.

use perflab::contract::Contract;
use perflab::layers;
use perflab::run::{guest_once, run_workload, Opts, Outcome};
use perflab::spans::Spans;
use perflab::workloads::{self, Workload};
use smtp::core::json::{self, JsonValue};
use std::time::Duration;

const SEED: u64 = 7;

fn quick() -> Opts {
    Opts {
        seconds: 0.0,
        min_reps: 1,
        setup_calls: 2,
        setup_secs: 0.0,
        timer_sample: Duration::from_micros(200),
    }
}

fn tiny(name: &str) -> Workload {
    let mut w = workloads::by_name(name, SEED).expect("known workload");
    w.cfg.nodes = w.cfg.nodes.min(2);
    w.cfg.scale = 0.05;
    w
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metric names of the contract result line, in order of appearance.
fn emitted_names(out: &Outcome) -> Vec<String> {
    let doc = json::parse(&out.to_json()).expect("result line is valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(JsonValue::as_bool),
        Some(out.correct())
    );
    assert!(doc.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    doc.get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: no finite value");
            assert!(m.get("unit").and_then(JsonValue::as_str).is_some());
            name.clone()
        })
        .collect()
}

fn assert_same_names(workload: &str, emitted: &[String], named: Vec<&str>) {
    for n in &named {
        let count = emitted.iter().filter(|e| e == n).count();
        assert_eq!(count, 1, "{n} appears {count} times for {workload}");
    }
    assert_eq!(
        emitted.len(),
        named.len(),
        "{workload} emits unnamed metrics"
    );
}

#[test]
fn every_named_metric_is_emitted_exactly_once_per_workload() {
    let contract = Contract::load().expect("BENCHMARK.json parses");
    assert_eq!(contract.workloads, workloads::NAMES);
    let all_names = contract
        .end_to_end
        .iter()
        .chain(&contract.per_layer)
        .map(|m| m.name.as_str())
        .chain(contract.workloads.iter().map(String::as_str));
    for n in all_names {
        assert!(valid_name(n), "{n:?} is not [A-Za-z0-9_.-]+");
    }
    assert!(contract.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));

    let mut spans = Spans::new();
    let timers = layers::time_all(SEED, &quick(), &mut spans);
    for name in workloads::NAMES {
        let w = tiny(name);
        let e2e = run_workload(&w, &quick(), None, None, &mut spans).expect("end-to-end run");
        assert!(e2e.correct(), "{name}: {:?}", e2e.failures);
        let named = contract.end_to_end.iter().map(|m| m.name.as_str());
        assert_same_names(name, &emitted_names(&e2e), named.collect());
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} is not positive",
                m.name
            );
        }

        let traced =
            run_workload(&w, &quick(), None, Some(&timers), &mut spans).expect("traced run");
        assert!(traced.correct(), "{name}: {:?}", traced.failures);
        let named = contract.per_layer.iter().map(|m| m.name.as_str());
        assert_same_names(name, &emitted_names(&traced), named.collect());
    }
}

#[test]
fn guest_outcome_is_deterministic_and_engine_independent() {
    let w = tiny("fft_8n_chaos");
    assert!(w.parallel() && w.seeded);
    let first = guest_once(&w).expect("serial rep");
    assert_eq!(
        first,
        guest_once(&w).expect("serial rep"),
        "two runs differ"
    );

    // The parallel warm-up, timed and instrumented reps and the serial
    // oracle must all agree with the serial outcome pinned here.
    let mut spans = Spans::new();
    let timers = layers::time_all(SEED, &quick(), &mut spans);
    let out = run_workload(&w, &quick(), Some(&first), Some(&timers), &mut spans)
        .expect("traced parallel run");
    assert_eq!((out.attempted, out.failed()), (4, 0), "{:?}", out.failures);
}

#[test]
fn a_wrong_golden_value_fails_every_operation() {
    let w = tiny("lu_1n4w_pipe");
    let mut pin = guest_once(&w).expect("serial rep");
    pin.cycles += 1;
    let out = run_workload(&w, &quick(), Some(&pin), None, &mut Spans::new()).expect("run");
    assert!(!out.correct());
    assert_eq!(out.failed(), out.attempted);
    assert!(out.failures[0].contains("differs from golden"));
    assert!(out.to_json().starts_with("{\"correct\": false"));
}

#[test]
fn layer_timers_are_finite_and_positive() {
    let timers = layers::time_all(SEED, &quick(), &mut Spans::new());
    let names: Vec<&str> = timers.iter().map(|(n, _)| n).collect();
    assert!(names.len() >= 20);
    for (name, ns) in timers.iter() {
        assert!(ns.is_finite() && ns > 0.0, "{name} = {ns}");
        assert!(name.ends_with("_ns"));
        assert_eq!(names.iter().filter(|n| **n == name).count(), 1);
    }
}

#[test]
fn span_dump_is_valid_json_and_children_nest_inside_parents() {
    let mut spans = Spans::new();
    let timers = layers::time_all(SEED, &quick(), &mut spans);
    let w = tiny("fft_32n_par");
    run_workload(&w, &quick(), None, Some(&timers), &mut spans).expect("traced run");

    let doc = json::parse(&spans.to_json()).expect("span dump is valid JSON");
    let list = doc
        .get("spans")
        .and_then(JsonValue::as_arr)
        .expect("spans array");
    assert_eq!(list.len(), spans.spans().len());
    let field = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_u64);
    let mut by_name = std::collections::BTreeMap::new();
    for (i, s) in list.iter().enumerate() {
        assert_eq!(field(s, "id"), Some(i as u64));
        let (start, end) = (field(s, "start_ns").unwrap(), field(s, "end_ns").unwrap());
        assert!(start <= end);
        let name = s.get("name").and_then(JsonValue::as_str).unwrap();
        let layer = s.get("layer").and_then(JsonValue::as_str).unwrap();
        by_name.insert(name.to_string(), layer.to_string());
        let parent = s.get("parent").unwrap();
        if !parent.is_null() {
            let p = &list[parent.as_u64().unwrap() as usize];
            assert!(
                parent.as_u64().unwrap() < i as u64,
                "{name}: parent opened later"
            );
            assert!(
                field(p, "start_ns").unwrap() <= start && end <= field(p, "end_ns").unwrap(),
                "{name} is not inside its parent"
            );
        }
    }
    // One span per timer (layer = crate), per rep and per run.
    for (timer, _) in timers.iter() {
        assert_eq!(
            by_name.get(timer).map(String::as_str),
            timer.split('.').next()
        );
    }
    for rep in [
        "rep.warmup",
        "rep.timed.0",
        "rep.traced",
        "rep.serial_oracle",
        "setup",
    ] {
        assert_eq!(by_name.get(rep).map(String::as_str), Some("core"), "{rep}");
    }
    assert_eq!(
        by_name.get("fft_32n_par").map(String::as_str),
        Some("perflab")
    );
}
