//! Tiny-size self-test of the benchmark: every workload on two or three
//! machines passes the correctness gate and reports every declared metric,
//! the result line has the contract's shape, the gate rejects a wrong
//! area, and `BENCHMARK.json` names exactly the metrics the harness emits.

use nova_trace::json::{self, Json};
use novabench::{
    check_winner, mcnc, result_line, serve, synth, Params, Sheet, END_TO_END, PER_LAYER,
};
use std::time::Duration;

fn params(trace: bool) -> Params {
    Params {
        seed: 7,
        seconds: 0.3,
        trace,
    }
}

/// Checks the gate passed and both result lines are well formed.
fn check(mut sheet: Sheet) {
    assert!(sheet.failures.is_empty(), "{:?}", sheet.failures);
    assert!(sheet.attempted > 0);
    sheet.set("peak_rss_mb", novabench::sys::peak_rss_mb());
    for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let line = json::parse(&result_line(&sheet, trace).to_compact()).expect("valid JSON");
        let Json::Obj(pairs) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        for (name, m) in metrics {
            assert!(
                matches!(m.get("value"), Some(Json::Float(v)) if v.is_finite()),
                "{name}"
            );
            assert!(matches!(m.get("unit"), Some(Json::Str(_))), "{name}");
        }
    }
}

#[test]
fn mcnc_subset_passes_the_gate() {
    let sheet = mcnc::run_on(
        &params(true),
        &["lion", "bbtas", "dk27"],
        Duration::from_secs(5),
    );
    assert_eq!(sheet.attempted, 3);
    assert_eq!(sheet.get("solved_share"), Some(1.0));
    assert_eq!(sheet.get("trace.outcome_diffs"), Some(0.0));
    check(sheet);
}

#[test]
fn synth_subset_passes_the_gate() {
    let sheet = synth::run_on(&params(true), 3);
    assert_eq!(sheet.get("solved_share"), Some(1.0));
    assert!(sheet.get("area_total").is_some_and(|a| a > 0.0));
    check(sheet);
}

#[test]
fn serve_subset_passes_the_gate() {
    let sheet = serve::run_on(&params(true), &["lion", "dk27"]);
    assert_eq!(sheet.get("serve.status.503"), Some(0.0));
    check(sheet);
}

#[test]
fn the_gate_rejects_a_wrong_area() {
    let b = fsm::benchmarks::by_name("bbtas").expect("bbtas is in the suite");
    let enc = fsm::Encoding::new(3, (0..6).collect()).expect("distinct 3-bit codes");
    let mut pla = fsm::encode::encode(&b.fsm, &enc);
    pla.on = espresso::minimize(&pla.on, &pla.dc);
    let area = pla.area_for(pla.on.len());
    assert_eq!(check_winner(&b.fsm, &enc, area, 1), Ok(()));
    assert!(check_winner(&b.fsm, &enc, area + 1, 1).is_err());
    let short = fsm::Encoding::new(3, (0..5).collect()).expect("distinct 3-bit codes");
    assert!(check_winner(&b.fsm, &short, area, 1).is_err());
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    for (key, declared) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Some(Json::Arr(list)) = doc.get(key) else {
            panic!("{key} is not a list")
        };
        let got: Vec<(String, String)> = list
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect();
        let want: Vec<(String, String)> = declared
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(got, want, "{key}");
    }
}
