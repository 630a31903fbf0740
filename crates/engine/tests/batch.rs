//! Sharded-batch determinism and ordering: at any `batch_jobs` count the
//! sweep must emit the same machines, in machine-index order, with
//! byte-identical timing-stripped report fingerprints — including when a
//! fault plan degrades runs mid-corpus — and the stream writer must produce
//! a well-formed `nova-bench-stream/1` document.

use std::collections::BTreeSet;
use std::time::Duration;

use espresso::{FaultKind, FaultPlan};
use fsm::ScaleSpec;
use nova_core::driver::Algorithm;
use nova_engine::{
    report_fingerprint, run_batch, run_batch_resumable, BatchConfig, EngineConfig, MachineClass,
    StreamWriter, SuiteSource,
};
use nova_trace::json::{self, Json};
use nova_trace::Tracer;

fn corpus() -> ScaleSpec {
    ScaleSpec::parse("machines=16,states=10,inputs=3,outputs=3,reducible=0.2,seed=21")
        .expect("valid spec")
}

fn config() -> EngineConfig {
    EngineConfig {
        algorithms: vec![Algorithm::IGreedy, Algorithm::IHybrid, Algorithm::OneHot],
        node_budget: Some(200_000),
        ..EngineConfig::default()
    }
}

/// Sweeps the corpus and returns `(index, machine, fingerprint)` per
/// emission, in emission order.
fn sweep(cfg: &EngineConfig, bcfg: &BatchConfig) -> Vec<(usize, String, String)> {
    let src = corpus();
    let mut out = Vec::new();
    run_batch(&src, cfg, bcfg, &mut |i, rep| {
        out.push((i, rep.machine.clone(), report_fingerprint(&rep)));
    });
    out
}

#[test]
fn batch_emits_in_machine_index_order() {
    let got = sweep(
        &config(),
        &BatchConfig {
            batch_jobs: 4,
            shard: 2,
            window: 5,
            ..BatchConfig::default()
        },
    );
    assert_eq!(got.len(), 16);
    for (k, (i, name, _)) in got.iter().enumerate() {
        assert_eq!(*i, k, "emission order broke at {k}");
        assert_eq!(name, &corpus().name(k));
    }
}

#[test]
fn batch_reports_are_byte_identical_across_worker_counts() {
    let base = sweep(&config(), &BatchConfig::default());
    for jobs in [2usize, 4, 8] {
        let par = sweep(
            &config(),
            &BatchConfig {
                batch_jobs: jobs,
                ..BatchConfig::default()
            },
        );
        assert_eq!(base, par, "batch_jobs={jobs} diverged from jobs=1");
    }
    // A degenerate window/shard must change scheduling, never results.
    let tight = sweep(
        &config(),
        &BatchConfig {
            batch_jobs: 4,
            shard: 1,
            window: 1,
            ..BatchConfig::default()
        },
    );
    assert_eq!(base, tight, "window=1 sweep diverged");
}

#[test]
fn batch_determinism_survives_an_injected_fault_plan() {
    // A deterministic mid-espresso budget fault degrades every machine's
    // runs; the degraded reports must still replay byte-identically at any
    // worker count (the chaos-suite guarantee, extended to the batch layer).
    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::single("stage.espresso", 1, FaultKind::Budget)),
        ..config()
    };
    let seq = sweep(&cfg, &BatchConfig::default());
    let par = sweep(
        &cfg,
        &BatchConfig {
            batch_jobs: 4,
            ..BatchConfig::default()
        },
    );
    assert_eq!(seq, par, "fault-plan sweep diverged across worker counts");
    // The fault actually bit: some run somewhere degraded.
    assert!(
        seq.iter().any(|(_, _, fp)| fp.contains("outcome=degraded")),
        "fault plan never fired — the test lost its teeth"
    );
}

#[test]
fn stream_writer_emits_well_formed_nova_bench_stream() {
    let src = corpus();
    let mut buf = Vec::new();
    {
        let mut w = StreamWriter::new(&mut buf, &src.spec_string(), src.machines, 3, true)
            .expect("header write");
        let mut sink_err = false;
        run_batch(
            &src,
            &config(),
            &BatchConfig {
                batch_jobs: 3,
                ..BatchConfig::default()
            },
            &mut |_, rep| {
                if w.report(&rep).is_err() {
                    sink_err = true;
                }
            },
        );
        assert!(!sink_err);
        let (tally, per_sec) = w.finish(&[]).expect("summary write");
        assert_eq!(
            tally.solved + tally.degraded + tally.unresolved,
            src.machines
        );
        assert!(per_sec > 0.0);
    }
    let text = String::from_utf8(buf).expect("utf8 stream");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), src.machines + 2, "header + machines + summary");
    let header = json::parse(lines[0]).expect("header parses");
    assert_eq!(
        header.get("schema"),
        Some(&Json::str("nova-bench-stream/1"))
    );
    assert_eq!(header.get("corpus"), Some(&Json::str(src.spec_string())));
    assert_eq!(header.get("batch_jobs"), Some(&Json::uint(3)));
    for (k, line) in lines[1..=src.machines].iter().enumerate() {
        let doc = json::parse(line).expect("report line parses");
        assert_eq!(doc.get("machine"), Some(&Json::str(src.name(k))));
        let Some(Json::Str(fp)) = doc.get("fingerprint") else {
            panic!("line {k} lacks a fingerprint: {line}");
        };
        assert_eq!(fp.len(), 16, "fingerprint is 16 hex chars");
        assert!(doc.get("runs").is_some());
    }
    let summary = json::parse(lines[lines.len() - 1]).expect("summary parses");
    let s = summary.get("summary").expect("summary object");
    assert_eq!(s.get("machines"), Some(&Json::uint(src.machines as u64)));
    assert!(s.get("machines_per_sec").is_some());
    assert!(s.get("wall_ms").is_some());
}

#[test]
fn stream_fingerprints_match_across_worker_counts() {
    // The whole point of embedding fingerprints in the stream: two sweeps
    // at different worker counts must be comparable line by line.
    let src = corpus();
    let stream = |jobs: usize| -> Vec<String> {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "c", src.machines, jobs, true).unwrap();
        run_batch(
            &src,
            &config(),
            &BatchConfig {
                batch_jobs: jobs,
                ..BatchConfig::default()
            },
            &mut |_, rep| w.report(&rep).unwrap(),
        );
        w.finish(&[]).unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .skip(1)
            .take(src.machines)
            .map(|l| match json::parse(l).unwrap().get("fingerprint") {
                Some(Json::Str(fp)) => fp.clone(),
                other => panic!("no fingerprint: {other:?}"),
            })
            .collect()
    };
    assert_eq!(stream(1), stream(4));
}

#[test]
fn batch_counters_reach_the_session_tracer() {
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        tracer: tracer.clone(),
        ..config()
    };
    let src = corpus();
    let mut n = 0usize;
    run_batch(
        &src,
        &cfg,
        &BatchConfig {
            batch_jobs: 4,
            shard: 2,
            ..BatchConfig::default()
        },
        &mut |_, _| n += 1,
    );
    assert_eq!(n, src.machines);
    let snap = tracer.merged_metrics();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("engine.batch.machines"), Some(16));
    assert_eq!(counter("engine.batch.shards"), Some(8), "16 machines / 2");
    assert!(
        snap.gauges
            .iter()
            .any(|(n, _)| n == "engine.batch.queue.depth"),
        "queue-depth gauge missing: {:?}",
        snap.gauges
    );
}

#[test]
fn empty_corpus_is_a_clean_no_op() {
    let src = SuiteSource::filtered(&["no-such-machine".into()]);
    let mut calls = 0usize;
    run_batch(&src, &config(), &BatchConfig::default(), &mut |_, _| {
        calls += 1
    });
    assert_eq!(calls, 0);
}

#[test]
fn always_crashing_machines_are_retried_then_quarantined() {
    // `*:1:panic` fires on the first ctl charge of every attempt, so every
    // machine crashes every attempt: the supervisor must burn the retry
    // budget, quarantine all of them, and still complete the sweep with one
    // emission per machine, in order.
    let spec = ScaleSpec::parse("machines=5,states=6,inputs=2,outputs=2,seed=9").unwrap();
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IHybrid],
        fault_plan: Some(FaultPlan::single("*", 1, FaultKind::Panic)),
        tracer: tracer.clone(),
        ..EngineConfig::default()
    };
    let bcfg = BatchConfig {
        batch_jobs: 2,
        retries: 2,
        ..BatchConfig::default()
    };
    let mut emitted = Vec::new();
    let report = run_batch(&spec, &cfg, &bcfg, &mut |i, rep| {
        emitted.push((i, MachineClass::of(&rep)));
    });
    assert_eq!(emitted.len(), 5, "sweep must complete despite the crashes");
    for (k, (i, class)) in emitted.iter().enumerate() {
        assert_eq!(*i, k);
        assert_eq!(*class, MachineClass::Unresolved);
    }
    assert_eq!(report.machines, 5);
    assert_eq!(report.quarantined.len(), 5, "every machine quarantined");
    assert_eq!(report.retries, 10, "2 retries per machine");
    for (k, q) in report.quarantined.iter().enumerate() {
        assert_eq!(q.index, k, "quarantine list sorted by index");
        assert_eq!(q.machine, spec.name(k));
        assert_eq!(q.attempts, 3, "first run + 2 retries");
        assert!(!q.reason.is_empty(), "quarantine carries a reason");
    }
    let snap = tracer.merged_metrics();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("engine.batch.retry"), Some(10));
    assert_eq!(counter("engine.batch.quarantine"), Some(5));
}

#[test]
fn healthy_machines_never_touch_the_supervision_ladder() {
    let report = run_batch(
        &corpus(),
        &config(),
        &BatchConfig::default(),
        &mut |_, _| {},
    );
    assert_eq!(report.machines, 16);
    assert_eq!(report.retries, 0);
    assert!(report.quarantined.is_empty());
}

#[test]
fn watchdog_cancels_stuck_runs_into_degraded_results() {
    // IExact on 12-state machines with no node budget runs far longer than
    // the 20ms wall limit; the watchdog's cooperative cancel must land and
    // the sweep complete without wedging, each run keeping whatever
    // best-so-far it had (possibly nothing — but never still running).
    let spec = ScaleSpec::parse("machines=2,states=12,inputs=3,outputs=3,seed=33").unwrap();
    let tracer = Tracer::enabled();
    let cfg = EngineConfig {
        algorithms: vec![Algorithm::IExact],
        tracer: tracer.clone(),
        ..EngineConfig::default()
    };
    let bcfg = BatchConfig {
        batch_jobs: 2,
        retries: 0,
        watchdog: Some(Duration::from_millis(20)),
        ..BatchConfig::default()
    };
    let mut emitted = 0usize;
    run_batch(&spec, &cfg, &bcfg, &mut |_, _| emitted += 1);
    assert_eq!(emitted, 2, "watchdog-cancelled sweep still completes");
    let snap = tracer.merged_metrics();
    let cancels = snap
        .counters
        .iter()
        .find(|(n, _)| n == "engine.batch.watchdog.cancel")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(
        cancels >= 1,
        "watchdog never fired; counters: {:?}",
        snap.counters
    );
}

#[test]
fn resumable_sweep_skips_completed_machines_and_keeps_order() {
    let src = corpus();
    // Baseline: full sweep fingerprints.
    let full = sweep(&config(), &BatchConfig::default());
    // Resume with an arbitrary (non-prefix) completed set.
    let completed: BTreeSet<usize> = [0usize, 1, 2, 5, 9, 15].into_iter().collect();
    let mut got = Vec::new();
    let report = run_batch_resumable(
        &src,
        &config(),
        &BatchConfig {
            batch_jobs: 4,
            ..BatchConfig::default()
        },
        &completed,
        &mut |i, rep, q| {
            assert!(q.is_none());
            got.push((i, rep.machine.clone(), report_fingerprint(&rep)));
        },
    );
    assert_eq!(report.machines, 16 - completed.len());
    let expect: Vec<_> = full
        .iter()
        .filter(|(i, _, _)| !completed.contains(i))
        .cloned()
        .collect();
    assert_eq!(
        got, expect,
        "resumed remainder diverged from the full sweep"
    );
}

#[test]
fn fully_completed_resume_runs_nothing() {
    let src = corpus();
    let completed: BTreeSet<usize> = (0..16).collect();
    let mut calls = 0usize;
    let report = run_batch_resumable(
        &src,
        &config(),
        &BatchConfig::default(),
        &completed,
        &mut |_, _, _| calls += 1,
    );
    assert_eq!(calls, 0);
    assert_eq!(report.machines, 0);
}

#[test]
fn deterministic_stream_mode_is_free_of_wall_clock_fields() {
    let src = corpus();
    let stream = |jobs: usize| -> String {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "c", src.machines, jobs, false).unwrap();
        run_batch(
            &src,
            &config(),
            &BatchConfig {
                batch_jobs: jobs,
                ..BatchConfig::default()
            },
            &mut |_, rep| w.report(&rep).unwrap(),
        );
        w.finish(&[]).unwrap();
        String::from_utf8(buf).unwrap()
    };
    let a = stream(1);
    assert_eq!(a, stream(4), "deterministic streams must be byte-identical");
    assert!(!a.contains("wall_ms"), "no wall_ms in deterministic mode");
    assert!(!a.contains("machines_per_sec"));
    let summary = json::parse(a.lines().last().unwrap()).unwrap();
    let s = summary.get("summary").unwrap();
    assert_eq!(s.get("quarantined"), Some(&Json::uint(0)));
}
