//! `mcnc`: the embedded 35-machine suite, one `run_portfolio` per machine
//! back to back (closed loop, one outstanding), under the default engine
//! configuration plus one fixed per-portfolio wall deadline and no node
//! budget. This is the paper's workload and the CLI user's.
//!
//! It is not declared in `BENCHMARK.json`: scf's constraint extraction
//! does not stop at the deadline, so 10–15 s of memory-heavy ESPRESSO work
//! sets each sweep's throughput and the whole of `latency_ms.p99`, and that
//! work's speed follows the load on the shared host from minute to minute
//! (see `README.md`). Run it by hand with `--workload mcnc`.

use crate::replay::{self, Recorder, ReplayConfig};
use crate::{
    check_winner, failed_run, ms, quantile, shuffled, sweep_metrics, sys, Params, Sheet, Sweep,
};
use fsm::benchmarks::Benchmark;
use nova_engine::{run_portfolio, EngineConfig, PortfolioReport};
use std::time::{Duration, Instant};

/// The per-portfolio wall deadline. Two sweeps over the suite fit in a
/// 30-second run, and no machine's winning run finishes close to it, so the
/// solved set and `area_total` do not flip between runs. More than half the
/// suite runs into the deadline, so `portfolio_ms.p50` and `.p70` sit on
/// it; scf's overrun (cancellation latency) still dominates each sweep.
pub const DEADLINE: Duration = Duration::from_millis(200);

/// Nominal seconds per sweep: a run makes one sweep per `PASS_SECONDS` of
/// `--seconds` (at least one), so every run of a given length does the
/// same work.
pub const PASS_SECONDS: f64 = 15.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;

/// Runs the workload over the whole suite.
pub fn run(p: &Params) -> Sheet {
    run_on(p, &[], DEADLINE)
}

/// Runs the workload over the suite machines named in `only` (all when
/// empty) under `deadline`; the self-test uses a small subset.
pub fn run_on(p: &Params, only: &[&str], deadline: Duration) -> Sheet {
    let mut sheet = Sheet::default();
    let cfg = EngineConfig {
        timeout: Some(deadline),
        ..EngineConfig::default()
    };

    // Set-up: materialize the suite, what every CLI invocation pays.
    let mut setups = Vec::new();
    let mut suite: Vec<Benchmark> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        suite = fsm::benchmarks::suite()
            .into_iter()
            .filter(|b| only.is_empty() || only.contains(&b.name))
            .collect();
        setups.push(t.elapsed().as_secs_f64());
    }
    sheet.set("setup_s", quantile(&setups, 0.5));

    // The untraced pass: whole sweeps over the suite in a seeded order.
    let order = shuffled(suite.len(), p.seed);
    let mut runs: Vec<(usize, PortfolioReport)> = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut done_at = Vec::new();
    let cpu = sys::CpuMeter::start();
    let t0 = Instant::now();
    let want = ((p.seconds / PASS_SECONDS).round() as usize).max(1);
    while sweeps.len() < want {
        let mut sweep = Sweep::default();
        let start = Instant::now();
        for &i in &order {
            let b = &suite[i];
            let t = Instant::now();
            let rep = run_portfolio(&b.fsm, b.name, &cfg);
            sweep.times_ms.push(ms(t.elapsed()));
            sweep.areas.push(rep.best().map(|(_, r)| r.area));
            runs.push((i, rep));
            done_at.push(t0.elapsed());
        }
        sweep.wall = start.elapsed();
        sweeps.push(sweep);
    }
    let wall = t0.elapsed();
    sheet.set("cpu_per_wall", cpu.finish());
    sweep_metrics(&mut sheet, &sweeps);
    sheet.note("deadline_ms", deadline.as_millis());
    sheet.note("machines", suite.len());

    // Correctness gate, outside the timed region.
    sheet.attempted = runs.len() as u64;
    for (k, (i, rep)) in runs.iter().enumerate() {
        if let Err(e) = gate(&suite[*i], rep, p.seed ^ k as u64) {
            sheet.fail(e);
        }
    }

    if p.trace {
        let reports: Vec<&PortfolioReport> = runs.iter().map(|r| &r.1).collect();
        replay::engine_metrics(&mut sheet, &reports, Some(deadline));
        sheet.set(
            "engine.batch.busy_share",
            reports.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>() / wall.as_secs_f64(),
        );
        let gaps: Vec<f64> = done_at
            .iter()
            .scan(Duration::ZERO, |prev, &t| {
                let g = ms(t.saturating_sub(*prev));
                *prev = t;
                Some(g)
            })
            .collect();
        sheet.percentiles(
            &gaps,
            &[
                ("engine.batch.emit_gap_ms.p50", 0.5),
                ("engine.batch.emit_gap_ms.p99", 0.99),
            ],
        );

        let rec = Recorder::default();
        let t = Instant::now();
        let bodies: Vec<String> = suite.iter().map(|b| b.fsm.to_kiss()).collect();
        sheet.set("fsm.generate_ms", 1e3 * quantile(&setups, 0.5));
        let pf = replay::parse_fingerprint_us(&rec, &bodies);
        sheet.percentiles(&pf, &[("fsm.parse_fingerprint_us.p50", 0.5)]);
        let rcfg = ReplayConfig {
            workers: cfg.effective_jobs(),
            embed_jobs: cfg.embed_jobs,
            espresso_jobs: cfg.espresso_jobs,
            timeout: Some(deadline),
        };
        let first: Vec<&PortfolioReport> = runs.iter().take(order.len()).map(|r| &r.1).collect();
        let t_replay = Instant::now();
        let replayed: Vec<_> = order
            .iter()
            .map(|&i| replay::replay_portfolio(&suite[i].fsm, i, &rcfg, &rec))
            .collect();
        let traced = t_replay.elapsed();
        let diffs: Vec<String> = first
            .iter()
            .zip(&replayed)
            .flat_map(|(rep, re)| {
                replay::outcome_diffs(&rep.machine, &replay::outcomes_of(rep), re)
            })
            .collect();
        sheet.set("trace.outcome_diffs", diffs.len() as f64);
        for d in diffs {
            sheet.note("trace.diff", d);
        }
        sheet.set(
            "trace.overhead_share",
            traced.as_secs_f64() / sweeps[0].wall.as_secs_f64() - 1.0,
        );
        replay::layer_metrics(
            &mut sheet,
            &rec.spans(),
            &replayed,
            replay::stage_total(&first),
        );
        sheet.note("trace.pass_s", t.elapsed().as_secs_f64());
        sheet.absent("serve.");
    }
    sheet
}

/// The gate for one portfolio report: every `Failed` run is a failure, and
/// the winning encoding must re-minimize to the reported area and simulate
/// like the table.
pub fn gate(b: &Benchmark, rep: &PortfolioReport, seed: u64) -> Result<(), String> {
    failed_run(rep)?;
    match rep.best() {
        Some((_, best)) => check_winner(&b.fsm, &best.encoding, best.area, seed),
        None => Ok(()),
    }
}
