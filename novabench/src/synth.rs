//! `synth`: a seeded `fsm::ScaleSpec` random-family corpus of small
//! machines swept by `nova_engine::run_batch` with one batch worker per
//! core, the default portfolio, and no deadline or budget. Per-machine
//! fixed cost and the batch layer dominate; inner parallelism is forced
//! sequential by the batch engine, so this workload bypasses any
//! embed/ESPRESSO parallelism change. Results are deterministic, so
//! `area_total` checks quality exactly.

use crate::replay::{self, Recorder, ReplayConfig};
use crate::{
    check_winner, failed_run, ms, quantile, shuffled, sweep_metrics, sys, Params, Sheet, Sweep,
};
use fsm::generator::ScaleSpec;
use fsm::Fsm;
use nova_engine::{run_batch, BatchConfig, EngineConfig, MachineSource, PortfolioReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Machines per corpus: one sweep takes about 6 s on two cores.
pub const MACHINES: usize = 192;

/// Nominal seconds per sweep: a run makes one sweep per `PASS_SECONDS` of
/// `--seconds` (at least one), so every run of a given length does the
/// same work.
pub const PASS_SECONDS: f64 = 7.5;

/// Set-up repetitions before each sweep and after the last; `setup_s` is
/// the median of all of them. One set-up takes about 1–2 ms, and which of
/// the two it takes follows the host's load for a second or so at a time,
/// so the repetitions are spread over the run instead of taken at once.
const SETUPS_PER_GAP: usize = 11;

/// The corpus: fixed, so runs under different seeds sweep the same
/// machines and differ only in order.
pub fn corpus(machines: usize) -> ScaleSpec {
    ScaleSpec {
        machines,
        states: 8,
        inputs: 3,
        outputs: 3,
        seed: 0x5e7d,
        prefix: "synth".into(),
        ..ScaleSpec::default()
    }
}

/// The corpus in a seeded order: sweep index `i` is corpus machine
/// `order[i]`.
struct Ordered<'a> {
    spec: &'a ScaleSpec,
    order: Vec<usize>,
}

impl MachineSource for Ordered<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }
    fn name(&self, i: usize) -> String {
        self.spec.name(self.order[i])
    }
    fn machine(&self, i: usize) -> Fsm {
        self.spec.machine(self.order[i])
    }
    fn describe(&self) -> String {
        self.spec.spec_string()
    }
}

/// Runs the workload on the full-size corpus.
pub fn run(p: &Params) -> Sheet {
    run_on(p, MACHINES)
}

/// Runs the workload on a corpus of `machines` machines.
pub fn run_on(p: &Params, machines: usize) -> Sheet {
    let mut sheet = Sheet::default();
    let spec = corpus(machines);
    let src = Ordered {
        spec: &spec,
        order: shuffled(machines, p.seed),
    };
    let cfg = EngineConfig::default();
    let bcfg = BatchConfig {
        batch_jobs: sys::nproc(),
        ..BatchConfig::default()
    };
    let workers = bcfg.effective_jobs();

    // Set-up: generate the corpus (the sweep regenerates each machine on
    // demand, as `nova bench --synthetic` does; this validates the spec
    // and gives the gate its machines).
    let mut setups = Vec::new();
    let mut set_up = || {
        let mut machines = Vec::new();
        for _ in 0..SETUPS_PER_GAP {
            let t = Instant::now();
            spec.validate()
                .expect("the benchmark's corpus spec is valid");
            machines = (0..src.len()).map(|i| src.machine(i)).collect();
            setups.push(t.elapsed().as_secs_f64());
        }
        machines
    };
    let machines_fsm: Vec<Fsm> = set_up();

    // The untraced pass: whole sweeps of the corpus, each followed by more
    // set-ups.
    let want = ((p.seconds / PASS_SECONDS).round() as usize).max(1);
    let mut passes: Vec<Vec<(PortfolioReport, Duration)>> = Vec::new();
    let mut pass_walls: Vec<Duration> = Vec::new();
    let cpu = sys::CpuMeter::start();
    while passes.len() < want {
        let start = Instant::now();
        let mut out = Vec::with_capacity(spec.machines);
        run_batch(&src, &cfg, &bcfg, &mut |_, rep| {
            out.push((rep, start.elapsed()));
        });
        pass_walls.push(start.elapsed());
        passes.push(out);
        set_up();
    }
    let wall: Duration = pass_walls.iter().sum();
    sheet.set("cpu_per_wall", cpu.finish());
    sheet.set("setup_s", quantile(&setups, 0.5));

    let all: Vec<&PortfolioReport> = passes.iter().flatten().map(|(r, _)| r).collect();
    let sweeps: Vec<Sweep> = passes
        .iter()
        .zip(&pass_walls)
        .map(|(pass, wall)| Sweep {
            wall: *wall,
            times_ms: pass.iter().map(|(r, _)| ms(r.wall)).collect(),
            areas: pass
                .iter()
                .map(|(r, _)| r.best().map(|(_, b)| b.area))
                .collect(),
        })
        .collect();
    sweep_metrics(&mut sheet, &sweeps);
    sheet.note("machines", spec.machines);
    sheet.note("batch_jobs", workers);
    sheet.note("corpus", spec.spec_string());

    // Correctness gate: the first sweep's winners are re-checked; later
    // sweeps must reproduce the first one's areas exactly.
    sheet.attempted = all.len() as u64;
    for (i, (rep, _)) in passes[0].iter().enumerate() {
        if let Err(e) = gate(&machines_fsm[i], rep, p.seed ^ i as u64) {
            sheet.fail(e);
        }
    }
    for pass in &passes[1..] {
        for (i, ((rep, _), want)) in pass.iter().zip(&sweeps[0].areas).enumerate() {
            let got = rep.best().map(|(_, b)| b.area);
            if got != *want {
                sheet.fail(format!(
                    "{}: area {got:?} differs from the first sweep's {want:?}",
                    src.name(i)
                ));
            } else if let Err(e) = failed_run(rep) {
                sheet.fail(e);
            }
        }
    }

    if p.trace {
        replay::engine_metrics(&mut sheet, &all, None);
        sheet.set(
            "engine.batch.busy_share",
            all.iter().map(|r| ms(r.wall)).sum::<f64>() / (workers as f64 * ms(wall)),
        );
        let gaps: Vec<f64> = passes
            .iter()
            .flat_map(|pass| {
                pass.windows(2)
                    .map(|w| ms(w[1].1.saturating_sub(w[0].1)))
                    .collect::<Vec<_>>()
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
        sheet.set("fsm.generate_ms", 1e3 * quantile(&setups, 0.5));
        let bodies: Vec<String> = machines_fsm.iter().map(Fsm::to_kiss).collect();
        let pf = replay::parse_fingerprint_us(&rec, &bodies);
        sheet.percentiles(&pf, &[("fsm.parse_fingerprint_us.p50", 0.5)]);

        // The batch engine runs whole portfolios per worker with every
        // inner pool sequential; the replay does the same.
        let rcfg = ReplayConfig {
            workers: 1,
            embed_jobs: 1,
            espresso_jobs: 1,
            timeout: None,
        };
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<replay::Replayed>>> =
            (0..spec.machines).map(|_| Mutex::new(Vec::new())).collect();
        let t_replay = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= spec.machines {
                        break;
                    }
                    let m = src.machine(i);
                    let r = replay::replay_portfolio(&m, i, &rcfg, &rec);
                    *slots[i].lock().expect("slot poisoned") = r;
                });
            }
        });
        let traced = t_replay.elapsed();
        let replayed: Vec<Vec<replay::Replayed>> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot poisoned"))
            .collect();
        let first: Vec<&PortfolioReport> = passes[0].iter().map(|(r, _)| r).collect();
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
            traced.as_secs_f64() / pass_walls[0].as_secs_f64() - 1.0,
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

fn gate(m: &Fsm, rep: &PortfolioReport, seed: u64) -> Result<(), String> {
    failed_run(rep)?;
    match rep.best() {
        Some((_, best)) => check_winner(m, &best.encoding, best.area, seed),
        None => Err(format!(
            "{}: no completed result without a deadline",
            rep.machine
        )),
    }
}
