//! The traced pass: replays a portfolio machine × algorithm through the
//! public layer calls in the driver's order (constraints or symbolic
//! minimization, embedding, encoding, ESPRESSO), under the same deadline
//! and worker counts the engine uses, and records one span per call.
//!
//! The spans are the harness's own: they time the calls from outside, so
//! the library's internal tracing stays disabled throughout.

use crate::{ms, sys, Sheet};
use espresso::{minimize_with_ctl, Cancelled, MinimizeOptions, RunCtl};
use fsm::encode::encode;
use fsm::{Encoding, Fsm};
use nova_core::constraint::extract_input_constraints_ctl;
use nova_core::driver::Algorithm;
use nova_core::exact::{iexact_code_ctl, ExactOptions};
use nova_core::greedy::igreedy_code_ctl;
use nova_core::hybrid::{ihybrid_code_ctl, kiss_code_ctl, HybridOptions};
use nova_core::iohybrid::{iohybrid_code_ctl, iovariant_code_ctl};
use nova_core::mustang::{mustang_code, MustangMode};
use nova_core::poset::InputGraph;
use nova_core::symbolic_min::{symbolic_minimize_ctl, SymbolicMinOptions};
use nova_engine::PortfolioReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`core.embed.iexact`, `espresso.minimize`, ...).
    pub layer: &'static str,
    /// The operation (machine or request) the call belongs to; spans of one
    /// operation share it.
    pub op: usize,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// Wall time of the call.
    pub wall: Duration,
    /// Process CPU time consumed while the call ran (all threads, so calls
    /// that overlap on other workers are included).
    pub cpu: Duration,
    /// `RunCounters` deltas across the call: work, ESPRESSO iterations,
    /// cubes in, cubes out.
    pub counters: [u64; 4],
}

/// In-memory span store for one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn counters(ctl: Option<&RunCtl>) -> [u64; 4] {
    ctl.map_or([0; 4], |c| {
        let k = c.counters();
        [k.work, k.espresso_iterations, k.cubes_in, k.cubes_out]
    })
}

impl Recorder {
    /// Times `f` as one call into `layer`, sampling wall and process CPU
    /// time around it and, with a ctl, the counter deltas.
    pub fn time<T>(
        &self,
        layer: &'static str,
        op: usize,
        ctl: Option<&RunCtl>,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = counters(ctl);
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        let after = counters(ctl);
        let span = Span {
            layer,
            op,
            start: t0.duration_since(self.origin),
            wall,
            cpu,
            counters: std::array::from_fn(|i| after[i].saturating_sub(before[i])),
        };
        self.spans
            .lock()
            .expect("span store poisoned: a recording thread panicked mid-push")
            .push(span);
        out
    }

    /// Records an externally timed call (the serve client times requests
    /// itself).
    pub fn push(&self, layer: &'static str, op: usize, start: Instant, wall: Duration) {
        let span = Span {
            layer,
            op,
            start: start.saturating_duration_since(self.origin),
            wall,
            cpu: Duration::ZERO,
            counters: [0; 4],
        };
        self.spans
            .lock()
            .expect("span store poisoned: a recording thread panicked mid-push")
            .push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned: a recording thread panicked mid-push")
            .clone()
    }
}

/// Worker counts and deadline of a replay: the same ones the engine used.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Algorithm workers racing inside one portfolio.
    pub workers: usize,
    /// Embedding subtree workers (`0` = one per core).
    pub embed_jobs: usize,
    /// ESPRESSO recursion workers (`0` = one per core).
    pub espresso_jobs: usize,
    /// Per-portfolio wall deadline.
    pub timeout: Option<Duration>,
}

/// How one replayed algorithm ended.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// `done`, `unsolved`, `timeout`, `degraded` or `failed` (the engine's
    /// outcome tags).
    pub tag: &'static str,
    /// Area and encoding of a completed run.
    pub result: Option<(u64, Encoding)>,
    /// Total work charged by the run.
    pub work: u64,
}

/// Replays every algorithm of [`Algorithm::ALL`] on `fsm` under `cfg`, the
/// way `nova_engine::run_portfolio` schedules them: `cfg.workers` threads
/// claim algorithms in order and share one deadline.
pub fn replay_portfolio(fsm: &Fsm, op: usize, cfg: &ReplayConfig, rec: &Recorder) -> Vec<Replayed> {
    let deadline = cfg.timeout.map(|t| Instant::now() + t);
    let algos = Algorithm::ALL;
    let slots: Vec<Mutex<Option<Replayed>>> = algos.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..cfg.workers.clamp(1, algos.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= algos.len() {
                    break;
                }
                let r = replay_one(fsm, algos[i], deadline, cfg, rec, op);
                *slots[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every algorithm ran")
        })
        .collect()
}

fn replay_one(
    fsm: &Fsm,
    algorithm: Algorithm,
    deadline: Option<Instant>,
    cfg: &ReplayConfig,
    rec: &Recorder,
    op: usize,
) -> Replayed {
    let ctl = RunCtl::with_limits(None, deadline);
    let body = catch_unwind(AssertUnwindSafe(|| {
        pipeline(fsm, algorithm, cfg, &ctl, rec, op)
    }));
    let (tag, result) = match body {
        Ok(Ok(Some(r))) => ("done", Some(r)),
        Ok(Ok(None)) => ("unsolved", None),
        Ok(Err(Cancelled)) => {
            // The driver's anytime ladder: a valid best-so-far snapshot
            // turns a cancellation into a degraded result.
            let valid = ctl.take_best().is_some_and(|b| {
                b.codes.len() == fsm.num_states()
                    && b.bits <= 63
                    && Encoding::new(b.bits as usize, b.codes).is_ok()
            });
            (if valid { "degraded" } else { "timeout" }, None)
        }
        Err(_) => ("failed", None),
    };
    Replayed {
        algorithm,
        tag,
        result,
        work: ctl.counters().work,
    }
}

/// One algorithm through the layer calls, in `nova_core::driver`'s order.
fn pipeline(
    fsm: &Fsm,
    algorithm: Algorithm,
    cfg: &ReplayConfig,
    ctl: &RunCtl,
    rec: &Recorder,
    op: usize,
) -> Result<Option<(u64, Encoding)>, Cancelled> {
    let opts = HybridOptions {
        embed_jobs: cfg.embed_jobs,
        ..HybridOptions::default()
    };
    let constraints = || {
        rec.time("core.constraints", op, Some(ctl), || {
            extract_input_constraints_ctl(fsm, ctl)
        })
    };
    let symbolic = || {
        rec.time("core.symbolic_min", op, Some(ctl), || {
            symbolic_minimize_ctl(fsm, SymbolicMinOptions::default(), ctl)
        })
    };
    let enc = match algorithm {
        Algorithm::IExact => {
            let ics = constraints()?;
            let sets: Vec<_> = ics.constraints.iter().map(|c| c.set).collect();
            let ig = InputGraph::build(ics.num_states, &sets);
            let exact = ExactOptions {
                embed_jobs: cfg.embed_jobs,
                ..ExactOptions::default()
            };
            let embedding = rec.time("core.embed.iexact", op, Some(ctl), || {
                iexact_code_ctl(&ig, exact, ctl)
            })?;
            let Some(e) = embedding.filter(|e| e.bits <= 63) else {
                return Ok(None);
            };
            match Encoding::new(e.bits as usize, e.codes) {
                Ok(enc) => enc,
                Err(_) => return Ok(None),
            }
        }
        Algorithm::IHybrid => {
            let ics = constraints()?;
            rec.time("core.embed.ihybrid", op, Some(ctl), || {
                ihybrid_code_ctl(&ics, None, opts, ctl)
            })?
            .encoding
        }
        Algorithm::IGreedy => {
            let ics = constraints()?;
            rec.time("core.embed.igreedy", op, Some(ctl), || {
                igreedy_code_ctl(&ics, None, ctl)
            })?
            .encoding
        }
        Algorithm::IoHybrid => {
            let sym = symbolic()?;
            rec.time("core.embed.iohybrid", op, Some(ctl), || {
                iohybrid_code_ctl(&sym, None, opts, ctl)
            })?
            .hybrid
            .encoding
        }
        Algorithm::IoVariant => {
            let sym = symbolic()?;
            rec.time("core.embed.iovariant", op, Some(ctl), || {
                iovariant_code_ctl(&sym, None, opts, ctl)
            })?
            .hybrid
            .encoding
        }
        Algorithm::Kiss => {
            let ics = constraints()?;
            rec.time("core.embed.kiss", op, Some(ctl), || {
                kiss_code_ctl(&ics, opts, ctl)
            })?
            .encoding
        }
        Algorithm::MustangP | Algorithm::MustangN => {
            ctl.charge(1)?;
            let mode = if algorithm == Algorithm::MustangP {
                MustangMode::Fanout
            } else {
                MustangMode::Fanin
            };
            rec.time("core.embed.mustang", op, Some(ctl), || {
                mustang_code(fsm, mode)
            })
        }
        Algorithm::OneHot => {
            ctl.charge(1)?;
            if fsm.num_states() > 63 {
                return Ok(None);
            }
            Encoding::one_hot(fsm.num_states())
        }
    };
    ctl.offer_best(enc.bits() as u32, enc.codes(), algorithm.name(), u64::MAX);
    let pla = rec.time("fsm.encode", op, Some(ctl), || encode(fsm, &enc));
    let opts = MinimizeOptions {
        jobs: cfg.espresso_jobs,
        ..MinimizeOptions::default()
    };
    let (min, _) = rec.time("espresso.minimize", op, Some(ctl), || {
        minimize_with_ctl(&pla.on, &pla.dc, opts, ctl)
    })?;
    Ok(Some((pla.area_for(min.len()), enc)))
}

/// Outcome tag and completed area of each run of a portfolio report, in
/// algorithm order.
pub fn outcomes_of(rep: &PortfolioReport) -> Vec<(String, Option<u64>)> {
    rep.runs
        .iter()
        .map(|r| {
            (
                r.outcome.tag().to_string(),
                r.outcome.result().map(|e| e.area),
            )
        })
        .collect()
}

/// Where a replay and the engine run it mirrors disagree: a different
/// outcome tag, or a different area between two completed runs.
pub fn outcome_diffs(
    machine: &str,
    engine: &[(String, Option<u64>)],
    replayed: &[Replayed],
) -> Vec<String> {
    engine
        .iter()
        .zip(replayed)
        .filter_map(|((tag, area), re)| {
            let re_area = re.result.as_ref().map(|(a, _)| *a);
            (tag != re.tag || *area != re_area).then(|| {
                format!(
                    "{machine}/{}: engine {tag} {area:?}, replay {} {re_area:?}",
                    re.algorithm.name(),
                    re.tag,
                )
            })
        })
        .collect()
}

/// Sum of the engine's own stage times over every run of `reports`.
pub fn stage_total(reports: &[&PortfolioReport]) -> Duration {
    reports
        .iter()
        .flat_map(|r| &r.runs)
        .map(|r| r.stages.total())
        .sum()
}

const LAYER_CALLS: [&str; 11] = [
    "core.constraints",
    "core.symbolic_min",
    "core.embed.iexact",
    "core.embed.ihybrid",
    "core.embed.igreedy",
    "core.embed.iohybrid",
    "core.embed.iovariant",
    "core.embed.kiss",
    "core.embed.mustang",
    "fsm.encode",
    "espresso.minimize",
];

/// Sums the replay's spans into the `fsm.encode`, `core.*` and
/// `espresso.*` per-layer metrics, and compares the harness-timed layer
/// total with the engine's own stage times over the same machines
/// (`engine.layer_gap_ms`: `engine_stages` minus the harness's total).
pub fn layer_metrics(
    sheet: &mut Sheet,
    spans: &[Span],
    replayed: &[Vec<Replayed>],
    engine_stages: Duration,
) {
    let sum = |pred: &dyn Fn(&str) -> bool| {
        spans.iter().filter(|s| pred(s.layer)).fold(
            (Duration::ZERO, Duration::ZERO, [0u64; 4]),
            |(w, c, k), s| {
                (
                    w + s.wall,
                    c + s.cpu,
                    std::array::from_fn(|i| k[i] + s.counters[i]),
                )
            },
        )
    };
    let ratio = |a: Duration, b: Duration| {
        if b.is_zero() {
            0.0
        } else {
            a.as_secs_f64() / b.as_secs_f64()
        }
    };
    sheet.set("fsm.encode_ms", ms(sum(&|l| l == "fsm.encode").0));
    sheet.set(
        "core.constraints_ms",
        ms(sum(&|l| l == "core.constraints").0),
    );
    sheet.set(
        "core.symbolic_min_ms",
        ms(sum(&|l| l == "core.symbolic_min").0),
    );
    for (name, layer) in [
        ("core.embed_ms.iexact", "core.embed.iexact"),
        ("core.embed_ms.ihybrid", "core.embed.ihybrid"),
        ("core.embed_ms.igreedy", "core.embed.igreedy"),
        ("core.embed_ms.iohybrid", "core.embed.iohybrid"),
        ("core.embed_ms.iovariant", "core.embed.iovariant"),
        ("core.embed_ms.kiss", "core.embed.kiss"),
        ("core.embed_ms.mustang", "core.embed.mustang"),
    ] {
        sheet.set(name, ms(sum(&|l| l == layer).0));
    }
    let (ew, ec, ek) = sum(&|l| l.starts_with("core.embed."));
    sheet.set("core.embed_cpu_per_wall", ratio(ec, ew));
    sheet.set("core.embed.work", ek[0] as f64);
    let (mw, mc, mk) = sum(&|l| l == "espresso.minimize");
    sheet.set("espresso.minimize_ms", ms(mw));
    sheet.set("espresso.cpu_per_wall", ratio(mc, mw));
    sheet.set("espresso.iterations", mk[1] as f64);
    sheet.set("espresso.cubes_in", mk[2] as f64);
    sheet.set("espresso.cubes_out", mk[3] as f64);

    let iexact = replayed
        .iter()
        .flatten()
        .filter(|r| r.algorithm == Algorithm::IExact);
    let (wasted, total) = iexact.fold((0u64, 0u64), |(w, t), r| {
        (w + if r.result.is_none() { r.work } else { 0 }, t + r.work)
    });
    sheet.set(
        "core.iexact.unsolved_share",
        if total == 0 {
            0.0
        } else {
            wasted as f64 / total as f64
        },
    );

    let harness = sum(&|l| LAYER_CALLS.contains(&l)).0;
    sheet.set("engine.layer_gap_ms", ms(engine_stages) - ms(harness));
    sheet.set("trace.spans", spans.len() as f64);
}

/// Engine outcome tags and the per-layer metric counting each.
pub const OUTCOMES: [(&str, &str); 5] = [
    ("done", "engine.outcomes.done"),
    ("degraded", "engine.outcomes.degraded"),
    ("timeout", "engine.outcomes.timeout"),
    ("unsolved", "engine.outcomes.unsolved"),
    ("failed", "engine.outcomes.failed"),
];

/// The engine-layer metrics every workload reads from its untraced
/// portfolio reports: outcome counts, deadline overruns, and the gap between
/// each run's wall time and its stage times.
pub fn engine_metrics(sheet: &mut Sheet, reports: &[&PortfolioReport], timeout: Option<Duration>) {
    for (tag, name) in OUTCOMES {
        let n = reports
            .iter()
            .flat_map(|r| &r.runs)
            .filter(|r| r.outcome.tag() == tag)
            .count();
        sheet.set(name, n as f64);
    }
    let overruns: Vec<f64> = match timeout {
        Some(t) => reports
            .iter()
            .filter(|r| r.wall > t)
            .map(|r| ms(r.wall - t))
            .collect(),
        None => Vec::new(),
    };
    sheet.percentiles(&overruns, &[("engine.deadline_overrun_ms.p50", 0.5)]);
    sheet.set(
        "engine.deadline_overrun_ms.max",
        overruns.iter().copied().fold(0.0, f64::max),
    );
    let gap: Duration = reports
        .iter()
        .flat_map(|r| &r.runs)
        .map(|r| r.wall.saturating_sub(r.stages.total()))
        .sum();
    sheet.set("engine.stage_gap_ms", ms(gap));
}

/// Times `Fsm::parse_kiss` + `fsm::fingerprint` on each KISS text (the CPU
/// floor of a serve cache hit) and returns the per-body microseconds.
pub fn parse_fingerprint_us(rec: &Recorder, bodies: &[String]) -> Vec<f64> {
    bodies
        .iter()
        .enumerate()
        .map(|(op, kiss)| {
            let t = Instant::now();
            let m = Fsm::parse_kiss(kiss).expect("benchmark KISS text parses");
            std::hint::black_box(fsm::fingerprint(&m));
            let wall = t.elapsed();
            rec.push("fsm.parse_fingerprint", op, t, wall);
            wall.as_secs_f64() * 1e6
        })
        .collect()
}
