//! The repository benchmark: three workloads (`mcnc`, `synth`, `serve`)
//! that drive the library crates through their public functions, an
//! untraced pass that yields the end-to-end metrics, and a traced pass that
//! wraps the harness's own spans around the calls into each layer.
//!
//! See `README.md` next to this crate for why each workload exists, which
//! layer it loads and which it bypasses, and the per-layer → end-to-end
//! prediction table.

pub mod mcnc;
pub mod replay;
pub mod serve;
pub mod synth;
pub mod sys;

use fsm::encode::encode;
use fsm::simulate::check_sequence;
use fsm::{Encoding, Fsm, SplitMix64, StateId};
use nova_trace::json::Json;
use std::time::Duration;

/// Every end-to-end metric with its unit, in report order. Each workload
/// reports all of them (`--trace 0`).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("machines_per_s", "1/s"),
    ("portfolio_ms.p50", "ms"),
    ("portfolio_ms.p70", "ms"),
    ("solved_share", "ratio"),
    ("area_total", "pla_area"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("rps", "1/s"),
    ("cpu_per_wall", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Failed operations over attempted ones. Printed with the end-to-end
/// table but not part of the JSON metrics: it is 0 on a correct run, and
/// the final line already carries `failed` and `attempted`.
pub const FAIL_SHARE: (&str, &str) = ("fail_share", "ratio");

/// Every per-layer metric with its unit (`--trace 1`). A workload that does
/// not exercise a layer reports 0 for it; see `README.md`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("fsm.generate_ms", "ms"),
    ("fsm.parse_fingerprint_us.p50", "us"),
    ("fsm.encode_ms", "ms"),
    ("core.constraints_ms", "ms"),
    ("core.symbolic_min_ms", "ms"),
    ("core.embed_ms.iexact", "ms"),
    ("core.embed_ms.ihybrid", "ms"),
    ("core.embed_ms.igreedy", "ms"),
    ("core.embed_ms.iohybrid", "ms"),
    ("core.embed_ms.iovariant", "ms"),
    ("core.embed_ms.kiss", "ms"),
    ("core.embed_ms.mustang", "ms"),
    ("core.embed_cpu_per_wall", "ratio"),
    ("core.embed.work", "count"),
    ("core.iexact.unsolved_share", "ratio"),
    ("espresso.minimize_ms", "ms"),
    ("espresso.cpu_per_wall", "ratio"),
    ("espresso.iterations", "count"),
    ("espresso.cubes_in", "count"),
    ("espresso.cubes_out", "count"),
    ("engine.outcomes.done", "count"),
    ("engine.outcomes.degraded", "count"),
    ("engine.outcomes.timeout", "count"),
    ("engine.outcomes.unsolved", "count"),
    ("engine.outcomes.failed", "count"),
    ("engine.deadline_overrun_ms.p50", "ms"),
    ("engine.deadline_overrun_ms.max", "ms"),
    ("engine.stage_gap_ms", "ms"),
    ("engine.layer_gap_ms", "ms"),
    ("engine.batch.busy_share", "ratio"),
    ("engine.batch.emit_gap_ms.p50", "ms"),
    ("engine.batch.emit_gap_ms.p99", "ms"),
    ("serve.hit_ms.p50", "ms"),
    ("serve.hit_ms.p99", "ms"),
    ("serve.miss_ms.p50", "ms"),
    ("serve.miss_ms.p99", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.accept_gap_ms.p50", "ms"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.engine_runs", "count"),
    ("serve.status.503", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.outcome_diffs", "count"),
    ("trace.spans", "count"),
];

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How much work the untraced pass measures: seconds of load on
    /// `serve`, whole sweeps in proportion on `mcnc` and `synth`.
    pub seconds: f64,
    /// `false`: the untraced pass and the end-to-end metrics; `true`: the
    /// untraced pass plus the traced pass and the per-layer metrics.
    pub trace: bool,
}

/// The outcome of one workload run: the counts for the final line, the
/// metric values by name, and the sample count behind every percentile.
#[derive(Debug, Default)]
pub struct Sheet {
    /// Operations attempted (machines, or requests on `serve`).
    pub attempted: u64,
    /// Operations that failed: wrong encodings, `Failed` outcomes,
    /// non-200 responses, I/O errors and non-identical cache hits.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Samples behind each percentile metric, and other run facts for the
    /// environment stamp.
    pub stamp: Vec<(String, String)>,
}

impl Sheet {
    /// Sets metric `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a stamp entry (sample counts, settings).
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.stamp.push((key.into(), value.to_string()));
    }

    /// Reports 0 for every per-layer metric under `prefix`: the layer is not
    /// exercised by this workload.
    pub fn absent(&mut self, prefix: &str) {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.set(name, 0.0);
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Sets the `p`-quantiles of `samples` under the given names and stamps
    /// the sample count behind them.
    pub fn percentiles(&mut self, samples: &[f64], names: &[(&'static str, f64)]) {
        for &(name, q) in names {
            self.set(name, quantile(samples, q));
            self.note(format!("samples.{name}"), samples.len());
        }
    }
}

/// Runs `workload` (`mcnc`, `synth` or `serve`) under `p`.
///
/// # Panics
///
/// On an unknown workload name; the command line validates it first.
pub fn run(workload: &str, p: &Params) -> Sheet {
    let mut sheet = match workload {
        "mcnc" => mcnc::run(p),
        "synth" => synth::run(p),
        "serve" => serve::run(p),
        other => panic!("unknown workload {other:?}"),
    };
    sheet.set("peak_rss_mb", sys::peak_rss_mb());
    sheet
}

/// The declared metrics of a run: every end-to-end metric untraced, every
/// per-layer metric traced, as `(name, value, unit)`.
///
/// # Panics
///
/// If the workload did not report one of them (a harness bug).
pub fn declared(sheet: &Sheet, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    names
        .iter()
        .map(|&(name, unit)| {
            let value = sheet
                .get(name)
                .unwrap_or_else(|| panic!("the workload did not report {name}"));
            (name, value, unit)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(sheet: &Sheet, trace: bool) -> Json {
    let failed = sheet.failures.len() as u64;
    let metrics = declared(sheet, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::uint(sheet.attempted)),
        ("failed".into(), Json::uint(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// One sweep over a workload's machines: its wall time and, per machine,
/// the time to result and the winning area (`None` when nothing completed).
#[derive(Debug, Default)]
pub struct Sweep {
    /// Wall time of the sweep.
    pub wall: Duration,
    /// Per-machine time to result, in milliseconds.
    pub times_ms: Vec<f64>,
    /// Per-machine winning area.
    pub areas: Vec<Option<u64>>,
}

/// Sets the sweep metrics of `mcnc` and `synth`. Throughput, solved share
/// and area are computed per sweep and reported as the median over the
/// run's sweeps; the time-to-result percentiles are taken over the
/// machines, each machine's time being its median over the sweeps. Either
/// way outside load during one sweep moves them little. Every sweep visits
/// the same machines in the same order.
pub fn sweep_metrics(sheet: &mut Sheet, sweeps: &[Sweep]) {
    let median =
        |f: &dyn Fn(&Sweep) -> f64| quantile(&sweeps.iter().map(f).collect::<Vec<_>>(), 0.5);
    let per_s = median(&|s| s.times_ms.len() as f64 / s.wall.as_secs_f64());
    sheet.set("machines_per_s", per_s);
    sheet.set("rps", per_s);
    let machines = sweeps.first().map_or(0, |s| s.times_ms.len());
    let times: Vec<f64> = (0..machines).map(|i| median(&|s| s.times_ms[i])).collect();
    sheet.percentiles(
        &times,
        &[("portfolio_ms.p50", 0.5), ("portfolio_ms.p70", 0.7)],
    );
    sheet.percentiles(&times, &[("latency_ms.p50", 0.5), ("latency_ms.p99", 0.99)]);
    sheet.set(
        "solved_share",
        median(&|s| s.areas.iter().flatten().count() as f64 / s.areas.len().max(1) as f64),
    );
    sheet.set(
        "area_total",
        median(&|s| s.areas.iter().flatten().sum::<u64>() as f64),
    );
    sheet.note("sweeps", sweeps.len());
}

/// The `q`-quantile (`0..=1`) of `samples` by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A seeded shuffle of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// A portfolio run that panicked is a failed operation.
pub fn failed_run(rep: &nova_engine::PortfolioReport) -> Result<(), String> {
    match rep.runs.iter().find_map(|r| match &r.outcome {
        nova_engine::Outcome::Failed(m) => Some(m),
        _ => None,
    }) {
        Some(m) => Err(format!("{}: a run failed: {m}", rep.machine)),
        None => Ok(()),
    }
}

/// The correctness gate for one winning encoding: re-encode and
/// re-minimize it, simulate the result against the symbolic table along
/// seeded input walks from several start states, and recompute its area
/// with the paper's formula. `reported_area` is what the system under test
/// said the winner costs.
pub fn check_winner(
    fsm: &Fsm,
    enc: &Encoding,
    reported_area: u64,
    seed: u64,
) -> Result<(), String> {
    if enc.len() != fsm.num_states() {
        return Err(format!(
            "{}: {} codes for {} states",
            fsm.name(),
            enc.len(),
            fsm.num_states()
        ));
    }
    let mut pla = encode(fsm, enc);
    pla.on = espresso::minimize(&pla.on, &pla.dc);
    let area = fsm::area::pla_area(
        fsm.num_inputs(),
        enc.bits(),
        fsm.num_outputs(),
        pla.on.len(),
    );
    if area != reported_area {
        return Err(format!(
            "{}: reported area {reported_area}, recomputed {area}",
            fsm.name()
        ));
    }
    let mut rng = SplitMix64::new(seed);
    let starts = fsm.num_states().min(8);
    for s in 0..starts {
        let walk: Vec<Vec<bool>> = (0..48)
            .map(|_| (0..fsm.num_inputs()).map(|_| rng.chance(1, 2)).collect())
            .collect();
        check_sequence(fsm, enc, &pla, StateId(s), &walk)
            .map_err(|e| format!("{}: walk from state {s}: {e}", fsm.name()))?;
    }
    Ok(())
}
