//! `serve`: an in-process `nova_serve::serve` (default `ServerConfig`,
//! loopback) under closed-loop load from one client connection per core.
//! The seeded mix is mostly repeats of a small hot set of suite machines
//! (cache hits) with about one request in ten a never-seen synthetic
//! machine (a miss: an engine run and a cache insert). It is the only
//! workload that exercises accept, admission, parsing and the cache.

use crate::replay::{self, Recorder, ReplayConfig, Replayed};
use crate::{check_winner, ms, quantile, shuffled, sys, Params, Sheet};
use fsm::generator::ScaleSpec;
use fsm::{Fsm, SplitMix64};
use nova_core::driver::{run_traced, Algorithm, RunStatus};
use nova_serve::client::{post_kiss, request};
use nova_serve::{serve, ServerConfig, ServerHandle};
use nova_trace::json::{self, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The hot set: five of the smallest suite machines, whose full default
/// portfolio finishes in milliseconds, so every entry is cacheable and
/// warming the set (part of `setup_s`) is cheap and steady.
pub const HOT: [&str; 5] = ["lion", "dk27", "dol", "bbtas", "shiftreg"];

/// Every `MISS_EVERY`-th request of the pass (at a seeded offset) is a
/// never-seen machine.
pub const MISS_EVERY: usize = 10;

/// The measured requests' query: a 50 ms per-request deadline, as a
/// latency-bound client would send. Hot-set hits are unaffected (the cache
/// key excludes the deadline); a miss whose portfolio runs past it answers
/// with the best result found so far, so the miss tail sits on the deadline
/// instead of on the slowest searches, and the engine's deadline path is
/// exercised.
pub const QUERY: &str = "timeout_ms=50";

/// The per-request deadline of [`QUERY`].
const DEADLINE: Duration = Duration::from_millis(50);

/// Set-up repetitions (server start plus hot-set warm-up); `setup_s` is
/// their median.
const SETUPS: usize = 9;

/// Misses replayed through the layer calls in the traced pass.
const REPLAYED_MISSES: usize = 12;

/// The never-seen machines: 10-state random-family machines from a fixed
/// corpus. At this size every miss's portfolio runs into the
/// [`QUERY`] deadline, so a miss costs the same CPU on a fast host as on a
/// slow one; 6-state misses mostly finished before it, and `cpu_per_wall`
/// then followed the host's speed from run to run. A run takes the first `MISS_POOL` of them in a seeded order
/// (then continues past the pool), so runs under different seeds see
/// nearly the same set of misses.
pub fn misses() -> ScaleSpec {
    ScaleSpec {
        machines: 1 << 20,
        states: 10,
        inputs: 3,
        outputs: 3,
        seed: 0x5e7e,
        prefix: "miss".into(),
        ..ScaleSpec::default()
    }
}

/// Misses drawn in seeded order before the run continues with fresh
/// machines; a 30 s pass on two cores uses about 400.
pub const MISS_POOL: usize = 512;

/// The run's supply of never-seen machines.
struct Misses {
    spec: ScaleSpec,
    order: Vec<usize>,
    next: AtomicUsize,
}

impl Misses {
    fn new(seed: u64) -> Misses {
        Misses {
            spec: misses(),
            order: shuffled(MISS_POOL, seed),
            next: AtomicUsize::new(0),
        }
    }

    /// The corpus index of the next miss.
    fn take(&self) -> usize {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.order.get(n).copied().unwrap_or(n)
    }
}

/// One client request.
struct Sample {
    /// Which machine: `Ok(hot-set index)` or `Err(miss corpus index)`.
    machine: Result<usize, usize>,
    start: Instant,
    latency: Duration,
    /// HTTP status, or 0 on an I/O error.
    status: u16,
    hit: bool,
    /// The body of a miss, kept for the gate.
    body: Option<String>,
}

struct Pass {
    samples: Vec<Sample>,
    wall: Duration,
    /// Process CPU per wall second: the median one-second window.
    cpu_per_wall: f64,
    failures: Vec<String>,
}

/// Runs the workload with the full hot set.
pub fn run(p: &Params) -> Sheet {
    run_on(p, &HOT)
}

/// Runs the workload with the suite machines in `hot` as the hot set.
pub fn run_on(p: &Params, hot: &[&str]) -> Sheet {
    let mut sheet = Sheet::default();
    let hot_kiss: Vec<String> = hot
        .iter()
        .map(|n| {
            let b = fsm::benchmarks::by_name(n).expect("hot-set machine is in the suite");
            b.fsm.to_kiss()
        })
        .collect();
    let misses = Misses::new(p.seed);
    let spec = &misses.spec;
    let clients = sys::nproc();

    // Set-up: start a server and warm the hot set (each warm-up request is
    // a miss whose body every later hit must reproduce byte for byte).
    let mut setups = Vec::new();
    let mut server: Option<(ServerHandle, Vec<String>)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = server.take() {
            old.shutdown();
            old.join();
        }
        let t = Instant::now();
        let handle = serve(ServerConfig::default()).expect("the server binds a loopback port");
        let addr = handle.addr().to_string();
        let mut bodies = Vec::new();
        for kiss in &hot_kiss {
            match post_kiss(&addr, kiss, "") {
                Ok(r) if r.status == 200 && !r.cache_hit() => bodies.push(r.body),
                Ok(r) => panic!(
                    "warming the hot set: status {}, hit {}",
                    r.status,
                    r.cache_hit()
                ),
                Err(e) => panic!("warming the hot set: {e}"),
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        server = Some((handle, bodies));
    }
    sheet.set("setup_s", quantile(&setups, 0.5));
    let (handle, hot_bodies) = server.expect("at least one set-up ran");
    let addr = handle.addr().to_string();

    let load = |seed: u64, rec: Option<&Recorder>| {
        closed_loop(
            &addr,
            &hot_kiss,
            &hot_bodies,
            &misses,
            seed,
            clients,
            p.seconds,
            rec,
        )
    };

    // The untraced pass.
    let before = scrape(&addr);
    let pass = load(p.seed, None);
    let after = scrape(&addr);
    let ok = pass.samples.iter().filter(|s| s.status == 200).count() as f64;
    let lat: Vec<f64> = pass.samples.iter().map(|s| ms(s.latency)).collect();
    sheet.set("rps", ok / pass.wall.as_secs_f64());
    sheet.set("machines_per_s", ok / pass.wall.as_secs_f64());
    sheet.percentiles(&lat, &[("latency_ms.p50", 0.5), ("latency_ms.p99", 0.99)]);
    sheet.percentiles(
        &lat,
        &[("portfolio_ms.p50", 0.5), ("portfolio_ms.p70", 0.7)],
    );
    sheet.set("cpu_per_wall", pass.cpu_per_wall);
    sheet.note("clients", clients);
    sheet.note("query", QUERY);
    sheet.note(
        "misses",
        pass.samples.iter().filter(|s| s.machine.is_err()).count(),
    );
    sheet.note("server.engine_runs", after.engine_runs - before.engine_runs);
    sheet.note(
        "server.request_ms.p50",
        after.latency.since(&before.latency).quantile(0.5) / 1e3,
    );

    // The gate, outside the timed region: every hit was compared with its
    // warm-up body as it arrived; the warm-up and miss winners are
    // re-derived and checked here.
    let hot_summaries: Vec<Summary> = hot_bodies.iter().map(|b| summary(b)).collect();
    let mut failures = pass.failures;
    for (i, (kiss, s)) in hot_kiss.iter().zip(&hot_summaries).enumerate() {
        if s.best.is_none() {
            failures.push(format!("hot-set machine {i} has no completed winner"));
        } else if let Err(e) = check_summary(kiss, s, p.seed ^ i as u64) {
            failures.push(e);
        }
    }
    let mut solved = 0usize;
    for s in pass.samples.iter().filter(|s| s.status == 200) {
        match (&s.machine, &s.body) {
            (Ok(h), _) => solved += usize::from(hot_summaries[*h].best.is_some()),
            (Err(idx), Some(body)) => {
                let sum = summary(body);
                solved += usize::from(sum.best.is_some());
                let kiss = spec.machine(*idx).to_kiss();
                if let Err(e) = check_summary(&kiss, &sum, p.seed ^ *idx as u64) {
                    failures.push(e);
                }
            }
            (Err(_), None) => {}
        }
    }
    sheet.set("solved_share", solved as f64 / ok.max(1.0));
    sheet.set(
        "area_total",
        hot_summaries
            .iter()
            .filter_map(|s| s.best.as_ref().map(|b| b.1))
            .sum::<u64>() as f64,
    );
    sheet.attempted = pass.samples.len() as u64;
    for f in failures {
        sheet.fail(f);
    }

    if p.trace {
        traced_pass(
            &mut sheet,
            p,
            &load,
            spec,
            &hot_kiss,
            &addr,
            (pass.wall, ok),
        );
    }

    handle.shutdown();
    handle.join();
    sheet
}

/// The traced pass: the same load again with client spans and
/// parse/fingerprint sampling, the server's own counters reconciled with
/// the client's, and the first misses replayed through the layer calls.
fn traced_pass(
    sheet: &mut Sheet,
    p: &Params,
    load: &dyn Fn(u64, Option<&Recorder>) -> Pass,
    spec: &ScaleSpec,
    hot_kiss: &[String],
    addr: &str,
    (untraced_wall, untraced_ok): (Duration, f64),
) {
    let rec = Recorder::default();
    let before = scrape(addr);
    let pass = load(p.seed, Some(&rec));
    let after = scrape(addr);
    let ok = pass.samples.iter().filter(|s| s.status == 200).count() as f64;
    let traced_rps = ok / pass.wall.as_secs_f64();
    sheet.set(
        "trace.overhead_share",
        (untraced_ok / untraced_wall.as_secs_f64()) / traced_rps - 1.0,
    );

    let by = |hit: bool| -> Vec<f64> {
        pass.samples
            .iter()
            .filter(|s| s.status == 200 && s.hit == hit)
            .map(|s| ms(s.latency))
            .collect()
    };
    let (hits, misses) = (by(true), by(false));
    sheet.percentiles(
        &hits,
        &[("serve.hit_ms.p50", 0.5), ("serve.hit_ms.p99", 0.99)],
    );
    sheet.percentiles(
        &misses,
        &[("serve.miss_ms.p50", 0.5), ("serve.miss_ms.p99", 0.99)],
    );
    let server = after.latency.since(&before.latency);
    let server_p50 = server.quantile(0.5) / 1e3;
    sheet.set("serve.server_ms.p50", server_p50);
    sheet.note("samples.serve.server_ms.p50", server.count());
    sheet.set("serve.accept_gap_ms.p50", quantile(&hits, 0.5) - server_p50);
    let (dh, dm) = (after.hits - before.hits, after.misses - before.misses);
    sheet.set("serve.cache.hit_share", dh as f64 / (dh + dm).max(1) as f64);
    let runs = after.engine_runs - before.engine_runs;
    sheet.set("serve.engine_runs", runs as f64);
    let client_misses = pass.samples.iter().filter(|s| s.machine.is_err()).count();
    sheet.note("serve.client_misses", client_misses);
    if runs as usize != client_misses {
        sheet.note(
            "serve.reconcile",
            format!("server engine runs {runs} != client misses {client_misses}"),
        );
    }
    sheet.set(
        "serve.status.503",
        pass.samples.iter().filter(|s| s.status == 503).count() as f64,
    );

    // Engine facts come from the miss bodies: outcome tags, run walls and
    // stage times as the engine reported them.
    let miss_bodies: Vec<(usize, Json)> = pass
        .samples
        .iter()
        .filter_map(|s| match (&s.machine, &s.body) {
            (Err(i), Some(b)) => json::parse(b).ok().map(|j| (*i, j)),
            _ => None,
        })
        .collect();
    let runs_of = |j: &Json| -> Vec<Json> {
        match j.get("machines").and_then(|m| match m {
            Json::Arr(a) => a.first().and_then(|m| m.get("runs")).cloned(),
            _ => None,
        }) {
            Some(Json::Arr(r)) => r,
            _ => Vec::new(),
        }
    };
    let num = |j: Option<&Json>| match j {
        Some(Json::Float(f)) => *f,
        Some(Json::Int(i)) => *i as f64,
        _ => 0.0,
    };
    for (tag, name) in replay::OUTCOMES {
        let n = miss_bodies
            .iter()
            .flat_map(|(_, j)| runs_of(j))
            .filter(|r| r.get("outcome") == Some(&Json::str(tag)))
            .count();
        sheet.set(name, n as f64);
    }
    let stages = |r: &Json| -> f64 {
        match r.get("stages_ms") {
            Some(Json::Obj(kv)) => kv.iter().map(|(_, v)| num(Some(v))).sum(),
            _ => 0.0,
        }
    };
    let stage_gap: f64 = miss_bodies
        .iter()
        .flat_map(|(_, j)| runs_of(j))
        .map(|r| (num(r.get("wall_ms")) - stages(&r)).max(0.0))
        .sum();
    sheet.set("engine.stage_gap_ms", stage_gap);
    let overruns: Vec<f64> = miss_bodies
        .iter()
        .filter_map(|(_, j)| match j.get("machines") {
            Some(Json::Arr(a)) => a.first().map(|m| num(m.get("wall_ms")) - ms(DEADLINE)),
            _ => None,
        })
        .filter(|o| *o > 0.0)
        .collect();
    sheet.percentiles(&overruns, &[("engine.deadline_overrun_ms.p50", 0.5)]);
    sheet.set(
        "engine.deadline_overrun_ms.max",
        overruns.iter().copied().fold(0.0, f64::max),
    );
    let busy: f64 = pass.samples.iter().map(|s| ms(s.latency)).sum();
    let clients = sys::nproc() as f64;
    sheet.set("engine.batch.busy_share", busy / (clients * ms(pass.wall)));
    let mut done: Vec<Instant> = pass.samples.iter().map(|s| s.start + s.latency).collect();
    done.sort();
    let gaps: Vec<f64> = done.windows(2).map(|w| ms(w[1] - w[0])).collect();
    sheet.percentiles(
        &gaps,
        &[
            ("engine.batch.emit_gap_ms.p50", 0.5),
            ("engine.batch.emit_gap_ms.p99", 0.99),
        ],
    );

    // fsm: generating the pass's misses, and parse + fingerprint of every
    // request body (the CPU floor of a hit).
    let t = Instant::now();
    for (i, _) in &miss_bodies {
        std::hint::black_box(spec.machine(*i));
    }
    sheet.set("fsm.generate_ms", ms(t.elapsed()));
    let bodies: Vec<String> = miss_bodies
        .iter()
        .map(|(i, _)| spec.machine(*i).to_kiss())
        .chain(hot_kiss.iter().cloned())
        .collect();
    let pf = replay::parse_fingerprint_us(&rec, &bodies);
    sheet.percentiles(&pf, &[("fsm.parse_fingerprint_us.p50", 0.5)]);

    // core / espresso: the first misses through the layer calls, under the
    // configuration the server's engine runs (default `EngineConfig` plus
    // the request's deadline).
    let rcfg = ReplayConfig {
        workers: sys::nproc(),
        embed_jobs: 0,
        espresso_jobs: 0,
        timeout: Some(DEADLINE),
    };
    let mut replayed: Vec<Vec<Replayed>> = Vec::new();
    let mut diffs = Vec::new();
    let mut engine_stages = 0.0;
    for (i, j) in miss_bodies.iter().take(REPLAYED_MISSES) {
        let m = Fsm::parse_kiss_named("request", &spec.machine(*i).to_kiss())
            .expect("generated machines round-trip through KISS");
        let re = replay::replay_portfolio(&m, *i, &rcfg, &rec);
        let runs = runs_of(j);
        engine_stages += runs.iter().map(stages).sum::<f64>();
        let engine: Vec<(String, Option<u64>)> = runs
            .iter()
            .map(|r| {
                let tag = match r.get("outcome") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                let area = match r.get("area") {
                    Some(Json::Int(a)) => Some(*a as u64),
                    _ => None,
                };
                (tag, area)
            })
            .collect();
        diffs.extend(replay::outcome_diffs(&spec.name(*i), &engine, &re));
        replayed.push(re);
    }
    sheet.set("trace.outcome_diffs", diffs.len() as f64);
    for d in diffs {
        sheet.note("trace.diff", d);
    }
    replay::layer_metrics(
        sheet,
        &rec.spans(),
        &replayed,
        Duration::from_secs_f64(engine_stages / 1e3),
    );
    sheet.note("samples.replayed_misses", replayed.len());
    sheet.attempted += pass.samples.len() as u64;
    for f in pass.failures {
        sheet.fail(f);
    }
}

/// `nproc` closed-loop clients for `seconds`: each sends its next request
/// only after the previous one completed. The clients share one seeded
/// request sequence: request `k` is a miss when `k % MISS_EVERY` equals a
/// seeded offset, so misses are spread evenly over time rather than
/// bunched on one client, and otherwise a seeded pick from the hot set.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: &str,
    hot_kiss: &[String],
    hot_bodies: &[String],
    misses: &Misses,
    seed: u64,
    clients: usize,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Pass {
    let out = Mutex::new((Vec::new(), Vec::new()));
    let next_request = AtomicUsize::new(0);
    let offset = SplitMix64::new(seed).below(MISS_EVERY);
    let cpu = sys::CpuMeter::start();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            let (out, next_request) = (&out, &next_request);
            s.spawn(move || {
                let mut samples = Vec::new();
                let mut failures = Vec::new();
                while t0.elapsed().as_secs_f64() < seconds {
                    let k = next_request.fetch_add(1, Ordering::Relaxed);
                    let machine = if k % MISS_EVERY == offset {
                        Err(misses.take())
                    } else {
                        Ok(SplitMix64::new(fsm::rng::mix(seed, k as u64)).below(hot_kiss.len()))
                    };
                    let kiss = match machine {
                        Ok(h) => hot_kiss[h].clone(),
                        Err(i) => misses.spec.machine(i).to_kiss(),
                    };
                    let start = Instant::now();
                    let resp = post_kiss(addr, &kiss, QUERY);
                    let latency = start.elapsed();
                    if let Some(rec) = rec {
                        let op = match machine {
                            Ok(h) => h,
                            Err(i) => hot_kiss.len() + i,
                        };
                        rec.push("serve.request", op, start, latency);
                    }
                    let (status, hit, body) = match resp {
                        Ok(r) => {
                            let hit = r.cache_hit();
                            match machine {
                                Ok(h) if r.status == 200 && r.body != hot_bodies[h] => failures
                                    .push(format!(
                                        "hit body for hot machine {h} differs from its miss body"
                                    )),
                                Ok(h) if r.status == 200 && !hit => {
                                    failures.push(format!("hot machine {h} missed the cache"))
                                }
                                Err(i) if hit => {
                                    failures.push(format!("never-seen machine {i} hit the cache"))
                                }
                                _ => {}
                            }
                            if r.status != 200 {
                                failures.push(format!("status {}", r.status));
                            }
                            let body = machine.is_err().then_some(r.body);
                            (r.status, hit, body)
                        }
                        Err(e) => {
                            failures.push(format!("request failed: {e}"));
                            (0, false, None)
                        }
                    };
                    samples.push(Sample {
                        machine,
                        start,
                        latency,
                        status,
                        hit,
                        body,
                    });
                }
                let mut o = out.lock().expect("client results poisoned");
                o.0.extend(samples);
                o.1.extend(failures);
            });
        }
    });
    let wall = t0.elapsed();
    let cpu_per_wall = cpu.finish();
    let (samples, failures) = out.into_inner().expect("client results poisoned");
    Pass {
        samples,
        wall,
        cpu_per_wall,
        failures,
    }
}

/// The winner a response reports: algorithm and area.
struct Summary {
    machine: String,
    best: Option<(Algorithm, u64)>,
}

fn summary(body: &str) -> Summary {
    let j = json::parse(body).unwrap_or(Json::Null);
    let m = match j.get("machines") {
        Some(Json::Arr(a)) => a.first().cloned().unwrap_or(Json::Null),
        _ => Json::Null,
    };
    let machine = match m.get("machine") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let best = match (m.get("best"), m.get("area")) {
        (Some(Json::Str(a)), Some(Json::Int(area))) => {
            a.parse::<Algorithm>().ok().map(|a| (a, *area as u64))
        }
        _ => None,
    };
    Summary { machine, best }
}

/// The serve gate: the responses carry the winner's algorithm and area but
/// not its codes, so the winner is re-derived by running that algorithm
/// again without a deadline (a run that completed is not affected by one),
/// and must match the reported area before it is checked. The machine is
/// the request body parsed the way the server parses it, so state numbering
/// matches the server's. A response without a completed winner (the
/// deadline cut every run) has nothing to check.
fn check_summary(kiss: &str, s: &Summary, seed: u64) -> Result<(), String> {
    let Some((alg, area)) = s.best else {
        return Ok(());
    };
    let m = &Fsm::parse_kiss_named("request", kiss)
        .map_err(|e| format!("{}: request body does not parse: {e}", s.machine))?;
    match run_traced(m, alg, None, &espresso::RunCtl::unlimited()).status {
        RunStatus::Done(r) if r.area == area => check_winner(m, &r.encoding, area, seed),
        RunStatus::Done(r) => Err(format!(
            "{}: response area {area}, {alg} reproduces {}",
            s.machine, r.area
        )),
        _ => Err(format!("{}: {alg} does not reproduce a result", s.machine)),
    }
}

/// The server's own view: `/counters` and the `/metrics` request-latency
/// histogram, fetched through the client.
struct Scrape {
    hits: u64,
    misses: u64,
    engine_runs: u64,
    latency: Buckets,
}

fn scrape(addr: &str) -> Scrape {
    let get = |path: &str| {
        request(addr, "GET", path, None, &[])
            .map(|r| r.body)
            .unwrap_or_default()
    };
    let counters = json::parse(&get("/counters")).unwrap_or(Json::Null);
    let count = |section: &str, key: &str| match counters.get(section).and_then(|s| s.get(key)) {
        Some(Json::Int(v)) => *v as u64,
        _ => 0,
    };
    Scrape {
        hits: count("cache", "hits"),
        misses: count("cache", "misses"),
        engine_runs: count("engine", "runs"),
        latency: Buckets::parse(&get("/metrics"), "nova_serve_request_latency_us"),
    }
}

/// A cumulative Prometheus histogram: `(upper bound, cumulative count)`.
#[derive(Debug, Clone, Default)]
pub struct Buckets(Vec<(f64, u64)>);

impl Buckets {
    /// The `{name}_bucket` series of a text exposition.
    pub fn parse(text: &str, name: &str) -> Buckets {
        let prefix = format!("{name}_bucket{{le=\"");
        Buckets(
            text.lines()
                .filter_map(|l| l.strip_prefix(prefix.as_str()))
                .filter_map(|rest| {
                    let (le, count) = rest.split_once("\"} ")?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().ok()?
                    };
                    Some((le, count.trim().parse().ok()?))
                })
                .collect(),
        )
    }

    /// The observations added since `earlier`.
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .map(|&(le, c)| {
                    let before = earlier.0.iter().find(|b| b.0 == le).map_or(0, |b| b.1);
                    (le, c.saturating_sub(before))
                })
                .collect(),
        )
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.last().map_or(0, |b| b.1)
    }

    /// The `q`-quantile, interpolated linearly by rank inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q * total as f64;
        let mut lower = 0.0;
        let mut below = 0u64;
        for &(le, cum) in &self.0 {
            if cum as f64 >= rank && cum > below {
                let upper = if le.is_finite() { le } else { lower };
                let frac = (rank - below as f64) / (cum - below) as f64;
                return lower + (upper - lower) * frac;
            }
            if le.is_finite() {
                lower = le + 1.0;
            }
            below = cum;
        }
        lower
    }
}
