//! `nova` — command-line state assignment, mirroring the original tool's
//! usage: read a KISS2 state transition table, encode the states, print the
//! encoding, statistics, and (optionally) the minimized encoded PLA.
//!
//! ```text
//! nova [-e ALG] [-b BITS] [-m] [-p] [-s] [--json] [--trace FILE] [FILE.kiss2 | -]
//! nova --portfolio [--timeout-ms N] [--budget N] [--jobs N] [--json] [--trace FILE] [FILE.kiss2 | -]
//! nova --portfolio --batch [--filter A,B] [--batch-jobs N] [--timeout-ms N] [--budget N] [--jobs N] [--json] [--bench-out FILE]
//! nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|-] [--journal FILE [--resume]] [--retries N] [--watchdog-ms N] [--bench-out FILE] [--timeout-ms N] [--budget N] [--fault-plan SPEC]
//! nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]
//! nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]
//! nova --remote HOST:PORT [-e ALG | --portfolio] [-b BITS] [--budget N] [--timeout-ms N] [FILE.kiss2 | -]
//!
//!   -e ALG         encoding algorithm (default ihybrid)
//!   -b BITS        target code length (default: minimum)
//!   -m             state-minimize the machine first
//!   -p             print the minimized encoded PLA
//!   -s             print machine statistics only
//!   --json         emit the run report as JSON instead of text
//!   --portfolio    race all algorithms concurrently, keep the best area
//!   --batch        sweep the embedded benchmark suite (portfolio mode);
//!                  the same sweep as `nova bench --filter`, printing each
//!                  machine's portfolio as it completes
//!   --timeout-ms   wall-clock deadline for the whole portfolio
//!   --budget N     deterministic node budget per algorithm
//!   --jobs N       algorithm workers racing in one portfolio (default:
//!                  available parallelism); each algorithm run embeds and
//!                  minimizes on its own worker thread
//!   --trace FILE   write a structured trace of the run to FILE
//!   --trace-format chrome (default; open in Perfetto / chrome://tracing)
//!                  or jsonl (one event per line, schema nova-trace/1)
//!   --bench NAME   run on the embedded benchmark NAME instead of a file
//!   --bench-out F  --batch: where to write the machine-readable bench
//!                  report (default BENCH_portfolio.json)
//!   --filter A,B   --batch: sweep only the named machines (comma-separated)
//!   --batch-jobs N --batch: machines swept in parallel (as in `bench`)
//!   --fault-plan S arm a deterministic nova-chaos fault plan on every run:
//!                  "STAGE:NTH:KIND[,...]" (KIND: cancel|deadline|budget|
//!                  panic; STAGE "*" = any) or "seed:N" for a derived plan
//!   --remote A     send the machine to a resident `nova serve` at A
//!                  instead of encoding in-process; prints the service's
//!                  nova-bench/1 JSON response
//!
//!   bench          sweep a corpus through the sharded batch engine:
//!   --synthetic S  sweep a generated scale corpus instead of the embedded
//!                  suite; S is a comma-separated ScaleSpec, e.g.
//!                  "machines=1000,states=16,inputs=4,outputs=4,seed=7"
//!                  (keys: machines states inputs outputs density reducible
//!                  family=random|kstage seed prefix)
//!   --batch-jobs N worker threads sweeping machines (0 = one per core;
//!                  default 1). Report content is identical at any count.
//!   --stream F     write the sweep as nova-bench-stream/1 JSONL to F
//!                  ("-" = stdout): one line per machine as it completes
//!                  plus a summary (solved/degraded/unresolved, wall_ms,
//!                  machines/sec) — constant memory, use this for large
//!                  corpora
//!   --journal F    append a crash-safe completion journal (nova-journal/1,
//!                  fsync'd in batches) alongside --stream; implies the
//!                  deterministic stream form (no wall-clock fields) so a
//!                  killed sweep can be resumed byte-identically. Must be a
//!                  real file distinct from the stream path.
//!   --resume       replay an existing --journal: already-completed
//!                  machines are skipped and their recorded lines merged
//!                  into the stream at their original positions; the merged
//!                  output is byte-identical to an uninterrupted run. The
//!                  journal must match this invocation's corpus and options.
//!   --retries N    supervised retry budget per machine before quarantine
//!                  (default 2); retries use deterministic seeded backoff
//!   --watchdog-ms N  wall-clock watchdog per machine attempt: at N ms the
//!                  run is cooperatively cancelled (keeping its degraded
//!                  best-so-far), at 2N ms it is quarantined. A sweep with
//!                  quarantined machines still completes and exits 0; they
//!                  are listed in the stream summary's quarantine section.
//!   (--bench-out, --filter, --timeout-ms, --budget, --jobs, --fault-plan
//!    as in --portfolio --batch; --bench-out accumulates nova-bench/1 in
//!    memory, so prefer --stream at scale.
//!    Output files are created up front: an unwritable path fails fast
//!    with exit 4 before any machine runs.)
//!
//!   serve          run the resident encoding service (see nova-serve):
//!   --addr A       bind address (default 127.0.0.1:7171; port 0 = any)
//!   --workers N    request workers (default: available parallelism)
//!   --cache-entries N  result-cache entry bound (default 4096)
//!   --cache-bytes N    result-cache byte bound (default 64 MiB)
//!   --queue-depth N    admission queue bound; beyond it requests get 503
//!                      (default 64)
//!   --trace-dir DIR    write one nova-trace/1 JSONL per /encode request
//!                      into DIR (req-<request id>.jsonl)
//!
//!   trace-report   analyze a nova-trace/1 JSONL trace offline: span tree
//!                  with total/self wall time, per-stage aggregation,
//!                  counter totals, and histogram quantiles
//!   --diff FILE2   compare per-stage totals against FILE2 — either a
//!                  second nova-trace/1 trace or a committed nova-bench/1
//!                  report (BENCH_*.json); exits 1 when any stage slowed
//!                  beyond the threshold
//!   --threshold P  slowdown tolerance for --diff, in percent (default 25)
//! ```
//!
//! Reads stdin when no file is given or the file is `-`.
//!
//! Exit codes: 0 success (including a degraded anytime result), 1 no result
//! (unsolved / timeout / failed / server overloaded), 2 usage error, 3 KISS2
//! parse error (or request the server rejected), 4 I/O error (or server
//! unreachable), 5 unknown embedded benchmark. The README tables map these
//! onto the service's HTTP statuses.

use espresso::FaultPlan;
use fsm::minimize_states::minimize_states;
use fsm::Fsm;
use nova_core::driver::Algorithm;
use nova_engine::{
    journal, run_batch_resumable, run_one, run_portfolio, suite_to_json, throughput, BatchConfig,
    EngineConfig, JournalReplay, JournalWriter, MachineClass, MachineSource, PortfolioReport,
    QuarantineRecord, StreamWriter, SuiteSource,
};
use nova_trace::json::Json;
use nova_trace::Tracer;
use std::collections::{BTreeSet, VecDeque};
use std::io::{BufWriter, Read as _, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// No algorithm produced a usable result (unsolved / timeout / failed).
const EXIT_NO_RESULT: u8 = 1;
/// Bad command line (unknown flag, bad value, inconsistent mode).
const EXIT_USAGE: u8 = 2;
/// The input KISS2 text did not parse.
const EXIT_PARSE: u8 = 3;
/// An input or output file could not be read / written.
const EXIT_IO: u8 = 4;
/// `--bench` / `--filter` named a benchmark the suite does not embed.
const EXIT_UNKNOWN_BENCH: u8 = 5;

fn usage() -> ! {
    let algs: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    eprintln!(
        "usage: nova [-e ALG] [-b BITS] [-m] [-p] [-s] [--json] [--trace FILE [--trace-format chrome|jsonl]] [--bench NAME] [--fault-plan SPEC] [--remote ADDR] [FILE.kiss2 | -]\n\
         \u{20}      nova --portfolio [--timeout-ms N] [--budget N] [--jobs N] [--json] [--trace FILE] [--fault-plan SPEC] [FILE.kiss2 | -]\n\
         \u{20}      nova --portfolio --batch [--filter A,B] [--batch-jobs N] [--bench-out FILE] [--timeout-ms N] [--budget N] [--jobs N] [--json] [--trace FILE] [--fault-plan SPEC]\n\
         \u{20}      nova bench [--synthetic SPEC | --filter A,B] [--batch-jobs N] [--stream FILE|-] [--journal FILE [--resume]] [--retries N] [--watchdog-ms N] [--bench-out FILE] [--timeout-ms N] [--budget N] [--fault-plan SPEC]\n\
         \u{20}      nova serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--cache-bytes N] [--queue-depth N] [--trace-dir DIR]\n\
         \u{20}      nova trace-report FILE.jsonl [--diff FILE2] [--threshold PCT]\n\
         ALG: {} (or onehot)",
        algs.join(" | ")
    );
    std::process::exit(EXIT_USAGE as i32);
}

/// Trace sink format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    /// Chrome trace-event JSON (default): one document, Perfetto-loadable.
    Chrome,
    /// `nova-trace/1` JSONL: one event per line.
    Jsonl,
}

fn parse_algorithm(s: &str) -> Algorithm {
    s.parse().unwrap_or_else(|_| usage())
}

struct Args {
    algorithm: Algorithm,
    bits: Option<u32>,
    state_minimize: bool,
    print_pla: bool,
    stats_only: bool,
    json: bool,
    portfolio: bool,
    batch: bool,
    timeout_ms: Option<u64>,
    budget: Option<u64>,
    jobs: usize,
    batch_jobs: usize,
    trace: Option<String>,
    trace_format: TraceFormat,
    bench: Option<String>,
    bench_out: Option<String>,
    filter: Vec<String>,
    fault_plan: Option<FaultPlan>,
    remote: Option<String>,
    file: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        algorithm: Algorithm::IHybrid,
        bits: None,
        state_minimize: false,
        print_pla: false,
        stats_only: false,
        json: false,
        portfolio: false,
        batch: false,
        timeout_ms: None,
        budget: None,
        jobs: 0,
        batch_jobs: 1,
        trace: None,
        trace_format: TraceFormat::Chrome,
        bench: None,
        bench_out: None,
        filter: Vec::new(),
        fault_plan: None,
        remote: None,
        file: None,
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>| -> u64 {
        args.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-e" => out.algorithm = parse_algorithm(&args.next().unwrap_or_else(|| usage())),
            "-b" => out.bits = Some(num(&mut args) as u32),
            "-m" => out.state_minimize = true,
            "-p" => out.print_pla = true,
            "-s" => out.stats_only = true,
            "--json" => out.json = true,
            "--portfolio" => out.portfolio = true,
            "--batch" => out.batch = true,
            "--timeout-ms" => out.timeout_ms = Some(num(&mut args)),
            "--budget" => out.budget = Some(num(&mut args)),
            "--jobs" => out.jobs = num(&mut args) as usize,
            "--batch-jobs" => out.batch_jobs = num(&mut args) as usize,
            "--trace" => out.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => {
                out.trace_format = match args.next().as_deref() {
                    Some("chrome") => TraceFormat::Chrome,
                    Some("jsonl") => TraceFormat::Jsonl,
                    _ => usage(),
                }
            }
            "--bench" => out.bench = Some(args.next().unwrap_or_else(|| usage())),
            "--bench-out" => out.bench_out = Some(args.next().unwrap_or_else(|| usage())),
            "--filter" => {
                let list = args.next().unwrap_or_else(|| usage());
                out.filter = list.split(',').map(str::to_string).collect();
            }
            "--fault-plan" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => out.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("nova: bad --fault-plan {spec:?}: {e}");
                        std::process::exit(EXIT_USAGE as i32);
                    }
                }
            }
            "--remote" => out.remote = Some(args.next().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            // An explicit `-` names stdin, so `... | nova -` and piping into
            // a remote server share one spelling.
            "-" => out.file = Some("-".to_string()),
            other if !other.starts_with('-') => out.file = Some(other.to_string()),
            _ => usage(),
        }
    }
    out
}

fn engine_config(args: &Args, tracer: &Tracer) -> EngineConfig {
    EngineConfig {
        jobs: args.jobs,
        timeout: args.timeout_ms.map(Duration::from_millis),
        node_budget: args.budget,
        target_bits: args.bits,
        tracer: tracer.clone(),
        fault_plan: args.fault_plan.clone(),
        ..EngineConfig::default()
    }
}

/// Writes the session trace to `--trace` in the selected format. Returns
/// `false` (after printing a diagnostic) when the file cannot be written.
fn write_trace(args: &Args, tracer: &Tracer) -> bool {
    let Some(path) = &args.trace else { return true };
    let result = std::fs::File::create(path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        match args.trace_format {
            TraceFormat::Chrome => tracer.write_chrome(&mut w),
            TraceFormat::Jsonl => tracer.write_jsonl(&mut w),
        }
    });
    match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!("nova: cannot write trace {path}: {e}");
            false
        }
    }
}

fn print_portfolio_text(report: &nova_engine::PortfolioReport) {
    println!(
        "# portfolio on {} ({:.1} ms)",
        report.machine,
        report.wall.as_secs_f64() * 1e3
    );
    for run in &report.runs {
        match run.outcome.result() {
            Some(r) => println!(
                "#   {:<10} {:>2} bits {:>4} cubes area {:>7} lits {:>4}  ({:.1} ms, work {})",
                run.algorithm.name(),
                r.bits,
                r.cubes,
                r.area,
                r.literals,
                run.wall.as_secs_f64() * 1e3,
                run.counters.work,
            ),
            None if run.outcome.degradation().is_some() => {
                let d = run.outcome.degradation().expect("checked");
                println!(
                    "#   {:<10} degraded ({}, {} bits via {})  ({:.1} ms, work {})",
                    run.algorithm.name(),
                    d.reason.tag(),
                    d.encoding.bits(),
                    d.source,
                    run.wall.as_secs_f64() * 1e3,
                    run.counters.work,
                )
            }
            None => println!(
                "#   {:<10} {}  ({:.1} ms, work {})",
                run.algorithm.name(),
                run.outcome.tag(),
                run.wall.as_secs_f64() * 1e3,
                run.counters.work,
            ),
        }
    }
    match report.best() {
        Some((i, best)) => println!(
            "# best: {} with area {}",
            report.runs[i].algorithm.name(),
            best.area
        ),
        None => match report.best_degraded() {
            Some((i, d)) => println!(
                "# best: none finished; degraded fallback from {} ({}, {} bits)",
                report.runs[i].algorithm.name(),
                d.reason.tag(),
                d.encoding.bits(),
            ),
            None => println!("# best: none (no algorithm finished)"),
        },
    }
}

fn print_counters_text(c: &espresso::RunCounters) {
    println!(
        "# counters: work {} faces {} backtracks {} espresso-iters {} cubes {}->{}",
        c.work, c.faces_tried, c.backtracks, c.espresso_iterations, c.cubes_in, c.cubes_out
    );
}

fn read_machine(args: &Args) -> Result<Fsm, ExitCode> {
    if let Some(name) = &args.bench {
        let Some(b) = fsm::benchmarks::by_name(name) else {
            eprintln!("nova: unknown embedded benchmark {name:?}");
            return Err(ExitCode::from(EXIT_UNKNOWN_BENCH));
        };
        let mut machine = b.fsm;
        if args.state_minimize {
            let r = minimize_states(&machine);
            if r.merged > 0 {
                eprintln!("nova: state minimization removed {} states", r.merged);
            }
            machine = r.fsm;
        }
        return Ok(machine);
    }
    let text = match args.file.as_deref() {
        Some(path) if path != "-" => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("nova: cannot read {path}: {e}");
                return Err(ExitCode::from(EXIT_IO));
            }
        },
        _ => {
            let mut t = String::new();
            if std::io::stdin().read_to_string(&mut t).is_err() {
                eprintln!("nova: cannot read stdin");
                return Err(ExitCode::from(EXIT_IO));
            }
            t
        }
    };
    let name = args
        .file
        .as_deref()
        .filter(|p| *p != "-")
        .and_then(|p| p.rsplit('/').next())
        .map(|p| p.trim_end_matches(".kiss2"))
        .unwrap_or("stdin");
    let mut machine = match Fsm::parse_kiss_named(name, &text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("nova: {e}");
            return Err(ExitCode::from(EXIT_PARSE));
        }
    };
    if args.state_minimize {
        let r = minimize_states(&machine);
        if r.merged > 0 {
            eprintln!("nova: state minimization removed {} states", r.merged);
        }
        machine = r.fsm;
    }
    Ok(machine)
}

/// The embedded suite restricted to `filter` (empty = every machine). An
/// unknown name is an error, not a silent empty sweep.
fn suite_source(filter: &[String]) -> Result<SuiteSource, ExitCode> {
    if let Some(name) = filter
        .iter()
        .find(|n| fsm::benchmarks::by_name(n).is_none())
    {
        eprintln!("nova: unknown embedded benchmark '{name}'");
        return Err(ExitCode::from(EXIT_UNKNOWN_BENCH));
    }
    Ok(SuiteSource::filtered(filter))
}

/// Prints the diagnostic for an output that cannot be written and returns
/// the I/O exit code.
fn cannot_write(what: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("nova: cannot write {what}: {e}");
    ExitCode::from(EXIT_IO)
}

/// One spelling per output file, for files that may not exist yet: the
/// canonical parent directory joined with the file name (`-` is stdout).
fn output_identity(path: &str) -> PathBuf {
    if path == "-" {
        return PathBuf::from("/dev/stdout");
    }
    let p = Path::new(path);
    if let Ok(c) = std::fs::canonicalize(p) {
        return c;
    }
    let dir = p.parent().filter(|d| !d.as_os_str().is_empty());
    match (
        std::fs::canonicalize(dir.unwrap_or(Path::new("."))),
        p.file_name(),
    ) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => p.to_path_buf(),
    }
}

/// Where a sweep writes. `nova bench` may set any of these;
/// `nova --portfolio --batch` sets only `bench_out`.
#[derive(Default)]
struct SweepOutputs {
    /// `nova-bench-stream/1` JSONL (`-` = stdout).
    stream: Option<String>,
    /// Crash-safe `nova-journal/1` completion journal; implies the
    /// deterministic stream form (no wall-clock fields).
    journal: Option<String>,
    /// Replay `journal` and run only the machines it lacks.
    resume: bool,
    /// The accumulated `nova-bench/1` document.
    bench_out: Option<String>,
}

/// The corpus sweep behind `nova bench` and `nova --portfolio --batch`:
/// runs every machine of `src` through the sharded batch engine, writes the
/// requested outputs, hands each report to `on_report` in machine order and
/// prints the throughput line to stderr. Every output file is created
/// before the first machine runs: a 100k-machine run must not discover an
/// unwritable path at the finish line, and a bad path must exit 4 (I/O),
/// never panic.
fn sweep(
    src: &dyn MachineSource,
    cfg: &EngineConfig,
    bcfg: &BatchConfig,
    out: &SweepOutputs,
    on_report: &mut (dyn FnMut(&PortfolioReport) + Send),
) -> Result<(), ExitCode> {
    let create = |path: &str| std::fs::File::create(path).map_err(|e| cannot_write(path, e));
    let stream: Box<dyn Write + Send> = match out.stream.as_deref() {
        Some("-") => Box::new(BufWriter::new(std::io::stdout())),
        Some(path) => Box::new(BufWriter::new(create(path)?)),
        None => Box::new(std::io::sink()),
    };
    let bench_out_file = out.bench_out.as_deref().map(create).transpose()?;

    // The journal binds to (corpus, every option that can change a report
    // line): resuming under different options would merge streams that were
    // never byte-compatible.
    let canonical_opts = format!(
        "budget={:?} timeout_ms={:?} fault_plan={} retries={}",
        cfg.node_budget,
        cfg.timeout.map(|t| t.as_millis()),
        cfg.fault_plan
            .as_ref()
            .map(|p| p.to_spec())
            .unwrap_or_else(|| "-".into()),
        bcfg.retries
    );
    let jkey = journal::journal_key(&src.describe(), &canonical_opts);

    // Resume: load the journal, validate its identity against this
    // invocation, and split the corpus into replayed and still-to-run.
    let mut pending_replay: VecDeque<journal::ReplayedMachine> = VecDeque::new();
    let mut replayed_quarantine: Vec<QuarantineRecord> = Vec::new();
    let mut completed: BTreeSet<usize> = BTreeSet::new();
    if out.resume {
        let jpath = out.journal.as_deref().unwrap_or_default();
        let replay = match JournalReplay::load(Path::new(jpath)) {
            Ok(r) => r,
            Err(journal::JournalError::Io(e)) => {
                eprintln!("nova: cannot read journal {jpath}: {e}");
                return Err(ExitCode::from(EXIT_IO));
            }
            Err(e) => {
                eprintln!("nova: {e}");
                return Err(ExitCode::from(EXIT_USAGE));
            }
        };
        if replay.corpus != src.describe() || replay.machines != src.len() {
            eprintln!(
                "nova: journal {jpath} was written for corpus {:?} ({} machines), \
                 not {:?} ({} machines)",
                replay.corpus,
                replay.machines,
                src.describe(),
                src.len()
            );
            return Err(ExitCode::from(EXIT_USAGE));
        }
        if replay.key != jkey {
            eprintln!(
                "nova: journal {jpath} was written under different encoding options; \
                 resuming would merge incompatible streams"
            );
            return Err(ExitCode::from(EXIT_USAGE));
        }
        for m in replay.completed.values() {
            if fsm::fingerprint(&src.machine(m.index)) != m.machine_fp {
                eprintln!(
                    "nova: journal {jpath} machine {} ({}) no longer matches the corpus",
                    m.index,
                    src.name(m.index)
                );
                return Err(ExitCode::from(EXIT_USAGE));
            }
        }
        if replay.dropped > 0 {
            eprintln!(
                "nova: journal {jpath}: dropped {} torn/corrupt trailing record(s)",
                replay.dropped
            );
        }
        completed = replay.completed.keys().copied().collect();
        for m in replay.completed.into_values() {
            if let Some(mut q) = m.quarantine.clone() {
                q.machine = src.name(q.index);
                replayed_quarantine.push(q);
            }
            pending_replay.push_back(m);
        }
        eprintln!(
            "nova: resuming: {} of {} machines already complete",
            completed.len(),
            src.len()
        );
    }
    let mut jw = match &out.journal {
        Some(p) if out.resume => Some(JournalWriter::append(Path::new(p)).map_err(|e| {
            eprintln!("nova: cannot append to journal {p}: {e}");
            ExitCode::from(EXIT_IO)
        })?),
        Some(p) => Some(
            JournalWriter::create(Path::new(p), jkey, src.len(), &src.describe())
                .map_err(|e| cannot_write(&format!("journal {p}"), e))?,
        ),
        None => None,
    };

    // Journaled streams drop every wall-clock field so an interrupted and
    // resumed sweep merges byte-identically with an uninterrupted one.
    let timings = out.journal.is_none();
    let mut sw = StreamWriter::new(
        stream,
        &src.describe(),
        src.len(),
        bcfg.effective_jobs(),
        timings,
    )
    .map_err(|e| cannot_write("stream", e))?;
    // Reports are only accumulated for the in-memory nova-bench/1 document;
    // a streamed sweep stays O(window).
    let mut kept: Vec<PortfolioReport> = Vec::new();
    let keep = bench_out_file.is_some();
    let mut stream_err: Option<std::io::Error> = None;
    let mut journal_err: Option<std::io::Error> = None;
    let started = std::time::Instant::now();
    let report = run_batch_resumable(src, cfg, bcfg, &completed, &mut |i, rep, q| {
        // Interleave replayed lines: everything the journal completed below
        // this fresh index goes out first, keeping machine-index order.
        while pending_replay.front().is_some_and(|m| m.index < i) {
            let m = pending_replay.pop_front().expect("front checked");
            if let Err(e) = sw.write_raw(&m.line, m.class) {
                stream_err.get_or_insert(e);
            }
        }
        // Journal first, then stream: a kill between the two replays the
        // machine as complete and rewrites the same line.
        let class = MachineClass::of(&rep);
        let line = StreamWriter::<std::io::Sink>::render_line(&rep, timings);
        if let Some(j) = &mut jw {
            let fp = fsm::fingerprint(&src.machine(i));
            if let Err(e) = j.record(i, &fp, class, &line, q) {
                journal_err.get_or_insert(e);
            }
        }
        if let Err(e) = sw.write_raw(&line, class) {
            stream_err.get_or_insert(e);
        }
        on_report(&rep);
        if keep {
            kept.push(rep);
        }
    });
    // Replayed machines above the last fresh index.
    while let Some(m) = pending_replay.pop_front() {
        if let Err(e) = sw.write_raw(&m.line, m.class) {
            stream_err.get_or_insert(e);
        }
    }
    let wall = started.elapsed();
    let mut quarantine = replayed_quarantine;
    quarantine.extend(report.quarantined.iter().cloned());
    quarantine.sort_by_key(|q| q.index);
    let tally = match (sw.finish(&quarantine), stream_err) {
        (Ok((tally, _)), None) => tally,
        (Err(e), _) | (Ok(_), Some(e)) => return Err(cannot_write("stream", e)),
    };
    if let Some(j) = jw {
        if let Some(e) = j.finish().err().or(journal_err) {
            let path = out.journal.as_deref().unwrap_or("?");
            return Err(cannot_write(&format!("journal {path}"), e));
        }
    }
    if let Some(mut f) = bench_out_file {
        let doc = suite_to_json(&kept, wall);
        if let Err(e) = f.write_all(doc.to_pretty().as_bytes()) {
            return Err(cannot_write(out.bench_out.as_deref().unwrap_or("?"), e));
        }
    }
    // The human-facing throughput line goes to stderr so `--stream -` keeps
    // stdout pure JSONL.
    eprintln!(
        "nova: swept {} machines in {:.1} ms ({:.1} machines/sec): {} solved, {} degraded, {} unresolved",
        src.len(),
        wall.as_secs_f64() * 1e3,
        throughput(src.len(), wall),
        tally.solved,
        tally.degraded,
        tally.unresolved
    );
    // A quarantined machine is a completed sweep, not a failed one: the
    // stream carries the details, stderr just flags it, and the exit code
    // stays 0 so long sweeps don't lose their output to one bad machine.
    if !quarantine.is_empty() {
        eprintln!(
            "nova: quarantined {} machine(s) after {} retry attempt(s); see the stream's quarantine section",
            quarantine.len(),
            report.retries
        );
    }
    Ok(())
}

/// `nova bench`: sweep a corpus (embedded suite or `--synthetic` scale
/// spec) through the sharded batch engine, optionally streaming JSONL
/// (`nova-bench-stream/1`) so memory stays constant at any corpus size.
fn bench_main(argv: &[String]) -> ExitCode {
    let mut synthetic: Option<fsm::ScaleSpec> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut out = SweepOutputs::default();
    let mut cfg = EngineConfig::default();
    let mut bcfg = BatchConfig::default();
    let mut it = argv.iter();
    let num =
        |v: Option<&String>| -> u64 { v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    let arg = |v: Option<&String>| -> String { v.cloned().unwrap_or_else(|| usage()) };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--synthetic" => {
                let spec = arg(it.next());
                match fsm::ScaleSpec::parse(&spec) {
                    Ok(s) => synthetic = Some(s),
                    Err(e) => {
                        eprintln!("nova: bad --synthetic {spec:?}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--filter" => filter = arg(it.next()).split(',').map(str::to_string).collect(),
            "--batch-jobs" => bcfg.batch_jobs = num(it.next()) as usize,
            "--stream" => out.stream = Some(arg(it.next())),
            "--journal" => out.journal = Some(arg(it.next())),
            "--resume" => out.resume = true,
            "--retries" => bcfg.retries = num(it.next()) as usize,
            "--watchdog-ms" => bcfg.watchdog = Some(Duration::from_millis(num(it.next()))),
            "--bench-out" => out.bench_out = Some(arg(it.next())),
            "--timeout-ms" => cfg.timeout = Some(Duration::from_millis(num(it.next()))),
            "--budget" => cfg.node_budget = Some(num(it.next())),
            "--jobs" => cfg.jobs = num(it.next()) as usize,
            "--fault-plan" => {
                let spec = arg(it.next());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => cfg.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("nova: bad --fault-plan {spec:?}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            _ => usage(),
        }
    }
    if synthetic.is_some() && !filter.is_empty() {
        eprintln!("nova: --synthetic and --filter are mutually exclusive");
        return ExitCode::from(EXIT_USAGE);
    }
    if let Some(jpath) = &out.journal {
        // The journal is fsync'd and replayed on resume; stdout can be
        // neither. And journal records interleaved into the stream file
        // would corrupt both — fail fast instead of writing garbage.
        if jpath == "-" || jpath == "/dev/stdout" {
            eprintln!("nova: --journal cannot write to stdout; give it its own file");
            return ExitCode::from(EXIT_USAGE);
        }
        let Some(spath) = &out.stream else {
            eprintln!("nova: --journal requires --stream (the journal records stream lines)");
            return ExitCode::from(EXIT_USAGE);
        };
        if output_identity(jpath) == output_identity(spath) {
            eprintln!(
                "nova: --journal and --stream point at the same file; \
                 interleaving them would corrupt both"
            );
            return ExitCode::from(EXIT_USAGE);
        }
    }
    if out.resume && out.journal.is_none() {
        eprintln!("nova: --resume requires --journal FILE");
        return ExitCode::from(EXIT_USAGE);
    }
    if out.resume && out.bench_out.is_some() {
        eprintln!("nova: --resume cannot rebuild a full --bench-out document (replayed machines keep only their stream lines)");
        return ExitCode::from(EXIT_USAGE);
    }
    let result = match &synthetic {
        Some(spec) => sweep(spec, &cfg, &bcfg, &out, &mut |_| {}),
        None => {
            suite_source(&filter).and_then(|suite| sweep(&suite, &cfg, &bcfg, &out, &mut |_| {}))
        }
    };
    result.err().unwrap_or(ExitCode::SUCCESS)
}

/// `nova serve`: run the resident encoding service until SIGTERM/ctrl-c,
/// then drain and exit 0.
fn serve_main(args: &[String]) -> ExitCode {
    let mut cfg = nova_serve::ServerConfig {
        addr: "127.0.0.1:7171".into(),
        ..nova_serve::ServerConfig::default()
    };
    let mut it = args.iter();
    let num =
        |v: Option<&String>| -> usize { v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--workers" => cfg.workers = num(it.next()),
            "--cache-entries" => cfg.cache.max_entries = num(it.next()),
            "--cache-bytes" => cfg.cache.max_bytes = num(it.next()),
            "--queue-depth" => cfg.queue_depth = num(it.next()),
            "--trace-dir" => {
                cfg.trace_dir = Some(it.next().cloned().unwrap_or_else(|| usage()).into())
            }
            _ => usage(),
        }
    }
    nova_serve::shutdown::install();
    let addr = cfg.addr.clone();
    let handle = match nova_serve::serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("nova: cannot serve on {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    // The address line is the startup handshake scripts wait for (port 0
    // resolves here), so flush it through any pipe buffering. Best-effort
    // writes: a consumer that closes stdout after the first line must not
    // bring the whole service down with a broken-pipe panic.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "# nova-serve listening on http://{}", handle.addr());
    let _ = writeln!(
        out,
        "#   POST /encode (KISS2 or machine JSON) | GET /counters | GET /metrics | GET /healthz"
    );
    let _ = out.flush();
    handle.join();
    eprintln!("nova: serve drained cleanly");
    ExitCode::SUCCESS
}

/// `nova trace-report`: offline analysis of a `nova-trace/1` JSONL trace,
/// with an optional `--diff` against a second trace or a committed
/// `nova-bench/1` baseline. Exits 1 only when the diff finds a regression.
fn trace_report_main(args: &[String]) -> ExitCode {
    use nova_trace::report;
    let mut file: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut threshold = 25.0_f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--diff" => diff_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = file else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("nova: cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let doc = match report::TraceDoc::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("nova: {path}: {e}");
            return ExitCode::from(EXIT_PARSE);
        }
    };
    print!("{}", doc.render_report());
    let Some(diff_path) = diff_path else {
        return ExitCode::SUCCESS;
    };
    let base_text = match std::fs::read_to_string(&diff_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("nova: cannot read {diff_path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    // The baseline is auto-detected: a nova-bench/1 report contributes its
    // stages_ms totals, anything else must be a second nova-trace/1 trace.
    let base_totals = match report::bench_baseline_totals(&base_text) {
        Ok(totals) => totals,
        Err(_) => match report::TraceDoc::parse(&base_text) {
            Ok(d) => d.stage_totals(),
            Err(e) => {
                eprintln!("nova: {diff_path}: neither nova-bench/1 nor nova-trace/1: {e}");
                return ExitCode::from(EXIT_PARSE);
            }
        },
    };
    let regressions = report::diff(&base_totals, &doc.stage_totals(), threshold);
    print!("{}", report::render_diff(&regressions, threshold));
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

/// `--remote`: ship the machine to a resident service and print its
/// nova-bench/1 response, mapping HTTP statuses onto the CLI exit codes.
fn remote_main(addr: &str, machine: &Fsm, args: &Args) -> ExitCode {
    let options = nova_serve::EncodeOptions {
        algorithms: if args.portfolio {
            Algorithm::ALL.to_vec()
        } else {
            vec![args.algorithm]
        },
        bits: args.bits,
        budget: args.budget,
        timeout_ms: args.timeout_ms,
        jobs: args.jobs,
        fault_plan: args.fault_plan.clone(),
    };
    // Transient 503 pushback (full queue, tripped breaker, memory
    // pressure) is retried with deterministic jitter, honoring the
    // server's Retry-After hint; an unreachable server still fails fast.
    let resp = match nova_serve::client::post_kiss_retry(
        addr,
        &machine.to_kiss(),
        &options.to_query(),
        &nova_serve::RetryPolicy::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nova: --remote {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    if resp.status != 200 {
        eprintln!(
            "nova: --remote {addr}: {}: {}",
            nova_serve::client::status_line(resp.status),
            resp.body.trim()
        );
        return ExitCode::from(nova_serve::client::status_exit_code(resp.status));
    }
    println!("{}", resp.body);
    // Mirror the local exit contract: a completed or degraded encoding is
    // success; a report where nothing finished is "no result".
    let has_result = nova_trace::json::parse(&resp.body)
        .ok()
        .and_then(|doc| match doc.get("machines") {
            Some(Json::Arr(machines)) => machines.first().map(|m| {
                m.get("best").is_some_and(|b| *b != Json::Null) || m.get("degraded").is_some()
            }),
            _ => None,
        })
        .unwrap_or(false);
    if has_result {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_NO_RESULT)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bench") {
        return bench_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("trace-report") {
        return trace_report_main(&argv[1..]);
    }
    let args = parse_args();
    let tracer = if args.trace.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    // Client mode: the machine is encoded by a resident nova-serve.
    if let Some(addr) = args.remote.clone() {
        if args.batch {
            eprintln!("nova: --remote does not support --batch (sweep on the server side instead)");
            return ExitCode::from(EXIT_USAGE);
        }
        let machine = match read_machine(&args) {
            Ok(m) => m,
            Err(code) => return code,
        };
        return remote_main(&addr, &machine, &args);
    }

    // Batch mode: `nova bench`'s sweep over the embedded suite, writing
    // BENCH_portfolio.json unless --bench-out names another file.
    if args.batch {
        if !args.portfolio {
            eprintln!("nova: --batch requires --portfolio");
            return ExitCode::from(EXIT_USAGE);
        }
        let suite = match suite_source(&args.filter) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let bench_path = args.bench_out.as_deref().unwrap_or("BENCH_portfolio.json");
        let out = SweepOutputs {
            bench_out: Some(bench_path.to_string()),
            ..SweepOutputs::default()
        };
        let bcfg = BatchConfig {
            batch_jobs: args.batch_jobs,
            ..BatchConfig::default()
        };
        let json = args.json;
        let mut docs = Vec::new();
        let swept = sweep(
            &suite,
            &engine_config(&args, &tracer),
            &bcfg,
            &out,
            &mut |rep| {
                if json {
                    docs.push(rep.to_json());
                } else {
                    print_portfolio_text(rep);
                }
            },
        );
        if let Err(code) = swept {
            return code;
        }
        if args.json {
            println!("{}", Json::Arr(docs).to_pretty());
        } else {
            println!("# bench report written to {bench_path}");
        }
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return ExitCode::SUCCESS;
    }

    let machine = match read_machine(&args) {
        Ok(m) => m,
        Err(code) => return code,
    };

    if args.portfolio {
        let cfg = engine_config(&args, &tracer);
        let report = run_portfolio(&machine, machine.name(), &cfg);
        if args.json {
            println!("{}", report.to_json().to_pretty());
        } else {
            print_portfolio_text(&report);
            let encoding = report
                .best()
                .map(|(_, best)| &best.encoding)
                .or_else(|| report.best_degraded().map(|(_, d)| &d.encoding));
            if let Some(encoding) = encoding {
                println!("# codes:");
                for (s, sname) in machine.state_names().iter().enumerate() {
                    println!(
                        ".code {} {:0width$b}",
                        sname,
                        encoding.code(fsm::StateId(s)),
                        width = encoding.bits()
                    );
                }
            }
        }
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return if report.best().is_some() || report.best_degraded().is_some() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_NO_RESULT)
        };
    }

    if !args.json {
        println!(
            "# {}: {} states, {} inputs, {} outputs, {} rows",
            machine.name(),
            machine.num_states(),
            machine.num_inputs(),
            machine.num_outputs(),
            machine.num_transitions()
        );
    }
    if args.stats_only {
        let ics = nova_core::extract_input_constraints(&machine);
        println!("# minimized symbolic cover: {} terms", ics.mv_cover_size);
        for c in &ics.constraints {
            println!(
                "# constraint {} weight {}",
                c.set.to_vector_string(machine.num_states()),
                c.weight
            );
        }
        return ExitCode::SUCCESS;
    }

    // Single runs go through the engine for stage times, counters and the
    // tracer — one telemetry path for every mode.
    let algo_run = run_one(&machine, args.algorithm, &engine_config(&args, &tracer));
    if args.json {
        let mut pairs = vec![("machine".into(), Json::str(machine.name()))];
        if let Json::Obj(rest) = algo_run.to_json() {
            pairs.extend(rest);
        }
        println!("{}", Json::Obj(pairs).to_pretty());
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return if algo_run.outcome.result().is_some() || algo_run.outcome.degradation().is_some() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_NO_RESULT)
        };
    }

    if let Some(d) = algo_run.outcome.degradation() {
        println!(
            "# algorithm {}: degraded anytime result ({}, {} bits via {})",
            args.algorithm.name(),
            d.reason.tag(),
            d.encoding.bits(),
            d.source
        );
        print_counters_text(&algo_run.counters);
        println!("# codes:");
        for (s, sname) in machine.state_names().iter().enumerate() {
            println!(
                ".code {} {:0width$b}",
                sname,
                d.encoding.code(fsm::StateId(s)),
                width = d.encoding.bits()
            );
        }
        if !write_trace(&args, &tracer) {
            return ExitCode::from(EXIT_IO);
        }
        return ExitCode::SUCCESS;
    }

    let Some(result) = algo_run.outcome.result() else {
        eprintln!(
            "nova: {} {} on this machine",
            args.algorithm.name(),
            algo_run.outcome.tag()
        );
        return ExitCode::from(EXIT_NO_RESULT);
    };
    println!(
        "# algorithm {}: {} bits, {} cubes, area {}, {} factored literals",
        args.algorithm.name(),
        result.bits,
        result.cubes,
        result.area,
        result.literals
    );
    print_counters_text(&algo_run.counters);
    println!("# codes:");
    for (s, sname) in machine.state_names().iter().enumerate() {
        println!(
            ".code {} {:0width$b}",
            sname,
            result.encoding.code(fsm::StateId(s)),
            width = result.bits
        );
    }

    if args.print_pla {
        let mut pla = fsm::encode::encode(&machine, &result.encoding);
        pla.on = espresso::minimize(&pla.on, &pla.dc);
        print!(
            "{}",
            espresso::pla::write_pla(&pla.on, &espresso::Cover::empty(pla.on.space().clone()))
        );
    }
    if !write_trace(&args, &tracer) {
        return ExitCode::from(EXIT_IO);
    }
    ExitCode::SUCCESS
}
