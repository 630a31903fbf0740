//! Sharded work-stealing batch engine: constant-memory portfolio sweeps
//! over corpora far past the embedded MCNC suite.
//!
//! The pre-scale batch path walked machines one at a time and accumulated
//! every [`PortfolioReport`] in a `Vec` — single-threaded across machines,
//! O(corpus) memory. This module replaces it with:
//!
//! * **A machine source, not a machine list** ([`MachineSource`]): corpora
//!   are described (embedded suite, [`ScaleSpec`] synthetic family) and each
//!   machine is materialized on demand by the worker that runs it, then
//!   dropped. A 100k-machine sweep never holds more than
//!   `workers + window` machines' worth of state.
//! * **A chunked work-stealing scheduler** ([`run_batch`]): an atomic shard
//!   cursor hands out contiguous index ranges; each worker keeps its shard
//!   in a private deque, pops from the front, and — when both its deque and
//!   the cursor are exhausted — steals the back half of a sibling's deque.
//!   Whole portfolios run per worker (the portfolio's algorithm workers are
//!   forced to one when `batch_jobs > 1`, so the thread count is exactly
//!   `batch_jobs` and the thread-local scratch pools are reused across
//!   every machine a worker touches).
//! * **Deterministic, bounded, in-order emission**: completed reports enter
//!   a reorder buffer and are handed to the sink strictly in machine-index
//!   order. The buffer is capped at `window` reports; a worker about to run
//!   a machine too far ahead of the emission cursor blocks until the prefix
//!   catches up, which bounds memory independent of corpus size. Report
//!   *content* is identical at any `--batch-jobs` count (the PR 4/8
//!   sequential-replay pattern: node budgets, not wall clocks, limit work),
//!   which the batch determinism tests pin via [`report_fingerprint`].
//! * **A streamed report** ([`StreamWriter`], schema `nova-bench-stream/1`):
//!   one JSONL line per machine as it is emitted plus a final throughput
//!   summary, so the accumulated `nova-bench/1` document is only needed for
//!   the small committed baselines.
//!
//! * **Supervision** (`nova-sentinel`): a machine whose portfolio crashes
//!   (panics, or fails every run with nothing usable) is retried a bounded
//!   number of times with deterministic seeded backoff; a machine that
//!   exhausts its retries is *quarantined* — recorded in the returned
//!   [`BatchReport`] and the stream summary's `quarantine` section — instead
//!   of aborting the sweep. An optional wall-clock watchdog escalates stuck
//!   runs through the [`RunCtl`](espresso::RunCtl) ladder: cooperative
//!   cancel at the limit (the run unwinds to its `Degraded` best-so-far),
//!   quarantine at twice the limit.
//! * **Crash-safe resume** ([`run_batch_resumable`]): a journal-driven
//!   caller passes the set of machine indices already completed by a prior
//!   interrupted sweep; they are skipped entirely (never generated, never
//!   run) while emission order and the reorder-window memory bound are
//!   preserved.
//!
//! Telemetry: `engine.batch.machines` / `.shards` / `.steals` /
//! `.backpressure` / `.retry` / `.quarantine` / `.watchdog.cancel` /
//! `.watchdog.quarantine` counters and the `engine.batch.queue.depth` gauge
//! on the session tracer.

use crate::{machine_summary_json, report_fingerprint, EngineConfig, PortfolioReport};
use fsm::{Fsm, ScaleSpec};
use nova_trace::json::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// cascading the panic. Every batch-layer mutex holds plain data (queues,
/// reorder buffers, watchdog slots) whose invariants hold between
/// statements, so a panic elsewhere never leaves them half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A corpus the batch engine can sweep: machines addressed by index,
/// materialized on demand. Implementations must be cheap to query for
/// `len`/`name` and must return the identical machine for the same index on
/// every call, from any thread — the determinism and replay guarantees rest
/// on it.
pub trait MachineSource: Sync {
    /// Number of machines in the corpus.
    fn len(&self) -> usize;
    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Name of machine `i` (report key; stable across calls).
    fn name(&self, i: usize) -> String;
    /// Materializes machine `i`. Usually called once per sweep by whichever
    /// worker claimed the index (the machine is dropped after its
    /// portfolio), but supervision may call it again — once per retry of a
    /// crashed machine, and once per completed machine when a resume
    /// validates journal fingerprints.
    fn machine(&self, i: usize) -> Fsm;
    /// One-line corpus description for stream headers and scale baselines.
    fn describe(&self) -> String;
}

/// The embedded MCNC benchmark suite (optionally filtered by name) as a
/// batch corpus.
pub struct SuiteSource {
    benches: Vec<fsm::benchmarks::Benchmark>,
}

impl SuiteSource {
    /// The suite restricted to `names`; an empty slice keeps every machine.
    /// Unknown names are silently skipped — callers that care (the CLI)
    /// validate against [`fsm::benchmarks::by_name`] up front.
    pub fn filtered(names: &[String]) -> Self {
        SuiteSource {
            benches: fsm::benchmarks::suite()
                .into_iter()
                .filter(|b| names.is_empty() || names.iter().any(|n| n == b.name))
                .collect(),
        }
    }
}

impl MachineSource for SuiteSource {
    fn len(&self) -> usize {
        self.benches.len()
    }
    fn name(&self, i: usize) -> String {
        self.benches[i].name.to_string()
    }
    fn machine(&self, i: usize) -> Fsm {
        self.benches[i].fsm.clone()
    }
    fn describe(&self) -> String {
        format!("suite:{}", self.benches.len())
    }
}

/// A [`ScaleSpec`] synthetic corpus: machine `i` is generated (and later
/// dropped) by the worker that runs it.
impl MachineSource for ScaleSpec {
    fn len(&self) -> usize {
        self.machines
    }
    fn name(&self, i: usize) -> String {
        ScaleSpec::name(self, i)
    }
    fn machine(&self, i: usize) -> Fsm {
        ScaleSpec::machine(self, i)
    }
    fn describe(&self) -> String {
        self.spec_string()
    }
}

/// Shape of a sharded batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads sweeping machines; `0` = available parallelism. Each
    /// worker runs whole portfolios, so this is also the total thread count
    /// when it exceeds 1 (portfolio `jobs` is forced to 1).
    pub batch_jobs: usize,
    /// Machines per claimed shard; `0` = auto (corpus size over
    /// `8 × workers`, clamped to `1..=64`). Larger shards amortize cursor
    /// traffic, smaller ones balance ragged corpora — stealing covers the
    /// tail either way.
    pub shard: usize,
    /// Reorder-buffer capacity in reports; `0` = auto
    /// (`max(4 × workers × shard, 16)`). This is the memory bound: a worker
    /// never runs a machine `window` or more indices ahead of the emission
    /// cursor.
    pub window: usize,
    /// Extra attempts granted to a *crashed* machine (one that panicked, or
    /// failed every run with no usable result) before it is quarantined.
    /// The default of 2 gives every machine up to three attempts; `0`
    /// quarantines on the first crash.
    pub retries: usize,
    /// Seed of the deterministic retry-backoff stream ([`fsm::rng::mix`]):
    /// attempt `a` of machine `i` sleeps `mix(seed, 8·i + a) mod 16` ms
    /// before re-running. Fixed by default so replays are reproducible.
    pub retry_seed: u64,
    /// Wall-clock watchdog limit per machine attempt. `None` (the default)
    /// spawns no watchdog. With `Some(limit)`, a supervisor thread
    /// escalates a stuck attempt through the ladder: cooperative
    /// [`RunCtl`](espresso::RunCtl) cancel at `limit` (the run unwinds to
    /// its `Degraded` best-so-far), quarantine at `2 × limit`. A run that
    /// never charges its ctl cannot be killed — only flagged — so the
    /// ladder is cooperative by design.
    pub watchdog: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_jobs: 1,
            shard: 0,
            window: 0,
            retries: 2,
            retry_seed: 0x6e6f_7661_2d73_7631, // "nova-sv1" — any fixed value
            watchdog: None,
        }
    }
}

impl BatchConfig {
    /// The worker count actually used.
    pub fn effective_jobs(&self) -> usize {
        if self.batch_jobs > 0 {
            self.batch_jobs
        } else {
            fsm::cpus()
        }
    }

    fn effective_shard(&self, len: usize, workers: usize) -> usize {
        if self.shard > 0 {
            self.shard
        } else {
            (len / (8 * workers.max(1))).clamp(1, 64)
        }
    }

    fn effective_window(&self, workers: usize, shard: usize) -> usize {
        if self.window > 0 {
            self.window
        } else {
            (4 * workers * shard).max(16)
        }
    }
}

/// One machine that exhausted its supervision ladder: the sweep completed
/// without it ever producing a usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Machine index in the corpus.
    pub index: usize,
    /// Machine name (report key).
    pub machine: String,
    /// Attempts consumed (first run + retries).
    pub attempts: usize,
    /// Why it was quarantined: the crash message of the last attempt, or
    /// the watchdog's escalation note.
    pub reason: String,
}

/// What a batch sweep did beyond the per-machine reports: supervision
/// telemetry for the caller (the CLI folds `quarantined` into the stream
/// summary and the journal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Machines actually run this sweep (excludes resumed skips).
    pub machines: usize,
    /// Retry attempts taken across the sweep.
    pub retries: u64,
    /// Machines that exhausted the ladder, in index order.
    pub quarantined: Vec<QuarantineRecord>,
}

/// One machine attempt being watched by the watchdog thread.
struct RunningSlot {
    started: Instant,
    /// The attempt's shared stop flag (wired into every per-algorithm
    /// `RunCtl` via [`EngineConfig::stop`]).
    stop: Arc<AtomicBool>,
    /// Escalation ladder position: 0 running, 1 cancelled at the limit,
    /// 2 marked for quarantine at twice the limit.
    phase: u8,
}

/// Shared in-order emission state: the reorder buffer plus the sink.
struct Emit<'s> {
    /// Next machine index to hand to the sink.
    next: usize,
    /// Completed reports waiting for their prefix, with the quarantine
    /// record of machines that exhausted supervision.
    pending: BTreeMap<usize, (PortfolioReport, Option<QuarantineRecord>)>,
    /// Receives `(index, report, quarantine)` strictly in index order.
    sink: &'s mut (dyn FnMut(usize, PortfolioReport, Option<&QuarantineRecord>) + Send),
}

/// Sweeps every machine of `src` through [`crate::run_portfolio`] under
/// `cfg`, sharded across `bcfg` workers, and hands each report to `sink` in
/// machine-index order. Memory is bounded by the reorder window, not the
/// corpus; report content is identical at any worker count (wall-clock
/// deadlines excepted, as everywhere in the engine).
///
/// A machine whose generation or portfolio crashes is retried and — when
/// retries run out — quarantined (its last report, possibly empty, is still
/// emitted so the stream stays complete); see [`BatchConfig::retries`] and
/// [`BatchConfig::watchdog`]. The engine's panic-free guarantee extends to
/// the batch layer: the sweep always completes and reports what happened in
/// the returned [`BatchReport`].
pub fn run_batch(
    src: &dyn MachineSource,
    cfg: &EngineConfig,
    bcfg: &BatchConfig,
    sink: &mut (dyn FnMut(usize, PortfolioReport) + Send),
) -> BatchReport {
    run_batch_resumable(src, cfg, bcfg, &BTreeSet::new(), &mut |i, rep, _| {
        sink(i, rep)
    })
}

/// The crash reason of a report that produced nothing usable: the first
/// failed run's message when neither a completed nor a degraded result
/// exists. (Fault-injected panics are contained *inside* the portfolio as
/// `Failed` runs, so this — not a batch-level unwind — is how a poisoned
/// machine surfaces.)
fn crash_reason(rep: &PortfolioReport) -> Option<String> {
    if rep.best().is_some() || rep.best_degraded().is_some() {
        return None;
    }
    rep.runs.iter().find_map(|r| match &r.outcome {
        crate::Outcome::Failed(msg) => Some(msg.clone()),
        _ => None,
    })
}

/// [`run_batch`] minus the machines a prior interrupted sweep already
/// completed: indices in `completed` are never generated or run, and the
/// sink only sees the remainder — still strictly in machine-index order.
/// The journal-driven CLI resume interleaves the replayed lines itself.
///
/// `completed` is typically a prefix (journals record completions in
/// emission order), but any set is handled.
pub fn run_batch_resumable(
    src: &dyn MachineSource,
    cfg: &EngineConfig,
    bcfg: &BatchConfig,
    completed: &BTreeSet<usize>,
    sink: &mut (dyn FnMut(usize, PortfolioReport, Option<&QuarantineRecord>) + Send),
) -> BatchReport {
    let len = src.len();
    if len == 0 {
        return BatchReport::default();
    }
    let workers = bcfg.effective_jobs().min(len);
    let shard = bcfg.effective_shard(len, workers);
    let window = bcfg.effective_window(workers, shard).max(1);
    let num_shards = len.div_ceil(shard);
    let tracer = &cfg.tracer;

    // Whole portfolios per worker: with more than one batch worker each
    // portfolio runs its algorithms on the worker's own thread, so the sweep
    // runs exactly `workers` threads and every per-thread scratch pool is
    // reused machine after machine. Content is unaffected by construction
    // (the engine's determinism contract across `jobs`).
    let inner = if workers > 1 {
        EngineConfig {
            jobs: 1,
            ..cfg.clone()
        }
    } else {
        cfg.clone()
    };

    let cursor = AtomicUsize::new(0);
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // The emission cursor starts past any already-completed prefix.
    let mut first = 0usize;
    while completed.contains(&first) {
        first += 1;
    }
    let emit = Mutex::new(Emit {
        next: first,
        pending: BTreeMap::new(),
        sink,
    });
    let emitted = Condvar::new();

    // Supervision bookkeeping shared across workers and the watchdog.
    let ran = AtomicUsize::new(0);
    let retries_taken = AtomicU64::new(0);
    let quarantined: Mutex<Vec<QuarantineRecord>> = Mutex::new(Vec::new());
    let watch_slots: Option<Vec<Mutex<Option<RunningSlot>>>> = bcfg
        .watchdog
        .map(|_| (0..workers).map(|_| Mutex::new(None)).collect());
    let workers_done = AtomicBool::new(false);

    // Runs machine `i` on worker `w` under supervision: bounded retries on
    // crash, watchdog registration, quarantine on exhaustion. Always
    // returns a report (possibly empty) so the stream stays complete.
    let supervise = |w: usize, i: usize| -> (PortfolioReport, Option<QuarantineRecord>) {
        let name = src.name(i);
        let max_attempts = 1 + bcfg.retries;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            let stop = Arc::new(AtomicBool::new(false));
            let attempt_cfg = EngineConfig {
                stop: Some(Arc::clone(&stop)),
                ..inner.clone()
            };
            if let Some(slots) = &watch_slots {
                *lock(&slots[w]) = Some(RunningSlot {
                    started: Instant::now(),
                    stop,
                    phase: 0,
                });
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let machine = src.machine(i);
                crate::run_portfolio(&machine, &name, &attempt_cfg)
            }));
            let wd_phase = watch_slots
                .as_ref()
                .and_then(|slots| lock(&slots[w]).take().map(|s| s.phase))
                .unwrap_or(0);
            let (report, crash) = match outcome {
                Ok(rep) => {
                    let crash = crash_reason(&rep);
                    (rep, crash)
                }
                // The whole portfolio (or machine generation) unwound:
                // containment failed below us, treat as a crash.
                Err(e) => (
                    PortfolioReport {
                        machine: name.clone(),
                        runs: Vec::new(),
                        wall: Duration::default(),
                    },
                    Some(crate::panic_message(e)),
                ),
            };
            if wd_phase >= 2 {
                // The attempt blew through twice the wall limit even after
                // a cooperative cancel: quarantine without retrying (a
                // machine this stuck would eat the retry budget in wall
                // time, and the cancelled report may still hold a usable
                // degraded result).
                tracer.incr("engine.batch.quarantine", 1);
                let limit = bcfg.watchdog.unwrap_or_default();
                return (
                    report,
                    Some(QuarantineRecord {
                        index: i,
                        machine: name,
                        attempts: attempt,
                        reason: format!(
                            "watchdog: still running at 2x the {}ms wall limit",
                            limit.as_millis()
                        ),
                    }),
                );
            }
            let Some(reason) = crash else {
                return (report, None);
            };
            if attempt >= max_attempts {
                tracer.incr("engine.batch.quarantine", 1);
                return (
                    report,
                    Some(QuarantineRecord {
                        index: i,
                        machine: name,
                        attempts: attempt,
                        reason,
                    }),
                );
            }
            retries_taken.fetch_add(1, Ordering::Relaxed);
            tracer.incr("engine.batch.retry", 1);
            // Deterministic seeded backoff: cheap jitter that de-clusters
            // retries without making replays timing-dependent.
            let ms = fsm::rng::mix(bcfg.retry_seed, 8 * i as u64 + attempt as u64) % 16;
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    };

    // Blocks until `i` is inside the reorder window, then runs machine `i`
    // under supervision and pushes its report through the in-order emitter.
    let run_one = |w: usize, i: usize| {
        {
            let mut g = lock(&emit);
            while i >= g.next + window {
                tracer.incr("engine.batch.backpressure", 1);
                g = emitted.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let (report, quarantine) = supervise(w, i);
        if let Some(q) = &quarantine {
            lock(&quarantined).push(q.clone());
        }
        ran.fetch_add(1, Ordering::Relaxed);
        tracer.incr("engine.batch.machines", 1);
        let mut g = lock(&emit);
        g.pending.insert(i, (report, quarantine));
        tracer.gauge("engine.batch.queue.depth", g.pending.len() as i64);
        loop {
            while completed.contains(&g.next) {
                g.next += 1;
            }
            let at = g.next;
            let Some((r, q)) = g.pending.remove(&at) else {
                break;
            };
            (g.sink)(at, r, q.as_ref());
            g.next += 1;
        }
        drop(g);
        emitted.notify_all();
    };

    std::thread::scope(|outer| {
        // The watchdog lives in an outer scope so it can observe the
        // workers' slots for the whole sweep, then exit once they drain.
        if let (Some(limit), Some(slots)) = (bcfg.watchdog, &watch_slots) {
            let workers_done = &workers_done;
            outer.spawn(move || {
                let poll = (limit / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
                while !workers_done.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    for slot in slots {
                        let mut g = lock(slot);
                        if let Some(r) = g.as_mut() {
                            let elapsed = r.started.elapsed();
                            if r.phase == 0 && elapsed >= limit {
                                // Rung 1: cooperative cancel. The run
                                // unwinds at its next ctl charge and keeps
                                // its Degraded best-so-far.
                                r.stop.store(true, Ordering::Relaxed);
                                r.phase = 1;
                                tracer.incr("engine.batch.watchdog.cancel", 1);
                            } else if r.phase == 1 && elapsed >= limit + limit {
                                // Rung 2: the cancel was not honored in
                                // another full limit — mark for quarantine
                                // when (if) the attempt returns.
                                r.phase = 2;
                                tracer.incr("engine.batch.watchdog.quarantine", 1);
                            }
                        }
                    }
                }
            });
        }
        std::thread::scope(|s| {
            for w in 0..workers {
                let deques = &deques;
                let cursor = &cursor;
                let run_one = &run_one;
                s.spawn(move || loop {
                    // 1. Own deque, front first (ascending indices keep the
                    //    worker close to the emission cursor).
                    if let Some(i) = lock(&deques[w]).pop_front() {
                        run_one(w, i);
                        continue;
                    }
                    // 2. Claim the next shard from the atomic cursor.
                    let sh = cursor.fetch_add(1, Ordering::Relaxed);
                    if sh < num_shards {
                        tracer.incr("engine.batch.shards", 1);
                        let start = sh * shard;
                        let end = ((sh + 1) * shard).min(len);
                        let mut q = lock(&deques[w]);
                        q.extend((start..end).filter(|i| !completed.contains(i)));
                        continue;
                    }
                    // 3. Cursor exhausted: steal the back half of the
                    //    fullest sibling deque.
                    let victim = (0..workers)
                        .filter(|&v| v != w)
                        .max_by_key(|&v| lock(&deques[v]).len());
                    let stolen: VecDeque<usize> = match victim {
                        Some(v) => {
                            let mut q = lock(&deques[v]);
                            let keep = q.len() - q.len() / 2;
                            q.split_off(keep)
                        }
                        None => VecDeque::new(),
                    };
                    if stolen.is_empty() {
                        // Nothing left anywhere reachable: done. (A machine
                        // still *running* on a sibling is not stealable.)
                        break;
                    }
                    tracer.incr("engine.batch.steals", 1);
                    *lock(&deques[w]) = stolen;
                });
            }
        });
        workers_done.store(true, Ordering::Release);
    });

    // Every machine completed or was skipped, so the reorder buffer fully
    // drained once the trailing completed indices are stepped over.
    {
        let mut g = lock(&emit);
        while completed.contains(&g.next) {
            g.next += 1;
        }
        debug_assert_eq!(g.next, len);
        debug_assert!(g.pending.is_empty());
    }

    let mut quarantined = std::mem::take(&mut *lock(&quarantined));
    quarantined.sort_by_key(|q| q.index);
    BatchReport {
        machines: ran.load(Ordering::Relaxed),
        retries: retries_taken.load(Ordering::Relaxed),
        quarantined,
    }
}

/// FNV-1a over a report fingerprint: the short replay key embedded in
/// stream lines so byte-identity across worker counts is checkable from the
/// JSONL alone (the journal reuses it to checksum whole records).
pub(crate) fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-machine outcome tallies accumulated by a [`StreamWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTally {
    /// Machines whose portfolio produced a completed best result.
    pub solved: usize,
    /// Machines with only a degraded (anytime) fallback.
    pub degraded: usize,
    /// Machines with neither.
    pub unresolved: usize,
}

/// The stream-level outcome class of one machine line. Journals persist it
/// (one character) so a resumed sweep can rebuild its tally without
/// re-parsing replayed report lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineClass {
    /// A completed best result exists.
    Solved,
    /// Only a degraded (anytime) fallback exists.
    Degraded,
    /// Neither.
    Unresolved,
}

impl MachineClass {
    /// The stream class of a report (what [`StreamWriter::report`] tallies).
    pub fn of(rep: &PortfolioReport) -> MachineClass {
        if rep.best().is_some() {
            MachineClass::Solved
        } else if rep.best_degraded().is_some() {
            MachineClass::Degraded
        } else {
            MachineClass::Unresolved
        }
    }

    /// One-character journal tag.
    pub fn tag(self) -> char {
        match self {
            MachineClass::Solved => 's',
            MachineClass::Degraded => 'd',
            MachineClass::Unresolved => 'u',
        }
    }

    /// Parses a journal tag.
    pub fn from_tag(c: char) -> Option<MachineClass> {
        Some(match c {
            's' => MachineClass::Solved,
            'd' => MachineClass::Degraded,
            'u' => MachineClass::Unresolved,
            _ => return None,
        })
    }
}

/// Incremental `nova-bench-stream/1` JSONL writer: a header line, one
/// report line per machine (in emission order — machine-index order when
/// fed from [`run_batch`]), and a final summary line carrying wall time and
/// machines/sec throughput. Memory is O(1) in the corpus: each line is
/// serialized and flushed from the report it came from, nothing is
/// retained.
///
/// ```text
/// {"schema":"nova-bench-stream/1","corpus":"machines=3,...","machines":3,"batch_jobs":2}
/// {"machine":"synth-000000","best":"ihybrid","area":112,...,"fingerprint":"9f3c..."}
/// ...
/// {"summary":{"machines":3,"solved":3,"degraded":0,"unresolved":0,"wall_ms":41.2,"machines_per_sec":72.8}}
/// ```
pub struct StreamWriter<W: Write> {
    w: W,
    start: Instant,
    count: usize,
    tally: StreamTally,
    /// Whether machine lines and the summary carry wall-clock fields.
    /// `false` (journaled/deterministic streams) makes every byte of the
    /// stream a pure function of the corpus and config, which is what lets
    /// a kill-and-resume merge be byte-identical to an uninterrupted run.
    timings: bool,
}

impl<W: Write> StreamWriter<W> {
    /// Writes the header line and starts the throughput clock. With
    /// `timings: false` (deterministic mode) the wall-clock fields
    /// (`wall_ms`, `stages_ms`, `machines_per_sec`) and the header's
    /// `batch_jobs` are omitted from every line; journaled sweeps use this so
    /// interrupted-and-resumed output is byte-identical to an uninterrupted
    /// run.
    pub fn new(
        mut w: W,
        corpus: &str,
        machines: usize,
        batch_jobs: usize,
        timings: bool,
    ) -> io::Result<Self> {
        let mut pairs = vec![
            ("schema".into(), Json::str("nova-bench-stream/1")),
            ("corpus".into(), Json::str(corpus)),
            ("machines".into(), Json::uint(machines as u64)),
        ];
        // Worker count is an execution detail, not content: deterministic
        // (journaled) streams omit it so a resume at a different
        // `--batch-jobs` still merges byte-identically.
        if timings {
            pairs.push(("batch_jobs".into(), Json::uint(batch_jobs as u64)));
        }
        let header = Json::Obj(pairs);
        writeln!(w, "{}", header.to_compact())?;
        Ok(StreamWriter {
            w,
            start: Instant::now(),
            count: 0,
            tally: StreamTally::default(),
            timings,
        })
    }

    /// Renders one machine line (no trailing newline): the `nova-bench/1`
    /// machine object plus its timing-stripped fingerprint. Exposed so the
    /// journaling CLI can persist the exact bytes it streams.
    pub fn render_line(rep: &PortfolioReport, timings: bool) -> String {
        let mut line = machine_summary_json(rep, timings);
        if let Json::Obj(pairs) = &mut line {
            pairs.push((
                "fingerprint".into(),
                Json::str(format!("{:016x}", fnv64(&report_fingerprint(rep)))),
            ));
        }
        line.to_compact()
    }

    /// Writes one machine's report line.
    pub fn report(&mut self, rep: &PortfolioReport) -> io::Result<()> {
        let line = Self::render_line(rep, self.timings);
        self.write_raw(&line, MachineClass::of(rep))
    }

    /// Writes a pre-rendered machine line (journal replay): counts and
    /// tallies it exactly as [`StreamWriter::report`] would have.
    pub fn write_raw(&mut self, line: &str, class: MachineClass) -> io::Result<()> {
        self.count += 1;
        match class {
            MachineClass::Solved => self.tally.solved += 1,
            MachineClass::Degraded => self.tally.degraded += 1,
            MachineClass::Unresolved => self.tally.unresolved += 1,
        }
        writeln!(self.w, "{line}")
    }

    /// Writes the summary line, with the sweep's quarantine list folded in,
    /// and returns `(tally, machines/sec)`. `quarantined` is always present,
    /// and a non-empty list adds a `quarantine` array (index / machine /
    /// attempts / reason). In deterministic mode the wall-clock fields are
    /// omitted.
    pub fn finish(mut self, quarantine: &[QuarantineRecord]) -> io::Result<(StreamTally, f64)> {
        let wall = self.start.elapsed();
        let per_sec = throughput(self.count, wall);
        let mut pairs = vec![
            ("machines".into(), Json::uint(self.count as u64)),
            ("solved".into(), Json::uint(self.tally.solved as u64)),
            ("degraded".into(), Json::uint(self.tally.degraded as u64)),
            (
                "unresolved".into(),
                Json::uint(self.tally.unresolved as u64),
            ),
            ("quarantined".into(), Json::uint(quarantine.len() as u64)),
        ];
        if !quarantine.is_empty() {
            pairs.push((
                "quarantine".into(),
                Json::Arr(
                    quarantine
                        .iter()
                        .map(|q| {
                            Json::Obj(vec![
                                ("index".into(), Json::uint(q.index as u64)),
                                ("machine".into(), Json::str(&q.machine)),
                                ("attempts".into(), Json::uint(q.attempts as u64)),
                                ("reason".into(), Json::str(&q.reason)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if self.timings {
            pairs.push(("wall_ms".into(), Json::Float(wall.as_secs_f64() * 1e3)));
            pairs.push(("machines_per_sec".into(), Json::Float(per_sec)));
        }
        let summary = Json::Obj(vec![("summary".into(), Json::Obj(pairs))]);
        writeln!(self.w, "{}", summary.to_compact())?;
        self.w.flush()?;
        Ok((self.tally, per_sec))
    }
}

/// Machines/sec over a wall time, saturating instead of dividing by zero.
pub fn throughput(machines: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        machines as f64 / secs
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_source_filters_and_names() {
        let all = SuiteSource::filtered(&[]);
        assert!(all.len() > 30, "embedded suite should be Table I sized");
        let some = SuiteSource::filtered(&["lion".into(), "bbtas".into()]);
        assert_eq!(some.len(), 2);
        let names: Vec<String> = (0..some.len()).map(|i| some.name(i)).collect();
        assert!(names.contains(&"lion".to_string()));
        assert!(some.machine(0).num_states() > 0);
        assert!(some.describe().starts_with("suite:"));
    }

    #[test]
    fn scale_source_len_matches_spec() {
        let spec = ScaleSpec::parse("machines=5,states=8,inputs=3").unwrap();
        let src: &dyn MachineSource = &spec;
        assert_eq!(src.len(), 5);
        assert_eq!(src.name(3), "synth-000003");
        assert_eq!(src.machine(3).num_states(), 8);
        assert_eq!(src.describe(), spec.spec_string());
    }

    #[test]
    fn batch_config_auto_sizing_is_sane() {
        let b = BatchConfig::default();
        assert_eq!(b.batch_jobs, 1);
        assert_eq!(b.effective_shard(100_000, 4), 64);
        assert_eq!(b.effective_shard(10, 4), 1);
        assert!(b.effective_window(4, 64) >= 16);
        let fixed = BatchConfig {
            shard: 7,
            window: 3,
            ..BatchConfig::default()
        };
        assert_eq!(fixed.effective_shard(100, 4), 7);
        assert_eq!(fixed.effective_window(4, 7), 3);
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), fnv64("a"));
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn throughput_handles_zero_wall() {
        assert!(throughput(10, Duration::ZERO).is_infinite());
        assert!((throughput(10, Duration::from_secs(2)) - 5.0).abs() < 1e-9);
    }
}
