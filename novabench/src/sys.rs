//! Process measurements taken from outside the program under test: CPU
//! time through `clock_gettime`, peak resident set from `/proc`, and the
//! environment stamp printed with every result.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Process CPU time (user + system, all threads) so far.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness builds for), and the
    // clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Process CPU seconds per wall second over a timed region, sampled by a
/// helper thread in windows of [`CpuMeter::WINDOW`]. The figure is the
/// median window, so outside load that lands on a few windows moves it
/// little.
pub struct CpuMeter {
    stop: mpsc::Sender<()>,
    sampler: JoinHandle<Vec<f64>>,
}

impl CpuMeter {
    /// Length of one sampling window.
    pub const WINDOW: Duration = Duration::from_secs(1);

    /// Starts sampling.
    pub fn start() -> CpuMeter {
        let (stop, stopped) = mpsc::channel::<()>();
        let sampler = std::thread::spawn(move || {
            let mut ratios = Vec::new();
            let (mut t, mut cpu) = (Instant::now(), process_cpu());
            loop {
                let more = matches!(
                    stopped.recv_timeout(Self::WINDOW),
                    Err(RecvTimeoutError::Timeout)
                );
                let (now, now_cpu) = (Instant::now(), process_cpu());
                // The last, partial window counts only when it is the only one.
                if more || ratios.is_empty() {
                    let wall = now.duration_since(t).as_secs_f64();
                    ratios.push(now_cpu.saturating_sub(cpu).as_secs_f64() / wall);
                }
                if !more {
                    return ratios;
                }
                (t, cpu) = (now, now_cpu);
            }
        });
        CpuMeter { stop, sampler }
    }

    /// Stops sampling and returns the median window's CPU per wall second.
    pub fn finish(self) -> f64 {
        // The sampler only ever ends by seeing this message (or the sender
        // dropped), so a failed send still leaves it to end.
        let _ = self.stop.send(());
        let ratios = self.sampler.join().expect("the CPU sampler panicked");
        crate::quantile(&ratios, 0.5)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available parallelism, the figure every thread count here derives from.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the toolchain on the path (the one cargo built with).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
