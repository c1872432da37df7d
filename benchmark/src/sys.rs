//! What the benchmark reads from the operating system: CPU time, peak
//! memory, how fast the machine runs right now, and the machine
//! description recorded beside every result.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// `USER_HZ`: the unit of the CPU columns of `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI, whatever the kernel's own tick rate.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used so far, split into its own threads
/// and the children it has already reaped (`utime + stime` and
/// `cutime + cstime` of `/proc/self/stat`). A child's time only appears
/// once it has been waited for.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub own_s: f64,
    pub children_s: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis, where field 3 begins.
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let ticks: Vec<f64> = after_comm
            .split_whitespace()
            .skip(11) // fields 3..=13
            .take(4) // utime stime cutime cstime
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let t = |i: usize| ticks.get(i).copied().unwrap_or(0.0) / CLOCK_TICKS_PER_S;
        CpuTimes {
            own_s: t(0) + t(1),
            children_s: t(2) + t(3),
        }
    }

    pub fn total_s(&self) -> f64 {
        self.own_s + self.children_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            own_s: self.own_s - earlier.own_s,
            children_s: self.children_s - earlier.children_s,
        }
    }
}

/// Restarts the kernel's peak-RSS watermark of this process from its
/// current resident set (`echo 5 > /proc/self/clear_refs`), so that the
/// next reading is the peak since now. Where the kernel refuses, the
/// watermark simply keeps growing and readings are peaks since start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What [`calibration_s`] takes on the machine class the baseline was
/// measured on, in its fast state. Only ratios between runs matter; the
/// constant just keeps the scaled times near the measured ones.
pub const CALIBRATION_REFERENCE_S: f64 = 0.020;

/// Times a fixed piece of single-threaded work that belongs to the
/// benchmark, not to the program: 8 M dependent multiply-adds through a
/// 1 MiB table at xorshift-random indices. The shared VMs this runs on
/// execute identical work at speeds tens of percent apart for minutes at a
/// time; the ratio of this timing to the reference is the machine's speed
/// at this moment, which the time metrics are scaled by (`measure.rs`).
pub fn calibration_s() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let started = Instant::now();
    for _ in 0..8_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & ((1 << 17) - 1)];
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(*slot);
        *slot = acc ^ x;
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// First line a command prints, or "unknown" when it cannot run (the
/// driver's checkout is not a git repository, for one).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
