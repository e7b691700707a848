//! The host fingerprint stamped on every result, peak memory, and the one
//! CPU the benchmark runs on.

use std::process::{Command, Stdio};

/// Where a result was measured.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

/// Runs `cmd args` to completion and returns its trimmed stdout, or
/// `unknown` when the tool is missing or fails (a source checkout need not
/// be a git repository).
fn tool_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint() -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        rustc: tool_output("rustc", &["--version"]),
        git_rev: tool_output("git", &["rev-parse", "HEAD"]),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU. On a host whose
/// virtual CPUs are descheduled now and then, a hand-off between threads on
/// two CPUs waits for the other CPU to run again, which no reference walk
/// on this one measures. On one CPU, the `serve` daemon's hand-offs are
/// plain context switches. `None` where the host does not allow it.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: a bitmask of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` names a CPU the thread may already run on.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
