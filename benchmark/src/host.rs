//! What the harness reads about the machine and its own process, all from `/proc`.
//! The harness spawns no thread, so everything here is a read at a quiet moment.

use parlo::affinity::{pin_to_set, CpuSet};
use std::fs;
use std::sync::OnceLock;

/// Hardware threads available to this process, as counted the first time this is
/// asked — which `run` does before anything pins a thread: the count is taken from the
/// calling thread's affinity mask, and a pinned thread would answer 1.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Lets the calling thread run on every CPU again (best effort).  A pool pins the thread
/// that builds it, and the library sizes a pool's wait policy from
/// `std::thread::available_parallelism()`, which counts only the CPUs the calling
/// thread may run on: a pool built by a pinned thread is built for a one-CPU machine
/// (parked waits; its loops ran 25-30 % slower here).  Called before every pool after
/// the first, so that each is built as the first pool of a process would be.
pub fn release_master() {
    let _ = pin_to_set(&CpuSet::first_n(nproc()));
}

/// Threads every run uses in total, calling thread included: `min(nproc, 4)`.
/// `PARLO_THREADS` is deliberately not consulted (the library does not read it).
pub fn threads() -> usize {
    nproc().min(4)
}

/// What identifies the host a number was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Fingerprint {
    pub fn read() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Fingerprint {
            nproc: nproc(),
            threads: threads(),
            cpu_model,
            kernel,
        }
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

fn self_status() -> String {
    fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// OS threads in this process right now.
pub fn thread_count() -> usize {
    status_field(&self_status(), "Threads").unwrap_or(0) as usize
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_field(&self_status(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

fn tasks() -> impl Iterator<Item = std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
}

/// Involuntary context switches summed over the live threads of the process.
pub fn involuntary_switches() -> u64 {
    tasks()
        .filter_map(|t| fs::read_to_string(t.join("status")).ok())
        .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches"))
        .sum()
}

/// On-CPU time summed over the live threads of the process, seconds (`schedstat`).
pub fn cpu_seconds() -> f64 {
    tasks()
        .filter_map(|t| fs::read_to_string(t.join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum::<u64>() as f64
        * 1e-9
}

/// Hypervisor steal ticks of the whole machine so far (`/proc/stat`, 8th cpu field).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu")?.to_string();
            line.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Dependent multiply-adds in one clock probe: about 50 µs on the reference host.
const PROBE_CHAIN: usize = 25_000;

/// Times one fixed chain of dependent FMAs, ns.  The chain's instruction count never
/// changes, so its duration tracks the speed of the host clock alone.
pub fn clock_probe_ns() -> u64 {
    let start = std::time::Instant::now();
    let mut x = std::hint::black_box(1.000_000_1f64);
    for _ in 0..PROBE_CHAIN {
        x = x.mul_add(1.000_000_119, 1.0e-7);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t    1824 kB\nThreads:\t2\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(1824));
        assert_eq!(status_field(s, "Threads"), Some(2));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "Missing"), None);
    }

    #[test]
    fn thread_budget_is_capped_at_four_and_ignores_the_environment() {
        std::env::set_var("PARLO_THREADS", "64");
        assert_eq!(threads(), nproc().min(4));
    }
}
