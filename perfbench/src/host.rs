//! Host fingerprint, process memory and the benchmark's scratch space.

use std::path::PathBuf;

/// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rustc that built this binary.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The source revision this binary was built from, when known.
pub fn commit() -> &'static str {
    env!("PERFBENCH_COMMIT")
}

/// Peak resident set of this process (`VmHWM`), MiB. Each benchmark
/// invocation runs exactly one workload, so the peak belongs to it alone.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for journals, digests of unpinned seeds and span dumps:
/// `$CARGO_TARGET_DIR/perfbench`, or `perfbench/target/perfbench` when
/// the variable is unset — inside the checkout either way.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let dir = base.join("perfbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}

/// Cumulative (all-state, steal) CPU time of the host from `/proc/stat`,
/// in clock ticks; zeros where it is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total = f.iter().take(8).sum();
    (total, f.get(7).copied().unwrap_or(0))
}

/// Share of host CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings, percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
}

/// Bytes in the kernel's default `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the lowest-numbered CPU it may run on. Returns that CPU, or `None`
/// when the affinity calls fail (the thread then stays unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `CPU_SET_BYTES` bytes
    // holding one CPU the thread was already allowed to use.
    let rc = unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
