//! Host-side readings of this process, from `/proc/self`. Host time and
//! simulated time are never mixed: everything here is what the simulator
//! *costs*, nothing here is what it *models*.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// A reading of this process's CPU, fault and run-queue counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostUsage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Nanoseconds spent on a CPU (`schedstat` field 1).
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU (`schedstat` field 2).
    pub wait_ns: u64,
}

impl HostUsage {
    /// Reads the counters now. A field the kernel does not expose reads 0.
    pub fn now() -> HostUsage {
        let mut usage = HostUsage::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // The command name may hold spaces; fields are counted after
            // its closing parenthesis, where `state` is field 3.
            let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
            let fields: Vec<&str> = after.split_whitespace().collect();
            let field = |n: usize| fields.get(n - 3).and_then(|s| s.parse::<u64>().ok());
            usage.minor_faults = field(10).unwrap_or(0);
            usage.user_s = field(14).unwrap_or(0) as f64 / TICKS_PER_S;
            usage.sys_s = field(15).unwrap_or(0) as f64 / TICKS_PER_S;
        }
        if let Ok(sched) = fs::read_to_string("/proc/self/schedstat") {
            let mut it = sched.split_whitespace().map(|s| s.parse::<u64>().ok());
            usage.run_ns = it.next().flatten().unwrap_or(0);
            usage.wait_ns = it.next().flatten().unwrap_or(0);
        }
        usage
    }

    /// Time waited for a CPU over time spent on one: above 0.05 the host
    /// was busy with something else and the pass is marked disturbed.
    pub fn runq_wait_ratio(&self) -> f64 {
        self.wait_ns as f64 / (self.run_ns.max(1)) as f64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
