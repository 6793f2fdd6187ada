//! Process counters read from `/proc/self`: CPU time split into user and
//! kernel, minor page faults, and the resident-set high-water mark.

use std::fs;

/// `USER_HZ`, the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// The kernel fixes it at 100 on every mainstream Linux architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time and minor faults of the whole process (every thread), and
/// the machine's CPU ticks with the share the hypervisor stole.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
    steal_ticks: u64,
    machine_ticks: u64,
}

impl Usage {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            steal_ticks: self.steal_ticks - earlier.steal_ticks,
            machine_ticks: self.machine_ticks - earlier.machine_ticks,
        }
    }

    /// Share of the machine's CPU time stolen by the hypervisor: time it
    /// ran something else while the machine's CPUs had work.
    pub fn steal_frac(&self) -> f64 {
        self.steal_ticks as f64 / self.machine_ticks.max(1) as f64
    }
}

/// Reads the current process's counters.
///
/// # Panics
///
/// When `/proc/self/stat` is missing or malformed: the benchmark runs on
/// Linux only, and a number it cannot read must not be reported.
pub fn usage() -> Usage {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, starting at field 3 (`state`).
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 {
        fields[n - 3]
            .parse()
            .unwrap_or_else(|_| panic!("stat field {n} is a number"))
    };
    let (steal_ticks, machine_ticks) = machine_ticks();
    Usage {
        minflt: field(10),
        user_s: field(14) as f64 / CLOCK_TICKS_PER_S,
        sys_s: field(15) as f64 / CLOCK_TICKS_PER_S,
        steal_ticks,
        machine_ticks,
    }
}

/// Machine-wide CPU time from the `cpu` line of `/proc/stat`, in clock
/// ticks: `(stolen, total)`.
fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat starts with the cpu line")
        .split_whitespace()
        .map(|f| f.parse().expect("cpu times are numbers"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    (fields[7], fields[..8].iter().sum())
}

/// The resident-set high-water mark (`VmHWM`) in KiB.
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn hwm_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported")
}
