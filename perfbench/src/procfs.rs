//! Process accounting read from `/proc`: peak RSS, process CPU time and
//! per-thread run-queue wait (each thread's `/proc/self/task/<tid>/schedstat`,
//! which is that thread's `/proc/thread-self/schedstat`). Plain file reads;
//! no `unsafe`, no libc.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// this user-visible `USER_HZ` at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process has consumed, all threads
/// included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may hold spaces; the
    // numbered fields resume after its closing parenthesis at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14 - 3), ticks(15 - 3)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU time the hypervisor stole from this machine's CPUs (summed over
/// CPUs), seconds: the `steal` column of `/proc/stat`.
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// `(on-CPU ns, run-queue wait ns)` from a `schedstat` file.
fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Scheduler statistics of every live thread of this process, by tid.
pub fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(s) = fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            out.insert(tid, s);
        }
    }
    out
}

/// Run-queue wait accumulated between two [`task_schedstats`] samples,
/// seconds. Threads born after `before` count from zero; threads that
/// exited before `after` are lost, so take `after` while the engine's
/// worker threads are still alive.
pub fn runq_wait_between(
    before: &BTreeMap<u64, (u64, u64)>,
    after: &BTreeMap<u64, (u64, u64)>,
) -> f64 {
    let ns: u64 = after
        .iter()
        .map(|(tid, &(_, wait))| wait.saturating_sub(before.get(tid).map_or(0, |b| b.1)))
        .sum();
    ns as f64 / 1e9
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(steal_s() >= 0.0);
        assert!(!task_schedstats().is_empty());
        assert_eq!(parse_schedstat("12 34 5\n"), Some((12, 34)));
    }
}
