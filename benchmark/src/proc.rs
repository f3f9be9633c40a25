//! What the kernel says about this process, read from `/proc`.

use std::fs;

/// `/proc/*/stat` reports CPU time in clock ticks of this many per
/// second (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// Current resident set size of this process (`VmRSS`), in KiB.
pub fn rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmRSS")
}

/// User and system CPU seconds this process has used, exited threads
/// included.
pub fn cpu_secs() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. the 12th and 13th after it.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / TICKS_PER_SEC);
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// Involuntary context switches of the calling thread.
pub fn thread_invol_ctxsw() -> u64 {
    let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    status_field(&status, "nonvoluntary_ctxt_switches")
}

/// Involuntary context switches summed over the threads alive now.
pub fn live_threads_invol_ctxsw() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// The first three fields of `/proc/loadavg`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tgate\nVmHWM:\t  123456 kB\nnonvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(status, "VmHWM"), 123456);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), 42);
        assert_eq!(status_field(status, "VmRSS"), 0);
    }

    #[test]
    fn this_process_has_memory_and_cpu_time() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let (user, sys) = cpu_secs();
        assert!(user + sys > 0.0, "{x}");
    }
}
