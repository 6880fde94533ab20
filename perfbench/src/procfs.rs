//! The Linux `/proc` readers the benchmark measures processes with.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI on every
/// architecture the workspace targets).
const USER_HZ: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
pub struct Stat {
    /// Process state letter (`R`, `S`, `Z`, ...).
    pub state: char,
    /// User plus system CPU time of every thread, in seconds.
    pub cpu_s: f64,
}

/// Reads `/proc/<pid>/stat`; `pid` may be `"self"`. `None` once the
/// process has been reaped.
pub fn stat(pid: &str) -> Option<Stat> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses; the fixed
    // fields start after the last ')'. Field 3 (state) comes first, so
    // utime and stime (fields 14 and 15) sit at offsets 11 and 12.
    let fields: Vec<&str> = text
        .get(text.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    let state = fields.first()?.chars().next()?;
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(Stat {
        state,
        cpu_s: (utime + stime) / USER_HZ,
    })
}

/// CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    stat("self").map_or(0.0, |s| s.cpu_s)
}

/// The process's resident-set high-water mark (`VmHWM`) in MB; `None`
/// once it has exited.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// next [`peak_rss_mb`] read covers only what ran since. Best effort:
/// where the kernel refuses, the mark keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}
