//! What the ledger reads from `/proc`: CPU time, peak RSS and thread count
//! of the node processes, and the start-of-run sweep for daemons a previous
//! (killed) harness left behind.

use std::path::Path;
use std::process::Command;

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which Linux fixes at
/// 100 for userspace regardless of the kernel's CONFIG_HZ.
const USER_HZ: f64 = 100.0;

/// utime + stime, in seconds, from the text of `/proc/<pid>/stat`. The comm
/// field may itself contain spaces and parentheses, so fields are counted
/// from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `<Key>:   <n> kB`-or-plain-number line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    line.strip_prefix(':')?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU seconds consumed so far by `pid` (0 once it is gone).
pub fn cpu_seconds(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_field(pid, "VmHWM") as f64 / 1024.0
}

/// Threads of `pid`.
pub fn threads(pid: u32) -> u64 {
    status_field(pid, "Threads")
}

fn status_field(pid: u32, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Kill every process whose name is exactly `dpq-node` and whose command
/// line carries `marker` (the run-directory prefix only this harness uses),
/// and remove run directories under `out_dir`. A harness that died on
/// SIGKILL cannot run its destructors; its daemons would otherwise spin on
/// and take CPU from the next measurement.
pub fn sweep_stale(out_dir: &Path, marker: &str) -> usize {
    let mut killed = 0;
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        if comm.trim_end() != "dpq-node" {
            continue;
        }
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if !String::from_utf8_lossy(&cmdline).contains(marker) {
            continue;
        }
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        killed += 1;
    }
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("run-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    killed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_is_fields_14_and_15_after_the_last_paren() {
        // A comm with spaces and a ')' inside must not shift the fields.
        let stat = "4242 (dpq node) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    123 77 0 0 20 0 13 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(2.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tdpq-node\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nThreads:\t13\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_field(status, "Threads"), Some(13));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_field("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(peak_rss_mb(me) > 0.0);
        assert!(threads(me) >= 1);
    }
}
