//! Process-level gauges read from `/proc/self` (Linux only, like the
//! daemon's epoll transport).

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux ABI; reading it properly needs `sysconf`, i.e. `libc`
/// or `unsafe`, which this package forbids.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks / USER_HZ)
        .ok_or_else(|| "/proc/self/stat: cannot find utime/stime".to_string())
}

fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    // Field 2 (comm) may contain spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: f64 = fields.next()?.parse().ok()?; // field 15
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_formats() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120.0));
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(300.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        while cpu_seconds().unwrap() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds().unwrap() > before);
    }
}
