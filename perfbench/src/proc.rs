//! Process resource readings from `/proc/self`.

/// Clock ticks per second of the `/proc` CPU counters (Linux `USER_HZ`,
/// 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the whole process (every thread, live
/// or exited) has used so far; 0 where `/proc` is unavailable.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields restart after its ')'.
    // utime and stime are fields 14 and 15, i.e. 12th and 13th after it.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of the process in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
