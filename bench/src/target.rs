//! What a workload drives: the daemon child process in a measured run, the
//! same `Router` in-process in the traced replay. The workload code is one
//! and the same, so the replay issues the identical script by construction.

use crate::script::Req;
use std::time::Duration;

/// Which transport the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `--stdio`: one client, the child's pipes.
    Stdio,
    /// `--listen 127.0.0.1:0`: any number of connections.
    Tcp,
}

/// How to start a server instance.
#[derive(Debug, Clone)]
pub struct Spec {
    pub transport: Transport,
    /// `--workload`.
    pub pipeline: String,
    /// `--workers`.
    pub workers: usize,
    /// `--root <fresh dir>` (durable cask store) or the in-memory default.
    pub durable: bool,
}

/// CPU time and peak memory of the serving process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// User + system time consumed so far, in seconds (10 ms granularity).
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), in MiB.
    pub peak_rss_mib: f64,
}

/// A closed-loop connection: one request out, one reply in.
pub trait Endpoint: Send {
    /// Sends `req` and blocks for its reply. Returns the reply line and the
    /// round-trip time, or `None` when the server is gone (crashed, or
    /// killed as hung).
    fn call(&mut self, req: &Req) -> Option<(&str, Duration)>;
}

/// A started, ready server.
pub trait Instance {
    /// The stdio connection (once), or a new TCP connection.
    fn connect(&mut self) -> std::io::Result<Box<dyn Endpoint>>;
    /// CPU consumed and peak memory so far.
    fn proc_stats(&self) -> ProcStats;
}

/// Starts server instances; each is torn down when dropped.
pub trait Target: Sync {
    /// Starts an instance and waits until it answers.
    fn start(&self, spec: &Spec) -> std::io::Result<Box<dyn Instance + '_>>;
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Parses the utime and stime fields of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Parses `VmHWM:   123456 kB` out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// [`ProcStats`] of process `pid` (`"self"` for this one); zeros when
/// `/proc` is unreadable (the process is gone).
pub fn proc_stats_of(pid: &str) -> ProcStats {
    let read = |file: &str| std::fs::read_to_string(format!("/proc/{pid}/{file}"));
    ProcStats {
        cpu_s: read("stat")
            .ok()
            .and_then(|s| parse_stat_cpu_s(&s))
            .unwrap_or(0.0),
        peak_rss_mib: read("status")
            .ok()
            .and_then(|s| parse_status_hwm_mib(&s))
            .unwrap_or(0.0),
    }
}

/// A fresh, unique directory name under `tmp` (not created).
pub fn fresh_root(tmp: &std::path::Path) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    tmp.join(format!(
        "root-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers() {
        let stat = "4242 (ml cask) server) S 1 4242 4242 0 -1 4194304 500 0 0 0 123 45 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(1.68));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name: x\n"), None);
        assert!(proc_stats_of("self").peak_rss_mib > 0.0);
    }
}
