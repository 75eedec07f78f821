//! The daemon under test: the real `mlcask_server` binary as a child
//! process, driven over its stdio or TCP transport.
//!
//! Every child is owned by a [`Daemon`] whose `Drop` kills it, waits for it
//! and removes its store directory, so a panic or an early return cannot
//! leak a process or a tmp root. A watchdog thread (asleep unless a request
//! is overdue) kills a daemon that stops answering; the blocked read then
//! sees end-of-file and the request counts as failed.

use crate::script::Req;
use crate::target::{self, Endpoint, Instance, ProcStats, Spec, Target, Transport};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long one reply may take before the daemon is declared hung. The
/// slowest legitimate request (a cold merge) takes about a second.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Starts `mlcask_server` children.
#[derive(Debug, Clone)]
pub struct DaemonTarget {
    /// The `mlcask_server` binary.
    pub server_bin: PathBuf,
    /// Scratch directory for store roots (inside the checkout).
    pub tmp: PathBuf,
    /// Reply timeout; shortened by the hung-daemon test.
    pub reply_timeout: Duration,
}

impl DaemonTarget {
    pub fn new(server_bin: PathBuf, tmp: PathBuf) -> DaemonTarget {
        DaemonTarget {
            server_bin,
            tmp,
            reply_timeout: REPLY_TIMEOUT,
        }
    }
}

impl Target for DaemonTarget {
    fn start(&self, spec: &Spec) -> std::io::Result<Box<dyn Instance + '_>> {
        let mut daemon = Daemon::spawn(self, spec)?;
        // Ready means it answers: the daemon builds its workload (datasets
        // included) before it reads the first line.
        let mut probe = daemon.connect_client()?;
        match probe.call_line(r#"{"id":0,"method":"ping"}"#) {
            Some((reply, _)) if reply.contains("pong") => {}
            other => {
                return Err(std::io::Error::other(format!(
                    "daemon not ready: {other:?}"
                )))
            }
        }
        match spec.transport {
            Transport::Stdio => daemon.stdio_client = Some(probe),
            Transport::Tcp => drop(probe),
        }
        Ok(Box::new(daemon))
    }
}

/// A line-oriented connection to a daemon.
pub struct Client {
    writer: Box<dyn Write + Send>,
    reader: Box<dyn BufRead + Send>,
    watch: Arc<Watch>,
    out: Vec<u8>,
    reply: String,
}

impl Client {
    /// Sends one request line (a single write, newline included) and
    /// blocks for its reply line.
    pub fn call_line(&mut self, line: &str) -> Option<(&str, Duration)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reply.clear();
        self.watch.arm();
        let start = Instant::now();
        let ok = self.writer.write_all(&self.out).is_ok()
            && self.writer.flush().is_ok()
            && matches!(self.reader.read_line(&mut self.reply), Ok(n) if n > 0);
        let rtt = start.elapsed();
        self.watch.disarm();
        if !ok || !self.reply.ends_with('\n') {
            return None;
        }
        Some((self.reply.trim_end_matches('\n'), rtt))
    }
}

impl Endpoint for Client {
    fn call(&mut self, req: &Req) -> Option<(&str, Duration)> {
        self.call_line(&req.line)
    }
}

/// The deadline a watchdog enforces, shared by a daemon's clients.
struct Watch {
    /// Requests in flight right now.
    inflight: AtomicU64,
    /// Millisecond timestamp (since `epoch`) of the latest armed request.
    /// With closed-loop clients whose replies normally take far less than
    /// the timeout, "latest" and "oldest" differ by nothing that matters.
    armed_at_ms: AtomicU64,
    epoch: Instant,
    stop: AtomicBool,
}

impl Watch {
    fn arm(&self) {
        self.armed_at_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    fn disarm(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    fn overdue(&self, timeout: Duration) -> bool {
        self.inflight.load(Ordering::Relaxed) > 0
            && self.epoch.elapsed().as_millis() as u64
                > self.armed_at_ms.load(Ordering::Relaxed) + timeout.as_millis() as u64
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    root: Option<PathBuf>,
    addr: Option<String>,
    stdio: Option<(ChildStdin, ChildStdout)>,
    stdio_client: Option<Client>,
    watch: Arc<Watch>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the server as `spec` says, with a fresh store directory when
    /// durable, and the `MLCASK_*` environment cleared so the daemon runs
    /// with its defaults whatever the caller exported.
    fn spawn(target: &DaemonTarget, spec: &Spec) -> std::io::Result<Daemon> {
        let root = spec.durable.then(|| target::fresh_root(&target.tmp));
        let mut cmd = Command::new(&target.server_bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("MLCASK_") {
                cmd.env_remove(key);
            }
        }
        cmd.args(["--workload", &spec.pipeline])
            .args(["--workers", &spec.workers.to_string()]);
        if let Some(dir) = &root {
            std::fs::create_dir_all(&target.tmp)?;
            cmd.arg("--root").arg(dir);
        }
        match spec.transport {
            Transport::Stdio => cmd
                .arg("--stdio")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
            Transport::Tcp => cmd
                .args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped()),
        };
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let stdio = match spec.transport {
            Transport::Stdio => Some((
                child.stdin.take().expect("stdin was piped"),
                child.stdout.take().expect("stdout was piped"),
            )),
            Transport::Tcp => None,
        };
        let stderr = child.stderr.take();
        // From here on `daemon`'s Drop reaps the child on every path.
        let mut daemon = Daemon {
            child: Arc::new(Mutex::new(child)),
            pid,
            root,
            addr: None,
            stdio,
            stdio_client: None,
            watch: Arc::new(Watch {
                inflight: AtomicU64::new(0),
                armed_at_ms: AtomicU64::new(0),
                epoch: Instant::now(),
                stop: AtomicBool::new(false),
            }),
            watchdog: None,
        };
        if let Some(stderr) = stderr {
            // The daemon announces the port it bound on stderr.
            let mut line = String::new();
            BufReader::new(stderr).read_line(&mut line)?;
            let addr = line
                .trim()
                .rsplit(' ')
                .next()
                .filter(|a| a.contains(':'))
                .ok_or_else(|| std::io::Error::other(format!("no listen address in `{line}`")))?;
            daemon.addr = Some(addr.to_string());
        }
        let (child, watch) = (Arc::clone(&daemon.child), Arc::clone(&daemon.watch));
        let timeout = target.reply_timeout;
        daemon.watchdog = Some(std::thread::spawn(move || {
            while !watch.stop.load(Ordering::Relaxed) {
                if watch.overdue(timeout) {
                    let _ = child.lock().map(|mut c| c.kill());
                    return;
                }
                std::thread::park_timeout((timeout / 4).min(Duration::from_millis(200)));
            }
        }));
        Ok(daemon)
    }

    fn connect_client(&mut self) -> std::io::Result<Client> {
        if let Some(client) = self.stdio_client.take() {
            return Ok(client);
        }
        let (writer, reader): (Box<dyn Write + Send>, Box<dyn BufRead + Send>) = match &self.addr {
            Some(addr) => {
                let conn = TcpStream::connect(addr)?;
                // One write per request, so the client's Nagle setting is
                // moot; set it anyway so no delay can be blamed on this side.
                conn.set_nodelay(true)?;
                (Box::new(conn.try_clone()?), Box::new(BufReader::new(conn)))
            }
            None => {
                let (stdin, stdout) = self
                    .stdio
                    .take()
                    .ok_or_else(|| std::io::Error::other("stdio client already taken"))?;
                (Box::new(stdin), Box::new(BufReader::new(stdout)))
            }
        };
        Ok(Client {
            writer,
            reader,
            watch: Arc::clone(&self.watch),
            out: Vec::new(),
            reply: String::new(),
        })
    }
}

impl Instance for Daemon {
    fn connect(&mut self) -> std::io::Result<Box<dyn Endpoint>> {
        Ok(Box::new(self.connect_client()?))
    }

    fn proc_stats(&self) -> ProcStats {
        target::proc_stats_of(&self.pid.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.watch.stop.store(true, Ordering::Relaxed);
        if let Ok(mut child) = self.child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(handle) = self.watchdog.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Op;
    use crate::workloads::{exchange, Tally};
    use std::os::unix::fs::PermissionsExt;

    /// A stand-in daemon: answers the readiness ping, then never again.
    fn hanging_server(dir: &std::path::Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("mlcask_server");
        std::fs::write(
            &path,
            "#!/bin/sh\nread line\necho '{\"id\":0,\"result\":\"pong\"}'\nexec sleep 600\n",
        )
        .unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn hung_daemon_times_out_counts_as_failed_and_is_reaped() {
        let dir = std::env::temp_dir().join(format!("caskbench-hang-{}", std::process::id()));
        let target = DaemonTarget {
            server_bin: hanging_server(&dir),
            tmp: dir.join("tmp"),
            reply_timeout: Duration::from_millis(300),
        };
        let spec = Spec {
            transport: Transport::Stdio,
            pipeline: "readmission".into(),
            workers: 1,
            durable: true,
        };
        let mut daemon = Daemon::spawn(&target, &spec).unwrap();
        let pid = daemon.pid;
        let mut probe = daemon.connect_client().unwrap();
        assert!(probe.call_line(r#"{"id":0,"method":"ping"}"#).is_some());

        let reqs: Vec<Req> = (1..=3)
            .map(|id| Req {
                id,
                op: Op::Read,
                method: "head",
                line: format!(r#"{{"id":{id},"method":"head"}}"#),
            })
            .collect();
        let started = Instant::now();
        let mut tally = Tally::default();
        tally.record_all(exchange(&mut probe, &reqs));
        // The watchdog killed the child; the first request timed out and the
        // rest were not even sent.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(tally.read_us.is_empty());

        drop(probe);
        drop(daemon);
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "child reaped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
