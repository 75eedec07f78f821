//! The MLCask serving daemon.
//!
//! ```text
//! mlcask_server [--stdio | --listen ADDR] [--workload NAME] [--workers N]
//!               [--root DIR] [--coarse-lock]
//!               [--max-sessions N] [--max-inflight N] [--rate BURST:PER_SEC]
//! ```
//!
//! Defaults: stdio transport, `readmission` workload, sequential
//! execution, in-memory store (honouring `MLCASK_BACKEND`), no limits.
//! `--root DIR` opens (or creates) a durable cask workspace instead.

#![forbid(unsafe_code)]

use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_server::limits::{AdmissionControl, RateLimit};
use mlcask_server::service::{Router, ServerOptions};
use mlcask_server::transport::{serve_stdio, serve_tcp};
use mlcask_workloads::common::Workload;
use std::sync::Arc;

fn workload_by_name(name: &str) -> Option<Workload> {
    match name {
        "readmission" => Some(mlcask_workloads::readmission::build()),
        "dpm" => Some(mlcask_workloads::dpm::build()),
        "sa" => Some(mlcask_workloads::sa::build()),
        "autolearn" => Some(mlcask_workloads::autolearn::build()),
        "fusion" => Some(mlcask_workloads::fusion::build()),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mlcask_server [--stdio | --listen ADDR] [--workload NAME] \
         [--workers N] [--root DIR] [--coarse-lock] [--max-sessions N] \
         [--max-inflight N] [--rate BURST:PER_SEC]"
    );
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    match v.and_then(|x| x.parse().ok()) {
        Some(x) => x,
        None => {
            eprintln!("bad or missing value for {flag}");
            usage();
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut listen: Option<String> = None;
    let mut workload = "readmission".to_string();
    let mut workers = 1usize;
    let mut root: Option<String> = None;
    let mut coarse = false;
    let mut admission = AdmissionControl::unlimited();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => listen = None,
            "--listen" => listen = Some(parse_or_usage(args.next(), "--listen")),
            "--workload" => workload = parse_or_usage(args.next(), "--workload"),
            "--workers" => workers = parse_or_usage(args.next(), "--workers"),
            "--root" => root = Some(parse_or_usage(args.next(), "--root")),
            "--coarse-lock" => coarse = true,
            "--max-sessions" => {
                admission.max_sessions = Some(parse_or_usage(args.next(), "--max-sessions"))
            }
            "--max-inflight" => {
                admission.max_inflight = Some(parse_or_usage(args.next(), "--max-inflight"))
            }
            "--rate" => {
                let spec: String = parse_or_usage(args.next(), "--rate");
                let (burst, per_sec) = match spec.split_once(':') {
                    Some((b, r)) => match (b.parse(), r.parse()) {
                        (Ok(b), Ok(r)) => (b, r),
                        _ => usage(),
                    },
                    None => usage(),
                };
                admission.per_tenant_rate = Some(RateLimit { burst, per_sec });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let w = match workload_by_name(&workload) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload `{workload}` (readmission|dpm|sa|autolearn|fusion)");
            std::process::exit(2);
        }
    };
    let opts = ServerOptions {
        parallelism: if workers <= 1 {
            ParallelismPolicy::Sequential
        } else {
            ParallelismPolicy::Parallel(workers)
        },
        coarse_lock: coarse,
        admission,
    };
    let router = match &root {
        Some(dir) => match mlcask_core::workspace::Workspace::durable(dir) {
            Ok(ws) => Router::over(ws, w, opts),
            Err(e) => {
                eprintln!("cannot open durable workspace at {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => Router::in_memory(w, opts),
    };
    let result = match listen {
        Some(addr) => serve_tcp(Arc::new(router), &addr),
        None => serve_stdio(&router).map(|_| ()),
    };
    // With MLCASK_TRACE=<path> set, leave a chrome-trace of the flight
    // recorder's retained spans behind on shutdown.
    if let Some((path, n)) = mlcask_obs::trace::maybe_dump_env() {
        eprintln!("wrote {n} spans to {path}");
    }
    if let Err(e) = result {
        eprintln!("transport error: {e}");
        std::process::exit(1);
    }
}
