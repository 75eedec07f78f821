//! The MLCask serving daemon.
//!
//! ```text
//! mlcask_server [--stdio | --listen ADDR] [--workload NAME] [--workers N]
//!               [--root DIR] [--coarse-lock]
//!               [--max-sessions N] [--max-inflight N] [--rate BURST:PER_SEC]
//! ```
//!
//! Defaults: stdio transport, `readmission` workload, sequential
//! execution, in-memory store, no limits. `--root DIR` opens (or creates) a
//! durable cask workspace instead. The environment is read once, here
//! ([`Config::from_env`]; README → "Environment" lists what the daemon
//! honours), and a value it cannot read is refused like a bad flag.

#![forbid(unsafe_code)]

use mlcask_core::workspace::Workspace;
use mlcask_obs::config::Config;
use mlcask_obs::trace::recorder;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_server::limits::{AdmissionControl, RateLimit};
use mlcask_server::service::{Router, ServerOptions};
use mlcask_server::transport::{serve_stdio, serve_tcp};
use mlcask_storage::cache::CacheOptions;
use std::sync::Arc;

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
    let config = Config::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    recorder().configure(config.spans, config.capacity);
    recorder().set_slow_threshold(config.slow_threshold);
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
    let w = match mlcask_workloads::by_name(&workload) {
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
    let ws = match &root {
        Some(dir) => {
            let cache = config
                .cache_bytes
                .map(|bytes| CacheOptions::default().with_capacity(bytes));
            Workspace::durable_with(dir, cache).unwrap_or_else(|e| {
                eprintln!("cannot open durable workspace at {dir}: {e}");
                std::process::exit(1);
            })
        }
        None => Workspace::in_memory(),
    };
    let router = Router::over(ws, w, opts);
    let result = match listen {
        Some(addr) => serve_tcp(Arc::new(router), &addr),
        None => serve_stdio(&router).map(|_| ()),
    };
    // Leave a chrome-trace of the flight recorder's retained spans behind
    // on shutdown, if the environment named a place for it.
    if let Some(path) = &config.trace_path {
        match recorder().dump_chrome_trace(path) {
            Ok(n) => eprintln!("wrote {n} spans to {path}"),
            Err(e) => eprintln!("could not write trace to {path}: {e}"),
        }
    }
    if let Err(e) = result {
        eprintln!("transport error: {e}");
        std::process::exit(1);
    }
}
