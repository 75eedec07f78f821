//! caskbench — wall-clock benchmark of the real `mlcask_server` daemon.
//!
//! ```text
//! caskbench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json's command)
//! caskbench [all]   [--seed N] [--seconds S] [--smoke]      all four workloads, untraced -> bench/out/results.json
//! caskbench trace   [--seed N] [--seconds S] [--smoke]      traced replay + probes      -> bench/out/layers.json
//! caskbench spread  [--runs R] [--seconds S] [--workload W]  R runs per workload (seeds 1..=R): quartile spread per metric
//! caskbench compare A.json B.json                           is B worse than A? (exit 1 on any `worse`)
//! caskbench manifest                                        print BENCHMARK.json from the metric tables
//! ```
//!
//! Run through `bench/run.sh`, which builds the daemon and this program
//! first and runs from the repository root.

mod affinity;
mod check;
mod compare;
mod daemon;
mod layers;
mod metrics;
mod probes;
mod report;
mod rng;
mod script;
mod stats;
mod target;
mod trace;
mod workloads;

use crate::check::Digest;
use crate::daemon::DaemonTarget;
use crate::metrics::{Summary, Values};
use crate::workloads::{Plan, Rep, Scale, ServeCounts, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `BENCHMARK.json`'s `run_seconds`, and the default for `--seconds`.
pub const RUN_SECONDS: u64 = 28;

/// Where results, traces and store roots go (relative to the repository
/// root, which `run.sh` makes the working directory).
const OUT_DIR: &str = "bench/out";

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: u64,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        runs: 10,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_empty() => args.command = word.to_string(),
            file => args.files.push(file.to_string()),
        }
    }
    if args.command.is_empty() {
        args.command = if args.workload.is_some() {
            "one"
        } else {
            "all"
        }
        .to_string();
    }
    Ok(args)
}

/// The daemon binary: built into the same directory as this program.
fn daemon_target() -> Result<DaemonTarget, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate caskbench: {e}"))?;
    let server = exe.with_file_name("mlcask_server");
    if !server.is_file() {
        return Err(format!(
            "{} not found: build it first (bench/run.sh does)",
            server.display()
        ));
    }
    Ok(DaemonTarget::new(server, Path::new(OUT_DIR).join("tmp")))
}

/// What one workload's untraced run produced.
pub struct Outcome {
    pub reps: Vec<Rep>,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub detail: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn of(reps: Vec<Rep>, extra_violations: Vec<String>) -> Outcome {
        let mut violations = extra_violations;
        let (mut attempted, mut failed) = (0, 0);
        for (i, rep) in reps.iter().enumerate() {
            let (a, f) = rep.attempted_failed();
            attempted += a;
            failed += f;
            violations.extend(
                rep.all_violations()
                    .into_iter()
                    .map(|v| format!("rep {i}: {v}")),
            );
            // Same seed, same script, fresh daemon: same replies.
            if rep.digests != reps[0].digests {
                violations.push(format!("rep {i}: reply digests differ from rep 0"));
            }
        }
        let e2e: Vec<Values> = reps.iter().map(metrics::end_to_end_of).collect();
        let detail: Vec<Values> = reps.iter().map(metrics::detail_of).collect();
        Outcome {
            metrics: metrics::summarize(&e2e),
            detail: metrics::summarize(&detail),
            reps,
            attempted,
            failed,
            violations,
        }
    }
}

fn digest_mismatches(
    what: &str,
    ours: &BTreeMap<String, Digest>,
    theirs: &BTreeMap<String, Digest>,
) -> Vec<String> {
    let mut out: Vec<String> = ours
        .iter()
        .filter(|(k, d)| theirs.get(*k) != Some(d))
        .map(|(k, d)| {
            format!(
                "{what}: `{k}` digests {} here, {:?} there",
                d.hex(),
                theirs.get(k).map(Digest::hex)
            )
        })
        .collect();
    if ours.len() != theirs.len() {
        out.push(format!(
            "{what}: {} digests here, {} there",
            ours.len(),
            theirs.len()
        ));
    }
    out
}

/// Runs one workload untraced: repetitions on fresh daemons until the
/// scale's time budget is used. `sequential_digests` is what `cold_collab`
/// answered, when known; `cold_collab_par` must answer the same bytes and
/// runs one untimed reference pass itself otherwise.
fn run_untraced(
    workload: &str,
    plan: &Plan,
    sequential_digests: Option<&BTreeMap<String, Digest>>,
) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let reference = match sequential_digests {
        _ if workload != "cold_collab_par" => None,
        Some(d) => Some(d.clone()),
        None => Some(workloads::cold_rep(plan, 1)?.digests),
    };
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    while plan.scale.another_rep(reps.len(), started.elapsed(), last) {
        let rep_started = Instant::now();
        reps.push(workloads::run_rep(workload, plan)?);
        last = rep_started.elapsed();
    }
    let violations = reference.map_or(Vec::new(), |reference| {
        digest_mismatches("workers 2 vs workers 1", &reps[0].digests, &reference)
    });
    Ok(Outcome::of(reps, violations))
}

/// What one workload's traced run produced.
pub struct Traced {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Writes the spans to `bench/out/trace-<workload>.jsonl`.
    fn write_spans(&self, workload: &str) -> Result<(), String> {
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| trace::write_jsonl(&path, &self.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The traced run of one workload: one untraced daemon repetition (for
/// the reply digest, the untraced CPU cost and the detail latencies), then
/// the in-process replay of the identical script with spans. `probes` are
/// the isolated layer probes' values (workload-independent).
fn run_traced(
    workload: &str,
    plan: &Plan,
    daemon: &DaemonTarget,
    probes: &Values,
) -> std::io::Result<Traced> {
    let untraced = workloads::run_rep(workload, plan)?;
    let mut values = probes.clone();
    values.extend(metrics::detail_of(&untraced));

    let inproc = trace::InProcTarget::new(daemon.tmp.clone());
    let replay = workloads::run_rep(
        workload,
        &Plan {
            target: &inproc,
            scale: Scale {
                serve_counts: Some(ServeCounts::of(&untraced)),
                ..plan.scale
            },
            ..*plan
        },
    )?;
    let spans = inproc.rec.spans();
    values.extend(layers::replay_values(&layers::ReplayInputs {
        spans: &spans,
        notes: &inproc.rec.notes(),
        rep: &replay,
        backend: &inproc.backend_counts,
        counts: *inproc.layer_counts.lock().expect("plain counters"),
        sha256_mib_per_s: values["storage.hash.sha256_mib_per_s"],
        chunk_mib_per_s: values["storage.chunk.chunk_mib_per_s"],
    }));
    let cpu_per_op =
        |rep: &Rep| rep.cpu_s / (rep.measured.attempted - rep.measured.failed).max(1) as f64;
    values.insert(
        "bench.trace_cpu_overhead_share",
        if untraced.cpu_s > 0.0 {
            cpu_per_op(&replay) / cpu_per_op(&untraced) - 1.0
        } else {
            0.0
        },
    );

    let mut violations = untraced.all_violations();
    violations.extend(
        replay
            .all_violations()
            .into_iter()
            .map(|v| format!("replay: {v}")),
    );
    // Daemon ≡ library: the decorators and the missing transport change no
    // byte of any reply. (`serve_mixed` runs for a time, not a script.)
    if workload != "serve_mixed" {
        violations.extend(digest_mismatches(
            "daemon vs in-process replay",
            &untraced.digests,
            &replay.digests,
        ));
    }
    let (a1, f1) = untraced.attempted_failed();
    let (a2, f2) = replay.attempted_failed();
    Ok(Traced {
        values,
        attempted: a1 + a2,
        failed: f1 + f2,
        violations,
        spans,
    })
}

fn scale_of(args: &Args) -> Scale {
    if args.smoke {
        Scale::smoke()
    } else {
        Scale::for_seconds(args.seconds)
    }
}

fn known_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload `{name}` (one of {})",
            WORKLOADS.join(", ")
        ))
    }
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn print_violations(workload: &str, violations: &[String]) {
    for v in violations {
        eprintln!("CHECK FAILED {workload}: {v}");
    }
}

/// `--workload W ...`: the driver contract. Everything but the final JSON
/// line goes to stderr.
fn cmd_one(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    known_workload(workload)?;
    let daemon = daemon_target()?;
    let plan = Plan {
        seed: args.seed,
        scale: scale_of(args),
        target: &daemon,
    };
    let io = |e: std::io::Error| format!("{workload}: {e}");
    let line = if args.trace {
        let probes = probes::run_all(&daemon, args.seed).map_err(io)?;
        let traced = run_traced(workload, &plan, &daemon, &probes).map_err(io)?;
        print_violations(workload, &traced.violations);
        traced.write_spans(workload)?;
        report::contract_line(
            traced.correct(),
            traced.attempted,
            traced.failed,
            metrics::DETAIL
                .iter()
                .chain(metrics::LAYERS)
                .map(|d| (d, traced.values[d.name])),
        )
    } else {
        let outcome = run_untraced(workload, &plan, None).map_err(io)?;
        print_violations(workload, &outcome.violations);
        for d in metrics::END_TO_END {
            eprintln!(
                "{workload} {} reps {:.4?}",
                d.name, outcome.metrics[d.name].reps
            );
        }
        report::contract_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            metrics::END_TO_END
                .iter()
                .map(|d| (d, outcome.metrics[d.name].value)),
        )
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// `all`: the four workloads untraced, every end-to-end metric printed as
/// `workload metric value unit`, results written for `compare`.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let daemon = daemon_target()?;
    let plan = Plan {
        seed: args.seed,
        scale: scale_of(args),
        target: &daemon,
    };
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for workload in WORKLOADS {
        let sequential = outcomes
            .iter()
            .find(|(w, _)| *w == "cold_collab")
            .map(|(_, o)| &o.reps[0].digests);
        let outcome =
            run_untraced(workload, &plan, sequential).map_err(|e| format!("{workload}: {e}"))?;
        for d in metrics::END_TO_END {
            let s = &outcome.metrics[d.name];
            println!(
                "{workload} {} {:.6} {}   (reps {:.6}..{:.6})",
                d.name, s.value, d.unit, s.min, s.max
            );
        }
        for d in metrics::DETAIL {
            println!(
                "{workload} {} {:.6} {}   (no bound)",
                d.name, outcome.detail[d.name].value, d.unit
            );
        }
        print_violations(workload, &outcome.violations);
        outcomes.push((workload, outcome));
    }
    let path = write_out(
        "results.json",
        &report::results_json(args.seed, args.seconds, args.smoke, &outcomes),
    )?;
    let ok = outcomes.iter().all(|(_, o)| o.correct());
    println!(
        "wrote {}; checks {}",
        path.display(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: traced replay + probes for every workload.
fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let daemon = daemon_target()?;
    let plan = Plan {
        seed: args.seed,
        scale: scale_of(args),
        target: &daemon,
    };
    let probes = probes::run_all(&daemon, args.seed).map_err(|e| format!("probes: {e}"))?;
    let mut all: Vec<(&str, Traced)> = Vec::new();
    for workload in WORKLOADS {
        let traced = run_traced(workload, &plan, &daemon, &probes)
            .map_err(|e| format!("{workload}: {e}"))?;
        for d in metrics::DETAIL.iter().chain(metrics::LAYERS) {
            println!(
                "{workload} {} {:.6} {}",
                d.name, traced.values[d.name], d.unit
            );
        }
        print_violations(workload, &traced.violations);
        traced.write_spans(workload)?;
        all.push((workload, traced));
    }
    let path = write_out(
        "layers.json",
        &report::layers_json(args.seed, args.seconds, args.smoke, &all),
    )?;
    let ok = all.iter().all(|(_, t)| t.correct());
    println!(
        "wrote {}; checks {}",
        path.display(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `spread`: the benchmark's own acceptance test. Runs every workload
/// `--runs` times, each with another seed, and prints for each end-to-end
/// metric the distance between the first and third quartile of the runs
/// as a share of their median — which must stay within the metric's bound,
/// and should stay within a third of it.
fn cmd_spread(args: &Args) -> Result<ExitCode, String> {
    let daemon = daemon_target()?;
    let mut too_wide = 0;
    if let Some(only) = &args.workload {
        known_workload(only)?;
    }
    for workload in WORKLOADS {
        if args
            .workload
            .as_deref()
            .is_some_and(|only| only != workload)
        {
            continue;
        }
        let mut runs: Vec<Values> = Vec::new();
        for seed in 1..=args.runs {
            let plan = Plan {
                seed,
                scale: scale_of(args),
                target: &daemon,
            };
            let outcome =
                run_untraced(workload, &plan, None).map_err(|e| format!("{workload}: {e}"))?;
            print_violations(workload, &outcome.violations);
            runs.push(outcome.metrics.iter().map(|(k, v)| (*k, v.value)).collect());
        }
        for d in metrics::END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r[d.name]).collect();
            let spread = stats::iqr_share(&values).unwrap_or(f64::INFINITY);
            let verdict = if d.name == "setup_s" || spread <= d.bound / 3.0 {
                "ok"
            } else if spread <= d.bound {
                "within bound, above a third of it"
            } else {
                too_wide += 1;
                "TOO WIDE"
            };
            println!(
                "{workload:16} {:28} median {:>14.6} {:6} spread {:6.2}%  bound {:>4.0}%  {verdict}",
                d.name,
                stats::median(&values).expect("at least one run"),
                d.unit,
                spread * 100.0,
                d.bound * 100.0
            );
            println!("    runs: {values:.4?}");
        }
    }
    Ok(if too_wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("usage: caskbench compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    let mut worse = 0;
    for r in &rows {
        let d = metrics::def(r.metric).expect("rows come from the table");
        println!(
            "{:16} {:28} {:>14.6} -> {:>14.6} {:6} {:+7.2}%  bound {:>4.0}%  {}",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            d.unit,
            (r.b.value / r.a.value - 1.0) * 100.0,
            d.bound * 100.0,
            r.verdict.as_str()
        );
        worse += usize::from(r.verdict == compare::Verdict::Worse);
    }
    println!("{} pairs, {worse} worse", rows.len());
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "one" => cmd_one(&args),
        "all" => cmd_all(&args),
        "trace" => cmd_trace(&args),
        "spread" => cmd_spread(&args),
        "compare" => cmd_compare(&args),
        "manifest" => {
            println!("{}", report::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("caskbench: {message}");
            ExitCode::from(2)
        }
    }
}
