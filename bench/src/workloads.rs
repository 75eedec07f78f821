//! The four workloads, end to end: each repetition starts fresh daemons,
//! drives its seeded script closed-loop, checks every reply, and keeps the
//! raw samples the metrics are computed from.

use crate::affinity::Pinned;
use crate::check::{self, Digest, Reply, SearchCounts};
use crate::script::{self, Names, Op, Req};
use crate::target::{Endpoint, Instance, Spec, Target, Transport};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workload names, in the order they run and are listed in
/// `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "cold_collab",
    "cold_collab_par",
    "warm_evolve",
    "serve_mixed",
];

/// The pipeline the evolving and serving workloads run on.
const SERVED_PIPELINE: &str = "readmission";

/// How much work one repetition does, and how many repetitions a run makes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fewest repetitions (each on fresh daemons); metrics are medians
    /// across them. A `cold_*` repetition is one pass over the five
    /// pipelines: it is short, so a run holds many, and the median pass
    /// shrugs off a noisy neighbour's burst.
    pub min_reps: usize,
    /// Time for all of a workload's repetitions, their set-up included:
    /// another repetition starts while one as long as the last still fits.
    /// `None`: exactly `min_reps`. A budget of time, not of work, keeps a
    /// run's length the same on a slower box; every repetition is the same
    /// work, so how many fit does not change what their median measures.
    pub budget: Option<Duration>,
    /// `warm_evolve`: rounds per repetition.
    pub warm_rounds: usize,
    /// `serve_mixed`: reader-alone phase per repetition.
    pub quiet: Duration,
    /// `serve_mixed`: reader-beside-writer phase per repetition.
    pub live: Duration,
    /// `serve_mixed`, traced replay only: request counts that replace the
    /// two durations, so the replay issues the requests the daemon got and
    /// not the hundred thousand reads a transport-less loop fits in the
    /// same seconds.
    pub serve_counts: Option<ServeCounts>,
}

/// How many requests each `serve_mixed` loop sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounts {
    pub quiet_reads: u64,
    pub live_reads: u64,
    pub live_writes: u64,
}

impl ServeCounts {
    /// What a finished repetition's loops sent.
    pub fn of(rep: &Rep) -> ServeCounts {
        let live_reads = rep.measured.read_us.len() as u64;
        ServeCounts {
            quiet_reads: rep.quiet.attempted,
            live_reads,
            live_writes: rep.measured.attempted - live_reads,
        }
    }
}

impl Scale {
    /// A run of about `seconds` seconds, set-up included: repetitions of a
    /// fixed size (a cold pass is about 2.5 s on the two-core reference
    /// box, 800 warm rounds about 5 s with their set-up, a serving
    /// repetition 5.5 s) until the time is used, and never fewer than three.
    pub fn for_seconds(seconds: u64) -> Scale {
        Scale {
            min_reps: 3,
            budget: Some(Duration::from_secs(seconds)),
            // A graph of ~4 000 commits by the end.
            warm_rounds: 800,
            quiet: Duration::from_secs(1),
            live: Duration::from_secs(3),
            serve_counts: None,
        }
    }

    /// Checks only: one repetition of the least work that still exercises
    /// every request kind.
    pub fn smoke() -> Scale {
        Scale {
            min_reps: 1,
            budget: None,
            warm_rounds: 50,
            quiet: Duration::from_secs(1),
            live: Duration::from_secs(1),
            serve_counts: None,
        }
    }

    /// Whether to start repetition number `done` (counted from 0), `spent`
    /// into the run, when the last one took `last`.
    pub fn another_rep(&self, done: usize, spent: Duration, last: Duration) -> bool {
        done < self.min_reps || self.budget.is_some_and(|b| spent + last <= b)
    }
}

/// What to generate and what to drive it against.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    pub seed: u64,
    pub scale: Scale,
    /// The daemon (measured runs) or the in-process router (traced replay).
    pub target: &'a dyn Target,
}

/// One merge's latency with the counters its reply carried.
#[derive(Debug, Clone, Copy)]
pub struct MergeSample {
    pub ms: f64,
    pub counts: Option<SearchCounts>,
}

/// Samples and check results of driving one script.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations the daemon's admission control refused.
    pub refused: u64,
    pub join_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub merges: Vec<MergeSample>,
    pub read_us: Vec<f64>,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub digest: Digest,
    /// Check failures other than failed operations (first few, verbatim).
    pub violations: Vec<String>,
    /// Σ logical and Σ physical bytes of the last `workspace.usage` reply.
    pub usage: Option<(u64, u64)>,
}

impl Tally {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Books one reply (or its absence) for `req`.
    pub fn record(&mut self, req: &Req, reply: Option<(&str, Duration)>) {
        self.attempted += 1;
        self.bytes_in += req.line.len() as u64 + 1;
        let Some((line, rtt)) = reply else {
            self.failed += 1;
            self.violation(format!(
                "{} #{}: no reply (daemon gone or hung)",
                req.method, req.id
            ));
            return;
        };
        self.bytes_out += line.len() as u64 + 1;
        self.digest.push(line);
        let result = match check::classify(line, req.id) {
            Reply::Ok(result) => result,
            Reply::Failed { code, refused } => {
                self.failed += 1;
                self.refused += u64::from(refused);
                self.violation(format!("{} #{}: error {code}: {line}", req.method, req.id));
                return;
            }
            Reply::Malformed(why) => {
                self.failed += 1;
                self.violation(format!("{} #{}: {why}", req.method, req.id));
                return;
            }
        };
        let ms = rtt.as_secs_f64() * 1e3;
        match req.op {
            Op::Join => self.join_ms.push(ms),
            Op::Commit => {
                self.commit_ms.push(ms);
                if check::field(&result, "committed") != Some(&serde::Value::Bool(true)) {
                    self.violation(format!("commit #{} did not commit: {line}", req.id));
                }
            }
            Op::Merge => {
                if check::field(&result, "committed") != Some(&serde::Value::Bool(true)) {
                    self.violation(format!("merge #{} did not commit: {line}", req.id));
                }
                self.merges.push(MergeSample {
                    ms,
                    counts: check::search_counts(&result),
                });
            }
            Op::Read => self.read_us.push(ms * 1e3),
            Op::Other => {}
        }
        match req.method {
            "log" if !check::log_is_strictly_descending(&result) => {
                self.violation(format!(
                    "log #{} is not strictly descending: {line}",
                    req.id
                ));
            }
            "workspace.usage" => {
                let sum = |key: &str| -> u64 {
                    result
                        .as_map()
                        .map(|tenants| {
                            tenants
                                .iter()
                                .filter_map(|(_, u)| check::u64_field(u, key))
                                .sum()
                        })
                        .unwrap_or(0)
                };
                self.usage = Some((sum("logical_bytes"), sum("physical_bytes")));
            }
            "session.open" => {
                // The scripts address sessions by the ids the daemon hands
                // out in order; a different id would misroute every request.
                let expect = match req.op {
                    Op::Join if self.join_ms.len() == 1 => script::UPSTREAM,
                    Op::Join => script::DOWNSTREAM,
                    _ => script::READER,
                };
                if check::u64_field(&result, "session") != Some(expect) {
                    self.violation(format!(
                        "session.open #{}: expected session {expect}: {line}",
                        req.id
                    ));
                }
            }
            _ => {}
        }
    }

    /// Folds another tally's samples into this one (digests stay separate).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.join_ms.extend(&other.join_ms);
        self.commit_ms.extend(&other.commit_ms);
        self.merges.extend(&other.merges);
        self.read_us.extend(&other.read_us);
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        for v in &other.violations {
            self.violation(v.clone());
        }
        if other.usage.is_some() {
            self.usage = other.usage;
        }
    }
}

/// A reply as received: kept verbatim and checked once the clock has
/// stopped, so that the measured loop sends the next request at once. (A
/// client that thinks between requests lets the daemon's CPU go idle, and
/// on a virtual machine the wake-up from idle costs more than a read.)
pub type Raw = Option<(String, Duration)>;

/// Sends `reqs` in order over `client`, closed loop, checking nothing.
/// After the daemon goes away the remaining requests get no reply.
pub fn exchange<'a>(
    client: &mut dyn Endpoint,
    reqs: impl IntoIterator<Item = &'a Req>,
) -> Vec<(&'a Req, Raw)> {
    let mut gone = false;
    reqs.into_iter()
        .map(|req| {
            let reply = if gone { None } else { client.call(req) };
            gone |= reply.is_none();
            (req, reply.map(|(line, rtt)| (line.to_string(), rtt)))
        })
        .collect()
}

impl Tally {
    /// Books a whole exchange.
    pub fn record_all(&mut self, raw: impl IntoIterator<Item = (impl Borrow<Req>, Raw)>) {
        for (req, reply) in raw {
            self.record(
                req.borrow(),
                reply.as_ref().map(|(line, rtt)| (line.as_str(), *rtt)),
            );
        }
    }
}

/// [`exchange`] and book, for requests outside any measured window.
pub fn drive<'a>(
    client: &mut dyn Endpoint,
    reqs: impl IntoIterator<Item = &'a Req>,
    tally: &mut Tally,
) {
    tally.record_all(exchange(client, reqs));
}

/// One repetition's outcome.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Everything outside the measured windows: script generation, daemon
    /// spawn and readiness, the warm-up episode, teardown.
    pub setup_s: f64,
    /// Length of the measured window(s).
    pub window_s: f64,
    /// Daemon CPU (user + system) consumed inside the window(s).
    pub cpu_s: f64,
    /// Largest daemon `VmHWM` seen at a window's end.
    pub peak_rss_mib: f64,
    /// Σ logical / Σ physical bytes over the `workspace.usage` that ends
    /// every episode (`cold_*`), the rounds (`warm_evolve`) or the set-up
    /// (`serve_mixed`: how many writer cycles its fixed duration fits
    /// varies, and every cycle adds logical bytes).
    pub logical_bytes: u64,
    pub physical_bytes: u64,
    /// Logical bytes written by the measured requests.
    pub written_logical_bytes: u64,
    /// Requests with ids below this one were set-up (the traced run's
    /// span metrics cover the measured requests only).
    pub first_measured_id: u64,

    /// The measured window's samples.
    pub measured: Tally,
    /// `serve_mixed` only: the reader-alone phase.
    pub quiet: Tally,
    /// Set-up requests (warm-up episode): checked, not timed.
    pub warmup: Tally,
    /// Reply digest per pipeline (`cold_*`) or of the whole window.
    pub digests: BTreeMap<String, Digest>,
    /// Digest mismatches and other repetition-level check failures.
    pub violations: Vec<String>,
}

impl Rep {
    /// Requests attempted and failed, set-up included.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let t = [&self.measured, &self.quiet, &self.warmup];
        (
            t.iter().map(|t| t.attempted).sum(),
            t.iter().map(|t| t.failed).sum(),
        )
    }

    /// Every check failure of the repetition.
    pub fn all_violations(&self) -> Vec<String> {
        let mut v = self.violations.clone();
        for t in [&self.measured, &self.quiet, &self.warmup] {
            v.extend(t.violations.iter().cloned());
        }
        v
    }
}

/// Asks for `workspace.usage` once the window has closed; returns Σ logical
/// and Σ physical bytes.
fn final_usage(client: &mut dyn Endpoint, rep: &mut Rep, id: u64) -> (u64, u64) {
    let req = Req {
        id,
        op: Op::Other,
        method: "workspace.usage",
        line: format!(r#"{{"id":{id},"method":"workspace.usage","params":{{}}}}"#),
    };
    let mut t = Tally::default();
    drive(client, [&req], &mut t);
    rep.warmup.absorb(&t);
    t.usage.unwrap_or_default()
}

/// `cold_collab` / `cold_collab_par`: one pass over the five pipelines,
/// every episode on a fresh daemon with a fresh cask store; an episode's
/// window is first request to last reply.
pub fn cold_rep(plan: &Plan, workers: usize) -> std::io::Result<Rep> {
    let rep_start = Instant::now();
    let mut rep = Rep::default();
    // One CPU for the client and the daemon, at two workers too: on a
    // shared two-CPU host two runnable workers measure the neighbours, and
    // an unpinned pipe round trip reads anything from 15 to 400 us. Pinned,
    // `cold_collab_par` measures what the parallel engine's code path
    // costs, not the speed-up it could buy (the unpinned `noop_fan_*_w2`
    // probe shows that).
    let _pin = Pinned::to_last_cpu();
    rep.first_measured_id = 1;
    let names = Names::from_seed(plan.seed);
    for pipeline in script::cold_order(plan.seed) {
        let reqs = script::cold_episode(&script::pipeline(pipeline), &names);
        let mut daemon = plan.target.start(&Spec {
            transport: Transport::Stdio,
            pipeline: pipeline.to_string(),
            workers,
            durable: true,
        })?;
        let mut client = daemon.connect()?;
        let cpu0 = daemon.proc_stats().cpu_s;
        let mut tally = Tally::default();
        let window = Instant::now();
        let raw = exchange(client.as_mut(), &reqs);
        rep.window_s += window.elapsed().as_secs_f64();
        let stats = daemon.proc_stats();
        tally.record_all(raw);
        rep.cpu_s += stats.cpu_s - cpu0;
        rep.peak_rss_mib = rep.peak_rss_mib.max(stats.peak_rss_mib);
        if let Some((logical, physical)) = tally.usage {
            rep.logical_bytes += logical;
            rep.physical_bytes += physical;
            rep.written_logical_bytes += logical;
        }
        // On a fresh daemon the replies are a function of the pipeline and
        // the names alone: every episode of a pipeline must digest equal.
        match rep.digests.get(pipeline) {
            Some(first) if *first != tally.digest => rep.violations.push(format!(
                "{pipeline}: episode replies differ ({} vs {})",
                first.hex(),
                tally.digest.hex()
            )),
            Some(_) => {}
            None => {
                rep.digests.insert(pipeline.to_string(), tally.digest);
            }
        }
        rep.measured.absorb(&tally);
    }
    rep.setup_s = rep_start.elapsed().as_secs_f64() - rep.window_s;
    Ok(rep)
}

/// A daemon that has served the cold episode as warm-up.
struct Warmed<'a> {
    daemon: Box<dyn Instance + 'a>,
    /// The connection the episode ran on.
    client: Box<dyn Endpoint>,
    /// First request id the episode did not use.
    next_id: u64,
}

/// Starts a daemon and runs the cold episode on it as warm-up: the set-up
/// the evolving and the serving workload share.
fn warmed_daemon<'a>(
    plan: &Plan<'a>,
    spec: &Spec,
    names: &Names,
    rep: &mut Rep,
) -> std::io::Result<Warmed<'a>> {
    let w = script::pipeline(SERVED_PIPELINE);
    let reqs = script::cold_episode(&w, names);
    let mut daemon = plan.target.start(spec)?;
    let mut client = daemon.connect()?;
    drive(client.as_mut(), &reqs, &mut rep.warmup);
    (rep.logical_bytes, rep.physical_bytes) = rep.warmup.usage.unwrap_or_default();
    let next_id = reqs.last().map_or(1, |q| q.id + 1);
    Ok(Warmed {
        daemon,
        client,
        next_id,
    })
}

/// `warm_evolve`: one daemon per repetition, a cold episode as set-up,
/// then rounds that only ever commit pipelines already trained.
pub fn warm_rep(plan: &Plan) -> std::io::Result<Rep> {
    let rep_start = Instant::now();
    let mut rep = Rep::default();
    let _pin = Pinned::to_last_cpu();
    let names = Names::from_seed(plan.seed);
    let spec = Spec {
        transport: Transport::Stdio,
        pipeline: SERVED_PIPELINE.to_string(),
        workers: 1,
        durable: true,
    };
    let w = script::pipeline(SERVED_PIPELINE);
    let Warmed {
        daemon,
        mut client,
        next_id,
    } = warmed_daemon(plan, &spec, &names, &mut rep)?;
    rep.first_measured_id = next_id;
    let rounds = script::warm_rounds(&w, &names, plan.seed, next_id, plan.scale.warm_rounds);
    let cpu0 = daemon.proc_stats().cpu_s;
    let window = Instant::now();
    let raw = exchange(client.as_mut(), &rounds);
    rep.window_s = window.elapsed().as_secs_f64();
    let stats = daemon.proc_stats();
    rep.measured.record_all(raw);
    rep.cpu_s = stats.cpu_s - cpu0;
    rep.peak_rss_mib = stats.peak_rss_mib;
    // Every output is in history: a merge that executes a component means
    // the workload is no longer measuring what it says it measures.
    for (i, m) in rep.measured.merges.iter().enumerate() {
        match m.counts {
            Some(c) if c.executed == 0 => {}
            other => {
                rep.violations
                    .push(format!("warm merge {i} executed components: {other:?}"));
                break;
            }
        }
    }
    rep.digests.insert("window".into(), rep.measured.digest);
    let last_id = rounds.last().map_or(next_id, |q| q.id + 1);
    let warmup_logical = rep.logical_bytes;
    (rep.logical_bytes, rep.physical_bytes) = final_usage(client.as_mut(), &mut rep, last_id);
    rep.written_logical_bytes = rep.logical_bytes.saturating_sub(warmup_logical);
    drop(client);
    drop(daemon);
    rep.setup_s = rep_start.elapsed().as_secs_f64() - rep.window_s;
    Ok(rep)
}

/// When a `serve_mixed` loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

/// Loops `next` requests over `client` until `stop`; returns when the last
/// reply arrived. Replies are booked after the loop.
fn serve_loop(
    client: &mut dyn Endpoint,
    stop: Stop,
    tally: &mut Tally,
    mut next: impl FnMut() -> Req,
) -> Instant {
    let mut raw: Vec<(Req, Raw)> = Vec::new();
    while match stop {
        Stop::At(deadline) => Instant::now() < deadline,
        Stop::After(count) => (raw.len() as u64) < count,
    } {
        let req = next();
        let reply = client.call(&req).map(|(line, rtt)| (line.to_string(), rtt));
        let gone = reply.is_none();
        raw.push((req, reply));
        if gone {
            break;
        }
    }
    let end = Instant::now();
    tally.record_all(raw);
    end
}

/// `serve_mixed`: a TCP daemon over the in-memory store; a reader session
/// alone (`quiet`), then beside a writer whose merges recompute every
/// candidate (`live`). Two connections, two client threads.
pub fn serve_rep(plan: &Plan) -> std::io::Result<Rep> {
    let rep_start = Instant::now();
    let mut rep = Rep::default();
    let names = Names::from_seed(plan.seed);
    let spec = Spec {
        transport: Transport::Tcp,
        pipeline: SERVED_PIPELINE.to_string(),
        workers: 1,
        durable: false,
    };
    let w = script::pipeline(SERVED_PIPELINE);
    let Warmed {
        mut daemon,
        client: mut writer,
        next_id,
    } = warmed_daemon(plan, &spec, &names, &mut rep)?;
    rep.first_measured_id = script::WRITER_FIRST_ID;
    let mut reader = daemon.connect()?;
    drive(
        reader.as_mut(),
        [&script::reader_open(&names, next_id)],
        &mut rep.warmup,
    );

    let mut read_no = 0u64;
    let mut next_read = || {
        read_no += 1;
        script::reader_req(plan.seed, read_no)
    };
    let quiet_start = Instant::now();
    let counts = plan.scale.serve_counts;
    let quiet_stop = counts.map_or(Stop::At(quiet_start + plan.scale.quiet), |c| {
        Stop::After(c.quiet_reads)
    });
    let quiet_end = serve_loop(reader.as_mut(), quiet_stop, &mut rep.quiet, &mut next_read);
    let quiet_s = (quiet_end - quiet_start).as_secs_f64();

    let cpu0 = daemon.proc_stats().cpu_s;
    let live_start = Instant::now();
    let deadline = Stop::At(live_start + plan.scale.live);
    let read_stop = counts.map_or(deadline, |c| Stop::After(c.live_reads));
    let write_stop = counts.map_or(deadline, |c| Stop::After(c.live_writes));
    let mut reads = Tally::default();
    let mut writes = Tally::default();
    let (read_end, write_end) = std::thread::scope(|s| {
        let reader_thread =
            s.spawn(|| serve_loop(reader.as_mut(), read_stop, &mut reads, &mut next_read));
        let mut cycle = 0u64;
        let mut pending: std::collections::VecDeque<Req> = Default::default();
        let write_end = serve_loop(writer.as_mut(), write_stop, &mut writes, || {
            if pending.is_empty() {
                pending.extend(script::writer_cycle(&w, &names, cycle));
                cycle += 1;
            }
            pending.pop_front().expect("a cycle is never empty")
        });
        (reader_thread.join().expect("reader thread"), write_end)
    });
    rep.window_s = (read_end.max(write_end) - live_start).as_secs_f64();
    let stats = daemon.proc_stats();
    rep.cpu_s = stats.cpu_s - cpu0;
    rep.peak_rss_mib = stats.peak_rss_mib;
    rep.measured.absorb(&reads);
    rep.measured.absorb(&writes);
    let (final_logical, _) = final_usage(writer.as_mut(), &mut rep, 999_999_999);
    rep.written_logical_bytes = final_logical.saturating_sub(rep.logical_bytes);
    drop((reader, writer));
    drop(daemon);
    rep.setup_s = rep_start.elapsed().as_secs_f64() - rep.window_s - quiet_s;
    Ok(rep)
}

/// Runs one repetition of the named workload.
pub fn run_rep(workload: &str, plan: &Plan) -> std::io::Result<Rep> {
    match workload {
        "cold_collab" => cold_rep(plan, 1),
        "cold_collab_par" => cold_rep(plan, 2),
        "warm_evolve" => warm_rep(plan),
        "serve_mixed" => serve_rep(plan),
        other => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(op: Op, method: &'static str, id: u64) -> Req {
        Req {
            id,
            op,
            method,
            line: String::new(),
        }
    }

    #[test]
    fn tally_files_samples_and_counts_failures() {
        let mut t = Tally::default();
        let ms = Duration::from_millis(2);
        t.record(
            &req(Op::Read, "head", 1),
            Some((r#"{"id":1,"result":{"seq":1}}"#, ms)),
        );
        t.record(
            &req(Op::Read, "log", 2),
            Some((r#"{"id":2,"result":[{"seq":2},{"seq":1}]}"#, ms)),
        );
        t.record(
            &req(Op::Commit, "commit", 3),
            Some((r#"{"id":3,"result":{"committed":true}}"#, ms)),
        );
        assert_eq!((t.attempted, t.failed), (3, 0));
        assert_eq!(t.read_us, vec![2000.0, 2000.0]);
        assert_eq!(t.commit_ms, vec![2.0]);
        assert!(t.violations.is_empty());

        // An error reply, a wrong id and a missing reply are failed ops.
        t.record(
            &req(Op::Commit, "commit", 4),
            Some((r#"{"id":4,"error":{"code":-32000,"message":"boom"}}"#, ms)),
        );
        t.record(
            &req(Op::Read, "head", 5),
            Some((r#"{"id":6,"result":1}"#, ms)),
        );
        t.record(&req(Op::Read, "head", 6), None);
        assert_eq!((t.attempted, t.failed), (6, 3));
        assert_eq!(t.commit_ms.len(), 1, "failed ops contribute no latency");

        // Well-formed but wrong: counted as a violation, not a failed op.
        t.record(
            &req(Op::Read, "log", 7),
            Some((r#"{"id":7,"result":[{"seq":1},{"seq":1}]}"#, ms)),
        );
        t.record(
            &req(Op::Commit, "commit", 8),
            Some((r#"{"id":8,"result":{"committed":false}}"#, ms)),
        );
        assert_eq!(t.failed, 3);
        assert_eq!(t.violations.len(), 5);
    }

    #[test]
    fn workspace_usage_sums_tenants() {
        let mut t = Tally::default();
        t.record(
            &req(Op::Read, "workspace.usage", 1),
            Some((
                r#"{"id":1,"result":{"a":{"blobs_written":1,"logical_bytes":100,"physical_bytes":60},"b":{"blobs_written":1,"logical_bytes":50,"physical_bytes":0}}}"#,
                Duration::from_millis(1),
            )),
        );
        assert_eq!(t.usage, Some((150, 60)));
    }

    #[test]
    fn repetitions_fill_the_budget_and_never_fall_below_the_minimum() {
        let s = Scale::for_seconds(20);
        let secs = Duration::from_secs;
        assert!(s.another_rep(0, secs(0), secs(0)));
        assert!(s.another_rep(2, secs(40), secs(20)), "at least three");
        assert!(s.another_rep(3, secs(15), secs(5)));
        assert!(!s.another_rep(3, secs(16), secs(5)), "would overrun");
        let smoke = Scale::smoke();
        assert!(smoke.another_rep(0, secs(0), secs(0)));
        assert!(!smoke.another_rep(1, secs(0), secs(0)));
    }
}
