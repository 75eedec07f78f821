//! Request scripts: everything the daemon is asked to do, generated from
//! `--seed` before the clock starts. The daemon only ever sees these lines.
//!
//! What the seed varies is chosen so that it changes the *inputs* without
//! changing the *amount of work*: tenant names and commit messages (hence
//! every hash in the graph), the order pipelines are visited in, and — in
//! the evolving workloads, where hundreds of rounds average it out — which
//! already-trained pipeline each commit picks and which read follows.

use crate::rng::SplitMix64;
use mlcask_pipeline::component::ComponentKey;
use mlcask_workloads::common::Workload;

/// The five pipelines the daemon can serve (`--workload`).
pub const PIPELINES: [&str; 5] = ["readmission", "dpm", "sa", "autolearn", "fusion"];

/// Builds a pipeline's workload description (component versions and the
/// Fig. 3 branch histories) — the same constructor the daemon calls.
pub fn pipeline(name: &str) -> Workload {
    match name {
        "readmission" => mlcask_workloads::readmission::build(),
        "dpm" => mlcask_workloads::dpm::build(),
        "sa" => mlcask_workloads::sa::build(),
        "autolearn" => mlcask_workloads::autolearn::build(),
        "fusion" => mlcask_workloads::fusion::build(),
        other => panic!("unknown pipeline `{other}`"),
    }
}

/// Which latency metric a request's round trip is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `session.open` of a tenant the workspace has not seen.
    Join,
    /// `commit`.
    Commit,
    /// `merge.into`.
    Merge,
    /// `log` / `head` / `branches` / `usage` / `workspace.usage`.
    Read,
    /// `grant`, `fork`, `session.open` of a known tenant.
    Other,
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// The `id` the reply must echo.
    pub id: u64,
    /// Metric class.
    pub op: Op,
    /// Method name (for the `log` check and the trace).
    pub method: &'static str,
    /// The JSON line, without the newline.
    pub line: String,
}

/// Session ids are handed out by the daemon in arrival order; the scripts
/// rely on it and the driver checks it on every `session.open` reply.
pub const UPSTREAM: u64 = 1;
/// The downstream (forking, merging) team's session.
pub const DOWNSTREAM: u64 = 2;
/// `serve_mixed`'s reader: a second session of the upstream tenant.
pub const READER: u64 = 3;

/// Seed-derived tenant names and message tag. Equal lengths for every
/// seed, so reply sizes do not depend on the seed.
#[derive(Debug, Clone)]
pub struct Names {
    pub upstream: String,
    pub downstream: String,
    pub tag: String,
}

impl Names {
    pub fn from_seed(seed: u64) -> Names {
        let mut r = SplitMix64::stream(seed, "names");
        let x = r.next_u64();
        Names {
            upstream: format!("up{:04x}", x & 0xffff),
            downstream: format!("dn{:04x}", (x >> 16) & 0xffff),
            tag: format!("{:06x}", (x >> 32) & 0xff_ffff),
        }
    }
}

fn spec(keys: &[ComponentKey]) -> String {
    let items: Vec<String> = keys
        .iter()
        .map(|k| format!(r#""{}@{}""#, k.name, k.version))
        .collect();
    format!("[{}]", items.join(","))
}

/// Appends requests with consecutive ids.
pub struct Builder {
    next_id: u64,
    pub reqs: Vec<Req>,
}

impl Builder {
    pub fn starting_at(first_id: u64) -> Builder {
        Builder {
            next_id: first_id,
            reqs: Vec::new(),
        }
    }

    fn push(&mut self, op: Op, method: &'static str, params: String) {
        let id = self.next_id;
        self.next_id += 1;
        self.reqs.push(Req {
            id,
            op,
            method,
            line: format!(r#"{{"id":{id},"method":"{method}","params":{params}}}"#),
        });
    }

    fn open(&mut self, op: Op, tenant: &str) {
        self.push(op, "session.open", format!(r#"{{"tenant":"{tenant}"}}"#));
    }

    fn commit(&mut self, session: u64, branch: &str, keys: &[ComponentKey], message: &str) {
        self.push(
            Op::Commit,
            "commit",
            format!(
                r#"{{"session":{session},"branch":"{branch}","components":{},"message":"{message}"}}"#,
                spec(keys)
            ),
        );
    }

    fn fork(&mut self, names: &Names, new_branch: &str) {
        self.push(
            Op::Other,
            "fork",
            format!(
                r#"{{"session":{DOWNSTREAM},"peer":"{}","branch":"master","new_branch":"{new_branch}"}}"#,
                names.upstream
            ),
        );
    }

    fn merge_into(&mut self, names: &Names, merging: &str, strategy: &str) {
        self.push(
            Op::Merge,
            "merge.into",
            format!(
                r#"{{"session":{DOWNSTREAM},"peer":"{}","peer_branch":"master","merging":"{merging}","strategy":"{strategy}"}}"#,
                names.upstream
            ),
        );
    }

    /// One of the four session reads, against the session's own `branch`.
    fn read(&mut self, session: u64, branch: &str, which: usize, log_limit: u32) {
        match which % 4 {
            0 => self.push(
                Op::Read,
                "log",
                format!(r#"{{"session":{session},"branch":"{branch}","limit":{log_limit}}}"#),
            ),
            1 => self.push(
                Op::Read,
                "head",
                format!(r#"{{"session":{session},"branch":"{branch}"}}"#),
            ),
            2 => self.push(Op::Read, "branches", format!(r#"{{"session":{session}}}"#)),
            _ => self.push(Op::Read, "usage", format!(r#"{{"session":{session}}}"#)),
        }
    }
}

/// The cold collaboration episode (the paper's non-linear scenario, Fig. 3
/// and Fig. 8, through the RPC surface): two teams join, upstream commits
/// the initial pipeline and its updates, downstream forks and commits its
/// own, merges back with the full PC/PR search, then both look at the
/// result (`log`, `head`, `branches`, `usage` each, three times, then
/// `workspace.usage`). Ids start at 1; on a fresh daemon the replies are a pure
/// function of `(pipeline, names)`.
pub fn cold_episode(w: &Workload, names: &Names) -> Vec<Req> {
    let mut b = Builder::starting_at(1);
    let tag = &names.tag;
    b.open(Op::Join, &names.upstream);
    b.open(Op::Join, &names.downstream);
    b.commit(UPSTREAM, "master", &w.initial, &format!("initial {tag}"));
    b.push(
        Op::Other,
        "grant",
        format!(
            r#"{{"session":{UPSTREAM},"peer":"{}","right":"merge_into"}}"#,
            names.downstream
        ),
    );
    b.fork(names, "feature");
    for (i, keys) in w.head_updates.iter().enumerate() {
        b.commit(UPSTREAM, "master", keys, &format!("head {i} {tag}"));
    }
    for (i, keys) in w.dev_updates.iter().enumerate() {
        b.commit(DOWNSTREAM, "feature", keys, &format!("dev {i} {tag}"));
    }
    b.merge_into(names, "feature", "full");
    // Both teams look at the result, three times over: history, head,
    // branches, usage. (The first look runs on caches the merge left cold;
    // with one look only, the median read is the median of those.)
    for _ in 0..3 {
        for (session, branch) in [(UPSTREAM, "master"), (DOWNSTREAM, "feature")] {
            for which in 0..4 {
                b.read(session, branch, which, 50);
            }
        }
    }
    b.push(Op::Read, "workspace.usage", "{}".into());
    b.reqs
}

/// The order a `cold_collab` pass visits the pipelines in: a seeded
/// permutation of all five.
pub fn cold_order(seed: u64) -> [&'static str; 5] {
    let mut pass = PIPELINES;
    SplitMix64::stream(seed, "cold-order").shuffle(&mut pass);
    pass
}

/// Every full pipeline the cold episode trained: what the evolving
/// workloads commit, so that their component compute is zero.
fn trained_pipelines(w: &Workload) -> Vec<Vec<ComponentKey>> {
    let mut k = vec![w.initial.clone()];
    k.extend(w.head_updates.iter().cloned());
    k.extend(w.dev_updates.iter().cloned());
    k
}

/// Picks an index in `0..n` different from `*last`, and remembers it.
fn pick_other(r: &mut SplitMix64, n: usize, last: &mut usize) -> usize {
    let mut i = r.below(n - 1);
    if i >= *last {
        i += 1;
    }
    *last = i;
    i
}

/// `warm_evolve`'s measured script: `rounds` rounds of fork → 1–3 dev
/// commits → one upstream commit → full merge → 4 reads, all over
/// pipelines the set-up episode already trained.
pub fn warm_rounds(
    w: &Workload,
    names: &Names,
    seed: u64,
    first_id: u64,
    rounds: usize,
) -> Vec<Req> {
    let trained = trained_pipelines(w);
    let mut r = SplitMix64::stream(seed, "warm");
    let mut last_up = usize::MAX;
    let mut out = Vec::new();
    let mut next_id = first_id;
    for k in 0..rounds {
        let mut b = Builder::starting_at(next_id);
        let branch = format!("f{k}");
        b.fork(names, &branch);
        let mut last_dev = usize::MAX;
        for j in 0..1 + r.below(3) {
            let p = pick_other(&mut r, trained.len(), &mut last_dev);
            b.commit(DOWNSTREAM, &branch, &trained[p], &format!("dev {k}.{j}"));
        }
        let p = pick_other(&mut r, trained.len(), &mut last_up);
        b.commit(UPSTREAM, "master", &trained[p], &format!("up {k}"));
        b.merge_into(names, &branch, "full");
        for _ in 0..4 {
            let which = r.below(4);
            // `log` and `head` name upstream's master, which only
            // upstream's own session resolves; the other two reads come
            // from either team.
            let session = if which < 2 || r.below(2) == 0 {
                UPSTREAM
            } else {
                DOWNSTREAM
            };
            b.read(session, "master", which, 20);
        }
        next_id = b.next_id;
        out.extend(b.reqs);
    }
    out
}

/// `serve_mixed`'s extra set-up request: the reader's own session on the
/// upstream tenant.
pub fn reader_open(names: &Names, id: u64) -> Req {
    let mut b = Builder::starting_at(id);
    b.open(Op::Other, &names.upstream);
    b.reqs.remove(0)
}

/// Ids of `serve_mixed`'s measured requests start here (the writer's; the
/// reader's are far above), clear of the set-up episode's.
pub const WRITER_FIRST_ID: u64 = 1_000;

/// The `i`-th request of `serve_mixed`'s reader (a seeded mix of the four
/// reads, the same for a given `(seed, i)` however fast the loop runs).
pub fn reader_req(seed: u64, i: u64) -> Req {
    let mut r = SplitMix64::stream(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15), "reader");
    let mut b = Builder::starting_at(1_000_000_000 + i);
    b.read(READER, "master", r.below(4), 20);
    b.reqs.remove(0)
}

/// The `k`-th cycle of `serve_mixed`'s writer: reset upstream's head to the
/// initial pipeline, fork, replay both teams' updates (all reused), then
/// merge with `without_pr` — the strategy that re-executes every candidate
/// — so a continuously *computing* merge runs beside the reader.
pub fn writer_cycle(w: &Workload, names: &Names, k: u64) -> Vec<Req> {
    let mut b = Builder::starting_at(WRITER_FIRST_ID + k * 100);
    let branch = format!("w{k}");
    b.commit(UPSTREAM, "master", &w.initial, &format!("reset {k}"));
    b.fork(names, &branch);
    for (i, keys) in w.dev_updates.iter().enumerate() {
        b.commit(DOWNSTREAM, &branch, keys, &format!("dev {k}.{i}"));
    }
    for (i, keys) in w.head_updates.iter().enumerate() {
        b.commit(UPSTREAM, "master", keys, &format!("head {k}.{i}"));
    }
    b.merge_into(names, &branch, "without_pr");
    b.reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(reqs: &[Req]) -> Vec<&str> {
        reqs.iter().map(|r| r.line.as_str()).collect()
    }

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        let w = pipeline("readmission");
        let script = |seed: u64| {
            let names = Names::from_seed(seed);
            let mut all = cold_episode(&w, &names);
            all.extend(warm_rounds(&w, &names, seed, 100, 30));
            all.extend(writer_cycle(&w, &names, 3));
            all.extend((0..50).map(|i| reader_req(seed, i)));
            all.push(reader_open(&names, 99));
            all
        };
        assert_eq!(script(1), script(1));
        assert_ne!(lines(&script(1)), lines(&script(2)));
        assert_eq!(cold_order(5), cold_order(5));
        let orders: Vec<_> = (0..8).map(cold_order).collect();
        assert!(orders.iter().any(|o| o != &orders[0]));
    }

    #[test]
    fn cold_order_visits_every_pipeline() {
        let mut p = cold_order(9);
        p.sort();
        let mut all = PIPELINES;
        all.sort();
        assert_eq!(p, all);
    }

    #[test]
    fn every_line_is_a_request_the_daemon_parses() {
        let w = pipeline("readmission");
        let names = Names::from_seed(4);
        let mut all = cold_episode(&w, &names);
        all.extend(warm_rounds(&w, &names, 4, 100, 5));
        all.extend(writer_cycle(&w, &names, 0));
        all.push(reader_req(4, 0));
        for q in &all {
            let parsed = mlcask_server::protocol::parse_request(&q.line).expect("parses");
            assert_eq!(parsed.method, q.method);
            assert_eq!(parsed.id, serde::Value::U64(q.id));
        }
        // Ids are unique within a script.
        let mut ids: Vec<u64> = all.iter().map(|q| q.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn warm_rounds_shape() {
        let w = pipeline("readmission");
        let names = Names::from_seed(1);
        let reqs = warm_rounds(&w, &names, 1, 100, 40);
        // A round starts at its fork, the only `Other` request in it.
        let ops: Vec<Op> = reqs.iter().map(|q| q.op).collect();
        let rounds: Vec<&[Op]> = ops.chunk_by(|_, next| *next != Op::Other).collect();
        assert_eq!(rounds.len(), 40);
        for (k, ops) in rounds.into_iter().enumerate() {
            let commits = ops.iter().filter(|o| **o == Op::Commit).count();
            assert!((2..=4).contains(&commits), "round {k}: {commits} commits");
            assert_eq!(ops.iter().filter(|o| **o == Op::Merge).count(), 1);
            assert_eq!(ops.iter().filter(|o| **o == Op::Read).count(), 4);
            assert_eq!(ops[0], Op::Other);
        }
    }
}
