//! One seeded simulation of the daemon, checked against a model.
//!
//! A seed picks a script of steps in [`Client`]'s language — sessions with
//! and without a logical quota, commits, branches, grants, revocations,
//! forks, merges, `merge.into` a peer's branch, reads — served by
//! `Router::handle_text` on the toy chain, plus `sweep`
//! (`Workspace::sweep_orphans`), the one step that is not a request.
//! Beside it runs [`Model`], DataHub's version graph made small: a commit
//! has no parent (a root), one, or two (a merge); a branch names a head in
//! its tenant's namespace; a fork is a branch at a peer's head; the share
//! table ranks `fork < merge_into`. After every step the model
//! predicts the reply's class and commit fields, and the graph, the grants
//! and the open reservations are compared with it. A failing script
//! shrinks, one step at a time, to a minimal one; those are kept in
//! [`REGRESSIONS`], which every property runs first.

mod common;

use common::{accounting_fingerprint, join_cost, serve, Client, Gate, MODELS};
use mlcask_pipeline::metafile::PipelineMetafile;
use mlcask_storage::object::{ObjectKind, ObjectRef};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{map_get, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The tenants; a request may also name `ghost`, whom no one registers.
const TENANTS: [&str; 3] = ["up", "mid", "down"];
/// Branch names: two spell a peer's branch, one no tenant's.
const BRANCHES: [&str; 5] = ["master", "dev", "up/master", "down/dev", "a/b"];
/// Share rights, weakest first.
const RIGHTS: [&str; 2] = ["fork", "merge_into"];
/// Steps per seeded script, seeded scripts per property, gated readers.
const LEN: usize = 60;
const CASES: u64 = 10;
const READERS: usize = 3;

/// Minimal scripts that once failed, steps separated by `; `, each run
/// first by every property: a `fork` grant that admitted `merge.into`, a
/// branch name with a `/` resolved outside its tenant's namespace, a merge
/// commit that lost its second parent.
const REGRESSIONS: &[&str] = &[
    "mid open unlimited; up open unlimited; mid grant up fork",
    "mid open unlimited; mid commit a/b 1 0 4",
    "up open unlimited; up commit a/b 1 0 2; up fork up a/b dev; up merge a/b dev",
];

/// Seed `seed`'s script: every tenant opens a session, then random steps.
/// Three branch names in four are ones the model says their owner holds.
fn script(seed: u64) -> Vec<String> {
    fn any<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
        *xs.choose(rng).unwrap()
    }
    let rng = &mut StdRng::seed_from_u64(seed);
    let open = |t: &str, rng: &mut StdRng| {
        let quota = ["starved", "refused"]
            .get(rng.gen_range(0..6usize))
            .copied();
        format!("{t} open {}", quota.unwrap_or("unlimited"))
    };
    let mut ops: Vec<String> = TENANTS.iter().map(|t| open(t, rng)).collect();
    ops.shuffle(rng);
    let mut model = Model::default();
    ops.iter().for_each(|op| drop(model.step(op)));
    while ops.len() < LEN {
        let me = any(rng, &TENANTS);
        let others: Vec<_> = TENANTS.into_iter().filter(|&t| t != me).collect();
        let peer = [me, "ghost"].get(rng.gen_range(0..10usize)).copied();
        let peer = peer.unwrap_or_else(|| any(rng, &others));
        let head = |owner: &str, b: &str| model.heads.get(&format!("{owner}/{b}")).copied();
        let akin = |x, y| !model.ancestors(x).is_disjoint(&model.ancestors(y));
        // Three times in four a branch `owner` holds, other than `not` and
        // sharing history with commit `kin` if given, if there is one; else
        // any name but `not`.
        let mut pick = |owner: &str, not: &str, kin: Option<usize>| {
            let fits =
                |b| b != not && head(owner, b).is_some_and(|h| kin.is_none_or(|k| akin(h, k)));
            let held = BRANCHES.into_iter().filter(|&b| fits(b));
            match (rng.gen_range(0..4), held.collect::<Vec<_>>().choose(rng)) {
                (1.., Some(&b)) => b,
                _ => any(rng, &BRANCHES.map(|b| if b == not { "master" } else { b })),
            }
        };
        let (a, theirs, other) = (pick(me, "", None), pick(peer, "", None), pick(me, "", None));
        let b = pick(me, a, head(me, a));
        // Three times in four, one of the peer's branches and one of `me`'s
        // that share history, if there are such.
        let related = |t, o| {
            head(peer, t)
                .zip(head(me, o))
                .is_some_and(|(t, o)| akin(t, o))
        };
        let pairs = BRANCHES.iter().flat_map(|&t| BRANCHES.map(|o| (t, o)));
        let pairs: Vec<_> = pairs.filter(|&(t, o)| related(t, o)).collect();
        let (base, into) = match (rng.gen_range(0..4), pairs.choose(rng)) {
            (1.., Some(&pair)) => pair,
            _ => (theirs, other),
        };
        let unheld: Vec<_> = BRANCHES
            .into_iter()
            .filter(|&b| head(me, b).is_none())
            .collect();
        let fresh = unheld.choose(rng).copied().unwrap_or("dev");
        let (source, scaler) = (rng.gen_range(0..2), rng.gen_range(0..4));
        let pipeline = format!("{source} {scaler} {}", rng.gen_range(0..MODELS.len()));
        // Two times in three, a step the share table refuses becomes the
        // grant that admits it.
        let cooperate = rng.gen_range(0..3) > 0 && model.tenants.contains_key(peer);
        let lacks = |right| cooperate && model.allowed(peer, me, right).is_err();
        let op = match rng.gen_range(0..32) {
            _ if !model.tenants.contains_key(me) && rng.gen() => open(me, rng),
            13..=16 if lacks("fork") => format!("{peer} grant {me} fork"),
            20..=26 if lacks("merge_into") => format!("{peer} grant {me} merge_into"),
            0 => open(me, rng),
            1..=4 => format!("{me} commit {a} {pipeline}"),
            5..=7 => format!("{me} commit {into} {pipeline}"),
            8 | 9 => format!("{me} branch {a} {fresh}"),
            10 | 11 => format!("{me} grant {peer} {}", any(rng, &RIGHTS)),
            12 => format!("{me} revoke {peer}"),
            13..=16 => format!("{me} fork {peer} {theirs} {fresh}"),
            17..=19 => format!("{me} merge {a} {b}"),
            20..=26 => format!("{me} merge.into {peer} {base} {into}"),
            27 => format!("{me} log {a} {}", rng.gen_range(1..4)),
            28 | 29 => format!("{me} {}", any(rng, &["head master", "branches", "usage"])),
            30 => "workspace.usage".into(),
            _ => "sweep".into(),
        };
        drop(model.step(&op));
        ops.push(op);
    }
    ops
}

/// A commit as the model knows it; its tick is its index + 1.
#[derive(Clone, Debug)]
struct Node {
    branch: String,
    seq: u64,
    message: String,
    parents: Vec<usize>,
}

/// A reply as the model predicts it.
#[derive(Debug)]
enum Want {
    /// A reply whose content the model does not predict.
    Done,
    Session(u64),
    /// A commit record (`head`, `branch`, `fork`).
    Commit(usize),
    /// A `commit` reply: the new commit, or none when the precheck refused.
    Committed(Option<usize>),
    /// A merge reply: whether it fast-forwarded, and the merge commit.
    Merged(bool, usize),
    Log(Vec<usize>),
    /// `branches`, or the tenants `workspace.usage` lists.
    Names(Vec<String>),
}

/// A step's answer: a reply, or a fragment of its error message.
type Answer = Result<Want, String>;

/// The reference model: the namespaced version graph and the share table.
#[derive(Clone, Default)]
struct Model {
    commits: Vec<Node>,
    /// Each branch's head, by its name in the shared graph.
    heads: BTreeMap<String, usize>,
    /// Joined tenants, and whether each joined starved.
    tenants: BTreeMap<String, bool>,
    /// (owner, peer) → the right granted, as its rank in [`RIGHTS`] from 1.
    grants: BTreeMap<(String, String), usize>,
    /// Each joined tenant's latest session.
    sessions: BTreeMap<String, u64>,
    /// A join was refused or a write breached a quota: either may leave
    /// bytes no one was charged for, which a sweep reclaims.
    dirty: bool,
}

fn rank(right: &str) -> usize {
    RIGHTS.iter().position(|r| *r == right).unwrap() + 1
}

impl Model {
    fn step(&mut self, op: &str) -> Answer {
        let w: Vec<&str> = op.split(' ').collect();
        let me = w[0];
        if w.len() > 1 && w[1] != "open" && !self.sessions.contains_key(me) {
            return Err("no such session 0".into());
        }
        let own = |b: &str| format!("{me}/{b}");
        match w[..] {
            [_, "open", quota] => {
                match self.tenants.get(me) {
                    None if quota == "refused" => return Err(self.breach()),
                    None => drop(self.tenants.insert(me.into(), quota == "starved")),
                    // A reopen may name no quota, or the one it joined with.
                    Some(&starved) if quota == "refused" || (quota == "starved" && !starved) => {
                        return Err(format!("tenant '{me}' joined with quota"));
                    }
                    Some(_) => {}
                }
                let session = self.sessions.values().max().map_or(1, |s| s + 1);
                self.sessions.insert(me.into(), session);
                Ok(Want::Session(session))
            }
            [_, "commit", _, _, "3", _] => Ok(Want::Committed(None)),
            [_, "commit", b, ..] => {
                self.charge(me)?;
                let parents = self.heads.get(&own(b)).into_iter().copied().collect();
                let commit = self.append(own(b), "commit", parents);
                Ok(Want::Committed(Some(commit)))
            }
            [_, "branch", from, to] => {
                let at = self.head(&own(from))?;
                self.create(own(to), at)
            }
            [_, "grant", peer, right] => {
                self.joined(peer)?;
                self.grants.insert((me.into(), peer.into()), rank(right));
                Ok(Want::Done)
            }
            [_, "revoke", peer] => {
                self.grants.remove(&(me.into(), peer.into()));
                Ok(Want::Done)
            }
            [_, "fork", peer, b, new] => {
                self.allowed(peer, me, "fork")?;
                let at = self.head(&format!("{peer}/{b}"))?;
                self.create(own(new), at)
            }
            [_, "merge", base, merging] if base == merging => {
                Err(format!("cannot merge branch '{base}' into itself"))
            }
            [_, "merge", base, merging] => self.merge(me, own(base), own(merging), merging),
            [_, "merge.into", peer, b, merging] => {
                self.allowed(peer, me, "merge_into")?;
                let (base, merging) = (format!("{peer}/{b}"), own(merging));
                if base == merging {
                    return Err(format!("cannot merge branch '{base}' into itself"));
                }
                self.merge(me, base, merging.clone(), &merging)
            }
            [_, "log", b, limit] => {
                let limit: usize = limit.parse().expect("a log step's limit is a number");
                let mut lineage = vec![self.head(&own(b))?];
                while let Some(&parent) = self.commits[lineage[lineage.len() - 1]].parents.first() {
                    if lineage.len() == limit {
                        break;
                    }
                    lineage.push(parent);
                }
                Ok(Want::Log(lineage))
            }
            [_, "head", b] => Ok(Want::Commit(self.head(&own(b))?)),
            [_, "branches"] => {
                let mine = self.heads.keys().filter_map(|b| b.strip_prefix(&own("")));
                Ok(Want::Names(mine.map(String::from).collect()))
            }
            ["workspace.usage"] => Ok(Want::Names(self.tenants.keys().cloned().collect())),
            _ => Ok(Want::Done),
        }
    }

    fn head(&self, branch: &str) -> Result<usize, String> {
        let unknown = || format!("unknown branch '{branch}'");
        self.heads.get(branch).copied().ok_or_else(unknown)
    }

    fn joined(&self, tenant: &str) -> Result<(), String> {
        match self.tenants.contains_key(tenant) {
            true => Ok(()),
            false => Err(format!("no tenant named '{tenant}'")),
        }
    }

    /// The access rule: may `me` act on `owner`'s branches at `needed`?
    fn allowed(&self, owner: &str, me: &str, needed: &str) -> Result<(), String> {
        self.joined(owner)?;
        let granted = self.grants.get(&(owner.into(), me.into()));
        if owner == me || granted.is_some_and(|&r| r >= rank(needed)) {
            return Ok(());
        }
        let needed = needed.replace('_', "-");
        Err(format!(
            "tenant '{owner}' has not granted '{me}' the {needed} right"
        ))
    }

    fn breach(&mut self) -> String {
        self.dirty = true;
        "quota exceeded".into()
    }

    /// A write by `me`: refused if its join left it no headroom.
    fn charge(&mut self, me: &str) -> Result<(), String> {
        match self.tenants[me] {
            true => Err(self.breach()),
            false => Ok(()),
        }
    }

    fn create(&mut self, branch: String, at: usize) -> Answer {
        if self.heads.contains_key(&branch) {
            return Err(format!("branch '{branch}' already exists"));
        }
        self.heads.insert(branch, at);
        Ok(Want::Commit(at))
    }

    fn append(&mut self, branch: String, message: &str, parents: Vec<usize>) -> usize {
        let seq = parents.first().map_or(0, |&p| self.commits[p].seq + 1);
        self.heads.insert(branch.clone(), self.commits.len());
        let message = message.to_string();
        self.commits.push(Node {
            branch,
            seq,
            message,
            parents,
        });
        self.commits.len() - 1
    }

    fn ancestors(&self, commit: usize) -> BTreeSet<usize> {
        let (mut seen, mut todo) = (BTreeSet::new(), vec![commit]);
        while let Some(c) = todo.pop() {
            if seen.insert(c) {
                todo.extend(&self.commits[c].parents);
            }
        }
        seen
    }

    /// Merges shared-graph branch `merging` into `base` as `me`: a
    /// fast-forward if `base`'s head is an ancestor of `merging`'s, else a
    /// search if they share history. Either commits with both heads as
    /// parents, the base's first.
    fn merge(&mut self, me: &str, base: String, merging: String, label: &str) -> Answer {
        let (b, m) = (self.head(&base)?, self.head(&merging)?);
        let fast_forward = self.ancestors(m).contains(&b);
        if !fast_forward && self.ancestors(b).is_disjoint(&self.ancestors(m)) {
            return Err(format!(
                "no common ancestor between '{base}' and '{merging}'"
            ));
        }
        self.charge(me)?;
        let message = match fast_forward {
            true => format!("fast-forward merge of {label}"),
            false => format!("metric-driven merge of {label} (MLCask)"),
        };
        let merge = self.append(base, &message, vec![b, m]);
        Ok(Want::Merged(fast_forward, merge))
    }
}

/// What a run checks besides serving its script, as bits.
/// Each reply, the graph, the grants and the open reservations, against
/// the model.
const MODEL: u8 = 1;
/// A refused step leaves [`accounting_fingerprint`] unchanged.
const REFUSED: u8 = 2;
/// A sweep reclaims nothing reachable, and a second sweep nothing.
const SWEEP: u8 = 4;
/// Each reply against the model, and [`READERS`] threads gated into each
/// `merge.into` search that runs a component read the state before the
/// step, and after it the state after.
const GATED: u8 = 8;

/// Searches readers were gated into, over every run.
static GATED_SEARCHES: AtomicUsize = AtomicUsize::new(0);

/// A client serving a script, the model beside it, and the id the daemon
/// gave each model commit.
struct Sim {
    client: Client,
    gate: Gate,
    model: Model,
    ids: Vec<String>,
}

impl Sim {
    fn new(workers: usize, cask: Option<&Path>) -> Sim {
        let (router, gate) = serve(workers, cask);
        let (client, model, ids) = (Client::new(router), Model::default(), Vec::new());
        Sim {
            client,
            gate,
            model,
            ids,
        }
    }

    /// Serves `op`: its transcript line, or the first of `checks` it fails.
    fn step(&mut self, op: &str, checks: u8) -> Result<String, String> {
        let ws = Arc::clone(self.client.router.workspace());
        let before = (checks & REFUSED != 0).then(|| accounting_fingerprint(&ws));
        let reads = self.arm_readers(op, checks & GATED != 0);
        let before_step = reads.as_ref().map(|_| self.model.clone());
        let want = self.model.step(op);
        let reply = match op {
            "sweep" => self.sweep(checks & SWEEP != 0)?,
            _ => self.client.send(op),
        };
        if checks & (MODEL | GATED) != 0 && op != "sweep" {
            self.agree(&want, &reply)?;
        }
        if checks & MODEL != 0 {
            self.graph_agrees()?;
            self.grants_agree()?;
            if ws.store().tenant_accounts().open_reservations() != 0 {
                return Err("a reservation outlived its step".into());
            }
        }
        let refused = matches!(want, Err(_) | Ok(Want::Committed(None)));
        if before.is_some_and(|before| refused && accounting_fingerprint(&ws) != before) {
            return Err(format!("the refused step moved the workspace: {reply}"));
        }
        if let (Some((reads, seen)), Some(before)) = (reads, before_step) {
            self.readers_agree(&reads, seen, before)?;
        }
        Ok(reply)
    }

    /// For a `merge.into` step, arms the gate: the first component the
    /// search runs lets [`READERS`] threads read the base branch, the
    /// peer's branches and the merging branch, and waits for them.
    fn arm_readers(&self, op: &str, gated: bool) -> Option<(Vec<(String, String)>, Seen)> {
        let [me, "merge.into", peer, base, merging] = op.split(' ').collect::<Vec<_>>()[..] else {
            return None;
        };
        if !gated {
            return None;
        }
        let reads = [
            format!("{peer} log {base} 50"),
            format!("{peer} head {base}"),
            format!("{peer} branches"),
            format!("{me} log {merging} 50"),
        ];
        let reads = reads.map(|r| (self.client.line(&r), r)).to_vec();
        let seen = Seen::default();
        let router = Arc::clone(&self.client.router);
        let (lines, out) = (reads.clone(), Arc::clone(&seen));
        *self.gate.lock().unwrap() = Some(Box::new(move || {
            std::thread::scope(|s| {
                for _ in 0..READERS {
                    let (router, lines, out) = (&router, &lines, &out);
                    s.spawn(move || {
                        for (line, read) in lines.iter() {
                            let reply = router.handle_text(line);
                            out.lock().unwrap().push((read.clone(), reply));
                        }
                    });
                }
            })
        }));
        Some((reads, seen))
    }

    /// Checks what the readers saw inside the search, which is what the
    /// model answered before the step, and what each reads once more after
    /// it, which is what the model answers now.
    fn readers_agree(
        &mut self,
        reads: &[(String, String)],
        seen: Seen,
        before: Model,
    ) -> Result<(), String> {
        if self.gate.lock().unwrap().take().is_none() {
            GATED_SEARCHES.fetch_add(1, Ordering::Relaxed);
        }
        let inside = std::mem::take(&mut *seen.lock().unwrap());
        let router = Arc::clone(&self.client.router);
        let after = reads
            .iter()
            .map(|(line, read)| (read.clone(), router.handle_text(line)));
        let after: Vec<_> = (0..READERS).flat_map(|_| after.clone()).collect();
        let now = self.model.clone();
        let inside = inside.into_iter().map(|seen| (&before, seen));
        for (state, (read, reply)) in inside.chain(after.into_iter().map(|seen| (&now, seen))) {
            let answer = state.clone().step(&read);
            self.agree(&answer, &reply)
                .map_err(|e| format!("a reader of {read}: {e}"))?;
        }
        Ok(())
    }

    /// Whether `reply` is what the model answered.
    fn agree(&mut self, want: &Answer, reply: &str) -> Result<(), String> {
        let v: Value = serde_json::from_str(reply).map_err(|e| e.to_string())?;
        let field = |key| map_get(v.as_map().unwrap_or_default(), key);
        let message = field("error").and_then(|e| map_get(e.as_map()?, "message"));
        let agrees = match (want, field("result"), message) {
            (Err(fragment), None, Some(Value::Str(m))) => m.contains(fragment.as_str()),
            (Ok(want), Some(result), None) => self.matches(want, result),
            _ => false,
        };
        match agrees {
            true => Ok(()),
            false => Err(format!("the model answers {want:?}, the daemon {reply}")),
        }
    }

    fn matches(&mut self, want: &Want, got: &Value) -> bool {
        let field = |key| got.as_map().and_then(|m| map_get(m, key));
        let flag = |key, on| field(key) == Some(&Value::Bool(on));
        match want {
            Want::Done => true,
            Want::Session(id) => field("session") == Some(&Value::U64(*id)),
            Want::Commit(c) => self.commit(*c, Some(got)),
            Want::Committed(None) => flag("committed", false),
            Want::Committed(Some(c)) => flag("committed", true) && self.commit(*c, field("commit")),
            Want::Merged(ff, c) => {
                let searched = field("search").is_some() != *ff;
                flag("committed", true)
                    && flag("fast_forward", *ff)
                    && searched
                    && self.commit(*c, field("commit"))
            }
            Want::Log(lineage) => got.as_seq().is_some_and(|got| {
                got.len() == lineage.len()
                    && lineage
                        .iter()
                        .zip(got)
                        .all(|(&c, g)| self.commit(c, Some(g)))
            }),
            Want::Names(names) => {
                let listed = got.as_seq().map(|items| items.to_vec());
                let keys = got
                    .as_map()
                    .map(|m| m.iter().map(|(k, _)| Value::Str(k.clone())));
                let names: Vec<Value> = names.iter().map(|n| Value::Str(n.clone())).collect();
                listed.or_else(|| keys.map(Iterator::collect)) == Some(names)
            }
        }
    }

    /// Whether `got` is model commit `c`'s record, learning its id if this
    /// step made it.
    fn commit(&mut self, c: usize, got: Option<&Value>) -> bool {
        let Some(got) = got else { return false };
        if c == self.ids.len() {
            match got.as_map().and_then(|m| map_get(m, "id")) {
                Some(Value::Str(id)) => self.ids.push(id.clone()),
                _ => return false,
            }
        }
        self.record(c).as_ref() == Some(got)
    }

    /// Model commit `c` as the daemon writes a commit record.
    fn record(&self, c: usize) -> Option<Value> {
        let node = &self.model.commits[c];
        let id = |c: usize| self.ids.get(c).map(|id| Value::Str(id.clone()));
        let parents = node.parents.iter().map(|&p| id(p)).collect::<Option<_>>()?;
        Some(Value::Map(vec![
            ("id".into(), id(c)?),
            ("branch".into(), Value::Str(node.branch.clone())),
            ("seq".into(), Value::U64(node.seq)),
            ("message".into(), Value::Str(node.message.clone())),
            ("parents".into(), Value::Seq(parents)),
            ("tick".into(), Value::U64(c as u64 + 1)),
        ]))
    }

    /// The graph holds the model's commits — each a reply already matched
    /// with the model's record — with the model's branches at its heads.
    fn graph_agrees(&self) -> Result<(), String> {
        let view = self.client.router.workspace().graph();
        let head = |b: &String| view.head(b).map(|c| c.id.to_hex()).ok();
        let heads: BTreeMap<_, _> = view.branches().into_iter().map(|b| (head(&b), b)).collect();
        let modelled = self
            .model
            .heads
            .iter()
            .map(|(b, &c)| (self.ids.get(c).cloned(), b.clone()));
        match view.len() == self.model.commits.len() && heads == modelled.collect() {
            true => Ok(()),
            false => Err(format!("the graph is not the model's: heads {heads:?}")),
        }
    }

    /// The grants the workspace enforces are the model's, as far as a
    /// request tells: `fork` admits a fork, `merge_into` a merge into the
    /// owner's branch. Each probe names a branch no one has.
    fn grants_agree(&mut self) -> Result<(), String> {
        let joined: Vec<String> = self.model.sessions.keys().cloned().collect();
        for (me, owner) in joined
            .iter()
            .flat_map(|me| joined.iter().map(move |o| (me, o)))
        {
            for probe in [
                format!("{me} fork {owner} ? ?"),
                format!("{me} merge.into {owner} ? ?"),
            ] {
                let want = self.model.clone().step(&probe);
                let reply = self.client.send(&probe);
                self.agree(&want, &reply)?;
            }
        }
        Ok(())
    }

    /// Sweeps the workspace. With `check`, sweeps again, then reads back
    /// every checkpoint and every live commit's metafile and outputs.
    fn sweep(&self, check: bool) -> Result<String, String> {
        let ws = self.client.router.workspace();
        let e = |e: mlcask_core::errors::CoreError| e.to_string();
        let swept = ws.sweep_orphans().map_err(e)?.removed_objects;
        if check {
            let again = ws.sweep_orphans().map_err(e)?.removed_objects;
            if again != 0 || (swept != 0 && !self.model.dirty) {
                return Err(format!("the sweeps removed {swept}, then {again} objects"));
            }
            let view = ws.graph();
            let mut live: Vec<ObjectRef> =
                ws.history().snapshot().values().map(|c| c.object).collect();
            for id in view.live_commits().map_err(|e| e.to_string())? {
                let id = view.commit(id).map_err(|e| e.to_string())?.payload;
                let payload = ObjectRef {
                    id,
                    kind: ObjectKind::Pipeline,
                    len: 0,
                };
                let meta: PipelineMetafile =
                    ws.store().get_meta(&payload).map_err(|e| e.to_string())?;
                live.extend(meta.slots.iter().map(|slot| slot.output));
            }
            for object in live.iter().filter(|o| !o.is_null()) {
                let read = ws.store().get_blob(object);
                read.map_err(|e| format!("a sweep removed a live blob: {e}"))?;
            }
        }
        Ok(format!("sweep removed {swept} objects"))
    }
}

/// What gated readers saw: the read and its reply.
type Seen = Arc<Mutex<Vec<(String, String)>>>;

/// Serves `script` at `workers`, in memory or on a cask at `cask`, making
/// `checks`: the transcript, or the step that failed and why.
fn run(
    script: &[String],
    workers: usize,
    cask: Option<&Path>,
    checks: u8,
) -> Result<Vec<String>, String> {
    let mut sim = Sim::new(workers, cask);
    let step = |(n, op): (usize, &String)| {
        sim.step(op, checks)
            .map_err(|e| format!("step {n}, {op}: {e}"))
    };
    script.iter().enumerate().map(step).collect()
}

/// Whether `script` fails `checks` at one worker in memory, a panic
/// counted as a failure.
fn fails(script: &[String], checks: u8) -> bool {
    let run = catch_unwind(AssertUnwindSafe(|| run(script, 1, None, checks)));
    !matches!(run, Ok(Ok(_)))
}

fn regressions() -> impl Iterator<Item = Vec<String>> {
    REGRESSIONS
        .iter()
        .map(|steps| steps.split("; ").map(String::from).collect())
}

/// Runs the regression list, then `cases` seeded scripts, under `checks`;
/// a failing seed fails the test with its script shrunk.
fn holds(checks: u8, cases: u64) {
    for (n, script) in regressions().enumerate() {
        if let Err(e) = run(&script, 1, None, checks) {
            panic!("regression {n} fails: {e}");
        }
    }
    for seed in 0..cases {
        let mut script = script(seed);
        if !fails(&script, checks) {
            continue;
        }
        // Drop one step at a time while the script still fails.
        let mut i = 0;
        while i < script.len() {
            let mut shorter = script.clone();
            shorter.remove(i);
            match fails(&shorter, checks) {
                true => (script, i) = (shorter, 0),
                false => i += 1,
            }
        }
        let e = run(&script, 1, None, checks).err();
        panic!(
            "seed {seed} fails, shrunk to {:?}: {e:?}",
            script.join("; ")
        );
    }
}

/// Each reply, the graph, the grants and the open reservations agree with
/// the model after every step.
#[test]
fn the_model_agrees_after_every_step() {
    holds(MODEL, CASES);
}

/// A refused step — an error, or a commit the precheck turned down —
/// leaves the graph, the usages, the fair-share view and the open
/// reservations bit-unchanged.
#[test]
fn refused_steps_leave_graph_usages_and_reservations_unchanged() {
    holds(REFUSED, CASES);
}

/// A sweep removes nothing a commit, a checkpoint or a registry reaches —
/// nothing at all unless a join was refused or a quota breached — and a
/// second sweep nothing; the model agrees all along.
#[test]
fn a_sweep_removes_nothing_reachable_and_a_second_sweep_nothing() {
    holds(SWEEP | MODEL, CASES);
}

/// A transcript is byte-identical at workers {1, 2, 8}, in memory and on a
/// cask: parallel searches and the durable store change wall-clock only.
#[test]
fn transcripts_are_identical_at_every_worker_count_and_store() {
    let dir = std::env::temp_dir().join(format!("mlcask-simulation-{}", std::process::id()));
    for seed in 0..CASES / 3 {
        let script = script(seed);
        let reference = run(&script, 1, None, 0).unwrap();
        for (workers, cask) in [(2, false), (8, false), (1, true), (2, true), (8, true)] {
            let path = dir.join(format!("{seed}-{workers}"));
            let transcript = run(&script, workers, cask.then_some(path.as_path()), 0);
            assert_eq!(
                transcript.unwrap(),
                reference,
                "seed {seed}, cask {cask}, {workers} workers"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers gated into live `merge.into` searches see a state of the model,
/// at a step that never goes back (see [`GATED`]).
#[test]
fn gated_readers_see_a_model_state_that_never_goes_back() {
    holds(GATED, 2 * CASES);
    let gated = GATED_SEARCHES.load(Ordering::Relaxed);
    assert!(gated > 0, "no reader was gated into a live merge search");
}

/// The regression list under every check, and byte for byte again on a
/// cask at eight workers.
#[test]
fn the_regression_list_holds() {
    let dir = std::env::temp_dir().join(format!("mlcask-regressions-{}", std::process::id()));
    for (n, script) in regressions().enumerate() {
        let all = MODEL | REFUSED | SWEEP | GATED;
        let reference =
            run(&script, 1, None, all).unwrap_or_else(|e| panic!("regression {n}: {e}"));
        let cask = dir.join(n.to_string());
        assert_eq!(
            run(&script, 8, Some(&cask), 0).unwrap(),
            reference,
            "regression {n}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session for a joined tenant that names a quota other than the one it
/// joined with is refused with a `-32001` error naming the tenant and its
/// joined quota, and moves nothing; one naming no quota, or the joined
/// one, is served.
#[test]
fn a_reopen_naming_another_quota_is_refused() {
    let script = [
        "up open starved",
        "down open unlimited",
        "up open unlimited",
        "up open starved",
        "up open refused",
        "down open starved",
        "down open unlimited",
    ];
    let script: Vec<String> = script.map(String::from).to_vec();
    let transcript = run(&script, 1, None, MODEL | REFUSED).unwrap();
    let joined = [
        (
            4,
            format!(
                "'up' joined with quota (logical {} B, physical unlimited)",
                join_cost()
            ),
        ),
        (
            5,
            "'down' joined with quota (logical unlimited, physical unlimited)".into(),
        ),
    ];
    for (step, quota) in joined {
        let reply = &transcript[step];
        assert!(
            reply.contains("-32001") && reply.contains(&quota),
            "{reply}"
        );
    }
}

/// Ten times the default case count, under every check at once.
#[test]
#[ignore = "the long variant, which CI's check job runs in release"]
fn ten_times_the_cases_under_every_check() {
    holds(MODEL | REFUSED | SWEEP | GATED, 10 * CASES);
}
