//! Experiment scenario drivers (§VII-B).
//!
//! *Linear versioning*: "we perform a series of pipeline component updates
//! and pipeline retraining operations … In every iteration, we update the
//! pre-processing component at a probability of 0.4 and update the model
//! component at a probability of 0.6. At the last iteration, the pipeline is
//! designed to have an incompatibility problem between the last two
//! components."
//!
//! *Non-linear versioning*: "we first generate two branches, then update
//! components on both branches and merge the two updated branches" —
//! reproduced with the Fig. 3 histories each workload carries.

use crate::common::Workload;
use crate::errors::{CoreError, Result};
use mlcask_core::merge::MergeStrategy;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::{BranchRef, MergeOutcome, MlCask};
use mlcask_core::workspace::{Tenant, Workspace};
use mlcask_obs::config::{Config, StoreKind};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_storage::backend::{Bytes, MemBackend, StorageBackend};
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::cask::CaskBackend;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::{QuotaPolicy, ShareRight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear-versioning scenario parameters (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct LinearScenario {
    /// Number of iterations (10 in the paper).
    pub(crate) iterations: usize,
    /// Probability that an iteration updates a pre-processing component
    /// (0.4 in the paper; otherwise the model updates).
    pub(crate) p_update_preproc: f64,
    /// RNG seed controlling the update schedule.
    pub(crate) seed: u64,
}

impl Default for LinearScenario {
    fn default() -> Self {
        LinearScenario {
            iterations: 10,
            p_update_preproc: 0.4,
            seed: 42,
        }
    }
}

/// Produces the pipeline binding for every iteration of the linear
/// scenario. All systems under test replay this same sequence, so
/// comparisons isolate the system policies.
pub fn linear_update_sequence(w: &Workload, sc: &LinearScenario) -> Vec<Vec<ComponentKey>> {
    assert!(
        sc.iterations >= 2,
        "need at least initial + final iterations"
    );
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let mut idx: Vec<usize> = vec![0; w.slots.len()];
    let preproc_slots = w.preproc_slots();
    let mut out = Vec::with_capacity(sc.iterations);
    out.push(w.initial.clone());
    let current = |idx: &[usize]| -> Vec<ComponentKey> {
        idx.iter()
            .enumerate()
            .map(|(s, &i)| w.chains[s][i].clone())
            .collect()
    };
    for it in 1..sc.iterations {
        if it == sc.iterations - 1 {
            // Final iteration: schema-changing pre-processing update without
            // a matching model update → incompatible pipeline.
            let (slot, ref v) = w.incompat_update;
            let mut keys = current(&idx);
            keys[slot] = v.clone();
            out.push(keys);
            break;
        }
        let update_preproc = rng.gen_bool(sc.p_update_preproc);
        let advanced = if update_preproc {
            advance_one(&mut idx, &preproc_slots, &w.chains, &mut rng)
        } else {
            advance_one(&mut idx, &[w.model_slot], &w.chains, &mut rng)
        };
        if !advanced {
            // Preferred kind exhausted; fall back to the other kind.
            let fallback: Vec<usize> = if update_preproc {
                vec![w.model_slot]
            } else {
                preproc_slots.clone()
            };
            advance_one(&mut idx, &fallback, &w.chains, &mut rng);
        }
        out.push(current(&idx));
    }
    out
}

/// Advances one randomly chosen slot (among `slots`) that still has unused
/// chain versions. Returns false if all given slots are exhausted.
fn advance_one(
    idx: &mut [usize],
    slots: &[usize],
    chains: &[Vec<ComponentKey>],
    rng: &mut StdRng,
) -> bool {
    let available: Vec<usize> = slots
        .iter()
        .copied()
        .filter(|&s| idx[s] + 1 < chains[s].len())
        .collect();
    if available.is_empty() {
        return false;
    }
    let slot = available[rng.gen_range(0..available.len())];
    idx[slot] += 1;
    true
}

/// The store every scenario (and `Router::in_memory`) runs on. This is the
/// test harness's process boundary, where it reads the environment:
/// `MLCASK_BACKEND` picks memory (default) or a cask in a scratch directory
/// named after `tag`, `MLCASK_CACHE_BYTES` the blob cache — how CI's
/// backend-matrix leg drives the same suites over the durable backend.
///
/// # Panics
/// On a value [`Config::parse`] rejects: a matrix cell that cannot be built
/// must fail, not run the default instead.
pub fn harness_store(tag: &str) -> Arc<ChunkStore> {
    let config = Config::from_env().unwrap_or_else(|e| panic!("{e}"));
    store_for(&config, tag)
}

fn store_for(config: &Config, tag: &str) -> Arc<ChunkStore> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let backend: Arc<dyn StorageBackend> = match config.store {
        StoreKind::Mem => Arc::new(MemBackend::new()),
        StoreKind::Cask => {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("mlcask-env-{tag}-{}-{seq}", std::process::id()));
            let cask = CaskBackend::open(&dir).expect("cask backend opens in temp dir");
            Arc::new(ScratchCask {
                cask,
                _dir: ScratchDir(dir),
            })
        }
    };
    let cache = config
        .cache_bytes
        .map(|n| CacheOptions::default().with_capacity(n));
    Arc::new(ChunkStore::with_cache(
        backend,
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        cache,
    ))
}

/// A cask whose scratch directory goes when the last handle on the backend
/// does. Fields drop in declaration order: the cask first (its drop drains
/// and joins the writer thread), then the directory.
struct ScratchCask {
    cask: CaskBackend,
    _dir: ScratchDir,
}

struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl StorageBackend for ScratchCask {
    fn put(&self, key: Hash256, data: &[u8]) -> mlcask_storage::errors::Result<bool> {
        self.cask.put(key, data)
    }
    fn put_many(&self, items: &[(Hash256, &[u8])]) -> mlcask_storage::errors::Result<Vec<bool>> {
        self.cask.put_many(items)
    }
    fn get(&self, key: Hash256) -> mlcask_storage::errors::Result<Bytes> {
        self.cask.get(key)
    }
    fn contains(&self, key: Hash256) -> bool {
        self.cask.contains(key)
    }
    fn len(&self) -> usize {
        self.cask.len()
    }
    fn physical_bytes(&self) -> u64 {
        self.cask.physical_bytes()
    }
    fn keys(&self) -> Vec<Hash256> {
        self.cask.keys()
    }
    fn remove(&self, key: Hash256) -> mlcask_storage::errors::Result<Option<u64>> {
        self.cask.remove(key)
    }
    fn flush(&self) -> mlcask_storage::errors::Result<()> {
        self.cask.flush()
    }
    fn compact(&self) -> mlcask_storage::errors::Result<u64> {
        self.cask.compact()
    }
}

/// Creates a fresh registry + MLCask system for a workload over
/// [`harness_store`].
pub fn build_system(w: &Workload) -> Result<(Arc<ComponentRegistry>, MlCask)> {
    let registry = Arc::new(ComponentRegistry::new(harness_store(&w.name)));
    w.register_all(&registry)?;
    let sys = MlCask::new(&w.name, w.dag(), Arc::clone(&registry));
    Ok((registry, sys))
}

/// One team's view of a shared multi-tenant workspace: the tenant handle,
/// its registry (built over the tenant-scoped store view), and its pipeline
/// system.
pub struct TenantSystem {
    /// The tenant handle (accounting + store view).
    pub tenant: Tenant,
    /// The team's component registry over the tenant store.
    pub registry: Arc<ComponentRegistry>,
    /// The team's pipeline system (branches namespaced by team name).
    pub sys: MlCask,
}

/// Registers one team as a tenant of `ws` and opens its pipeline system for
/// workload `w`: the registry is [`Tenant::registry`], over the
/// tenant-scoped store view, so the team's library archives are attributed
/// (and quota-checked) to it while deduplicating against every other
/// team's chunks — a version another team stored is charged from its
/// manifest, not rewritten. All or nothing ([`Workspace::join`]): a
/// refused registration leaves no tenant behind.
pub fn join_workspace(
    ws: &Arc<Workspace>,
    w: &Workload,
    team: &str,
    quota: QuotaPolicy,
) -> Result<TenantSystem> {
    let (tenant, registry) = ws.join(team, quota, |tenant| {
        let registry = tenant.registry();
        w.register_all(&registry)?;
        Ok::<_, CoreError>(registry)
    })?;
    let sys = tenant.open_pipeline(&w.name, w.dag(), Arc::clone(&registry));
    Ok(TenantSystem {
        tenant,
        registry,
        sys,
    })
}

/// Builds the multi-tenant collaboration scenario: `teams` teams share one
/// workspace (one deduplicating store, one commit graph, one checkpoint
/// history), each evolving its own copy of workload `w`. Because every team
/// registers the same component versions and datasets, the shared store
/// holds each blob **once** however many teams joined — the cross-pipeline
/// sharing the paper's collaborative setting is about.
pub fn build_multi_tenant(
    w: &Workload,
    teams: &[&str],
) -> Result<(Arc<Workspace>, Vec<TenantSystem>)> {
    let ws = Workspace::over(harness_store(&w.name));
    let systems = teams
        .iter()
        .map(|team| join_workspace(&ws, w, team, QuotaPolicy::UNLIMITED))
        .collect::<Result<Vec<_>>>()?;
    Ok((ws, systems))
}

/// Outcome of the upstream/downstream collaboration scenario
/// ([`run_upstream_downstream`]).
pub struct Collaboration {
    /// The shared workspace.
    pub ws: Arc<Workspace>,
    /// The downstream team's cross-tenant merge back into
    /// `upstream/master`.
    pub merge: MergeOutcome,
    /// Virtual time consumed by the whole scenario.
    pub clock: ClockLedger,
}

/// Drives the paper's collaborative workflow across *two tenants* of one
/// workspace — the situation PAPER.md's merge semantics are about, which a
/// single tenant's `master`/`dev` branches only approximate:
///
/// 1. the upstream team commits the workload's initial pipeline and its
///    head-update sequence on `master`;
/// 2. upstream grants downstream [`ShareRight::MergeInto`] (which implies
///    `Fork`);
/// 3. downstream forks `upstream/master` into its own `feature` branch
///    right after the initial commit — cross-namespace parentage, no bytes
///    copied — and applies the workload's dev-update sequence there;
/// 4. downstream merges `feature` back **into `upstream/master`** with the
///    full metric-driven search; the peer's cached outputs are reused
///    through the shared history, and every newly materialized candidate
///    output is charged to downstream.
///
/// The same `policy` is applied to both systems; all observables (merge
/// report, usages, commit ids) are byte-identical across worker counts.
pub fn run_upstream_downstream(w: &Workload, policy: ParallelismPolicy) -> Result<Collaboration> {
    let (ws, mut teams) = build_multi_tenant(w, &["upstream", "downstream"])?;
    let mut next = || {
        let team = teams.remove(0);
        TenantSystem {
            sys: team.sys.with_parallelism(policy),
            ..team
        }
    };
    let (upstream, downstream) = (next(), next());
    let clock = ClockLedger::new();
    upstream
        .sys
        .commit_pipeline("master", &w.initial, "initial pipeline", &clock)?;
    upstream
        .tenant
        .grant_to("downstream", ShareRight::MergeInto)?;
    downstream
        .tenant
        .fork_from("upstream", "master", "feature")?;
    for (i, keys) in w.head_updates.iter().enumerate() {
        let res =
            upstream
                .sys
                .commit_pipeline("master", keys, &format!("head update {i}"), &clock)?;
        assert!(res.commit.is_some(), "head update {i} must be committable");
    }
    for (i, keys) in w.dev_updates.iter().enumerate() {
        let res = downstream.sys.commit_pipeline(
            "feature",
            keys,
            &format!("feature update {i}"),
            &clock,
        )?;
        assert!(
            res.commit.is_some(),
            "feature update {i} must be committable"
        );
    }
    let merge = downstream.sys.merge(
        BranchRef::peer("upstream", "master"),
        "feature",
        MergeStrategy::Full,
        &clock,
    )?;
    Ok(Collaboration { ws, merge, clock })
}

/// Sets up the Fig. 3 non-linear history on a fresh system: the initial
/// commit on `master`, a `dev` branch, then the workload's head/dev update
/// sequences. Returns the clock used (development time, excluded from merge
/// measurements).
pub fn setup_nonlinear(sys: &MlCask, w: &Workload) -> Result<ClockLedger> {
    let clock = ClockLedger::new();
    sys.commit_pipeline("master", &w.initial, "initial pipeline", &clock)?;
    sys.branch("master", "dev")?;
    for (i, keys) in w.head_updates.iter().enumerate() {
        let res = sys.commit_pipeline("master", keys, &format!("head update {i}"), &clock)?;
        assert!(res.commit.is_some(), "head update {i} must be committable");
    }
    for (i, keys) in w.dev_updates.iter().enumerate() {
        let res = sys.commit_pipeline("dev", keys, &format!("dev update {i}"), &clock)?;
        assert!(res.commit.is_some(), "dev update {i} must be committable");
    }
    Ok(clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readmission;
    use mlcask_core::merge::MergeStrategy;

    /// The scratch directories `store_for` made under `tag` in this process.
    fn scratch_dirs(tag: &str) -> Vec<PathBuf> {
        let prefix = format!("mlcask-env-{tag}-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .collect()
    }

    #[test]
    fn a_cask_harness_store_takes_its_directory_with_it() {
        use mlcask_storage::object::ObjectKind;
        use mlcask_storage::tenant::TenantId;
        let cask = Config {
            store: StoreKind::Cask,
            ..Config::default()
        };
        let store = store_for(&cask, "scratch-guard");
        let dirs = scratch_dirs("scratch-guard");
        assert_eq!(dirs.len(), 1, "one cask, one directory: {dirs:?}");
        let put = store.put_blob(ObjectKind::Output, &[7u8; 50_000]).unwrap();
        // A tenant view is another handle on the same backend: the
        // directory stays for as long as one of them is in use.
        let view = store.for_tenant(TenantId(0));
        drop(store);
        assert!(dirs[0].is_dir(), "a store still in use keeps its cask");
        assert_eq!(&view.get_blob(&put.object).unwrap()[..], &[7u8; 50_000][..]);
        drop(view);
        assert!(!dirs[0].exists(), "the last handle removes it");
        // The default is memory: nothing on disk to begin with.
        drop(store_for(&Config::default(), "scratch-none"));
        assert!(scratch_dirs("scratch-none").is_empty());
    }

    /// The harness cask lands a blob the way the daemon's does: all of its
    /// chunks and its manifest as one group in one segment.
    #[test]
    fn a_cask_harness_store_writes_a_blob_as_one_group() {
        use mlcask_storage::object::ObjectKind;
        let cask = Config {
            store: StoreKind::Cask,
            ..Config::default()
        };
        let store = store_for(&cask, "one-group");
        let dirs = scratch_dirs("one-group");
        assert_eq!(dirs.len(), 1, "{dirs:?}");
        let mut rng = StdRng::seed_from_u64(7);
        let blob: Vec<u8> = (0..200_000).map(|_| rng.gen()).collect();
        store.put_blob(ObjectKind::Output, &blob).unwrap();
        store.flush().unwrap();
        let segments: Vec<(String, u64)> = std::fs::read_dir(&dirs[0])
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| entry.file_name().to_string_lossy().ends_with(".log"))
            .map(|entry| {
                let len = entry.metadata().unwrap().len();
                (entry.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        let written: Vec<_> = segments.iter().filter(|(_, len)| *len > 0).collect();
        assert!(store.backend().len() > 2, "a multi-chunk blob");
        assert_eq!(
            written.len(),
            1,
            "every record in one segment: {segments:?}"
        );
    }

    #[test]
    fn linear_sequence_structure() {
        let w = readmission::build();
        let sc = LinearScenario::default();
        let seq = linear_update_sequence(&w, &sc);
        assert_eq!(seq.len(), 10);
        assert_eq!(seq[0], w.initial);
        // Exactly one slot changes between consecutive iterations (except
        // possibly none if everything was exhausted).
        for wpair in seq.windows(2) {
            let diffs = wpair[0]
                .iter()
                .zip(wpair[1].iter())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diffs <= 1, "at most one component updates per iteration");
        }
        // Final iteration contains the schema-changing update.
        let (slot, ref v) = w.incompat_update;
        assert_eq!(&seq[9][slot], v);
    }

    #[test]
    fn linear_sequence_is_deterministic() {
        let w = readmission::build();
        let sc = LinearScenario::default();
        assert_eq!(
            linear_update_sequence(&w, &sc),
            linear_update_sequence(&w, &sc)
        );
        let other = LinearScenario {
            seed: 7,
            ..LinearScenario::default()
        };
        assert_ne!(
            linear_update_sequence(&w, &sc),
            linear_update_sequence(&w, &other)
        );
    }

    #[test]
    fn nonlinear_setup_builds_fig3_history() {
        let w = readmission::build();
        let (_reg, sys) = build_system(&w).unwrap();
        setup_nonlinear(&sys, &w).unwrap();
        // master has initial + 1 head update; dev has 3 updates.
        assert_eq!(sys.graph().head("master").unwrap().seq, 1);
        assert_eq!(sys.graph().head("dev").unwrap().seq, 3);
        let spaces = sys.merge_search_spaces("master", "dev").unwrap();
        // Fig. 4's space: 1 dataset × 2 cleansing × 2 extraction × 5 CNN.
        assert_eq!(spaces.candidate_upper_bound(), 20);
    }

    #[test]
    fn multi_tenant_teams_share_physical_chunks() {
        let w = readmission::build();
        let (ws, teams) = build_multi_tenant(&w, &["team_a", "team_b", "team_c"]).unwrap();
        // All three teams registered identical component versions: the
        // second and third paid (almost) nothing physically.
        let usage = ws.usages();
        assert!(usage["team_a"].physical_bytes > 0);
        assert!(usage["team_b"].physical_bytes < usage["team_a"].physical_bytes / 10);
        assert_eq!(
            usage.values().map(|u| u.physical_bytes).sum::<u64>(),
            ws.store().physical_bytes()
        );
        // Each team drives its own Fig. 3 history on the shared graph.
        for t in &teams {
            setup_nonlinear(&t.sys, &w).unwrap();
        }
        assert_eq!(ws.graph().branches().len(), 6, "3 teams x (master, dev)");
        assert_eq!(
            teams[0].sys.graph().head("team_a/master").unwrap().seq,
            1,
            "namespaced branch visible in the shared graph"
        );
        // Identical pipelines: later teams reuse earlier teams' checkpoints
        // through the shared history, so the store grew sub-linearly.
        let logical = ws.store().stats().total().logical_bytes;
        let physical = ws.store().physical_bytes();
        assert!(
            logical as f64 / physical as f64 > 2.0,
            "dedup ratio {:.2} too low",
            logical as f64 / physical as f64
        );
    }

    #[test]
    fn upstream_downstream_collaboration_end_to_end() {
        let w = readmission::build();
        let c = run_upstream_downstream(&w, ParallelismPolicy::Sequential).unwrap();
        // The merge landed on the *upstream* branch with both heads as
        // parents, searched over both teams' histories.
        assert!(!c.merge.fast_forward);
        let commit = c.merge.commit.as_ref().unwrap();
        assert_eq!(commit.branch, "upstream/master");
        assert_eq!(commit.parents.len(), 2);
        let report = c.merge.report.as_ref().unwrap();
        assert_eq!(
            report.candidates_total, 20,
            "same Fig. 4 space as the single-tenant nonlinear setup"
        );
        assert!(report.reused_components > 0, "peer checkpoints reused");
        // Downstream paid for what it materialized; attribution still sums
        // to the store total and no reservations are left open.
        let usage = c.ws.usages();
        assert!(usage["downstream"].physical_bytes < usage["upstream"].physical_bytes);
        assert_eq!(
            usage.values().map(|u| u.physical_bytes).sum::<u64>(),
            c.ws.store().physical_bytes()
        );
        assert_eq!(c.ws.store().tenant_accounts().open_reservations(), 0);
        assert_eq!(c.ws.graph().branches_in("downstream"), vec!["feature"]);
    }

    #[test]
    fn nonlinear_merge_runs_end_to_end() {
        let w = readmission::build();
        let (_reg, sys) = build_system(&w).unwrap();
        setup_nonlinear(&sys, &w).unwrap();
        let clock = ClockLedger::new();
        let out = sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap();
        assert!(!out.fast_forward);
        let report = out.report.unwrap();
        assert_eq!(report.candidates_total, 20);
        assert!(
            report.candidates_pruned > 0,
            "PC must prune some candidates"
        );
        assert!(report.reused_components > 0, "PR must reuse checkpoints");
        assert!(report.best.is_some());
    }
}
