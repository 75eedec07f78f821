//! The multi-tenant workspace: one shared store, many pipeline systems.
//!
//! The paper's collaborative setting has many teams evolving pipelines over
//! shared dataset/library repositories; the storage savings in Figs. 7–8
//! come precisely from different collaborators' versions sharing physical
//! chunks. A [`Workspace`] makes that sharing real: it owns a single
//! [`ChunkStore`] + [`CommitGraph`] + [`HistoryIndex`], and hands out
//! per-tenant handles ([`Tenant`]) whose [`MlCask`] systems are *views* over
//! that shared state:
//!
//! * **Shared dedup** — every tenant's writes deduplicate against every
//!   other tenant's chunks; attribution is first-writer-pays with a
//!   shared-refcount fair-share view (see [`mlcask_storage::tenant`]).
//! * **Tenant-namespaced branches** — tenant `team_a`'s branch `master`
//!   lives in the shared commit graph as `team_a/master`, so the graph is
//!   one auditable history while tenants stay isolated: a namespace is
//!   writable only by its owner or by peers holding a [`ShareRight`] grant.
//! * **Cross-tenant collaboration** — an owner grants peers `Fork` or
//!   `MergeInto` (`Workspace::grant_share`, [`Tenant::grant_to`]); reading
//!   its history needs no grant. A granted peer forks the owner's branch
//!   into its own namespace ([`Tenant::fork_from`] — references handed
//!   over, no bytes copied) and later merges its work back with
//!   [`MlCask::merge`] onto a [`BranchRef::peer`], paying only for newly
//!   materialized outputs; a peer's work is pulled by forking it first.
//! * **One access rule, kept here** — the workspace holds the tenant roster
//!   and the grants under one lock, and one function decides who may act
//!   on a branch. It is the graph's only writer: [`Workspace::graph`] hands
//!   out a read-only [`GraphView`], and every commit and branch creation
//!   passes through the workspace, which applies the rule at the write —
//!   `MergeInto` on the branch written, `Fork` on a fork's source — so a
//!   grant revoked while a merge searched still refuses its commit. Forks
//!   and merges also apply it before any work, so a denial leaves the
//!   graph and every account untouched.
//! * **Quotas** — each tenant's [`QuotaPolicy`] is enforced by the store on
//!   every (traced or live) write; a breach surfaces as
//!   [`StorageError::QuotaExceeded`](mlcask_storage::errors::StorageError)
//!   and aborts the offending commit/search without touching the graph.
//! * **Orphan GC** — [`Workspace::sweep_orphans`] walks every live root
//!   (commit metafiles, checkpointed outputs, registered executables) and
//!   drops unattributed blobs, e.g. those persisted by racing siblings of a
//!   dynamically failing node (see `ARCHITECTURE.md`).
//!
//! [`MlCask::new`] remains the single-tenant convenience: it builds a
//! private workspace under the hood, so existing callers are unaffected.

use crate::errors::{CoreError, Result};
use crate::registry::{ComponentRegistry, LibraryArchive};
use crate::system::{BranchRef, MlCask};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::metafile::PipelineMetafile;
use mlcask_storage::commit::{Commit, CommitGraph, GraphView};
use mlcask_storage::errors::StorageError;
use mlcask_storage::hash::Hash256;
use mlcask_storage::object::{ObjectKind, ObjectRef};
use mlcask_storage::store::{ChunkStore, SweepReport};
use mlcask_storage::tenant::{QuotaPolicy, ShareRight, SharedUsage, TenantId, TenantUsage};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

struct WorkspaceState {
    /// Tenant name → id, in registration order.
    tenants: BTreeMap<String, TenantId>,
    /// Owner tenant → peer → the right the owner granted it (the latest
    /// grant wins; rights imply the weaker ones).
    grants: BTreeMap<String, BTreeMap<String, ShareRight>>,
    next_id: u32,
    /// Registries opened against this workspace — GC roots for
    /// [`Workspace::sweep_orphans`].
    registries: Vec<Arc<ComponentRegistry>>,
}

impl WorkspaceState {
    /// The workspace's one access rule: may `actor` act on `branch` at
    /// level `needed`? A [`BranchRef::peer`] names a tenant's branch, and
    /// that tenant must be registered. A plain name is a shared-graph name:
    /// its owner is the prefix before the first `/` when that prefix is a
    /// registered tenant; any other branch (a solo system's) is open to
    /// every writer. An owner may always act on its own branches, a peer
    /// only under a grant of at least `needed`, and an actor outside every
    /// namespace (`None`) holds no grant.
    fn authorize(
        &self,
        branch: BranchRef<'_>,
        actor: Option<&str>,
        needed: ShareRight,
    ) -> Result<()> {
        let owner = match branch.peer {
            Some(peer) if !self.tenants.contains_key(peer) => {
                return Err(CoreError::UnknownTenant(peer.to_string()))
            }
            Some(peer) => peer,
            None => match branch.branch.split_once('/') {
                Some((ns, _)) if self.tenants.contains_key(ns) => ns,
                _ => return Ok(()),
            },
        };
        let granted = |peer: &str| {
            let right = self.grants.get(owner).and_then(|g| g.get(peer));
            right.is_some_and(|r| *r >= needed)
        };
        match actor {
            Some(me) if me == owner || granted(me) => Ok(()),
            _ => Err(CoreError::ShareDenied {
                owner: owner.to_string(),
                peer: actor.unwrap_or_default().to_string(),
                needed,
            }),
        }
    }
}

/// Shared ownership of store, commit graph, and reusable-output history for
/// many tenant pipeline systems. See the module docs for the full picture.
pub struct Workspace {
    store: Arc<ChunkStore>,
    /// Written only through [`Workspace::commit`] and
    /// [`Workspace::branch_at`], which apply the access rule.
    graph: CommitGraph,
    history: HistoryIndex,
    /// Decoded pipeline metafiles by commit payload hash: a metafile is
    /// parsed (or kept, by the commit that wrote it) once per workspace,
    /// whichever tenant's system asks. Content addressed, so an entry is
    /// right for every tenant and can never go stale. Entries exist only
    /// for payloads of commits in the graph; those are GC roots of
    /// [`Workspace::sweep_orphans`], so no entry outlives its blob.
    metafiles: RwLock<HashMap<Hash256, Arc<PipelineMetafile>>>,
    /// The library archive every [`Tenant::registry`] shares: a version
    /// any tenant stored is charged to the next from its manifest.
    archive: Arc<LibraryArchive>,
    state: RwLock<WorkspaceState>,
}

impl Workspace {
    /// Opens a workspace over an existing (root, untenanted) store.
    pub fn over(store: Arc<ChunkStore>) -> Arc<Workspace> {
        Arc::new(Workspace {
            store,
            graph: CommitGraph::new(),
            history: HistoryIndex::new(),
            metafiles: RwLock::new(HashMap::new()),
            archive: Arc::default(),
            state: RwLock::new(WorkspaceState {
                tenants: BTreeMap::new(),
                grants: BTreeMap::new(),
                next_id: 0,
                registries: Vec::new(),
            }),
        })
    }

    /// In-memory workspace with default (ForkBase-like) store parameters.
    pub fn in_memory() -> Arc<Workspace> {
        Self::over(Arc::new(ChunkStore::in_memory()))
    }

    /// In-memory workspace with small chunks, convenient for tests.
    pub fn in_memory_small() -> Arc<Workspace> {
        Self::over(Arc::new(ChunkStore::in_memory_small()))
    }

    /// Durable workspace over a cask (append-only log-segment) store rooted
    /// at `root`, with default cask options and the default blob cache.
    /// Reopening the same directory recovers every previously synced blob;
    /// a torn final record from a crashed writer is truncated away. Call
    /// [`Workspace::flush`] at commit points to wait until the cask's
    /// writer thread has landed (and synced) every queued write.
    pub fn durable(root: impl AsRef<std::path::Path>) -> Result<Arc<Workspace>> {
        Self::durable_with(root, Some(mlcask_storage::cache::CacheOptions::default()))
    }

    /// [`Workspace::durable`] with an explicit blob-cache configuration
    /// (`None` disables the read cache). The cache
    /// is a read-through tier keyed by content hash — switching it on or
    /// off can never change any observable except wall-clock and the
    /// [`Workspace::cache_stats`] telemetry.
    pub fn durable_with(
        root: impl AsRef<std::path::Path>,
        cache: Option<mlcask_storage::cache::CacheOptions>,
    ) -> Result<Arc<Workspace>> {
        let backend = mlcask_storage::cask::CaskBackend::open(root)?;
        Ok(Self::over(Arc::new(ChunkStore::with_cache(
            Arc::new(backend),
            mlcask_storage::chunk::ChunkParams::DEFAULT,
            mlcask_storage::costmodel::StorageCostModel::FORKBASE,
            cache,
        ))))
    }

    /// Drains any pending asynchronous writes and fsyncs the backing store.
    /// A no-op for in-memory backends.
    pub fn flush(&self) -> Result<()> {
        Ok(self.store.flush()?)
    }

    /// Blob-cache telemetry for the shared store (`None` when caching is
    /// disabled) — a read-only side channel next to the backend's
    /// durability counters, never part of determinism observables.
    pub fn cache_stats(&self) -> Option<mlcask_storage::stats::CacheStats> {
        self.store.cache_stats()
    }

    /// The shared root store (untenanted view).
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// The latest snapshot of the shared commit graph. Tenant branches
    /// appear namespaced (`tenant/branch`). Read-only: only the workspace
    /// writes the graph.
    pub fn graph(&self) -> GraphView {
        self.graph.view()
    }

    /// Commits `payload` onto shared-graph branch `branch` as `actor`: the
    /// one way a commit enters the graph. The access rule — `MergeInto` on
    /// `branch` — is applied at the write, under the lock grants change
    /// under, so a grant revoked while the caller ran its pipeline still
    /// refuses the commit. The commit lands only on `base`, the head the
    /// caller built it on, or as the root of a new branch when `base` is
    /// absent ([`CommitGraph::commit_onto`]). A merge names its `merge`
    /// side, the actor's own branch and the head it merged, which becomes
    /// the second parent.
    pub(crate) fn commit(
        &self,
        actor: Option<&str>,
        branch: &str,
        base: Option<Hash256>,
        merge: Option<(&str, Hash256)>,
        payload: Hash256,
        message: &str,
    ) -> Result<Commit> {
        let state = self.state.read();
        state.authorize(branch.into(), actor, ShareRight::MergeInto)?;
        if let Some((merging, head)) = merge {
            // The second parent comes from `merging`'s history: its head,
            // or an ancestor when it moved on since the caller looked.
            let view = self.graph.view();
            let tip = view.head(merging)?.id;
            if head != tip && !view.is_ancestor(head, tip)? {
                return Err(StorageError::MissingParent(head).into());
            }
        }
        let merge_head = merge.map(|(_, head)| head);
        Ok(self
            .graph
            .commit_onto(branch, base, merge_head, payload, message)?)
    }

    /// Creates shared-graph branch `to` at `at` — `from`'s head or one of
    /// its ancestors — as `actor`, which needs `Fork` on `from` and
    /// `MergeInto` on `to`, checked at the write as in
    /// [`Workspace::commit`].
    pub(crate) fn branch_at(
        &self,
        actor: Option<&str>,
        from: &str,
        to: &str,
        at: Hash256,
    ) -> Result<Commit> {
        let state = self.state.read();
        state.authorize(from.into(), actor, ShareRight::Fork)?;
        state.authorize(to.into(), actor, ShareRight::MergeInto)?;
        Ok(self.graph.branch_at(from, to, at)?)
    }

    /// The shared reusable-output history: checkpoints recorded by one
    /// tenant's runs are reused by every other tenant's (the paper's
    /// cross-pipeline reuse).
    pub fn history(&self) -> &HistoryIndex {
        &self.history
    }

    /// The pipeline metafile a commit in the graph carries as `payload`:
    /// from the workspace's decoded copies, else fetched and parsed once.
    pub(crate) fn metafile(
        &self,
        payload: Hash256,
    ) -> mlcask_storage::errors::Result<Arc<PipelineMetafile>> {
        if let Some(held) = self.metafiles.read().get(&payload) {
            return Ok(Arc::clone(held));
        }
        let meta: PipelineMetafile = self.store.get_meta(&ObjectRef {
            id: payload,
            kind: ObjectKind::Pipeline,
            len: 0,
        })?;
        Ok(self.keep_metafile(payload, meta))
    }

    /// Keeps the decoded form of the metafile stored at `payload`, which a
    /// commit in the graph must already carry (see the field's invariant).
    pub(crate) fn keep_metafile(
        &self,
        payload: Hash256,
        meta: PipelineMetafile,
    ) -> Arc<PipelineMetafile> {
        Arc::clone(
            self.metafiles
                .write()
                .entry(payload)
                .or_insert_with(|| Arc::new(meta)),
        )
    }

    /// Registers a tenant under `name` with the given quota and returns its
    /// handle. Fails if the name is taken. The name becomes an *owned*
    /// branch namespace in the shared commit graph: `name/…` branches are
    /// henceforth writable only by this tenant or by peers it grants a
    /// [`ShareRight`].
    pub fn add_tenant(self: &Arc<Self>, name: &str, quota: QuotaPolicy) -> Result<Tenant> {
        self.join(name, quota, |_| Ok::<_, CoreError>(()))
            .map(|(tenant, ())| tenant)
    }

    /// Registers tenant `name` as [`Workspace::add_tenant`] does, once
    /// `setup` — typically registering the tenant's components through
    /// [`Tenant::registry`] — has succeeded on its handle, and returns the
    /// handle with what `setup` returned.
    ///
    /// A join is all or nothing. No other caller sees the name before
    /// `setup` succeeds. If it fails (a quota refusal, say), or the name
    /// was taken meanwhile, the tenant's usage, reservations and chunk
    /// references are dropped, the name stays free for a retry, and the
    /// bytes its writes persisted are unattributed orphans that
    /// [`Workspace::sweep_orphans`] reclaims.
    pub fn join<T, E: From<CoreError>>(
        self: &Arc<Self>,
        name: &str,
        quota: QuotaPolicy,
        setup: impl FnOnce(&Tenant) -> std::result::Result<T, E>,
    ) -> std::result::Result<(Tenant, T), E> {
        // Branch ownership resolves on the prefix before the first `/`, so
        // a name containing one would leave its own branches unprotected
        // (or claimable by whoever registers the prefix).
        if name.is_empty() || name.contains('/') {
            return Err(CoreError::InvalidTenantName(name.to_string()).into());
        }
        let taken = || CoreError::TenantExists(name.to_string());
        let id = {
            let mut state = self.state.write();
            if state.tenants.contains_key(name) {
                return Err(taken().into());
            }
            let id = TenantId(state.next_id);
            state.next_id += 1;
            id
        };
        self.store.tenant_accounts().register(id, quota);
        let tenant = Tenant {
            workspace: Arc::clone(self),
            name: name.to_string(),
            id,
            store: Arc::new(self.store.for_tenant(id)),
        };
        let joined = setup(&tenant).and_then(|value| {
            let mut state = self.state.write();
            if state.tenants.contains_key(name) {
                return Err(taken().into());
            }
            state.tenants.insert(name.to_string(), id);
            Ok(value)
        });
        match joined {
            Ok(value) => Ok((tenant, value)),
            Err(e) => {
                tenant.store.forget_tenant();
                Err(e)
            }
        }
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.state.read().tenants.keys().cloned().collect()
    }

    /// Grants `peer` the given [`ShareRight`] over `owner`'s namespace
    /// (replacing any earlier grant; rights imply the weaker ones). Both
    /// must be registered tenants.
    pub(crate) fn grant_share(&self, owner: &str, peer: &str, right: ShareRight) -> Result<()> {
        let mut state = self.state.write();
        for t in [owner, peer] {
            if !state.tenants.contains_key(t) {
                return Err(CoreError::UnknownTenant(t.to_string()));
            }
        }
        let peers = state.grants.entry(owner.to_string()).or_default();
        peers.insert(peer.to_string(), right);
        Ok(())
    }

    /// Revokes whatever right `peer` held over `owner`'s namespace.
    pub fn revoke_share(&self, owner: &str, peer: &str) -> Result<()> {
        let mut state = self.state.write();
        if !state.tenants.contains_key(owner) {
            return Err(CoreError::UnknownTenant(owner.to_string()));
        }
        if let Some(peers) = state.grants.get_mut(owner) {
            peers.remove(peer);
        }
        Ok(())
    }

    /// Applies the workspace's one access rule (see the module docs) to
    /// `branch` as the shared graph names it. Forks and merges call it
    /// before any execution or graph access, so a denial leaves the commit
    /// graph and every tenant's accounts untouched; the graph writes apply
    /// it again.
    pub(crate) fn authorize(
        &self,
        branch: BranchRef<'_>,
        actor: Option<&str>,
        needed: ShareRight,
    ) -> Result<()> {
        self.state.read().authorize(branch, actor, needed)
    }

    /// Point-in-time copy of the tenant roster. Taken under one short read
    /// lock so usage reports query the accounts *after* releasing it — a
    /// serving thread enumerating usage never holds the workspace lock
    /// across per-tenant accounting calls.
    fn tenant_roster(&self) -> BTreeMap<String, TenantId> {
        self.state.read().tenants.clone()
    }

    /// First-writer-pays usage per tenant name.
    pub fn usages(&self) -> BTreeMap<String, TenantUsage> {
        let accounts = self.store.tenant_accounts();
        self.tenant_roster()
            .into_iter()
            .map(|(name, id)| (name, accounts.usage(id)))
            .collect()
    }

    /// Shared-refcount (fair-share) usage per tenant name.
    pub fn shared_view(&self) -> BTreeMap<String, SharedUsage> {
        let by_id = self.store.tenant_accounts().shared_view();
        self.tenant_roster()
            .into_iter()
            .map(|(name, id)| {
                let usage = by_id.get(&id).copied().unwrap_or_default();
                (name, usage)
            })
            .collect()
    }

    /// Records a registry as a GC root provider (called by
    /// [`Tenant::open_pipeline`] and [`MlCask::new`]).
    pub(crate) fn attach_registry(&self, registry: &Arc<ComponentRegistry>) {
        let mut state = self.state.write();
        if !state.registries.iter().any(|r| Arc::ptr_eq(r, registry)) {
            state.registries.push(Arc::clone(registry));
        }
    }

    /// Deletes every stored blob unreachable from the workspace's live
    /// roots: commit payload metafiles, the component outputs those
    /// metafiles reference, every checkpoint in the shared history, and the
    /// executables of every attached registry.
    ///
    /// The only writes this can reclaim are unattributed orphans — blobs
    /// persisted by independent siblings of a dynamically failing node
    /// (see "Dynamic failures" in `ARCHITECTURE.md`), or left behind by
    /// evaluations a hard error aborted — restoring byte-level parity
    /// between the backend and what the tenants were charged.
    ///
    /// **Quiescence required:** call between evaluations, not during one.
    /// A commit or merge search in flight has persisted traced outputs
    /// whose checkpoint roots land only at its canonical replay; a
    /// concurrent sweep would see them as unrooted and delete them out
    /// from under the evaluation.
    pub fn sweep_orphans(&self) -> Result<SweepReport> {
        let mut roots: HashSet<Hash256> = HashSet::new();
        // Commit payloads + the outputs their metafiles reference, all read
        // off one frozen graph view by a single walk down from every branch
        // head (history the branches share is crossed once).
        let view = self.graph.view();
        for id in view.live_commits()? {
            let commit = view.get(id)?;
            roots.insert(commit.payload);
            for slot in &self.metafile(commit.payload)?.slots {
                if !slot.output.is_null() {
                    roots.insert(slot.output.id);
                }
            }
        }
        // Every checkpoint in the shared history (losing merge candidates
        // included — they are legitimately reusable).
        for cached in self.history.snapshot().values() {
            if !cached.object.is_null() {
                roots.insert(cached.object.id);
            }
        }
        // Registered component executables; the registry list is cloned
        // under a short lock so the per-registry walks run unlocked.
        let registries = self.state.read().registries.clone();
        for registry in &registries {
            for name in registry.names() {
                for key in registry.versions_of(&name) {
                    if let Some(lib) = registry.get(&key) {
                        roots.insert(lib.executable.id);
                    }
                }
            }
        }
        Ok(self.store.sweep_orphans(roots)?)
    }
}

/// A tenant's handle into a shared [`Workspace`].
pub struct Tenant {
    workspace: Arc<Workspace>,
    name: String,
    id: TenantId,
    store: Arc<ChunkStore>,
}

impl Tenant {
    /// The tenant's name (also its branch namespace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's accounting id.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant-scoped store view: same physical store, writes attributed
    /// (and quota-checked) against this tenant. [`Tenant::registry`] builds
    /// the tenant's [`ComponentRegistry`] over it, so library archives are
    /// attributed too.
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// A component registry over [`Tenant::store`] that shares the
    /// workspace's library archive: a version another tenant already
    /// stored is charged from its manifest — what writing its bytes again
    /// would charge — without being synthesised, chunked or written.
    pub fn registry(&self) -> Arc<ComponentRegistry> {
        Arc::new(ComponentRegistry::over_archive(
            Arc::clone(&self.store),
            ComponentRegistry::DEFAULT_EXE_SIZE,
            Arc::clone(&self.workspace.archive),
        ))
    }

    /// This tenant's first-writer-pays usage.
    pub fn usage(&self) -> TenantUsage {
        self.workspace.store.tenant_accounts().usage(self.id)
    }

    /// This tenant's branches — the shared graph's `"{name}/…"` entries,
    /// listed under their caller-facing (prefix-stripped) names, sorted.
    /// Peers' branches never appear here, whatever grants exist.
    pub fn branches(&self) -> Vec<String> {
        self.workspace.graph.view().branches_in(&self.name)
    }

    /// Grants `peer` the given [`ShareRight`] over this tenant's namespace.
    pub fn grant_to(&self, peer: &str, right: ShareRight) -> Result<()> {
        self.workspace.grant_share(&self.name, peer, right)
    }

    /// Revokes whatever right `peer` held over this tenant's namespace.
    pub fn revoke_from(&self, peer: &str) -> Result<()> {
        self.workspace.revoke_share(&self.name, peer)
    }

    /// Forks a peer tenant's branch into this tenant's namespace: creates
    /// `new_branch` (caller-facing; `"{self}/{new_branch}"` in the shared
    /// graph) pointing at the head of the peer's `branch` — a branch whose
    /// parent commits live in the *peer's* namespace, the upstream/
    /// downstream-team workflow's starting point. Requires a
    /// [`ShareRight::Fork`] grant from `peer`; a denial is raised before
    /// any graph or accounting access.
    ///
    /// Forking hands over references, not bytes: the head's metafile and
    /// the component outputs it lists are recorded as referenced by this
    /// tenant in the shared-refcount ledger (the fair-share view a capacity
    /// planner bills), while first-writer-pays attribution stays with the
    /// peer. Nothing is copied — dedup makes the fork physically free.
    pub fn fork_from(&self, peer: &str, branch: &str, new_branch: &str) -> Result<Commit> {
        let me = Some(self.name.as_str());
        let source = BranchRef::peer(peer, branch);
        self.workspace.authorize(source, me, ShareRight::Fork)?;
        let from = source.qualified(None);
        let to = BranchRef::from(new_branch).qualified(me);
        // Resolve the peer head's metafile *before* creating the branch —
        // every fallible read happens while the graph is still untouched —
        // then fork exactly the snapshot that was validated, immune to the
        // peer committing concurrently.
        let seen = self.workspace.graph().head(&from)?;
        let meta = self.workspace.metafile(seen.payload)?;
        let head = self.workspace.branch_at(me, &from, &to, seen.id)?;
        // Refcount handoff: this tenant now depends on the forked head's
        // metafile and every output it references. Committed metafiles and
        // their outputs are GC roots, so these adoptions cannot hit swept
        // blobs; only a storage-backend fault can interrupt them.
        self.store.adopt_blob(head.payload)?;
        for slot in &meta.slots {
            if !slot.output.is_null() {
                self.store.adopt_blob(slot.output.id)?;
            }
        }
        Ok(head)
    }

    /// Opens a pipeline system for this tenant over the shared workspace.
    /// The system's branches are namespaced `"{tenant}/{branch}"` in the
    /// shared commit graph; callers keep using plain branch names.
    ///
    /// `registry` should be built over [`Tenant::store`] (as
    /// [`Tenant::registry`] builds it) so every archived executable is
    /// attributed to this tenant; it is also recorded as a GC root provider
    /// for [`Workspace::sweep_orphans`].
    pub fn open_pipeline(
        &self,
        pipeline_name: &str,
        dag: PipelineDag,
        registry: Arc<ComponentRegistry>,
    ) -> MlCask {
        self.workspace.attach_registry(&registry);
        MlCask::in_workspace(
            Arc::clone(&self.workspace),
            Some(self.name.clone()),
            pipeline_name,
            dag,
            registry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::clock::ClockLedger;
    use mlcask_pipeline::component::ComponentKey;
    use mlcask_pipeline::semver::SemVer;

    fn tenant_system(t: &Tenant) -> MlCask {
        let registry = Arc::new(ComponentRegistry::with_exe_size(
            Arc::clone(t.store()),
            2048,
        ));
        for c in [
            toy_source(SemVer::master(0, 0), 4, 16),
            toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
            toy_model(SemVer::master(0, 0), 4, 0.5),
            toy_model(SemVer::master(0, 1), 4, 0.6),
        ] {
            registry.register(c).unwrap();
        }
        let dag = PipelineDag::chain(&toy_slots()).unwrap();
        t.open_pipeline("toy", dag, registry)
    }

    fn toy_keys(sys: &MlCask, model_inc: u32) -> Vec<ComponentKey> {
        let reg = sys.registry();
        vec![
            reg.versions_of("test_source")[0].clone(),
            reg.versions_of("test_scaler")[0].clone(),
            reg.versions_of("test_model")[model_inc as usize].clone(),
        ]
    }

    #[test]
    fn duplicate_tenant_names_rejected() {
        let ws = Workspace::in_memory_small();
        ws.add_tenant("team_a", QuotaPolicy::UNLIMITED).unwrap();
        assert!(matches!(
            ws.add_tenant("team_a", QuotaPolicy::UNLIMITED),
            Err(CoreError::TenantExists(_))
        ));
        assert_eq!(ws.tenant_names(), vec!["team_a"]);
    }

    #[test]
    fn tenant_names_must_be_valid_namespaces() {
        // A '/' in a tenant name would make namespace ownership resolve on
        // the wrong prefix, leaving the tenant's branches unprotected.
        let ws = Workspace::in_memory_small();
        for bad in ["team/a", "/", ""] {
            assert!(
                matches!(
                    ws.add_tenant(bad, QuotaPolicy::UNLIMITED),
                    Err(CoreError::InvalidTenantName(_))
                ),
                "{bad:?} must be rejected"
            );
        }
        assert!(ws.tenant_names().is_empty());
    }

    #[test]
    fn tenants_share_one_store_and_namespace_branches() {
        let ws = Workspace::in_memory_small();
        let a = ws.add_tenant("team_a", QuotaPolicy::UNLIMITED).unwrap();
        let b = ws.add_tenant("team_b", QuotaPolicy::UNLIMITED).unwrap();
        let sys_a = tenant_system(&a);
        let sys_b = tenant_system(&b);
        let clock = ClockLedger::new();
        sys_a
            .commit_pipeline("master", &toy_keys(&sys_a, 0), "a initial", &clock)
            .unwrap();
        sys_b
            .commit_pipeline("master", &toy_keys(&sys_b, 0), "b initial", &clock)
            .unwrap();
        // Both masters live side by side in the shared graph, namespaced.
        assert_eq!(
            ws.graph().branches(),
            vec!["team_a/master", "team_b/master"]
        );
        assert_eq!(
            sys_a.head_metafile("master").unwrap().label,
            "team_a/master.0"
        );
        // Identical components: tenant B's blobs dedup against A's, and B's
        // runs reuse A's checkpoints outright through the shared history.
        let usage = ws.usages();
        assert!(usage["team_a"].physical_bytes > 0);
        assert!(
            usage["team_b"].physical_bytes * 10 < usage["team_a"].physical_bytes,
            "tenant B re-pays little: {usage:?}"
        );
        assert_eq!(
            usage["team_a"].physical_bytes + usage["team_b"].physical_bytes,
            ws.store().physical_bytes(),
            "first-writer-pays sums to the store total"
        );
        let shared = ws.shared_view();
        assert!(shared["team_b"].referenced_bytes > 0);
    }

    #[test]
    fn fork_requires_grant_and_hands_over_refs() {
        let ws = Workspace::in_memory_small();
        let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
        let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
        let sys_up = tenant_system(&up);
        let clock = ClockLedger::new();
        sys_up
            .commit_pipeline("master", &toy_keys(&sys_up, 0), "upstream initial", &clock)
            .unwrap();
        // No grant: denied, nothing created, nothing attributed.
        let branches_before = ws.graph().branches();
        assert!(matches!(
            down.fork_from("up", "master", "feature"),
            Err(CoreError::ShareDenied {
                needed: ShareRight::Fork,
                ..
            })
        ));
        assert!(matches!(
            down.fork_from("ghost", "master", "feature"),
            Err(CoreError::UnknownTenant(_))
        ));
        assert_eq!(ws.graph().branches(), branches_before);
        assert_eq!(ws.shared_view()["down"].referenced_bytes, 0);
        // Granted: the fork points at the peer's head and the forker now
        // references (but did not pay for) the head's bytes.
        up.grant_to("down", ShareRight::Fork).unwrap();
        let head = down.fork_from("up", "master", "feature").unwrap();
        assert_eq!(head.branch, "up/master");
        assert_eq!(down.branches(), vec!["feature"]);
        assert_eq!(up.branches(), vec!["master"]);
        assert!(ws.shared_view()["down"].referenced_bytes > 0);
        assert_eq!(down.usage().physical_bytes, 0, "references, not bytes");
        // Revocation stops further forks.
        up.revoke_from("down").unwrap();
        assert!(down.fork_from("up", "master", "feature2").is_err());
    }

    fn payload(n: u8) -> Hash256 {
        Hash256::of(&[n])
    }

    /// `branch`'s head in `ws`'s graph: the base of a commit onto it.
    fn head(ws: &Workspace, branch: &str) -> Option<Hash256> {
        Some(ws.graph().head(branch).unwrap().id)
    }

    /// A workspace with tenants `up` and `down` and `up/master` rooted.
    fn up_and_down() -> (Arc<Workspace>, Commit) {
        let ws = Workspace::in_memory_small();
        for t in ["up", "down"] {
            ws.add_tenant(t, QuotaPolicy::UNLIMITED).unwrap();
        }
        let root = ws
            .commit(Some("up"), "up/master", None, None, payload(0), "init")
            .unwrap();
        (ws, root)
    }

    fn denied<T>(r: Result<T>, owner: &str, peer: &str, needed: ShareRight) -> bool {
        matches!(r, Err(CoreError::ShareDenied { owner: o, peer: p, needed: n })
            if o == owner && p == peer && n == needed)
    }

    #[test]
    fn namespaced_writes_require_grants() {
        let (ws, root) = up_and_down();
        let (up, down) = (Some("up"), Some("down"));
        // A branch belongs to the registered tenant its prefix before the
        // first `/` names; every other branch is open (solo compatibility).
        for open in ["master", "ghost/master", "up", "upx/master"] {
            ws.commit(down, open, None, None, payload(1), "open")
                .unwrap();
        }
        ws.commit(
            down,
            "master",
            head(&ws, "master"),
            None,
            payload(2),
            "open",
        )
        .unwrap();
        // A writer outside every namespace holds no grant.
        assert!(denied(
            ws.commit(None, "up/evil", None, None, payload(1), "raw"),
            "up",
            "",
            ShareRight::MergeInto
        ));
        // A peer without a grant can neither append nor fork.
        assert!(denied(
            ws.commit(down, "up/master", Some(root.id), None, payload(1), "hijack"),
            "up",
            "down",
            ShareRight::MergeInto
        ));
        assert!(denied(
            ws.branch_at(down, "up/master", "down/fork", root.id),
            "up",
            "down",
            ShareRight::Fork
        ));
        // A Fork grant unlocks branching but not merging into the owner.
        ws.grant_share("up", "down", ShareRight::Fork).unwrap();
        let head = ws
            .branch_at(down, "up/master", "down/fork", root.id)
            .unwrap();
        assert_eq!(head.seq, 0);
        let d1 = ws
            .commit(
                down,
                "down/fork",
                Some(root.id),
                None,
                payload(4),
                "diverge",
            )
            .unwrap();
        let u1 = ws
            .commit(up, "up/master", Some(root.id), None, payload(5), "advance")
            .unwrap();
        let contribute = || {
            let merge = Some(("down/fork", d1.id));
            ws.commit(
                down,
                "up/master",
                Some(u1.id),
                merge,
                payload(6),
                "contribute",
            )
        };
        assert!(denied(contribute(), "up", "down", ShareRight::MergeInto));
        // MergeInto unlocks the contribution.
        ws.grant_share("up", "down", ShareRight::MergeInto).unwrap();
        assert_eq!(contribute().unwrap().parents, vec![u1.id, d1.id]);
        assert_eq!(ws.graph().head("up/master").unwrap().seq, 2);
        // A peer named by a caller must be a registered tenant.
        assert!(matches!(
            ws.authorize(BranchRef::peer("ghost", "master"), down, ShareRight::Fork),
            Err(CoreError::UnknownTenant(t)) if t == "ghost"
        ));
    }

    #[test]
    fn own_fork_tip_usable_after_grant_revocation() {
        let (ws, root) = up_and_down();
        let down = Some("down");
        ws.grant_share("up", "down", ShareRight::Fork).unwrap();
        let fork_head = ws
            .branch_at(down, "up/master", "down/fork", root.id)
            .unwrap();
        let main = ws
            .commit(down, "down/main", None, None, payload(1), "own root")
            .unwrap();
        ws.revoke_share("up", "down").unwrap();
        // The fork is down's own branch: merging it needs no grant from
        // up, even though its head was committed on up/master.
        let merge = |head| Some(("down/fork", head));
        let merged = ws
            .commit(
                down,
                "down/main",
                Some(main.id),
                merge(fork_head.id),
                payload(2),
                "pull own fork",
            )
            .unwrap();
        assert_eq!(merged.parents[1], fork_head.id);
        // up's later commits are not reachable by naming down's fork.
        let u1 = ws
            .commit(
                Some("up"),
                "up/master",
                Some(root.id),
                None,
                payload(3),
                "advance",
            )
            .unwrap();
        assert!(matches!(
            ws.commit(down, "down/main", Some(merged.id), merge(u1.id), payload(5), "steal"),
            Err(CoreError::Storage(StorageError::MissingParent(h))) if h == u1.id
        ));
        assert_eq!(ws.graph().head("down/main").unwrap().id, merged.id);
    }

    /// The graph writes apply exactly the rule the fork and merge prechecks
    /// apply — same verdict, same error — under every grant `up` can give
    /// `down`, for a merge of down's own branch into down's or up's, and a
    /// fork.
    #[test]
    fn the_write_time_rule_is_the_precheck() {
        let down = Some("down");
        let merging = "down/feature";
        for grant in [None, Some(ShareRight::Fork), Some(ShareRight::MergeInto)] {
            let (ws, root) = up_and_down();
            ws.grant_share("up", "down", ShareRight::Fork).unwrap();
            for b in ["down/master", "down/feature"] {
                ws.branch_at(down, "up/master", b, root.id).unwrap();
                ws.commit(down, b, Some(root.id), None, payload(2), b)
                    .unwrap();
            }
            match grant {
                Some(right) => ws.grant_share("up", "down", right),
                None => ws.revoke_share("up", "down"),
            }
            .unwrap();
            let verdict = |r: Result<()>| r.err().map(|e| format!("{e:?}"));
            for base in [BranchRef::from("master"), BranchRef::peer("up", "master")] {
                let row = format!("grant {grant:?}: {base:?} <- {merging}");
                let precheck = match base.peer {
                    Some(_) => ws.authorize(base, down, ShareRight::MergeInto),
                    None => Ok(()),
                };
                let base = base.qualified(down);
                let merge = Some((merging, head(&ws, merging).unwrap()));
                let written = ws.commit(down, &base, head(&ws, &base), merge, payload(3), "probe");
                let written = verdict(written.map(drop));
                assert_eq!(verdict(precheck), written, "{row}");
            }
            let precheck = ws.authorize(BranchRef::peer("up", "master"), down, ShareRight::Fork);
            let written = ws.branch_at(down, "up/master", "down/probe", root.id);
            let row = format!("fork under {grant:?}");
            assert_eq!(verdict(precheck), verdict(written.map(drop)), "{row}");
        }
    }
}
