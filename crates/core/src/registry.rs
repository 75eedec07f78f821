//! Component registry + the dataset/library repositories (§III).
//!
//! The paper stores different versions of datasets and libraries in shared
//! repositories so multiple pipelines reuse them. Here the *runnable* side
//! of a component version is a Rust object implementing `Component`, and the
//! *stored* side is a simulated executable payload archived in the chunk
//! store so library-storage accounting (Fig. 7's dedup advantage on library
//! versions) behaves like the real system.
//!
//! One path archives executables, [`ComponentRegistry::register_many`]
//! (`register` is a batch of one). A batch synthesises a library's base
//! region once for a run of its versions, in one reused buffer, and chunks
//! and hashes it once too: every later version of the run repeats the base
//! region, so it is chunked and hashed only from the base region's last
//! content-defined cut ([`ChunkStore::put_revision`]). A run of versions
//! thus costs one 516 KiB executable plus a tail of 8–14 KiB per further
//! version. The repository is shared the way the paper shares it: the tenant registries
//! of one workspace (`Tenant::registry`) share a library archive, so a
//! version one tenant stored is never synthesised, chunked or written
//! again — the next tenant is charged from the stored manifest, exactly
//! what a duplicate write of the bytes would charge
//! ([`ChunkStore::put_stored`]).

use crate::errors::{CoreError, Result};
use crate::memo::{SearchMemo, ShapeMemo};
use mlcask_pipeline::component::{ComponentHandle, ComponentKey};
use mlcask_pipeline::dag::{BoundPipeline, DeclaredSchemas, PipelineDag};
use mlcask_pipeline::executor::Executor;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::metafile::LibraryMetafile;
use mlcask_pipeline::search::{self, Evaluated, Picker, Policy};
use mlcask_storage::chunk::ChunkRef;
use mlcask_storage::hash::{digest_many, Hash256};
use mlcask_storage::object::{ObjectKind, ObjectRef};
use mlcask_storage::store::{ChunkStore, PutOutcome};
use parking_lot::{Mutex, RwLock};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub use crate::memo::MemoStats;

/// Bytes of one hash, the unit a simulated executable is made of.
const HASH_LEN: usize = 32;

/// Hashes in the version-specific patch region of a simulated executable.
const PATCH_BLOCKS: u64 = 128;

/// Messages hashed per [`digest_many`] call while synthesising: a fixed
/// number, so the synthesiser's working memory (a few KiB) does not grow
/// with the payload. Larger batches measured no faster.
const BATCH: usize = 64;

/// Deterministically synthesises an "executable" payload for a library
/// version: a large base blob shared by all versions of the same library
/// plus a small version-specific patch region. Consecutive versions thus
/// share most chunks — the property the paper's chunk-level library dedup
/// exploits.
///
/// The base region is `Hash256::of_parts(&[b"lib-base", name, i])` for
/// `i = 0, 1, ..` (little-endian `u64`), truncated to `base_size`; the
/// patch region is `of_parts(&[b"lib-patch", name, version, i])` for
/// `i = 0..128`.
pub fn simulated_executable(name: &str, version: &str, base_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(simulated_executable_len(base_size));
    // Base region: keyed by library name only (identical across versions).
    let base_blocks = base_size.div_ceil(HASH_LEN) as u64;
    extend_counted(&mut out, &[b"lib-base", name.as_bytes()], base_blocks);
    out.truncate(base_size);
    // Patch region: keyed by (name, version).
    extend_counted(
        &mut out,
        &[b"lib-patch", name.as_bytes(), version.as_bytes()],
        PATCH_BLOCKS,
    );
    out
}

/// The length of every [`simulated_executable`] of base size `base_size`,
/// without synthesising one.
pub fn simulated_executable_len(base_size: usize) -> usize {
    base_size + PATCH_BLOCKS as usize * HASH_LEN
}

/// Appends `Hash256::of_parts(parts ++ [i.to_le_bytes()])` for `i` in
/// `0..count`. The message is built once and each counter stamped into
/// its last eight bytes; a batch of stamped copies is hashed at a time.
fn extend_counted(out: &mut Vec<u8>, parts: &[&[u8]], count: u64) {
    let counter = 0u64.to_le_bytes();
    let template = Hash256::parts_message(&[parts, &[&counter[..]]].concat());
    let stamp = template.len() - counter.len();
    let mut batch = template.repeat(BATCH);
    let mut digests = Vec::with_capacity(BATCH);
    for first in (0..count).step_by(BATCH) {
        let n = (count - first).min(BATCH as u64) as usize;
        let messages = &mut batch[..n * template.len()];
        for (msg, i) in messages.chunks_exact_mut(template.len()).zip(first..) {
            msg[stamp..].copy_from_slice(&i.to_le_bytes());
        }
        let messages: Vec<&[u8]> = messages.chunks_exact(template.len()).collect();
        digests.clear();
        digest_many(&messages, &mut digests);
        for digest in &digests {
            out.extend_from_slice(&digest.0);
        }
    }
}

/// A registered library version: runnable handle + archived payload.
///
/// The metafile's `input_schema`/`output_schema` are the stored schema
/// hashes the paper's compatibility pruning compares: computed from the
/// handle once, here at registration, and read from here by every static
/// check afterwards ([`ComponentRegistry::bind`],
/// `ComponentRegistry::declared_schemas`) — nothing on a request path asks
/// the component again.
#[derive(Clone)]
pub struct RegisteredLibrary {
    /// The runnable component.
    pub(crate) handle: ComponentHandle,
    /// The library metafile (schemas, hyperparameters, entry point).
    pub(crate) metafile: LibraryMetafile,
    /// Stored executable payload.
    pub executable: ObjectRef,
}

impl RegisteredLibrary {
    /// The `(input, output)` schema ids recorded at registration.
    fn declared_schemas(&self) -> DeclaredSchemas {
        (self.metafile.input_schema, self.metafile.output_schema)
    }
}

/// Which stored blob holds a library version's simulated executable at a
/// base size. The tenant registries of one workspace share one archive, so
/// a version every tenant registers is synthesised and chunked once: later
/// registrations charge the stored blob through [`ChunkStore::put_stored`],
/// which costs exactly what writing its bytes again would. An entry whose
/// blob was since swept is passed over and rewritten.
#[derive(Default)]
pub(crate) struct LibraryArchive {
    stored: RwLock<HashMap<(ComponentKey, usize), ObjectRef>>,
}

/// Synthesises and writes the executables of one registration batch from
/// one reused buffer: a library's base region is made once for a run of
/// its versions, and each version only truncates back to it and appends
/// its patch. The bytes are [`simulated_executable`]'s. Every version of a
/// library repeats its base region, so once the run wrote one version the
/// next is chunked and hashed only from the base region's last cut
/// ([`ChunkStore::put_revision`]).
struct Synthesiser {
    base_size: usize,
    buf: Vec<u8>,
    /// The library whose base region `buf` starts with.
    base_of: Option<String>,
    /// The chunks of the last version of `base_of` the batch wrote.
    written: Option<Vec<ChunkRef>>,
}

impl Synthesiser {
    fn new(base_size: usize) -> Self {
        Synthesiser {
            base_size,
            buf: Vec::new(),
            base_of: None,
            written: None,
        }
    }

    /// Writes the executable of `name` at `version` to `store`.
    fn write(&mut self, store: &ChunkStore, name: &str, version: &str) -> Result<PutOutcome> {
        self.payload(name, version);
        let prior = self
            .written
            .as_deref()
            .map(|chunks| (chunks, self.base_size));
        let (put, chunks) = store.put_revision(ObjectKind::Library, &self.buf, prior)?;
        self.written = Some(chunks);
        Ok(put)
    }

    /// The executable of `name` at `version`.
    fn payload(&mut self, name: &str, version: &str) -> &[u8] {
        if self.base_of.as_deref() != Some(name) {
            self.written = None;
            self.buf.clear();
            self.buf.reserve(simulated_executable_len(self.base_size));
            let base_blocks = self.base_size.div_ceil(HASH_LEN) as u64;
            extend_counted(&mut self.buf, &[b"lib-base", name.as_bytes()], base_blocks);
            self.base_of = Some(name.to_string());
        }
        self.buf.truncate(self.base_size);
        extend_counted(
            &mut self.buf,
            &[b"lib-patch", name.as_bytes(), version.as_bytes()],
            PATCH_BLOCKS,
        );
        &self.buf
    }
}

/// The component registry: every library/dataset version the system knows,
/// addressable by `(name, version)`.
pub struct ComponentRegistry {
    store: Arc<ChunkStore>,
    archive: Arc<LibraryArchive>,
    /// Held for a whole registration batch, so a key is archived and
    /// charged once however many threads register it; readers only take
    /// the short map locks below.
    registering: Mutex<()>,
    by_key: RwLock<HashMap<ComponentKey, RegisteredLibrary>>,
    /// Versions per component name, in registration order.
    by_name: RwLock<BTreeMap<String, Vec<ComponentKey>>>,
    /// Size of the simulated executable base region.
    exe_base_size: usize,
    /// What evaluations derived from registered versions alone: bound
    /// candidates, their fingerprints, pruned search trees
    /// ([`crate::memo`]).
    memo: SearchMemo,
}

impl ComponentRegistry {
    /// Default simulated executable base size (512 KiB — a small Python
    /// package's worth of bytes).
    pub const DEFAULT_EXE_SIZE: usize = 512 * 1024;

    /// Creates a registry archiving executables into `store`.
    pub fn new(store: Arc<ChunkStore>) -> Self {
        Self::with_exe_size(store, Self::DEFAULT_EXE_SIZE)
    }

    /// Creates a registry with a custom simulated executable size (tests use
    /// small sizes).
    pub fn with_exe_size(store: Arc<ChunkStore>, exe_base_size: usize) -> Self {
        Self::over_archive(store, exe_base_size, Arc::default())
    }

    /// A registry sharing `archive` with other registries over views of
    /// the same physical store (a workspace's tenants).
    pub(crate) fn over_archive(
        store: Arc<ChunkStore>,
        exe_base_size: usize,
        archive: Arc<LibraryArchive>,
    ) -> Self {
        ComponentRegistry {
            store,
            archive,
            registering: Mutex::new(()),
            by_key: RwLock::new(HashMap::new()),
            by_name: RwLock::new(BTreeMap::new()),
            exe_base_size,
            memo: SearchMemo::default(),
        }
    }

    /// Registers a component version: archives its simulated executable and
    /// records its metafile. Idempotent for identical keys.
    pub fn register(&self, handle: ComponentHandle) -> Result<RegisteredLibrary> {
        let mut one = self.register_many(std::slice::from_ref(&handle))?;
        Ok(one.pop().expect("one handle registers one version").0)
    }

    /// Registers component versions in order, as [`register`] would one at
    /// a time, returning each version's entry and the modeled storage time
    /// of archiving its executable (zero for an already registered
    /// version). The one path that archives executables: a run of
    /// consecutive versions of one library synthesises its base region
    /// once, and a version another registry over the same archive already
    /// stored is charged from its manifest instead of written. Versions
    /// archived before an error stay registered; the shared archive learns
    /// the batch's blobs only when the whole batch succeeded.
    ///
    /// [`register`]: ComponentRegistry::register
    pub fn register_many(
        &self,
        handles: &[ComponentHandle],
    ) -> Result<Vec<(RegisteredLibrary, std::time::Duration)>> {
        let _registering = self.registering.lock();
        let mut synth = Synthesiser::new(self.exe_base_size);
        let mut archived = Vec::new();
        let mut out = Vec::with_capacity(handles.len());
        for handle in handles {
            let key = handle.key();
            if let Some(existing) = self.get(&key) {
                out.push((existing, std::time::Duration::ZERO));
                continue;
            }
            let archive_key = (key.clone(), self.exe_base_size);
            let stored = self.archive.stored.read().get(&archive_key).copied();
            let charged = match stored {
                Some(object) => self.store.put_stored(&object)?,
                None => None,
            };
            let put = match charged {
                Some(put) => put,
                None => {
                    let put = synth.write(&self.store, &key.name, &key.version.to_string())?;
                    archived.push((archive_key, put.object));
                    put
                }
            };
            let metafile = LibraryMetafile {
                name: key.name.clone(),
                version: key.version.clone(),
                stage: handle.stage(),
                entry_point: format!("{}::main", key.name),
                input_schema: handle.input_schema(),
                output_schema: handle.output_schema(),
                hyperparams: BTreeMap::new(),
                executable: put.object,
            };
            let reg = RegisteredLibrary {
                handle: Arc::clone(handle),
                metafile,
                executable: put.object,
            };
            self.by_key.write().insert(key.clone(), reg.clone());
            match self.by_name.write().entry(key.name.clone()) {
                Entry::Vacant(v) => {
                    v.insert(vec![key]);
                }
                Entry::Occupied(mut o) => o.get_mut().push(key),
            }
            out.push((reg, put.cost));
        }
        self.archive.stored.write().extend(archived);
        Ok(out)
    }

    /// The `(input, output)` schema ids `key` declared when it was
    /// registered.
    pub(crate) fn declared_schemas(&self, key: &ComponentKey) -> Result<DeclaredSchemas> {
        self.by_key
            .read()
            .get(key)
            .map(RegisteredLibrary::declared_schemas)
            .ok_or_else(|| CoreError::UnknownComponent(key.clone()))
    }

    /// Resolves slot-ordered component keys to a pipeline bound over `dag`,
    /// handing it each slot's registered schema ids (one lock acquisition
    /// for the whole pipeline, no call into any component).
    pub fn bind(&self, dag: &Arc<PipelineDag>, keys: &[ComponentKey]) -> Result<BoundPipeline> {
        let by_key = self.by_key.read();
        let mut components = Vec::with_capacity(keys.len());
        let mut schemas = Vec::with_capacity(keys.len());
        for key in keys {
            let lib = by_key
                .get(key)
                .ok_or_else(|| CoreError::UnknownComponent(key.clone()))?;
            components.push(Arc::clone(&lib.handle));
            schemas.push(lib.declared_schemas());
        }
        drop(by_key);
        Ok(BoundPipeline::with_schemas(
            Arc::clone(dag),
            components,
            schemas,
        )?)
    }

    /// The search memo of `dag`'s shape: the history-independent half of
    /// every commit, merge search and trial over it, derived once.
    pub(crate) fn memo(&self, dag: &Arc<PipelineDag>) -> Arc<ShapeMemo> {
        self.memo.shape(dag)
    }

    /// Evaluates everything `pickers` pick over `dag` through the one
    /// evaluation loop ([`search::evaluate`]) on this registry's store,
    /// each candidate bound and fingerprinted once by the memo of `dag`'s
    /// shape.
    pub(crate) fn evaluate<P: Picker>(
        &self,
        dag: &Arc<PipelineDag>,
        history: &HistoryIndex,
        policy: Policy,
        pickers: &mut [P],
    ) -> Result<Vec<Vec<Evaluated>>> {
        let memo = self.memo(dag);
        search::evaluate(
            &Executor::new(self.store()),
            history,
            policy,
            pickers,
            |keys| memo.candidate(self, keys),
        )
    }

    /// What this registry's search memo has derived so far: DAG shapes,
    /// search trees and bound, fingerprinted candidates, each once.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The registered entry (handle + metafile) for a version.
    pub fn get(&self, key: &ComponentKey) -> Option<RegisteredLibrary> {
        self.by_key.read().get(key).cloned()
    }

    /// All registered versions of a component name, in registration order.
    pub fn versions_of(&self, name: &str) -> Vec<ComponentKey> {
        self.by_name.read().get(name).cloned().unwrap_or_default()
    }

    /// All registered component names.
    pub fn names(&self) -> Vec<String> {
        self.by_name.read().keys().cloned().collect()
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_source};
    use mlcask_pipeline::semver::SemVer;

    fn registry() -> ComponentRegistry {
        ComponentRegistry::with_exe_size(Arc::new(ChunkStore::in_memory_small()), 8 * 1024)
    }

    #[test]
    fn register_and_resolve() {
        let reg = registry();
        let c = toy_source(SemVer::initial(), 4, 8);
        let key = c.key();
        let declared = (c.input_schema(), c.output_schema());
        reg.register(c).unwrap();
        assert_eq!(reg.declared_schemas(&key).unwrap(), declared);
        assert_eq!(reg.versions_of("test_source"), vec![key.clone()]);
        assert_eq!(reg.by_key.read().len(), 1);
        let entry = reg.get(&key).unwrap();
        assert_eq!(entry.metafile.name, "test_source");
        assert!(!entry.executable.is_null());
    }

    #[test]
    fn resolve_unknown_errors() {
        let reg = registry();
        let key = ComponentKey::new("ghost", SemVer::initial());
        assert!(matches!(
            reg.declared_schemas(&key),
            Err(CoreError::UnknownComponent(_))
        ));
        let dag = Arc::new(PipelineDag::chain(&["ghost"]).unwrap());
        assert!(matches!(
            reg.bind(&dag, &[key]),
            Err(CoreError::UnknownComponent(_))
        ));
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = registry();
        let c = toy_model(SemVer::initial(), 4, 0.5);
        reg.register(c.clone()).unwrap();
        let physical = reg.store().physical_bytes();
        reg.register(c).unwrap();
        assert_eq!(reg.by_key.read().len(), 1);
        assert_eq!(reg.store().physical_bytes(), physical);
    }

    #[test]
    fn versions_accumulate_in_order() {
        let reg = registry();
        for inc in 0..3 {
            reg.register(toy_model(SemVer::master(0, inc), 4, 0.5))
                .unwrap();
        }
        let versions = reg.versions_of("test_model");
        assert_eq!(versions.len(), 3);
        assert_eq!(versions[2].version, SemVer::master(0, 2));
        assert_eq!(reg.names(), vec!["test_model"]);
    }

    #[test]
    fn consecutive_versions_dedup_in_store() {
        let reg = registry();
        reg.register(toy_scaler(SemVer::master(0, 0), 4, 4, 1.0))
            .unwrap();
        let first_bytes = reg.store().stats().kind(ObjectKind::Library).physical_bytes;
        reg.register(toy_scaler(SemVer::master(0, 1), 4, 4, 2.0))
            .unwrap();
        let after = reg.store().stats().kind(ObjectKind::Library);
        let second_bytes = after.physical_bytes - first_bytes;
        assert!(
            second_bytes < first_bytes / 2,
            "v0.1 stored {second_bytes} bytes vs v0.0's {first_bytes}: dedup failed"
        );
    }

    #[test]
    fn simulated_executable_properties() {
        let a = simulated_executable("lib", "0.0", 4096);
        let b = simulated_executable("lib", "0.1", 4096);
        let c = simulated_executable("lib", "0.0", 4096);
        assert_eq!(a, c, "deterministic");
        assert_ne!(a, b, "version-specific patch differs");
        // Shared base region.
        assert_eq!(&a[..4096], &b[..4096]);
        assert!(a.len() > 4096);
    }

    /// The reference synthesiser: one `of_parts` call per 32 bytes.
    fn simulated_executable_per_block(name: &str, version: &str, base_size: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut counter = 0u64;
        while out.len() < base_size {
            let block = Hash256::of_parts(&[b"lib-base", name.as_bytes(), &counter.to_le_bytes()]);
            out.extend_from_slice(&block.0);
            counter += 1;
        }
        out.truncate(base_size);
        for i in 0u64..128 {
            let block = Hash256::of_parts(&[
                b"lib-patch",
                name.as_bytes(),
                version.as_bytes(),
                &i.to_le_bytes(),
            ]);
            out.extend_from_slice(&block.0);
        }
        out
    }

    /// Batched synthesis writes the reference's bytes. A base message is
    /// 40 bytes plus the name, so names of 15 and 16 bytes sit on either
    /// side of the one-block padding limit. The sizes cover an empty base,
    /// a truncated last hash, whole batches (128 hashes) and a last batch
    /// of one odd hash (129).
    #[test]
    fn batched_synthesis_equals_per_block_synthesis() {
        for name_len in [0, 1, 15, 16, 40] {
            let name = "n".repeat(name_len);
            for size in [0, 1, 31, 32, 4096, 4097] {
                let got = simulated_executable(&name, "0.1", size);
                assert_eq!(
                    got,
                    simulated_executable_per_block(&name, "0.1", size),
                    "name of {name_len} bytes, base of {size}"
                );
            }
        }
    }

    /// One reused buffer writes each version's [`simulated_executable`],
    /// through runs of one library, a change of library and a return to
    /// an earlier one, for bases with and without a truncated last hash;
    /// and `register_many`, which chunks a version after the first of a
    /// run only from the base region's last cut, stores each under the id
    /// a whole `put_blob` of its bytes gets.
    #[test]
    fn the_batch_synthesiser_writes_simulated_executables() {
        let handles = [
            toy_model(SemVer::master(0, 0), 4, 0.5),
            toy_model(SemVer::master(0, 1), 4, 0.5),
            toy_model(SemVer::master(1, 0), 4, 0.5),
            toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
            toy_model(SemVer::master(0, 2), 4, 0.5),
            toy_model(SemVer::master(0, 2), 4, 0.5),
        ];
        let versions = handles
            .each_ref()
            .map(|h| (h.key().name, h.key().version.to_string()));
        for size in [0, 31, 4096, 4097] {
            let mut synth = Synthesiser::new(size);
            for (name, version) in &versions {
                assert_eq!(
                    synth.payload(name, version),
                    &simulated_executable(name, version, size)[..],
                    "{name}@{version}, base of {size}"
                );
            }
            let registered =
                ComponentRegistry::with_exe_size(Arc::new(ChunkStore::in_memory_small()), size)
                    .register_many(&handles)
                    .unwrap();
            for ((lib, _), (name, version)) in registered.iter().zip(&versions) {
                let whole = ChunkStore::in_memory_small()
                    .put_blob(
                        ObjectKind::Library,
                        &simulated_executable(name, version, size),
                    )
                    .unwrap();
                assert_eq!(
                    lib.executable, whole.object,
                    "{name}@{version}, base of {size}"
                );
            }
        }
    }

    fn tenant_view(root: &ChunkStore, id: u32) -> Arc<ChunkStore> {
        use mlcask_storage::tenant::{QuotaPolicy, TenantId};
        root.tenant_accounts()
            .register(TenantId(id), QuotaPolicy::UNLIMITED);
        Arc::new(root.for_tenant(TenantId(id)))
    }

    /// Threads racing to register one key archive and charge it once, and
    /// list it once.
    #[test]
    fn concurrent_registrations_of_one_key_register_it_once() {
        use mlcask_storage::tenant::TenantId;
        let handles: Vec<ComponentHandle> = (0..3)
            .map(|inc| toy_model(SemVer::master(0, inc), 4, 0.5))
            .collect();
        let once = ChunkStore::in_memory_small();
        let single = ComponentRegistry::with_exe_size(tenant_view(&once, 1), 8 * 1024);
        single.register_many(&handles).unwrap();
        let root = ChunkStore::in_memory_small();
        let reg = ComponentRegistry::with_exe_size(tenant_view(&root, 1), 8 * 1024);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (reg, handles, start) = (&reg, &handles, &start);
                s.spawn(move || {
                    start.wait();
                    for h in handles.iter().cycle().skip(t % 3).take(3) {
                        reg.register(Arc::clone(h)).unwrap();
                    }
                });
            }
        });
        let listed = reg.versions_of("test_model");
        let distinct: std::collections::HashSet<_> = listed.iter().collect();
        assert_eq!(listed.len(), 3, "{listed:?}");
        assert_eq!(distinct.len(), 3, "{listed:?}");
        let usage = |store: &ChunkStore| store.tenant_accounts().usage(TenantId(1));
        assert_eq!(usage(&root), usage(&once));
        assert_eq!(root.stats(), once.stats());
    }

    /// Registries over two tenants' views sharing an archive: the second
    /// charges each version from the stored blob — what writing it again
    /// would charge — and a version whose blob was swept is written anew.
    #[test]
    fn a_shared_archive_stores_each_version_once() {
        use mlcask_storage::tenant::TenantId;
        let handles: Vec<ComponentHandle> = vec![
            toy_source(SemVer::initial(), 4, 8),
            toy_model(SemVer::master(0, 0), 4, 0.5),
            toy_model(SemVer::master(0, 1), 4, 0.6),
        ];
        // `shared`'s second registry uses the first's archive; `private`'s
        // writes every executable itself.
        let run = |shared: bool| {
            let root = ChunkStore::in_memory_small();
            let archive = Arc::new(LibraryArchive::default());
            let first =
                ComponentRegistry::over_archive(tenant_view(&root, 1), 4097, Arc::clone(&archive));
            let first_out = first.register_many(&handles).unwrap();
            let second_archive = if shared { archive } else { Arc::default() };
            let second =
                ComponentRegistry::over_archive(tenant_view(&root, 2), 4097, second_archive);
            let second_out = second.register_many(&handles).unwrap();
            let objects = |out: &[(RegisteredLibrary, std::time::Duration)]| {
                out.iter()
                    .map(|(lib, cost)| (lib.executable, *cost))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                first_out
                    .iter()
                    .map(|(l, _)| l.executable)
                    .collect::<Vec<_>>(),
                second_out
                    .iter()
                    .map(|(l, _)| l.executable)
                    .collect::<Vec<_>>()
            );
            let accounts = root.tenant_accounts();
            let seen = format!(
                "{:?} {:?} {:?} {:?}",
                objects(&second_out),
                accounts.usage(TenantId(2)),
                accounts.shared_view(),
                root.stats()
            );
            (root, second, seen)
        };
        let (root, second, shared) = run(true);
        assert_eq!(shared, run(false).2);
        // Swept blobs leave stale archive entries; a third registry passes
        // over them and writes the bytes again.
        root.sweep_orphans(std::iter::empty()).unwrap();
        assert_eq!(root.physical_bytes(), 0);
        let archive = Arc::clone(&second.archive);
        let third = ComponentRegistry::over_archive(tenant_view(&root, 3), 4097, archive);
        third.register_many(&handles).unwrap();
        for h in &handles {
            let key = h.key();
            let lib = third.get(&key).unwrap();
            assert_eq!(lib.executable, second.get(&key).unwrap().executable);
            let bytes = root.get_blob(&lib.executable).unwrap();
            let version = key.version.to_string();
            assert_eq!(
                bytes.as_ref(),
                &simulated_executable(&key.name, &version, 4097)[..]
            );
        }
    }

    #[test]
    fn simulated_executable_len_is_the_payload_len() {
        for size in [0, 1, 31, 32, 4097, ComponentRegistry::DEFAULT_EXE_SIZE] {
            assert_eq!(
                simulated_executable_len(size),
                simulated_executable("lib", "0.0", size).len(),
                "base of {size}"
            );
        }
    }

    /// Put/get round trips pass under any self-consistent hash, so pin the
    /// actual addresses of one payload: its SHA-256 (as `hashlib` computes
    /// it over the same construction) and the blob id the store derives from
    /// the one-block `of_parts` hashes, the chunk hashes and the manifest
    /// hash together.
    #[test]
    fn simulated_executable_addresses_are_pinned() {
        let payload = simulated_executable("lib", "0.0", 4096);
        assert_eq!(
            Hash256::of(&payload).to_hex(),
            "ff7349da669202c31b3399f42ae3ffc5c59e88989ae09701617782c353a967f2"
        );
        let stored = ChunkStore::in_memory()
            .put_blob(ObjectKind::Library, &payload)
            .unwrap();
        assert_eq!(
            stored.object.id.to_hex(),
            "8d871fee13b844b0bac23c72570c6d2004a0abab35a4189305210721d8fb5e1c"
        );
    }
}
