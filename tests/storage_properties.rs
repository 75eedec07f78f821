//! Property-based integration tests on the storage substrate as used by the
//! versioning layer: content addressing, dedup accounting, and commit-graph
//! invariants under randomised operation sequences.

use mlcask::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of blob writes round-trips and never stores more
    /// physical than logical bytes (modulo manifest overhead).
    #[test]
    fn prop_store_accounting(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..2048), 1..12
    )) {
        let store = ChunkStore::in_memory_small();
        let mut refs = Vec::new();
        for b in &blobs {
            refs.push(store.put_blob(ObjectKind::Output, b).unwrap().object);
        }
        for (b, r) in blobs.iter().zip(&refs) {
            let back = store.get_blob(r).unwrap();
            prop_assert_eq!(back.as_ref(), &b[..]);
        }
        let total = store.stats().total();
        let logical: u64 = blobs.iter().map(|b| b.len() as u64).sum();
        prop_assert_eq!(total.logical_bytes, logical);
        // Manifest overhead: ≤ 12 + 36 per chunk, chunks ≥ 1 per 64 bytes.
        let max_manifest: u64 = blobs.iter()
            .map(|b| 12 + 36 * (b.len() as u64 / 64 + 2))
            .sum();
        prop_assert!(total.physical_bytes <= logical + max_manifest);
    }

    /// Duplicate writes are always physically free.
    #[test]
    fn prop_duplicates_free(data in proptest::collection::vec(any::<u8>(), 1..4096)) {
        let store = ChunkStore::in_memory_small();
        store.put_blob(ObjectKind::Library, &data).unwrap();
        let before = store.physical_bytes();
        let again = store.put_blob(ObjectKind::Library, &data).unwrap();
        prop_assert_eq!(again.physical_bytes, 0);
        prop_assert_eq!(store.physical_bytes(), before);
    }

    /// Linear commit chains: head sequence equals commit count - 1, every
    /// ancestor is reachable, and LCA of any two commits on the chain is the
    /// earlier one.
    #[test]
    fn prop_linear_chain_lca(n in 2usize..12, a in 0usize..12, b in 0usize..12) {
        let graph = CommitGraph::new();
        let mut commits = vec![graph
            .commit_root("master", Hash256::of(b"0"), "init")
            .unwrap()];
        for i in 1..n {
            commits.push(
                graph
                    .commit("master", Hash256::of(&[i as u8]), "step")
                    .unwrap(),
            );
        }
        let a = a.min(n - 1);
        let b = b.min(n - 1);
        let lca = graph
            .common_ancestor(commits[a].id, commits[b].id)
            .unwrap()
            .unwrap();
        prop_assert_eq!(lca.id, commits[a.min(b)].id);
    }

    /// Branch + merge: the merge commit's ancestor set contains both
    /// branches' commits.
    #[test]
    fn prop_merge_ancestry(head_commits in 1usize..5, dev_commits in 1usize..5) {
        let graph = CommitGraph::new();
        graph.commit_root("master", Hash256::of(b"0"), "init").unwrap();
        graph.branch("master", "dev").unwrap();
        for i in 0..head_commits {
            graph.commit("master", Hash256::of(&[1, i as u8]), "h").unwrap();
        }
        for i in 0..dev_commits {
            graph.commit("dev", Hash256::of(&[2, i as u8]), "d").unwrap();
        }
        let (head, dev_head) = (graph.head("master").unwrap(), graph.head("dev").unwrap());
        let merged = graph
            .commit_onto("master", Some(head.id), Some(dev_head.id), Hash256::of(b"m"), "merge")
            .unwrap();
        let ancestors = graph.view().ancestors(merged.id).unwrap();
        // init + head commits + dev commits + merge commit.
        prop_assert_eq!(ancestors.len(), 1 + head_commits + dev_commits + 1);
        prop_assert!(ancestors.contains(&dev_head.id));
    }

    /// Schema hashing: permuting column order never changes the schema id;
    /// adding a column always does.
    #[test]
    fn prop_schema_hash(cols in proptest::collection::vec("[a-z]{1,8}", 1..6), extra in "[a-z]{1,8}") {
        let mut unique: Vec<String> = cols;
        unique.sort();
        unique.dedup();
        prop_assume!(!unique.contains(&extra));
        let fwd = Schema::Relational { columns: unique.clone() };
        let mut rev = unique.clone();
        rev.reverse();
        let bwd = Schema::Relational { columns: rev };
        prop_assert_eq!(fwd.id(), bwd.id());
        let mut extended = unique;
        extended.push(extra);
        let wider = Schema::Relational { columns: extended };
        prop_assert_ne!(fwd.id(), wider.id());
    }
}

// ---------------------------------------------------------------------------
// Commit-graph ancestry against an independent model: the tick-ordered walks
// behind `common_ancestor` / `is_ancestor` / `is_fast_forward` must agree
// with whole-history ancestor sets on arbitrary DAGs.
// ---------------------------------------------------------------------------

mod graph_model {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    /// Replays `ops` (one random word each) as graph writes over at least
    /// three branches and returns every commit created. Merges take *any*
    /// earlier commit as the second parent, so criss-cross shapes (a into b
    /// and b into a, off heads that have since moved) come up constantly;
    /// extra roots give pairs with no common ancestor.
    fn build(graph: &CommitGraph, ops: &[u32]) -> Vec<Commit> {
        let payload = |i: usize| Hash256::of(&(i as u64).to_le_bytes());
        let mut commits = vec![graph.commit_root("b0", payload(0), "root").unwrap()];
        let mut branches = vec!["b0".to_string()];
        for name in ["b1", "b2"] {
            graph.branch("b0", name).unwrap();
            branches.push(name.to_string());
        }
        for (i, w) in ops.iter().map(|w| *w as usize).enumerate() {
            let on = branches[(w >> 3) % branches.len()].clone();
            let pick = (w >> 11) % commits.len();
            let fresh = format!("b{}", branches.len());
            match w % 8 {
                0 if branches.len() < 6 => {
                    commits.push(graph.commit_root(&fresh, payload(i + 1), "root").unwrap());
                    branches.push(fresh);
                }
                1 if branches.len() < 6 => {
                    graph.branch(&on, &fresh).unwrap();
                    branches.push(fresh);
                }
                2..=4 => {
                    let (head, second) = (graph.head(&on).unwrap().id, commits[pick].id);
                    let merge =
                        graph.commit_onto(&on, Some(head), Some(second), payload(i + 1), "merge");
                    commits.push(merge.unwrap());
                }
                _ => commits.push(graph.commit(&on, payload(i + 1), "step").unwrap()),
            }
        }
        commits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_ancestry_queries_match_ancestor_set_oracle(
            ops in proptest::collection::vec(any::<u32>(), 4..48)
        ) {
            let graph = CommitGraph::new();
            let commits = build(&graph, &ops);
            let view = graph.view();
            let sets: Vec<HashSet<Hash256>> = commits
                .iter()
                .map(|c| view.ancestors(c.id).unwrap())
                .collect();
            for (a, anc_a) in commits.iter().zip(&sets) {
                for (b, anc_b) in commits.iter().zip(&sets) {
                    // The oracle: intersect whole-history sets, take the
                    // greatest tick.
                    let expect = commits
                        .iter()
                        .filter(|c| anc_a.contains(&c.id) && anc_b.contains(&c.id))
                        .max_by_key(|c| c.tick)
                        .map(|c| c.id);
                    let got = view.common_ancestor(a.id, b.id).unwrap().map(|c| c.id);
                    prop_assert_eq!(got, expect);
                    let below = anc_b.contains(&a.id);
                    prop_assert_eq!(view.is_ancestor(a.id, b.id).unwrap(), below);
                    prop_assert_eq!(view.is_fast_forward(a.id, b.id).unwrap(), below);
                }
            }
        }
    }

    /// Branch names that crowd one another in table order: prefixes of each
    /// other with and without the `/`, and the separator's neighbours (`.`
    /// sorts below it, `0` above).
    const NAMES: [&str; 12] = [
        "t",
        "tea",
        "tea/m",
        "tea/m/x",
        "team",
        "team.x/a",
        "team/",
        "team/alpha",
        "team/beta",
        "team0/b",
        "teams/a",
        "u/team/alpha",
    ];
    const NAMESPACES: [&str; 6] = ["t", "tea", "tea/m", "team", "u", "nobody"];

    /// One generation of the branch table against the model's: the listing,
    /// every namespace range and every head (absent names included).
    fn check_branch_table(
        view: &mlcask::storage::commit::GraphView,
        model: &BTreeMap<String, Hash256>,
    ) {
        assert_eq!(view.branches(), model.keys().cloned().collect::<Vec<_>>());
        for ns in NAMESPACES {
            let prefix = format!("{ns}/");
            let expect: Vec<String> = model
                .keys()
                .filter_map(|name| name.strip_prefix(&prefix))
                .map(str::to_string)
                .collect();
            assert_eq!(view.branches_in(ns), expect, "namespace {ns}");
        }
        for name in NAMES {
            let got = view.head(name).ok().map(|c| c.id);
            assert_eq!(got, model.get(name).copied(), "head of {name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The persistent branch table (heads in a hash trie, names in a
        /// shared ordered set) against a plain `BTreeMap`, after every
        /// write — and the view taken before each write against the model
        /// as it was, since generations share structure. Some head moves
        /// name a stale base or none: they are refused (`BaseMoved`,
        /// `BranchExists`) and write nothing.
        #[test]
        fn prop_branch_table_matches_btreemap_model(
            ops in proptest::collection::vec(any::<u32>(), 1..64)
        ) {
            let graph = CommitGraph::new();
            let payload = |i: usize| Hash256::of(&(i as u64).to_le_bytes());
            let mut model: BTreeMap<String, Hash256> = BTreeMap::new();
            let mut commits: Vec<Hash256> = Vec::new();
            for (i, w) in ops.iter().map(|w| *w as usize).enumerate() {
                let (before, model_before) = (graph.view(), model.clone());
                let name = NAMES[(w >> 3) % NAMES.len()];
                let existing: Vec<&String> = model.keys().collect();
                let on = existing.get((w >> 11) % existing.len().max(1)).map(|s| s.to_string());
                match (w % 8, on) {
                    // Creation: a root, or a branch off an existing head.
                    (0 | 1, _) | (_, None) => match graph.commit_root(name, payload(i), "root") {
                        Ok(c) => {
                            prop_assert!(model.insert(name.to_string(), c.id).is_none());
                            commits.push(c.id);
                        }
                        Err(e) => {
                            prop_assert!(matches!(e, StorageError::BranchExists(_)));
                            prop_assert!(model.contains_key(name));
                        }
                    },
                    (2 | 3, Some(from)) => match graph.branch(&from, name) {
                        Ok(c) => {
                            prop_assert_eq!(c.id, model[&from]);
                            prop_assert!(model.insert(name.to_string(), c.id).is_none());
                        }
                        Err(e) => {
                            prop_assert!(matches!(e, StorageError::BranchExists(_)));
                            prop_assert!(model.contains_key(name));
                        }
                    },
                    // Head moves onto a base: merge (4), plain (5, 6). The
                    // base is the head, an earlier commit or none.
                    (k @ 4..=6, Some(on)) => {
                        let second = (k == 4).then(|| commits[(w >> 17) % commits.len()]);
                        let base = match (w >> 23) % 4 {
                            0 => None,
                            1 => Some(commits[(w >> 25) % commits.len()]),
                            _ => Some(model[&on]),
                        };
                        match graph.commit_onto(&on, base, second, payload(i), "move") {
                            Ok(c) => {
                                prop_assert_eq!(base, Some(model[&on]));
                                commits.push(c.id);
                                model.insert(on, c.id);
                            }
                            Err(StorageError::BaseMoved { branch, searched, head }) => {
                                prop_assert_eq!(&branch, &on);
                                prop_assert_eq!(head, model[&on]);
                                prop_assert!(base == Some(searched) && searched != head);
                            }
                            Err(e) => {
                                prop_assert!(matches!(e, StorageError::BranchExists(b) if b == on));
                                prop_assert_eq!(base, None);
                            }
                        }
                        prop_assert_eq!(graph.view().len(), commits.len());
                    }
                    // The raw append: onto whatever the head is (7).
                    (_, Some(on)) => {
                        let c = graph.commit(&on, payload(i), "step").unwrap();
                        commits.push(c.id);
                        model.insert(on, c.id);
                    }
                }
                check_branch_table(&graph.view(), &model);
                check_branch_table(&before, &model_before);
            }
        }
    }

    /// What the ancestry queries answer for ids the graph does not hold.
    #[test]
    fn ancestry_query_errors() {
        let graph = CommitGraph::new();
        let known = build(&graph, &[])[0].id;
        let (x, y) = (Hash256::of(b"unknown x"), Hash256::of(b"unknown y"));
        let not_found = |r: Result<bool, StorageError>, id: Hash256| {
            assert!(
                matches!(r, Err(StorageError::NotFound(got)) if got == id),
                "{r:?}"
            )
        };
        let lca = |a, b| graph.common_ancestor(a, b).map(|c| c.is_some());
        not_found(lca(x, known), x);
        not_found(lca(known, y), y);
        not_found(lca(x, y), x);
        type Query = fn(&GraphView, Hash256, Hash256) -> Result<bool, StorageError>;
        let view = graph.view();
        for query in [GraphView::is_ancestor as Query, GraphView::is_fast_forward] {
            // An unknown descendant is an error; an unknown candidate
            // ancestor is just not an ancestor.
            not_found(query(&view, known, y), y);
            not_found(query(&view, x, y), y);
            assert!(!query(&view, x, known).unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// Durable (cask) backend properties: the segment codec, torn-tail recovery,
// and compaction — the invariants `tests/crash_recovery.rs` leans on.
// ---------------------------------------------------------------------------

mod cask_props {
    use super::*;
    use mlcask::storage::backend::{MemBackend, StorageBackend};
    use mlcask::storage::cask::{frame, scan_frames, FRAME_HEADER};
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const SHARDS: usize = 4;

    type Backend = Arc<dyn StorageBackend>;

    /// Per-call-unique temp dir (pid alone collides across matrix cells).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mlcask-prop-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Framing any payload sequence scans back to exactly those
        /// payloads with no torn tail.
        #[test]
        fn prop_frame_codec_round_trips(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..12
        )) {
            let mut buf = Vec::new();
            let mut expect = Vec::new();
            for p in &payloads {
                expect.push((buf.len() + FRAME_HEADER, p.len()));
                buf.extend_from_slice(&frame(p));
            }
            let (frames, valid) = scan_frames(&buf);
            prop_assert_eq!(valid, buf.len());
            prop_assert_eq!(&frames, &expect);
            for (&(off, len), p) in frames.iter().zip(&payloads) {
                prop_assert_eq!(&buf[off..off + len], &p[..]);
            }
        }

        /// Cutting a frame sequence anywhere (plus arbitrary trailing junk)
        /// preserves every fully-written frame before the cut, and
        /// truncating to the reported valid prefix is idempotent.
        #[test]
        fn prop_torn_tail_truncation_idempotent(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..256), 1..8
            ),
            cut_frac in 0.0f64..1.0,
            junk in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut buf = Vec::new();
            let mut ends = Vec::new();
            for p in &payloads {
                buf.extend_from_slice(&frame(p));
                ends.push(buf.len());
            }
            let cut = (buf.len() as f64 * cut_frac) as usize;
            let mut torn = buf[..cut].to_vec();
            torn.extend_from_slice(&junk);

            let (frames, valid) = scan_frames(&torn);
            // Every frame fully written before the cut survives the tear.
            let intact = ends.iter().filter(|e| **e <= cut).count();
            prop_assert!(frames.len() >= intact);
            for (i, &(off, len)) in frames.iter().take(intact).enumerate() {
                prop_assert_eq!(&torn[off..off + len], &payloads[i][..]);
            }
            // Truncation is idempotent: rescanning the valid prefix keeps
            // everything.
            let (again, valid2) = scan_frames(&torn[..valid]);
            prop_assert_eq!(valid2, valid);
            prop_assert_eq!(again, frames);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Tearing the tail of one shard file loses at most that shard's
        /// trailing records: every surviving key round-trips bit-exact,
        /// keys hashed to other shards all survive, and a second reopen
        /// changes nothing (truncation is idempotent on real files).
        #[test]
        fn prop_torn_shard_tail_recovery(
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..256), 1..8
            ),
            shard_sel in any::<u8>(),
            cut in 1usize..96,
        ) {
            let dir = temp_dir("torn");
            {
                let opts = CaskOptions::synchronous().with_shards(SHARDS);
                let be = CaskBackend::open_with(&dir, opts).unwrap();
                for b in &blobs {
                    be.put(Hash256::of(b), b).unwrap();
                }
                be.flush().unwrap();
            }
            let shard = (shard_sel as usize) % SHARDS;
            let path = dir.join(format!("shard-{shard:03}.log"));
            let len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len.saturating_sub(cut as u64)).unwrap();
            f.sync_all().unwrap();
            drop(f);

            let be = CaskBackend::open(&dir).unwrap();
            let unique: HashMap<Hash256, &Vec<u8>> =
                blobs.iter().map(|b| (Hash256::of(b), b)).collect();
            let mut lost = 0usize;
            for (k, v) in &unique {
                if be.contains(*k) {
                    prop_assert_eq!(be.get(*k).unwrap().as_ref(), &v[..]);
                } else {
                    prop_assert_eq!(
                        (k.0[0] as usize) % SHARDS,
                        shard,
                        "a key outside the torn shard vanished"
                    );
                    lost += 1;
                }
            }
            let survivors = unique.len() - lost;
            prop_assert_eq!(be.len(), survivors);
            drop(be);

            let be = CaskBackend::open(&dir).unwrap();
            prop_assert_eq!(be.len(), survivors);
            for (k, v) in &unique {
                if be.contains(*k) {
                    prop_assert_eq!(be.get(*k).unwrap().as_ref(), &v[..]);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Compaction after arbitrary removals keeps exactly the live set:
        /// every survivor round-trips (also after a reopen), dead space
        /// drops to zero, and live bytes are unchanged.
        #[test]
        fn prop_compaction_preserves_liveness(
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..512), 1..10
            ),
            kill_mask in proptest::collection::vec(any::<bool>(), 10),
        ) {
            let dir = temp_dir("compact");
            let opts = CaskOptions::synchronous().with_shards(SHARDS);
            let be = CaskBackend::open_with(&dir, opts).unwrap();
            let mut live: HashMap<Hash256, Vec<u8>> = HashMap::new();
            for b in &blobs {
                be.put(Hash256::of(b), b).unwrap();
                live.insert(Hash256::of(b), b.clone());
            }
            let mut removed = HashSet::new();
            for (i, b) in blobs.iter().enumerate() {
                if kill_mask[i % kill_mask.len()] {
                    let k = Hash256::of(b);
                    if removed.insert(k) {
                        be.remove(k).unwrap();
                        live.remove(&k);
                    }
                }
            }
            let live_bytes = be.physical_bytes();
            be.compact().unwrap();
            prop_assert_eq!(be.dead_bytes(), 0);
            prop_assert_eq!(be.physical_bytes(), live_bytes);
            prop_assert_eq!(be.len(), live.len());
            for (k, v) in &live {
                prop_assert_eq!(be.get(*k).unwrap().as_ref(), &v[..]);
            }
            drop(be);

            let be = CaskBackend::open(&dir).unwrap();
            prop_assert_eq!(be.len(), live.len());
            prop_assert_eq!(be.physical_bytes(), live_bytes);
            for (k, v) in &live {
                prop_assert_eq!(be.get(*k).unwrap().as_ref(), &v[..]);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// `put_many` is the per-key loop, observably, on every backend: an
        /// instance taking whole calls and a twin taking one `put` per key
        /// return the same `Vec<bool>` (a key repeated inside one call is new
        /// once, one already stored is not new) and show the same `len` and
        /// `physical_bytes` after every call — across removals, and on the
        /// cask with and without a writer pool across a reopen.
        #[test]
        fn prop_put_many_equals_the_per_key_loop(
            calls in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 1..7), 1..8
            ),
            removals in proptest::collection::vec(any::<bool>(), 8),
        ) {
            let blobs: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 1 + 37 * i as usize]).collect();
            let mem = || -> Backend { Arc::new(MemBackend::new()) };
            let mut twins: Vec<(String, Backend, Backend)> = vec![
                ("mem".into(), mem(), mem()),
                (
                    "fault".into(),
                    Arc::new(FaultBackend::new(mem(), 0)),
                    Arc::new(FaultBackend::new(mem(), 0)),
                ),
            ];
            let modes = [
                ("pool", CaskOptions { shards: SHARDS, ..CaskOptions::default() }),
                ("sync", CaskOptions::synchronous().with_shards(SHARDS)),
            ];
            let mut dirs = Vec::new();
            for (mode, opts) in &modes {
                let (a, b) = (temp_dir(mode), temp_dir(mode));
                twins.push((
                    mode.to_string(),
                    Arc::new(CaskBackend::open_with(&a, opts.clone()).unwrap()),
                    Arc::new(CaskBackend::open_with(&b, opts.clone()).unwrap()),
                ));
                dirs.push((a, b));
            }
            for (label, many, single) in &twins {
                let mut stored = HashSet::new();
                for (c, call) in calls.iter().enumerate() {
                    let items: Vec<(Hash256, &[u8])> =
                        call.iter().map(|&i| (Hash256::of(&blobs[i]), &blobs[i][..])).collect();
                    let got = many.put_many(&items).unwrap();
                    let looped: Vec<bool> =
                        items.iter().map(|&(k, d)| single.put(k, d).unwrap()).collect();
                    let model: Vec<bool> = items.iter().map(|(k, _)| stored.insert(*k)).collect();
                    prop_assert_eq!(&got, &looped, "{}: call {}", label, c);
                    prop_assert_eq!(&got, &model, "{}: call {}", label, c);
                    prop_assert_eq!(many.len(), single.len(), "{}", label);
                    prop_assert_eq!(many.physical_bytes(), single.physical_bytes(), "{}", label);
                    if removals[c % removals.len()] {
                        let k = items[0].0;
                        prop_assert_eq!(many.remove(k).unwrap(), single.remove(k).unwrap());
                        stored.remove(&k);
                    }
                }
                many.flush().unwrap();
                prop_assert_eq!(many.len(), stored.len(), "{}", label);
                for b in &blobs {
                    let k = Hash256::of(b);
                    prop_assert_eq!(many.contains(k), stored.contains(&k), "{}", label);
                    if stored.contains(&k) {
                        prop_assert_eq!(many.get(k).unwrap().as_ref(), &b[..]);
                    }
                }
            }
            let physical = twins[0].1.physical_bytes();
            drop(twins);
            for (a, b) in dirs {
                let (ra, rb) = (CaskBackend::open(&a).unwrap(), CaskBackend::open(&b).unwrap());
                prop_assert_eq!(ra.len(), rb.len());
                prop_assert_eq!(ra.physical_bytes(), physical);
                prop_assert_eq!(rb.physical_bytes(), physical);
                drop((ra, rb));
                let _ = std::fs::remove_dir_all(&a);
                let _ = std::fs::remove_dir_all(&b);
            }
        }
    }

    /// A trait-level crash point fails `put_many` at the same put as the
    /// loop, with the same prefix stored (the default `put_many` is the
    /// loop, and `FaultBackend` counts puts exactly as before).
    #[test]
    fn fault_backend_put_many_fails_where_the_loop_does() {
        let blobs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 10]).collect();
        let items: Vec<(Hash256, &[u8])> = blobs.iter().map(|b| (Hash256::of(b), &b[..])).collect();
        for crash_at in 1..=items.len() as u64 {
            let (a, b) = (Arc::new(MemBackend::new()), Arc::new(MemBackend::new()));
            let many = FaultBackend::new(a.clone(), crash_at);
            let single = FaultBackend::new(b.clone(), crash_at);
            assert!(many.put_many(&items).is_err());
            assert!(items.iter().any(|&(k, d)| single.put(k, d).is_err()));
            assert_eq!((many.puts(), a.len()), (single.puts(), b.len()));
            assert_eq!(a.len() as u64, crash_at - 1);
        }
    }

    /// Counted, not timed: N small blobs through `ChunkStore` on a
    /// pool-mode cask cost at most one group-commit fsync each, and the
    /// flush none — a blob is one group in one segment — and
    /// exactly the appends (and bytes) of the per-key path on the same
    /// input.
    #[test]
    fn a_blob_is_one_group_commit() {
        /// The per-key path: the trait's default `put_many`.
        struct PerKey(Arc<CaskBackend>);
        impl StorageBackend for PerKey {
            fn put(&self, key: Hash256, data: &[u8]) -> mlcask::storage::errors::Result<bool> {
                self.0.put(key, data)
            }
            fn get(
                &self,
                key: Hash256,
            ) -> mlcask::storage::errors::Result<mlcask::storage::backend::Bytes> {
                self.0.get(key)
            }
            fn contains(&self, key: Hash256) -> bool {
                self.0.contains(key)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn physical_bytes(&self) -> u64 {
                self.0.physical_bytes()
            }
            fn keys(&self) -> Vec<Hash256> {
                self.0.keys()
            }
            fn remove(&self, key: Hash256) -> mlcask::storage::errors::Result<Option<u64>> {
                self.0.remove(key)
            }
            fn flush(&self) -> mlcask::storage::errors::Result<()> {
                self.0.flush()
            }
        }

        const N: u64 = 24;
        let blob = |i: u64| -> Vec<u8> {
            (0..200 + 40 * (i % 7))
                .map(|j| (i * 977 + j).wrapping_mul(2654435761).to_le_bytes()[1])
                .collect()
        };
        let (da, db) = (temp_dir("group-a"), temp_dir("group-b"));
        let opts = CaskOptions {
            shards: SHARDS,
            ..CaskOptions::default()
        };
        let grouped = Arc::new(CaskBackend::open_with(&da, opts.clone()).unwrap());
        let per_key = Arc::new(CaskBackend::open_with(&db, opts).unwrap());
        let store_a = ChunkStore::new(
            grouped.clone(),
            ChunkParams::SMALL,
            StorageCostModel::FORKBASE,
        );
        let store_b = ChunkStore::new(
            Arc::new(PerKey(per_key.clone())),
            ChunkParams::SMALL,
            StorageCostModel::FORKBASE,
        );
        for i in 0..N {
            // Every third blob repeats an earlier one: the all-duplicate path.
            let data = blob(if i % 3 == 2 { i - 1 } else { i });
            let a = store_a.put_blob(ObjectKind::Output, &data).unwrap();
            let b = store_b.put_blob(ObjectKind::Output, &data).unwrap();
            assert_eq!(a.object, b.object);
            assert_eq!(a.physical_bytes, b.physical_bytes);
        }
        store_a.flush().unwrap();
        store_b.flush().unwrap();
        assert!(
            grouped.sync_count() <= N,
            "{} fsyncs for {N} blobs",
            grouped.sync_count()
        );
        assert_eq!(grouped.append_count(), per_key.append_count());
        assert_eq!(grouped.len(), per_key.len());
        assert_eq!(grouped.physical_bytes(), per_key.physical_bytes());
        drop((store_a, store_b, grouped, per_key));
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }
}

// ---------------------------------------------------------------------------
// Blob-cache properties: the cache is a pure read-through tier keyed by
// content hash — it may change *where* bytes come from, never *what* they
// are. Presence-after-remove is its only staleness hazard, so these
// properties hammer exactly that seam: randomized interleavings against an
// uncached twin, removal after warming, and fault-injected crashes.
// ---------------------------------------------------------------------------

mod cache_props {
    use super::*;
    use mlcask::storage::cask::CaskBackend as Cask;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const SHARDS: usize = 4;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mlcask-cacheprop-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deliberately tiny cache so randomized workloads actually evict.
    fn small_cache() -> CacheOptions {
        CacheOptions {
            capacity_bytes: 16 * 1024,
            shards: 2,
        }
    }

    fn cask_store(dir: &std::path::Path, cache: Option<CacheOptions>) -> ChunkStore {
        let be =
            Arc::new(Cask::open_with(dir, CaskOptions::synchronous().with_shards(SHARDS)).unwrap());
        ChunkStore::with_cache(be, ChunkParams::SMALL, StorageCostModel::FORKBASE, cache)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same randomized put/get/sweep/compact interleaving on a
        /// cached and an uncached cask store yields byte-identical reads,
        /// identical read failures, and identical storage statistics.
        #[test]
        fn prop_cache_on_off_interleaving_identity(
            sels in proptest::collection::vec(any::<u8>(), 1..20),
            datas in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..512), 20
            ),
        ) {
            let d_off = temp_dir("ixl-off");
            let d_on = temp_dir("ixl-on");
            let off = cask_store(&d_off, None);
            let on = cask_store(&d_on, Some(small_cache()));
            let mut refs: Vec<ObjectRef> = Vec::new();
            let mut live: Vec<ObjectRef> = Vec::new();
            for (sel, data) in sels.iter().zip(&datas) {
                match sel % 4 {
                    0 | 1 => {
                        let a = off.put_blob(ObjectKind::Output, data).unwrap();
                        let b = on.put_blob(ObjectKind::Output, data).unwrap();
                        prop_assert_eq!(a.object, b.object);
                        refs.push(a.object);
                        live.push(a.object);
                    }
                    2 => {
                        // Read any ref ever seen — live or already swept.
                        if refs.is_empty() {
                            continue;
                        }
                        let r = &refs[*sel as usize % refs.len()];
                        match (off.get_blob(r), on.get_blob(r)) {
                            (Ok(x), Ok(y)) => prop_assert_eq!(x.as_ref(), y.as_ref()),
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(
                                false,
                                "cache changed get outcome: off_ok={} on_ok={}",
                                a.is_ok(),
                                b.is_ok()
                            ),
                        }
                    }
                    _ => {
                        // Sweep one blob out of the live set (removal +
                        // compaction on both stores).
                        if live.is_empty() {
                            continue;
                        }
                        live.remove(*sel as usize % live.len());
                        let roots: Vec<Hash256> = live.iter().map(|r| r.id).collect();
                        let ra = off.sweep_orphans(roots.clone()).unwrap();
                        let rb = on.sweep_orphans(roots).unwrap();
                        prop_assert_eq!(ra.removed_objects, rb.removed_objects);
                        prop_assert_eq!(ra.removed_bytes, rb.removed_bytes);
                    }
                }
            }
            // Final sweep of the read surface: every live blob byte-exact,
            // and the determinism-visible statistics agree.
            for r in &live {
                let a = off.get_blob(r).unwrap();
                let b = on.get_blob(r).unwrap();
                prop_assert_eq!(a.as_ref(), b.as_ref());
            }
            prop_assert_eq!(
                serde_json::to_string(&off.stats()).unwrap(),
                serde_json::to_string(&on.stats()).unwrap()
            );
            drop(off);
            drop(on);
            let _ = std::fs::remove_dir_all(&d_off);
            let _ = std::fs::remove_dir_all(&d_on);
        }

        /// Warm the cache, sweep a blob away, re-read: the removed bytes
        /// must never be served from memory, survivors stay byte-exact,
        /// and re-archiving the same content reads back correctly.
        #[test]
        fn prop_no_stale_bytes_after_remove(
            raw in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..256), 2..8
            ),
            victim_sel in any::<u8>(),
        ) {
            // Distinct contents only: sweeping a duplicate would keep it
            // live through its twin's root.
            let mut seen = HashSet::new();
            let blobs: Vec<&Vec<u8>> =
                raw.iter().filter(|b| seen.insert(Hash256::of(b))).collect();
            prop_assume!(blobs.len() >= 2);

            let dir = temp_dir("stale");
            let store = cask_store(&dir, Some(small_cache()));
            let refs: Vec<ObjectRef> = blobs
                .iter()
                .map(|b| store.put_blob(ObjectKind::Output, b).unwrap().object)
                .collect();
            // Warm every manifest and chunk into the cache.
            for (r, b) in refs.iter().zip(&blobs) {
                prop_assert_eq!(store.get_blob(r).unwrap().as_ref(), &b[..]);
            }
            let victim = victim_sel as usize % refs.len();
            let roots: Vec<Hash256> = refs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, r)| r.id)
                .collect();
            store.sweep_orphans(roots).unwrap();

            prop_assert!(
                store.get_blob(&refs[victim]).is_err(),
                "removed blob served from the warm cache"
            );
            for (i, (r, b)) in refs.iter().zip(&blobs).enumerate() {
                if i != victim {
                    prop_assert_eq!(store.get_blob(r).unwrap().as_ref(), &b[..]);
                }
            }
            // Re-archiving the identical content must serve fresh, correct
            // bytes — not a ghost of the invalidated entry.
            let again = store
                .put_blob(ObjectKind::Output, blobs[victim])
                .unwrap()
                .object;
            prop_assert_eq!(
                store.get_blob(&again).unwrap().as_ref(),
                &blobs[victim][..]
            );
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A seeded mid-run crash under a warm cache, then a real reopen: a
        /// freshly-cached store and an uncached store over the recovered
        /// backend agree on every object's survival and bytes — including
        /// the cache's hit path (second read).
        #[test]
        fn prop_crash_reopen_cache_coherent(
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..256), 2..8
            ),
            seed in any::<u64>(),
        ) {
            let dir = temp_dir("crash");
            let mut written: Vec<(ObjectRef, Vec<u8>)> = Vec::new();
            {
                let be = Arc::new(
                    Cask::open_with(
                        &dir,
                        CaskOptions::synchronous().with_shards(SHARDS).with_fault(FaultPlan::seeded(seed, 24)),
                    )
                    .unwrap(),
                );
                let store = ChunkStore::with_cache(
                    be,
                    ChunkParams::SMALL,
                    StorageCostModel::FORKBASE,
                    Some(small_cache()),
                );
                for b in &blobs {
                    let Ok(out) = store.put_blob(ObjectKind::Output, b) else {
                        break; // the injected crash: backend is down
                    };
                    written.push((out.object, b.clone()));
                    // Warm read — may also hit the crash; must not panic.
                    let _ = store.get_blob(&out.object);
                }
            }

            // Real reopen: torn-tail truncation runs. Two views over the
            // same recovered backend, cache on and off.
            let be = Arc::new(Cask::open(&dir).unwrap());
            let cached = ChunkStore::with_cache(
                be.clone(),
                ChunkParams::SMALL,
                StorageCostModel::FORKBASE,
                Some(small_cache()),
            );
            let uncached = ChunkStore::with_cache(
                be,
                ChunkParams::SMALL,
                StorageCostModel::FORKBASE,
                None,
            );
            for (r, b) in &written {
                let plain = uncached.get_blob(r);
                let first = cached.get_blob(r);
                let second = cached.get_blob(r); // hit path
                match (plain, first, second) {
                    (Ok(x), Ok(y), Ok(z)) => {
                        prop_assert_eq!(x.as_ref(), &b[..]);
                        prop_assert_eq!(y.as_ref(), &b[..]);
                        prop_assert_eq!(z.as_ref(), &b[..]);
                    }
                    (Err(_), Err(_), Err(_)) => {}
                    (p, f, s) => prop_assert!(
                        false,
                        "cache changed survival outcome: plain={} first={} second={}",
                        p.is_ok(),
                        f.is_ok(),
                        s.is_ok()
                    ),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// What the cache is for, in segment disk reads: a loop that re-reads
    /// the same blobs from a cask pays for every round without the cache
    /// and for the first round only with it.
    #[test]
    fn reread_loop_hits_the_cache_and_halves_cask_disk_reads() {
        const ROUNDS: usize = 4;
        let dir = temp_dir("reread");
        let be = Arc::new(
            Cask::open_with(&dir, CaskOptions::synchronous().with_shards(SHARDS)).unwrap(),
        );
        let store = |cache| {
            ChunkStore::with_cache(
                be.clone(),
                ChunkParams::SMALL,
                StorageCostModel::FORKBASE,
                cache,
            )
        };
        let uncached = store(None);
        let refs: Vec<ObjectRef> = (0..24u32)
            .map(|i| {
                let blob: Vec<u8> = (0..2048u32)
                    .map(|j| (i * 2048 + j).wrapping_mul(2654435761).to_le_bytes()[3])
                    .collect();
                uncached
                    .put_blob(ObjectKind::Library, &blob)
                    .unwrap()
                    .object
            })
            .collect();
        uncached.flush().unwrap();
        let disk_reads = |store: &ChunkStore| {
            let before = be.read_ops();
            for _ in 0..ROUNDS {
                for r in &refs {
                    assert_eq!(store.get_blob(r).unwrap().len() as u64, r.len);
                }
            }
            be.read_ops() - before
        };
        let cold = disk_reads(&uncached);
        let cached = store(Some(CacheOptions::default()));
        let warm = disk_reads(&cached);
        assert!(
            cached.cache_stats().unwrap().hits > 0,
            "the cache served hits"
        );
        assert!(
            cold > 0 && warm * 2 <= cold,
            "cached re-reads cost {warm} disk reads, uncached {cold}"
        );
        drop((uncached, cached, be));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Artifacts written through the executor can always be recovered from the
/// store and decode to the identical artifact.
#[test]
fn executor_outputs_recoverable() {
    let workload = by_name("autolearn").unwrap();
    let (_registry, sys) = build_system(&workload).unwrap();
    let clock = ClockLedger::new();
    let res = sys
        .commit_pipeline("master", &workload.initial, "init", &clock)
        .unwrap();
    for stage in &res.report.stages {
        let bytes = sys.store().get_blob(&stage.output).unwrap();
        let artifact = mlcask::pipeline::artifact::Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(artifact.content_id(), stage.artifact_id);
        assert_eq!(bytes.len() as u64, stage.artifact_bytes);
    }
}
