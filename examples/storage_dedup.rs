//! The ForkBase-like storage substrate on its own (paper §III / Fig. 7).
//!
//! Shows content-defined chunking and chunk-level dedup doing the work that
//! makes MLCask's library/output versioning cheap: storing near-identical
//! library versions costs only the changed bytes.
//!
//! Run with: `cargo run --release --example storage_dedup`

use mlcask::core::registry::simulated_executable;
use mlcask::prelude::*;

fn main() {
    let store = ChunkStore::in_memory();

    println!("archiving five versions of a 512 KiB library:\n");
    println!(
        "{:<10} {:>14} {:>16} {:>12}",
        "version", "logical (KiB)", "physical (KiB)", "dedup ratio"
    );
    for increment in 0..5u32 {
        let version = format!("0.{increment}");
        let payload = simulated_executable("feature_extract", &version, 512 * 1024);
        store
            .put_blob(ObjectKind::Library, &payload)
            .expect("store library");
        let t = store.stats().total();
        println!(
            "{:<10} {:>14} {:>16} {:>11.1}x",
            version,
            t.logical_bytes / 1024,
            t.physical_bytes / 1024,
            store.stats().dedup_ratio()
        );
    }

    // Git-like branching on the commit graph.
    let graph = CommitGraph::new();
    let root = graph
        .commit_root("master", Hash256::of(b"pipeline v0"), "init")
        .expect("root");
    graph.branch("master", "dev").expect("branch");
    graph
        .commit("dev", Hash256::of(b"pipeline v1"), "dev work")
        .expect("commit");
    let master_head = graph.head("master").expect("head");
    let dev_head = graph.head("dev").expect("head");
    let lca = graph
        .common_ancestor(master_head.id, dev_head.id)
        .expect("lca query")
        .expect("exists");
    println!(
        "\ncommit graph: master={} dev={} common ancestor={} (root={})",
        master_head.label(),
        dev_head.label(),
        lca.label(),
        root.label()
    );
    println!(
        "fast-forward possible: {}",
        graph
            .view()
            .is_fast_forward(master_head.id, dev_head.id)
            .unwrap()
    );
}
