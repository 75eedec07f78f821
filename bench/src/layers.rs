//! Per-layer metrics of the traced replay: spans and counts folded into
//! the names `metrics::LAYERS` lists.

use crate::metrics::Values;
use crate::script::Op;
use crate::stats::median;
use crate::trace::{self, BackendCounts, LayerCounts, Note, Span};
use crate::workloads::Rep;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// What one request's `handle` span breaks down into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Handled {
    pub op: Op,
    pub handle_ns: u64,
    /// Part of the handle interval covered by component runs.
    pub component_ns: u64,
    /// Part covered by backend calls outside component runs.
    pub backend_ns: u64,
    /// The rest: dispatch, search, executor, history, provenance, chunking,
    /// hashing, cache, graph — everything between the seams.
    pub self_ns: u64,
}

/// Breaks every noted request's `handle` span down by its children.
pub fn handled(spans: &[Span], notes: &[Note]) -> Vec<Handled> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s);
    }
    notes
        .iter()
        .filter_map(|n| {
            let h = by_id.get(&n.handle)?;
            let children = kids.get(&n.handle).map(Vec::as_slice).unwrap_or(&[]);
            let cover = |want: &dyn Fn(&str) -> bool| {
                let mut iv: Vec<(u64, u64)> = children
                    .iter()
                    .filter(|c| want(c.name))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                trace::union_ns(h.start_ns, h.end_ns, &mut iv)
            };
            let component_ns = cover(&|name| name == trace::COMPONENT);
            let covered = cover(&|_| true);
            Some(Handled {
                op: n.op,
                handle_ns: h.duration_ns(),
                component_ns,
                backend_ns: covered - component_ns,
                self_ns: h.duration_ns() - covered,
            })
        })
        .collect()
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Everything the replay contributes to the per-layer list.
pub struct ReplayInputs<'a> {
    pub spans: &'a [Span],
    pub notes: &'a [Note],
    /// The replay's own repetition (replies, merge counters, byte counts).
    pub rep: &'a Rep,
    pub backend: &'a BackendCounts,
    pub counts: LayerCounts,
    /// Probe throughputs, for the chunk + hash estimate.
    pub sha256_mib_per_s: f64,
    pub chunk_mib_per_s: f64,
}

/// The in-situ per-layer metrics. Span-derived ones cover the measured
/// requests only; the layers' own counters (`storage.store.*_bytes`,
/// `storage.backend.*_calls/_bytes`, `storage.cask.*`, `storage.cache.*`)
/// run for an instance's whole life, warm-up episode included.
pub fn replay_values(r: &ReplayInputs) -> Values {
    let mut out = Values::new();
    let first = r.rep.first_measured_id;
    let spans: Vec<Span> = r.spans.iter().filter(|s| s.req >= first).copied().collect();
    let notes: Vec<Note> = r.notes.iter().filter(|n| n.req >= first).copied().collect();
    let reqs = handled(&spans, &notes);
    let n = reqs.len().max(1) as f64;
    let total_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let tallies = [&r.rep.measured, &r.rep.quiet];

    out.insert(
        "server.protocol.parse_ns_per_req",
        total_ns(trace::PARSE) / n,
    );
    out.insert(
        "server.protocol.render_ns_per_req",
        total_ns(trace::RENDER) / n,
    );
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    out.insert(
        "server.protocol.bytes_in_per_req",
        tallies.iter().map(|t| t.bytes_in).sum::<u64>() as f64 / attempted.max(1) as f64,
    );
    out.insert(
        "server.protocol.bytes_out_per_req",
        tallies.iter().map(|t| t.bytes_out).sum::<u64>() as f64 / attempted.max(1) as f64,
    );
    out.insert(
        "server.service.read_handle_p50_us",
        p50(reqs
            .iter()
            .filter(|q| q.op == Op::Read)
            .map(|q| q.handle_ns as f64 / 1e3)),
    );
    out.insert(
        "server.service.handle_busy_s",
        total_ns(trace::HANDLE) / 1e9,
    );
    out.insert("server.service.requests", reqs.len() as f64);
    out.insert(
        "server.service.rejected",
        tallies.iter().map(|t| t.refused).sum::<u64>() as f64,
    );

    out.insert(
        "core.system.commit_overhead_us_p50",
        p50(reqs
            .iter()
            .filter(|q| q.op == Op::Commit)
            .map(|q| q.self_ns as f64 / 1e3)),
    );
    // Merges in the order they ran: the first and the last tenth show what
    // a growing history adds to the search's own time.
    let merge_ms: Vec<f64> = reqs
        .iter()
        .filter(|q| q.op == Op::Merge)
        .map(|q| q.self_ns as f64 / 1e6)
        .collect();
    let decile = merge_ms.len().div_ceil(10);
    out.insert(
        "core.merge.search_overhead_ms_p50",
        median(&merge_ms).unwrap_or(0.0),
    );
    out.insert(
        "core.merge.overhead_ms_first_decile",
        median(&merge_ms[..decile]).unwrap_or(0.0),
    );
    out.insert(
        "core.merge.overhead_ms_last_decile",
        median(&merge_ms[merge_ms.len() - decile..]).unwrap_or(0.0),
    );
    let mut search = crate::check::SearchCounts::default();
    for c in tallies
        .iter()
        .flat_map(|t| &t.merges)
        .filter_map(|m| m.counts)
    {
        search.total += c.total;
        search.evaluated += c.evaluated;
        search.pruned += c.pruned;
        search.executed += c.executed;
        search.reused += c.reused;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.insert("core.merge.candidates_evaluated", search.evaluated as f64);
    out.insert("core.merge.candidates_pruned", search.pruned as f64);
    out.insert("core.merge.executed_components", search.executed as f64);
    out.insert("core.merge.reused_components", search.reused as f64);
    out.insert(
        "core.merge.reuse_ratio",
        ratio(search.reused, search.reused + search.executed),
    );
    out.insert("core.merge.prune_ratio", ratio(search.pruned, search.total));

    // Write requests: what the handle time is made of, and what is left
    // once the probe-rate estimate of chunking + hashing the bytes written
    // is taken off the self time.
    let writes: Vec<&Handled> = reqs.iter().filter(|q| q.op != Op::Read).collect();
    let write_ns: f64 = writes.iter().map(|q| q.handle_ns as f64).sum();
    let write_self_ns: f64 = writes.iter().map(|q| q.self_ns as f64).sum();
    let written_mib = r.rep.written_logical_bytes as f64 / (1024.0 * 1024.0);
    let chunk_hash_ns = written_mib * (1.0 / r.sha256_mib_per_s + 1.0 / r.chunk_mib_per_s) * 1e9;
    out.insert(
        "core.unattributed_share",
        if write_ns > 0.0 {
            (write_self_ns - chunk_hash_ns).max(0.0) / write_ns
        } else {
            0.0
        },
    );
    out.insert("ml.components.busy_s", total_ns(trace::COMPONENT) / 1e9);
    out.insert("ml.components.runs", count(trace::COMPONENT));
    out.insert(
        "ml.components.share_of_handle",
        if write_ns > 0.0 {
            writes.iter().map(|q| q.component_ns as f64).sum::<f64>() / write_ns
        } else {
            0.0
        },
    );

    out.insert(
        "storage.store.logical_bytes",
        r.counts.store_logical_bytes as f64,
    );
    out.insert(
        "storage.store.physical_bytes",
        r.counts.store_physical_bytes as f64,
    );
    let b = r.backend;
    out.insert(
        "storage.backend.put_calls",
        b.put_calls.load(Ordering::Relaxed) as f64,
    );
    out.insert(
        "storage.backend.put_bytes",
        b.put_bytes.load(Ordering::Relaxed) as f64,
    );
    out.insert(
        "storage.backend.put_busy_s",
        total_ns(trace::BACKEND_PUT) / 1e9,
    );
    out.insert(
        "storage.backend.get_calls",
        b.get_calls.load(Ordering::Relaxed) as f64,
    );
    out.insert(
        "storage.backend.get_bytes",
        b.get_bytes.load(Ordering::Relaxed) as f64,
    );
    out.insert(
        "storage.backend.get_busy_s",
        total_ns(trace::BACKEND_GET) / 1e9,
    );
    out.insert(
        "storage.backend.contains_calls",
        b.contains_calls.load(Ordering::Relaxed) as f64,
    );
    out.insert(
        "storage.cask.fsyncs_per_append",
        ratio(r.counts.cask_fsyncs, r.counts.cask_appends),
    );
    out.insert(
        "storage.cask.disk_bytes_per_payload_byte",
        ratio(r.counts.cask_file_bytes, r.counts.cask_payload_bytes),
    );
    out.insert(
        "storage.cache.hit_rate",
        ratio(
            r.counts.cache_hits,
            r.counts.cache_hits + r.counts.cache_misses,
        ),
    );
    out.insert("storage.cache.evictions", r.counts.cache_evictions as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_time_splits_into_component_backend_and_self() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, trace::HANDLE, 0, 1000),
            span(2, 1, trace::COMPONENT, 100, 400),
            // A backend call inside the component run is the component's.
            span(3, 1, trace::BACKEND_PUT, 350, 450),
            span(4, 1, trace::BACKEND_GET, 600, 650),
            span(5, 0, trace::HANDLE, 2000, 2100),
        ];
        let notes = [
            Note {
                handle: 1,
                req: 1,
                op: Op::Commit,
                method: "commit",
            },
            Note {
                handle: 5,
                req: 2,
                op: Op::Read,
                method: "head",
            },
        ];
        let h = handled(&spans, &notes);
        assert_eq!(
            h[0],
            Handled {
                op: Op::Commit,
                handle_ns: 1000,
                component_ns: 300,
                backend_ns: 100,
                self_ns: 600
            }
        );
        assert_eq!(
            h[1],
            Handled {
                op: Op::Read,
                handle_ns: 100,
                component_ns: 0,
                backend_ns: 0,
                self_ns: 100
            }
        );
    }
}
