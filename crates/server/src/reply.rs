//! The typed replies of the session-scoped methods and `session.open`.
//!
//! Each reply is a view over what the workspace answered — a commit, a
//! commit or merge outcome, a tenant's usage — and lists its fields once,
//! in wire order. From that one list it both writes itself onto the
//! response line ([`Serialize::write_json`], the served path) and builds the
//! tree `Router::handle` returns ([`Serialize::to_value`]); the codec
//! oracle holds the two to the same bytes.

use mlcask_core::merge::MergeSearchReport;
use mlcask_core::system::{CommitResult, MergeOutcome};
use mlcask_storage::commit::Commit;
use mlcask_storage::hash::Hash256;
use mlcask_storage::tenant::TenantUsage;
use serde::{Serialize, Value};

/// A reply object, as its fields in order. An optional field is one
/// `field` call that may not happen: it is left out, not written `null`.
trait Object {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize));
}

/// The object's tree.
fn tree(object: &dyn Object) -> Value {
    let mut pairs = Vec::new();
    object.fields(&mut |key, value| pairs.push((key.to_string(), value.to_value())));
    Value::Map(pairs)
}

/// The object written as JSON: what `serde::write_value` makes of [`tree`].
fn write(object: &dyn Object, out: &mut String) {
    out.push('{');
    let mut first = true;
    object.fields(&mut |key, value| {
        if !first {
            out.push(',');
        }
        first = false;
        key.write_json(out);
        out.push(':');
        value.write_json(out);
    });
    out.push('}');
}

macro_rules! serialize_as_object {
    ($($reply:ty),*) => {$(
        impl Serialize for $reply {
            fn to_value(&self) -> Value {
                tree(self)
            }
            fn write_json(&self, out: &mut String) {
                write(self, out)
            }
        }
    )*};
}
serialize_as_object!(
    CommitReply<'_>,
    CommitResultReply<'_>,
    MergeReply<'_>,
    SearchReply<'_>,
    UsageReply<'_>,
    SessionReply<'_>
);

/// A content id as its hex string, written without an intermediate `String`.
struct HexId<'a>(&'a Hash256);

impl Serialize for HexId<'_> {
    fn to_value(&self) -> Value {
        Value::Str(self.0.to_hex())
    }
    fn write_json(&self, out: &mut String) {
        // Hex digits need no escaping.
        out.push('"');
        self.0.push_hex(out);
        out.push('"');
    }
}

/// Content ids as an array of hex strings.
struct HexIds<'a>(&'a [Hash256]);

impl Serialize for HexIds<'_> {
    fn to_value(&self) -> Value {
        Value::Seq(self.0.iter().map(|id| HexId(id).to_value()).collect())
    }
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, id) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            HexId(id).write_json(out);
        }
        out.push(']');
    }
}

/// A commit record (`head`, `branch`, `fork`, every entry of `log`).
pub struct CommitReply<'a>(pub &'a Commit);

impl Object for CommitReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        let c = self.0;
        field("id", &HexId(&c.id));
        field("branch", &c.branch);
        field("seq", &c.seq);
        field("message", &c.message);
        field("parents", &HexIds(&c.parents));
        field("tick", &c.tick);
    }
}

/// What `commit` did: the commit, if the precheck let it land, and how many
/// stages executed and were reused.
pub struct CommitResultReply<'a>(pub &'a CommitResult);

impl Object for CommitResultReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        let r = self.0;
        field("committed", &r.commit.is_some());
        if let Some(c) = &r.commit {
            field("commit", &CommitReply(c));
        }
        field("executed", &r.report.executed_count());
        field("reused", &r.report.reused_count());
    }
}

/// What `merge` and `merge.into` did. `skipped_by_frontier` is deliberately
/// left out: it counts nodes the provenance fast path answered by lookup,
/// which the executor-only reference (`with_incremental(false)`) reports as
/// 0, and `lookup_oracle` holds served bytes to that reference.
pub struct MergeReply<'a>(pub &'a MergeOutcome);

impl Object for MergeReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        let o = self.0;
        field("committed", &o.commit.is_some());
        field("fast_forward", &o.fast_forward);
        if let Some(c) = &o.commit {
            field("commit", &CommitReply(c));
        }
        if let Some(r) = &o.report {
            field("search", &SearchReply(r));
        }
    }
}

/// A merge reply's search counts.
struct SearchReply<'a>(&'a MergeSearchReport);

impl Object for SearchReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        let r = self.0;
        field("candidates_total", &r.candidates_total);
        field("candidates_evaluated", &r.candidates_evaluated);
        field("candidates_pruned", &r.candidates_pruned);
        field("executed_components", &r.executed_components);
        field("reused_components", &r.reused_components);
        field("failed_candidates", &r.failed_candidates);
    }
}

/// A tenant's storage usage (`usage`, and each tenant of `workspace.usage`).
pub struct UsageReply<'a>(pub &'a TenantUsage);

impl Object for UsageReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        let u = self.0;
        field("blobs_written", &u.blobs_written);
        field("logical_bytes", &u.logical_bytes);
        field("physical_bytes", &u.physical_bytes);
    }
}

/// The session `session.open` opened, and its tenant.
pub struct SessionReply<'a> {
    /// Session id.
    pub session: u64,
    /// Tenant name.
    pub tenant: &'a str,
}

impl Object for SessionReply<'_> {
    fn fields(&self, field: &mut dyn FnMut(&str, &dyn Serialize)) {
        field("session", &self.session);
        field("tenant", &self.tenant);
    }
}
