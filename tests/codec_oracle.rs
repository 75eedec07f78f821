//! The codec oracle: for every derived (or hand-written) `Serialize` that
//! reaches the store or the wire, `write_json` — the direct writer the
//! derive generates — must produce exactly the bytes of rendering the value
//! tree, `serde::write_value(to_value())`. Metafile and artifact bytes are
//! content-addressed, so one byte of drift moves every commit id; the tree
//! stays as the oracle (and as the path for `Value` replies).
//!
//! Values are drawn to hit what an encoding can get wrong: strings that
//! need escaping (quotes, backslashes, C0 controls, every UTF-8 width),
//! non-finite floats (rendered `null`), `-0.0`, widened `f32`s, integer
//! extremes, empty and absent containers.

use mlcask::core::merge::{MergeSearchReport, MergeStrategy};
use mlcask::core::system::{CommitResult, MergeOutcome};
use mlcask::ml::metrics::{MetricKind, Score};
use mlcask::ml::tensor::Matrix;
use mlcask::ml::zernike::Image;
use mlcask::pipeline::artifact::{
    Artifact, ArtifactData, Cell, Docs, Features, ImageSet, ModelArtifact, SequenceSet, Table,
};
use mlcask::pipeline::clock::ClockSnapshot;
use mlcask::pipeline::component::{ComponentKey, StageKind};
use mlcask::pipeline::executor::{CacheKey, CachedOutput, RunOutcome, RunReport, StageReport};
use mlcask::pipeline::metafile::{
    DatasetMetafile, LibraryMetafile, PipelineMetafile, PipelineSlot,
};
use mlcask::pipeline::replay::StageProfile;
use mlcask::pipeline::resume::ResumeEntry;
use mlcask::pipeline::schema::{Schema, SchemaId};
use mlcask::pipeline::semver::SemVer;
use mlcask::storage::commit::Commit;
use mlcask::storage::hash::Hash256;
use mlcask::storage::object::{ObjectKind, ObjectRef};
use mlcask::storage::store::{PutTrace, WriteObs};
use mlcask::storage::tenant::TenantUsage;
use mlcask_server::reply::{CommitReply, CommitResultReply, MergeReply, SessionReply, UsageReply};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;

/// `write_json` (directly and through `serde_json`) against the tree.
fn assert_matches_tree<T: Serialize>(value: &T) {
    let mut tree = String::new();
    serde::write_value(&mut tree, &value.to_value(), None, 0);
    let mut direct = String::new();
    value.write_json(&mut direct);
    assert_eq!(direct, tree);
    assert_eq!(serde_json::to_string(value).unwrap(), tree);
    assert_eq!(serde_json::to_vec(value).unwrap(), tree.as_bytes());
}

/// Characters the writer treats specially, their neighbours, and text of
/// every UTF-8 width.
const PALETTE: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    ' ',
    'a',
    'u',
    '\u{7f}',
    '\u{80}',
    'é',
    '漢',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn text(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| match self.below(PALETTE.len() + 3) {
                i if i < PALETTE.len() => PALETTE[i],
                _ => char::from_u32(self.0.gen_range(0u32..0x11_0000)).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    fn f64(&mut self) -> f64 {
        match self.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MAX,
            5 => f64::from_bits(self.0.gen()),
            _ => self.0.gen::<f64>() * 10.0 - 5.0,
        }
    }

    fn f32(&mut self) -> f32 {
        match self.below(6) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => -0.0,
            3 => f32::from_bits(self.0.gen()),
            _ => self.0.gen::<f32>() - 0.5,
        }
    }

    fn u64(&mut self) -> u64 {
        self.0.gen::<u64>() >> self.0.gen_range(0u32..64)
    }

    fn i64(&mut self) -> i64 {
        match self.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => self.0.gen::<i64>() >> self.0.gen_range(0u32..64),
        }
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }

    fn hash(&mut self) -> Hash256 {
        Hash256::of(&self.0.gen::<u64>().to_le_bytes())
    }

    fn semver(&mut self) -> SemVer {
        SemVer {
            branch: self.text(),
            schema: self.0.gen(),
            increment: self.0.gen(),
        }
    }

    fn component(&mut self) -> ComponentKey {
        ComponentKey {
            name: self.text(),
            version: self.semver(),
        }
    }

    fn object(&mut self) -> ObjectRef {
        const KINDS: [ObjectKind; 5] = [
            ObjectKind::Dataset,
            ObjectKind::Library,
            ObjectKind::Pipeline,
            ObjectKind::Output,
            ObjectKind::Model,
        ];
        ObjectRef {
            id: self.hash(),
            kind: KINDS[self.below(KINDS.len())],
            len: self.u64(),
        }
    }

    fn score(&mut self) -> Score {
        const KINDS: [MetricKind; 4] = [
            MetricKind::Accuracy,
            MetricKind::Mse,
            MetricKind::Auc,
            MetricKind::F1,
        ];
        Score {
            kind: KINDS[self.below(KINDS.len())],
            raw: self.f64(),
            value: self.f64(),
        }
    }

    fn schema(&mut self) -> Schema {
        match self.below(6) {
            0 => Schema::Relational {
                columns: self.vec(3, Gen::text),
            },
            1 => Schema::FeatureMatrix {
                dim: self.0.gen(),
                n_classes: self.0.gen(),
            },
            2 => Schema::TextCorpus {
                vocab_size: self.0.gen(),
            },
            3 => Schema::ImageSet {
                side: self.0.gen(),
                n_classes: self.0.gen(),
            },
            4 => Schema::Sequences {
                n_symbols: self.0.gen(),
                n_classes: self.0.gen(),
            },
            _ => Schema::Model {
                family: self.text(),
            },
        }
    }

    fn schema_id(&mut self) -> SchemaId {
        SchemaId(self.hash())
    }

    fn stage(&mut self) -> StageKind {
        [
            StageKind::Ingest,
            StageKind::PreProcess,
            StageKind::ModelTraining,
        ][self.below(3)]
    }

    fn pipeline_metafile(&mut self) -> PipelineMetafile {
        PipelineMetafile {
            name: self.text(),
            label: self.text(),
            slots: self.vec(4, |g| PipelineSlot {
                component: g.component(),
                output: g.object(),
                artifact_id: g.hash(),
            }),
            edges: self.vec(4, |g| (g.text(), g.text())),
            score: self.0.gen::<bool>().then(|| self.score()),
        }
    }

    fn library_metafile(&mut self) -> LibraryMetafile {
        LibraryMetafile {
            name: self.text(),
            version: self.semver(),
            stage: self.stage(),
            entry_point: self.text(),
            input_schema: self.0.gen::<bool>().then(|| self.schema_id()),
            output_schema: self.schema_id(),
            hyperparams: self
                .vec(4, |g| (g.text(), g.text()))
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            executable: self.object(),
        }
    }

    fn dataset_metafile(&mut self) -> DatasetMetafile {
        DatasetMetafile {
            name: self.text(),
            version: self.semver(),
            schema: self.schema(),
            data: self.object(),
            description: self.text(),
        }
    }

    fn artifact_data(&mut self) -> ArtifactData {
        match self.below(6) {
            0 => {
                let columns = self.vec(3, Gen::text);
                let width = columns.len();
                let rows = self.vec(3, |g| {
                    (0..width)
                        .map(|_| match g.below(4) {
                            0 => Cell::Null,
                            1 => Cell::F(g.f32()),
                            2 => Cell::I(g.i64()),
                            _ => Cell::S(g.text()),
                        })
                        .collect()
                });
                ArtifactData::Table(Table::new(columns, rows))
            }
            1 => ArtifactData::Docs(Docs {
                docs: self.vec(3, |g| g.vec(3, Gen::text)),
                labels: self.vec(4, |g| g.0.gen()),
                vocab_size: self.0.gen(),
            }),
            2 => ArtifactData::Images(ImageSet {
                images: self.vec(2, |g| {
                    let side = g.below(3);
                    Image::new(side, (0..side * side).map(|_| g.f32()).collect())
                }),
                labels: self.vec(4, |g| g.0.gen()),
                n_classes: self.0.gen(),
            }),
            3 => {
                let (rows, cols) = (self.below(3), self.below(3));
                ArtifactData::Features(Features {
                    x: Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.f32()).collect()),
                    y: self.vec(4, |g| g.0.gen()),
                    n_classes: self.0.gen(),
                })
            }
            4 => ArtifactData::Sequences(SequenceSet {
                seqs: self.vec(3, |g| g.vec(4, |g| g.0.gen())),
                labels: self.vec(4, |g| g.0.gen()),
                n_symbols: self.0.gen(),
                n_classes: self.0.gen(),
            }),
            _ => ArtifactData::Model(ModelArtifact {
                family: self.text(),
                blob: self.vec(8, |g| g.0.gen()),
                score: self.score(),
            }),
        }
    }

    fn write_obs(&mut self) -> WriteObs {
        WriteObs {
            hash: self.hash(),
            len: self.u64(),
            was_new: self.0.gen(),
        }
    }

    fn put_trace(&mut self) -> PutTrace {
        PutTrace {
            kind: self.object().kind,
            logical: self.u64(),
            chunks: self.vec(4, Gen::write_obs),
            manifest: self.write_obs(),
            reservation: None,
        }
    }

    fn commit(&mut self) -> Commit {
        Commit {
            id: self.hash(),
            parents: self.vec(2, Gen::hash),
            branch: self.text(),
            seq: self.0.gen(),
            payload: self.hash(),
            message: self.text(),
            tick: self.u64(),
        }
    }

    fn commit_result(&mut self) -> CommitResult {
        CommitResult {
            commit: self.0.gen::<bool>().then(|| self.commit()),
            report: RunReport {
                stages: self.vec(4, |g| StageReport {
                    component: g.component(),
                    stage: g.stage(),
                    reused: g.0.gen(),
                    exec_ns: g.u64(),
                    storage_ns: g.u64(),
                    output: g.object(),
                    artifact_id: g.hash(),
                    artifact_bytes: g.u64(),
                }),
                outcome: RunOutcome::RejectedByPrecheck {
                    at: self.component(),
                },
                clock: ClockSnapshot::default(),
            },
        }
    }

    fn merge_outcome(&mut self) -> MergeOutcome {
        let mut count = || self.u64() as usize;
        let search = MergeSearchReport {
            strategy: MergeStrategy::Full,
            candidates_total: count(),
            candidates_evaluated: count(),
            candidates_pruned: count(),
            state_counts: Default::default(),
            executed_components: count(),
            reused_components: count(),
            skipped_by_frontier: count(),
            failed_candidates: count(),
            best: None,
            candidates: Vec::new(),
            clock: ClockSnapshot::default(),
            logical_bytes: 0,
            physical_bytes: 0,
        };
        MergeOutcome {
            commit: self.0.gen::<bool>().then(|| self.commit()),
            fast_forward: self.0.gen(),
            report: self.0.gen::<bool>().then_some(search),
        }
    }

    fn resume_entry(&mut self) -> ResumeEntry {
        ResumeEntry {
            key: CacheKey {
                component: self.component(),
                inputs: self.vec(3, Gen::hash),
            },
            profile: StageProfile {
                cached: CachedOutput {
                    object: self.object(),
                    artifact_id: self.hash(),
                    schema: self.schema_id(),
                    score: self.0.gen::<bool>().then(|| self.score()),
                },
                artifact_bytes: self.u64(),
                exec_ns: self.u64(),
                write: self.0.gen::<bool>().then(|| self.put_trace()),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The three repository metafiles (§III): what `put_meta` stores and
    /// what every commit id is computed over.
    #[test]
    fn metafiles_write_the_bytes_of_their_tree(seed in any::<u64>()) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        assert_matches_tree(&g.pipeline_metafile());
        assert_matches_tree(&g.library_metafile());
        assert_matches_tree(&g.dataset_metafile());
    }

    /// Checkpointed artifacts (their bytes are their content id) and the
    /// payload enum inside them.
    #[test]
    fn artifacts_write_the_bytes_of_their_tree(seed in any::<u64>()) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let data = g.artifact_data();
        assert_matches_tree(&data);
        let artifact = Artifact::new(data, g.schema_id());
        assert_matches_tree(&artifact);
        // `to_bytes` is the encoding every checkpoint is stored under.
        let mut tree = String::new();
        serde::write_value(&mut tree, &artifact.to_value(), None, 0);
        prop_assert_eq!(artifact.to_bytes(), tree.into_bytes());
    }

    /// The journal's records: a completed operation with its write trace
    /// (the hand-written `PutTrace` impl omits the reservation).
    #[test]
    fn journal_records_write_the_bytes_of_their_tree(seed in any::<u64>()) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        assert_matches_tree(&g.put_trace());
        assert_matches_tree(&g.resume_entry());
    }

    /// The daemon's typed replies: what a session-scoped method writes onto
    /// the response line, against the tree `Router::handle` returns.
    #[test]
    fn replies_write_the_bytes_of_their_tree(seed in any::<u64>()) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let commits = g.vec(3, Gen::commit);
        assert_matches_tree(&commits.iter().map(CommitReply).collect::<Vec<_>>());
        assert_matches_tree(&CommitResultReply(&g.commit_result()));
        assert_matches_tree(&MergeReply(&g.merge_outcome()));
        let usage = TenantUsage {
            blobs_written: g.u64(),
            logical_bytes: g.u64(),
            physical_bytes: g.u64(),
        };
        assert_matches_tree(&UsageReply(&usage));
        let tenant = g.text();
        assert_matches_tree(&SessionReply {
            session: g.u64(),
            tenant: &tenant,
        });
    }
}
