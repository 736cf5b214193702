//! Durable serving state: the on-disk checkpoint of the expander, WAL
//! ingest-op payloads, and crash recovery.
//!
//! The durability protocol (mechanisms in `taxo-wal`, policy here):
//!
//! * Every acknowledged ingest batch is first appended to
//!   `<dir>/wal.log` as one CRC32-framed JSON payload carrying the
//!   *wire* records — replay resolves terms against the vocabulary
//!   exactly like the live ingest path, so matched/skipped outcomes are
//!   identical.
//! * At bind, after every commit group that carries the version across
//!   a multiple of `snapshot_every`, and at graceful shutdown, the
//!   expander's durable state — the taxonomy edge set, the accumulated
//!   candidate-pair store, and the batch counter — is written to
//!   `<dir>/state.json` with one atomic rename, together with its
//!   version and the WAL offset it covers. The ingest thread checkpoints
//!   only after applying a whole commit group, so the expander then
//!   holds every op in the WAL and the WAL's end is the right offset.
//! * [`recover`] loads the state file, truncates any torn final WAL
//!   record, replays the WAL from the state's offset through a fresh
//!   [`IncrementalExpander`], and returns a state bit-identical in
//!   serving behavior to the pre-crash server (scoring is pure; the
//!   taxonomy matters only as an edge set; pairs are order-normalized).
//!
//! `f32` never appears in the durable artifacts: scores are *recomputed*
//! from the frozen detector, which is the strongest form of bit-identity
//! the workspace's shortest-round-trip JSON numbers already guarantee.

use crate::protocol::IngestRecord;
use std::path::Path;
use std::time::Duration;
use taxo_core::json::{self, ObjWriter, Value};
use taxo_core::{ConceptId, TaxoError, Taxonomy, Vocabulary};
use taxo_expand::{
    CandidatePair, ExpanderState, ExpansionConfig, HypoDetector, IncrementalExpander,
};
use taxo_obs::{counter, gauge, span};
use taxo_synth::ClickRecord;
use taxo_wal::WalError;

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// State file name inside a durability directory: the latest
/// checkpoint, replaced in place by each one.
pub const STATE_FILE: &str = "state.json";

/// Fault point consulted before each WAL frame append (`short:<n>`
/// produces a physically torn final record).
pub const FAULT_APPEND: &str = "serve.wal.append";
/// Fault point consulted before each WAL fsync.
pub const FAULT_FSYNC: &str = "serve.wal.fsync";
/// Fault point consulted before each checkpoint write.
pub const FAULT_SNAPSHOT: &str = "serve.wal.snapshot";

const STATE_FORMAT: &str = "taxo-serve-state-v2";
const OP_FORMAT: &str = "taxo-serve-ingest-v1";

/// When the WAL fsync that gates ingest acks happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FsyncPolicy {
    /// One fsync per ingest batch, before its ack — maximum durability,
    /// one disk barrier per request.
    Always,
    /// Group commit: collect up to `max_ops` queued batches (waiting at
    /// most `max_delay` for stragglers), append them all, fsync once,
    /// then ack all of them. Amortizes the barrier without ever acking
    /// an unsynced batch.
    Batch { max_ops: usize, max_delay: Duration },
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Batch {
            max_ops: 16,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Whether (and how) a server persists ingested state.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DurabilityConfig {
    /// No persistence — the pre-durability behavior: a restart forgets
    /// every ingested batch.
    #[default]
    Volatile,
    /// Append-before-ack WAL plus a periodic checkpoint in `dir`.
    Wal {
        dir: std::path::PathBuf,
        fsync: FsyncPolicy,
        /// Checkpoint after each commit group that carries the version
        /// across a multiple of N. `1` checkpoints after every group;
        /// higher values lean on WAL replay for the tail.
        snapshot_every: u64,
    },
}

impl DurabilityConfig {
    /// A WAL configuration with the default fsync policy and checkpoint
    /// cadence.
    pub fn wal(dir: impl Into<std::path::PathBuf>) -> Self {
        DurabilityConfig::Wal {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_every: 8,
        }
    }

    /// Field-named validation (same discipline as `ServeConfig`).
    pub fn validate(&self) -> Result<(), TaxoError> {
        if let DurabilityConfig::Wal {
            fsync,
            snapshot_every,
            ..
        } = self
        {
            if let FsyncPolicy::Batch { max_ops, .. } = fsync {
                if *max_ops == 0 {
                    return Err(TaxoError::invalid_config(
                        "durability.fsync.max_ops",
                        "must be at least 1",
                    ));
                }
            }
            if *snapshot_every == 0 {
                return Err(TaxoError::invalid_config(
                    "durability.snapshot_every",
                    "must be at least 1",
                ));
            }
        }
        Ok(())
    }
}

/// What [`recover`] found and rebuilt.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Version of the checkpoint in the state file.
    pub snapshot_version: u64,
    /// WAL operations replayed on top of it.
    pub replayed_ops: u64,
    /// Wire records inside those operations.
    pub replayed_records: u64,
    /// Bytes of torn final record (or trailing garbage) truncated.
    pub truncated_bytes: u64,
    /// Version the recovered server resumes at
    /// (`snapshot_version + replayed_ops`).
    pub final_version: u64,
}

/// FNV-1a fingerprint of the vocabulary (names in interning order).
/// Recovery refuses to marry a checkpoint to a different vocabulary —
/// concept ids are dense indices, so a mismatch would silently remap
/// every concept.
pub fn vocab_fingerprint(vocab: &Vocabulary) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (_, name) in vocab.iter() {
        mix(name.as_bytes());
        mix(&[0]);
    }
    h
}

/// A decoded state file: the expander state at `version`, covering the
/// WAL up to byte `wal_offset`.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    pub(crate) version: u64,
    pub(crate) wal_offset: u64,
    pub(crate) state: ExpanderState,
}

/// Serializes a checkpoint as a state file document.
pub(crate) fn encode_state(vocab: &Vocabulary, checkpoint: &Checkpoint) -> String {
    let Checkpoint {
        version,
        wal_offset,
        state,
    } = checkpoint;
    let mut nodes = String::from("[");
    for (i, id) in state.taxonomy.nodes().enumerate() {
        if i > 0 {
            nodes.push(',');
        }
        nodes.push_str(&id.0.to_string());
    }
    nodes.push(']');
    let mut edges = String::from("[");
    for (i, e) in state.taxonomy.edges().enumerate() {
        if i > 0 {
            edges.push(',');
        }
        edges.push_str(&format!("[{},{}]", e.parent.0, e.child.0));
    }
    edges.push(']');
    let mut pairs = String::from("[");
    for (i, p) in state.pairs.iter().enumerate() {
        if i > 0 {
            pairs.push(',');
        }
        pairs.push_str(&format!("[{},{},{}]", p.query.0, p.item.0, p.clicks));
    }
    pairs.push(']');

    let mut w = ObjWriter::new();
    w.str("format", STATE_FORMAT)
        .u64("version", *version)
        .u64("wal_offset", *wal_offset)
        .u64("batches", state.batches as u64)
        .u64("vocab_len", vocab.len() as u64)
        .u64("vocab_hash", vocab_fingerprint(vocab))
        .raw("nodes", &nodes)
        .raw("edges", &edges)
        .raw("pairs", &pairs);
    w.finish()
}

fn bad_state(detail: impl Into<String>) -> WalError {
    WalError::Format(format!("state file: {}", detail.into()))
}

/// Deserializes a state file document, checking the vocabulary
/// fingerprint.
pub(crate) fn decode_state(src: &str, vocab: &Vocabulary) -> Result<Checkpoint, WalError> {
    let v = json::parse(src).map_err(bad_state)?;
    let field = |name: &str| -> Result<&Value, WalError> {
        v.get(name)
            .ok_or_else(|| bad_state(format!("missing field {name:?}")))
    };
    let u64_field = |name: &str| -> Result<u64, WalError> {
        field(name)?
            .as_u64()
            .ok_or_else(|| bad_state(format!("field {name:?} is not a u64")))
    };
    let format = field("format")?.as_str().unwrap_or_default();
    if format != STATE_FORMAT {
        return Err(bad_state(format!(
            "unsupported format {format:?} (want {STATE_FORMAT:?})"
        )));
    }
    let vocab_len = u64_field("vocab_len")?;
    let vocab_hash = u64_field("vocab_hash")?;
    if vocab_len != vocab.len() as u64 || vocab_hash != vocab_fingerprint(vocab) {
        return Err(bad_state(format!(
            "vocabulary mismatch: state was written against {vocab_len} concepts \
             (hash {vocab_hash}), server has {} (hash {})",
            vocab.len(),
            vocab_fingerprint(vocab)
        )));
    }
    let version = u64_field("version")?;
    let wal_offset = u64_field("wal_offset")?;
    let batches = u64_field("batches")? as usize;

    let concept = |item: &Value, what: &str| -> Result<ConceptId, WalError> {
        let raw = item
            .as_u64()
            .ok_or_else(|| bad_state(format!("{what} is not a u64")))?;
        if raw >= vocab.len() as u64 {
            return Err(bad_state(format!("{what} id {raw} outside the vocabulary")));
        }
        Ok(ConceptId(raw as u32))
    };

    let mut taxonomy = Taxonomy::new();
    for item in field("nodes")?
        .items()
        .ok_or_else(|| bad_state("nodes is not an array"))?
    {
        taxonomy.add_node(concept(item, "node")?);
    }
    for item in field("edges")?
        .items()
        .ok_or_else(|| bad_state("edges is not an array"))?
    {
        let pair = item
            .items()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| bad_state("edge is not a [parent, child] pair"))?;
        let parent = concept(&pair[0], "edge parent")?;
        let child = concept(&pair[1], "edge child")?;
        taxonomy
            .add_edge(parent, child)
            .map_err(|e| bad_state(format!("edge [{parent:?},{child:?}]: {e}")))?;
    }
    let mut pairs = Vec::new();
    for item in field("pairs")?
        .items()
        .ok_or_else(|| bad_state("pairs is not an array"))?
    {
        let triple = item
            .items()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| bad_state("pair is not a [query, item, clicks] triple"))?;
        pairs.push(CandidatePair {
            query: concept(&triple[0], "pair query")?,
            item: concept(&triple[1], "pair item")?,
            clicks: triple[2]
                .as_u64()
                .ok_or_else(|| bad_state("pair clicks is not a u64"))?,
        });
    }
    Ok(Checkpoint {
        version,
        wal_offset,
        state: ExpanderState {
            taxonomy,
            pairs,
            batches,
        },
    })
}

/// Serializes one ingest operation as a WAL frame payload. `seq` is the
/// snapshot version this operation produces when applied.
pub fn encode_ingest_op(seq: u64, records: &[IngestRecord]) -> String {
    let mut arr = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push('[');
        json::encode_str(&r.query, &mut arr);
        arr.push(',');
        json::encode_str(&r.item, &mut arr);
        arr.push_str(&format!(",{}]", r.count));
    }
    arr.push(']');
    let mut w = ObjWriter::new();
    w.str("format", OP_FORMAT)
        .u64("seq", seq)
        .raw("records", &arr);
    w.finish()
}

fn bad_op(detail: impl Into<String>) -> WalError {
    WalError::Format(format!("wal ingest op: {}", detail.into()))
}

/// Deserializes a WAL frame payload back into `(seq, wire records)`.
pub fn decode_ingest_op(payload: &[u8]) -> Result<(u64, Vec<IngestRecord>), WalError> {
    let src = std::str::from_utf8(payload).map_err(|_| bad_op("payload is not UTF-8"))?;
    let v = json::parse(src).map_err(bad_op)?;
    let format = v.get("format").and_then(Value::as_str).unwrap_or_default();
    if format != OP_FORMAT {
        return Err(bad_op(format!(
            "unsupported format {format:?} (want {OP_FORMAT:?})"
        )));
    }
    let seq = v
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad_op("missing seq"))?;
    let mut records = Vec::new();
    for item in v
        .get("records")
        .and_then(Value::items)
        .ok_or_else(|| bad_op("missing records array"))?
    {
        let triple = item
            .items()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| bad_op("record is not a [query, item, count] triple"))?;
        records.push(IngestRecord {
            query: triple[0]
                .as_str()
                .ok_or_else(|| bad_op("record query is not a string"))?
                .to_owned(),
            item: triple[1]
                .as_str()
                .ok_or_else(|| bad_op("record item is not a string"))?
                .to_owned(),
            count: triple[2]
                .as_u64()
                .ok_or_else(|| bad_op("record count is not a u64"))?,
        });
    }
    Ok((seq, records))
}

/// Atomically replaces the state file in `dir` with `checkpoint`.
///
/// Consults the `serve.wal.snapshot` fault point; an injected failure
/// leaves the previous state file intact (the WAL still holds every
/// acked batch, so nothing durable is lost — recovery just replays a
/// longer tail).
pub(crate) fn persist_state(
    dir: &Path,
    vocab: &Vocabulary,
    checkpoint: &Checkpoint,
) -> Result<(), WalError> {
    if taxo_fault::should_fail(FAULT_SNAPSHOT) {
        return Err(WalError::Injected(FAULT_SNAPSHOT));
    }
    taxo_wal::atomic_write(
        &dir.join(STATE_FILE),
        encode_state(vocab, checkpoint).as_bytes(),
    )?;
    counter!("serve.wal.snapshots").inc();
    Ok(())
}

/// Matches wire records against the vocabulary the same way the live
/// ingest path does, returning the resolved click records plus the
/// matched/skipped split.
pub(crate) fn match_records(
    vocab: &Vocabulary,
    records: &[IngestRecord],
) -> (Vec<ClickRecord>, u64, u64) {
    let mut matched = 0u64;
    let mut skipped = 0u64;
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        match vocab.get(&r.query) {
            Some(query) => {
                matched += 1;
                out.push(ClickRecord {
                    query,
                    item_text: r.item.clone(),
                    count: r.count,
                });
            }
            None => skipped += 1,
        }
    }
    (out, matched, skipped)
}

/// Rebuilds the expander a crashed (or cleanly stopped) durable server
/// would have reached: loads the state file, truncates any torn final
/// WAL record, and replays the WAL from the state's offset batch by
/// batch.
///
/// `detector` and `cfg` must be the same frozen artifacts the original
/// server ran with — they are not persisted (training is upstream of
/// serving), and scoring bit-identity is relative to them.
pub fn recover(
    dir: &Path,
    detector: HypoDetector,
    cfg: ExpansionConfig,
    vocab: &Vocabulary,
) -> Result<(IncrementalExpander, RecoveryReport), WalError> {
    let _g = span!("serve.recovery");
    let src = match std::fs::read_to_string(dir.join(STATE_FILE)) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(WalError::Format(format!(
                "no state file in {} — nothing to recover (fresh directories are \
                 initialized by the server builder)",
                dir.display()
            )));
        }
        Err(e) => return Err(e.into()),
    };
    let Checkpoint {
        version: snapshot_version,
        wal_offset,
        state,
    } = decode_state(&src, vocab)?;
    let replayed = taxo_wal::recover(&dir.join(WAL_FILE), wal_offset)?;
    let mut expander = IncrementalExpander::restore(detector, cfg, state);
    let mut replayed_records = 0u64;
    for (i, payload) in replayed.payloads.iter().enumerate() {
        let (seq, records) = decode_ingest_op(payload)?;
        let expected = snapshot_version + 1 + i as u64;
        if seq != expected {
            return Err(bad_op(format!(
                "out-of-order op: expected seq {expected}, found {seq}"
            )));
        }
        let (clicks, _, _) = match_records(vocab, &records);
        replayed_records += records.len() as u64;
        expander.ingest(vocab, &clicks);
    }

    let report = RecoveryReport {
        snapshot_version,
        replayed_ops: replayed.payloads.len() as u64,
        replayed_records,
        truncated_bytes: replayed.torn_bytes,
        final_version: snapshot_version + replayed.payloads.len() as u64,
    };
    counter!("serve.recovery.runs").inc();
    counter!("serve.wal.replayed").add(report.replayed_ops);
    counter!("serve.wal.truncated").add(report.truncated_bytes);
    counter!("serve.recovery.replayed_records").add(report.replayed_records);
    gauge!("serve.recovery.snapshot_version").set(report.snapshot_version as i64);
    gauge!("serve.recovery.final_version").set(report.final_version as i64);
    Ok((expander, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> (Vocabulary, ExpanderState) {
        let mut vocab = Vocabulary::new();
        let ids: Vec<ConceptId> = ["food", "bread", "toast", "rye"]
            .iter()
            .map(|n| vocab.intern(n))
            .collect();
        let mut taxonomy = Taxonomy::new();
        for &id in &ids {
            taxonomy.add_node(id);
        }
        taxonomy.add_edge(ids[0], ids[1]).unwrap();
        taxonomy.add_edge(ids[1], ids[2]).unwrap();
        let pairs = vec![
            CandidatePair {
                query: ids[1],
                item: ids[3],
                clicks: 7,
            },
            CandidatePair {
                query: ids[0],
                item: ids[2],
                clicks: 2,
            },
        ];
        (
            vocab,
            ExpanderState {
                taxonomy,
                pairs,
                batches: 3,
            },
        )
    }

    #[test]
    fn state_round_trips_exactly() {
        let (vocab, state) = tiny_world();
        let checkpoint = |state: &ExpanderState| Checkpoint {
            version: 11,
            wal_offset: 4_096,
            state: state.clone(),
        };
        let doc = encode_state(&vocab, &checkpoint(&state));
        let back = decode_state(&doc, &vocab).unwrap();
        assert_eq!((back.version, back.wal_offset), (11, 4_096));
        let back = back.state;
        assert_eq!(back.batches, state.batches);
        assert_eq!(back.pairs, state.pairs);
        assert_eq!(back.taxonomy.node_count(), state.taxonomy.node_count());
        assert_eq!(back.taxonomy.edge_count(), state.taxonomy.edge_count());
        for e in state.taxonomy.edges() {
            assert!(back.taxonomy.contains_edge(e.parent, e.child));
        }
        // Re-encoding the decoded state is byte-identical: node ids are
        // emitted in id order and pairs keep their sorted order.
        let mut sorted = back.clone();
        sorted.pairs.sort_by_key(|p| (p.query, p.item));
        let mut original_sorted = state.clone();
        original_sorted.pairs.sort_by_key(|p| (p.query, p.item));
        assert_eq!(
            encode_state(&vocab, &checkpoint(&sorted)),
            encode_state(&vocab, &checkpoint(&original_sorted))
        );
    }

    #[test]
    fn state_rejects_a_different_vocabulary() {
        let (vocab, state) = tiny_world();
        let checkpoint = Checkpoint {
            version: 1,
            wal_offset: 0,
            state,
        };
        let doc = encode_state(&vocab, &checkpoint);
        let mut other = vocab.clone();
        other.intern("an extra concept");
        assert!(decode_state(&doc, &other).is_err());
    }

    #[test]
    fn ingest_op_round_trips_with_escapes() {
        let records = vec![
            IngestRecord {
                query: "snack \"food\"".into(),
                item: "potato\nchips".into(),
                count: 9,
            },
            IngestRecord {
                query: "bread".into(),
                item: "rye".into(),
                count: 1,
            },
        ];
        let payload = encode_ingest_op(42, &records);
        let (seq, back) = decode_ingest_op(payload.as_bytes()).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, records);
    }

    #[test]
    fn op_decoder_rejects_garbage() {
        for bad in [
            &b"not json"[..],
            b"{}",
            br#"{"format":"taxo-serve-ingest-v1","records":[]}"#,
            br#"{"format":"other","seq":1,"records":[]}"#,
            br#"{"format":"taxo-serve-ingest-v1","seq":1,"records":[["q","i"]]}"#,
        ] {
            assert!(decode_ingest_op(bad).is_err());
        }
    }

    #[test]
    fn durability_config_validates_with_field_names() {
        assert!(DurabilityConfig::Volatile.validate().is_ok());
        assert!(DurabilityConfig::wal("/tmp/x").validate().is_ok());
        let bad = DurabilityConfig::Wal {
            dir: "/tmp/x".into(),
            fsync: FsyncPolicy::Batch {
                max_ops: 0,
                max_delay: Duration::from_millis(1),
            },
            snapshot_every: 4,
        };
        match bad.validate() {
            Err(TaxoError::InvalidConfig { field, .. }) => {
                assert_eq!(field, "durability.fsync.max_ops");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
