//! Checkpoint/resume: persistent pass-result snapshots.
//!
//! A long analysis run should survive being killed: the scheduler can
//! append every completed pass result to a snapshot file
//! ([`CheckpointWriter`]) and a later run can replay those results
//! ([`ResumeSnapshot`]) instead of re-executing, re-running only what is
//! missing — digest-identical to an uninterrupted run.
//!
//! ## Keying
//!
//! Snapshot entries are keyed by a *stable* content hash
//! (`stable_key`): the pass's content
//! [`fingerprint`](crate::pass::Pass::fingerprint) combined with the
//! [`Value::stable_fingerprint`] of every input. Unlike the in-memory
//! [`crate::cache::PassCache`] keys, no process-local address ever
//! enters the hash — sets identify their graph by the run's content
//! digest ([`simrt::RunData::digest`]), so the key survives process
//! restarts. Passes without a content fingerprint, and values on
//! detached graphs, have no stable key and are simply never recorded
//! (the `verify` linter flags them as `PF0011` when checkpointing is
//! requested).
//!
//! ## File format (version 1)
//!
//! Little-endian throughout. Header: magic `PFCK`, `u32` version,
//! `u64` context (a caller-chosen hash binding the snapshot to one run
//! configuration — resuming against a different context is refused).
//! Then a sequence of self-delimiting entries:
//! `[u32 payload_len][payload][u64 fnv1a(payload)]`. The trailing hash
//! makes torn writes detectable: a loader stops at the first truncated
//! or corrupt entry and keeps everything before it, so a snapshot
//! written by a killed process loads cleanly up to the last complete
//! pass.
//!
//! **Compatibility rules:** the magic and version are checked on load;
//! readers reject unknown versions rather than guessing. Any change to
//! the entry payload encoding bumps the version. Unknown value tags
//! within an entry invalidate only that entry's tail (the loader drops
//! the entry, not the file).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::error::PerFlowError;
use crate::graphref::{GraphRef, RunHandle};
use crate::pass::Pass;
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;
use obs::Fnv;

/// Snapshot file magic.
pub const MAGIC: [u8; 4] = *b"PFCK";
/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// Stable content key of running `pass` on `inputs`, or `None` when the
/// pass has no content fingerprint or any input has no stable
/// fingerprint. Only stable-keyed executions can be checkpointed and
/// resumed.
pub(crate) fn stable_key(pass: &dyn Pass, inputs: &[Value]) -> Option<u64> {
    let fp = pass.fingerprint()?;
    let mut h = Fnv::new();
    h.u64(0x5AB1E);
    h.u64(fp);
    h.u64(inputs.len() as u64);
    for v in inputs {
        h.u64(v.stable_fingerprint()?);
    }
    Some(h.finish())
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Serialized value form: like `Value`, but sets carry the content digest
// of their graph instead of a live handle.

#[derive(Debug, Clone)]
enum EncValue {
    Num(f64),
    /// `(view_tag, run_digest, ids, scores)` — view 1 = top-down, 2 =
    /// parallel.
    Vertices(u8, u64, Vec<u32>, Vec<(u32, f64)>),
    Edges(u8, u64, Vec<u32>),
    Report(Report),
}

/// One decoded snapshot entry.
#[derive(Debug, Clone)]
struct Entry {
    key: u64,
    outputs: Vec<EncValue>,
    trail: Vec<String>,
}

// ---------------------------------------------------------------------
// Encoding.

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Encode one value, or `None` when it lives on a graph without a
/// stable content identity.
fn encode_value(out: &mut Enc, v: &Value) -> Option<()> {
    match v {
        Value::Num(n) => {
            out.u8(1);
            out.f64(*n);
        }
        Value::Vertices(s) => {
            let (tag, digest) = s.graph.content_identity()?;
            out.u8(2);
            out.u8(tag);
            out.u64(digest);
            out.u32(s.ids.len() as u32);
            for id in &s.ids {
                out.u32(id.0);
            }
            out.u32(s.scores.len() as u32);
            for (id, score) in &s.scores {
                out.u32(id.0);
                out.f64(*score);
            }
        }
        Value::Edges(s) => {
            let (tag, digest) = s.graph.content_identity()?;
            out.u8(3);
            out.u8(tag);
            out.u64(digest);
            out.u32(s.ids.len() as u32);
            for id in &s.ids {
                out.u32(id.0);
            }
        }
        Value::Report(r) => {
            out.u8(4);
            out.str(&r.title);
            out.u32(r.columns.len() as u32);
            for c in &r.columns {
                out.str(c);
            }
            out.u32(r.rows.len() as u32);
            for row in &r.rows {
                out.u32(row.len() as u32);
                for cell in row {
                    out.str(cell);
                }
            }
            out.u32(r.notes.len() as u32);
            for n in &r.notes {
                out.str(n);
            }
        }
    }
    Some(())
}

fn encode_entry(key: u64, outputs: &[Value], trail: &[String]) -> Option<Vec<u8>> {
    let mut e = Enc(Vec::with_capacity(64));
    e.u64(key);
    e.u32(outputs.len() as u32);
    for v in outputs {
        encode_value(&mut e, v)?;
    }
    e.u32(trail.len() as u32);
    for t in trail {
        e.str(t);
    }
    Some(e.0)
}

// ---------------------------------------------------------------------
// Decoding.

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
}

fn decode_value(d: &mut Dec) -> Option<EncValue> {
    match d.u8()? {
        1 => Some(EncValue::Num(d.f64()?)),
        2 => {
            let tag = d.u8()?;
            let digest = d.u64()?;
            let n = d.u32()? as usize;
            let ids = (0..n).map(|_| d.u32()).collect::<Option<Vec<_>>>()?;
            let ns = d.u32()? as usize;
            let scores = (0..ns)
                .map(|_| Some((d.u32()?, d.f64()?)))
                .collect::<Option<Vec<_>>>()?;
            Some(EncValue::Vertices(tag, digest, ids, scores))
        }
        3 => {
            let tag = d.u8()?;
            let digest = d.u64()?;
            let n = d.u32()? as usize;
            let ids = (0..n).map(|_| d.u32()).collect::<Option<Vec<_>>>()?;
            Some(EncValue::Edges(tag, digest, ids))
        }
        4 => {
            let title = d.str()?;
            let ncols = d.u32()? as usize;
            let columns = (0..ncols).map(|_| d.str()).collect::<Option<Vec<_>>>()?;
            let nrows = d.u32()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(4096));
            for _ in 0..nrows {
                let ncells = d.u32()? as usize;
                rows.push((0..ncells).map(|_| d.str()).collect::<Option<Vec<_>>>()?);
            }
            let nnotes = d.u32()? as usize;
            let notes = (0..nnotes).map(|_| d.str()).collect::<Option<Vec<_>>>()?;
            Some(EncValue::Report(Report {
                title,
                columns,
                rows,
                notes,
            }))
        }
        _ => None,
    }
}

fn decode_entry(payload: &[u8]) -> Option<Entry> {
    let mut d = Dec::new(payload);
    let key = d.u64()?;
    let nout = d.u32()? as usize;
    let outputs = (0..nout)
        .map(|_| decode_value(&mut d))
        .collect::<Option<Vec<_>>>()?;
    let ntrail = d.u32()? as usize;
    let trail = (0..ntrail).map(|_| d.str()).collect::<Option<Vec<_>>>()?;
    Some(Entry {
        key,
        outputs,
        trail,
    })
}

// ---------------------------------------------------------------------
// Writer.

struct WriterState {
    file: Option<std::fs::File>,
    seen: HashSet<u64>,
    recorded: usize,
    skipped: usize,
    error: Option<String>,
}

/// Appends completed pass results to a snapshot file as the scheduler
/// produces them, so a killed run leaves a loadable prefix. Thread-safe:
/// scheduler workers record concurrently.
pub struct CheckpointWriter {
    path: PathBuf,
    state: Mutex<WriterState>,
}

impl CheckpointWriter {
    /// Create (truncate) the snapshot file and write the versioned
    /// header. `context` binds the snapshot to one run configuration:
    /// loading it back requires the identical context.
    pub fn create(path: impl Into<PathBuf>, context: u64) -> Result<Self, PerFlowError> {
        let path = path.into();
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&context.to_le_bytes());
        let mut file = std::fs::File::create(&path).map_err(|e| PerFlowError::Checkpoint {
            detail: format!("cannot create {}: {e}", path.display()),
        })?;
        file.write_all(&header)
            .and_then(|()| file.flush())
            .map_err(|e| PerFlowError::Checkpoint {
                detail: format!("cannot write header to {}: {e}", path.display()),
            })?;
        Ok(CheckpointWriter {
            path,
            state: Mutex::new(WriterState {
                file: Some(file),
                seen: HashSet::new(),
                recorded: 0,
                skipped: 0,
                error: None,
            }),
        })
    }

    /// Append one completed pass result. Returns `true` when the entry
    /// was written; `false` when it was skipped (no stable encoding,
    /// duplicate key, or the writer already failed). Write errors are
    /// sticky and surfaced by [`CheckpointWriter::error`] — they never
    /// abort the analysis itself.
    pub(crate) fn record(&self, key: u64, outputs: &[Value], trail: &[String]) -> bool {
        let Some(payload) = encode_entry(key, outputs, trail) else {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            st.skipped += 1;
            return false;
        };
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv_bytes(&payload).to_le_bytes());

        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.error.is_some() || !st.seen.insert(key) {
            return false;
        }
        let Some(file) = st.file.as_mut() else {
            return false;
        };
        match file.write_all(&frame).and_then(|()| file.flush()) {
            Ok(()) => {
                st.recorded += 1;
                true
            }
            Err(e) => {
                st.error = Some(format!("cannot append to {}: {e}", self.path.display()));
                st.file = None;
                false
            }
        }
    }

    /// Number of entries written so far.
    pub fn recorded(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .recorded
    }

    /// Number of results that could not be checkpointed (values on
    /// detached graphs).
    pub fn skipped(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).skipped
    }

    /// First write error, if any (sticky: after an error the writer
    /// stops appending but the analysis keeps running).
    pub fn error(&self) -> Option<String> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .error
            .clone()
    }

    /// Path of the snapshot file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Loader.

/// A parsed snapshot file (not yet bound to live runs).
#[derive(Debug)]
pub struct CheckpointFile {
    /// Format version read from the header.
    pub version: u32,
    /// Context hash read from the header.
    pub context: u64,
    /// True when the file ended in a torn or corrupt entry (the
    /// complete prefix is still usable — the signature of a killed run).
    pub truncated: bool,
    entries: Vec<Entry>,
}

impl CheckpointFile {
    /// Load and parse a snapshot file. Fails on missing file, bad magic,
    /// or unknown version; tolerates a torn tail (see
    /// [`CheckpointFile::truncated`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PerFlowError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| PerFlowError::Checkpoint {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        if bytes.len() < 16 || bytes[..4] != MAGIC {
            return Err(PerFlowError::Checkpoint {
                detail: format!("{} is not a PerFlow checkpoint (bad magic)", path.display()),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(PerFlowError::Checkpoint {
                detail: format!(
                    "{}: unsupported snapshot version {version} (this build reads version {VERSION})",
                    path.display()
                ),
            });
        }
        let context = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let mut entries = Vec::new();
        let mut truncated = false;
        let mut pos = 16usize;
        while pos < bytes.len() {
            // Frame: [len u32][payload][fnv u64]. Anything short or with
            // a wrong trailing hash is a torn write — stop there.
            if pos + 4 > bytes.len() {
                truncated = true;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let payload_start = pos + 4;
            let Some(frame_end) = payload_start
                .checked_add(len)
                .and_then(|e| e.checked_add(8))
            else {
                truncated = true;
                break;
            };
            if frame_end > bytes.len() {
                truncated = true;
                break;
            }
            let payload = &bytes[payload_start..payload_start + len];
            let check =
                u64::from_le_bytes(bytes[payload_start + len..frame_end].try_into().unwrap());
            if fnv_bytes(payload) != check {
                truncated = true;
                break;
            }
            match decode_entry(payload) {
                Some(e) => entries.push(e),
                // Undecodable but checksum-valid: an encoding this
                // version does not understand. Drop the entry, keep
                // scanning.
                None => truncated = true,
            }
            pos = frame_end;
        }
        Ok(CheckpointFile {
            version,
            context,
            truncated,
            entries,
        })
    }

    /// Number of complete entries loaded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verify the snapshot belongs to `expected` (the same context hash
    /// the writer was created with).
    pub fn expect_context(&self, expected: u64) -> Result<(), PerFlowError> {
        if self.context != expected {
            return Err(PerFlowError::Checkpoint {
                detail: format!(
                    "snapshot context {:016x} does not match this run ({:016x}) — it belongs to a different workload/configuration",
                    self.context, expected
                ),
            });
        }
        Ok(())
    }

    /// Bind the snapshot's serialized sets back to live runs: each set
    /// entry names its run by content digest and is re-attached to the
    /// matching handle in `runs`. Entries referencing a digest not in
    /// `runs` are dropped (counted in [`ResumeSnapshot::dropped`]).
    pub fn rebind(&self, runs: &[RunHandle]) -> ResumeSnapshot {
        let by_digest: HashMap<u64, &RunHandle> =
            runs.iter().map(|r| (r.content_digest(), r)).collect();
        let graph_for = |tag: u8, digest: u64| -> Option<GraphRef> {
            let run = by_digest.get(&digest)?;
            match tag {
                1 => Some(GraphRef::TopDown(std::sync::Arc::clone(run))),
                2 => Some(GraphRef::Parallel(std::sync::Arc::clone(run))),
                _ => None,
            }
        };
        let mut entries = HashMap::with_capacity(self.entries.len());
        let mut dropped = 0usize;
        'entry: for e in &self.entries {
            let mut outputs = Vec::with_capacity(e.outputs.len());
            for v in &e.outputs {
                let rebound = match v {
                    EncValue::Num(n) => Value::Num(*n),
                    EncValue::Report(r) => Value::Report(r.clone()),
                    EncValue::Vertices(tag, digest, ids, scores) => {
                        let Some(graph) = graph_for(*tag, *digest) else {
                            dropped += 1;
                            continue 'entry;
                        };
                        Value::Vertices(VertexSet {
                            graph,
                            ids: ids.iter().map(|&i| pag::VertexId(i)).collect(),
                            scores: scores
                                .iter()
                                .map(|&(i, s)| (pag::VertexId(i), s))
                                .collect::<BTreeMap<_, _>>(),
                        })
                    }
                    EncValue::Edges(tag, digest, ids) => {
                        let Some(graph) = graph_for(*tag, *digest) else {
                            dropped += 1;
                            continue 'entry;
                        };
                        Value::Edges(EdgeSet {
                            graph,
                            ids: ids.iter().map(|&i| pag::EdgeId(i)).collect(),
                        })
                    }
                };
                outputs.push(rebound);
            }
            entries.insert(e.key, (outputs, e.trail.clone()));
        }
        ResumeSnapshot { entries, dropped }
    }
}

/// A loaded, rebound snapshot ready for the scheduler to probe.
pub struct ResumeSnapshot {
    entries: HashMap<u64, (Vec<Value>, Vec<String>)>,
    /// Entries that could not be rebound (their run digest matched none
    /// of the provided handles).
    pub dropped: usize,
}

impl ResumeSnapshot {
    /// Empty snapshot (resuming from it hits nothing).
    pub fn empty() -> Self {
        ResumeSnapshot {
            entries: HashMap::new(),
            dropped: 0,
        }
    }

    /// Number of resumable entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resumable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a stable key.
    pub(crate) fn get(&self, key: u64) -> Option<(Vec<Value>, Vec<String>)> {
        self.entries.get(&key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("perflow-ckpt-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn header_round_trip_and_context_check() {
        let path = tmp("hdr");
        let w = CheckpointWriter::create(&path, 0xDEAD_BEEF).unwrap();
        assert_eq!(w.recorded(), 0);
        let f = CheckpointFile::load(&path).unwrap();
        assert_eq!(f.version, VERSION);
        assert_eq!(f.context, 0xDEAD_BEEF);
        assert!(f.is_empty());
        assert!(!f.truncated);
        f.expect_context(0xDEAD_BEEF).unwrap();
        assert!(matches!(
            f.expect_context(1),
            Err(PerFlowError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entries_round_trip_nums_and_reports() {
        let path = tmp("vals");
        let w = CheckpointWriter::create(&path, 7).unwrap();
        let mut r = Report::new("t").with_columns(&["a", "b"]);
        r.push_row(vec!["x".into(), "y".into()]);
        r.note("n1");
        assert!(w.record(
            42,
            &[Value::Num(1.5), Value::Report(r.clone())],
            &["p1".into()]
        ));
        // Duplicate keys are written once.
        assert!(!w.record(42, &[Value::Num(1.5)], &[]));
        assert_eq!(w.recorded(), 1);
        let f = CheckpointFile::load(&path).unwrap();
        assert_eq!(f.len(), 1);
        let snap = f.rebind(&[]);
        let (outs, trail) = snap.get(42).unwrap();
        assert_eq!(outs[0].as_num(), Some(1.5));
        assert_eq!(outs[1].as_report().unwrap().render(), r.render());
        assert_eq!(trail, vec!["p1".to_string()]);
        assert!(snap.get(43).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        let w = CheckpointWriter::create(&path, 9).unwrap();
        assert!(w.record(1, &[Value::Num(1.0)], &[]));
        assert!(w.record(2, &[Value::Num(2.0)], &[]));
        drop(w);
        // Simulate a kill mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let f = CheckpointFile::load(&path).unwrap();
        assert_eq!(f.len(), 1, "complete prefix survives");
        assert!(f.truncated);
        assert!(f.rebind(&[]).get(1).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_is_rejected_by_checksum() {
        let path = tmp("corrupt");
        let w = CheckpointWriter::create(&path, 9).unwrap();
        assert!(w.record(1, &[Value::Num(1.0)], &[]));
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte (past header + frame length).
        bytes[21] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let f = CheckpointFile::load(&path).unwrap();
        assert_eq!(f.len(), 0);
        assert!(f.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE00000000000000").unwrap();
        assert!(matches!(
            CheckpointFile::load(&path),
            Err(PerFlowError::Checkpoint { .. })
        ));
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC);
        hdr.extend_from_slice(&99u32.to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &hdr).unwrap();
        let err = CheckpointFile::load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_checkpoint_error() {
        let err = CheckpointFile::load("/nonexistent/perflow.ckpt").unwrap_err();
        assert!(matches!(err, PerFlowError::Checkpoint { .. }));
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
