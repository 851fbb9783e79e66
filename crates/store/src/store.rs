//! The crash-safe knowledge store: an append-only JSON-lines write-ahead
//! log plus an atomically-replaced snapshot.
//!
//! # On-disk layout
//!
//! A store is a directory with two files:
//!
//! * `snapshot.jsonl` — the compacted state, rewritten wholesale by
//!   [`KnowledgeStore::compact`] via write-to-temp + rename (atomic on
//!   POSIX), so it is either the old snapshot or the new one, never a
//!   half-written hybrid;
//! * `wal.jsonl` — the write-ahead log; every new piece of knowledge is
//!   appended here as one [`Record`] line.
//!
//! Both files start with a [`Record::Header`] line carrying the format
//! name and version.
//!
//! # Recovery rules
//!
//! A crash can leave the WAL with a truncated last line or arbitrary
//! corrupt bytes. On open, each file is replayed line by line; a line
//! survives only if it (1) ends in a newline, (2) parses, in one pass,
//! with the workspace's JSON parser ([`gadt_obs::json::parse`]), and
//! (3) decodes into a known [`Record`]. The first line that fails any check ends the
//! *valid prefix*: everything before it is recovered, everything from
//! it on is dropped (WAL semantics — later lines may depend on earlier
//! ones, so a hole cannot be skipped). The WAL is then truncated back
//! to its valid prefix, so the next append continues from a clean file.
//! Recovery never panics and reports what it kept and dropped in a
//! [`RecoveryReport`].
//!
//! # Determinism
//!
//! Appends are idempotent (re-recording knowledge the store already
//! holds writes nothing) and the encoder is deterministic, so identical
//! sessions produce byte-identical stores — including across executor
//! thread counts, provided records are appended in batch order (see
//! `gadt_exec::BatchExecutor::run_with_sink`, the serialized appender
//! path `gadt_tgen::cases::run_cases_batch` streams reports through when
//! given a store).

use crate::record::{Record, StoredAnswer, StoredReport, VERSION};
use crate::Json;
use gadt_pascal::idhash::{fnv1a, FNV1A_OFFSET};
use gadt_pascal::value::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What recovery kept and dropped when the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Data records recovered from the snapshot file.
    pub snapshot_records: usize,
    /// Data records recovered from the WAL.
    pub wal_records: usize,
    /// Lines (complete or partial) dropped as corrupt or truncated.
    pub dropped_lines: usize,
    /// Bytes discarded with those lines.
    pub dropped_bytes: usize,
}

impl RecoveryReport {
    /// Total data records recovered across both files.
    pub fn recovered_lines(&self) -> usize {
        self.snapshot_records + self.wal_records
    }

    /// Whether anything had to be dropped.
    pub fn clean(&self) -> bool {
        self.dropped_lines == 0
    }
}

/// The merged in-memory view of everything on disk.
#[derive(Debug, Clone, Default, PartialEq)]
struct StoreState {
    /// unit → frame code → reports in first-seen order, deduped on
    /// inputs (latest verdict wins) — mirroring `TestDb::add`.
    reports: BTreeMap<String, BTreeMap<String, Vec<StoredReport>>>,
    /// answer key → (answer, source).
    answers: BTreeMap<String, (StoredAnswer, String)>,
    /// campaign key → payload.
    verdicts: BTreeMap<String, Json>,
}

impl StoreState {
    /// Applies one data record; returns whether the state changed (an
    /// unchanged state means the record is already-known knowledge and
    /// need not be written again).
    fn apply(&mut self, record: Record) -> bool {
        match record {
            Record::Header { .. } => false,
            Record::Report(mut r) => {
                r.unit = r.unit.to_ascii_lowercase();
                let slot = self
                    .reports
                    .entry(r.unit.clone())
                    .or_default()
                    .entry(r.code.clone())
                    .or_default();
                match slot.iter_mut().find(|e| e.inputs == r.inputs) {
                    Some(existing) if *existing == r => false,
                    Some(existing) => {
                        *existing = r;
                        true
                    }
                    None => {
                        slot.push(r);
                        true
                    }
                }
            }
            Record::Answer {
                key,
                answer,
                source,
            } => {
                let entry = (answer, source);
                if self.answers.get(&key) == Some(&entry) {
                    false
                } else {
                    self.answers.insert(key, entry);
                    true
                }
            }
            Record::Verdict { key, payload } => {
                if self.verdicts.get(&key) == Some(&payload) {
                    false
                } else {
                    self.verdicts.insert(key, payload);
                    true
                }
            }
        }
    }

    /// The deterministic serialization compaction writes: every record
    /// in sorted-key order (reports by unit then code then insertion
    /// order, answers and verdicts by key).
    fn export(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for codes in self.reports.values() {
            for reports in codes.values() {
                out.extend(reports.iter().cloned().map(Record::Report));
            }
        }
        for (key, (answer, source)) in &self.answers {
            out.push(Record::Answer {
                key: key.clone(),
                answer: answer.clone(),
                source: source.clone(),
            });
        }
        for (key, payload) in &self.verdicts {
            out.push(Record::Verdict {
                key: key.clone(),
                payload: payload.clone(),
            });
        }
        out
    }
}

/// The valid prefix of one store file.
struct RecoveredFile {
    records: Vec<Record>,
    valid_len: u64,
    dropped_lines: usize,
    dropped_bytes: usize,
}

/// Replays `bytes` under the recovery rules (module docs). `None` from
/// a header check means a *newer* format version — surfaced as an error
/// by the caller rather than silently dropped.
fn recover(bytes: &[u8]) -> io::Result<RecoveredFile> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    // Stops at the first line with no terminating newline — an
    // incomplete (or empty) tail.
    while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line_end = pos + nl;
        let Ok(line) = std::str::from_utf8(&bytes[pos..line_end]) else {
            break;
        };
        let Some(record) = Record::decode(line) else {
            break;
        };
        if records.is_empty() {
            let Record::Header { version } = record else {
                break; // first line must be the header
            };
            if version > VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "store file written by a newer build (format v{version}, this build reads up to v{VERSION})"
                    ),
                ));
            }
        }
        records.push(record);
        pos = line_end + 1;
    }
    let dropped = &bytes[pos..];
    let dropped_lines = if dropped.is_empty() {
        0
    } else {
        dropped.iter().filter(|&&b| b == b'\n').count()
            + usize::from(*dropped.last().unwrap() != b'\n')
    };
    Ok(RecoveredFile {
        records,
        valid_len: pos as u64,
        dropped_lines,
        dropped_bytes: dropped.len(),
    })
}

/// A persistent, crash-safe store of debugging knowledge. See the
/// module docs for the format; see [`crate::record`] for what is
/// stored.
///
/// # Examples
/// ```
/// # fn main() -> std::io::Result<()> {
/// use gadt_store::{KnowledgeStore, StoredAnswer, TempDir};
/// use gadt_pascal::value::Value;
///
/// let dir = TempDir::new("gadt-store-doc");
/// {
///     let mut store = KnowledgeStore::open(dir.path())?;
///     store.record_answer(
///         "arrsum",
///         &[Value::Int(2)],
///         StoredAnswer::Correct,
///         "test database",
///     )?;
///     store.sync()?;
/// }
/// // A later session finds the answer on disk.
/// let mut store = KnowledgeStore::open(dir.path())?;
/// assert_eq!(
///     store.lookup_answer("ArrSum", &[Value::Int(2)]),
///     Some(StoredAnswer::Correct),
/// );
/// assert_eq!(store.answer_hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KnowledgeStore {
    dir: PathBuf,
    state: StoreState,
    wal: File,
    /// Data records currently sitting in the WAL (snapshot excluded).
    wal_records: usize,
    recovery: RecoveryReport,
    answer_hits: u64,
    answer_misses: u64,
    verdict_hits: u64,
    verdict_misses: u64,
}

impl KnowledgeStore {
    /// Opens (or creates) the store in `dir`, recovering the valid
    /// prefix of both files and truncating the WAL's corrupt tail so
    /// subsequent appends extend a clean file.
    ///
    /// # Errors
    /// I/O errors, plus [`io::ErrorKind::InvalidData`] when a file was
    /// written by a newer format version than this build reads.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<KnowledgeStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut state = StoreState::default();
        let mut recovery = RecoveryReport::default();

        // Snapshot first: it is the compacted past the WAL extends.
        let snap = match std::fs::read(dir.join(SNAPSHOT)) {
            Ok(bytes) => Some(recover(&bytes)?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        if let Some(snap) = snap {
            recovery.dropped_lines += snap.dropped_lines;
            recovery.dropped_bytes += snap.dropped_bytes;
            for record in snap.records {
                state.apply(record);
                recovery.snapshot_records += 1;
            }
            recovery.snapshot_records = recovery.snapshot_records.saturating_sub(1);
            // header
        }

        // Then the WAL, self-healing its tail.
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL))?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let replay = recover(&bytes)?;
        let mut wal_records = 0usize;
        for record in replay.records {
            if !matches!(record, Record::Header { .. }) {
                wal_records += 1;
            }
            state.apply(record);
        }
        recovery.wal_records = wal_records;
        recovery.dropped_lines += replay.dropped_lines;
        recovery.dropped_bytes += replay.dropped_bytes;
        if replay.valid_len != bytes.len() as u64 {
            wal.set_len(replay.valid_len)?;
        }
        wal.seek(SeekFrom::Start(replay.valid_len))?;
        if replay.valid_len == 0 {
            let header = Record::Header { version: VERSION }.encode();
            wal.write_all(header.as_bytes())?;
            wal.write_all(b"\n")?;
        }

        Ok(KnowledgeStore {
            dir,
            state,
            wal,
            wal_records,
            recovery,
            answer_hits: 0,
            answer_misses: 0,
            verdict_hits: 0,
            verdict_misses: 0,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery kept and dropped when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn append(&mut self, record: Record) -> io::Result<bool> {
        // Idempotence: probe on a clone first so a failed write never
        // leaves memory ahead of disk.
        let mut probe = self.state.clone();
        if !probe.apply(record.clone()) {
            return Ok(false);
        }
        let line = record.encode();
        self.wal.write_all(line.as_bytes())?;
        self.wal.write_all(b"\n")?;
        self.state = probe;
        self.wal_records += 1;
        Ok(true)
    }

    /// Appends one test report. Returns `false` when the store already
    /// holds it (nothing written). A report with the same unit, frame
    /// code and inputs but a different verdict/outputs *replaces* the
    /// old knowledge (latest wins), mirroring `TestDb::add`.
    ///
    /// # Errors
    /// WAL write errors.
    pub fn append_report(&mut self, report: StoredReport) -> io::Result<bool> {
        self.append(Record::Report(report))
    }

    /// Records an oracle answer for the `(unit, In-values)` fingerprint.
    /// Returns `false` when the identical answer is already stored.
    ///
    /// # Errors
    /// WAL write errors.
    pub fn record_answer(
        &mut self,
        unit: &str,
        ins: &[Value],
        answer: StoredAnswer,
        source: &str,
    ) -> io::Result<bool> {
        self.append(Record::Answer {
            key: crate::record::answer_key(unit, ins),
            answer,
            source: source.to_string(),
        })
    }

    /// Records a campaign golden-reference verdict under `key`.
    /// Returns `false` when the identical payload is already stored.
    ///
    /// # Errors
    /// WAL write errors.
    pub fn record_verdict(&mut self, key: &str, payload: Json) -> io::Result<bool> {
        self.append(Record::Verdict {
            key: key.to_string(),
            payload,
        })
    }

    /// Looks up a stored answer for a `(unit, In-values)` fingerprint,
    /// counting a hit or miss.
    pub fn lookup_answer(&mut self, unit: &str, ins: &[Value]) -> Option<StoredAnswer> {
        let key = crate::record::answer_key(unit, ins);
        match self.state.answers.get(&key) {
            Some((answer, _)) => {
                self.answer_hits += 1;
                Some(answer.clone())
            }
            None => {
                self.answer_misses += 1;
                None
            }
        }
    }

    /// Checks for a stored answer *without* counting a hit or miss —
    /// the read-only probe traversal strategies use to weigh nodes
    /// ("would asking this be free?") without pretending a question was
    /// asked. [`KnowledgeStore::lookup_answer`] is the counting variant
    /// for answers actually served into a session.
    pub fn peek_answer(&self, unit: &str, ins: &[Value]) -> Option<StoredAnswer> {
        let key = crate::record::answer_key(unit, ins);
        self.state.answers.get(&key).map(|(a, _)| a.clone())
    }

    /// Looks up a campaign verdict, counting a hit or miss.
    pub fn lookup_verdict(&mut self, key: &str) -> Option<Json> {
        match self.state.verdicts.get(key) {
            Some(payload) => {
                self.verdict_hits += 1;
                Some(payload.clone())
            }
            None => {
                self.verdict_misses += 1;
                None
            }
        }
    }

    /// All stored reports for a unit, in frame-code order then
    /// insertion order — the order `TestDb::load_from` rebuilds in.
    pub fn unit_reports(&self, unit: &str) -> impl Iterator<Item = &StoredReport> {
        self.state
            .reports
            .get(&unit.to_ascii_lowercase())
            .into_iter()
            .flat_map(|codes| codes.values().flatten())
    }

    /// Units with at least one stored report.
    pub fn units(&self) -> impl Iterator<Item = &str> {
        self.state.reports.keys().map(String::as_str)
    }

    /// Stored report count (all units).
    pub fn reports_len(&self) -> usize {
        self.state
            .reports
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Stored answer count.
    pub fn answers_len(&self) -> usize {
        self.state.answers.len()
    }

    /// Stored verdict count.
    pub fn verdicts_len(&self) -> usize {
        self.state.verdicts.len()
    }

    /// Whether the store holds no knowledge at all.
    pub fn is_empty(&self) -> bool {
        self.reports_len() == 0 && self.answers_len() == 0 && self.verdicts_len() == 0
    }

    /// Answer lookups that found stored knowledge.
    pub fn answer_hits(&self) -> u64 {
        self.answer_hits
    }

    /// Answer lookups that found nothing.
    pub fn answer_misses(&self) -> u64 {
        self.answer_misses
    }

    /// Verdict lookups that found stored knowledge.
    pub fn verdict_hits(&self) -> u64 {
        self.verdict_hits
    }

    /// Verdict lookups that found nothing.
    pub fn verdict_misses(&self) -> u64 {
        self.verdict_misses
    }

    /// Data records currently in the WAL (a compaction resets this).
    pub fn wal_records(&self) -> usize {
        self.wal_records
    }

    /// The deterministic full-state serialization (what a compaction
    /// writes, minus the header) — handy for state-equality assertions.
    pub fn export_lines(&self) -> Vec<String> {
        self.state.export().iter().map(Record::encode).collect()
    }

    /// Flushes the WAL to stable storage (`fsync`).
    ///
    /// # Errors
    /// I/O errors from the sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync_all()
    }

    /// Folds the WAL into the snapshot: writes the full state to a
    /// temporary file, fsyncs it, atomically renames it over
    /// `snapshot.jsonl`, then resets the WAL to a bare header. A crash
    /// between the rename and the reset only leaves duplicate records in
    /// the WAL, which replay idempotently on the next open.
    ///
    /// # Errors
    /// I/O errors from writing, syncing, or renaming.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            let mut buf = String::new();
            buf.push_str(&Record::Header { version: VERSION }.encode());
            buf.push('\n');
            for record in self.state.export() {
                buf.push_str(&record.encode());
                buf.push('\n');
            }
            f.write_all(buf.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT))?;
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        let header = Record::Header { version: VERSION }.encode();
        self.wal.write_all(header.as_bytes())?;
        self.wal.write_all(b"\n")?;
        self.wal.sync_all()?;
        self.wal_records = 0;
        Ok(())
    }

    /// A fingerprint of the on-disk bytes (snapshot then WAL), FNV-1a —
    /// byte-identical stores have equal fingerprints. Flush first
    /// ([`KnowledgeStore::sync`]) if appends are in flight.
    ///
    /// # Errors
    /// I/O errors reading the files back.
    pub fn disk_fingerprint(&self) -> io::Result<String> {
        let mut hash = FNV1A_OFFSET;
        for name in [SNAPSHOT, WAL] {
            match std::fs::read(self.dir.join(name)) {
                Ok(bytes) => {
                    hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
                    hash = fnv1a(hash, &bytes);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => hash = fnv1a(hash, &[0xFF]),
                Err(e) => return Err(e),
            }
        }
        Ok(format!("{hash:016x}"))
    }

    /// Wraps the store for shared use across threads (the serialized
    /// appender handle the batch runners take).
    pub fn into_shared(self) -> SharedStore {
        Arc::new(Mutex::new(self))
    }
}

/// A store behind a mutex: the one serialized appender that concurrent
/// batch workers funnel through.
pub type SharedStore = Arc<Mutex<KnowledgeStore>>;

const SNAPSHOT: &str = "snapshot.jsonl";
const SNAPSHOT_TMP: &str = "snapshot.jsonl.tmp";
const WAL: &str = "wal.jsonl";

impl Drop for KnowledgeStore {
    fn drop(&mut self) {
        let _ = self.wal.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;
    use crate::TempDir;

    fn report(code: &str, n: i64, passed: bool) -> StoredReport {
        StoredReport {
            unit: "arrsum".into(),
            code: code.into(),
            inputs: vec![Value::Int(n)],
            outputs: vec![Value::Int(n * 2)],
            passed,
        }
    }

    #[test]
    fn fresh_store_is_empty_with_header_only_wal() {
        let dir = TempDir::new("store-fresh");
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.recovery().recovered_lines(), 0);
        let wal = std::fs::read_to_string(dir.path().join(WAL)).unwrap();
        assert_eq!(wal.lines().count(), 1);
        assert!(wal.starts_with("{\"k\":\"header\""), "{wal}");
    }

    #[test]
    fn appends_persist_across_reopen() {
        let dir = TempDir::new("store-reopen");
        {
            let mut store = KnowledgeStore::open(dir.path()).unwrap();
            assert!(store
                .append_report(report("two.positive.small", 2, true))
                .unwrap());
            assert!(store
                .record_answer("p", &[Value::Int(5)], StoredAnswer::Correct, "user")
                .unwrap());
            assert!(store
                .record_verdict("m:1", obj(vec![("s", Json::Str("ok".into()))]))
                .unwrap());
            store.sync().unwrap();
        }
        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        assert_eq!(store.reports_len(), 1);
        assert_eq!(store.recovery().wal_records, 3);
        assert!(store.recovery().clean());
        assert_eq!(
            store.lookup_answer("P", &[Value::Int(5)]),
            Some(StoredAnswer::Correct)
        );
        assert!(store.lookup_verdict("m:1").is_some());
        assert_eq!(store.lookup_verdict("m:2"), None);
        assert_eq!((store.verdict_hits(), store.verdict_misses()), (1, 1));
    }

    #[test]
    fn appends_are_idempotent_and_latest_verdict_wins() {
        let dir = TempDir::new("store-idem");
        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.append_report(report("a", 1, true)).unwrap());
        // Identical knowledge: nothing written.
        assert!(!store.append_report(report("a", 1, true)).unwrap());
        assert_eq!(store.wal_records(), 1);
        // Same key, new verdict: written, replaces.
        assert!(store.append_report(report("a", 1, false)).unwrap());
        assert_eq!(store.reports_len(), 1);
        assert!(!store.unit_reports("arrsum").next().unwrap().passed);
        // Different inputs under the same code: a second report.
        assert!(store.append_report(report("a", 2, true)).unwrap());
        assert_eq!(store.reports_len(), 2);
    }

    #[test]
    fn compaction_moves_state_into_the_snapshot() {
        let dir = TempDir::new("store-compact");
        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        for n in 0..5 {
            store.append_report(report("c", n, true)).unwrap();
        }
        store
            .record_answer(
                "q",
                &[],
                StoredAnswer::Incorrect {
                    wrong_output: Some(0),
                },
                "assertions",
            )
            .unwrap();
        let before = store.export_lines();
        store.compact().unwrap();
        assert_eq!(store.wal_records(), 0);
        let wal = std::fs::read_to_string(dir.path().join(WAL)).unwrap();
        assert_eq!(wal.lines().count(), 1, "WAL reset to header: {wal}");
        drop(store);
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert_eq!(store.export_lines(), before);
        assert_eq!(store.recovery().snapshot_records, 6);
    }

    #[test]
    fn corrupt_wal_tail_is_dropped_and_healed() {
        let dir = TempDir::new("store-heal");
        {
            let mut store = KnowledgeStore::open(dir.path()).unwrap();
            store.append_report(report("a", 1, true)).unwrap();
            store.append_report(report("b", 2, true)).unwrap();
        }
        // Simulate a crash mid-append: chop the last line in half.
        let wal_path = dir.path().join(WAL);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 10]).unwrap();

        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        assert_eq!(store.reports_len(), 1);
        assert_eq!(store.recovery().wal_records, 1);
        assert_eq!(store.recovery().dropped_lines, 1);
        assert!(store.recovery().dropped_bytes > 0);
        // The tail was truncated away; appending continues cleanly.
        store.append_report(report("c", 3, true)).unwrap();
        drop(store);
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.recovery().clean());
        assert_eq!(store.reports_len(), 2);
    }

    #[test]
    fn newer_format_version_is_refused_not_dropped() {
        let dir = TempDir::new("store-vers");
        std::fs::write(
            dir.path().join(WAL),
            "{\"k\":\"header\",\"format\":\"gadt-store\",\"version\":99}\n",
        )
        .unwrap();
        let err = KnowledgeStore::open(dir.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("newer build"), "{err}");
    }

    #[test]
    fn foreign_header_counts_as_corruption() {
        let dir = TempDir::new("store-foreign");
        std::fs::write(
            dir.path().join(WAL),
            "{\"hello\":\"world\"}\n{\"k\":\"x\"}\n",
        )
        .unwrap();
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.recovery().dropped_lines, 2);
        // The file was reset to a valid header.
        drop(store);
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.recovery().clean());
    }

    #[test]
    fn disk_fingerprint_tracks_bytes() {
        let dir = TempDir::new("store-fp");
        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        let empty = store.disk_fingerprint().unwrap();
        store.append_report(report("a", 1, true)).unwrap();
        store.sync().unwrap();
        let one = store.disk_fingerprint().unwrap();
        assert_ne!(empty, one);
        // Idempotent re-append leaves the bytes alone.
        store.append_report(report("a", 1, true)).unwrap();
        store.sync().unwrap();
        assert_eq!(store.disk_fingerprint().unwrap(), one);
    }
}
