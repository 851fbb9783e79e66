//! Sharded knowledge stores for concurrent serving.
//!
//! A single [`KnowledgeStore`] serializes every append behind one mutex —
//! fine for a batch campaign, a bottleneck for a server multiplexing
//! many sessions. A [`ShardedStore`] splits the keyspace across `n`
//! independent WAL+snapshot stores in `shard-000/ … shard-NNN/`
//! subdirectories, routed by an FNV-1a hash of the (case-folded) unit
//! name, so appends about different units contend on different locks and
//! compaction runs shard-by-shard in the background.
//!
//! Determinism: the routing hash depends only on the unit name, every
//! shard inherits the [`KnowledgeStore`] guarantees (canonical encoding,
//! idempotent appends, crash recovery), and
//! [`ShardedStore::record_answers`] appends each batch in caller order —
//! so replaying the same sessions produces byte-identical shards at any
//! server thread count.

use crate::record::StoredAnswer;
use crate::store::{KnowledgeStore, SharedStore};
use gadt_pascal::idhash::{fnv1a, FNV1A_OFFSET};
use gadt_pascal::value::Value;
use std::io;
use std::path::{Path, PathBuf};

/// One pending answer append: `(unit, In-values, answer, source)`.
pub type AnswerAppend = (String, Vec<Value>, StoredAnswer, String);

/// A fixed-width shard directory name (`shard-007`).
fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// A set of [`KnowledgeStore`]s sharded by unit name.
///
/// Cloning is cheap: clones share the same shard handles (the `Arc`ed
/// stores), so a clone sees — and contends on — the same data.
#[derive(Clone)]
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<SharedStore>,
}

impl ShardedStore {
    /// Opens (or creates) a sharded store under `dir` with `shards`
    /// shards. When `dir` already holds `shard-*` subdirectories — a
    /// server restart — the existing shard count wins over the argument:
    /// the routing hash is only stable for the count the data was
    /// written with.
    ///
    /// # Errors
    /// Propagates I/O errors and per-shard recovery refusals (e.g. a
    /// newer format version).
    pub fn open(dir: impl AsRef<Path>, shards: usize) -> io::Result<ShardedStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut existing = 0usize;
        while dir.join(shard_dir_name(existing)).is_dir() {
            existing += 1;
        }
        let count = if existing > 0 {
            existing
        } else {
            shards.max(1)
        };
        let mut opened = Vec::with_capacity(count);
        for i in 0..count {
            opened.push(KnowledgeStore::open(dir.join(shard_dir_name(i)))?.into_shared());
        }
        Ok(ShardedStore {
            dir,
            shards: opened,
        })
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard handles, in index order.
    pub fn shards(&self) -> &[SharedStore] {
        &self.shards
    }

    /// Which shard a unit's knowledge lives in (stable: FNV-1a of the
    /// case-folded name, modulo the shard count).
    pub fn shard_index(&self, unit: &str) -> usize {
        (fnv1a(FNV1A_OFFSET, unit.to_ascii_lowercase().as_bytes()) % self.shards.len() as u64)
            as usize
    }

    /// The shard holding a unit's knowledge.
    pub fn shard_for(&self, unit: &str) -> &SharedStore {
        &self.shards[self.shard_index(unit)]
    }

    /// Looks up a stored oracle answer (counts a hit/miss on its shard).
    pub fn lookup_answer(&self, unit: &str, ins: &[Value]) -> Option<StoredAnswer> {
        self.shard_for(unit)
            .lock()
            .expect("shard mutex poisoned")
            .lookup_answer(unit, ins)
    }

    /// Checks for a stored answer without counting a hit or miss on its
    /// shard — the read-only probe used by knowledge-weighted traversal
    /// strategies to weigh questions (see `KnowledgeStore::peek_answer`).
    pub fn peek_answer(&self, unit: &str, ins: &[Value]) -> Option<StoredAnswer> {
        self.shard_for(unit)
            .lock()
            .expect("shard mutex poisoned")
            .peek_answer(unit, ins)
    }

    /// Appends a batch of oracle answers, grouped by shard: each touched
    /// shard is locked once, fed its sub-batch in caller order, and
    /// fsynced before the call returns — an acknowledged batch survives
    /// `kill -9`. Returns how many appends were new (idempotent
    /// duplicates don't count).
    ///
    /// # Errors
    /// Propagates I/O errors; earlier sub-batches may already be
    /// durable.
    pub fn record_answers(&self, batch: &[AnswerAppend]) -> io::Result<usize> {
        let mut by_shard: Vec<Vec<&AnswerAppend>> = vec![Vec::new(); self.shards.len()];
        for entry in batch {
            by_shard[self.shard_index(&entry.0)].push(entry);
        }
        let mut appended = 0usize;
        for (i, group) in by_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut guard = self.shards[i].lock().expect("shard mutex poisoned");
            for (unit, ins, answer, source) in group.iter() {
                if guard.record_answer(unit, ins, answer.clone(), source)? {
                    appended += 1;
                }
            }
            guard.sync()?;
        }
        Ok(appended)
    }

    /// Compacts every shard whose WAL holds more than `threshold`
    /// records (snapshot rewrite + WAL reset). Returns how many shards
    /// were compacted — the background compactor's one-call tick.
    ///
    /// # Errors
    /// Propagates I/O errors from the snapshot rewrite.
    pub fn compact_if_needed(&self, threshold: usize) -> io::Result<usize> {
        let mut compacted = 0usize;
        for shard in &self.shards {
            let mut guard = shard.lock().expect("shard mutex poisoned");
            if guard.wal_records() > threshold {
                guard.compact()?;
                compacted += 1;
            }
        }
        Ok(compacted)
    }

    /// Compacts every shard unconditionally (clean-shutdown path).
    ///
    /// # Errors
    /// Propagates I/O errors from the snapshot rewrite.
    pub fn compact_all(&self) -> io::Result<usize> {
        let mut compacted = 0usize;
        for shard in &self.shards {
            shard.lock().expect("shard mutex poisoned").compact()?;
            compacted += 1;
        }
        Ok(compacted)
    }

    /// Total stored oracle answers across shards.
    pub fn answers_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard mutex poisoned").answers_len())
            .sum()
    }

    /// Total WAL records (beyond headers) across shards.
    pub fn total_wal_records(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard mutex poisoned").wal_records())
            .sum()
    }

    /// An FNV-1a fingerprint over every shard's on-disk bytes, in shard
    /// order — byte-identical shards at any thread count hash equal.
    ///
    /// # Errors
    /// Propagates I/O errors reading the shard files.
    pub fn disk_fingerprint(&self) -> io::Result<String> {
        let mut combined = String::new();
        for shard in &self.shards {
            let fp = shard
                .lock()
                .expect("shard mutex poisoned")
                .disk_fingerprint()?;
            combined.push_str(&fp);
            combined.push('/');
        }
        Ok(format!("{:016x}", fnv1a(FNV1A_OFFSET, combined.as_bytes())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn answer(unit: &str, n: i64) -> AnswerAppend {
        (
            unit.to_string(),
            vec![Value::Int(n)],
            StoredAnswer::Correct,
            "test".to_string(),
        )
    }

    #[test]
    fn routing_is_stable_and_case_insensitive() {
        let dir = TempDir::new("shard-route");
        let s = ShardedStore::open(dir.path(), 4).unwrap();
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_index("ArrSum"), s.shard_index("arrsum"));
        assert_eq!(s.shard_index("decrement"), s.shard_index("decrement"));
    }

    #[test]
    fn batch_appends_route_and_round_trip() {
        let dir = TempDir::new("shard-batch");
        let s = ShardedStore::open(dir.path(), 3).unwrap();
        let units = ["sqrtest", "arrsum", "computs", "comput1", "decrement"];
        let batch: Vec<AnswerAppend> = units.iter().map(|u| answer(u, 7)).collect();
        assert_eq!(s.record_answers(&batch).unwrap(), units.len());
        // Idempotent: the same batch appends nothing new.
        assert_eq!(s.record_answers(&batch).unwrap(), 0);
        assert_eq!(s.answers_len(), units.len());
        for u in units {
            assert_eq!(
                s.lookup_answer(u, &[Value::Int(7)]),
                Some(StoredAnswer::Correct),
                "{u}"
            );
            assert_eq!(s.lookup_answer(u, &[Value::Int(8)]), None);
        }
    }

    #[test]
    fn reopen_preserves_existing_shard_count() {
        let dir = TempDir::new("shard-reopen");
        let s = ShardedStore::open(dir.path(), 5).unwrap();
        s.record_answers(&[answer("partialsums", 1)]).unwrap();
        drop(s);
        // A restart asking for a different count must keep the on-disk
        // layout (the routing hash is count-dependent).
        let reopened = ShardedStore::open(dir.path(), 2).unwrap();
        assert_eq!(reopened.shard_count(), 5);
        assert_eq!(
            reopened.lookup_answer("partialsums", &[Value::Int(1)]),
            Some(StoredAnswer::Correct)
        );
    }

    #[test]
    fn compaction_resets_wals_and_keeps_answers() {
        let dir = TempDir::new("shard-compact");
        let s = ShardedStore::open(dir.path(), 2).unwrap();
        let batch: Vec<AnswerAppend> = (0..10).map(|i| answer(&format!("u{i}"), i)).collect();
        s.record_answers(&batch).unwrap();
        assert!(s.total_wal_records() > 0);
        assert_eq!(s.compact_if_needed(0).unwrap(), 2);
        assert_eq!(s.total_wal_records(), 0);
        assert_eq!(s.answers_len(), 10);
        // Nothing above threshold now.
        assert_eq!(s.compact_if_needed(0).unwrap(), 0);
        assert_eq!(s.compact_all().unwrap(), 2);
    }

    #[test]
    fn fingerprint_is_order_insensitive_for_distinct_unit_batches() {
        // Appends about different units land in different shards (or the
        // same shard in first-occurrence order); replaying the same
        // per-unit sequences yields byte-identical shards.
        let d1 = TempDir::new("shard-fp1");
        let d2 = TempDir::new("shard-fp2");
        let s1 = ShardedStore::open(d1.path(), 4).unwrap();
        let s2 = ShardedStore::open(d2.path(), 4).unwrap();
        let batch: Vec<AnswerAppend> = (0..6).map(|i| answer(&format!("unit{i}"), i)).collect();
        s1.record_answers(&batch).unwrap();
        for entry in &batch {
            s2.record_answers(std::slice::from_ref(entry)).unwrap();
        }
        assert_eq!(
            s1.disk_fingerprint().unwrap(),
            s2.disk_fingerprint().unwrap()
        );
    }
}
