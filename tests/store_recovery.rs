//! Crash-recovery fault injection for the knowledge store: the WAL is
//! truncated at every byte offset and bombarded with random interior
//! corruption (seeded LCG — no external crates), and every case must
//! recover the valid prefix without panicking, heal the file, and
//! report exactly what it kept and dropped. A final test pins that
//! recovery behaviour is independent of the thread count that built
//! the store.

use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_store::{obj, Json, KnowledgeStore, StoredAnswer, StoredReport, TempDir};
use gadt_tgen::{cases, frames, spec};
use std::io;
use std::path::Path;

const WAL: &str = "wal.jsonl";

/// A deterministic LCG (Knuth's MMIX constants) standing in for `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn report(code: &str, n: i64, passed: bool) -> StoredReport {
    StoredReport {
        unit: "arrsum".into(),
        code: code.into(),
        inputs: vec![Value::Int(n), Value::Real(0.5 * n as f64)],
        outputs: vec![Value::Int(n * 2)],
        passed,
    }
}

/// Populates a store with a representative record mix and returns the
/// pristine WAL bytes.
fn seed_store(dir: &Path) -> Vec<u8> {
    let mut store = KnowledgeStore::open(dir).unwrap();
    for (i, code) in [
        "zero.mixed.small",
        "more.positive.large",
        "one.negative.small",
    ]
    .iter()
    .enumerate()
    {
        store
            .append_report(report(code, i as i64 + 1, i % 2 == 0))
            .unwrap();
    }
    store
        .record_answer("p", &[Value::Int(5)], StoredAnswer::Correct, "user")
        .unwrap();
    store
        .record_answer(
            "decrement",
            &[Value::Int(3)],
            StoredAnswer::Incorrect {
                wrong_output: Some(0),
            },
            "simulated user (reference implementation)",
        )
        .unwrap();
    store
        .record_verdict(
            "campaign/pqr/00c0ffee/relop#0@r",
            obj(vec![
                ("s", Json::Str("localized".into())),
                ("unit", Json::Str("r".into())),
            ]),
        )
        .unwrap();
    store.sync().unwrap();
    drop(store);
    std::fs::read(dir.join(WAL)).unwrap()
}

/// Byte offsets one past each complete line (including its newline).
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect()
}

/// Truncating the WAL at *every* byte offset — not just within the last
/// record — always recovers exactly the complete lines before the cut,
/// truncates the partial tail away, and leaves a cleanly appendable
/// file. The counts in the recovery report match the cut arithmetic
/// exactly.
#[test]
fn truncation_at_every_byte_offset_recovers_the_valid_prefix() {
    let dir = TempDir::new("store-truncate");
    let pristine = seed_store(dir.path());
    let ends = line_ends(&pristine);
    assert_eq!(ends.len(), 7, "header + six data records");
    let wal_path = dir.path().join(WAL);

    for cut in 0..pristine.len() {
        std::fs::write(&wal_path, &pristine[..cut]).unwrap();

        let store = KnowledgeStore::open(dir.path()).unwrap();
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let prefix_end = ends.iter().rev().find(|&&e| e <= cut).copied().unwrap_or(0);
        let rec = store.recovery();
        assert_eq!(
            rec.wal_records,
            complete.saturating_sub(1),
            "cut at {cut}: wrong record count"
        );
        assert_eq!(rec.dropped_bytes, cut - prefix_end, "cut at {cut}");
        assert_eq!(
            rec.dropped_lines,
            usize::from(cut > prefix_end),
            "cut at {cut}"
        );
        assert_eq!(rec.recovered_lines(), rec.wal_records);

        // The file healed to its valid prefix (or a fresh header when
        // even the header was cut short).
        let healed = std::fs::read(&wal_path).unwrap();
        if prefix_end > 0 {
            assert_eq!(healed, &pristine[..prefix_end], "cut at {cut}");
        } else {
            assert_eq!(healed, &pristine[..ends[0]], "cut at {cut}: fresh header");
        }
        drop(store);

        // Appending after recovery extends a clean file.
        let mut store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.recovery().clean(), "cut at {cut}: reopen not clean");
        store
            .append_report(report("post.crash.case", 99, true))
            .unwrap();
        store.sync().unwrap();
        drop(store);
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert!(store.recovery().clean());
        assert!(store
            .unit_reports("arrsum")
            .any(|r| r.code == "post.crash.case"));
    }
}

/// Random interior corruption (1–4 flipped bytes per trial, seeded LCG)
/// never panics: recovery either keeps a valid prefix and heals the
/// file — so a reopen is clean and reproduces the same state — or, in
/// the rare case corruption forges a *newer* version header, refuses
/// the file with `InvalidData` instead of guessing.
#[test]
fn random_interior_corruption_never_panics_and_heals() {
    let dir = TempDir::new("store-corrupt");
    let pristine = seed_store(dir.path());
    let wal_path = dir.path().join(WAL);
    let mut rng = Lcg(0x6ad7_5ecc_a11e_d0c5);

    for trial in 0..300 {
        let mut bytes = pristine.clone();
        for _ in 0..=rng.below(3) {
            let pos = rng.below(bytes.len());
            bytes[pos] = (rng.next() & 0xFF) as u8;
        }
        std::fs::write(&wal_path, &bytes).unwrap();

        match KnowledgeStore::open(dir.path()) {
            Ok(store) => {
                let rec = *store.recovery();
                assert!(
                    rec.wal_records <= 6,
                    "trial {trial}: recovered more than was ever written"
                );
                // dropped_bytes accounts for everything past the valid
                // prefix; an empty prefix is healed to a fresh header.
                let healed_len = std::fs::read(&wal_path).unwrap().len();
                let valid_len = bytes.len() - rec.dropped_bytes;
                let header_len = line_ends(&pristine)[0];
                assert_eq!(
                    healed_len,
                    if valid_len == 0 {
                        header_len
                    } else {
                        valid_len
                    },
                    "trial {trial}: drop arithmetic is off"
                );
                let state = store.export_lines();
                drop(store);

                // The healed file replays to the identical state,
                // cleanly.
                let reopened = KnowledgeStore::open(dir.path()).unwrap();
                assert!(reopened.recovery().clean(), "trial {trial}");
                assert_eq!(reopened.export_lines(), state, "trial {trial}");
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    io::ErrorKind::InvalidData,
                    "trial {trial}: only a forged newer-version header may refuse"
                );
            }
        }
    }
}

/// Store bytes are thread-count invariant, so a crash bites the same
/// way no matter how many workers built the WAL: stores built at 1, 2
/// and 8 threads are byte-identical, and after an identical mid-record
/// truncation they recover identical prefixes.
#[test]
fn recovery_is_identical_across_builder_thread_counts() {
    let m = compile(testprogs::SQRTEST).unwrap();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let oracle = cases::arrsum_oracle;
    let engine = gadt_tgen::cases::Engine::default();

    let mut results: Vec<(String, usize, Vec<u8>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let dir = TempDir::new("store-threads");
        let shared = KnowledgeStore::open(dir.path()).unwrap().into_shared();
        let (store, mut rec) = (Some(&shared), gadt_obs::Recorder::disabled());
        cases::run_cases_batch(threads, engine, &m, "arrsum", &tc, &oracle, store, &mut rec)
            .unwrap();
        let fp = shared.lock().unwrap().disk_fingerprint().unwrap();
        let bytes = std::fs::read(dir.path().join(WAL)).unwrap();

        // Chop into the middle of the last record and recover.
        let ends = line_ends(&bytes);
        let cut = (ends[ends.len() - 2] + ends[ends.len() - 1]) / 2;
        drop(shared);
        std::fs::write(dir.path().join(WAL), &bytes[..cut]).unwrap();
        let store = KnowledgeStore::open(dir.path()).unwrap();
        assert_eq!(store.recovery().dropped_lines, 1);
        results.push((fp, store.recovery().wal_records, bytes));
    }

    let (fp0, recovered0, bytes0) = &results[0];
    for (fp, recovered, bytes) in &results[1..] {
        assert_eq!(fp, fp0, "store fingerprint varies with thread count");
        assert_eq!(bytes, bytes0, "WAL bytes vary with thread count");
        assert_eq!(recovered, recovered0, "recovery varies with thread count");
    }
}
