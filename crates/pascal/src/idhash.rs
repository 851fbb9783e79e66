//! A fast hasher for maps keyed by sequentially issued ids, and the
//! workspace's one FNV-1a step for digests that must stay stable.
//!
//! The parser, sema and the VM hand out statement, expression, variable,
//! procedure and frame ids as small consecutive integers, and the side
//! tables keyed by them are looked up on every name, statement and
//! traced step. The standard library's SipHash resists hash flooding,
//! but a program cannot choose its ids, so that costs time and buys
//! nothing here. [`IdHasher`] is an FxHash-style multiply-rotate hasher
//! instead.
//!
//! Maps keyed by identifier text (scopes, CFG labels) or by runtime
//! values (array indices) keep SipHash: source text and program inputs
//! may come from untrusted clients, and those keys are theirs to choose.
//!
//! Digests that are pinned, persisted or compared across runs (corpus
//! and store fingerprints, campaign verdict keys, shard routing, event
//! stream digests) fold their bytes with [`fnv1a`], starting from
//! [`FNV1A_OFFSET`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher for integer ids: each word is folded in with a
/// rotate, xor and multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The odd multiplier of FxHash (from Firefox's hash table).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a `hash`: an xor and a multiply by the
/// FNV prime per byte. Feeding a byte string in pieces gives the same
/// hash as feeding it whole.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn consecutive_ids_hash_apart() {
        let hashes: std::collections::BTreeSet<u64> =
            (0..10_000).map(|i| hash_of(StmtId(i))).collect();
        assert_eq!(hashes.len(), 10_000);
        // The high bits pick the control byte and the low bits the
        // bucket; both must vary across neighbouring ids.
        let high: std::collections::BTreeSet<u64> =
            (0..256).map(|i| hash_of(StmtId(i)) >> 57).collect();
        assert!(high.len() > 64, "{} distinct top-7-bit values", high.len());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<(u64, StmtId), usize> = IdMap::default();
        for i in 0..1000u32 {
            m.insert((u64::from(i % 7), StmtId(i)), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(3, StmtId(10))], 10);
        assert_eq!(m.get(&(4, StmtId(10))), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_in_any_split() {
        // The published FNV-1a 64-bit vectors for "" and "a".
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let whole = fnv1a(FNV1A_OFFSET, b"foobar");
        assert_eq!(whole, 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"), whole);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IdHasher::default();
        a.write(b"abcdefghi");
        let mut b = IdHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
