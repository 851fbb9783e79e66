//! A fast hasher for maps keyed by sequentially issued ids.
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
    fn byte_writes_cover_every_byte() {
        let mut a = IdHasher::default();
        a.write(b"abcdefghi");
        let mut b = IdHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
