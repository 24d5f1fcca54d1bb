//! A tiny Fx-style hasher for small fixed-size keys.
//!
//! The store's hot path hashes 12-byte op-cache keys and 8-byte canonical
//! hashes on every memoized operation; the standard library's SipHash is
//! DoS-resistant but several times slower than needed for keys that are
//! not attacker-controlled (op discriminants and interner ids). This is
//! the classic Firefox/rustc multiply-rotate hash: one `wrapping_mul` and
//! a rotate per word, quality adequate for `HashMap` bucketing.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over native words (the rustc/Firefox "FxHash").
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn distinct_small_keys_hash_distinctly() {
        // Not a quality suite — just a sanity check that nearby keys in the
        // store's key shape don't collapse to one bucket.
        let build = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for op in 0u8..12 {
            for l in 0u32..32 {
                for r in [0u32, 1, u32::MAX] {
                    seen.insert(build.hash_one((op, l, r)));
                }
            }
        }
        assert_eq!(seen.len(), 12 * 32 * 3, "no collisions on this tiny set");
    }
}
