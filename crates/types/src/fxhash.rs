//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! hash-flooding, which the simulator's page-table maps do not need: their
//! keys are virtual page numbers and table prefixes produced by the
//! simulation itself. [`FxHasher`] folds each word in with one add and one
//! multiply, and [`Hasher::finish`] rotates the well-mixed high product
//! bits down into the low bits the table uses to pick a bucket, so keys
//! that differ only above a power-of-two stride still spread out.
//!
//! The hasher has no per-process state: a map's layout, and therefore its
//! iteration order, is a pure function of its insert/remove history. The
//! `map-iter` analysis rule still flags iteration over [`FxHashMap`]
//! fields and bindings, because that order is an artifact of the hash
//! function rather than of the simulated machine.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the one `rustc-hash` 2 uses).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Rotation applied by [`Hasher::finish`]: brings product bits 38..63,
/// which every input bit influences, down to the bucket-index bits.
const FINISH_ROTATE: u32 = 26;

/// Multiply-rotate hasher for integer keys. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

/// A `HashMap` hashed with [`FxHasher`]; construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_stateless() {
        assert_eq!(hash_of(0x1234_u64), hash_of(0x1234_u64));
        assert_eq!(hash_of((3u8, 77u64)), hash_of((3u8, 77u64)));
        assert_ne!(hash_of((3u8, 77u64)), hash_of((4u8, 77u64)));
    }

    #[test]
    fn power_of_two_strided_keys_spread_over_low_bits() {
        // Keys a power of two apart (4 KiB page numbers 2 MiB apart share
        // their low 9 bits) must not pile into a few buckets: the finishing
        // rotate moves well-mixed bits into the bucket index.
        for n in [256u64, 4096] {
            for stride in 0..40 {
                let mut load = vec![0u32; n as usize];
                for k in 0..n {
                    load[(hash_of(k << stride) & (n - 1)) as usize] += 1;
                }
                let fullest = load.iter().max().copied().unwrap_or(0);
                assert!(
                    fullest <= 16,
                    "stride 2^{stride}: {fullest} keys in one of {n} buckets"
                );
            }
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u8, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(((i % 5) as u8, i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(2, 7)), Some(&14));
        assert_eq!(m.get(&(3, 7)), None);
    }
}
