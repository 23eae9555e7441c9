//! A small, fast, non-cryptographic hasher for in-process hash sets.
//!
//! `std`'s default `SipHash` resists hash flooding, which a simulator
//! hashing its own conflict identities does not need; on the
//! exception-heavy workloads it is a measurable share of a run.
//! [`FxHasher`] is the multiply-rotate scheme rustc uses: fold each
//! input word in with a rotate, xor and one multiply, then rotate the
//! well-mixed high bits down on [`finish`](Hasher::finish) so bucket
//! indices (the low bits) depend on every input.
//!
//! Use it only where iteration order never reaches output — the order
//! of a `HashSet` depends on its hasher, so a set that is iterated into
//! a report must either sort or keep the default hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (from rustc's `FxHasher`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Byte strings, one byte per step: the keys this hasher serves
    /// are integers, which take the word-at-a-time methods below.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`]: `HashSet::<T, FxBuildHasher>::default()`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(hash(&(1u16, 2u64)), hash(&(1u16, 2u64)));
        assert_ne!(hash(&(1u16, 2u64)), hash(&(2u16, 1u64)));
        assert_ne!(hash(&[1u8, 2, 3].as_slice()), hash(&[1u8, 2].as_slice()));
        // A trailing zero byte still changes the hash.
        let (mut a, mut b) = (FxHasher::default(), FxHasher::default());
        a.write(&[7]);
        b.write(&[7, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_addresses_spread_over_low_bits() {
        // Word-aligned addresses differ only above bit 3; a 1024-bucket
        // table indexes by the low 10 bits of the hash. Those must
        // still spread: no bucket may take more than a few times its
        // fair share.
        let mut buckets = vec![0u32; 1024];
        for w in 0..16_384u64 {
            buckets[(hash(&(3u16, 9u64, w * 8)) & 1023) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max <= 16 * 4, "worst bucket holds {max} of 16 expected");
    }
}
