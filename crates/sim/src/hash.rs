//! Fast deterministic hashing for simulator hot paths.
//!
//! The per-access maps (local page tables, access counters, line
//! generations) sit on the critical path of every simulated access, and the
//! standard library's SipHash — designed to resist hash-flooding from
//! untrusted input — costs far more than the table probe it guards. Keys
//! here are simulator-internal page and GPU identifiers, so a
//! multiplicative FxHash-style mix (as used by rustc) is both safe and
//! several times faster. The hasher is fully deterministic: no per-process
//! random state, so a given run hashes identically everywhere, which keeps
//! iteration-order-independent results reproducible across `--jobs`
//! settings.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word-at-a-time hasher (FxHash-style, as in rustc).
///
/// Not resistant to adversarial keys — use only for trusted, internal keys.
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use grit_sim::FxHasher;
///
/// let mut a = FxHasher::default();
/// 42u64.hash(&mut a);
/// let mut b = FxHasher::default();
/// 42u64.hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

/// 64-bit multiplicative constant (golden-ratio derived, same as rustc's).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// `BuildHasher` producing [`FxHasher`]s; zero-sized and deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let b1 = FxBuildHasher::default();
        let b2 = FxBuildHasher::default();
        assert_eq!(b1.hash_one(0xDEAD_BEEFu64), b2.hash_one(0xDEAD_BEEFu64));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((0u32, 1u64)), hash_of((1u32, 0u64)));
    }

    #[test]
    fn byte_writes_match_padded_words() {
        // Partial chunks are zero-padded; identical prefixes differ once a
        // differing byte lands in the chunk.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(7, 70);
        assert_eq!(m.get(&7), Some(&70));
        let mut s: std::collections::HashSet<u64, FxBuildHasher> = Default::default();
        assert!(s.insert(9));
        assert!(s.contains(&9));
    }
}
