//! FxHash: the rustc-internal multiply-rotate hash, shared by every hot
//! map in the workspace.
//!
//! SipHash (the `std` default) buys DoS resistance we do not need — keys
//! here are interned symbols, small integers and variables derived from
//! policies we loaded ourselves, not attacker-controlled network input —
//! and costs 3-5x more per hash on the short keys the engine uses. The
//! interner always used Fx internally; this module promotes it to a
//! public building block so [`crate::subst::Subst`],
//! [`crate::bindings::Bindings`] and the engine's tables can share one
//! implementation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (identical to rustc's `FxHasher` byte loop).
#[derive(Default, Clone, Debug)]
pub struct FxHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(SEED);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_insert_and_get() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn integer_fast_paths_agree_with_byte_loop() {
        // write_u32 must hash like one 4-byte-wide mix, deterministically.
        let mut a = FxHasher::default();
        a.write_u32(0xdead_beef);
        let mut b = FxHasher::default();
        b.write_u32(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u32(0xdead_bee0);
        assert_ne!(a.finish(), c.finish());
    }
}
