//! Global string interner and the symbols built on it.
//!
//! Every identifier in a PeerTrust program — predicate names, atoms, quoted
//! strings, variable names, peer names — is interned into a [`Sym`], a
//! 4-byte index into a process-global table. Interning makes term
//! comparison, hashing and unification O(1) on names, which matters because
//! the inference engine compares predicate symbols on every resolution step.
//!
//! The interner deliberately leaks the interned strings: a symbol table for
//! a policy workload is small (thousands of entries) and giving out
//! `&'static str` keeps every downstream type `Copy`-friendly and
//! lifetime-free.
//!
//! The table is sharded 16 ways by an FxHash of the string, with one
//! read-write lock per shard, so concurrent solver threads interning
//! distinct names rarely contend and a writer only stalls readers of its
//! own shard. A symbol's shard is recoverable from its id (the low 4
//! bits), so [`Sym::as_str`] locks exactly one shard too.

use crate::hash::{FxBuildHasher, FxHasher};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

/// An interned string. Cheap to copy, compare and hash.
///
/// Construct with [`Sym::new`] (or the `From<&str>` impl); recover the text
/// with [`Sym::as_str`].
///
/// ```
/// use peertrust_core::symbol::Sym;
/// let a = Sym::new("student");
/// let b = Sym::new("student");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "student");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

/// Shard count; must be a power of two (ids store the shard in the low
/// `SHARD_BITS` bits).
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

#[derive(Default)]
struct Shard {
    map: HashMap<&'static str, u32, FxBuildHasher>,
    strings: Vec<&'static str>,
}

fn shards() -> &'static [RwLock<Shard>; SHARDS] {
    static SHARDS_TABLE: OnceLock<[RwLock<Shard>; SHARDS]> = OnceLock::new();
    SHARDS_TABLE.get_or_init(|| std::array::from_fn(|_| RwLock::new(Shard::default())))
}

fn shard_of(s: &str) -> usize {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    // The map inside the shard uses the same hash; take the *high* bits
    // for shard selection so shard-mates don't collide within the map.
    (h.finish() >> (64 - SHARD_BITS)) as usize
}

impl Sym {
    /// Intern `s`, returning its symbol. Idempotent: all threads racing
    /// on the same string get the same id.
    pub fn new(s: &str) -> Sym {
        let shard_idx = shard_of(s);
        let shard = &shards()[shard_idx];
        // Fast path: already interned (read lock on one shard only).
        {
            let sh = shard.read();
            if let Some(&id) = sh.map.get(s) {
                return Sym(id);
            }
        }
        let mut sh = shard.write();
        // Re-check under the write lock (another thread may have interned it).
        if let Some(&id) = sh.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let local = u32::try_from(sh.strings.len())
            .ok()
            .filter(|l| l.leading_zeros() >= SHARD_BITS)
            .expect("interner overflow");
        let id = (local << SHARD_BITS) | shard_idx as u32;
        sh.strings.push(leaked);
        sh.map.insert(leaked, id);
        Sym(id)
    }

    /// The interned text (read lock on the symbol's own shard).
    pub fn as_str(self) -> &'static str {
        let shard = &shards()[(self.0 & (SHARDS as u32 - 1)) as usize];
        shard.read().strings[(self.0 >> SHARD_BITS) as usize]
    }

    /// Raw index, useful as a dense map key or a deterministic seed.
    /// Encodes the shard in the low bits; unique per symbol but not
    /// contiguous.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

/// The identity of a peer in the network — an interned peer name such as
/// `"E-Learn"`, `"Alice"` or `"UIUC Registrar"`.
///
/// The paper treats peer names as opaque distinguished names; we follow
/// suit. A `PeerId` shows up as the value of `Authority` arguments, the
/// `Requester`/`Self` pseudo-variables, and message endpoints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub Sym);

impl PeerId {
    pub fn new(name: &str) -> PeerId {
        PeerId(Sym::new(name))
    }

    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl From<&str> for PeerId {
    fn from(s: &str) -> PeerId {
        PeerId::new(s)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PeerId({:?})", self.name())
    }
}

/// Well-known symbols used throughout the system. Each is interned on its
/// first call only, in a cell of its own, so later calls skip the
/// interner's shard lock and every symbol is still interned at the moment
/// it was first needed (its `Sym` id does not move).
pub mod well_known {
    use super::Sym;
    use std::sync::OnceLock;

    /// The `Requester` pseudo-variable: bound at disclosure time to the peer
    /// the literal/rule would be sent to (paper §3.1).
    pub fn requester() -> Sym {
        static SYM: OnceLock<Sym> = OnceLock::new();
        *SYM.get_or_init(|| Sym::new("Requester"))
    }

    /// The `Self` pseudo-variable: bound to the local peer's distinguished
    /// name (paper §3.1).
    pub fn self_() -> Sym {
        static SYM: OnceLock<Sym> = OnceLock::new();
        *SYM.get_or_init(|| Sym::new("Self"))
    }

    /// Equality builtin predicate `=`.
    pub fn eq() -> Sym {
        static SYM: OnceLock<Sym> = OnceLock::new();
        *SYM.get_or_init(|| Sym::new("="))
    }

    /// The reserved `true` context/goal.
    pub fn true_() -> Sym {
        static SYM: OnceLock<Sym> = OnceLock::new();
        *SYM.get_or_init(|| Sym::new("true"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("foo");
        let b = Sym::new("foo");
        let c = Sym::new("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "foo");
        assert_eq!(c.as_str(), "bar");
    }

    #[test]
    fn empty_and_unicode_strings_intern() {
        let e = Sym::new("");
        assert_eq!(e.as_str(), "");
        let u = Sym::new("Universität");
        assert_eq!(u.as_str(), "Universität");
    }

    #[test]
    fn peer_id_display() {
        let p = PeerId::new("E-Learn");
        assert_eq!(p.to_string(), "E-Learn");
        assert_eq!(p.name(), "E-Learn");
    }

    #[test]
    fn symbols_are_ordered_consistently() {
        let a = Sym::new("zzz-order-a");
        let b = Sym::new("zzz-order-b");
        // Ordering is by intern index, not lexicographic; it only needs to be
        // a consistent total order.
        assert_eq!(a.cmp(&b), a.cmp(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_interning_yields_same_symbol() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Sym::new("concurrent-key").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn concurrent_interning_of_many_strings_round_trips() {
        // 8 threads × 64 strings, every thread interning the same set in
        // a different order: ids must agree across threads and every id
        // must read back its text (exercises all shards and the
        // write-lock re-check under real contention).
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64u32)
                        .map(|i| {
                            let i = (i + t * 7) % 64;
                            let name = format!("stress-sym-{i}");
                            let sym = Sym::new(&name);
                            assert_eq!(sym.as_str(), name);
                            (i, sym.index())
                        })
                        .collect::<std::collections::BTreeMap<u32, u32>>()
                })
            })
            .collect();
        let maps: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for m in &maps[1..] {
            assert_eq!(m, &maps[0], "intern ids diverged between threads");
        }
    }

    #[test]
    fn ids_recover_their_shard() {
        let s = Sym::new("shard-recovery-probe");
        assert_eq!(
            (s.index() & (SHARDS as u32 - 1)) as usize,
            shard_of("shard-recovery-probe")
        );
    }

    #[test]
    fn well_known_symbols() {
        assert_eq!(well_known::requester().as_str(), "Requester");
        assert_eq!(well_known::self_().as_str(), "Self");
        assert_eq!(well_known::eq().as_str(), "=");
        assert_eq!(well_known::true_().as_str(), "true");
    }
}
