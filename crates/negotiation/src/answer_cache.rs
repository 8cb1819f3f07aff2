//! Remote-answer caching for negotiations.
//!
//! The engine's answer table (`peertrust_engine::table`) memoizes *local*
//! derivations; this module memoizes the expensive step the paper's
//! scenarios repeat most — full inter-peer query round-trips. Two layers:
//!
//! * **Per-session** (inside `Session`, on by default via
//!   [`crate::SessionConfig::cache_remote_answers`]): within one
//!   negotiation, a repeat of an already-answered `(requester, responder,
//!   canonical goal)` query returns the previously accepted answers
//!   without touching the network. Credential pushes are not repeated —
//!   the requester already holds the rules from the first exchange.
//! * **Cross-negotiation** ([`SharedRemoteAnswerCache`], opt-in via
//!   [`crate::NegotiateOptions::cache`]): a cache that survives
//!   negotiations, with a TTL in network ticks and invalidation on
//!   disclosure-set change (the responder's knowledge base growing means
//!   its answer set may have grown too). Only answers released under a
//!   **public** context
//!   ever enter this cache: a context-guarded release was licensed for
//!   one specific requester at one specific point of a negotiation, and
//!   replaying it outside that exchange would bypass the release policy.
//!
//! Both layers cache only *non-empty* answer sets. Disclosure sets grow
//! monotonically, so a query that failed once may succeed later — caching
//! failures would freeze a negotiation's progress.

use parking_lot::Mutex;
use peertrust_core::{Literal, PeerId};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: who asked, who answered, and the canonical (variant-normal)
/// form of the query. The requester is part of the key because release
/// policies bind `Requester` — different requesters legitimately receive
/// different answer sets for the same goal.
pub type CacheKey = (PeerId, PeerId, Literal);

/// Usage counters, exported into the telemetry registry by the session.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries dropped because the responder's disclosure set changed.
    pub invalidated: u64,
    /// Entries dropped by the TTL.
    pub expired: u64,
}

struct Entry {
    answers: Vec<Literal>,
    inserted_at: u64,
    /// Responder KB size at insert time — the disclosure-set fingerprint.
    /// KBs are insert-only, so a changed length means new rules arrived.
    responder_kb_len: usize,
}

/// Cross-negotiation remote-answer cache. Sessions reach it through a
/// [`SharedRemoteAnswerCache`]; wrap a pre-warmed or TTL-configured
/// instance with [`SharedRemoteAnswerCache::from_cache`] and share that
/// across [`crate::negotiate`] calls over the same `PeerMap`/network.
pub struct RemoteAnswerCache {
    /// `None` = no expiry; `Some(t)` = entries older than `t` ticks lapse.
    ttl_ticks: Option<u64>,
    entries: HashMap<CacheKey, Entry>,
    stats: CacheStats,
}

impl RemoteAnswerCache {
    /// A cache whose entries never expire by age (disclosure-set
    /// invalidation still applies).
    pub fn new() -> RemoteAnswerCache {
        RemoteAnswerCache {
            ttl_ticks: None,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// A cache whose entries lapse `ttl_ticks` network ticks after
    /// insertion.
    pub fn with_ttl(ttl_ticks: u64) -> RemoteAnswerCache {
        RemoteAnswerCache {
            ttl_ticks: Some(ttl_ticks),
            ..RemoteAnswerCache::new()
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop every entry (keeps the stats).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Cached answers for `(requester, responder, canonical)`, checking
    /// freshness against the current tick and the responder's current KB
    /// size. Stale entries are evicted on the spot.
    pub fn lookup(
        &mut self,
        requester: PeerId,
        responder: PeerId,
        canonical: &Literal,
        now: u64,
        responder_kb_len: usize,
    ) -> Option<Vec<Literal>> {
        let key = (requester, responder, canonical.clone());
        let Some(entry) = self.entries.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        if entry.responder_kb_len != responder_kb_len {
            self.entries.remove(&key);
            self.stats.invalidated += 1;
            self.stats.misses += 1;
            return None;
        }
        if let Some(ttl) = self.ttl_ticks {
            if now.saturating_sub(entry.inserted_at) > ttl {
                self.entries.remove(&key);
                self.stats.expired += 1;
                self.stats.misses += 1;
                return None;
            }
        }
        self.stats.hits += 1;
        Some(self.entries[&key].answers.clone())
    }

    /// Record a fully public, verified answer set. Callers must ensure
    /// every answer was released under a public context — guarded answers
    /// never cross negotiations (see the module docs).
    pub fn insert(
        &mut self,
        requester: PeerId,
        responder: PeerId,
        canonical: Literal,
        answers: Vec<Literal>,
        now: u64,
        responder_kb_len: usize,
    ) {
        if answers.is_empty() {
            return;
        }
        self.stats.inserts += 1;
        self.entries.insert(
            (requester, responder, canonical),
            Entry {
                answers,
                inserted_at: now,
                responder_kb_len,
            },
        );
    }
}

impl Default for RemoteAnswerCache {
    fn default() -> Self {
        RemoteAnswerCache::new()
    }
}

/// A [`RemoteAnswerCache`] shareable between negotiation sessions, on one
/// thread or on many (the batch scheduler's warm-cache mode): the handle
/// [`crate::NegotiateOptions::cache`] takes.
///
/// One mutex around the whole cache, not sharding: a session touches the
/// cross-negotiation cache only at remote-query boundaries (a handful of
/// times per negotiation, between network round-trips that dwarf the
/// critical section), so contention here is negligible and the simple
/// lock keeps hit/miss accounting exactly as sequential runs report it.
#[derive(Clone, Default)]
pub struct SharedRemoteAnswerCache {
    inner: Arc<Mutex<RemoteAnswerCache>>,
}

impl SharedRemoteAnswerCache {
    /// An empty cache with no TTL.
    pub fn new() -> SharedRemoteAnswerCache {
        SharedRemoteAnswerCache::default()
    }

    /// Wrap an existing (possibly pre-warmed or TTL-configured) cache.
    pub fn from_cache(cache: RemoteAnswerCache) -> SharedRemoteAnswerCache {
        SharedRemoteAnswerCache {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Drop every entry (keeps the stats).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// See [`RemoteAnswerCache::lookup`].
    pub fn lookup(
        &self,
        requester: PeerId,
        responder: PeerId,
        canonical: &Literal,
        now: u64,
        responder_kb_len: usize,
    ) -> Option<Vec<Literal>> {
        self.inner
            .lock()
            .lookup(requester, responder, canonical, now, responder_kb_len)
    }

    /// See [`RemoteAnswerCache::insert`].
    pub fn insert(
        &self,
        requester: PeerId,
        responder: PeerId,
        canonical: Literal,
        answers: Vec<Literal>,
        now: u64,
        responder_kb_len: usize,
    ) {
        self.inner.lock().insert(
            requester,
            responder,
            canonical,
            answers,
            now,
            responder_kb_len,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::Term;

    fn lit(n: i64) -> Literal {
        Literal::new("p", vec![Term::int(n)])
    }

    fn peers() -> (PeerId, PeerId) {
        (PeerId::new("alice"), PeerId::new("bob"))
    }

    #[test]
    fn hit_after_insert() {
        let (a, b) = peers();
        let mut c = RemoteAnswerCache::new();
        assert!(c.lookup(a, b, &lit(0), 0, 5).is_none());
        c.insert(a, b, lit(0), vec![lit(1)], 0, 5);
        assert_eq!(c.lookup(a, b, &lit(0), 100, 5).unwrap(), vec![lit(1)]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn requester_is_part_of_the_key() {
        let (a, b) = peers();
        let mut c = RemoteAnswerCache::new();
        c.insert(a, b, lit(0), vec![lit(1)], 0, 5);
        assert!(c.lookup(PeerId::new("carol"), b, &lit(0), 0, 5).is_none());
    }

    #[test]
    fn kb_growth_invalidates() {
        let (a, b) = peers();
        let mut c = RemoteAnswerCache::new();
        c.insert(a, b, lit(0), vec![lit(1)], 0, 5);
        // Responder learned a new rule since: entry evicted.
        assert!(c.lookup(a, b, &lit(0), 1, 6).is_none());
        assert_eq!(c.stats().invalidated, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_expires_entries() {
        let (a, b) = peers();
        let mut c = RemoteAnswerCache::with_ttl(10);
        c.insert(a, b, lit(0), vec![lit(1)], 100, 5);
        assert!(c.lookup(a, b, &lit(0), 110, 5).is_some());
        assert!(c.lookup(a, b, &lit(0), 111, 5).is_none());
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn shared_cache_is_one_cache_across_clones() {
        let (a, b) = peers();
        let shared = SharedRemoteAnswerCache::new();
        let other = shared.clone();
        shared.insert(a, b, lit(0), vec![lit(1)], 0, 5);
        assert_eq!(other.lookup(a, b, &lit(0), 0, 5).unwrap(), vec![lit(1)]);
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(other.len(), 1);
    }

    #[test]
    fn shared_cache_concurrent_inserts_and_lookups() {
        let shared = SharedRemoteAnswerCache::new();
        std::thread::scope(|scope| {
            for t in 0..8i64 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let (a, b) = peers();
                    for i in 0..16 {
                        let g = lit(t * 100 + i);
                        shared.insert(a, b, g.clone(), vec![lit(1)], 0, 5);
                        assert!(shared.lookup(a, b, &g, 0, 5).is_some());
                    }
                });
            }
        });
        assert_eq!(shared.len(), 8 * 16);
        assert_eq!(shared.stats().inserts, 8 * 16);
        assert_eq!(shared.stats().hits, 8 * 16);
    }

    /// Multi-threaded stress over one shared cache with both staleness
    /// guards live: phase 1 populates under KB length 5 and tick 0, then
    /// a "KB mutation" (responder length 6) and a TTL overrun happen,
    /// and phase 2 hammers the same keys from many threads. No thread
    /// may ever read a stale answer — every phase-2 lookup must either
    /// miss (evicting the stale entry) or return the value re-inserted
    /// under the new fingerprint.
    #[test]
    fn shared_cache_never_serves_stale_answers_under_concurrency() {
        const THREADS: i64 = 8;
        const KEYS: i64 = 16;
        let (a, b) = peers();
        let shared = SharedRemoteAnswerCache::from_cache(RemoteAnswerCache::with_ttl(10));

        // Phase 1: populate. Even keys will go stale via KB growth, odd
        // keys via TTL (inserted at tick 0, re-read at tick 100).
        for k in 0..KEYS {
            shared.insert(a, b, lit(k), vec![lit(-1)], 0, 5);
        }
        assert_eq!(shared.len(), KEYS as usize);

        // Phase 2: the responder's KB grew to 6 and the clock jumped past
        // the TTL. Every thread revalidates every key and re-inserts the
        // fresh answer; whatever interleaving happens, a hit must carry
        // the fresh value.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let shared = shared.clone();
                scope.spawn(move || {
                    for k in 0..KEYS {
                        let g = lit(k);
                        match shared.lookup(a, b, &g, 100, 6) {
                            None => shared.insert(a, b, g, vec![lit(t)], 100, 6),
                            Some(answers) => {
                                assert_ne!(
                                    answers,
                                    vec![lit(-1)],
                                    "stale pre-mutation answer served for key {k}"
                                );
                            }
                        }
                    }
                });
            }
        });

        // Every stale entry was evicted exactly once, by whichever guard
        // fired first for its key (the KB check precedes the TTL check).
        let stats = shared.stats();
        assert_eq!(stats.invalidated + stats.expired, KEYS as u64);
        assert_eq!(stats.invalidated, KEYS as u64, "kb check fires first");
        // And the re-populated cache now serves only fresh answers.
        assert_eq!(shared.len(), KEYS as usize);
        for k in 0..KEYS {
            let answers = shared.lookup(a, b, &lit(k), 100, 6).expect("fresh entry");
            assert_ne!(answers, vec![lit(-1)]);
        }
    }

    /// TTL expiry and fingerprint invalidation keep working when the
    /// mutation happens *between* concurrent readers: half the threads
    /// read with the old KB length, half with the new one. Old-length
    /// readers may hit the old value (still valid for that fingerprint)
    /// or miss after a new-length reader evicted it — but a new-length
    /// reader must never see the old value.
    #[test]
    fn concurrent_fingerprint_invalidation_is_monotone() {
        const PAIRS: i64 = 4;
        let (a, b) = peers();
        let shared = SharedRemoteAnswerCache::new();
        for k in 0..PAIRS {
            shared.insert(a, b, lit(k), vec![lit(-1)], 0, 5);
        }
        std::thread::scope(|scope| {
            for t in 0..PAIRS * 2 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let k = t % PAIRS;
                    if t < PAIRS {
                        // Old-fingerprint reader: any hit is the old value.
                        if let Some(answers) = shared.lookup(a, b, &lit(k), 0, 5) {
                            assert_eq!(answers, vec![lit(-1)]);
                        }
                    } else {
                        // New-fingerprint reader: the old value is stale.
                        match shared.lookup(a, b, &lit(k), 0, 6) {
                            None => shared.insert(a, b, lit(k), vec![lit(k)], 0, 6),
                            Some(answers) => assert_eq!(answers, vec![lit(k)]),
                        }
                    }
                });
            }
        });
        // After the dust settles every surviving entry carries the new
        // fingerprint's answer.
        for k in 0..PAIRS {
            if let Some(answers) = shared.lookup(a, b, &lit(k), 0, 6) {
                assert_eq!(answers, vec![lit(k)]);
            }
        }
    }

    #[test]
    fn empty_answer_sets_are_never_cached() {
        let (a, b) = peers();
        let mut c = RemoteAnswerCache::new();
        c.insert(a, b, lit(0), Vec::new(), 0, 5);
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts, 0);
    }
}
