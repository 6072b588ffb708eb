//! Sharded, lock-striped memoization of canonical forms.
//!
//! `COMPUTE & ORDER` is Protocol ELECT's dominant cost: every agent
//! canonicalizes the surrounding `S(u)` of every node of its map
//! (Lemma 3.1), and batch experiments (the E5 sweeps, `qelectctl
//! sweep`) re-evaluate thousands of overlapping instances. This module
//! memoizes [`canonicalize`] and [`ordered_classes`] results behind a
//! cheap structural fingerprint so repeated work is a hash lookup:
//!
//! * [`ShardedCache`] — the generic engine: entries are striped over
//!   independently-locked shards by fingerprint, so concurrent sweep
//!   workers rarely contend. A fingerprint is *not* trusted: each shard
//!   chains entries and falls back to full-key comparison, so a
//!   fingerprint collision costs a counter tick, never a wrong answer.
//!   Per-shard FIFO eviction bounds memory; hit/miss/eviction/collision
//!   counters are surfaced through [`CacheStats`] snapshots taken with
//!   the same double-read discipline as `AgentMetrics::snapshot`.
//! * [`canonicalize_cached`] / [`ordered_classes_cached`] — drop-in
//!   cached equivalents of the eager functions, backed by the
//!   process-wide [`global`] cache pair.
//!
//! ### Why cached `ordered_classes` shares work across agents
//!
//! Each agent draws its *own* map of the network, rooted at its own
//! home-base, so the maps of two agents on one instance are isomorphic
//! but almost never identically labeled — exact-key memoization of the
//! raw instance would miss. [`ordered_classes_cached`] therefore first
//! computes a canonical labeling of the plain bi-colored digraph
//! (itself a cached `canonicalize` call), relabels the instance into
//! its canonical representative, looks up the classes of *that*
//! instance, and translates the class node-sets back through the
//! labeling. All isomorphic instances collapse onto one cache key, so
//! `r` agents plus the gcd oracle on one instance compute the classes
//! exactly once. Class order, membership and forms are untouched by the
//! round-trip: both are defined through isomorphism-invariant canonical
//! forms of surroundings (the differential test layer pins this as
//! byte-identity against the uncached path).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::bicolored::Bicolored;
use crate::canon::{canonicalize, CanonResult};
use crate::digraph::ColoredDigraph;
use crate::graph::{Graph, GraphBuilder};
use crate::surrounding::{
    ordered_classes, ordered_classes_with_orbits, EquivClass, OrderedClasses,
};

/// A structural fingerprint function over an encoded key.
pub type Fingerprinter = fn(&[u64]) -> u64;

/// The FNV-1a offset basis: the state [`fnv_extend`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the `u64` words of an encoded key — the default cheap
/// structural fingerprint.
pub fn fnv_fingerprint(words: &[u64]) -> u64 {
    fnv_extend(FNV_OFFSET, words)
}

/// Continue an FNV-1a hash from state `h` over more words, so a key can
/// be hashed piecewise without being collected first:
/// `fnv_extend(fnv_extend(FNV_OFFSET, a), b)` equals the fingerprint of
/// `a` followed by `b`.
pub fn fnv_extend(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        for shift in [0u32, 16, 32, 48] {
            h ^= (w >> shift) & 0xffff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Counter snapshot of one cache (or a sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then inserted).
    pub misses: u64,
    /// Entries dropped by the per-shard FIFO bound.
    pub evictions: u64,
    /// Chain walks past an entry whose fingerprint matched but whose
    /// full key did not (the collision-fallback path).
    pub collisions: u64,
}

impl CacheStats {
    /// Counter increments between an earlier and a later snapshot of
    /// the same (monotone) cache.
    pub fn delta(&self, later: &CacheStats) -> CacheStats {
        CacheStats {
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            evictions: later.evictions - self.evictions,
            collisions: later.collisions - self.collisions,
        }
    }

    /// Component-wise sum (for reporting several caches as one line).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            collisions: self.collisions + other.collisions,
        }
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `hits / lookups`, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// One cached entry: the full key (for collision fallback) plus the
/// shared result.
struct CacheEntry<V> {
    key: Vec<u64>,
    value: Arc<V>,
}

/// One lock stripe: fingerprint → collision chain, plus FIFO order.
struct Shard<V> {
    chains: HashMap<u64, Vec<CacheEntry<V>>>,
    order: VecDeque<u64>,
    len: usize,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            chains: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
        }
    }
}

/// A sharded, lock-striped memo table keyed by encoded `u64` words.
///
/// The value type is wrapped in `Arc` so hits hand out shared results
/// without cloning the payload under the shard lock.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    cap_per_shard: usize,
    fingerprint: Fingerprinter,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// A cache with `shards` independent stripes of at most
    /// `cap_per_shard` entries each, using the default fingerprint.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        Self::with_fingerprinter(shards, cap_per_shard, fnv_fingerprint)
    }

    /// [`ShardedCache::new`] with an explicit fingerprint function —
    /// the test hook that forces every key onto one fingerprint to
    /// exercise the collision-fallback path.
    pub fn with_fingerprinter(
        shards: usize,
        cap_per_shard: usize,
        fingerprint: Fingerprinter,
    ) -> Self {
        assert!(shards > 0 && cap_per_shard > 0, "cache must have capacity");
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            cap_per_shard,
            fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total live entries (sums per-shard lengths; approximate under
    /// concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept: they are cumulative).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.chains.clear();
            s.order.clear();
            s.len = 0;
        }
    }

    /// Look up `key`, computing and inserting on a miss. The compute
    /// closure runs *outside* the shard lock, so a slow canonicalization
    /// never serializes other shards' — or even this shard's — lookups.
    pub fn get_or_insert_with(&self, key: Vec<u64>, compute: impl FnOnce() -> V) -> Arc<V> {
        let fp = (self.fingerprint)(&key);
        let idx = (fp as usize) % self.shards.len();
        if let Some(v) = self.lookup(idx, fp, &key) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return v;
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let value = Arc::new(compute());
        self.insert(idx, fp, key, Arc::clone(&value));
        value
    }

    fn lookup(&self, idx: usize, fp: u64, key: &[u64]) -> Option<Arc<V>> {
        let shard = self.shards[idx].lock();
        let chain = shard.chains.get(&fp)?;
        let mut walked_past = 0u64;
        let mut found = None;
        for entry in chain {
            if entry.key == key {
                found = Some(Arc::clone(&entry.value));
                break;
            }
            walked_past += 1;
        }
        drop(shard);
        if walked_past > 0 {
            self.collisions.fetch_add(walked_past, Ordering::SeqCst);
        }
        found
    }

    fn insert(&self, idx: usize, fp: u64, key: Vec<u64>, value: Arc<V>) {
        let mut shard = self.shards[idx].lock();
        // A racing worker may have inserted the same key while we were
        // computing; keep the first copy and drop ours.
        if let Some(chain) = shard.chains.get(&fp) {
            if chain.iter().any(|e| e.key == key) {
                return;
            }
        }
        if shard.len >= self.cap_per_shard {
            if let Some(old_fp) = shard.order.pop_front() {
                let empty = {
                    let chain = shard
                        .chains
                        .get_mut(&old_fp)
                        .expect("order entries track live chains");
                    chain.remove(0);
                    chain.is_empty()
                };
                if empty {
                    shard.chains.remove(&old_fp);
                }
                shard.len -= 1;
                self.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
        shard
            .chains
            .entry(fp)
            .or_default()
            .push(CacheEntry { key, value });
        shard.order.push_back(fp);
        shard.len += 1;
    }

    /// Consistent counter snapshot: the four counters are loaded twice
    /// and the read retries until both passes agree, the same
    /// tear-avoidance discipline as `AgentMetrics::snapshot`.
    pub fn stats(&self) -> CacheStats {
        loop {
            let first = self.load_counters();
            let second = self.load_counters();
            if first == second {
                return first;
            }
        }
    }

    fn load_counters(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            collisions: self.collisions.load(Ordering::SeqCst),
        }
    }
}

/// Encode a [`ColoredDigraph`] exactly (identity labeling): the memo key
/// under which its canonicalization is stored.
pub fn encode_digraph(d: &ColoredDigraph) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + d.n() + 3 * d.arc_count());
    key.push(d.n() as u64);
    key.push(d.arc_count() as u64);
    key.extend_from_slice(d.node_colors());
    for a in d.arcs() {
        key.push(u64::from(a.from));
        key.push(u64::from(a.to));
        key.push(a.color);
    }
    key
}

/// Encode the *structure* of a bi-colored instance: size, home-bases,
/// and the sorted edge multiset — deliberately ignoring port labels,
/// which surroundings (Definition 3.1) never consult. Two instances
/// with equal encodings have identical [`OrderedClasses`].
pub fn encode_bicolored(bc: &Bicolored) -> Vec<u64> {
    let identity: Vec<usize> = (0..bc.n()).collect();
    encode_bicolored_permuted(bc, &identity)
}

/// [`encode_bicolored`] of the instance relabeled by `perm`
/// (`old → new`), computed arithmetically — byte-identical to
/// `encode_bicolored(&relabel_bicolored(bc, perm))` without constructing
/// the relabeled graph. This keeps the class-cache *hit* path free of
/// graph building; only a miss materializes the representative.
pub fn encode_bicolored_permuted(bc: &Bicolored, perm: &[usize]) -> Vec<u64> {
    let g = bc.graph();
    let mut key = Vec::with_capacity(3 + bc.r() + 2 * g.m());
    key.push(g.n() as u64);
    key.push(g.m() as u64);
    key.push(bc.r() as u64);
    // `Bicolored::new` sorts its home-base list, so the relabeled
    // instance's list is the sorted image.
    let mut homes: Vec<u64> = bc.homebases().iter().map(|&v| perm[v] as u64).collect();
    homes.sort_unstable();
    key.extend(homes);
    let mut edges: Vec<(u64, u64)> = g
        .edges()
        .iter()
        .map(|e| {
            let (u, v) = (perm[e.u] as u64, perm[e.v] as u64);
            (u.min(v), u.max(v))
        })
        .collect();
    edges.sort_unstable();
    for (u, v) in edges {
        key.push(u);
        key.push(v);
    }
    key
}

/// The orbit labels of `canon` carried onto its canonical representative
/// (node `labeling[v]` of the representative is node `v` here), or `None`
/// when the labels are not a well-formed partition — a result replayed
/// from a damaged store then falls back to per-node canonicalization.
fn representative_orbits(canon: &CanonResult) -> Option<Vec<u32>> {
    let n = canon.labeling.len();
    if canon.orbits.len() != n || canon.orbits.iter().any(|&o| o as usize >= n) {
        return None;
    }
    let mut orbits = vec![0u32; n];
    for (old, &new) in canon.labeling.iter().enumerate() {
        *orbits.get_mut(new)? = canon.orbits[old];
    }
    Some(orbits)
}

/// Relabel a bi-colored instance by `perm` (`old → new`), carrying the
/// port labels of each edge endpoint along. Used to map an instance to
/// its canonical representative before a class-cache lookup.
fn relabel_bicolored(bc: &Bicolored, perm: &[usize]) -> Bicolored {
    let g = bc.graph();
    let mut b = GraphBuilder::new(g.n());
    // Insert edges in relabeled sorted order so the rebuilt graph is a
    // pure function of the relabeled edge multiset, not of the source
    // instance's construction order.
    let mut edges: Vec<(usize, usize, u32, u32)> = g
        .edges()
        .iter()
        .map(|e| {
            let (mut u, mut v) = (perm[e.u], perm[e.v]);
            let (mut pu, mut pv) = (e.pu.0, e.pv.0);
            if u > v || (u == v && pu > pv) {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut pu, &mut pv);
            }
            (u, v, pu, pv)
        })
        .collect();
    edges.sort_unstable();
    for (u, v, pu, pv) in edges {
        b.add_edge_with_ports(u, v, crate::graph::Port(pu), crate::graph::Port(pv))
            .expect("relabeled edge stays valid");
    }
    let graph: Graph = b.finish().expect("relabeling preserves connectivity");
    let homes: Vec<usize> = bc.homebases().iter().map(|&v| perm[v]).collect();
    Bicolored::new(graph, &homes).expect("relabeling preserves the placement")
}

/// A write-through observer of canon-cache misses: called with the
/// exact digraph key and the freshly computed result, outside every
/// shard lock. `qelectd` installs one to append each new canonical
/// form to its persistent store; anything installed here must be cheap
/// and must never canonicalize (it runs on the compute path).
pub type CanonObserver = Arc<dyn Fn(&[u64], &CanonResult) + Send + Sync>;

/// The process-wide cache pair behind the `_cached` entry points.
pub struct GraphCaches {
    /// Memoized [`canonicalize`] results, keyed by exact digraph.
    pub canon: ShardedCache<CanonResult>,
    /// Memoized [`ordered_classes`] results, keyed by the structural
    /// encoding of the *canonical representative* of an instance.
    pub classes: ShardedCache<OrderedClasses>,
    enabled: AtomicBool,
    /// Fast-path flag for [`GraphCaches::canon_observer`]; avoids the
    /// mutex on every lookup when no observer is installed (the
    /// overwhelmingly common case).
    observing: AtomicBool,
    observer: Mutex<Option<CanonObserver>>,
}

/// Shards of each global cache (lock striping width).
pub const GLOBAL_SHARDS: usize = 16;
/// Per-shard entry bound of each global cache.
pub const GLOBAL_SHARD_CAP: usize = 512;

impl GraphCaches {
    fn new() -> Self {
        GraphCaches {
            canon: ShardedCache::new(GLOBAL_SHARDS, GLOBAL_SHARD_CAP),
            classes: ShardedCache::new(GLOBAL_SHARDS, GLOBAL_SHARD_CAP),
            enabled: AtomicBool::new(true),
            observing: AtomicBool::new(false),
            observer: Mutex::new(None),
        }
    }

    /// Install (or remove, with `None`) the canon-miss observer. The
    /// observer sees every canonicalization the `_cached` entry points
    /// compute from scratch — exactly the entries a persistent
    /// canonical-form store must capture to make a restart warm.
    /// Directly seeding the cache with `canon.get_or_insert_with` does
    /// *not* fire it, so replaying a store never re-persists.
    pub fn set_canon_observer(&self, observer: Option<CanonObserver>) {
        let mut slot = self.observer.lock();
        self.observing.store(observer.is_some(), Ordering::SeqCst);
        *slot = observer;
    }

    /// The currently installed canon-miss observer, if any.
    pub fn canon_observer(&self) -> Option<CanonObserver> {
        if !self.observing.load(Ordering::SeqCst) {
            return None;
        }
        self.observer.lock().clone()
    }

    /// Turn the global caches on or off (off = every `_cached` call
    /// computes eagerly and touches no counters). Benchmarks use this
    /// to time the uncached baseline in-process.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether the `_cached` entry points currently memoize.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Drop every memoized entry in both caches (counters are kept —
    /// they are cumulative process totals). `qelectd` exposes this
    /// through its admin endpoint so cold-cache phases of the serving
    /// benchmark start from an empty memo, not an empty process.
    pub fn clear(&self) {
        self.canon.clear();
        self.classes.clear();
    }

    /// Combined counters of both caches.
    pub fn stats(&self) -> CacheStats {
        self.canon.stats().merge(&self.classes.stats())
    }
}

/// The process-wide [`GraphCaches`] instance.
pub fn global() -> &'static GraphCaches {
    static GLOBAL: OnceLock<GraphCaches> = OnceLock::new();
    GLOBAL.get_or_init(GraphCaches::new)
}

/// A field-less token kept only so the `perfbench` replay harness,
/// which names it, keeps building; it carries no state and changes
/// nothing. See [`canonicalize_cached_with`].
#[derive(Default)]
pub struct CanonSession;

impl CanonSession {
    /// The (stateless) session token.
    pub fn new() -> Self {
        CanonSession
    }
}

/// Shared canon-cache lookup of the `_cached` entry points: compute on
/// a miss and hand the fresh `(key, result)` pair to the installed
/// [`CanonObserver`], if any. The key is cloned only when an observer
/// exists — the common (unobserved) path pays nothing extra.
fn canon_insert(
    caches: &GraphCaches,
    key: Vec<u64>,
    compute: impl FnOnce() -> CanonResult,
) -> Arc<CanonResult> {
    match caches.canon_observer() {
        None => caches.canon.get_or_insert_with(key, compute),
        Some(observe) => {
            let mirror = key.clone();
            caches.canon.get_or_insert_with(key, move || {
                let res = compute();
                observe(&mirror, &res);
                res
            })
        }
    }
}

/// [`canonicalize_cached`] under the name the `perfbench` replay
/// harness calls; it exists only for perfbench and ignores `_session`.
pub fn canonicalize_cached_with(
    _session: &mut CanonSession,
    d: &ColoredDigraph,
) -> Arc<CanonResult> {
    canonicalize_cached(d)
}

/// [`canonicalize`] through the global memo cache.
pub fn canonicalize_cached(d: &ColoredDigraph) -> Arc<CanonResult> {
    let caches = global();
    if !caches.is_enabled() {
        return Arc::new(canonicalize(d));
    }
    canon_insert(caches, encode_digraph(d), || canonicalize(d))
}

/// [`ordered_classes`] through the global memo cache.
///
/// The instance is first mapped to its canonical representative (one
/// cached [`canonicalize`] of the plain bi-colored digraph), the classes
/// of the representative are looked up or computed once, and the class
/// node-sets are translated back through the canonical labeling. All
/// isomorphic instances — every agent's independently-drawn map, plus
/// the oracle's global view — therefore share a single cache entry.
pub fn ordered_classes_cached(bc: &Bicolored) -> OrderedClasses {
    let caches = global();
    if !caches.is_enabled() {
        return ordered_classes(bc);
    }
    let d = ColoredDigraph::from_bicolored(bc);
    let canon = canon_insert(caches, encode_digraph(&d), || canonicalize(&d));
    translate_classes(bc, &canon)
}

/// Shared tail of the class-cache lookup: fetch (or compute) the classes
/// of the canonical representative under `canon.labeling` (`old → new`),
/// then translate the class node-sets back to this instance's labeling.
///
/// A miss reuses the automorphism orbits the instance canonicalization
/// already found: only one surrounding per orbit is canonicalized
/// ([`ordered_classes_with_orbits`]), byte-identical to the per-node
/// computation.
fn translate_classes(bc: &Bicolored, canon: &CanonResult) -> OrderedClasses {
    let caches = global();
    let perm = &canon.labeling;
    let oc = caches
        .classes
        .get_or_insert_with(encode_bicolored_permuted(bc, perm), || {
            // Only a miss pays for materializing the representative.
            let rep = relabel_bicolored(bc, perm);
            match representative_orbits(canon) {
                Some(orbits) => ordered_classes_with_orbits(&rep, &orbits),
                None => ordered_classes(&rep),
            }
        });
    // Translate the canonical class node-sets back to this instance's
    // labeling: new → old.
    let mut inv = vec![0usize; bc.n()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    let classes: Vec<EquivClass> = oc
        .classes
        .iter()
        .map(|c| {
            let mut nodes: Vec<usize> = c.nodes.iter().map(|&v| inv[v]).collect();
            nodes.sort_unstable();
            EquivClass {
                nodes,
                form: c.form.clone(),
                black: c.black,
            }
        })
        .collect();
    OrderedClasses {
        classes,
        ell: oc.ell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn instance(n: usize, homes: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), homes).unwrap()
    }

    /// Held by the tests that depend on the process-global enabled flag:
    /// while one disables the cache, the other's lookups would bypass it.
    static GLOBAL_ENABLED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn hold_enabled_flag() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_ENABLED.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fnv_extends_piecewise() {
        let words = [1u64, 0xdead_beef, 7, u64::MAX];
        assert_eq!(
            fnv_extend(fnv_extend(FNV_OFFSET, &words[..2]), &words[2..]),
            fnv_fingerprint(&words)
        );
        assert_eq!(fnv_fingerprint(&[]), FNV_OFFSET);
    }

    #[test]
    fn second_lookup_hits() {
        let cache: ShardedCache<u64> = ShardedCache::new(4, 8);
        let a = cache.get_or_insert_with(vec![1, 2, 3], || 42);
        let b = cache.get_or_insert_with(vec![1, 2, 3], || unreachable!("must hit"));
        assert_eq!(*a, 42);
        assert_eq!(*b, 42);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn collision_fallback_distinguishes_keys() {
        fn constant(_: &[u64]) -> u64 {
            7
        }
        let cache: ShardedCache<u64> = ShardedCache::with_fingerprinter(4, 8, constant);
        assert_eq!(*cache.get_or_insert_with(vec![1], || 10), 10);
        assert_eq!(*cache.get_or_insert_with(vec![2], || 20), 20);
        assert_eq!(*cache.get_or_insert_with(vec![1], || unreachable!()), 10);
        assert_eq!(*cache.get_or_insert_with(vec![2], || unreachable!()), 20);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert!(
            s.collisions > 0,
            "chain walks past foreign keys are counted"
        );
    }

    #[test]
    fn fifo_eviction_is_counted_and_bounds_len() {
        let cache: ShardedCache<u64> = ShardedCache::with_fingerprinter(1, 2, |_| 0);
        for i in 0..5u64 {
            cache.get_or_insert_with(vec![i], || i);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        // The two newest survive; the oldest were evicted (recompute).
        let mut recomputed = false;
        cache.get_or_insert_with(vec![0], || {
            recomputed = true;
            0
        });
        assert!(recomputed);
    }

    #[test]
    fn cached_classes_match_uncached() {
        for (n, homes) in [(5usize, vec![0usize]), (6, vec![0, 3]), (6, vec![0, 2, 3])] {
            let bc = instance(n, &homes);
            let eager = ordered_classes(&bc);
            let cached = ordered_classes_cached(&bc);
            assert_eq!(cached.ell, eager.ell);
            assert_eq!(cached.k(), eager.k());
            for (c, e) in cached.classes.iter().zip(eager.classes.iter()) {
                assert_eq!(c.nodes, e.nodes);
                assert_eq!(c.form, e.form);
                assert_eq!(c.black, e.black);
            }
        }
    }

    #[test]
    fn isomorphic_instances_share_one_class_entry() {
        let cache: ShardedCache<OrderedClasses> = ShardedCache::new(2, 16);
        // Two labelings of the same placement-up-to-rotation on C6.
        for homes in [[0usize, 3], [1, 4]] {
            let bc = instance(6, &homes);
            let d = ColoredDigraph::from_bicolored(&bc);
            let canon = canonicalize(&d);
            let canon_bc = relabel_bicolored(&bc, &canon.labeling);
            cache.get_or_insert_with(encode_bicolored(&canon_bc), || ordered_classes(&canon_bc));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1), "isomorphic instances collapse");
    }

    #[test]
    fn relabeling_preserves_structure() {
        let bc = instance(6, &[0, 2, 3]);
        let perm = [3, 5, 0, 1, 4, 2];
        let r = relabel_bicolored(&bc, &perm);
        assert_eq!(r.n(), 6);
        assert_eq!(r.graph().m(), bc.graph().m());
        let homes: Vec<usize> = bc.homebases().iter().map(|&v| perm[v]).collect();
        let mut sorted = homes.clone();
        sorted.sort_unstable();
        assert_eq!(r.homebases(), &sorted[..]);
        for e in bc.graph().edges() {
            assert!(r
                .graph()
                .edges()
                .iter()
                .any(|f| (f.u, f.v) == (perm[e.u], perm[e.v])
                    || (f.u, f.v) == (perm[e.v], perm[e.u])));
        }
    }

    #[test]
    fn session_canonicalize_matches_cold() {
        let mut session = CanonSession::new();
        for homes in [vec![0usize, 17], vec![2, 19]] {
            let bc = instance(36, &homes);
            let d = ColoredDigraph::from_bicolored(&bc);
            let warm = canonicalize_cached_with(&mut session, &d);
            let cold = canonicalize(&d);
            assert_eq!(warm.form, cold.form);
            assert_eq!(warm.labeling, cold.labeling);
            assert_eq!(warm.orbits, cold.orbits);
        }
    }

    #[test]
    fn disabled_cache_computes_eagerly() {
        // Note: the enabled flag is process-global, so this test only
        // checks the *correctness* of the disabled path — concurrent
        // tests may interleave counter traffic, so no counter asserts.
        let bc = instance(5, &[0]);
        let _flag = hold_enabled_flag();
        global().set_enabled(false);
        let oc = ordered_classes_cached(&bc);
        let canon = canonicalize_cached(&ColoredDigraph::from_bicolored(&bc));
        global().set_enabled(true);
        assert_eq!(oc.k(), ordered_classes(&bc).k());
        assert_eq!(
            canon.form,
            canonicalize(&ColoredDigraph::from_bicolored(&bc)).form
        );
    }

    #[test]
    fn canon_observer_sees_misses_not_hits_or_seeds() {
        // The observer is process-global; use a distinctive instance so
        // concurrent tests' traffic cannot be mistaken for ours.
        let _flag = hold_enabled_flag();
        let bc = instance(46, &[0, 9, 21]);
        let d = ColoredDigraph::from_bicolored(&bc);
        let key = encode_digraph(&d);
        let observed: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&observed);
        global().set_canon_observer(Some(Arc::new(move |k: &[u64], r: &CanonResult| {
            assert!(!r.form.0.is_empty());
            sink.lock().push(k.to_vec());
        })));
        // First cached lookup: a miss — the observer must see our key.
        let cold = canonicalize_cached(&d);
        let count_after_miss = observed.lock().iter().filter(|k| **k == key).count();
        assert_eq!(count_after_miss, 1, "the miss fires the observer once");
        // Second lookup: a hit — no new observation of our key.
        let warm = canonicalize_cached(&d);
        assert_eq!(warm.form, cold.form);
        let count_after_hit = observed.lock().iter().filter(|k| **k == key).count();
        assert_eq!(count_after_hit, 1, "hits never fire the observer");
        // Direct seeding (the store-replay path) bypasses the observer.
        let bc2 = instance(46, &[0, 9, 22]);
        let d2 = ColoredDigraph::from_bicolored(&bc2);
        let key2 = encode_digraph(&d2);
        let seeded = canonicalize(&d2);
        global()
            .canon
            .get_or_insert_with(key2.clone(), move || seeded);
        assert!(
            !observed.lock().contains(&key2),
            "direct seeding must not re-persist"
        );
        global().set_canon_observer(None);
        assert!(global().canon_observer().is_none());
    }

    #[test]
    fn stats_delta_and_rates() {
        let a = CacheStats {
            hits: 2,
            misses: 2,
            evictions: 0,
            collisions: 1,
        };
        let b = CacheStats {
            hits: 6,
            misses: 3,
            evictions: 1,
            collisions: 1,
        };
        let d = a.delta(&b);
        assert_eq!(
            d,
            CacheStats {
                hits: 4,
                misses: 1,
                evictions: 1,
                collisions: 0
            }
        );
        assert!((b.hit_rate() - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let m = a.merge(&b);
        assert_eq!(m.lookups(), 13);
    }
}
