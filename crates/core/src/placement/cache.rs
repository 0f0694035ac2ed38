//! Placement memoization for the runtime's admission hot path.
//!
//! Profiling the runtime under admission churn shows placement as
//! the dominant cost: every admission pass over the waiting queue would
//! re-run the full Algorithm 1 pipeline (partition sweep × QPU-set
//! search × scoring) per waiter, even when nothing about the problem
//! changed since the last attempt — the typical case for a job that
//! waits through many passes while the cloud drains.
//!
//! [`PlacementCache`] memoizes [`PlacementAlgorithm::place`] outcomes —
//! successes *and* failures — for one fixed (algorithm instance, cloud)
//! pair (each [`crate::runtime::Service`] owns one; debug builds
//! enforce the binding). Repeated failures are answered at two levels.
//! Inside one pass, the engine looks up each failing key once: only an
//! admission changes the free vector, so until the next one a later
//! waiter with the same key waits without a lookup. Across passes, the
//! failure entries answer a key that already failed against the same
//! free vector.
//!
//! Entries are keyed by everything the algorithm can observe beyond
//! that pair:
//!
//! * the circuit's structural [`Fingerprint`] (name-independent, so
//!   identical circuits submitted by different tenants share entries;
//!   the circuit memoizes it in the gate body its clones share, so
//!   keying a lookup costs one O(gates) pass per shape, not per
//!   lookup),
//! * the cloud's exact free-computing-capacity vector, and
//! * the placement seed.
//!
//! A hit therefore replays a computation with identical inputs, and the
//! cached result is *provably* what the algorithm would return: cached
//! and uncached runs produce byte-identical schedules (pinned in
//! `tests/runtime_golden.rs`).
//!
//! The cache is **bounded**: entries are held in least-recently-used
//! order and capped at [`PlacementCache::DEFAULT_CAPACITY`] (a
//! service's fixed cap; [`PlacementCache::with_capacity`] builds a
//! cache with another bound), so a long-lived service facing an
//! unbounded stream of distinct signatures evicts cold entries instead
//! of leaking memory. Evictions never affect correctness — a re-lookup
//! of an evicted signature recomputes the same pure function — and are
//! counted in [`CacheStats::evictions`].
//!
//! Feasibility is never taken on trust: a cached placement is only
//! reused after [`Placement::fits`] re-validates it against the
//! *actual* status; a stale entry is recomputed and replaced.

use super::{Placement, PlacementAlgorithm};
use crate::error::PlacementError;
use cloudqc_circuit::{Circuit, Fingerprint};
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use std::collections::HashMap;

/// Hit/miss/eviction counters of a [`PlacementCache`] (surfaced per run
/// in [`crate::runtime::RunReport`]). Every lookup is one hit or one
/// miss. A waiter the runtime skips because its key already failed in
/// the same admission pass makes no lookup and counts nowhere.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache with an exact-key entry.
    pub hits: u64,
    /// Lookups that ran the placement algorithm (including
    /// re-validations that found a stale entry).
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
    /// Always 0: a lookup is answered only from an exact-key entry.
    /// Kept because `e2ebench` reads it.
    #[doc(hidden)]
    pub repair_hits: u64,
}

impl CacheStats {
    /// Exact hits as a fraction of all lookups (0 when nothing was
    /// looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// The counter deltas accumulated since an `earlier` snapshot of
    /// the same cache — how a long-lived service reports *per-epoch*
    /// stats from its lifetime counters.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `earlier` is not a prefix of `self`
    /// (some counter would go backwards).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        debug_assert!(
            self.hits >= earlier.hits
                && self.misses >= earlier.misses
                && self.evictions >= earlier.evictions,
            "snapshot taken from a different cache"
        );
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            repair_hits: 0,
        }
    }

    /// Sums another cache's counters into this one — how a fleet
    /// reports federation-wide cache behaviour over its per-backend
    /// caches.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: Fingerprint,
    free: Vec<usize>,
    seed: u64,
}

/// Sentinel for "no slot" in the intrusive LRU list.
const NONE: usize = usize::MAX;

/// One memoized outcome, threaded into the recency list.
#[derive(Clone)]
struct Slot {
    key: CacheKey,
    value: Result<Placement, PlacementError>,
    prev: usize,
    next: usize,
}

/// A bounded, LRU-evicting memo table over
/// [`PlacementAlgorithm::place`] calls.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_cloud::CloudBuilder;
/// use cloudqc_core::placement::{CloudQcPlacement, PlacementCache};
///
/// let cloud = CloudBuilder::paper_default(7).build();
/// let circuit = catalog::by_name("qugan_n71").unwrap();
/// let algo = CloudQcPlacement::default();
/// let mut cache = PlacementCache::new();
/// let cold = cache.place(&algo, &circuit, &cloud, &cloud.status(), 3);
/// let warm = cache.place(&algo, &circuit, &cloud, &cloud.status(), 3);
/// assert_eq!(cold, warm);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Clone)]
pub struct PlacementCache {
    capacity: usize,
    /// Signature → slot index. Lookup only — iteration order is never
    /// observed, so the map cannot perturb determinism.
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot (`NONE` when empty).
    head: usize,
    /// Least-recently-used slot (`NONE` when empty) — the eviction
    /// victim.
    tail: usize,
    stats: CacheStats,
    /// (algorithm name, QPU count) of the first lookup — the
    /// one-algorithm-one-cloud contract, enforced in debug builds.
    bound_to: Option<(&'static str, usize)>,
}

impl Default for PlacementCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementCache {
    /// Default entry cap: plenty for the recurring signatures of
    /// steady-state traffic (shapes × nearby free vectors × seeds),
    /// small enough that a service facing millions of distinct
    /// signatures stays bounded.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache capped at `capacity` entries, evicting
    /// least-recently-used entries first once full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlacementCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            head: NONE,
            tail: NONE,
            stats: CacheStats::default(),
            bound_to: None,
        }
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized (signature → outcome) entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NONE;
        self.slots[slot].next = NONE;
    }

    /// Prepends `slot` as the most-recently-used entry.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NONE;
        self.slots[slot].next = self.head;
        if self.head != NONE {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Marks `slot` as just-used.
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Drops the least-recently-used entry; returns its (now unlinked,
    /// unmapped) slot index for reuse.
    fn evict_lru(&mut self) -> usize {
        let slot = self.tail;
        debug_assert_ne!(slot, NONE, "evicting from an empty cache");
        self.unlink(slot);
        self.map.remove(&self.slots[slot].key);
        self.stats.evictions += 1;
        slot
    }

    /// Inserts (or replaces) `key`'s memoized outcome as the
    /// most-recently-used entry, evicting the LRU entry when full.
    fn insert(&mut self, key: CacheKey, value: Result<Placement, PlacementError>) {
        if let Some(&slot) = self.map.get(&key) {
            // A stale entry was recomputed: replace in place.
            self.slots[slot].value = value;
            self.touch(slot);
            return;
        }
        let entry = Slot {
            key: key.clone(),
            value,
            prev: NONE,
            next: NONE,
        };
        let slot = if self.map.len() >= self.capacity {
            // Full: the LRU entry's slot is recycled for the new one.
            let slot = self.evict_lru();
            self.slots[slot] = entry;
            slot
        } else {
            self.slots.push(entry);
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Memoized [`PlacementAlgorithm::place`], keyed by
    /// `circuit.fingerprint()`. The circuit memoizes its fingerprint in
    /// the gate body its clones share, so the key costs one O(gates)
    /// pass per shape, not one per lookup.
    ///
    /// A hit requires key equality *and*, for successes, that the
    /// cached placement still [`Placement::fits`] the actual `status`;
    /// stale entries are recomputed and replaced.
    ///
    /// The algorithm and cloud are *not* part of the key: one cache
    /// serves one (algorithm instance, cloud) pair for its whole life —
    /// each service owns one. Mixing algorithms, tuned
    /// configurations of one algorithm, or clouds through a single
    /// cache is a logic error (hits would replay the wrong pipeline's
    /// result); debug builds panic on an algorithm-name or QPU-count
    /// mismatch.
    ///
    /// # Errors
    ///
    /// Exactly the algorithm's errors; failures are memoized too.
    pub fn place(
        &mut self,
        algorithm: &dyn PlacementAlgorithm,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        let bound = (algorithm.name(), cloud.qpu_count());
        debug_assert_eq!(
            *self.bound_to.get_or_insert(bound),
            bound,
            "a PlacementCache serves one (algorithm, cloud) pair"
        );
        let key = CacheKey {
            fingerprint: circuit.fingerprint(),
            free: (0..status.qpu_count())
                .map(|i| status.free_computing(QpuId::new(i)))
                .collect(),
            seed,
        };
        if let Some(&slot) = self.map.get(&key) {
            let feasible = match &self.slots[slot].value {
                Ok(placement) => placement.fits(status),
                Err(_) => true,
            };
            if feasible {
                self.stats.hits += 1;
                self.touch(slot);
                return self.slots[slot].value.clone();
            }
        }
        self.stats.misses += 1;
        let result = algorithm.place(circuit, cloud, status, seed);
        self.insert(key, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn cloud() -> Cloud {
        CloudBuilder::paper_default(3).build()
    }

    #[test]
    fn hit_replays_the_cold_result() {
        let cloud = cloud();
        let algo = CloudQcPlacement::default();
        let circuit = catalog::by_name("knn_n67").unwrap();
        let mut cache = PlacementCache::new();
        let cold = cache.place(&algo, &circuit, &cloud, &cloud.status(), 9);
        let direct = algo.place(&circuit, &cloud, &cloud.status(), 9);
        let warm = cache.place(&algo, &circuit, &cloud, &cloud.status(), 9);
        assert_eq!(cold.as_ref().ok(), direct.as_ref().ok());
        assert_eq!(cold, warm);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                ..CacheStats::default()
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_seeds_and_statuses_miss() {
        let cloud = cloud();
        let algo = CloudQcPlacement::default();
        let circuit = catalog::by_name("qugan_n71").unwrap();
        let mut cache = PlacementCache::new();
        let mut status = cloud.status();
        cache.place(&algo, &circuit, &cloud, &status, 1).unwrap();
        cache.place(&algo, &circuit, &cloud, &status, 2).unwrap();
        status.allocate_computing(QpuId::new(0), 1).unwrap();
        cache.place(&algo, &circuit, &cloud, &status, 1).unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 3,
                evictions: 0,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn failures_are_memoized() {
        let cloud = CloudBuilder::new(2).computing_qubits(10).build();
        let algo = CloudQcPlacement::default();
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let mut cache = PlacementCache::new();
        let a = cache.place(&algo, &circuit, &cloud, &cloud.status(), 0);
        let b = cache.place(&algo, &circuit, &cloud, &cloud.status(), 0);
        assert!(a.is_err());
        assert_eq!(a, b);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn hit_rate_reporting() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = PlacementCache::with_capacity(0);
    }

    /// A placement algorithm cheap enough to drive millions of cache
    /// fills: every qubit on QPU 0, no search.
    struct StubPlacement;

    impl PlacementAlgorithm for StubPlacement {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn place(
            &self,
            circuit: &Circuit,
            _cloud: &Cloud,
            _status: &CloudStatus,
            _seed: u64,
        ) -> Result<Placement, PlacementError> {
            Ok(Placement::new(vec![QpuId::new(0); circuit.num_qubits()]))
        }
    }

    #[test]
    fn lru_caps_memory_over_millions_of_distinct_signatures() {
        // The long-lived-service scenario: an endless stream of
        // distinct (fingerprint, free-vector, seed) signatures. The
        // unbounded map this replaced grew one entry per signature —
        // a leak; the LRU must stay at its capacity forever.
        let cloud = CloudBuilder::new(2).computing_qubits(8).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        const CAPACITY: usize = 512;
        const LOOKUPS: u64 = 2_000_000;
        let mut cache = PlacementCache::with_capacity(CAPACITY);
        for seed in 0..LOOKUPS {
            cache
                .place(&algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap();
        }
        assert_eq!(cache.len(), CAPACITY, "cache exceeded its capacity");
        let stats = cache.stats();
        assert_eq!(stats.misses, LOOKUPS);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, LOOKUPS - CAPACITY as u64);
        // The hottest (most recent) signatures are retained…
        cache
            .place(&algo, &circuit, &cloud, &cloud.status(), LOOKUPS - 1)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        // …and the cold ones were evicted (a re-lookup recomputes —
        // same pure function, so correctness is unaffected).
        cache
            .place(&algo, &circuit, &cloud, &cloud.status(), 0)
            .unwrap();
        assert_eq!(cache.stats().misses, LOOKUPS + 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_not_least_recently_inserted() {
        let cloud = CloudBuilder::new(2).computing_qubits(8).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let mut cache = PlacementCache::with_capacity(2);
        let place = |cache: &mut PlacementCache, seed: u64| {
            cache
                .place(&algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap()
        };
        place(&mut cache, 1); // miss: {1}
        place(&mut cache, 2); // miss: {1, 2}
        place(&mut cache, 1); // hit — 1 becomes most recent
        place(&mut cache, 3); // miss: evicts 2, not 1
        assert_eq!(cache.stats().evictions, 1);
        place(&mut cache, 1); // still cached
        assert_eq!(cache.stats().hits, 2);
        place(&mut cache, 2); // evicted: recomputes
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.len(), 2);
    }
}
