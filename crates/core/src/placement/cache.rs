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
//!   identical circuits submitted by different tenants share entries),
//! * the cloud's exact free-computing-capacity vector, and
//! * the placement seed.
//!
//! A hit therefore replays a computation with identical inputs, and the
//! cached result is *provably* what the algorithm would return: cached
//! and uncached runs produce byte-identical schedules (pinned in
//! `tests/runtime_golden.rs`).
//!
//! The cache is **bounded**: entries are held in least-recently-used
//! order and capped at [`PlacementCache::with_capacity`] (default, and
//! a service's fixed cap, [`PlacementCache::DEFAULT_CAPACITY`]), so a
//! long-lived service facing an unbounded stream of distinct
//! signatures evicts cold entries instead of leaking memory. Evictions
//! never affect correctness — a re-lookup of an evicted signature
//! recomputes the same pure function — and are counted in
//! [`CacheStats::evictions`].
//!
//! Feasibility is never taken on trust: a cached placement is only
//! reused after [`Placement::fits`] re-validates it against the
//! *actual* status; a stale entry is recomputed and replaced.
//!
//! # The incremental-repair tier
//!
//! With [`PlacementCache::with_repair`] enabled (default off), an
//! exact-key miss gets one more chance before the full pipeline runs:
//! a *near-miss* lookup for an entry with the same fingerprint and seed
//! whose free vector is within one qubit per QPU — the "same circuit,
//! slightly drifted free vector" case. The candidate is patched by
//! [`crate::placement::repair::repair`] (only the qubits on
//! now-overloaded QPUs move) and reused **only** if the patched
//! placement passes the same [`Placement::fits`] guard exact hits are
//! re-validated with; otherwise the lookup falls through to the normal
//! miss path. Successes count in [`CacheStats::repair_hits`] and are
//! memoized under the current key (the next identical lookup is an
//! exact hit); failed patches count in
//! [`CacheStats::repair_fallbacks`]. The tier
//! never consults an RNG and picks its candidate by a deterministic
//! total order, so schedules stay reproducible — but a repaired
//! placement is generally *not* what the full pipeline would have
//! computed, which is why the tier is opt-in and default-off
//! (golden-pinned).

use super::repair::repair;
use super::{Placement, PlacementAlgorithm};
use crate::error::PlacementError;
use cloudqc_circuit::{Circuit, Fingerprint};
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use std::collections::HashMap;

/// Hit/miss/eviction counters of a [`PlacementCache`] (surfaced per run
/// in [`crate::runtime::RunReport`]). A waiter the runtime skips
/// because its key already failed in the same admission pass makes no
/// lookup and counts nowhere.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache with an exact-key entry.
    pub hits: u64,
    /// Lookups that ran the placement algorithm (including
    /// re-validations that found a stale entry, and near-miss repairs
    /// that fell back).
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
    /// Exact misses answered by patching a near-miss entry through the
    /// incremental-repair tier ([`PlacementCache::with_repair`]).
    /// Disjoint from both `hits` and `misses`.
    pub repair_hits: u64,
    /// Near-miss candidates whose patch failed the `fits` guard, so
    /// the lookup fell through to the full pipeline. A subset of
    /// `misses` (every fallback is also counted there).
    pub repair_fallbacks: u64,
}

impl CacheStats {
    /// Lookups answered from the cache (exact or repaired) as a
    /// fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.repair_hits;
        let total = served + self.misses;
        if total == 0 {
            return 0.0;
        }
        served as f64 / total as f64
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
                && self.evictions >= earlier.evictions
                && self.repair_hits >= earlier.repair_hits
                && self.repair_fallbacks >= earlier.repair_fallbacks,
            "snapshot taken from a different cache"
        );
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            repair_hits: self.repair_hits - earlier.repair_hits,
            repair_fallbacks: self.repair_fallbacks - earlier.repair_fallbacks,
        }
    }

    /// Sums another cache's counters into this one — how a fleet
    /// reports federation-wide cache behaviour over its per-backend
    /// caches.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.repair_hits += other.repair_hits;
        self.repair_fallbacks += other.repair_fallbacks;
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
    /// Whether an exact miss may be answered by patching a near-miss
    /// entry (the incremental-repair tier; default off).
    repair: bool,
    /// Signature → slot index. Lookup only — iteration order is never
    /// observed, so the map cannot perturb determinism.
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Reusable slot indices freed by capacity shrinks.
    free: Vec<usize>,
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

    /// An empty cache with the default capacity and the repair tier
    /// off.
    pub fn new() -> Self {
        PlacementCache {
            capacity: Self::DEFAULT_CAPACITY,
            repair: false,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            stats: CacheStats::default(),
            bound_to: None,
        }
    }

    /// Caps the cache at `capacity` entries, evicting
    /// least-recently-used entries first once full (and immediately, if
    /// the cache already holds more).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            let slot = self.evict_lru();
            self.free.push(slot);
        }
        self
    }

    /// Enables (or disables) the incremental-repair tier: an
    /// exact-key miss may be answered by patching a near-miss entry
    /// (same fingerprint and seed, free vector within one qubit per
    /// QPU) through [`crate::placement::repair::repair`],
    /// guarded by [`Placement::fits`]. Default off — repaired
    /// placements can differ from what the full pipeline would return,
    /// so the tier is opt-in (see the module docs).
    pub fn with_repair(mut self, repair: bool) -> Self {
        self.repair = repair;
        self
    }

    /// Whether the incremental-repair tier is enabled.
    pub fn repair_enabled(&self) -> bool {
        self.repair
    }

    /// The entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        let slot = if self.map.len() >= self.capacity {
            // Full: the LRU entry's slot is recycled for the new one.
            let slot = self.evict_lru();
            self.slots[slot] = Slot {
                key: key.clone(),
                value,
                prev: NONE,
                next: NONE,
            };
            slot
        } else if let Some(slot) = self.free.pop() {
            self.slots[slot] = Slot {
                key: key.clone(),
                value,
                prev: NONE,
                next: NONE,
            };
            slot
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NONE,
                next: NONE,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Memoized [`PlacementAlgorithm::place`], computing the circuit's
    /// fingerprint on the fly. Prefer
    /// [`PlacementCache::place_fingerprinted`] when the fingerprint is
    /// already known (the runtime computes each job's once).
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
        self.place_fingerprinted(
            circuit.fingerprint(),
            algorithm,
            circuit,
            cloud,
            status,
            seed,
        )
    }

    /// Memoized [`PlacementAlgorithm::place`] with a precomputed
    /// `fingerprint` (must be `circuit.fingerprint()`).
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
    pub fn place_fingerprinted(
        &mut self,
        fingerprint: Fingerprint,
        algorithm: &dyn PlacementAlgorithm,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        self.place_with(
            fingerprint,
            algorithm.name(),
            cloud.qpu_count(),
            status,
            seed,
            || algorithm.place(circuit, cloud, status, seed),
        )
    }

    /// The lookup/insert core behind [`PlacementCache::place_fingerprinted`],
    /// with the miss-path computation abstracted into `compute`.
    ///
    /// `compute` **must** return exactly what
    /// `algorithm.place(circuit, cloud, status, seed)` would — the
    /// cache memoizes its value under that signature.
    ///
    /// `algorithm_name` and `qpu_count` feed the same one-algorithm,
    /// one-cloud debug binding as the direct entry points.
    ///
    /// # Errors
    ///
    /// Exactly the algorithm's errors; failures are memoized too.
    pub fn place_with(
        &mut self,
        fingerprint: Fingerprint,
        algorithm_name: &'static str,
        qpu_count: usize,
        status: &CloudStatus,
        seed: u64,
        compute: impl FnOnce() -> Result<Placement, PlacementError>,
    ) -> Result<Placement, PlacementError> {
        let bound = (algorithm_name, qpu_count);
        debug_assert_eq!(
            *self.bound_to.get_or_insert(bound),
            bound,
            "a PlacementCache serves one (algorithm, cloud) pair"
        );
        let key = CacheKey {
            fingerprint,
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
        if self.repair {
            if let Some(candidate) = self.best_near_miss(&key) {
                if let Some(patched) = repair(&candidate, status) {
                    self.stats.repair_hits += 1;
                    let result = Ok(patched);
                    // Memoized under the current key: the next
                    // identical lookup is an exact hit.
                    self.insert(key, result.clone());
                    return result;
                }
                self.stats.repair_fallbacks += 1;
            }
        }
        self.stats.misses += 1;
        let result = compute();
        self.insert(key, result.clone());
        result
    }

    /// The best near-miss candidate for `key`: a memoized *success*
    /// with the same fingerprint and seed whose free vector is within
    /// one qubit of `key`'s on every QPU.
    ///
    /// The scan walks the whole map (O(len) — cheap next to the full
    /// pipeline the tier is trying to skip) and the map's iteration
    /// order is unspecified, so the winner is chosen by a
    /// deterministic total order: minimal total drift, then the
    /// lexicographically smallest free vector (unique per fingerprint ×
    /// seed, so the order is total and the scan order cannot leak into
    /// schedules).
    fn best_near_miss(&self, key: &CacheKey) -> Option<Placement> {
        let mut best: Option<(usize, &CacheKey, &Placement)> = None;
        for (candidate, &slot) in &self.map {
            if candidate.fingerprint != key.fingerprint
                || candidate.seed != key.seed
                || candidate.free.len() != key.free.len()
            {
                continue;
            }
            let adjacent = candidate
                .free
                .iter()
                .zip(&key.free)
                .all(|(&a, &b)| a.abs_diff(b) <= 1);
            if !adjacent {
                continue;
            }
            let Ok(placement) = &self.slots[slot].value else {
                continue;
            };
            let distance: usize = candidate
                .free
                .iter()
                .zip(&key.free)
                .map(|(&a, &b)| a.abs_diff(b))
                .sum();
            let better = match &best {
                None => true,
                Some((d, k, _)) => (distance, &candidate.free) < (*d, &k.free),
            };
            if better {
                best = Some((distance, candidate, placement));
            }
        }
        best.map(|(_, _, placement)| placement.clone())
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
        let _ = PlacementCache::new().with_capacity(0);
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
        let fingerprint = circuit.fingerprint();
        const CAPACITY: usize = 512;
        const LOOKUPS: u64 = 2_000_000;
        let mut cache = PlacementCache::new().with_capacity(CAPACITY);
        for seed in 0..LOOKUPS {
            cache
                .place_fingerprinted(fingerprint, &algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap();
        }
        assert_eq!(cache.len(), CAPACITY, "cache exceeded its capacity");
        let stats = cache.stats();
        assert_eq!(stats.misses, LOOKUPS);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, LOOKUPS - CAPACITY as u64);
        // The hottest (most recent) signatures are retained…
        cache
            .place_fingerprinted(
                fingerprint,
                &algo,
                &circuit,
                &cloud,
                &cloud.status(),
                LOOKUPS - 1,
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        // …and the cold ones were evicted (a re-lookup recomputes —
        // same pure function, so correctness is unaffected).
        cache
            .place_fingerprinted(fingerprint, &algo, &circuit, &cloud, &cloud.status(), 0)
            .unwrap();
        assert_eq!(cache.stats().misses, LOOKUPS + 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_not_least_recently_inserted() {
        let cloud = CloudBuilder::new(2).computing_qubits(8).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let fp = circuit.fingerprint();
        let mut cache = PlacementCache::new().with_capacity(2);
        let place = |cache: &mut PlacementCache, seed: u64| {
            cache
                .place_fingerprinted(fp, &algo, &circuit, &cloud, &cloud.status(), seed)
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

    #[test]
    fn shrinking_capacity_evicts_down_and_reuses_slots() {
        let cloud = CloudBuilder::new(2).computing_qubits(8).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let fp = circuit.fingerprint();
        let mut cache = PlacementCache::new().with_capacity(8);
        for seed in 0..8 {
            cache
                .place_fingerprinted(fp, &algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap();
        }
        assert_eq!(cache.len(), 8);
        cache = cache.with_capacity(3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 5);
        // The three most recent survive; refills reuse freed slots
        // without exceeding the new cap.
        for seed in 5..8 {
            cache
                .place_fingerprinted(fp, &algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap();
        }
        assert_eq!(cache.stats().hits, 3);
        for seed in 100..110 {
            cache
                .place_fingerprinted(fp, &algo, &circuit, &cloud, &cloud.status(), seed)
                .unwrap();
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn repair_tier_patches_a_near_miss() {
        // The stub parks both qubits on QPU 0. Cache that at full
        // capacity, then take one qubit of QPU 0 away: the free vector
        // moves by one qubit, the cached placement no longer fits, and
        // the repair tier must reseat exactly one qubit onto QPU 1 —
        // without running the supplier.
        let cloud = CloudBuilder::new(2).computing_qubits(2).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let fp = circuit.fingerprint();
        let mut cache = PlacementCache::new().with_repair(true);
        assert!(cache.repair_enabled());
        let full = cloud.status();
        let cold = cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &full, 1)
            .unwrap();
        assert_eq!(cold.qpu_demand(2), vec![2, 0]);
        let mut tight = cloud.status();
        tight.allocate_computing(QpuId::new(0), 1).unwrap();
        let repaired = cache
            .place_with(fp, "stub", 2, &tight, 1, || {
                panic!("a repaired near-miss must not run the pipeline")
            })
            .unwrap();
        assert!(repaired.fits(&tight));
        assert_eq!(repaired.qpu_demand(2), vec![1, 1]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 1,
                repair_hits: 1,
                ..CacheStats::default()
            }
        );
        // The repaired result was memoized under the drifted key: the
        // same lookup again is a plain hit.
        let warm = cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &tight, 1)
            .unwrap();
        assert_eq!(warm, repaired);
        assert_eq!(cache.stats().hits, 1);
        // Deterministic: an identical cache answers identically.
        let mut replay = PlacementCache::new().with_repair(true);
        replay
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &full, 1)
            .unwrap();
        let again = replay
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &tight, 1)
            .unwrap();
        assert_eq!(again, repaired);
    }

    #[test]
    fn repair_fallback_runs_the_pipeline_when_unpatchable() {
        // One QPU: once capacity shrinks there is nowhere to reseat,
        // so the near-miss candidate must fall back to the supplier.
        let cloud = CloudBuilder::new(1).computing_qubits(2).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let fp = circuit.fingerprint();
        let mut cache = PlacementCache::new().with_repair(true);
        let full = cloud.status();
        cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &full, 4)
            .unwrap();
        let mut tight = cloud.status();
        tight.allocate_computing(QpuId::new(0), 1).unwrap();
        cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &tight, 4)
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 2,
                repair_fallbacks: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn repair_off_by_default_never_touches_near_misses() {
        let cloud = CloudBuilder::new(2).computing_qubits(2).build();
        let algo = StubPlacement;
        let circuit = Circuit::new(2);
        let fp = circuit.fingerprint();
        let mut cache = PlacementCache::new();
        assert!(!cache.repair_enabled());
        cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &cloud.status(), 1)
            .unwrap();
        let mut tight = cloud.status();
        tight.allocate_computing(QpuId::new(0), 1).unwrap();
        cache
            .place_fingerprinted(fp, &algo, &circuit, &cloud, &tight, 1)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.repair_hits, 0);
        assert_eq!(stats.repair_fallbacks, 0);
    }

    #[test]
    fn repair_stats_flow_through_since_merge_and_hit_rate() {
        let earlier = CacheStats {
            hits: 2,
            misses: 2,
            repair_hits: 1,
            repair_fallbacks: 1,
            ..CacheStats::default()
        };
        let mut later = earlier;
        later.merge(&CacheStats {
            hits: 1,
            misses: 1,
            repair_hits: 2,
            ..CacheStats::default()
        });
        let delta = later.since(&earlier);
        assert_eq!(delta.repair_hits, 2);
        assert_eq!(delta.repair_fallbacks, 0);
        // hit_rate counts repaired lookups as served: (3 + 3) / 9.
        assert!((later.hit_rate() - 6.0 / 9.0).abs() < 1e-12);
    }
}
