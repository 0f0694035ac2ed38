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
//! Inside one pass, admission looks up each failing key once: only an
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
//! The cache is **bounded** at [`PlacementCache::CAPACITY`] entries: a
//! miss that would overflow it first clears it whole, the rule
//! CloudQC's split memo follows too, so a long-lived service facing an
//! unbounded stream of distinct signatures stays bounded instead of
//! leaking memory. No recency order is kept, since steady traffic stays
//! well under the bound. A clear never affects correctness — a
//! re-lookup of a cleared signature recomputes the same pure function —
//! and every entry it drops is counted in [`CacheStats::evictions`].
//!
//! No entry goes stale: the key holds the exact free vector the
//! algorithm placed against, so a cached placement fits every status it
//! is looked up under (debug builds check [`Placement::fits`] on every
//! hit), and a key is computed again only after a clear dropped it.

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
    /// Lookups that ran the placement algorithm: one per distinct key
    /// ever looked up, plus one per re-lookup of a key that a clear
    /// dropped.
    pub misses: u64,
    /// Entries dropped by clearing a full cache (see
    /// [`PlacementCache::CAPACITY`]).
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

/// A bounded memo table over [`PlacementAlgorithm::place`] calls,
/// cleared whole when full.
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
#[derive(Clone, Default)]
pub struct PlacementCache {
    /// Signature → outcome. Lookup only — iteration order is never
    /// observed, so the map cannot perturb determinism.
    map: HashMap<CacheKey, Result<Placement, PlacementError>>,
    stats: CacheStats,
    /// (algorithm name, QPU count) of the first lookup — the
    /// one-algorithm-one-cloud contract, enforced in debug builds.
    bound_to: Option<(&'static str, usize)>,
}

impl PlacementCache {
    /// Most entries the cache holds: plenty for the recurring
    /// signatures of steady-state traffic (shapes × nearby free vectors
    /// × seeds), small enough that a service facing millions of
    /// distinct signatures stays bounded.
    pub const CAPACITY: usize = 8192;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
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

    /// Memoized [`PlacementAlgorithm::place`], keyed by
    /// `circuit.fingerprint()`. The circuit memoizes its fingerprint in
    /// the gate body its clones share, so the key costs one O(gates)
    /// pass per shape, not one per lookup.
    ///
    /// A hit requires key equality only: the key holds `status`'s exact
    /// free vector, so a cached placement fits `status` exactly when
    /// the algorithm's own result did. A miss on a full cache clears it
    /// before memoizing the new outcome.
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
        if let Some(value) = self.map.get(&key) {
            debug_assert!(
                value
                    .as_ref()
                    .map_or(true, |placement| placement.fits(status)),
                "an exact-key hit fits the status it is looked up under"
            );
            self.stats.hits += 1;
            return value.clone();
        }
        self.stats.misses += 1;
        let result = algorithm.place(circuit, cloud, status, seed);
        if self.map.len() >= Self::CAPACITY {
            self.stats.evictions += self.map.len() as u64;
            self.map.clear();
        }
        self.map.insert(key, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;
    use proptest::prelude::*;
    use std::collections::HashSet;

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

    /// A placement algorithm cheap enough to fill the cache past its
    /// bound: every qubit on QPU `seed mod qpu_count`, no search.
    struct StubPlacement;

    impl PlacementAlgorithm for StubPlacement {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn place(
            &self,
            circuit: &Circuit,
            cloud: &Cloud,
            _status: &CloudStatus,
            seed: u64,
        ) -> Result<Placement, PlacementError> {
            let qpu = QpuId::new(seed as usize % cloud.qpu_count());
            Ok(Placement::new(vec![qpu; circuit.num_qubits()]))
        }
    }

    #[test]
    fn a_miss_on_a_full_cache_clears_it_whole() {
        let cloud = CloudBuilder::new(2).computing_qubits(8).build();
        let circuit = Circuit::new(2);
        let place = |cache: &mut PlacementCache, seed: u64| {
            cache
                .place(&StubPlacement, &circuit, &cloud, &cloud.status(), seed)
                .unwrap()
        };
        let cap = PlacementCache::CAPACITY as u64;
        let mut cache = PlacementCache::new();
        let first = place(&mut cache, 1);
        for seed in 2..=cap {
            place(&mut cache, seed);
        }
        // Full, and nothing dropped yet.
        assert_eq!(cache.len(), PlacementCache::CAPACITY);
        assert_eq!(cache.stats().evictions, 0);
        // One more key clears every entry before it is memoized.
        place(&mut cache, cap + 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, cap);
        // Seed 1 was looked up before the clear: it misses once more,
        // with the same outcome, and then hits.
        assert_eq!(place(&mut cache, 1), first);
        assert_eq!(place(&mut cache, 1), first);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, cap + 2));
        // Fill to the bound and cross it a second time.
        for seed in cap + 2..2 * cap {
            place(&mut cache, seed);
        }
        assert_eq!(cache.len(), PlacementCache::CAPACITY);
        place(&mut cache, 2 * cap);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2 * cap);
        assert_eq!((stats.hits, stats.misses), (1, 2 * cap + 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random lookup sequences over few circuits (one too big for
        /// the cloud), statuses and seeds, so that keys repeat: every
        /// lookup equals a direct call, and only a key's first lookup
        /// misses.
        #[test]
        fn every_lookup_equals_the_direct_call(
            lookups in prop::collection::vec((0..3usize, 0..3usize, 0..3u64), 0..40),
        ) {
            let cloud = CloudBuilder::new(3).computing_qubits(8).line_topology().build();
            let circuits = ["ghz_n5", "qft_n14", "bv_n30"].map(|name| catalog::by_name(name).unwrap());
            let statuses: Vec<CloudStatus> = [[0, 0, 0], [3, 0, 0], [0, 8, 2]]
                .iter()
                .map(|used| {
                    let mut status = cloud.status();
                    for (qpu, &n) in used.iter().enumerate() {
                        status.allocate_computing(QpuId::new(qpu), n).unwrap();
                    }
                    status
                })
                .collect();
            let algo = CloudQcPlacement::default();
            let mut cache = PlacementCache::new();
            let mut keys = HashSet::new();
            for &(c, s, seed) in &lookups {
                let (circuit, status) = (&circuits[c], &statuses[s]);
                prop_assert_eq!(
                    cache.place(&algo, circuit, &cloud, status, seed),
                    algo.place(circuit, &cloud, status, seed)
                );
                keys.insert((c, s, seed));
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.misses, keys.len() as u64);
            prop_assert_eq!(stats.hits + stats.misses, lookups.len() as u64);
            prop_assert_eq!(cache.len(), keys.len());
        }
    }
}
