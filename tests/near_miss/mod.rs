//! A one-qubit near-miss for the placement cache's repair tier, shared
//! by `tests/properties.rs` (its golden and timing ratio) and
//! `tests/work_golden.rs` (its pinned lookups).

use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudStatus};
use cloudqc::core::placement::{CloudQcPlacement, Placement, PlacementAlgorithm, PlacementCache};

/// `algo`'s placement of `circuit` on the idle `cloud`, the status it
/// exactly fills on its busiest QPU, and that status with one more
/// qubit taken there, where the warm placement no longer fits.
pub fn near_miss(
    algo: &CloudQcPlacement,
    circuit: &Circuit,
    cloud: &Cloud,
    seed: u64,
) -> (Placement, CloudStatus, CloudStatus) {
    let warm = algo.place(circuit, cloud, &cloud.status(), seed).unwrap();
    let demand = warm.qpu_demand(cloud.qpu_count());
    let busiest = warm
        .used_qpus()
        .into_iter()
        .max_by_key(|q| demand[q.index()]);
    let busiest = busiest.expect("the warm placement uses a QPU");
    let mut exact = cloud.status();
    let slack = exact.free_computing(busiest) - demand[busiest.index()];
    exact.allocate_computing(busiest, slack).unwrap();
    let mut drifted = exact.clone();
    drifted.allocate_computing(busiest, 1).unwrap();
    assert!(warm.fits(&exact) && !warm.fits(&drifted));
    (warm, exact, drifted)
}

/// A repair-enabled cache holding only `warm`, planted under `status`
/// through the supplier entry point.
pub fn planted(
    algo: &CloudQcPlacement,
    circuit: &Circuit,
    cloud: &Cloud,
    (warm, status): (&Placement, &CloudStatus),
    seed: u64,
) -> PlacementCache {
    let mut cache = PlacementCache::new().with_repair(true);
    let (fp, n) = (circuit.fingerprint(), cloud.qpu_count());
    let planting = cache.place_with(fp, algo.name(), n, status, seed, || Ok(warm.clone()));
    planting.unwrap();
    cache
}
