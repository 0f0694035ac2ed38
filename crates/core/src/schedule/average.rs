//! The Average scheduling baseline (paper §VI.C).
//!
//! "It distributes communication resources evenly among all remote
//! operations" — priorities are ignored.

use super::{grant_one_each, Allocation, RemoteRequest, Scheduler};
use rand::rngs::StdRng;

/// Even split: repeatedly grant one pair to each front-layer gate in
/// key order (round-robin) until no gate can take another pair.
#[derive(Clone, Debug, Default)]
pub struct AverageScheduler;

impl Scheduler for AverageScheduler {
    fn name(&self) -> &'static str {
        "Average"
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        _rng: &mut StdRng,
    ) -> Vec<Allocation> {
        // A request with an endpoint at zero free pairs gets nothing this
        // round, so dropping it before the sort changes no grant.
        let mut ordered: Vec<&RemoteRequest> = requests
            .iter()
            .filter(|r| available[r.a.index()] > 0 && available[r.b.index()] > 0)
            .collect();
        // Keys are unique, so the unstable sort is deterministic.
        ordered.sort_unstable_by_key(|r| r.key);
        let mut remaining = available.to_vec();
        let (mut allocations, granted) = grant_one_each(&ordered, &mut remaining);
        // Keep rounding, in key order over the floor's grants, while
        // anyone can still take a pair.
        loop {
            let mut any = false;
            for (slot, req) in allocations.iter_mut().zip(&granted) {
                if remaining[req.a.index()] >= 1 && remaining[req.b.index()] >= 1 {
                    remaining[req.a.index()] -= 1;
                    remaining[req.b.index()] -= 1;
                    slot.pairs += 1;
                    any = true;
                }
            }
            if !any {
                return allocations;
            }
        }
    }

    fn is_pure(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate_allocations;
    use cloudqc_cloud::QpuId;
    use rand::SeedableRng;

    fn req(key: u64, a: usize, b: usize, priority: usize) -> RemoteRequest {
        RemoteRequest {
            key,
            a: QpuId::new(a),
            b: QpuId::new(b),
            priority,
        }
    }

    #[test]
    fn splits_evenly_regardless_of_priority() {
        // Two gates share QPU0 (capacity 6): 3 pairs each even though
        // priorities differ wildly.
        let requests = [req(1, 0, 1, 100), req(2, 0, 2, 0)];
        let available = vec![6, 9, 9];
        let mut rng = StdRng::seed_from_u64(0);
        let allocs = AverageScheduler.allocate(&requests, &available, &mut rng);
        validate_allocations(&requests, &available, &allocs).unwrap();
        assert_eq!(allocs.iter().find(|a| a.key == 1).unwrap().pairs, 3);
        assert_eq!(allocs.iter().find(|a| a.key == 2).unwrap().pairs, 3);
    }

    #[test]
    fn sharded_entry_point_is_shard_order_insensitive() {
        // Key-ordered round-robin: however the request slices are
        // listed, the allocations match the flat pass.
        let s1 = [req(4, 0, 1, 9), req(1, 0, 1, 2)];
        let s2 = [req(3, 1, 2, 5), req(2, 1, 2, 1)];
        let available = vec![5, 7, 5];
        let mut rng = StdRng::seed_from_u64(0);
        let flat: Vec<RemoteRequest> = s1.iter().chain(s2.iter()).copied().collect();
        let global = AverageScheduler.allocate(&flat, &available, &mut rng);
        for shards in [[&s1[..], &s2[..]], [&s2[..], &s1[..]]] {
            let sharded = AverageScheduler.allocate_sharded(&shards, &available, &mut rng);
            assert_eq!(sharded, global);
        }
        validate_allocations(&flat, &available, &global).unwrap();
    }

    #[test]
    fn odd_capacity_rounds_fairly() {
        let requests = [req(1, 0, 1, 0), req(2, 0, 2, 0)];
        let available = vec![5, 9, 9];
        let mut rng = StdRng::seed_from_u64(0);
        let allocs = AverageScheduler.allocate(&requests, &available, &mut rng);
        validate_allocations(&requests, &available, &allocs).unwrap();
        let pairs: Vec<usize> = allocs.iter().map(|a| a.pairs).collect();
        assert_eq!(pairs.iter().sum::<usize>(), 5);
        assert!(pairs.iter().all(|&p| p == 2 || p == 3));
    }
}
