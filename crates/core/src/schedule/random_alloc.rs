//! The Random scheduling baseline (paper §VI.C).
//!
//! "Each remote operation has an equal probability of receiving
//! communication resources."

use super::{grant_one_each, Allocation, RemoteRequest, Scheduler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

/// Random allocation: requests are shuffled, each granted a floor pair
/// in shuffled order, then remaining capacity is handed out one pair at
/// a time to uniformly random eligible gates.
#[derive(Clone, Debug, Default)]
pub struct RandomScheduler;

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let mut ordered: Vec<&RemoteRequest> = requests.iter().collect();
        ordered.shuffle(rng);
        let mut remaining = available.to_vec();
        let (mut allocations, granted) = grant_one_each(&ordered, &mut remaining);
        loop {
            let eligible: Vec<usize> = (0..granted.len())
                .filter(|&i| {
                    let req = granted[i];
                    remaining[req.a.index()] >= 1 && remaining[req.b.index()] >= 1
                })
                .collect();
            if eligible.is_empty() {
                return allocations;
            }
            let pick = eligible[rng.random_range(0..eligible.len())];
            let req = granted[pick];
            remaining[req.a.index()] -= 1;
            remaining[req.b.index()] -= 1;
            allocations[pick].pairs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate_allocations;
    use cloudqc_cloud::QpuId;
    use rand::SeedableRng;

    fn req(key: u64, a: usize, b: usize) -> RemoteRequest {
        RemoteRequest {
            key,
            a: QpuId::new(a),
            b: QpuId::new(b),
            priority: 0,
        }
    }

    #[test]
    fn allocations_always_valid() {
        let requests = [req(1, 0, 1), req(2, 0, 2), req(3, 1, 2)];
        let available = vec![4, 4, 4];
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let allocs = RandomScheduler.allocate(&requests, &available, &mut rng);
            validate_allocations(&requests, &available, &allocs).unwrap();
            assert!(!allocs.is_empty());
        }
    }

    #[test]
    fn exhausts_capacity() {
        let requests = [req(1, 0, 1)];
        let available = vec![3, 5];
        let mut rng = StdRng::seed_from_u64(1);
        let allocs = RandomScheduler.allocate(&requests, &available, &mut rng);
        assert_eq!(allocs[0].pairs, 3);
    }

    #[test]
    fn varies_across_seeds() {
        let requests = [req(1, 0, 1), req(2, 0, 2)];
        let available = vec![6, 9, 9];
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut allocs = RandomScheduler.allocate(&requests, &available, &mut rng);
            allocs.sort_by_key(|a| a.key);
            seen.insert(allocs.iter().map(|a| (a.key, a.pairs)).collect::<Vec<_>>());
        }
        assert!(seen.len() > 1, "random scheduler never varied");
    }
}
