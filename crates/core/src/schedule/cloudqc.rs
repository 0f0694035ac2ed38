//! CloudQC's network scheduler (paper Algorithm 3).
//!
//! Two goals (§V.C): **effectiveness** — gates with more downstream work
//! (higher priority) get redundant EPR resources so a failure doesn't
//! backlog the DAG — and **starvation freedom** — every front-layer gate
//! eventually receives at least one pair.

use super::{allocate_prioritized, Allocation, PriorityPolicy, RemoteRequest, Scheduler};
use rand::rngs::StdRng;

/// Priority-proportional allocation with a one-pair floor:
///
/// 1. Sort the front layer by priority (descending; FIFO on ties).
/// 2. Grant every gate one pair while capacity lasts (starvation
///    freedom).
/// 3. Spend remaining capacity top-down: the highest-priority gate takes
///    as many extra pairs as its endpoints allow, then the next, …
///    (redundancy for critical-path gates).
#[derive(Clone, Debug, Default)]
pub struct CloudQcScheduler;

impl Scheduler for CloudQcScheduler {
    fn name(&self) -> &'static str {
        "CloudQC"
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        _rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let mut ordered: Vec<&RemoteRequest> = requests.iter().collect();
        // The (priority desc, key asc) order is total (keys are unique),
        // so the unstable sort is deterministic.
        ordered.sort_unstable_by(|x, y| y.priority.cmp(&x.priority).then(x.key.cmp(&y.key)));
        allocate_prioritized(
            ordered.into_iter(),
            available,
            PriorityPolicy::FloorThenRedundancy,
        )
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

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn everyone_gets_a_floor_then_priority_takes_rest() {
        // Two gates share QPU1 (5 comm qubits); endpoints 0 and 2 have 5.
        let requests = [req(1, 0, 1, 9), req(2, 1, 2, 1)];
        let available = vec![5, 5, 5];
        let allocs = CloudQcScheduler.allocate(&requests, &available, &mut rng());
        validate_allocations(&requests, &available, &allocs).unwrap();
        let p1 = allocs.iter().find(|a| a.key == 1).unwrap().pairs;
        let p2 = allocs.iter().find(|a| a.key == 2).unwrap().pairs;
        // Floor: both ≥ 1. Redundancy: gate 1 (priority 9) takes the
        // shared QPU1's remaining capacity.
        assert!(p1 >= 1 && p2 >= 1);
        assert!(p1 > p2, "priority gate got {p1}, other {p2}");
        assert_eq!(p1 + p2, 5); // QPU1 fully used
    }

    #[test]
    fn starvation_freedom_under_contention() {
        // Five gates all need QPU0 (capacity 5): each gets exactly 1 ...
        let requests: Vec<RemoteRequest> = (0..5)
            .map(|i| req(i, 0, 1 + i as usize, 10 - i as usize))
            .collect();
        let available = vec![5, 9, 9, 9, 9, 9];
        let allocs = CloudQcScheduler.allocate(&requests, &available, &mut rng());
        validate_allocations(&requests, &available, &allocs).unwrap();
        assert_eq!(allocs.len(), 5);
        assert!(allocs.iter().all(|a| a.pairs == 1));
    }

    #[test]
    fn insufficient_capacity_serves_high_priority_first() {
        // QPU0 has 2 comm qubits, three competing gates: only the top
        // two priorities get the floor.
        let requests = [req(1, 0, 1, 1), req(2, 0, 2, 9), req(3, 0, 3, 5)];
        let available = vec![2, 5, 5, 5];
        let allocs = CloudQcScheduler.allocate(&requests, &available, &mut rng());
        validate_allocations(&requests, &available, &allocs).unwrap();
        let keys: Vec<u64> = allocs.iter().map(|a| a.key).collect();
        assert!(keys.contains(&2) && keys.contains(&3));
        assert!(!keys.contains(&1));
    }

    #[test]
    fn no_requests_no_allocations() {
        let allocs = CloudQcScheduler.allocate(&[], &[5, 5], &mut rng());
        assert!(allocs.is_empty());
    }

    #[test]
    fn lone_gate_takes_everything_available() {
        let requests = [req(7, 0, 1, 0)];
        let available = vec![3, 5];
        let allocs = CloudQcScheduler.allocate(&requests, &available, &mut rng());
        assert_eq!(allocs, vec![Allocation { key: 7, pairs: 3 }]);
    }
}
