//! The Greedy scheduling baseline (paper §VI.C).
//!
//! "It always allocates the maximum resources to the remote operation
//! with the highest priority" — no starvation-freedom floor, so gates
//! sharing a QPU with the critical path can wait arbitrarily long. The
//! paper finds this has the *worst* job completion time.

use super::{allocate_prioritized, Allocation, PriorityPolicy, RemoteRequest, Scheduler};
use rand::rngs::StdRng;

/// Strict priority order; each gate takes the maximum its endpoints
/// still allow, leaving possibly nothing for the rest.
#[derive(Clone, Debug, Default)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        _rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let mut ordered: Vec<&RemoteRequest> = requests.iter().collect();
        ordered.sort_by(|x, y| y.priority.cmp(&x.priority).then(x.key.cmp(&y.key)));
        allocate_prioritized(
            ordered.into_iter(),
            available,
            PriorityPolicy::MaxPerRequest,
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

    #[test]
    fn top_priority_starves_the_rest() {
        // Both gates need QPU0; greedy gives everything to priority 9.
        let requests = [req(1, 0, 1, 9), req(2, 0, 2, 8)];
        let available = vec![4, 9, 9];
        let mut rng = StdRng::seed_from_u64(0);
        let allocs = GreedyScheduler.allocate(&requests, &available, &mut rng);
        validate_allocations(&requests, &available, &allocs).unwrap();
        assert_eq!(allocs, vec![Allocation { key: 1, pairs: 4 }]);
    }

    #[test]
    fn disjoint_gates_both_served() {
        let requests = [req(1, 0, 1, 9), req(2, 2, 3, 1)];
        let available = vec![2, 2, 3, 3];
        let mut rng = StdRng::seed_from_u64(0);
        let allocs = GreedyScheduler.allocate(&requests, &available, &mut rng);
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0], Allocation { key: 1, pairs: 2 });
        assert_eq!(allocs[1], Allocation { key: 2, pairs: 3 });
    }
}
