//! Network scheduling: allocating communication qubits to remote gates
//! (paper §IV.C, §V.C, Algorithm 3).
//!
//! After placement, the remote gates of each job form a *remote DAG*
//! ([`RemoteDag`]). Execution proceeds in EPR generation rounds; at each
//! round the scheduler divides every QPU's free communication qubits
//! among the remote gates currently in the front layer. Allocating `x`
//! pairs to a gate consumes `x` communication qubits on *both* endpoint
//! QPUs and gives the round success probability `1-(1-p)^x`.
//!
//! Schedulers (paper §VI.C):
//! * [`CloudQcScheduler`] — priority-aware with starvation freedom
//!   (Algorithm 3).
//! * [`GreedyScheduler`] — maximum resources to the highest priority.
//! * [`AverageScheduler`] — even split.
//! * [`RandomScheduler`] — random allocation.

mod average;
mod cloudqc;
mod greedy;
pub mod priority;
mod random_alloc;
pub mod remote_dag;
pub mod routing;

pub use average::AverageScheduler;
pub use cloudqc::CloudQcScheduler;
pub use greedy::GreedyScheduler;
pub use random_alloc::RandomScheduler;
pub use remote_dag::RemoteDag;

use cloudqc_cloud::QpuId;
use rand::rngs::StdRng;

/// One remote gate competing for communication qubits this round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RemoteRequest {
    /// Opaque key the executor uses to identify the gate; schedulers
    /// echo it back in allocations.
    pub key: u64,
    /// First endpoint QPU.
    pub a: QpuId,
    /// Second endpoint QPU.
    pub b: QpuId,
    /// The gate's priority: its longest path to a leaf in the remote
    /// DAG (higher = more downstream work blocked on it).
    pub priority: usize,
}

/// One allocation decision: `pairs` communication-qubit pairs to the
/// request with key `key`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Echoed request key.
    pub key: u64,
    /// Pairs allocated (consumed on both endpoint QPUs). Always ≥ 1.
    pub pairs: usize,
}

/// Inert (the executor is serial); kept because `e2ebench` names it.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EmissionOrder {}

/// A communication-qubit allocation policy.
///
/// Contract: the returned allocations must be *valid* — for every QPU,
/// the pairs of all allocations touching it sum to at most
/// `available[qpu]`; every allocation is ≥ 1 pair and references a
/// request from `requests`. [`validate_allocations`] checks this and
/// the executor enforces it in debug builds.
pub trait Scheduler {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Divides the free communication qubits among the requesting
    /// remote gates. `available[i]` is QPU `i`'s free communication
    /// qubits.
    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation>;

    /// Whether [`Scheduler::allocate`] is a pure function of
    /// `(requests, available)` that never draws from `rng`.
    ///
    /// Pure schedulers let the executor elide allocation rounds whose
    /// inputs are unchanged since a round that granted nothing — the
    /// re-run would provably grant nothing again. Schedulers that
    /// consume randomness must return `false` (the default): eliding a
    /// call would shift their RNG stream and change seeded schedules.
    fn is_pure(&self) -> bool {
        false
    }

    /// Inert (the executor never calls it); kept because `e2ebench`
    /// implements it. Flattens `shards` and delegates to
    /// [`Scheduler::allocate`].
    #[doc(hidden)]
    fn allocate_sharded(
        &self,
        shards: &[&[RemoteRequest]],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let flat: Vec<RemoteRequest> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        self.allocate(&flat, available, rng)
    }

    /// Inert (the executor never calls it); kept because `e2ebench`
    /// implements it. Collects `shards` and delegates to
    /// [`Scheduler::allocate_sharded`].
    #[doc(hidden)]
    fn allocate_shard_iter(
        &self,
        shards: &mut dyn Iterator<Item = &[RemoteRequest]>,
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let collected: Vec<&[RemoteRequest]> = shards.collect();
        self.allocate_sharded(&collected, available, rng)
    }

    /// Inert (the executor never reads it); kept because `e2ebench` overrides it.
    #[doc(hidden)]
    fn sharded_emission_order(&self) -> Option<EmissionOrder> {
        None
    }
}

/// How the priority-ordered allocation walk spends capacity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum PriorityPolicy {
    /// One-pair floor for every request while capacity lasts, then the
    /// remainder as redundancy top-down (CloudQC, Algorithm 3).
    FloorThenRedundancy,
    /// The maximum both endpoints allow to each request top-down,
    /// possibly starving the rest (Greedy).
    MaxPerRequest,
}

/// The priority-ordered allocation walk shared by the CloudQC and
/// Greedy schedulers, over a (priority desc, key asc)-sorted request
/// list.
///
/// Early exit: a grant needs **two** distinct QPUs with free pairs, so
/// once fewer than two remain positive no later request can receive
/// anything and the walk stops — any valid scheduler would grant the
/// rest nothing.
pub(crate) fn allocate_prioritized<'r>(
    ordered: impl Iterator<Item = &'r RemoteRequest>,
    available: &[usize],
    policy: PriorityPolicy,
) -> Vec<Allocation> {
    let mut remaining = available.to_vec();
    let mut positive = remaining.iter().filter(|&&c| c > 0).count();
    let mut allocations = Vec::new();
    let mut granted: Vec<&RemoteRequest> = Vec::new();
    if positive >= 2 {
        for req in ordered {
            let (a, b) = (req.a.index(), req.b.index());
            if remaining[a] >= 1 && remaining[b] >= 1 {
                let pairs = match policy {
                    PriorityPolicy::FloorThenRedundancy => 1,
                    PriorityPolicy::MaxPerRequest => remaining[a].min(remaining[b]),
                };
                remaining[a] -= pairs;
                if remaining[a] == 0 {
                    positive -= 1;
                }
                remaining[b] -= pairs;
                if remaining[b] == 0 {
                    positive -= 1;
                }
                allocations.push(Allocation {
                    key: req.key,
                    pairs,
                });
                if policy == PriorityPolicy::FloorThenRedundancy {
                    granted.push(req);
                }
                if positive < 2 {
                    break;
                }
            }
        }
    }
    // The redundancy phase of `FloorThenRedundancy`: spend what remains
    // top-down over the granted subsequence, which lines up 1:1 with
    // the floor allocations.
    for (alloc, req) in allocations.iter_mut().zip(&granted) {
        let extra = remaining[req.a.index()].min(remaining[req.b.index()]);
        if extra > 0 {
            alloc.pairs += extra;
            remaining[req.a.index()] -= extra;
            remaining[req.b.index()] -= extra;
        }
    }
    allocations
}

/// Checks the [`Scheduler`] contract: per-QPU totals within budget,
/// positive pair counts, no duplicate or unknown keys.
pub fn validate_allocations(
    requests: &[RemoteRequest],
    available: &[usize],
    allocations: &[Allocation],
) -> Result<(), String> {
    let mut used = vec![0usize; available.len()];
    let mut seen = std::collections::HashSet::new();
    for alloc in allocations {
        if alloc.pairs == 0 {
            return Err(format!("zero-pair allocation for key {}", alloc.key));
        }
        if !seen.insert(alloc.key) {
            return Err(format!("duplicate allocation for key {}", alloc.key));
        }
        let Some(req) = requests.iter().find(|r| r.key == alloc.key) else {
            return Err(format!("allocation for unknown key {}", alloc.key));
        };
        used[req.a.index()] += alloc.pairs;
        used[req.b.index()] += alloc.pairs;
    }
    for (i, (&u, &a)) in used.iter().zip(available).enumerate() {
        if u > a {
            return Err(format!("QPU{i} over-allocated: {u} > {a}"));
        }
    }
    Ok(())
}

/// Shared helper: grants every request one pair in the given order while
/// endpoint capacity lasts — the starvation-freedom floor. Returns the
/// allocations and, aligned with them, the requests they grant.
pub(crate) fn grant_one_each<'r>(
    ordered: &[&'r RemoteRequest],
    remaining: &mut [usize],
) -> (Vec<Allocation>, Vec<&'r RemoteRequest>) {
    let mut out = Vec::new();
    let mut granted = Vec::new();
    for &req in ordered {
        if remaining[req.a.index()] >= 1 && remaining[req.b.index()] >= 1 {
            remaining[req.a.index()] -= 1;
            remaining[req.b.index()] -= 1;
            out.push(Allocation {
                key: req.key,
                pairs: 1,
            });
            granted.push(req);
        }
    }
    (out, granted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64, a: usize, b: usize, priority: usize) -> RemoteRequest {
        RemoteRequest {
            key,
            a: QpuId::new(a),
            b: QpuId::new(b),
            priority,
        }
    }

    #[test]
    fn validation_accepts_legal() {
        let requests = [req(1, 0, 1, 3), req(2, 1, 2, 1)];
        let allocs = [
            Allocation { key: 1, pairs: 2 },
            Allocation { key: 2, pairs: 3 },
        ];
        assert!(validate_allocations(&requests, &[2, 5, 3], &allocs).is_ok());
    }

    #[test]
    fn validation_catches_overallocation() {
        let requests = [req(1, 0, 1, 3), req(2, 1, 2, 1)];
        let allocs = [
            Allocation { key: 1, pairs: 3 },
            Allocation { key: 2, pairs: 3 },
        ];
        // QPU1 is shared: 3 + 3 = 6 > 5.
        let err = validate_allocations(&requests, &[3, 5, 3], &allocs).unwrap_err();
        assert!(err.contains("QPU1"));
    }

    #[test]
    fn validation_catches_bad_keys() {
        let requests = [req(1, 0, 1, 0)];
        assert!(
            validate_allocations(&requests, &[5, 5], &[Allocation { key: 9, pairs: 1 }]).is_err()
        );
        assert!(validate_allocations(
            &requests,
            &[5, 5],
            &[
                Allocation { key: 1, pairs: 1 },
                Allocation { key: 1, pairs: 1 }
            ]
        )
        .is_err());
        assert!(
            validate_allocations(&requests, &[5, 5], &[Allocation { key: 1, pairs: 0 }]).is_err()
        );
    }

    #[test]
    fn default_allocate_sharded_matches_global_allocate() {
        // The two inert entry points kept for `e2ebench` flatten their
        // input and delegate, so they grant exactly what `allocate`
        // grants over the same requests.
        use crate::schedule::{AverageScheduler, CloudQcScheduler, GreedyScheduler};
        use rand::SeedableRng;
        let s1 = [req(1, 0, 1, 9), req(4, 0, 1, 2)];
        let s2 = [req(2, 1, 2, 7), req(3, 1, 2, 7)];
        let s3 = [req(5, 0, 2, 1)];
        let available = vec![4, 6, 3];
        let flat: Vec<RemoteRequest> = [&s1[..], &s2, &s3].concat();
        let mut rng = StdRng::seed_from_u64(0);
        let schedulers: [&dyn Scheduler; 3] =
            [&CloudQcScheduler, &GreedyScheduler, &AverageScheduler];
        for scheduler in schedulers {
            let global = scheduler.allocate(&flat, &available, &mut rng);
            let sharded = scheduler.allocate_sharded(&[&s1, &s2, &s3], &available, &mut rng);
            let mut shards = [&s1[..], &s2, &s3].into_iter();
            let streamed = scheduler.allocate_shard_iter(&mut shards, &available, &mut rng);
            assert_eq!(sharded, global, "{}", scheduler.name());
            assert_eq!(streamed, global, "{}", scheduler.name());
            validate_allocations(&flat, &available, &global).unwrap();
        }
    }

    #[test]
    fn grant_one_each_respects_capacity() {
        let r1 = req(1, 0, 1, 5);
        let r2 = req(2, 0, 1, 3);
        let r3 = req(3, 0, 1, 1);
        let ordered = [&r1, &r2, &r3];
        let mut remaining = vec![2, 2];
        let (allocs, granted) = grant_one_each(&ordered, &mut remaining);
        // Only two fit on the shared endpoints.
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0].key, 1);
        assert_eq!(allocs[1].key, 2);
        assert_eq!(granted, [&r1, &r2]);
        assert_eq!(remaining, vec![0, 0]);
    }
}
