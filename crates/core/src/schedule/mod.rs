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
    /// re-run would provably grant nothing again. They also enable the
    /// executor's *sharded* front layer, where a round only visits the
    /// shards whose QPU pair was affected (see
    /// [`Scheduler::allocate_shard_iter`]). Schedulers that consume
    /// randomness must return `false` (the default): eliding a call
    /// would shift their RNG stream and change seeded schedules.
    fn is_pure(&self) -> bool {
        false
    }

    /// [`Scheduler::allocate`] over the union of several front-layer
    /// *shards* — the executor's per-QPU-pair request lists.
    ///
    /// Contract on the input (the executor upholds it): each shard is
    /// sorted by (priority descending, key ascending), holds requests
    /// of **one** unordered QPU pair — so a shard's head names its
    /// endpoints — and the shards are pairwise disjoint (every request
    /// key appears once). The default implementation flattens the
    /// shards and delegates to [`Scheduler::allocate`], so it is
    /// behaviourally identical to a global pass over the same requests
    /// for every scheduler whose allocation does not depend on input
    /// order (all the pure ones — they sort their input by a total
    /// order first). The executor's sharded pass calls
    /// [`Scheduler::allocate_shard_iter`] instead, which is where
    /// schedulers exploit the per-shard structure.
    fn allocate_sharded(
        &self,
        shards: &[&[RemoteRequest]],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let flat: Vec<RemoteRequest> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        self.allocate(&flat, available, rng)
    }

    /// [`Scheduler::allocate_sharded`] fed by a shard *iterator*
    /// instead of a pre-collected slice list.
    ///
    /// This is the executor's sharded hot path: it streams the
    /// grant-ordered dirty shards straight out of its persistent index
    /// scratch, so no per-pass `Vec<&[RemoteRequest]>` is built — and
    /// it may split one QPU pair's requests across *several*
    /// consecutive slices (the executor streams its priority buckets
    /// as-is; each is sorted, single-pair, and key-disjoint, so each
    /// is a valid shard on its own). The input contract is otherwise
    /// [`Scheduler::allocate_sharded`]'s; order-insensitive
    /// implementations (every pure scheduler) emit identical
    /// allocations for any slicing of the same request set. The
    /// default collects the iterator and delegates, so every scheduler
    /// keeps its existing sharded behaviour; [`CloudQcScheduler`] and
    /// [`GreedyScheduler`] override it to merge the shards' *grantable
    /// heads* directly from the stream, bounding work by grants instead
    /// of pending requests.
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

/// How the priority-ordered allocation walks spend capacity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum PriorityPolicy {
    /// One-pair floor for every request while capacity lasts, then the
    /// remainder as redundancy top-down (CloudQC, Algorithm 3).
    FloorThenRedundancy,
    /// The maximum both endpoints allow to each request top-down,
    /// possibly starving the rest (Greedy).
    MaxPerRequest,
}

/// The redundancy phase of [`PriorityPolicy::FloorThenRedundancy`]:
/// spend what remains top-down over the granted subsequence. The floor
/// allocations line up 1:1 with `granted`, so the pass is a straight
/// zip.
fn grant_redundancy(
    allocations: &mut [Allocation],
    granted: &[&RemoteRequest],
    remaining: &mut [usize],
) {
    for (alloc, req) in allocations.iter_mut().zip(granted) {
        let extra = remaining[req.a.index()].min(remaining[req.b.index()]);
        if extra > 0 {
            alloc.pairs += extra;
            remaining[req.a.index()] -= extra;
            remaining[req.b.index()] -= extra;
        }
    }
}

/// The priority-ordered allocation walk shared by the CloudQC and
/// Greedy schedulers' *global* entry points, over a (priority desc,
/// key asc)-sorted request list.
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
    grant_redundancy(&mut allocations, &granted, &mut remaining);
    allocations
}

/// The *sharded* priority-ordered allocation walk shared by the CloudQC
/// and Greedy schedulers: a k-way merge over the per-QPU-pair shards
/// (each sorted by priority desc, key asc) that only ever advances
/// through *grantable* requests.
///
/// The trick that makes every merge pop a grant: all requests of a
/// shard share one QPU pair, so the instant either endpoint runs out of
/// pairs the shard's entire remainder is denied — exactly as the global
/// walk would deny it element by element — and its cursor is dropped
/// from the merge on the spot. Work per pass is therefore
/// O(shards + grants × live-shards), independent of how many pending
/// requests the dirty shards hold; the global walk's sort-then-scan
/// pays O(requests) before the first decision. The grant sequence is
/// identical: each pop takes the highest-priority head among live
/// shards, which is the next request the global walk would grant.
///
/// The shards arrive as an iterator, so the executor's grant-ordered
/// serial pass (via [`Scheduler::allocate_shard_iter`]) builds the
/// merge cursors without collecting a slice list. Shard order is
/// irrelevant to the output: the merge pops the globally best live
/// head under a strict total order.
pub(crate) fn allocate_sharded_prioritized_iter(
    shards: &mut dyn Iterator<Item = &[RemoteRequest]>,
    available: &[usize],
    policy: PriorityPolicy,
) -> Vec<Allocation> {
    /// One live shard's walk position, with the head cached so the
    /// selection loop compares through one pointer, and the shard's
    /// (uniform) endpoint indices alongside.
    struct Cursor<'r> {
        head: &'r RemoteRequest,
        rest: &'r [RemoteRequest],
        a: usize,
        b: usize,
    }
    let mut remaining = available.to_vec();
    let mut cursors: Vec<Cursor> = shards
        .filter(|s| !s.is_empty())
        .map(|s| Cursor {
            head: &s[0],
            rest: &s[1..],
            a: s[0].a.index(),
            b: s[0].b.index(),
        })
        .collect();
    let mut allocations = Vec::new();
    let mut granted: Vec<&RemoteRequest> = Vec::new();
    while !cursors.is_empty() {
        // Select the highest-priority head among live shards, shedding
        // dead ones (an endpoint at zero) as the scan meets them. The
        // sets are small, so a linear scan beats a binary heap.
        let mut best: Option<usize> = None;
        let mut i = 0;
        while i < cursors.len() {
            let cursor = &cursors[i];
            if remaining[cursor.a] == 0 || remaining[cursor.b] == 0 {
                // `best` (if set) is below `i`, so the swap cannot
                // disturb it; re-examine the element swapped into `i`.
                cursors.swap_remove(i);
                continue;
            }
            best = match best {
                Some(j) => {
                    let leader = cursors[j].head;
                    let ahead = cursor
                        .head
                        .priority
                        .cmp(&leader.priority)
                        .then(leader.key.cmp(&cursor.head.key))
                        .is_gt();
                    Some(if ahead { i } else { j })
                }
                None => Some(i),
            };
            i += 1;
        }
        let Some(best) = best else {
            break;
        };
        let cursor = &mut cursors[best];
        let req = cursor.head;
        let (a, b) = (cursor.a, cursor.b);
        match cursor.rest.split_first() {
            Some((head, rest)) => {
                cursor.head = head;
                cursor.rest = rest;
            }
            None => {
                cursors.swap_remove(best);
            }
        }
        // Both endpoints are ≥ 1 (the cursor survived the scan), so
        // the head is grantable by construction.
        let pairs = match policy {
            PriorityPolicy::FloorThenRedundancy => 1,
            PriorityPolicy::MaxPerRequest => remaining[a].min(remaining[b]),
        };
        remaining[a] -= pairs;
        remaining[b] -= pairs;
        allocations.push(Allocation {
            key: req.key,
            pairs,
        });
        if policy == PriorityPolicy::FloorThenRedundancy {
            granted.push(req);
        }
    }
    grant_redundancy(&mut allocations, &granted, &mut remaining);
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
/// endpoint capacity lasts — the starvation-freedom floor.
pub(crate) fn grant_one_each(
    ordered: &[&RemoteRequest],
    remaining: &mut [usize],
) -> Vec<Allocation> {
    let mut out = Vec::new();
    for req in ordered {
        if remaining[req.a.index()] >= 1 && remaining[req.b.index()] >= 1 {
            remaining[req.a.index()] -= 1;
            remaining[req.b.index()] -= 1;
            out.push(Allocation {
                key: req.key,
                pairs: 1,
            });
        }
    }
    out
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
    fn sharded_walk_equals_sorted_walk() {
        // Shards sorted by (priority desc, key asc), one QPU pair each;
        // the grantable-heads merge must grant exactly what the global
        // sort-then-walk grants, for both policies.
        let s1 = [req(1, 0, 1, 9), req(5, 0, 1, 9), req(2, 0, 1, 3)];
        let s2 = [req(4, 1, 2, 7), req(3, 1, 2, 2)];
        let s3: [RemoteRequest; 0] = [];
        let available = vec![3, 4, 2];
        let mut flat: Vec<&RemoteRequest> = s1.iter().chain(s2.iter()).collect();
        flat.sort_by(|x, y| y.priority.cmp(&x.priority).then(x.key.cmp(&y.key)));
        for policy in [
            PriorityPolicy::FloorThenRedundancy,
            PriorityPolicy::MaxPerRequest,
        ] {
            let mut shards = [&s1[..], &s2, &s3].into_iter();
            let sharded = allocate_sharded_prioritized_iter(&mut shards, &available, policy);
            let global = allocate_prioritized(flat.iter().copied(), &available, policy);
            assert_eq!(sharded, global, "{policy:?}");
        }
        let mut none = std::iter::empty();
        let policy = PriorityPolicy::FloorThenRedundancy;
        assert!(allocate_sharded_prioritized_iter(&mut none, &available, policy).is_empty());
    }

    #[test]
    fn default_allocate_sharded_matches_global_allocate() {
        use crate::schedule::AverageScheduler;
        use rand::SeedableRng;
        let s1 = [req(1, 0, 1, 9), req(3, 0, 2, 1)];
        let s2 = [req(2, 1, 2, 5)];
        let available = vec![4, 4, 4];
        let mut rng = StdRng::seed_from_u64(0);
        let sharded = AverageScheduler.allocate_sharded(&[&s1, &s2], &available, &mut rng);
        let flat: Vec<RemoteRequest> = s1.iter().chain(s2.iter()).copied().collect();
        let global = AverageScheduler.allocate(&flat, &available, &mut rng);
        assert_eq!(sharded, global);
        validate_allocations(&flat, &available, &sharded).unwrap();
    }

    #[test]
    fn grant_one_each_respects_capacity() {
        let r1 = req(1, 0, 1, 5);
        let r2 = req(2, 0, 1, 3);
        let r3 = req(3, 0, 1, 1);
        let ordered = [&r1, &r2, &r3];
        let mut remaining = vec![2, 2];
        let allocs = grant_one_each(&ordered, &mut remaining);
        // Only two fit on the shared endpoints.
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0].key, 1);
        assert_eq!(allocs[1].key, 2);
        assert_eq!(remaining, vec![0, 0]);
    }
}
