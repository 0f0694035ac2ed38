//! Partition → QPU mapping (paper Algorithm 2, "Find Placement").
//!
//! Given a circuit partitioning, choose a set of QPUs and map each part
//! to one QPU:
//!
//! 1. Find a candidate QPU set — either by modularity community
//!    detection over the (capacity-weighted) topology (CloudQC) or by a
//!    BFS sweep from the best-provisioned QPU (CloudQC-BFS).
//! 2. Compute the *center* of the candidate set and the center of the
//!    partition interaction graph.
//! 3. Map center to center, then expand outward: parts in max-connection
//!    BFS order, each to the feasible QPU minimizing distance-weighted
//!    communication to already-mapped neighbours.
//!
//! Only the candidate set and the mapping read the cloud's status. The
//! QPU-set center and the BFS orders are read from tables the cloud
//! builds once ([`Cloud::center_among`], [`Cloud::bfs_order`]), and
//! Algorithm 1's sweep keeps each partitioning's part-graph center with
//! the partitioning, entering through [`map_parts`].

use super::Placement;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use cloudqc_graph::center::weighted_center;
use cloudqc_graph::community::louvain;
use cloudqc_graph::Graph;

/// How Algorithm 2 selects its candidate QPU set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FindPlacementMode {
    /// Modularity community detection with capacity-embedded edge
    /// weights (the full CloudQC method).
    Community,
    /// BFS expansion from the QPU with the most free computing qubits
    /// (the CloudQC-BFS baseline variant).
    Bfs,
}

/// The part of Algorithm 2's candidate-set step that depends only on the
/// cloud, its status and the seed, not on the partitioning being mapped.
///
/// Algorithm 1 maps up to `|α| · (k_max − k_min + 1)` partitionings
/// against one status; building this once per placement call keeps the
/// community detection out of that sweep.
#[derive(Clone, Debug)]
pub struct CandidateSets {
    communities: Option<Communities>,
}

/// Louvain communities over the capacity-weighted topology.
#[derive(Clone, Debug)]
struct Communities {
    /// The topology with free computing qubits embedded in edge weights.
    weighted: Graph,
    /// Community member lists, by free capacity ascending.
    groups: Vec<Vec<usize>>,
}

impl CandidateSets {
    /// Prepares candidate-set selection for `mode` on `status`.
    /// Community mode runs Louvain here; BFS mode needs nothing ahead.
    pub fn new(cloud: &Cloud, status: &CloudStatus, mode: FindPlacementMode, seed: u64) -> Self {
        let communities = match mode {
            FindPlacementMode::Community => Some(Communities::new(cloud, status, seed)),
            FindPlacementMode::Bfs => None,
        };
        CandidateSets { communities }
    }
}

/// Maps circuit partitions onto QPUs.
///
/// * `part_sizes[p]` — computing qubits part `p` needs.
/// * `part_graph` — partition interaction graph (node = part, edge
///   weight = two-qubit gates crossing the pair).
/// * `candidate_sets` — built by [`CandidateSets::new`] from the same
///   `cloud` and `status`.
/// * Returns `part_to_qpu`, or `None` if no feasible injective mapping
///   was found (some part cannot fit any remaining QPU).
///
/// Mapping is injective: distinct parts land on distinct QPUs (merging
/// two parts onto one QPU would contradict the partitioning choice —
/// Algorithm 1 explores that option by sweeping the part count instead).
pub fn find_placement(
    part_sizes: &[usize],
    part_graph: &Graph,
    cloud: &Cloud,
    status: &CloudStatus,
    candidate_sets: &CandidateSets,
) -> Option<Vec<QpuId>> {
    if part_sizes.is_empty() {
        return Some(Vec::new());
    }
    let part_center = weighted_center(part_graph)?;
    map_parts(
        part_sizes,
        part_graph,
        part_center,
        cloud,
        status,
        candidate_sets,
    )
}

/// [`find_placement`] of at least one part, given the part graph's
/// center (`weighted_center(part_graph)`), which Algorithm 1's sweep
/// keeps with each memoized partitioning.
pub(crate) fn map_parts(
    part_sizes: &[usize],
    part_graph: &Graph,
    part_center: usize,
    cloud: &Cloud,
    status: &CloudStatus,
    candidate_sets: &CandidateSets,
) -> Option<Vec<QpuId>> {
    let parts = part_sizes.len();
    debug_assert_eq!(part_graph.node_count(), parts);
    debug_assert_eq!(weighted_center(part_graph), Some(part_center));
    let total_demand: usize = part_sizes.iter().sum();

    // Step 1: candidate QPU set.
    let candidates = match &candidate_sets.communities {
        Some(communities) => communities.candidates(status, total_demand, parts),
        None => bfs_candidates(cloud, status, total_demand, parts),
    }?;

    // Step 2: the QPU-set center, from the cloud's tables.
    let qpu_center = cloud.center_among(candidates.iter().copied())?;

    // Step 3: map outward from the centers.
    let mut mapping: Vec<Option<QpuId>> = vec![None; parts];
    let mut free: Vec<usize> = (0..cloud.qpu_count())
        .map(|i| status.free_computing(QpuId::new(i)))
        .collect();
    let mut taken = vec![false; cloud.qpu_count()];

    // The center part goes to the feasible QPU nearest the QPU-set
    // center (the center itself when it fits).
    let first_qpu = nearest_feasible(
        cloud,
        &candidates,
        qpu_center,
        part_sizes[part_center],
        &free,
        &taken,
    )?;
    mapping[part_center] = Some(first_qpu);
    free[first_qpu.index()] -= part_sizes[part_center];
    taken[first_qpu.index()] = true;

    // Remaining parts in max-connection order: repeatedly pick the
    // unmapped part with the strongest total interaction to mapped
    // parts (falling back to heaviest part for disconnected pieces).
    for _ in 1..parts {
        let next = (0..parts)
            .filter(|&p| mapping[p].is_none())
            .max_by(|&a, &b| {
                let ca = mapped_connection(part_graph, &mapping, a);
                let cb = mapped_connection(part_graph, &mapping, b);
                ca.partial_cmp(&cb)
                    .expect("finite weights")
                    .then_with(|| part_sizes[a].cmp(&part_sizes[b]))
                    .then_with(|| b.cmp(&a))
            })
            .expect("an unmapped part remains");
        // Choose the QPU minimizing distance-weighted communication to
        // already-mapped neighbour parts; prefer candidate-set members,
        // fall back to any QPU (the candidate set was a guide, capacity
        // is a constraint).
        let target = best_qpu_for_part(
            part_graph,
            &mapping,
            next,
            part_sizes[next],
            cloud,
            &candidates,
            qpu_center,
            &free,
            &taken,
        )?;
        mapping[next] = Some(target);
        free[target.index()] -= part_sizes[next];
        taken[target.index()] = true;
    }

    Some(
        mapping
            .into_iter()
            .map(|m| m.expect("all parts mapped"))
            .collect(),
    )
}

/// Expands a partition-level mapping to a per-qubit [`Placement`].
pub fn expand_to_qubits(assignment: &[usize], part_to_qpu: &[QpuId]) -> Placement {
    Placement::from_parts(assignment, part_to_qpu)
}

/// Total interaction weight between part `p` and all mapped parts.
fn mapped_connection(part_graph: &Graph, mapping: &[Option<QpuId>], p: usize) -> f64 {
    part_graph
        .neighbors(p)
        .iter()
        .filter(|(other, _)| mapping[*other].is_some())
        .map(|(_, w)| *w)
        .sum()
}

/// The feasible not-yet-taken QPU nearest `center` (preferring the
/// candidate set, then the rest of the cloud).
fn nearest_feasible(
    cloud: &Cloud,
    candidates: &[usize],
    center: usize,
    size: usize,
    free: &[usize],
    taken: &[bool],
) -> Option<QpuId> {
    let in_set = |u: usize| candidates.contains(&u);
    let feasible = |u: usize| !taken[u] && free[u] >= size;
    // BFS order from the center visits QPUs nearest-first.
    let order = cloud.bfs_order(center);
    order
        .iter()
        .copied()
        .find(|&u| feasible(u) && in_set(u))
        .or_else(|| order.iter().copied().find(|&u| feasible(u)))
        // Disconnected stragglers (outside the BFS tree).
        .or_else(|| (0..cloud.qpu_count()).find(|&u| feasible(u)))
        .map(QpuId::new)
}

/// The feasible QPU minimizing Σ (edge weight to mapped part ×
/// distance); ties broken by distance to the set center, then id.
#[allow(clippy::too_many_arguments)]
fn best_qpu_for_part(
    part_graph: &Graph,
    mapping: &[Option<QpuId>],
    part: usize,
    size: usize,
    cloud: &Cloud,
    candidates: &[usize],
    center: usize,
    free: &[usize],
    taken: &[bool],
) -> Option<QpuId> {
    let mapped_neighbors: Vec<(QpuId, f64)> = part_graph
        .neighbors(part)
        .iter()
        .filter_map(|&(other, w)| mapping[other].map(|q| (q, w)))
        .collect();
    let mut best: Option<(usize, f64, u32, bool)> = None; // (qpu, cost, center_dist, in_set)
    for u in 0..cloud.qpu_count() {
        if taken[u] || free[u] < size {
            continue;
        }
        let q = QpuId::new(u);
        let cost: f64 = mapped_neighbors
            .iter()
            .map(|&(mq, w)| w * cloud.distance_or_max(q, mq) as f64)
            .sum();
        let center_dist = cloud.distance_or_max(q, QpuId::new(center));
        let in_set = candidates.contains(&u);
        let better = match best {
            None => true,
            Some((bu, bcost, bdist, bset)) => {
                cost < bcost - 1e-9
                    || (cost <= bcost + 1e-9
                        && (center_dist < bdist
                            || (center_dist == bdist && (in_set && !bset))
                            || (center_dist == bdist && in_set == bset && u < bu)))
            }
        };
        if better {
            best = Some((u, cost, center_dist, in_set));
        }
    }
    best.map(|(u, _, _, _)| QpuId::new(u))
}

impl Communities {
    /// Louvain communities over the topology with free computing qubits
    /// embedded in edge weights, sorted by free capacity ascending.
    fn new(cloud: &Cloud, status: &CloudStatus, seed: u64) -> Self {
        let n = cloud.qpu_count();
        // Capacity-embedded weights: links between well-provisioned QPUs
        // are "stronger" (paper: "embed the number of computing qubits
        // into the edge weight").
        let max_cap = (0..n)
            .map(|i| status.computing_capacity(QpuId::new(i)))
            .max()
            .unwrap_or(1)
            .max(1);
        let mut weighted = Graph::new(n);
        for (u, v, _) in cloud.topology().edges() {
            let fu = status.free_computing(QpuId::new(u)) as f64;
            let fv = status.free_computing(QpuId::new(v)) as f64;
            // Link reliability (1.0 when unmodeled) also scales the
            // weight, per the paper's remark that reliability "can be
            // easily encoded into the edge weights".
            let quality = cloud.bottleneck_reliability(QpuId::new(u), QpuId::new(v));
            weighted.add_edge(u, v, quality * (1.0 + (fu + fv) / (2.0 * max_cap as f64)));
        }
        let mut groups = louvain(&weighted, seed).members();
        // Sort by capacity ascending: pick the tightest fit.
        groups.sort_by_key(|g| capacity(status, g));
        Communities { weighted, groups }
    }

    /// CloudQC candidate selection: the smallest community with enough
    /// aggregate capacity wins (leaving bigger communities free for
    /// future jobs); communities merge with their best-connected peers
    /// until capacity suffices.
    fn candidates(
        &self,
        status: &CloudStatus,
        demand: usize,
        min_qpus: usize,
    ) -> Option<Vec<usize>> {
        let groups = &self.groups;
        let capacity_of = |members: &[usize]| capacity(status, members);
        if let Some(group) = groups
            .iter()
            .find(|g| capacity_of(g) >= demand && g.len() >= min_qpus)
        {
            return Some(group.clone());
        }
        // No single community suffices: grow the best one by merging in
        // the community most connected to it until capacity and count
        // suffice.
        let mut merged: Vec<usize> = groups.last()?.clone();
        let mut remaining: Vec<Vec<usize>> = groups[..groups.len() - 1].to_vec();
        while capacity_of(&merged) < demand || merged.len() < min_qpus {
            if remaining.is_empty() {
                return None; // cloud-wide capacity shortfall
            }
            // The community with the strongest link weight into `merged`.
            let idx = (0..remaining.len())
                .max_by(|&a, &b| {
                    let ca = group_connection(&self.weighted, &merged, &remaining[a]);
                    let cb = group_connection(&self.weighted, &merged, &remaining[b]);
                    ca.partial_cmp(&cb)
                        .expect("finite weights")
                        .then_with(|| capacity_of(&remaining[a]).cmp(&capacity_of(&remaining[b])))
                })
                .expect("remaining non-empty");
            merged.extend(remaining.swap_remove(idx));
        }
        merged.sort_unstable();
        Some(merged)
    }
}

/// Free computing qubits across `members`.
fn capacity(status: &CloudStatus, members: &[usize]) -> usize {
    members
        .iter()
        .map(|&u| status.free_computing(QpuId::new(u)))
        .sum()
}

fn group_connection(g: &Graph, a: &[usize], b: &[usize]) -> f64 {
    let in_b: std::collections::HashSet<usize> = b.iter().copied().collect();
    a.iter()
        .flat_map(|&u| g.neighbors(u))
        .filter(|(v, _)| in_b.contains(v))
        .map(|(_, w)| *w)
        .sum()
}

/// CloudQC-BFS candidate selection: start from the QPU with the most
/// free computing qubits and BFS outward until the collected set has
/// enough aggregate capacity and enough members.
fn bfs_candidates(
    cloud: &Cloud,
    status: &CloudStatus,
    demand: usize,
    min_qpus: usize,
) -> Option<Vec<usize>> {
    let n = cloud.qpu_count();
    let free = |u: usize| status.free_computing(QpuId::new(u));
    let start = (0..n).max_by_key(|&u| (free(u), std::cmp::Reverse(u)))?;
    let mut set = Vec::new();
    let mut capacity = 0usize;
    for &u in cloud.bfs_order(start) {
        set.push(u);
        capacity += free(u);
        if capacity >= demand && set.len() >= min_qpus {
            set.sort_unstable();
            return Some(set);
        }
    }
    // Disconnected topologies: append the rest by free capacity.
    let mut rest: Vec<usize> = (0..n).filter(|u| !set.contains(u)).collect();
    rest.sort_by_key(|&u| std::cmp::Reverse(free(u)));
    for u in rest {
        set.push(u);
        capacity += free(u);
        if capacity >= demand && set.len() >= min_qpus {
            set.sort_unstable();
            return Some(set);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_cloud::CloudBuilder;

    fn cloud_line(n: usize) -> Cloud {
        CloudBuilder::new(n).line_topology().build()
    }

    fn sets(cloud: &Cloud, status: &CloudStatus, mode: FindPlacementMode) -> CandidateSets {
        CandidateSets::new(cloud, status, mode, 0)
    }

    fn star_part_graph(parts: usize) -> Graph {
        // Part 0 talks to everyone (hub).
        let mut g = Graph::new(parts);
        for p in 1..parts {
            g.add_edge(0, p, 10.0);
        }
        g
    }

    #[test]
    fn maps_all_parts_injectively() {
        let cloud = cloud_line(6);
        let status = cloud.status();
        for mode in [FindPlacementMode::Community, FindPlacementMode::Bfs] {
            let sizes = vec![10, 10, 10];
            let mapping = find_placement(
                &sizes,
                &star_part_graph(3),
                &cloud,
                &status,
                &sets(&cloud, &status, mode),
            )
            .unwrap();
            let mut qpus: Vec<_> = mapping.clone();
            qpus.dedup();
            assert_eq!(mapping.len(), 3, "{mode:?}");
            let set: std::collections::HashSet<_> = mapping.iter().collect();
            assert_eq!(set.len(), 3, "{mode:?}: mapping not injective");
        }
    }

    #[test]
    fn hub_part_lands_centrally() {
        // Line of 5 QPUs; 3 parts with part 0 as hub: part 0 must not be
        // mapped to a line end *if its neighbours flank it*.
        let cloud = cloud_line(5);
        let status = cloud.status();
        let sizes = vec![5, 5, 5];
        let mapping = find_placement(
            &sizes,
            &star_part_graph(3),
            &cloud,
            &status,
            &sets(&cloud, &status, FindPlacementMode::Community),
        )
        .unwrap();
        let hub = mapping[0];
        let d1 = cloud.distance_or_max(hub, mapping[1]);
        let d2 = cloud.distance_or_max(hub, mapping[2]);
        // Hub is adjacent to both satellites.
        assert!(
            d1 <= 2 && d2 <= 2,
            "hub {hub} satellites {:?}",
            &mapping[1..]
        );
    }

    #[test]
    fn respects_capacity() {
        let cloud = cloud_line(4);
        let mut status = cloud.status();
        // QPU1 and QPU2 are nearly full.
        status.allocate_computing(QpuId::new(1), 18).unwrap();
        status.allocate_computing(QpuId::new(2), 18).unwrap();
        let sizes = vec![10, 10];
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        let mapping = find_placement(
            &sizes,
            &g,
            &cloud,
            &status,
            &sets(&cloud, &status, FindPlacementMode::Community),
        )
        .unwrap();
        for (p, q) in mapping.iter().enumerate() {
            assert!(
                status.free_computing(*q) >= sizes[p],
                "part {p} on {q} lacks capacity"
            );
        }
    }

    #[test]
    fn infeasible_when_no_qpu_fits_a_part() {
        let cloud = cloud_line(3);
        let status = cloud.status(); // 20 free each
        let sizes = vec![25, 5];
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        for mode in [FindPlacementMode::Community, FindPlacementMode::Bfs] {
            let sets = sets(&cloud, &status, mode);
            assert!(find_placement(&sizes, &g, &cloud, &status, &sets).is_none());
        }
    }

    #[test]
    fn single_part_works() {
        let cloud = cloud_line(3);
        let status = cloud.status();
        let mapping = find_placement(
            &[12],
            &Graph::new(1),
            &cloud,
            &status,
            &sets(&cloud, &status, FindPlacementMode::Bfs),
        )
        .unwrap();
        assert_eq!(mapping.len(), 1);
    }

    #[test]
    fn strongly_coupled_parts_land_close() {
        // 4 parts in a chain: 0-1 heavy, 1-2 heavy, 2-3 heavy. On a line
        // topology the mapping should be contiguous-ish: total weighted
        // distance near optimal.
        let cloud = cloud_line(8);
        let status = cloud.status();
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(1, 2, 100.0);
        g.add_edge(2, 3, 100.0);
        let mapping = find_placement(
            &[10, 10, 10, 10],
            &g,
            &cloud,
            &status,
            &sets(&cloud, &status, FindPlacementMode::Community),
        )
        .unwrap();
        let cost: u32 = [(0, 1), (1, 2), (2, 3)]
            .iter()
            .map(|&(a, b)| cloud.distance_or_max(mapping[a], mapping[b]))
            .sum();
        assert!(cost <= 4, "chain mapping cost {cost}, mapping {mapping:?}");
    }

    #[test]
    fn expand_to_qubits_roundtrip() {
        let p = expand_to_qubits(&[1, 0, 1], &[QpuId::new(4), QpuId::new(2)]);
        assert_eq!(p.qpu_of(0), QpuId::new(2));
        assert_eq!(p.qpu_of(1), QpuId::new(4));
        assert_eq!(p.qpu_of(2), QpuId::new(2));
    }
}
