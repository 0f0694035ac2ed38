//! The CloudQC placement algorithm (paper Algorithm 1).

use super::cost::{
    part_communication_cost, part_crossing_gates, part_remote_ops_per_qpu, remote_ops_per_qpu,
};
use super::estimate::{execution_time_floor, part_execution_time};
use super::find_placement::{expand_to_qubits, map_parts, CandidateSets, FindPlacementMode};
use super::score::placement_score;
use super::{check_total_capacity, Placement, PlacementAlgorithm};
use crate::config::PlacementConfig;
use crate::error::PlacementError;
use cloudqc_circuit::interaction::{interaction_graph, partition_interaction_graph};
use cloudqc_circuit::{Circuit, Qubit};
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use cloudqc_graph::center::weighted_center;
use cloudqc_graph::partition::{partition, PartitionConfig, Partitioning};
use cloudqc_graph::Graph;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// CloudQC's filtering-and-scoring placement (Algorithm 1):
///
/// 1. If some QPU can host the whole circuit, place it there (best fit).
/// 2. Otherwise sweep `(imbalance factor α, part count k)`: partition
///    the interaction graph, find a QPU mapping (Algorithm 2 with
///    community detection), filter by feasibility (capacity, ε), and
///    score survivors with `S = α/T + β/C`.
/// 3. Return the highest-scoring placement.
///
/// # Partitions once per shape
///
/// A partition reads only the circuit's qubit count and two-qubit
/// operands, α, k and the seed, never the cloud. Each instance keeps
/// an exact memo of them: for every (shape, seed, α, k) it has swept,
/// the assignment, the part sizes, the part interaction graph and its
/// center (or that the partitioner failed). A shape is keyed by a word-wise hash
/// of (qubit count, two-qubit operands in program order, seed), and
/// every hit compares the stored operand list with the circuit's, so a
/// hit replays exactly the inputs a fresh sweep would compute. Mapping,
/// the ε filter and scoring still run against the live status on every
/// call, so results are those of a fresh instance, call by call.
///
/// The memo holds at most 4 096 splits and is cleared whole when a
/// sweep would overflow it. A split takes ~1 KB for a 30–40-qubit
/// circuit and up to ~30 KB for `qft_n160` cut into 20 parts. Each
/// shape also keeps 8 B per two-qubit gate and holds at least `|α|`
/// splits, so at most 1 365 shapes fit under the default sweep. The
/// worst case on the paper's 20-QPU cloud is `qft_n160` under a new
/// seed per call against statuses that force 20 parts: 1 365 shapes
/// of ~300 KB, ~0.4 GB. The end-to-end benchmark's episodes hold 45 to
/// 186 splits over 3 to 10 shapes, ~0.2 MB.
///
/// Because no entry depends on the cloud, one instance may serve every
/// service built on it (fleet backends, epochs, different clouds). A
/// clone starts with an empty memo, and `Debug` leaves it out. The
/// memo sits behind a `Mutex` taken once per call, so the type stays
/// `Send + Sync`.
///
/// # Scores each split at the part level
///
/// Algorithm 2 maps each part to its own QPU, so every qubit of a part
/// sits on the part's QPU, and the sweep scores a split's mapping
/// without expanding it to qubits. The capacity check compares each
/// part's size with its QPU's free qubits. `C` and the per-QPU remote
/// operations the ε filter bounds are read off the part graph's integer
/// edge weights (`placement::cost`). `T` is the same critical-path walk
/// as [`estimate_execution_time`](super::estimate::estimate_execution_time),
/// pricing each two-qubit gate from a k × k part-pair table. Each split
/// also keeps its part graph's center, and the QPU-set center, the BFS
/// orders and the per-pair gate prices come from tables the [`Cloud`]
/// builds once. Only a split that beats the best score so far is
/// expanded into a [`Placement`]. Every value has the bits of the
/// expanded computation: debug builds check each scored split against
/// its expansion, and `placement::differential` proptests the parts
/// against the functions they replace.
///
/// # Skips what cannot beat the best (branch and bound)
///
/// Once the sweep has a best score, and while both score weights are
/// ≥ 0, a split whose score cannot exceed it is skipped (Land & Doig,
/// 1960). Each split keeps `W`, the sum of its part graph's edge
/// weights, and each call computes the circuit's `T_floor` once: the
/// critical path with every two-qubit gate priced at the CX latency.
/// A split is skipped before Algorithm 2 maps it when
/// `S(T_floor, W) ≤ best`, and a mapping that passes the capacity and ε
/// filter skips its `T` walk when `S(T_floor, C) ≤ best`. No skip
/// changes the result:
///
/// - `C ≥ W`. The part → QPU map is injective, so each crossing gate
///   pays `distance_or_max ≥ 1` hops. `C` and `W` sum integer terms
///   over the part graph's edges in the same order, and integer sums
///   below 2⁵³ are exact.
/// - `T ≥ T_floor`. A gate on one QPU is priced at exactly the CX
///   latency, and a remote gate at `hops · rounds · t_ep + t_remote ≥
///   t_remote > t_2q`. No price is NaN: [`LatencyModel::new`] asserts
///   positive latencies, its fields are private, and hops ≥ 1. The
///   walk's `+` and `max` are monotone in every price.
/// - With α, β ≥ 0 the score `α/max(T, 1) + β/max(C, 1)` does not
///   increase with `T` or `C`, so a skipped split scores at most the
///   bound. At best it ties, and the sweep replaces the best only on a
///   strict `>`. The guard `α >= 0 && β >= 0` is false for NaN, so
///   negative or NaN weights (the fields of [`PlacementConfig`] are
///   public) run the full sweep.
///
/// Debug builds still map every skipped split and check that its
/// expansion, if feasible, scores at most the bound that skipped it,
/// and `placement::differential` proptests the sweep against an
/// unbounded reference that scores every split on its expansion.
///
/// [`LatencyModel::new`]: cloudqc_cloud::LatencyModel::new
#[derive(Clone, Default)]
pub struct CloudQcPlacement {
    config: PlacementConfig,
    memo: SplitMemo,
}

impl CloudQcPlacement {
    /// Uses the given pipeline configuration.
    pub fn new(config: PlacementConfig) -> Self {
        CloudQcPlacement {
            config,
            memo: SplitMemo::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }
}

impl fmt::Debug for CloudQcPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CloudQcPlacement")
            .field("config", &self.config)
            .finish()
    }
}

impl PlacementAlgorithm for CloudQcPlacement {
    fn name(&self) -> &'static str {
        "CloudQC"
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        place_with_mode(
            circuit,
            cloud,
            status,
            &self.config,
            FindPlacementMode::Community,
            seed,
            &self.memo,
        )
    }
}

/// How many part counts the sweep tries above the minimum feasible `k`
/// (`k ∈ kmin ..= kmin + K_SWEEP_WIDTH`, capped by the QPU count).
pub(crate) const K_SWEEP_WIDTH: usize = 4;

/// Shared Algorithm 1 driver, parameterized by the Algorithm 2 variant
/// (community detection for CloudQC, BFS for CloudQC-BFS). `memo`
/// belongs to the calling instance, whose `config` never changes.
pub(crate) fn place_with_mode(
    circuit: &Circuit,
    cloud: &Cloud,
    status: &CloudStatus,
    config: &PlacementConfig,
    mode: FindPlacementMode,
    seed: u64,
    memo: &SplitMemo,
) -> Result<Placement, PlacementError> {
    check_total_capacity(circuit, status)?;
    let size = circuit.num_qubits();

    // Line 2-3: whole circuit fits on one QPU → best-fit single QPU
    // (smallest sufficient free block preserves large blocks for big
    // future jobs — the "future resource availability" goal of §V.B).
    if let Some(best_fit) = (0..cloud.qpu_count())
        .map(QpuId::new)
        .filter(|&q| status.free_computing(q) >= size)
        .min_by_key(|&q| (status.free_computing(q), q.index()))
    {
        return Ok(Placement::new(vec![best_fit; size]));
    }

    // Part-count sweep bounds: at least ⌈size / biggest free block⌉
    // parts are needed; explore a few more.
    let max_block = status.max_free_computing().max(1);
    let k_min = size.div_ceil(max_block).max(2);
    let k_max = (k_min + K_SWEEP_WIDTH).min(cloud.qpu_count()).min(size);
    if k_min > k_max {
        return Err(PlacementError::NoFeasiblePlacement);
    }

    // Community detection depends only on (cloud, status, seed): once
    // per call, not once per sweep candidate.
    let candidate_sets = CandidateSets::new(cloud, status, mode, seed);
    // The interaction graph is needed only to partition a split the
    // memo lacks, or for the capacity fill below.
    let mut interaction = None;
    let mut memo = memo.lock();
    let sweep = config.imbalance_factors.len() * (k_max - k_min + 1);
    let mut shape = memo.take(circuit, seed, sweep);
    // The score bound holds only while neither weight is negative or
    // NaN (NaN fails `>=`); its `T` floor is computed once, on first use.
    let bounded = config.score_alpha >= 0.0 && config.score_beta >= 0.0;
    let mut time_floor = None;
    let mut best: Option<(f64, Placement)> = None;
    #[cfg(debug_assertions)]
    let audit = audit::Sweep {
        circuit,
        cloud,
        status,
        epsilon: config.epsilon,
    };
    for (ai, &alpha) in config.imbalance_factors.iter().enumerate() {
        for k in k_min..=k_max {
            let split = shape.splits.entry((ai, k)).or_insert_with(|| {
                let interaction = interaction.get_or_insert_with(|| interaction_graph(circuit));
                let part_seed = seed ^ ((ai as u64) << 32) ^ k as u64;
                Split::new(circuit, interaction, alpha, k, part_seed)
            });
            let Some(split) = split.as_ref() else {
                continue;
            };
            let map = || {
                map_parts(
                    &split.part_sizes,
                    &split.part_graph,
                    split.part_center,
                    cloud,
                    status,
                    &candidate_sets,
                )
            };
            let expand =
                |part_to_qpu: &[QpuId]| expand_to_qubits(split.parts.assignment(), part_to_qpu);
            let cutoff = match &best {
                Some((best, _)) if bounded => Some(Cutoff {
                    best: *best,
                    time_floor: *time_floor
                        .get_or_insert_with(|| execution_time_floor(circuit, cloud.latency())),
                    alpha: config.score_alpha,
                    beta: config.score_beta,
                }),
                _ => None,
            };
            // Every mapping of the split has `T ≥ T_floor` and `C ≥ W`: if
            // that bound cannot win, skip Algorithm 2.
            if let Some(cutoff) = cutoff {
                if cutoff.prunes(split.crossing_gates) {
                    #[cfg(debug_assertions)]
                    audit.skip_cannot_win(
                        cutoff,
                        split.crossing_gates,
                        map().map(|part_to_qpu| expand(&part_to_qpu)).as_ref(),
                    );
                    continue;
                }
            }
            let Some(part_to_qpu) = map() else {
                continue;
            };
            let Some(cost) = split.feasible_cost(&part_to_qpu, cloud, status, config.epsilon)
            else {
                #[cfg(debug_assertions)]
                audit.split_matches_expansion(None, &expand(&part_to_qpu));
                continue;
            };
            // This mapping has `T ≥ T_floor`: if that bound cannot win,
            // skip the `T` walk.
            if let Some(cutoff) = cutoff {
                if cutoff.prunes(cost) {
                    #[cfg(debug_assertions)]
                    audit.skip_cannot_win(cutoff, cost, Some(&expand(&part_to_qpu)));
                    continue;
                }
            }
            let time = part_execution_time(circuit, split.parts.assignment(), &part_to_qpu, cloud);
            #[cfg(debug_assertions)]
            audit.split_matches_expansion(Some((time, cost)), &expand(&part_to_qpu));
            let score = placement_score(time, cost, config.score_alpha, config.score_beta);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, expand(&part_to_qpu)));
            }
        }
    }
    memo.put(shape);
    drop(memo);
    if let Some((_, p)) = best {
        return Ok(p);
    }
    // Balanced partitioning cannot always match very skewed capacity
    // profiles (e.g. one 40-qubit QPU among 8-qubit ones). Fall back to
    // a capacity-aware fill that keeps interacting qubits together:
    // qubits in interaction-BFS order onto QPUs in capacity order.
    // Respects Eq. 3 by construction; ε is still enforced.
    let interaction = interaction.get_or_insert_with(|| interaction_graph(circuit));
    if let Some(placement) = capacity_fill(circuit, interaction, cloud, status) {
        if config.epsilon == usize::MAX
            || remote_ops_per_qpu(circuit, &placement, cloud.qpu_count())
                .iter()
                .all(|&r| r <= config.epsilon)
        {
            return Ok(placement);
        }
    }
    Err(PlacementError::NoFeasiblePlacement)
}

/// The status-independent half of Algorithm 1's sweep, memoized per
/// (circuit shape, seed) and bounded by [`SplitMemo::CAP`] splits.
/// See [`CloudQcPlacement`] for the key, the bound and the sharing.
#[derive(Default)]
pub(crate) struct SplitMemo(Mutex<MemoTable>);

impl SplitMemo {
    /// Most splits the memo holds between calls.
    const CAP: usize = 4_096;

    fn lock(&self) -> MutexGuard<'_, MemoTable> {
        // A panic mid-sweep leaves the table consistent: the shape in
        // use was taken out of it and is simply lost.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Splits held, over all shapes.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().splits
    }
}

impl Clone for SplitMemo {
    /// A clone starts empty: the memo is a cache, not state.
    fn clone(&self) -> Self {
        SplitMemo::default()
    }
}

#[derive(Default)]
struct MemoTable {
    /// Shapes by [`shape_hash`]. A shape whose operands differ from
    /// its hash-mate's replaces it.
    shapes: HashMap<u64, Shape>,
    /// Splits held by `shapes`.
    splits: usize,
}

impl MemoTable {
    /// Removes and returns the entry of (`circuit`'s structure, `seed`),
    /// or a new empty one with room for `sweep` splits.
    fn take(&mut self, circuit: &Circuit, seed: u64, sweep: usize) -> Shape {
        let hash = shape_hash(circuit, seed);
        if let Some(shape) = self.shapes.remove(&hash) {
            self.splits -= shape.splits.len();
            if shape.matches(circuit, seed) {
                return shape;
            }
        }
        Shape {
            hash,
            num_qubits: circuit.num_qubits(),
            seed,
            operands: operands(circuit).collect(),
            splits: HashMap::with_capacity(sweep),
        }
    }

    /// Puts back a shape from [`MemoTable::take`], first clearing
    /// every other shape if it would not fit under the cap. A shape
    /// larger than the cap on its own is dropped.
    fn put(&mut self, shape: Shape) {
        let len = shape.splits.len();
        if self.splits + len > SplitMemo::CAP {
            self.shapes.clear();
            self.splits = 0;
        }
        if len <= SplitMemo::CAP {
            self.splits += len;
            self.shapes.insert(shape.hash, shape);
        }
    }
}

/// One circuit structure under one seed, and its splits by (α index, k):
/// `None` where the partitioner failed.
struct Shape {
    hash: u64,
    num_qubits: usize,
    seed: u64,
    operands: Vec<(Qubit, Qubit)>,
    splits: HashMap<(usize, usize), Option<Split>>,
}

impl Shape {
    /// Whether this entry was built from `circuit`'s structure and `seed`.
    fn matches(&self, circuit: &Circuit, seed: u64) -> bool {
        self.seed == seed
            && self.num_qubits == circuit.num_qubits()
            && self.operands.iter().copied().eq(operands(circuit))
    }
}

/// One partitioning and everything Algorithm 2 and the scoring read of
/// it.
struct Split {
    parts: Partitioning,
    part_sizes: Vec<usize>,
    /// Two-qubit gates crossing each part pair, as edge weights.
    part_graph: Graph,
    /// `weighted_center(part_graph)`: the part Algorithm 2 maps first.
    part_center: usize,
    /// `W`, the gates crossing parts: no mapping's `C` is less.
    crossing_gates: f64,
}

impl Split {
    /// Partitions `interaction`, the interaction graph of `circuit`,
    /// into `k` parts; `None` if the partitioner fails.
    fn new(
        circuit: &Circuit,
        interaction: &Graph,
        alpha: f64,
        k: usize,
        seed: u64,
    ) -> Option<Split> {
        let config = PartitionConfig::new(k)
            .with_imbalance(alpha)
            .with_seed(seed);
        let parts = partition(interaction, &config).ok()?;
        let mut part_sizes = vec![0; k];
        for &p in parts.assignment() {
            part_sizes[p] += 1;
        }
        let part_graph = partition_interaction_graph(circuit, parts.assignment(), k);
        let part_center = weighted_center(&part_graph)?;
        Some(Split {
            parts,
            part_sizes,
            crossing_gates: part_crossing_gates(&part_graph),
            part_graph,
            part_center,
        })
    }

    /// `C` of the injective map `part_to_qpu` if it passes Algorithm 1's
    /// feasibility filter, read at the part level: `None` if a part
    /// overflows its QPU's free computing qubits or a QPU would bear
    /// more than `epsilon` remote operations. Equal, bit for bit, to the
    /// filter and cost of the expanded placement (the debug-build audit
    /// checks every scored and infeasible mapping against it).
    fn feasible_cost(
        &self,
        part_to_qpu: &[QpuId],
        cloud: &Cloud,
        status: &CloudStatus,
        epsilon: usize,
    ) -> Option<f64> {
        let fits = self
            .part_sizes
            .iter()
            .zip(part_to_qpu)
            .all(|(&size, &qpu)| size <= status.free_computing(qpu));
        let feasible = fits
            && (epsilon == usize::MAX
                || part_remote_ops_per_qpu(&self.part_graph, part_to_qpu, cloud.qpu_count())
                    .iter()
                    .all(|&r| r <= epsilon));
        feasible.then(|| part_communication_cost(&self.part_graph, part_to_qpu, cloud))
    }
}

/// Algorithm 1's branch and bound once the sweep has a best score and
/// both weights are ≥ 0 (see [`CloudQcPlacement`]).
#[derive(Clone, Copy)]
struct Cutoff {
    /// The best score so far.
    best: f64,
    /// The circuit's [`execution_time_floor`]: no mapping's `T` is less.
    time_floor: f64,
    alpha: f64,
    beta: f64,
}

impl Cutoff {
    /// The most a mapping whose `C` is at least `cost` can score.
    fn bound(self, cost: f64) -> f64 {
        placement_score(self.time_floor, cost, self.alpha, self.beta)
    }

    /// Whether such a mapping cannot beat the best: at most it ties,
    /// and a tie never replaces the best.
    fn prunes(self, cost: f64) -> bool {
        self.bound(cost) <= self.best
    }
}

/// The debug-build audit of the sweep's part-level scoring and bound.
#[cfg(debug_assertions)]
mod audit {
    use super::Cutoff;
    use crate::placement::cost::{communication_cost, remote_ops_per_qpu};
    use crate::placement::estimate::estimate_execution_time;
    use crate::placement::score::placement_score;
    use crate::placement::Placement;
    use cloudqc_circuit::Circuit;
    use cloudqc_cloud::{Cloud, CloudStatus};

    /// One sweep's inputs, on which the audit filters and scores each
    /// mapping's expansion to qubits.
    pub(super) struct Sweep<'a> {
        pub(super) circuit: &'a Circuit,
        pub(super) cloud: &'a Cloud,
        pub(super) status: &'a CloudStatus,
        pub(super) epsilon: usize,
    }

    impl Sweep<'_> {
        /// Algorithm 1's filter and `(T, C)`, computed on qubits.
        fn time_and_cost(&self, expanded: &Placement) -> Option<(f64, f64)> {
            let Sweep {
                circuit,
                cloud,
                status,
                epsilon,
            } = *self;
            let feasible = expanded.fits(status)
                && (epsilon == usize::MAX
                    || remote_ops_per_qpu(circuit, expanded, cloud.qpu_count())
                        .iter()
                        .all(|&r| r <= epsilon));
            feasible.then(|| {
                (
                    estimate_execution_time(circuit, expanded, cloud),
                    communication_cost(circuit, expanded, cloud),
                )
            })
        }

        /// Panics unless `scored`, a mapping's part-level `(T, C)` or
        /// `None` if it failed the filter, has the bits of the same
        /// filter and metrics computed on `expanded`, its expansion.
        pub(super) fn split_matches_expansion(
            &self,
            scored: Option<(f64, f64)>,
            expanded: &Placement,
        ) {
            let reference = self.time_and_cost(expanded);
            let bits = |tc: Option<(f64, f64)>| tc.map(|(t, c)| (t.to_bits(), c.to_bits()));
            assert_eq!(
                bits(scored),
                bits(reference),
                "part-level (T, C) {scored:?} disagree with the expanded placement's {reference:?}"
            );
        }

        /// Panics unless a split that `cutoff` skipped at `cost` could
        /// not have beaten the best: the bound at `cost` is at most the
        /// best, and `expanded`, the expansion of the split's mapping
        /// (`None` if Algorithm 2 finds none), scores at most that bound
        /// if it passes the filter. A NaN score, from infinite weights
        /// over an infinite `T`, never replaces the best either.
        pub(super) fn skip_cannot_win(
            &self,
            cutoff: Cutoff,
            cost: f64,
            expanded: Option<&Placement>,
        ) {
            let bound = cutoff.bound(cost);
            assert!(
                bound <= cutoff.best,
                "bound {bound} above the best {}",
                cutoff.best
            );
            let Some((t, c)) = expanded.and_then(|expanded| self.time_and_cost(expanded)) else {
                return;
            };
            let score = placement_score(t, c, cutoff.alpha, cutoff.beta);
            assert!(
                score <= bound || score.is_nan(),
                "a skipped split scores {score} (T {t}, C {c}) above its bound {bound}"
            );
        }
    }
}

/// The two-qubit operands of `circuit`, in program order: all a split
/// reads of it besides its qubit count.
fn operands(circuit: &Circuit) -> impl Iterator<Item = (Qubit, Qubit)> + '_ {
    circuit.two_qubit_gates().map(|(_, a, b)| (a, b))
}

/// A word-wise (FxHash-style) hash of `circuit`'s qubit count and
/// two-qubit operands and of `seed`. Only a lookup hint: a hit also
/// compares the operands.
fn shape_hash(circuit: &Circuit, seed: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    operands(circuit).fold(step(seed, circuit.num_qubits() as u64), |h, (a, b)| {
        step(h, (a.index() as u64) << 32 | b.index() as u64)
    })
}

const _: () = {
    // Services may share one placement instance across threads.
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<CloudQcPlacement>();
    send_sync::<super::CloudQcBfsPlacement>();
};

/// Last-resort capacity-aware placement: orders qubits by BFS over the
/// interaction graph (so neighbours stay together) and QPUs by free
/// capacity descending (ties: lower id), then fills QPU by QPU.
pub(super) fn capacity_fill(
    circuit: &Circuit,
    interaction: &cloudqc_graph::Graph,
    cloud: &Cloud,
    status: &CloudStatus,
) -> Option<Placement> {
    use cloudqc_graph::traversal::bfs_order;

    let size = circuit.num_qubits();
    // Qubit order: BFS from the interaction center, then any stragglers
    // (isolated qubits / other components) in index order.
    let mut order: Vec<usize> = match weighted_center(interaction) {
        Some(center) => bfs_order(interaction, center),
        None => Vec::new(),
    };
    let mut seen = vec![false; size];
    for &q in &order {
        seen[q] = true;
    }
    order.extend((0..size).filter(|&q| !seen[q]));

    // QPU order: free capacity descending.
    let mut qpus: Vec<usize> = (0..cloud.qpu_count()).collect();
    qpus.sort_by_key(|&i| (std::cmp::Reverse(status.free_computing(QpuId::new(i))), i));

    let mut assignment = vec![QpuId::new(0); size];
    let mut qpu_iter = qpus.into_iter();
    let mut current = qpu_iter.next()?;
    let mut remaining = status.free_computing(QpuId::new(current));
    for q in order {
        while remaining == 0 {
            current = qpu_iter.next()?;
            remaining = status.free_computing(QpuId::new(current));
        }
        assignment[q] = QpuId::new(current);
        remaining -= 1;
    }
    Some(Placement::new(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::cost::remote_op_count;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn paper_cloud(seed: u64) -> Cloud {
        CloudBuilder::paper_default(seed).build()
    }

    #[test]
    fn small_circuit_lands_on_one_qpu() {
        let cloud = paper_cloud(0);
        let circuit = catalog::by_name("vqe_n4").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 1)
            .unwrap();
        assert!(p.is_single_qpu());
        assert_eq!(remote_op_count(&circuit, &p), 0);
    }

    #[test]
    fn large_circuit_spreads_and_fits() {
        let cloud = paper_cloud(1);
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let status = cloud.status();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 1)
            .unwrap();
        assert_eq!(p.num_qubits(), 127);
        assert!(p.fits(&status));
        assert!(p.used_qpus().len() >= 7); // 127 qubits / 20 per QPU
    }

    #[test]
    fn ghz_chain_places_cheaply() {
        // A chain circuit must induce far fewer remote ops than gates.
        let cloud = paper_cloud(2);
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 3)
            .unwrap();
        let remote = remote_op_count(&circuit, &p);
        // Paper Table III: CloudQC achieves 8 on ghz_n127; anything close
        // to the part count is acceptable, anything near random (~100+)
        // is a regression.
        assert!(remote <= 20, "remote ops {remote}");
    }

    #[test]
    fn insufficient_capacity_reported() {
        let cloud = CloudBuilder::new(2).computing_qubits(10).build();
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let err = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 0)
            .unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
    }

    #[test]
    fn respects_partially_used_cloud() {
        let cloud = paper_cloud(3);
        let mut status = cloud.status();
        // Fill half the QPUs completely.
        for i in 0..10 {
            status.allocate_computing(QpuId::new(i), 20).unwrap();
        }
        let circuit = catalog::by_name("cat_n65").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 4)
            .unwrap();
        assert!(p.fits(&status));
        for q in p.used_qpus() {
            assert!(q.index() >= 10, "placed on full {q}");
        }
    }

    #[test]
    fn epsilon_constraint_filters() {
        let cloud = paper_cloud(4);
        let circuit = catalog::by_name("qft_n63").unwrap();
        // An absurdly tight ε makes every distributed placement
        // infeasible; qft_n63 (63 qubits) cannot fit one QPU, so
        // placement must fail.
        let algo = CloudQcPlacement::new(PlacementConfig::default().with_epsilon(1));
        let err = algo
            .place(&circuit, &cloud, &cloud.status(), 5)
            .unwrap_err();
        assert_eq!(err, PlacementError::NoFeasiblePlacement);
    }

    #[test]
    fn epsilon_bound_is_inclusive() {
        // Eq. 6 admits R(V_j) ≤ ε: capping ε at the unconstrained
        // placement's own peak keeps that placement.
        let cloud = paper_cloud(4);
        let circuit = catalog::by_name("qft_n63").unwrap();
        let status = cloud.status();
        let free = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 5)
            .unwrap();
        let per_qpu = remote_ops_per_qpu(&circuit, &free, cloud.qpu_count());
        let peak = *per_qpu.iter().max().unwrap();
        let capped = CloudQcPlacement::new(PlacementConfig::default().with_epsilon(peak));
        assert_eq!(capped.place(&circuit, &cloud, &status, 5), Ok(free));
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = paper_cloud(5);
        let circuit = catalog::by_name("knn_n67").unwrap();
        let algo = CloudQcPlacement::default();
        let a = algo.place(&circuit, &cloud, &cloud.status(), 9).unwrap();
        let b = algo.place(&circuit, &cloud, &cloud.status(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_capacities_fall_back_to_capacity_fill() {
        use cloudqc_cloud::Qpu;
        // Balanced partitioning cannot split 50 qubits over (40,8,8,8);
        // the capacity-aware fallback must.
        let cloud = CloudBuilder::new(4)
            .ring_topology()
            .heterogeneous_qpus(vec![
                Qpu::new(40, 5),
                Qpu::new(8, 5),
                Qpu::new(8, 5),
                Qpu::new(8, 5),
            ])
            .build();
        let circuit = catalog::by_name("ghz_n50").unwrap();
        let status = cloud.status();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 1)
            .unwrap();
        assert!(p.fits(&status));
        // The big QPU takes the bulk; the BFS ordering keeps the GHZ
        // chain mostly contiguous so remote ops stay near the minimum.
        assert_eq!(p.qpu_demand(4)[0], 40);
        assert!(remote_op_count(&circuit, &p) <= 5);
    }

    /// `count` distinct statuses of `cloud` that leave QPU 0 whole and
    /// take 1–11 qubits from every other QPU.
    fn statuses_keeping_one_block(cloud: &Cloud, count: usize) -> Vec<CloudStatus> {
        (0..count)
            .map(|i| {
                let mut status = cloud.status();
                for q in 1..cloud.qpu_count() {
                    let take = 1 + (q * 7 + i * 3) % 11;
                    status.allocate_computing(QpuId::new(q), take).unwrap();
                }
                status
            })
            .collect()
    }

    #[test]
    fn sweep_partitions_each_shape_once() {
        let cloud = paper_cloud(1);
        let qft = catalog::by_name("qft_n29").unwrap();
        let algo = CloudQcPlacement::default();
        // 29 qubits over a largest free block of 20: k = 2..=6.
        let sweep = algo.config().imbalance_factors.len() * 5;
        assert_eq!(sweep, 15);
        for status in statuses_keeping_one_block(&cloud, 10) {
            assert_eq!(status.max_free_computing(), 20);
            let fresh = CloudQcPlacement::default().place(&qft, &cloud, &status, 7);
            assert_eq!(algo.place(&qft, &cloud, &status, 7), fresh);
            // The status is not part of the key: ten statuses, one sweep.
            assert_eq!(algo.memo.len(), sweep);
        }
        // A second shape adds its own splits.
        let ising = catalog::by_name("ising_n34").unwrap();
        let status = cloud.status();
        let fresh = CloudQcPlacement::default().place(&ising, &cloud, &status, 7);
        assert_eq!(algo.place(&ising, &cloud, &status, 7), fresh);
        assert_eq!(algo.memo.len(), 2 * sweep);
        // The memo is a cache: clones start empty, Debug leaves it out.
        assert_eq!(algo.clone().memo.len(), 0);
        assert_eq!(
            format!("{algo:?}"),
            format!("CloudQcPlacement {{ config: {:?} }}", algo.config())
        );
    }

    #[test]
    fn memo_stays_within_its_cap() {
        // ghz_n20 over two 16-qubit QPUs sweeps k = 2 alone: |α| splits
        // per seed, so enough seeds overflow the memo.
        let cloud = CloudBuilder::new(2).computing_qubits(16).build();
        let ghz = catalog::by_name("ghz_n20").unwrap();
        let status = cloud.status();
        let algo = CloudQcPlacement::default();
        let per_seed = algo.config().imbalance_factors.len();
        let mut peak = 0;
        for seed in 0..(SplitMemo::CAP / per_seed + 10) as u64 {
            let fresh = CloudQcPlacement::default().place(&ghz, &cloud, &status, seed);
            assert_eq!(algo.place(&ghz, &cloud, &status, seed), fresh);
            assert!(algo.memo.len() <= SplitMemo::CAP);
            peak = peak.max(algo.memo.len());
        }
        assert!(peak > SplitMemo::CAP - per_seed, "peak {peak}");
        assert!(algo.memo.len() < peak, "the memo was never cleared");
    }
}
