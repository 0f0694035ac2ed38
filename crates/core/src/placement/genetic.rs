//! The genetic-algorithm baseline (paper §VI.B, citing Holland).

use super::cost::communication_cost;
use super::moves::MoveKernel;
use super::random::RandomPlacement;
use super::{check_total_capacity, Placement, PlacementAlgorithm};
use crate::error::PlacementError;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A genetic algorithm over qubit→QPU assignments: tournament selection,
/// uniform crossover with capacity repair, random-move mutation; fitness
/// is `1 / (1 + communication cost)`.
#[derive(Clone, Debug)]
pub struct GeneticPlacement {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-qubit mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for GeneticPlacement {
    fn default() -> Self {
        GeneticPlacement {
            population: 32,
            generations: 80,
            mutation_rate: 0.05,
            tournament: 3,
        }
    }
}

impl PlacementAlgorithm for GeneticPlacement {
    fn name(&self) -> &'static str {
        "GA"
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        check_total_capacity(circuit, status)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A6A);
        let size = circuit.num_qubits();
        let n = cloud.qpu_count();
        let free: Vec<usize> = (0..n)
            .map(|i| status.free_computing(QpuId::new(i)))
            .collect();

        // Initial population from the random baseline (distinct seeds).
        let mut population: Vec<Vec<QpuId>> = (0..self.population)
            .map(|i| {
                RandomPlacement
                    .place(circuit, cloud, status, seed.wrapping_add(i as u64 * 7919))
                    .map(|p| p.assignment().to_vec())
            })
            .collect::<Result<_, _>>()?;
        let cost_of = |genome: &Vec<QpuId>| {
            communication_cost(circuit, &Placement::new(genome.clone()), cloud)
        };
        let mut costs: Vec<f64> = population.iter().map(cost_of).collect();

        for _ in 0..self.generations {
            let mut next = Vec::with_capacity(self.population);
            // Elitism: keep the single best genome.
            let best_idx = (0..population.len())
                .min_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"))
                .expect("population non-empty");
            next.push(population[best_idx].clone());
            while next.len() < self.population {
                let pa = self.select(&costs, &mut rng);
                let pb = self.select(&costs, &mut rng);
                let mut child = uniform_crossover(&population[pa], &population[pb], &mut rng);
                mutate(&mut child, n, self.mutation_rate, &mut rng);
                repair_capacity(&mut child, &free, &mut rng);
                next.push(child);
            }
            population = next;
            costs = population.iter().map(cost_of).collect();
        }

        let best_idx = (0..population.len())
            .min_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"))
            .expect("population non-empty");
        debug_assert_eq!(population[best_idx].len(), size);
        Ok(Placement::new(population[best_idx].clone()))
    }
}

impl GeneticPlacement {
    /// Tournament selection: the lowest-cost of `tournament` random
    /// genomes.
    fn select(&self, costs: &[f64], rng: &mut StdRng) -> usize {
        (0..self.tournament)
            .map(|_| rng.random_range(0..costs.len()))
            .min_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"))
            .expect("tournament non-empty")
    }
}

fn uniform_crossover(a: &[QpuId], b: &[QpuId], rng: &mut StdRng) -> Vec<QpuId> {
    a.iter()
        .zip(b)
        .map(|(&ga, &gb)| if rng.random_bool(0.5) { ga } else { gb })
        .collect()
}

fn mutate(genome: &mut [QpuId], qpu_count: usize, rate: f64, rng: &mut StdRng) {
    for slot in genome.iter_mut() {
        if rng.random_bool(rate) {
            *slot = QpuId::new(rng.random_range(0..qpu_count));
        }
    }
}

/// Moves qubits off overloaded QPUs onto random QPUs with headroom —
/// the shared [`MoveKernel::reseat`] move with a random scan start.
fn repair_capacity(genome: &mut [QpuId], free: &[usize], rng: &mut StdRng) {
    let n = free.len();
    let mut kernel = MoveKernel::new(genome, free.to_vec());
    for q in 0..genome.len() {
        if kernel.is_overloaded(genome[q].index()) {
            let start = rng.random_range(0..n);
            kernel.reseat(genome, q, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn quick_ga() -> GeneticPlacement {
        GeneticPlacement {
            population: 16,
            generations: 20,
            ..GeneticPlacement::default()
        }
    }

    #[test]
    fn improves_over_random() {
        let cloud = CloudBuilder::paper_default(11).build();
        let circuit = catalog::by_name("cat_n65").unwrap();
        let status = cloud.status();
        let random = RandomPlacement.place(&circuit, &cloud, &status, 5).unwrap();
        let ga = quick_ga().place(&circuit, &cloud, &status, 5).unwrap();
        assert!(
            communication_cost(&circuit, &ga, &cloud)
                <= communication_cost(&circuit, &random, &cloud)
        );
    }

    #[test]
    fn stays_capacity_feasible() {
        let cloud = CloudBuilder::paper_default(12).build();
        let circuit = catalog::by_name("qugan_n71").unwrap();
        let status = cloud.status();
        let p = quick_ga().place(&circuit, &cloud, &status, 6).unwrap();
        assert!(p.fits(&status));
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = CloudBuilder::paper_default(13).build();
        let circuit = catalog::by_name("bv_n70").unwrap();
        let a = quick_ga()
            .place(&circuit, &cloud, &cloud.status(), 8)
            .unwrap();
        let b = quick_ga()
            .place(&circuit, &cloud, &cloud.status(), 8)
            .unwrap();
        assert_eq!(a, b);
    }
}
