//! Measurement routines behind each experiment binary.
//!
//! Each function returns structured data so integration tests can
//! assert the qualitative shape of every figure (method ordering,
//! monotonicity) without parsing printed tables.

use crate::args::ExpArgs;
use crate::registry::{
    fig22_circuits, multi_tenant_workloads, placement_methods, placement_methods_quick,
    representative_circuits, schedulers, table3_circuits,
};
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudBuilder};
use cloudqc_core::exec::simulate_job;
use cloudqc_core::placement::{cost, CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm};
use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use cloudqc_sim::metrics::Cdf;
use cloudqc_sim::SimRng;

/// The paper's default cloud (§VI.A) with a per-repetition topology
/// seed.
pub fn default_cloud(seed: u64, rep: usize) -> Cloud {
    CloudBuilder::paper_default(
        SimRng::new(seed)
            .fork_indexed("topology", rep as u64)
            .seed(),
    )
    .build()
}

/// One x-swept figure: a named circuit, shared x values, and one y
/// series per method.
#[derive(Clone, Debug)]
pub struct FigSeries {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Swept x values.
    pub x: Vec<f64>,
    /// `(method name, y per x)` series.
    pub series: Vec<(String, Vec<f64>)>,
}

/// A whole table of per-circuit method comparisons (Table III).
#[derive(Clone, Debug)]
pub struct MethodTable {
    /// Method names, in column order.
    pub methods: Vec<String>,
    /// `(circuit name, value per method)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl MethodTable {
    /// The value for `(circuit, method)`, if present.
    pub fn value(&self, circuit: &str, method: &str) -> Option<f64> {
        let col = self.methods.iter().position(|m| m == method)?;
        let row = self.rows.iter().find(|(c, _)| c == circuit)?;
        row.1.get(col).copied()
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Table III: mean remote-operation count of each placement method on
/// each benchmark, over `args.reps` topology samples.
pub fn table3_data(args: &ExpArgs) -> MethodTable {
    let methods = if args.paper {
        placement_methods()
    } else {
        placement_methods_quick()
    };
    let circuits = table3_circuits();
    let mut rows = Vec::new();
    for circuit in &circuits {
        let mut per_method = Vec::new();
        for method in &methods {
            let samples: Vec<f64> = (0..args.reps)
                .map(|rep| {
                    let cloud = default_cloud(args.seed, rep);
                    let seed = SimRng::new(args.seed).fork_indexed(method.name(), rep as u64);
                    match method.place(circuit, &cloud, &cloud.status(), seed.seed()) {
                        Ok(p) => cost::remote_op_count(circuit, &p) as f64,
                        Err(e) => panic!("{} failed on {}: {e}", method.name(), circuit.name()),
                    }
                })
                .collect();
            per_method.push(mean(&samples));
        }
        rows.push((circuit.name().to_owned(), per_method));
    }
    MethodTable {
        methods: methods.iter().map(|m| m.name().to_owned()).collect(),
        rows,
    }
}

/// Figs. 6–9: communication overhead (`Σ D_ij·C_ij`) vs computing
/// qubits per QPU, for the four representative circuits × five
/// placement methods.
pub fn fig06_09_data(args: &ExpArgs) -> Vec<FigSeries> {
    let methods = if args.paper {
        placement_methods()
    } else {
        placement_methods_quick()
    };
    let sweep: Vec<usize> = if args.paper {
        vec![10, 15, 20, 25, 30, 35, 40, 45, 50]
    } else {
        vec![10, 20, 30, 40, 50]
    };
    representative_circuits()
        .iter()
        .map(|circuit| {
            let mut series: Vec<(String, Vec<f64>)> = methods
                .iter()
                .map(|m| (m.name().to_owned(), Vec::new()))
                .collect();
            for &computing in &sweep {
                for (mi, method) in methods.iter().enumerate() {
                    let samples: Vec<f64> = (0..args.reps)
                        .map(|rep| {
                            let topo_seed = SimRng::new(args.seed)
                                .fork_indexed("topology", rep as u64)
                                .seed();
                            let cloud = CloudBuilder::new(20)
                                .computing_qubits(computing)
                                .communication_qubits(5)
                                .random_topology(0.3, topo_seed)
                                .build();
                            let seed = SimRng::new(args.seed)
                                .fork_indexed(method.name(), (computing * 1000 + rep) as u64);
                            match method.place(circuit, &cloud, &cloud.status(), seed.seed()) {
                                Ok(p) => cost::communication_cost(circuit, &p, &cloud),
                                Err(e) => panic!(
                                    "{} failed on {} at {computing} qubits: {e}",
                                    method.name(),
                                    circuit.name()
                                ),
                            }
                        })
                        .collect();
                    series[mi].1.push(mean(&samples));
                }
            }
            FigSeries {
                circuit: circuit.name().to_owned(),
                x: sweep.iter().map(|&c| c as f64).collect(),
                series,
            }
        })
        .collect()
}

/// Shared JCT sweep runner: builds a cloud per (x, rep), places once
/// with CloudQC, and simulates under every scheduler.
fn jct_sweep(
    args: &ExpArgs,
    circuits: &[Circuit],
    x_values: &[f64],
    build_cloud: impl Fn(f64, u64) -> Cloud,
) -> Vec<FigSeries> {
    let scheds = schedulers();
    circuits
        .iter()
        .map(|circuit| {
            let mut series: Vec<(String, Vec<f64>)> = scheds
                .iter()
                .map(|s| (s.name().to_owned(), Vec::new()))
                .collect();
            for (xi, &x) in x_values.iter().enumerate() {
                let mut sums = vec![0.0f64; scheds.len()];
                for rep in 0..args.reps {
                    let topo_seed = SimRng::new(args.seed)
                        .fork_indexed("topology", rep as u64)
                        .seed();
                    let cloud = build_cloud(x, topo_seed);
                    let place_seed = SimRng::new(args.seed)
                        .fork_indexed("placement", (xi * 1000 + rep) as u64)
                        .seed();
                    let placement = CloudQcPlacement::default()
                        .place(circuit, &cloud, &cloud.status(), place_seed)
                        .unwrap_or_else(|e| panic!("placement failed on {}: {e}", circuit.name()));
                    for (si, sched) in scheds.iter().enumerate() {
                        let sim_seed = SimRng::new(args.seed)
                            .fork_indexed(sched.name(), (xi * 1000 + rep) as u64)
                            .seed();
                        let result =
                            simulate_job(circuit, &placement, &cloud, sched.as_ref(), sim_seed);
                        sums[si] += result.completion_time.as_ticks() as f64;
                    }
                }
                for (si, sum) in sums.iter().enumerate() {
                    series[si].1.push(sum / args.reps as f64);
                }
            }
            FigSeries {
                circuit: circuit.name().to_owned(),
                x: x_values.to_vec(),
                series,
            }
        })
        .collect()
}

/// Figs. 10–13: mean JCT vs communication qubits per QPU (5..=10).
pub fn fig10_13_data(args: &ExpArgs) -> Vec<FigSeries> {
    let x: Vec<f64> = (5..=10).map(|c| c as f64).collect();
    jct_sweep(args, &representative_circuits(), &x, |comm, topo_seed| {
        CloudBuilder::new(20)
            .computing_qubits(20)
            .communication_qubits(comm as usize)
            .random_topology(0.3, topo_seed)
            .build()
    })
}

/// Figs. 18–21: mean JCT vs EPR success probability (0.1..=0.5).
pub fn fig18_21_data(args: &ExpArgs) -> Vec<FigSeries> {
    let x: Vec<f64> = if args.paper {
        (0..9).map(|i| 0.1 + 0.05 * i as f64).collect()
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5]
    };
    jct_sweep(args, &representative_circuits(), &x, |p, topo_seed| {
        CloudBuilder::paper_default(topo_seed)
            .epr_success_prob(p)
            .build()
    })
}

/// Fig. 22: mean JCT of each scheduler on the default setting, relative
/// to CloudQC (CloudQC ≡ 1.0).
pub fn fig22_data(args: &ExpArgs) -> MethodTable {
    let scheds = schedulers();
    let circuits = fig22_circuits();
    let mut rows = Vec::new();
    for circuit in &circuits {
        let mut means = Vec::new();
        for sched in &scheds {
            let samples: Vec<f64> = (0..args.reps)
                .map(|rep| {
                    let cloud = default_cloud(args.seed, rep);
                    let place_seed = SimRng::new(args.seed)
                        .fork_indexed("placement", rep as u64)
                        .seed();
                    let placement = CloudQcPlacement::default()
                        .place(circuit, &cloud, &cloud.status(), place_seed)
                        .unwrap_or_else(|e| panic!("placement failed on {}: {e}", circuit.name()));
                    let sim_seed = SimRng::new(args.seed)
                        .fork_indexed(sched.name(), rep as u64)
                        .seed();
                    simulate_job(circuit, &placement, &cloud, sched.as_ref(), sim_seed)
                        .completion_time
                        .as_ticks() as f64
                })
                .collect();
            means.push(mean(&samples));
        }
        // Normalize to CloudQC (last column of the registry order).
        let cloudqc_mean = means[scheds.len() - 1].max(1.0);
        let relative: Vec<f64> = means.iter().map(|m| m / cloudqc_mean).collect();
        rows.push((circuit.name().to_owned(), relative));
    }
    MethodTable {
        methods: scheds.iter().map(|s| s.name().to_owned()).collect(),
        rows,
    }
}

/// One multi-tenant CDF: workload name, then per-method completion-time
/// CDFs (in ticks).
#[derive(Clone, Debug)]
pub struct CdfSeries {
    /// Workload name (Mixed / QFT / Qugan / Arithmetic).
    pub workload: String,
    /// `(method name, completion-time CDF)` series.
    pub series: Vec<(String, Cdf)>,
}

/// Figs. 14–17: multi-tenant JCT CDFs for CloudQC, CloudQC-BFS and
/// CloudQC-FIFO over the four workloads.
///
/// Scale: the paper uses 50 batches × 20 circuits × 20 topologies; the
/// default here is 4 × 8 × 2 (pass `--paper` for the full setting).
pub fn fig14_17_data(args: &ExpArgs) -> Vec<CdfSeries> {
    let (batches, jobs_per_batch, topologies) = if args.paper { (50, 20, 20) } else { (4, 8, 2) };
    let variants: Vec<(&str, Box<dyn PlacementAlgorithm>, AdmissionPolicy)> = vec![
        (
            "CloudQC",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "CloudQC-BFS",
            Box::new(CloudQcBfsPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "CloudQC-FIFO",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::Backfill,
        ),
    ];
    multi_tenant_workloads()
        .iter()
        .map(|workload| {
            let series = variants
                .iter()
                .map(|(name, algo, admission)| {
                    let mut jcts: Vec<f64> = Vec::new();
                    for batch_idx in 0..batches {
                        let batch = Workload::batch(sample_batch(
                            &workload.circuits,
                            jobs_per_batch,
                            args.seed,
                            batch_idx,
                        ));
                        for topo in 0..topologies {
                            let cloud = default_cloud(args.seed, batch_idx * 1000 + topo);
                            let run_seed = SimRng::new(args.seed)
                                .fork_indexed(name, (batch_idx * 1000 + topo) as u64)
                                .seed();
                            let run = ServiceBuilder::new(
                                &cloud,
                                algo.as_ref(),
                                &CloudQcScheduler,
                                run_seed,
                            )
                            .admission(*admission)
                            .run(&batch)
                            .unwrap_or_else(|e| {
                                panic!("{name} failed on workload {}: {e}", workload.name)
                            });
                            assert!(
                                run.rejected.is_empty(),
                                "{name} rejected jobs on workload {}: {:?}",
                                workload.name,
                                run.rejected
                            );
                            jcts.extend(run.completion_times().iter().map(|t| t.as_ticks() as f64));
                        }
                    }
                    (name.to_string(), Cdf::new(jcts))
                })
                .collect();
            CdfSeries {
                workload: workload.name.to_owned(),
                series,
            }
        })
        .collect()
}

/// Draws `count` circuits uniformly (seeded) from a workload's pool.
pub fn sample_batch(pool: &[Circuit], count: usize, seed: u64, batch_idx: usize) -> Vec<Circuit> {
    use rand::RngExt;
    let mut rng = SimRng::new(seed)
        .fork_indexed("batch", batch_idx as u64)
        .into_std();
    (0..count)
        .map(|_| pool[rng.random_range(0..pool.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> ExpArgs {
        ExpArgs {
            seed: 1,
            reps: 1,
            paper: false,
        }
    }

    #[test]
    fn sample_batch_is_deterministic() {
        let pool = crate::registry::multi_tenant_workloads().remove(1).circuits;
        let a = sample_batch(&pool, 5, 7, 0);
        let b = sample_batch(&pool, 5, 7, 0);
        assert_eq!(
            a.iter().map(|c| c.name().to_owned()).collect::<Vec<_>>(),
            b.iter().map(|c| c.name().to_owned()).collect::<Vec<_>>()
        );
        let c = sample_batch(&pool, 5, 7, 1);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn method_table_lookup() {
        let t = MethodTable {
            methods: vec!["A".into(), "B".into()],
            rows: vec![("c1".into(), vec![1.0, 2.0])],
        };
        assert_eq!(t.value("c1", "B"), Some(2.0));
        assert_eq!(t.value("c1", "Z"), None);
        assert_eq!(t.value("zz", "A"), None);
    }

    #[test]
    fn jct_sweep_structure_on_cheap_circuit() {
        use cloudqc_circuit::generators::catalog;
        let args = tiny_args();
        let circuits = vec![catalog::by_name("ghz_n40").unwrap()];
        let x = vec![5.0, 10.0];
        let data = jct_sweep(&args, &circuits, &x, |comm, topo_seed| {
            CloudBuilder::new(20)
                .communication_qubits(comm as usize)
                .random_topology(0.3, topo_seed)
                .build()
        });
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].x, x);
        assert_eq!(data[0].series.len(), 4);
        for (name, ys) in &data[0].series {
            assert_eq!(ys.len(), 2, "{name}");
            assert!(ys.iter().all(|&y| y > 0.0), "{name}");
        }
    }
}
