//! Ablation studies for CloudQC's design choices (beyond the paper's
//! figures):
//!
//! 1. Batch-ordering weights λ₁..λ₃ (Eq. 11) on multi-tenant mean JCT.
//! 2. Scoring weights α/β (`S = α/T + β/C`) on single-circuit outcomes.
//! 3. Imbalance-factor sweep width (Algorithm 1's filter breadth).
//! 4. Link reliability (the §V.B extension) on job completion time.
//! 5. Path reservation at entanglement-swapping stations.
//! 6. Admission policy (FCFS vs backfill vs priority) under bursty
//!    open arrivals, via the unified runtime.

use cloudqc_circuit::generators::catalog;
use cloudqc_cloud::CloudBuilder;
use cloudqc_core::config::{BatchWeights, PlacementConfig};
use cloudqc_core::exec::simulate_job;
use cloudqc_core::placement::{cost, CloudQcPlacement, PlacementAlgorithm};
use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use cloudqc_experiments::table::fmt_num;
use cloudqc_experiments::{ExpArgs, Table};
use cloudqc_sim::SimRng;

fn main() {
    let args = ExpArgs::parse();
    batch_weights_ablation(&args);
    score_weights_ablation(&args);
    imbalance_sweep_ablation(&args);
    reliability_ablation(&args);
    path_reservation_ablation(&args);
    admission_ablation(&args);
}

/// Renders per-variant rejection counts ("no-comm-qubits×2 no-route×1",
/// or "none") for the ablation tables.
fn rejection_breakdown(rejections: &[(usize, cloudqc_core::error::ExecError)]) -> String {
    use std::collections::BTreeMap;
    if rejections.is_empty() {
        return "none".to_owned();
    }
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (_, err) in rejections {
        *counts.entry(err.kind_name()).or_default() += 1;
    }
    counts
        .iter()
        .map(|(kind, n)| format!("{kind}\u{d7}{n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Ablation 6: how much of the batch manager's win is the *ordering*
/// and how much the *backfill*? Bursty arrivals stress both. The
/// rejection column breaks rejected jobs down by `ExecError` variant
/// (all `none` on the paper's healthy fabric — see 6b for a degraded
/// one).
fn admission_ablation(args: &ExpArgs) {
    println!("\nAblation 6: admission policy under bursty arrivals (runtime layer)\n");
    let pool: Vec<_> = ["qft_n63", "qugan_n71", "knn_n67", "ghz_n127", "vqe_n4"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect();
    let policies: Vec<(&str, AdmissionPolicy)> = vec![
        ("FCFS (blocking)", AdmissionPolicy::Fcfs),
        ("backfill", AdmissionPolicy::Backfill),
        ("priority+backfill", AdmissionPolicy::default()),
    ];
    let mut t = Table::new(vec![
        "admission",
        "mean JCT",
        "mean queue delay",
        "makespan",
        "rejected (by cause)",
    ]);
    for (name, policy) in &policies {
        let mut jct = 0.0;
        let mut queue = 0.0;
        let mut makespan = 0.0;
        let mut rejections = Vec::new();
        for rep in 0..args.reps {
            let topo_seed = SimRng::new(args.seed)
                .fork_indexed("topo6", rep as u64)
                .seed();
            let cloud = CloudBuilder::paper_default(topo_seed).build();
            let run_seed = args.seed + rep as u64;
            let workload = Workload::bursty(&pool, 3, 4, 20_000.0, run_seed);
            let placement = CloudQcPlacement::default();
            let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, run_seed)
                .admission(*policy)
                .run(&workload)
                .expect("bursty run completes");
            jct += report.mean_completion_time();
            queue += report.mean_breakdown().expect("non-empty").queueing;
            makespan += report.makespan.as_ticks() as f64;
            rejections.extend(report.rejected);
        }
        let r = args.reps as f64;
        t.row(vec![
            (*name).to_owned(),
            fmt_num(jct / r),
            fmt_num(queue / r),
            fmt_num(makespan / r),
            rejection_breakdown(&rejections),
        ]);
    }
    t.print();
    println!("\nBackfill removes head-of-line blocking; priority ordering additionally\nplaces dense jobs while the cloud is still well-connected.");
    rejection_ablation(args, &policies);
}

/// Ablation 6b: the same policies on a communication-starved fabric
/// (QPUs without communication qubits), where distributed jobs are
/// rejected — the per-variant breakdown shows *why* each job bounced.
fn rejection_ablation(args: &ExpArgs, policies: &[(&str, AdmissionPolicy)]) {
    use cloudqc_cloud::Qpu;
    println!("\nAblation 6b: rejection causes on a comm-starved fabric\n");
    // Half the QPUs have no communication qubits: single-QPU jobs run,
    // spanning jobs whose placement touches a dark QPU are rejected.
    let cloud = CloudBuilder::new(4)
        .line_topology()
        .heterogeneous_qpus(vec![
            Qpu::new(20, 0),
            Qpu::new(20, 3),
            Qpu::new(20, 0),
            Qpu::new(20, 3),
        ])
        .build();
    let pool: Vec<_> = ["ghz_n40", "vqe_n4", "qft_n29", "ghz_n50"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect();
    let mut t = Table::new(vec!["admission", "completed", "rejected (by cause)"]);
    for (name, policy) in policies {
        let mut completed = 0usize;
        let mut rejections = Vec::new();
        for rep in 0..args.reps {
            let run_seed = args.seed + rep as u64;
            let workload = Workload::poisson(&pool, 8, 5_000.0, run_seed);
            let placement = CloudQcPlacement::default();
            let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, run_seed)
                .admission(*policy)
                .run(&workload)
                .expect("starved run completes");
            completed += report.outcomes.len();
            rejections.extend(report.rejected);
        }
        t.row(vec![
            (*name).to_owned(),
            format!("{completed}"),
            rejection_breakdown(&rejections),
        ]);
    }
    t.print();
    println!(
        "\nEvery bounced job names its ExecError variant; on this fabric spanning\njobs die of no-comm-qubits while single-QPU jobs still complete."
    );
}

/// Ablation 1: how much does the Eq. 11 ordering metric matter, and
/// which term carries it?
fn batch_weights_ablation(args: &ExpArgs) {
    println!("Ablation 1: batch-ordering weights (multi-tenant mean JCT, ticks)\n");
    let batch = Workload::batch(
        [
            "qft_n63",
            "qugan_n71",
            "knn_n67",
            "adder_n64",
            "multiplier_n45",
            "ghz_n127",
        ]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit")),
    );
    let variants: Vec<(&str, AdmissionPolicy)> = vec![
        ("FIFO", AdmissionPolicy::Backfill),
        ("default (1,1,0.1)", AdmissionPolicy::default()),
        (
            "density only",
            AdmissionPolicy::PriorityBackfill(BatchWeights {
                lambda1: 1.0,
                lambda2: 0.0,
                lambda3: 0.0,
            }),
        ),
        (
            "width only",
            AdmissionPolicy::PriorityBackfill(BatchWeights {
                lambda1: 0.0,
                lambda2: 1.0,
                lambda3: 0.0,
            }),
        ),
        (
            "depth only",
            AdmissionPolicy::PriorityBackfill(BatchWeights {
                lambda1: 0.0,
                lambda2: 0.0,
                lambda3: 1.0,
            }),
        ),
    ];
    let mut t = Table::new(vec!["ordering", "mean JCT", "makespan"]);
    for (name, policy) in variants {
        let mut jct_sum = 0.0;
        let mut makespan_sum = 0.0;
        for rep in 0..args.reps {
            let cloud = CloudBuilder::paper_default(
                SimRng::new(args.seed)
                    .fork_indexed("topo", rep as u64)
                    .seed(),
            )
            .build();
            let placement = CloudQcPlacement::default();
            let run = ServiceBuilder::new(
                &cloud,
                &placement,
                &CloudQcScheduler,
                args.seed + rep as u64,
            )
            .admission(policy)
            .run(&batch)
            .expect("batch completes");
            assert!(run.rejected.is_empty(), "{name}: {:?}", run.rejected);
            jct_sum += run.mean_completion_time();
            makespan_sum += run.makespan.as_ticks() as f64;
        }
        t.row(vec![
            name.to_owned(),
            fmt_num(jct_sum / args.reps as f64),
            fmt_num(makespan_sum / args.reps as f64),
        ]);
    }
    t.print();
    println!();
}

/// Ablation 2: time-only vs cost-only vs combined placement scoring.
fn score_weights_ablation(args: &ExpArgs) {
    println!("Ablation 2: scoring weights S = a/T + b/C (single circuit)\n");
    let circuit = catalog::by_name("qugan_n111").expect("catalog circuit");
    let mut t = Table::new(vec!["weights (a,b)", "remote ops", "comm cost", "JCT"]);
    for (name, alpha, beta) in [
        ("time only (1,0)", 1.0, 0.0),
        ("cost only (0,1)", 0.0, 1.0),
        ("combined (1,1)", 1.0, 1.0),
    ] {
        let mut ops = 0.0;
        let mut cost_sum = 0.0;
        let mut jct = 0.0;
        for rep in 0..args.reps {
            let cloud = CloudBuilder::paper_default(
                SimRng::new(args.seed)
                    .fork_indexed("topo2", rep as u64)
                    .seed(),
            )
            .build();
            let algo =
                CloudQcPlacement::new(PlacementConfig::default().with_score_weights(alpha, beta));
            let p = algo
                .place(&circuit, &cloud, &cloud.status(), args.seed + rep as u64)
                .expect("placement succeeds");
            ops += cost::remote_op_count(&circuit, &p) as f64;
            cost_sum += cost::communication_cost(&circuit, &p, &cloud);
            jct += simulate_job(
                &circuit,
                &p,
                &cloud,
                &CloudQcScheduler,
                args.seed + rep as u64,
            )
            .completion_time
            .as_ticks() as f64;
        }
        let r = args.reps as f64;
        t.row(vec![
            name.to_owned(),
            fmt_num(ops / r),
            fmt_num(cost_sum / r),
            fmt_num(jct / r),
        ]);
    }
    t.print();
    println!();
}

/// Ablation 3: does sweeping several imbalance factors (Algorithm 1's
/// filter breadth) beat a single factor?
fn imbalance_sweep_ablation(args: &ExpArgs) {
    println!("Ablation 3: imbalance-factor sweep breadth (remote ops)\n");
    let circuits = ["qugan_n111", "adder_n118", "knn_n129"];
    let configs: Vec<(&str, Vec<f64>)> = vec![
        ("single 0.1", vec![0.1]),
        ("single 0.5", vec![0.5]),
        ("sweep {0.1,0.3,0.5}", vec![0.1, 0.3, 0.5]),
        (
            "wide sweep {0.05..1.0}",
            vec![0.05, 0.1, 0.2, 0.3, 0.5, 1.0],
        ),
    ];
    let mut headers = vec!["config".to_string()];
    headers.extend(circuits.iter().map(|c| c.to_string()));
    let mut t = Table::new(headers);
    for (name, factors) in configs {
        let algo =
            CloudQcPlacement::new(PlacementConfig::default().with_imbalance_factors(factors));
        let mut row = vec![name.to_owned()];
        for c in circuits {
            let circuit = catalog::by_name(c).expect("catalog circuit");
            let mut ops = 0.0;
            for rep in 0..args.reps {
                let cloud = CloudBuilder::paper_default(
                    SimRng::new(args.seed)
                        .fork_indexed("topo3", rep as u64)
                        .seed(),
                )
                .build();
                let p = algo
                    .place(&circuit, &cloud, &cloud.status(), args.seed + rep as u64)
                    .expect("placement succeeds");
                ops += cost::remote_op_count(&circuit, &p) as f64;
            }
            row.push(fmt_num(ops / args.reps as f64));
        }
        t.row(row);
    }
    t.print();
    println!();
}

/// Ablation 5: path reservation (Fig. 4 "Selected paths") — charging
/// entanglement-swapping stations for multi-hop gates. A line topology
/// maximizes multi-hop traffic, so the station contention is visible.
fn path_reservation_ablation(args: &ExpArgs) {
    use cloudqc_core::placement::RandomPlacement;
    use cloudqc_core::Executor;
    println!("\nAblation 5: path reservation at swapping stations (line topology)\n");
    let circuit = catalog::by_name("knn_n67").expect("catalog circuit");
    let mut t = Table::new(vec!["placement", "stations", "mean JCT", "reserved/free"]);
    let placements: Vec<(&str, Box<dyn PlacementAlgorithm>)> = vec![
        ("CloudQC", Box::new(CloudQcPlacement::default())),
        ("Random", Box::new(RandomPlacement)),
    ];
    for (pname, algo) in &placements {
        let mut means = [0.0f64; 2];
        for (mi, reserve) in [false, true].into_iter().enumerate() {
            let mut jct = 0.0;
            for rep in 0..args.reps {
                let cloud = CloudBuilder::new(10)
                    .computing_qubits(20)
                    .communication_qubits(5)
                    .line_topology()
                    .build();
                let p = algo
                    .place(&circuit, &cloud, &cloud.status(), args.seed + rep as u64)
                    .expect("placement succeeds");
                let mut exec = Executor::new(&cloud, &CloudQcScheduler, args.seed + rep as u64)
                    .with_path_reservation(reserve);
                let id = exec.try_add_job(&circuit, &p).expect("job admitted");
                exec.run_to_completion();
                jct += exec
                    .job_result(id)
                    .expect("job finished")
                    .completion_time
                    .as_ticks() as f64;
            }
            means[mi] = jct / args.reps as f64;
            t.row(vec![
                pname.to_string(),
                if reserve { "reserved" } else { "free" }.to_owned(),
                fmt_num(means[mi]),
                format!("{:.2}x", means[mi] / means[0].max(1.0)),
            ]);
        }
    }
    t.print();
    println!(
        "\nCloudQC's adjacency-seeking placement produces almost no multi-hop gates,\nso station reservation cannot touch it; only non-adjacent placements pay."
    );
}

/// Ablation 4: link reliability (the §V.B extension) degrades JCT; the
/// widest-path model quantifies by how much.
fn reliability_ablation(args: &ExpArgs) {
    println!("Ablation 4: link reliability vs JCT (qugan_n71)\n");
    let circuit = catalog::by_name("qugan_n71").expect("catalog circuit");
    let mut t = Table::new(vec!["link reliability", "mean JCT", "vs perfect"]);
    let mut perfect = 0.0;
    for (name, range) in [
        ("perfect (1.0)", None),
        ("high (0.9..1.0)", Some((0.9, 1.0))),
        ("medium (0.6..0.9)", Some((0.6, 0.9))),
        ("poor (0.3..0.6)", Some((0.3, 0.6))),
    ] {
        let mut jct = 0.0;
        for rep in 0..args.reps {
            let topo_seed = SimRng::new(args.seed)
                .fork_indexed("topo4", rep as u64)
                .seed();
            let mut builder = CloudBuilder::paper_default(topo_seed);
            if let Some((lo, hi)) = range {
                builder = builder.link_reliability_range(lo, hi, topo_seed);
            }
            let cloud = builder.build();
            let p = CloudQcPlacement::default()
                .place(&circuit, &cloud, &cloud.status(), args.seed + rep as u64)
                .expect("placement succeeds");
            jct += simulate_job(
                &circuit,
                &p,
                &cloud,
                &CloudQcScheduler,
                args.seed + rep as u64,
            )
            .completion_time
            .as_ticks() as f64;
        }
        let mean = jct / args.reps as f64;
        if range.is_none() {
            perfect = mean;
        }
        t.row(vec![
            name.to_owned(),
            fmt_num(mean),
            format!("{:.2}x", mean / perfect.max(1.0)),
        ]);
    }
    t.print();
}
