//! Streaming-vs-retained metrics equivalence for the service layer.
//!
//! The resident `Service` replaces the retain-everything `RunReport`
//! aggregation with a constant-memory `OnlineReport` (Welford running
//! aggregates + a bounded reservoir for percentiles). These property
//! tests pin the contract: for the same seeded run, the streaming
//! aggregates must match what the retained per-job records compute —
//! exactly for counts/max/makespan, to float tolerance for means, and
//! exactly for percentiles while the reservoir is exhaustive (its
//! capacity covers every completion). Past capacity the reservoir only
//! promises an in-range estimate; a dedicated case checks that too.

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::placement::CloudQcPlacement;
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::{
    AverageScheduler, CloudQcScheduler, GreedyScheduler, RandomScheduler, Scheduler,
};
use cloudqc::core::workload::Workload;
use cloudqc::sim::metrics::Summary;
use cloudqc::sim::online::OnlineReport;
use proptest::prelude::*;

fn pool() -> Vec<Circuit> {
    vec![
        catalog::by_name("vqe_n4").unwrap(),
        catalog::by_name("qft_n13").unwrap(),
        catalog::by_name("ghz_n16").unwrap(),
        catalog::by_name("qugan_n11").unwrap(),
    ]
}

fn scheduler_for(pick: u8) -> Box<dyn Scheduler> {
    match pick % 4 {
        0 => Box::new(CloudQcScheduler),
        1 => Box::new(GreedyScheduler),
        2 => Box::new(AverageScheduler),
        _ => Box::new(RandomScheduler),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every scheduler, one seeded service run's OnlineReport
    /// agrees with the retained RunReport computed from the same run.
    #[test]
    fn online_report_matches_retained_run_report(
        seed in any::<u64>(),
        scheduler_pick in 0u8..4,
        mean_gap in 300.0f64..4_000.0,
    ) {
        let cloud = CloudBuilder::new(4)
            .computing_qubits(16)
            .communication_qubits(2)
            .ring_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let scheduler = scheduler_for(scheduler_pick);
        let workload = Workload::poisson(&pool(), 8, mean_gap, seed);
        let mut svc = ServiceBuilder::new(&cloud, &placement, scheduler.as_ref(), seed)
            .admission(AdmissionPolicy::Backfill)
            .build();
        svc.submit_workload(&workload);
        let report = svc.drive().unwrap();
        let online = svc.online();

        // Counts and tick-exact aggregates.
        prop_assert_eq!(online.completed(), report.outcomes.len() as u64);
        prop_assert_eq!(online.rejected(), report.rejected.len() as u64);
        prop_assert_eq!(online.last_finish(), report.makespan);
        let jcts: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks() as f64)
            .collect();
        let summary = Summary::of(&jcts).unwrap();
        prop_assert_eq!(online.max_completion_time(), summary.max);

        // Means to float tolerance (Welford vs naive sum ordering).
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        prop_assert!(rel(online.mean_completion_time(), report.mean_completion_time()) < 1e-9);
        let mean_online = online.mean_breakdown().unwrap();
        let mean_retained = report.mean_breakdown().unwrap();
        prop_assert!(rel(mean_online.queueing, mean_retained.queueing) < 1e-9);
        prop_assert!(rel(mean_online.epr_wait, mean_retained.epr_wait) < 1e-9);
        prop_assert!(rel(mean_online.compute, mean_retained.compute) < 1e-9);

        // Throughput: completions per tick up to the makespan.
        let expected_tp = report.outcomes.len() as f64 / report.makespan.as_ticks() as f64;
        prop_assert!(rel(online.throughput_per_tick(), expected_tp) < 1e-12);

        // Percentiles: the default reservoir (1024) dwarfs 8 jobs, so
        // the sample is exhaustive and quantiles are *exact*.
        prop_assert!(online.reservoir().is_exhaustive());
        prop_assert_eq!(online.quantile(0.5).unwrap(), summary.p50);
        prop_assert_eq!(online.quantile(0.95).unwrap(), summary.p95);
        prop_assert_eq!(online.quantile(1.0).unwrap(), summary.max);
    }

    /// Past its capacity the reservoir degrades gracefully: quantiles
    /// stay inside the observed range and within a loose tolerance of
    /// the true percentile, deterministically per seed.
    #[test]
    fn overflowed_reservoir_estimates_stay_in_tolerance(
        seed in any::<u64>(),
    ) {
        let cloud = CloudBuilder::new(4)
            .computing_qubits(16)
            .communication_qubits(2)
            .ring_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let workload = Workload::poisson(&pool(), 24, 2_000.0, seed);
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .admission(AdmissionPolicy::Backfill)
            .build();
        svc.submit_workload(&workload);
        // The run's completions in the order the service records them,
        // folded into a report whose reservoir holds only 8 of them.
        let outcomes = svc.drive_to_quiescence().unwrap().outcomes;
        let sample = || {
            let mut online = OnlineReport::with_reservoir(8, seed);
            for o in &outcomes {
                online.record_completion(o.completion_time, o.breakdown, o.finished_at);
            }
            online
        };
        let online = sample();
        prop_assert!(!online.reservoir().is_exhaustive());
        prop_assert_eq!(online.reservoir().len(), 8);
        let jcts: Vec<f64> = outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks() as f64)
            .collect();
        let summary = Summary::of(&jcts).unwrap();
        let p50 = online.quantile(0.5).unwrap();
        prop_assert!(p50 >= summary.min && p50 <= summary.max);
        // Eight uniform samples bound the median estimate loosely: it
        // cannot sit in the extreme tails of the empirical CDF.
        let cdf = cloudqc::sim::metrics::Cdf::new(jcts.iter().copied());
        let rank = cdf.fraction_at(p50);
        prop_assert!((0.05..=0.95).contains(&rank), "p50 estimate at rank {rank}");
        // And the estimate is reproducible: same seed, same reservoir.
        prop_assert_eq!(sample().quantile(0.5), Some(p50));
    }
}
