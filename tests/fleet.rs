//! Federation tests: the fleet-of-1 golden, routing semantics
//! (spillover, backpressure re-routing, orphans), and the failover
//! conservation property.
//!
//! The two load-bearing guarantees pinned here:
//!
//! * **Fleet-of-1 golden**: a `Fleet` with one backend reproduces the
//!   bare `Service` continuous-clock run *byte-identically* — same
//!   outcomes, rejections, clock, quiescence, and cache counters,
//!   window by window. The facade adds routing only where there is a
//!   choice, so with one backend it must add nothing.
//! * **Conservation**: across arbitrary mid-run `fail_backend` /
//!   `recover_backend` sequences, submitted == completed + rejected,
//!   with every fleet job id reported exactly once (property test).

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::error::ExecError;
use cloudqc::core::placement::CloudQcPlacement;
use cloudqc::core::runtime::{
    AdmissionPolicy, FleetBuilder, LoadShedPolicy, RandomRouting, RoundRobin, RouteContext,
    RoutingPolicy, ServiceBuilder, TenantAffinity,
};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::{Workload, WorkloadJob};
use cloudqc::sim::Tick;
use proptest::prelude::*;

fn pool() -> Vec<cloudqc::circuit::Circuit> {
    vec![
        catalog::by_name("qugan_n39").unwrap(),
        catalog::by_name("qft_n29").unwrap(),
        catalog::by_name("ghz_n40").unwrap(),
    ]
}

#[test]
fn fleet_of_one_is_byte_identical_to_the_bare_service() {
    let cloud = CloudBuilder::paper_default(4).build();
    let placement = CloudQcPlacement::default();
    let w = Workload::poisson(&pool(), 8, 2_000.0, 4);

    let mut service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 6).build();
    let mut fleet = FleetBuilder::new()
        .backend(ServiceBuilder::new(
            &cloud,
            &placement,
            &CloudQcScheduler,
            6,
        ))
        .build();
    service.submit_workload(&w);
    fleet.submit_workload(&w);

    // Drive both in identical budget slices; every window must match
    // field for field, including the pause/resume boundaries.
    let mut windows = 0;
    loop {
        let s = service.drive_for(1_500).unwrap();
        let f = fleet.drive_for(1_500).unwrap();
        assert_eq!(s.outcomes, f.outcomes, "window {windows} outcomes");
        assert_eq!(s.rejected, f.rejected, "window {windows} rejections");
        assert_eq!(s.now, f.now, "window {windows} clock");
        assert_eq!(s.quiescent, f.quiescent, "window {windows} quiescence");
        windows += 1;
        assert!(windows < 10_000, "must terminate");
        if s.quiescent {
            break;
        }
    }
    assert!(windows > 2, "the workload spans several windows");
    // The facade must not have touched the cache either (no probes on
    // a single-backend fleet).
    assert_eq!(service.cache_stats(), fleet.backend(0).cache_stats());
    let report = fleet.report();
    assert_eq!(report.completed, service.report().completed);
    assert_eq!(report.reroutes + report.spillovers + report.failovers, 0);
}

#[test]
fn starved_jobs_spill_over_to_a_capable_backend() {
    // Backend 0 has zero communication qubits: any job that must split
    // across QPUs is rejected there. Backend 1 can run it. The tie on
    // empty load routes to backend 0 first; the rejection must spill
    // the job over instead of losing it.
    let starved = CloudBuilder::new(2)
        .computing_qubits(20)
        .communication_qubits(0)
        .line_topology()
        .build();
    let capable = CloudBuilder::new(2)
        .computing_qubits(20)
        .communication_qubits(5)
        .line_topology()
        .build();
    let placement = CloudQcPlacement::default();
    let mut fleet = FleetBuilder::new()
        .backend(ServiceBuilder::new(
            &starved,
            &placement,
            &CloudQcScheduler,
            5,
        ))
        .backend(ServiceBuilder::new(
            &capable,
            &placement,
            &CloudQcScheduler,
            5,
        ))
        .build();
    fleet.submit(catalog::by_name("ghz_n30").unwrap(), Tick::ZERO);
    let window = fleet.drive_to_quiescence().unwrap();
    assert!(window.quiescent);
    assert_eq!(window.outcomes.len(), 1, "the job must complete somewhere");
    assert!(window.rejected.is_empty());
    let report = fleet.report();
    assert_eq!(report.spillovers, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(
        fleet.backend(1).report().completed,
        1,
        "the capable backend ran it"
    );
}

#[test]
fn every_healthy_backend_rejecting_is_a_final_rejection() {
    // Both backends have zero communication qubits: any job that must
    // split across QPUs is rejected on both. A job every eligible
    // backend has turned away is finally rejected with the last error.
    let starved = |_| {
        CloudBuilder::new(2)
            .computing_qubits(20)
            .communication_qubits(0)
            .line_topology()
            .build()
    };
    let a = starved(0);
    let b = starved(1);
    let placement = CloudQcPlacement::default();
    let mut fleet = FleetBuilder::new()
        .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 5))
        .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, 5))
        .build();
    fleet.submit(catalog::by_name("ghz_n30").unwrap(), Tick::ZERO);
    let window = fleet.drive_to_quiescence().unwrap();
    assert_eq!(window.rejected.len(), 1, "the job is rejected once");
    assert!(window.quiescent);
}

#[test]
fn load_shed_is_a_backpressure_signal_that_reroutes() {
    // Backend 0 serializes ghz_n25 jobs (one 28-qubit QPU) and sheds
    // beyond one waiter; backend 1 is shed-free. Round-robin forces
    // jobs onto backend 0 until it sheds — the shed must re-route, not
    // reject.
    let tiny = CloudBuilder::new(1).computing_qubits(28).build();
    let open = CloudBuilder::new(2)
        .computing_qubits(28)
        .line_topology()
        .build();
    let placement = CloudQcPlacement::default();
    let mut fleet = FleetBuilder::new()
        .backend(
            ServiceBuilder::new(&tiny, &placement, &CloudQcScheduler, 5)
                .load_shedding(LoadShedPolicy::queue_depth(1)),
        )
        .backend(ServiceBuilder::new(&open, &placement, &CloudQcScheduler, 5))
        .policy(RoundRobin::new())
        .build();
    for _ in 0..6 {
        fleet.submit(catalog::by_name("ghz_n25").unwrap(), Tick::ZERO);
    }
    let window = fleet.drive_to_quiescence().unwrap();
    assert!(window.quiescent);
    assert_eq!(window.outcomes.len(), 6, "every shed job must land");
    assert!(window.rejected.is_empty());
    let report = fleet.report();
    assert!(report.reroutes >= 1, "no shed was rerouted");
    // The backend-level online reports still show the shed events
    // (per-event), while the fleet counters are per-job.
    assert!(fleet.backend(0).online().rejected() >= 1);
    assert_eq!(report.completed, 6);
    assert_eq!(report.rejected, 0);
}

#[test]
fn sla_expiry_is_terminal_not_rerouted() {
    // Both backends serialize the three identical jobs; the SLA budget
    // covers two service times. The third job's deadline expires
    // wherever it queues, so rerouting would be futile — the fleet must
    // reject it once, with the SLA error.
    let a = CloudBuilder::new(1).computing_qubits(28).build();
    let placement = CloudQcPlacement::default();
    let probe = {
        let mut svc = ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 1).build();
        svc.submit(catalog::by_name("ghz_n25").unwrap(), Tick::ZERO);
        svc.drive().unwrap().makespan.as_ticks()
    };
    let w =
        Workload::batch(vec![catalog::by_name("ghz_n25").unwrap(); 3]).with_uniform_sla(probe * 2);
    let mut fleet = FleetBuilder::new()
        .backend(
            ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 1)
                .admission(AdmissionPolicy::DeadlineAware),
        )
        .build();
    fleet.submit_workload(&w);
    let window = fleet.drive_to_quiescence().unwrap();
    assert!(window
        .rejected
        .iter()
        .any(|(_, e)| matches!(e, ExecError::SlaExpired { .. })));
    let report = fleet.report();
    assert_eq!(report.completed + report.rejected, 3);
    assert_eq!(report.reroutes + report.spillovers, 0);
}

#[test]
fn jobs_orphan_while_all_backends_are_down_and_run_after_recovery() {
    let a = CloudBuilder::paper_default(1).build();
    let b = CloudBuilder::paper_default(2).build();
    let placement = CloudQcPlacement::default();
    let mut fleet = FleetBuilder::new()
        .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 3))
        .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, 3))
        .build();
    fleet.fail_backend(0);
    fleet.fail_backend(1);
    for i in 0..3 {
        fleet.submit(catalog::by_name("qft_n29").unwrap(), Tick::new(i * 100));
    }
    assert_eq!(fleet.orphans(), 3);
    let parked = fleet.drive_to_quiescence().unwrap();
    assert!(!parked.quiescent, "orphans keep the fleet non-quiescent");
    assert!(parked.outcomes.is_empty());
    assert_eq!(fleet.unresolved(), 3);

    fleet.recover_backend(1);
    assert_eq!(fleet.orphans(), 0, "recovery re-routes orphans");
    let window = fleet.drive_to_quiescence().unwrap();
    assert!(window.quiescent);
    assert_eq!(window.outcomes.len(), 3);
    assert_eq!(fleet.unresolved(), 0);
    assert_eq!(fleet.backend(1).report().completed, 3);
}

#[test]
fn tenant_affinity_beats_random_routing_on_cache_hit_rate() {
    // Skewed two-tenant traffic: tenant 0 submits one hot shape three
    // times as often as tenant 1 submits another. Keeping each tenant
    // homed on one backend keeps that backend's placement cache hot for
    // exactly that tenant's (shape, free-capacity) signatures; random
    // routing cold-misses both shapes on both backends and splits each
    // signature stream in half.
    let a = CloudBuilder::paper_default(11).build();
    let b = CloudBuilder::paper_default(12).build();
    let placement = CloudQcPlacement::default();
    let submit_skewed = |fleet: &mut cloudqc::core::runtime::Fleet| {
        for i in 0..32u64 {
            let (tenant, shape) = if i % 4 == 3 {
                (1, "ghz_n40")
            } else {
                (0, "qft_n29")
            };
            let mut job = WorkloadJob::new(catalog::by_name(shape).unwrap(), Tick::new(i * 1_500));
            job.tenant = tenant;
            fleet.submit_job(job);
        }
    };
    let run = |affinity: bool| {
        let mut builder = FleetBuilder::new()
            .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 9))
            .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, 9));
        builder = if affinity {
            builder.policy(TenantAffinity::new())
        } else {
            builder.policy(RandomRouting::new(9))
        };
        let mut fleet = builder.build();
        submit_skewed(&mut fleet);
        let window = fleet.drive_to_quiescence().unwrap();
        assert!(window.quiescent);
        let report = fleet.report();
        assert_eq!(report.completed, 32, "policy {}", report.policy);
        report.placement_cache.hit_rate()
    };
    let affinity = run(true);
    let random = run(false);
    assert!(
        affinity > random,
        "tenant affinity must beat random routing on cache hit rate: {affinity:.3} vs {random:.3}"
    );
}

/// A buggy policy: always names a backend the fleet does not have.
struct OutOfRange;

impl RoutingPolicy for OutOfRange {
    fn name(&self) -> &'static str {
        "out-of-range"
    }

    fn route(&mut self, _job: &WorkloadJob, _ctx: &mut RouteContext<'_, '_>) -> usize {
        99
    }
}

#[test]
fn out_of_range_routing_answer_falls_back_to_the_least_loaded_backend() {
    let a = CloudBuilder::paper_default(1).build();
    let b = CloudBuilder::paper_default(2).build();
    let placement = CloudQcPlacement::default();
    let mut fleet = FleetBuilder::new()
        .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, 3))
        .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, 3))
        .policy(OutOfRange)
        .build();
    for i in 0..4 {
        fleet.submit(catalog::by_name("qft_n29").unwrap(), Tick::new(i * 500));
    }
    // Least-loaded alternates between two backends of equal capacity.
    assert_eq!(fleet.backend(0).pending(), 2);
    assert_eq!(fleet.backend(1).pending(), 2);
    let window = fleet.drive_to_quiescence().unwrap();
    assert!(window.quiescent);
    assert_eq!(window.outcomes.len(), 4);
    assert_eq!(fleet.report().completed, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Drain-and-migrate conserves jobs: across a mid-run backend
    /// failure and recovery, every submitted job is reported exactly
    /// once as completed or rejected — none lost, none duplicated.
    #[test]
    fn failover_conserves_jobs(
        seed in 0u64..200,
        victim in 0usize..3,
        fail_after in 1u64..5,
        n in 6usize..14,
    ) {
        let a = CloudBuilder::paper_default(seed).build();
        let b = CloudBuilder::new(6)
            .computing_qubits(25)
            .communication_qubits(4)
            .ring_topology()
            .build();
        let c = CloudBuilder::new(10)
            .computing_qubits(15)
            .communication_qubits(3)
            .random_topology(0.4, seed ^ 0xBEEF)
            .build();
        let placement = CloudQcPlacement::default();
        let mut fleet = FleetBuilder::new()
            .backend(ServiceBuilder::new(&a, &placement, &CloudQcScheduler, seed))
            .backend(ServiceBuilder::new(&b, &placement, &CloudQcScheduler, seed ^ 1))
            .backend(ServiceBuilder::new(&c, &placement, &CloudQcScheduler, seed ^ 2))
            .build();
        fleet.submit_workload(&Workload::poisson(&pool(), n, 1_000.0, seed));

        let mut outcomes = Vec::new();
        let mut rejected = Vec::new();
        let mut slices = 0u64;
        loop {
            let window = fleet.drive_for(1_200).unwrap();
            outcomes.extend(window.outcomes);
            rejected.extend(window.rejected);
            slices += 1;
            prop_assert!(slices < 10_000, "must make progress");
            if slices == fail_after {
                let evacuated = fleet.fail_backend(victim);
                // Evacuation itself must not complete or reject.
                prop_assert!(fleet.unresolved() >= evacuated as u64);
            }
            if slices == fail_after + 2 {
                fleet.recover_backend(victim);
            }
            if window.quiescent && slices > fail_after + 2 {
                break;
            }
        }
        // Conservation: exactly once each, nothing unresolved.
        prop_assert_eq!(fleet.unresolved(), 0);
        prop_assert_eq!(outcomes.len() + rejected.len(), n);
        let mut seen: Vec<usize> = outcomes
            .iter()
            .map(|o| o.job)
            .chain(rejected.iter().map(|(id, _)| *id))
            .collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..n).collect();
        prop_assert_eq!(seen, expected, "every job exactly once");
        let report = fleet.report();
        prop_assert_eq!(report.completed as usize, outcomes.len());
        prop_assert_eq!(report.rejected as usize, rejected.len());
        prop_assert_eq!(report.failovers, 1);
    }
}
