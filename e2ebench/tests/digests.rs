//! The traced run must measure the same program as the untraced one:
//! identical schedules and counters on every workload, with every job
//! resolved exactly once and none submitted late.

use cloudqc::core::schedule::Scheduler;
use cloudqc::prelude::CloudQcScheduler;
use cloudqc_e2ebench::episode;
use cloudqc_e2ebench::layers::{LayerClock, TimedScheduler};
use cloudqc_e2ebench::workload::{stream, Spec};

#[test]
fn traced_and_untraced_runs_schedule_identically() {
    for spec in Spec::ALL {
        let spec = spec.with_jobs(120);
        let plain = episode::run(&spec, 3, None, &mut || {});
        let clock = LayerClock::new();
        let traced = episode::run(&spec, 3, Some(&clock), &mut || {});
        for e in [&plain, &traced] {
            assert!(e.errors.is_empty(), "{}: {:?}", spec.name, e.errors);
            assert_eq!(e.submitted, 120, "{}", spec.name);
            assert_eq!(e.records.len() + e.rejected, 120, "{}", spec.name);
        }
        assert_eq!(plain.digest, traced.digest, "{}", spec.name);
        assert_eq!(plain.counters, traced.counters, "{}", spec.name);
        let times = clock.times();
        assert!(times.place_calls > 0, "{}", spec.name);
        assert!(times.schedule_calls > 0, "{}", spec.name);
        assert_eq!(times.route_calls > 0, spec.backends > 1, "{}", spec.name);
    }
}

#[test]
fn the_failover_workload_evacuates_and_recovers() {
    let spec = Spec::by_name("fleet_failover").unwrap().with_jobs(300);
    let e = episode::run(&spec, 5, None, &mut || {});
    assert!(e.errors.is_empty(), "{:?}", e.errors);
    assert!(
        e.counters.evacuated > 0,
        "backend 0 held no work when it failed"
    );
}

#[test]
fn timed_scheduler_declares_what_the_inner_one_declares() {
    let timed = TimedScheduler {
        inner: CloudQcScheduler,
        clock: LayerClock::new(),
    };
    assert_eq!(timed.name(), CloudQcScheduler.name());
    assert_eq!(timed.is_pure(), CloudQcScheduler.is_pure());
    assert_eq!(
        timed.sharded_emission_order(),
        CloudQcScheduler.sharded_emission_order()
    );
}

#[test]
fn streams_are_seeded_and_ordered() {
    for spec in Spec::ALL {
        let a = stream(&spec, 1);
        assert_eq!(a, stream(&spec, 1), "{}", spec.name);
        assert_ne!(a, stream(&spec, 2), "{}", spec.name);
        assert_eq!(a.len(), spec.jobs);
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick));
    }
}
