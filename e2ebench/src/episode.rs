//! One episode: set up a service or fleet, feed it one workload's
//! stream open loop through `drive_for` windows until it drains, and
//! check every job resolved exactly once.

use crate::layers::{LayerClock, TimedPlacement, TimedRouting, TimedScheduler};
use crate::workload::{stream, Arrival, Spec, POOL};
use cloudqc::core::placement::PlacementAlgorithm;
use cloudqc::core::schedule::Scheduler;
use cloudqc::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Topology seed of the single-service cloud; a fleet uses this and the
/// next ones, one per backend.
const TOPOLOGY_SEED: u64 = 1;

/// The runtime's own seed (placement seeds, EPR sampling) is part of
/// the system's configuration, not of its input: `--seed` varies only
/// the job stream. A fleet gives backend `b` this seed plus `b`.
const SERVICE_SEED: u64 = 7;

/// Windows after which an episode that has not drained is a failure.
const MAX_WINDOWS: usize = 1_000_000;

/// Counters read from the public reports at the end of an episode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub cache: CacheStats,
    pub cache_entries: usize,
    pub alloc_rounds: u64,
    pub requests_scanned: u64,
    pub events: u64,
    pub event_ticks: u64,
    pub preemptions: u64,
    pub reroutes: u64,
    pub spillovers: u64,
    pub evacuated: u64,
}

/// What one episode measured and observed.
#[derive(Debug, Default)]
pub struct Episode {
    pub setup_s: f64,
    /// Host seconds per window step: the step's submissions (routing
    /// included), any failover call, and its `drive_for`.
    pub steps_s: Vec<f64>,
    pub submitted: usize,
    /// Completed jobs, one record each, job ids in submission order.
    pub records: Vec<JobRecord>,
    pub rejected: usize,
    pub unresolved: u64,
    /// Latest submission relative to its arrival tick, in ticks
    /// (0 when every job was submitted in time).
    pub lateness: u64,
    pub digest: u64,
    /// Waiting jobs summed over backends, after each window (traced
    /// episodes only).
    pub queue_depths: Vec<usize>,
    pub counters: Counters,
    pub vm_rss_after_setup_kb: Option<u64>,
    /// Every violated correctness condition.
    pub errors: Vec<String>,
}

impl Episode {
    pub fn wall_s(&self) -> f64 {
        self.steps_s.iter().sum()
    }
}

/// The system under test: a bare service or a fleet.
enum Target<'a> {
    Service(Box<Service<'a>>),
    Fleet(Fleet<'a>),
}

impl Target<'_> {
    fn now(&self) -> u64 {
        match self {
            Target::Service(s) => s.now().as_ticks(),
            Target::Fleet(f) => f.now().as_ticks(),
        }
    }

    fn submit(&mut self, circuit: Circuit, arrival: Tick) {
        match self {
            Target::Service(s) => {
                s.submit(circuit, arrival);
            }
            Target::Fleet(f) => {
                f.submit(circuit, arrival);
            }
        }
    }

    fn drive_for(&mut self, ticks: u64) -> Result<WindowReport, PlacementError> {
        match self {
            Target::Service(s) => s.drive_for(ticks),
            Target::Fleet(f) => f.drive_for(ticks),
        }
    }

    fn queue_depth(&self) -> usize {
        match self {
            Target::Service(s) => s.queue_depth(),
            Target::Fleet(f) => (0..f.backend_count())
                .map(|b| f.backend(b).queue_depth())
                .sum(),
        }
    }

    fn counters(&self, evacuated: u64) -> Counters {
        match self {
            Target::Service(s) => {
                let r = s.report();
                Counters {
                    cache: r.placement_cache,
                    cache_entries: r.cache_entries,
                    alloc_rounds: r.allocation.rounds,
                    requests_scanned: r.allocation.requests_scanned,
                    events: r.event_batches.events(),
                    event_ticks: r.event_batches.ticks(),
                    preemptions: r.preemptions,
                    ..Counters::default()
                }
            }
            Target::Fleet(f) => {
                let r = f.report();
                Counters {
                    cache: r.placement_cache,
                    cache_entries: r.backends.iter().map(|b| b.cache_entries).sum(),
                    alloc_rounds: r.allocation.rounds,
                    requests_scanned: r.allocation.requests_scanned,
                    events: r.event_batches.events(),
                    event_ticks: r.event_batches.ticks(),
                    preemptions: r.preemptions,
                    reroutes: r.reroutes,
                    spillovers: r.spillovers,
                    evacuated,
                }
            }
        }
    }
}

/// The service builder every backend uses: defaults, pinned to one
/// worker thread so `CLOUDQC_THREADS` cannot change the numbers.
fn backend<'a>(
    cloud: &'a Cloud,
    placement: &'a dyn PlacementAlgorithm,
    scheduler: &'a dyn Scheduler,
    seed: u64,
) -> ServiceBuilder<'a> {
    ServiceBuilder::new(cloud, placement, scheduler, seed).worker_threads(1)
}

/// FNV-1a over `(job, finished_at, epr_rounds)` of records sorted by job.
pub fn digest(records: &[JobRecord]) -> u64 {
    let mut sorted: Vec<&JobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.job);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in sorted {
        for word in [r.job as u64, r.finished_at.as_ticks(), r.epr_rounds] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Host seconds one set-up takes: building the clouds, the job stream
/// and the service or fleet.
pub fn set_up(spec: &Spec, seed: u64) -> f64 {
    build(spec, seed, None, None).setup_s
}

/// One episode: set up, then feed and drain the stream, calling
/// `after_window` after each timed window step. `clock` turns on the
/// per-layer timing wrappers.
pub fn run(
    spec: &Spec,
    seed: u64,
    clock: Option<&Arc<LayerClock>>,
    after_window: &mut dyn FnMut(),
) -> Episode {
    build(spec, seed, clock, Some(after_window))
}

fn build(
    spec: &Spec,
    seed: u64,
    clock: Option<&Arc<LayerClock>>,
    drive: Option<&mut dyn FnMut()>,
) -> Episode {
    let start = Instant::now();
    let clouds: Vec<Cloud> = (0..spec.backends as u64)
        .map(|b| CloudBuilder::paper_default(TOPOLOGY_SEED + b).build())
        .collect();
    let templates: Vec<Circuit> = POOL
        .iter()
        .map(|name| catalog::by_name(name).expect("pool circuits are in the catalog"))
        .collect();
    let arrivals = stream(spec, seed);
    let bare_placement = CloudQcPlacement::default();
    let bare_scheduler = CloudQcScheduler;
    let timed_placement;
    let timed_scheduler;
    let (placement, scheduler): (&dyn PlacementAlgorithm, &dyn Scheduler) = match clock {
        Some(clock) => {
            timed_placement = TimedPlacement {
                inner: CloudQcPlacement::default(),
                clock: Arc::clone(clock),
            };
            timed_scheduler = TimedScheduler {
                inner: CloudQcScheduler,
                clock: Arc::clone(clock),
            };
            (&timed_placement, &timed_scheduler)
        }
        None => (&bare_placement, &bare_scheduler),
    };
    let mut target = if spec.backends == 1 {
        Target::Service(Box::new(
            backend(&clouds[0], placement, scheduler, SERVICE_SEED).build(),
        ))
    } else {
        let policy = CheapestPlacement::new().with_worker_threads(1);
        let builder = clouds.iter().enumerate().fold(
            match clock {
                Some(clock) => FleetBuilder::new().policy(TimedRouting {
                    inner: policy,
                    clock: Arc::clone(clock),
                }),
                None => FleetBuilder::new().policy(policy),
            },
            |fleet, (b, cloud)| {
                fleet.backend(backend(
                    cloud,
                    placement,
                    scheduler,
                    SERVICE_SEED + b as u64,
                ))
            },
        );
        Target::Fleet(builder.build())
    };
    let mut episode = Episode {
        setup_s: start.elapsed().as_secs_f64(),
        vm_rss_after_setup_kb: crate::report::proc_status_kb("VmRSS"),
        ..Episode::default()
    };
    if let Some(after_window) = drive {
        feed(
            spec,
            &arrivals,
            &templates,
            &mut target,
            clock.is_some(),
            after_window,
            &mut episode,
        );
    }
    episode
}

fn feed(
    spec: &Spec,
    arrivals: &[Arrival],
    templates: &[Circuit],
    target: &mut Target,
    traced: bool,
    after_window: &mut dyn FnMut(),
    episode: &mut Episode,
) {
    let span = arrivals.last().map_or(0, |a| a.tick);
    let (fail_at, recover_at) = (span / 3, span / 2);
    let (mut failed, mut recovered) = (false, !spec.failover);
    let mut evacuated = 0u64;
    // 0 = unresolved, 1 = completed, 2 = rejected.
    let mut state: Vec<u8> = Vec::with_capacity(arrivals.len());
    let mut next = 0;
    loop {
        if episode.steps_s.len() == MAX_WINDOWS {
            episode
                .errors
                .push(format!("not drained after {MAX_WINDOWS} windows"));
            break;
        }
        let step = Instant::now();
        let now = target.now();
        if let (Target::Fleet(fleet), true) = (&mut *target, spec.failover) {
            if !failed && now >= fail_at {
                evacuated += fleet.fail_backend(0) as u64;
                failed = true;
            }
            if failed && !recovered && now >= recover_at {
                fleet.recover_backend(0);
                recovered = true;
            }
        }
        let horizon = now + spec.window + spec.lead;
        while let Some(a) = arrivals.get(next).filter(|a| a.tick < horizon) {
            episode.lateness = episode.lateness.max(now.saturating_sub(a.tick));
            // Windows report jobs by submission order, which is `next`.
            target.submit(templates[a.shape].clone(), Tick::new(a.tick));
            state.push(0);
            next += 1;
        }
        let window = match target.drive_for(spec.window) {
            Ok(window) => window,
            Err(e) => {
                episode.errors.push(format!("drive_for failed: {e}"));
                break;
            }
        };
        episode.steps_s.push(step.elapsed().as_secs_f64());
        if traced {
            episode.queue_depths.push(target.queue_depth());
        }
        after_window();
        let resolved = window
            .outcomes
            .iter()
            .map(|r| (r.job, 1))
            .chain(window.rejected.iter().map(|&(job, _)| (job, 2)));
        for (job, outcome) in resolved {
            match state.get_mut(job) {
                Some(s @ 0) => *s = outcome,
                Some(_) => episode.errors.push(format!("job {job} resolved twice")),
                None => episode.errors.push(format!("unknown job {job} resolved")),
            }
        }
        episode.rejected += window.rejected.len();
        episode.records.extend(window.outcomes);
        if next == arrivals.len() && recovered && window.quiescent {
            break;
        }
    }
    episode.submitted = next;
    episode.unresolved = state.iter().filter(|&&s| s == 0).count() as u64;
    if episode.unresolved > 0 {
        episode
            .errors
            .push(format!("{} jobs unresolved", episode.unresolved));
    }
    if let Target::Fleet(fleet) = target {
        if fleet.unresolved() != 0 {
            episode
                .errors
                .push(format!("fleet reports {} unresolved", fleet.unresolved()));
        }
    }
    if episode.lateness > 0 {
        episode.errors.push(format!(
            "a job was submitted {} ticks late",
            episode.lateness
        ));
    }
    episode.digest = digest(&episode.records);
    episode.counters = target.counters(evacuated);
}
