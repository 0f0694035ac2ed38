//! `cloudqc-e2ebench --workload <steady|backlog|fleet_failover> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Repeats the workload's episode for about `--seconds` of host time (at
//! least three times) and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 2 on bad arguments.

use cloudqc_e2ebench::episode::{self, Episode};
use cloudqc_e2ebench::host;
use cloudqc_e2ebench::layers::{LayerClock, LayerTimes};
use cloudqc_e2ebench::report::{
    mean, median, percentile, proc_status_kb, ratio, result_line, Metrics,
};
use cloudqc_e2ebench::workload::Spec;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Host time between two [`Sample`]s taken during a run's episodes.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

/// Episodes per untraced run at the least, whatever `--seconds` says:
/// the first warms up and two more are timed.
const MIN_EPISODES: usize = 3;

/// Traced episodes per traced run at the least, each with an untraced
/// partner.
const MIN_TRACED: usize = 2;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cloudqc-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;
    println!(
        "# workload={} backends={} jobs={} mean_interarrival={} window={} lead={} seed={}",
        spec.name,
        spec.backends,
        spec.jobs,
        spec.mean_interarrival,
        spec.window,
        spec.lead,
        args.seed
    );
    let budget = Duration::from_secs(args.seconds);
    let line = if args.trace {
        traced(spec, args.seed, budget)
    } else {
        untraced(spec, args.seed, budget)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Correctness over a run's episodes: each episode's own checks, and one
/// schedule digest and one set of counters for the seed.
fn check(episodes: &[&Episode]) -> bool {
    let mut ok = true;
    for (i, e) in episodes.iter().enumerate() {
        for err in e.errors.iter().take(10) {
            eprintln!("episode {i}: {err}");
        }
        ok &= e.errors.is_empty();
        if e.digest != episodes[0].digest || e.counters != episodes[0].counters {
            eprintln!("episode {i}: digest or counters differ from episode 0");
            ok = false;
        }
    }
    let walls: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:.3}", e.wall_s()))
        .collect();
    println!(
        "# episodes={} digest={:016x} wall_s=[{}]",
        episodes.len(),
        episodes[0].digest,
        walls.join(" ")
    );
    ok
}

fn attempted_failed(episodes: &[&Episode]) -> (u64, u64) {
    let attempted = episodes.iter().map(|e| e.submitted as u64).sum();
    let failed = episodes
        .iter()
        .map(|e| e.rejected as u64 + e.unresolved)
        .sum();
    (attempted, failed)
}

/// One set-up and one run of the host-speed reference, timed back to
/// back between two windows of an episode.
struct Sample {
    episode: usize,
    setup_s: f64,
    reference_s: f64,
}

/// Whether to run another round of episodes: always up to `min`, then
/// only if one more round of the mean length so far fits in the budget,
/// so a run ends near `--seconds` however long its episodes are.
fn another(done: usize, min: usize, elapsed: Duration, budget: Duration) -> bool {
    done < min || elapsed.mul_f64((done + 1) as f64 / done as f64) <= budget
}

fn untraced(spec: &Spec, seed: u64, budget: Duration) -> String {
    let start = Instant::now();
    // Sampled all through the run, between windows, because the host's
    // speed drifts on a scale of 100 ms to minutes; the first window of
    // every episode takes a sample, so each episode has one.
    let mut samples: Vec<Sample> = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut peak_kb = None;
    while another(episodes.len(), MIN_EPISODES, start.elapsed(), budget) {
        let index = episodes.len();
        let mut last_sample: Option<Instant> = None;
        let mut sample = || {
            if last_sample.is_none_or(|t| t.elapsed() >= SAMPLE_INTERVAL) {
                samples.push(Sample {
                    episode: index,
                    setup_s: episode::set_up(spec, seed),
                    reference_s: host::reference_s(),
                });
                last_sample = Some(Instant::now());
            }
        };
        episodes.push(episode::run(spec, seed, None, &mut sample));
        if index == 0 {
            peak_kb = proc_status_kb("VmHWM");
        }
    }
    let refs: Vec<&Episode> = episodes.iter().collect();
    let correct = check(&refs);
    let (attempted, failed) = attempted_failed(&refs);

    // Host-time metrics are the median over the episodes after the first
    // (which pays first-touch page faults), each scaled to the nominal
    // host speed by the median reference time during it.
    let scale: Vec<f64> = (0..episodes.len())
        .map(|k| {
            let during: Vec<f64> = samples
                .iter()
                .filter(|s| s.episode == k)
                .map(|s| s.reference_s)
                .collect();
            host::NOMINAL_S / median(&during)
        })
        .collect();
    let at_nominal = |f: &dyn Fn(&Episode) -> f64| {
        let scaled: Vec<f64> = episodes
            .iter()
            .zip(&scale)
            .skip(1)
            .map(|(e, s)| f(e) * s)
            .collect();
        median(&scaled)
    };
    let scales: Vec<String> = scale.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "# host_speed=[{}] samples={}",
        scales.join(" "),
        samples.len()
    );
    let windows_ms = |e: &Episode| e.steps_s.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let first = &episodes[0];
    let jct: Vec<f64> = first
        .records
        .iter()
        .map(|r| r.completion_time.as_ticks() as f64)
        .collect();
    println!(
        "# windows_per_episode={} completed_per_episode={}",
        first.steps_s.len(),
        first.records.len()
    );

    let mut m = Metrics::default();
    m.add(
        "jobs_per_s",
        first.records.len() as f64 / at_nominal(&Episode::wall_s),
        "1/s",
    );
    m.add(
        "window_p50_ms",
        at_nominal(&|e| median(&windows_ms(e))),
        "ms",
    );
    m.add(
        "window_p99_ms",
        at_nominal(&|e| percentile(&windows_ms(e), 0.99)),
        "ms",
    );
    m.add("jct_mean_ticks", mean(jct.iter().copied()), "ticks");
    m.add("jct_p50_ticks", median(&jct), "ticks");
    m.add("jct_p99_ticks", percentile(&jct, 0.99), "ticks");
    m.add(
        "served_share",
        ratio(first.records.len() as f64, first.submitted as f64),
        "share",
    );
    if let (Some(peak), Some(after_setup)) = (peak_kb, first.vm_rss_after_setup_kb) {
        m.add("peak_rss_mb", peak as f64 / 1024.0, "MB");
        let grown = peak.saturating_sub(after_setup) as f64;
        m.add(
            "rss_per_job_kb",
            ratio(grown, first.records.len() as f64),
            "KB",
        );
    }
    let setups: Vec<f64> = samples
        .iter()
        .map(|s| s.setup_s * host::NOMINAL_S / s.reference_s)
        .collect();
    m.add("setup_s", median(&setups), "s");
    result_line(correct, attempted, failed, &m)
}

fn traced(spec: &Spec, seed: u64, budget: Duration) -> String {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut timed: Vec<(Episode, LayerTimes)> = Vec::new();
    let run_timed = || {
        let clock = LayerClock::new();
        let e = episode::run(spec, seed, Some(&clock), &mut || {});
        (e, clock.times())
    };
    // Untraced and traced episodes alternate in ABBA order, so neither
    // side always runs first.
    while another(timed.len(), MIN_TRACED, start.elapsed(), budget) {
        if timed.len().is_multiple_of(2) {
            plain.push(episode::run(spec, seed, None, &mut || {}));
            timed.push(run_timed());
        } else {
            timed.push(run_timed());
            plain.push(episode::run(spec, seed, None, &mut || {}));
        }
    }
    let refs: Vec<&Episode> = plain.iter().chain(timed.iter().map(|(e, _)| e)).collect();
    let correct = check(&refs);
    let (attempted, failed) = attempted_failed(&refs);

    // The layer split of the median traced episode, so the shares add
    // up within one episode.
    timed.sort_by(|a, b| a.0.wall_s().total_cmp(&b.0.wall_s()));
    let (e, t) = &timed[(timed.len() - 1) / 2];
    let wall = e.wall_s();
    let engine_s = wall - t.place_s - t.schedule_s - t.route_self_s;
    let plain_wall = median(&plain.iter().map(Episode::wall_s).collect::<Vec<_>>());
    let c = &e.counters;
    let lookups = c.cache.hits + c.cache.repair_hits + c.cache.misses;
    let depths: Vec<f64> = e.queue_depths.iter().map(|&d| d as f64).collect();
    let breakdown =
        |f: fn(&cloudqc::prelude::JobRecord) -> u64| mean(e.records.iter().map(|r| f(r) as f64));

    let mut m = Metrics::default();
    m.add("placement.calls", t.place_calls as f64, "count");
    m.add("placement.busy_s", t.place_s, "s");
    m.add("placement.share", ratio(t.place_s, wall), "share");
    m.add(
        "placement.mean_ms",
        ratio(t.place_s * 1e3, t.place_calls as f64),
        "ms",
    );
    m.add("cache.lookups", lookups as f64, "count");
    m.add(
        "cache.lookups_per_job",
        ratio(lookups as f64, e.submitted as f64),
        "1/job",
    );
    m.add("cache.hit_rate", c.cache.hit_rate(), "share");
    m.add("cache.misses", c.cache.misses as f64, "count");
    m.add("cache.evictions", c.cache.evictions as f64, "count");
    m.add("cache.entries", c.cache_entries as f64, "count");
    m.add("schedule.calls", t.schedule_calls as f64, "count");
    m.add("schedule.busy_s", t.schedule_s, "s");
    m.add("schedule.share", ratio(t.schedule_s, wall), "share");
    m.add("exec.alloc_rounds", c.alloc_rounds as f64, "count");
    m.add("exec.requests_scanned", c.requests_scanned as f64, "count");
    m.add(
        "exec.scan_per_round",
        ratio(c.requests_scanned as f64, c.alloc_rounds as f64),
        "1/round",
    );
    m.add("routing.calls", t.route_calls as f64, "count");
    m.add("routing.self_s", t.route_self_s, "s");
    m.add("routing.probe_s", t.probe_s, "s");
    m.add("routing.share", ratio(t.route_self_s, wall), "share");
    m.add("fleet.reroutes", c.reroutes as f64, "count");
    m.add("fleet.spillovers", c.spillovers as f64, "count");
    m.add("fleet.evacuated", c.evacuated as f64, "count");
    m.add("engine.self_s", engine_s, "s");
    m.add("engine.share", ratio(engine_s, wall), "share");
    m.add("exec.events", c.events as f64, "count");
    m.add(
        "exec.events_per_tick",
        ratio(c.events as f64, c.event_ticks as f64),
        "1/tick",
    );
    m.add("exec.events_per_s", ratio(c.events as f64, wall), "1/s");
    m.add("exec.preemptions", c.preemptions as f64, "count");
    m.add("runtime.queue_depth_max", percentile(&depths, 1.0), "count");
    m.add(
        "runtime.queue_depth_mean",
        mean(depths.iter().copied()),
        "count",
    );
    m.add(
        "jct.queueing_mean_ticks",
        breakdown(|r| r.breakdown.queueing),
        "ticks",
    );
    m.add(
        "jct.epr_wait_mean_ticks",
        breakdown(|r| r.breakdown.epr_wait),
        "ticks",
    );
    m.add(
        "jct.compute_mean_ticks",
        breakdown(|r| r.breakdown.compute),
        "ticks",
    );
    m.add(
        "trace.overhead_share",
        ratio(wall, plain_wall) - 1.0,
        "share",
    );
    result_line(correct, attempted, failed, &m)
}
