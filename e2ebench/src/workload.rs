//! The three workloads and their seeded open-loop job streams.

/// The circuit pool every workload draws from.
pub const POOL: [&str; 4] = ["vqe_n4", "ghz_n40", "qft_n29", "ising_n34"];

/// One workload: what runs, how fast jobs arrive, and how the feeder
/// slices simulated time into `drive_for` windows.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// 1 drives a bare `Service`; more drives a `Fleet` of that many.
    pub backends: usize,
    /// Jobs in one episode.
    pub jobs: usize,
    /// Mean Poisson interarrival, in ticks.
    pub mean_interarrival: f64,
    /// Ticks per `drive_for` window.
    pub window: u64,
    /// How far ahead of its window a job is submitted, in ticks: before
    /// driving `[t, t + window)`, every job arriving before
    /// `t + window + lead` is submitted.
    pub lead: u64,
    /// Fail backend 0 a third of the way into the arrival span and
    /// recover it halfway.
    pub failover: bool,
}

impl Spec {
    pub const ALL: [Spec; 3] = [
        Spec {
            name: "steady",
            backends: 1,
            jobs: 4_000,
            mean_interarrival: 2_500.0,
            window: 500,
            lead: 50_000,
            failover: false,
        },
        Spec {
            name: "backlog",
            backends: 1,
            jobs: 3_000,
            mean_interarrival: 300.0,
            window: 1_500,
            lead: 0,
            failover: false,
        },
        Spec {
            name: "fleet_failover",
            backends: 3,
            jobs: 3_000,
            mean_interarrival: 2_500.0 / 3.0,
            window: 250,
            lead: 0,
            failover: true,
        },
    ];

    pub fn by_name(name: &str) -> Option<Spec> {
        Self::ALL.into_iter().find(|s| s.name == name)
    }

    /// The same workload with another episode size (tests use small
    /// ones).
    pub fn with_jobs(self, jobs: usize) -> Spec {
        Spec { jobs, ..self }
    }
}

/// One job of the stream: its arrival tick and index into [`POOL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub tick: u64,
    pub shape: usize,
}

/// SplitMix64: a small, fixed generator, so the inputs for a seed never
/// change with the library's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The episode's job stream for `seed`: Poisson arrivals, ascending,
/// cycling through [`POOL`] so every seed runs the same mix.
pub fn stream(spec: &Spec, seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix(seed ^ 0xC10D_0C0D_E2E0_0000);
    let mut t = 0.0f64;
    (0..spec.jobs)
        .map(|i| {
            t += -spec.mean_interarrival * rng.unit().ln();
            Arrival {
                tick: t as u64,
                shape: i % POOL.len(),
            }
        })
        .collect()
}
