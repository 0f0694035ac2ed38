//! Host-speed reference: a fixed piece of the benchmark's own work,
//! timed between windows, by which the host-time metrics are scaled.
//!
//! On a shared VM the whole machine speeds up and slows down with its
//! neighbours' load: one `steady` episode took anywhere from 5.2 to 8.9 s
//! within an hour, with every episode of a run fast or slow together.
//! Timing this reference during each episode and scaling the episode's
//! times by `NOMINAL_S / reference time` reports them at one host speed.
//! Over 91 episodes of the three workloads, the quartile spread of
//! episode wall time fell from 0.13–0.28 of the median to 0.04–0.07.
//!
//! The reference does scalar arithmetic and small allocations (a hash
//! map and a sort), the mix whose time tracked the episodes' best; a
//! pointer chase through 1 MB or 32 MB tracked them worse. It calls
//! nothing in the repository, so no change to the program under test
//! changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`reference_s`] takes at the nominal host speed: its typical
/// time on the 2-vCPU Intel Xeon VM the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.8e-3;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the reference once and returns its host seconds.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut f = 1.0f64;
    let mut x = 1u64;
    for i in 0..100_000u64 {
        f = (f * 1.000_001 + (i as f64).sqrt()) % 1e6;
        x = mix(x ^ i);
    }
    // A fixed hasher, so every run does the same work.
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..4_000u64 {
        map.entry(mix(i) & 0x3FF).or_default().push(i);
    }
    let mut sums: Vec<u64> = map.values().map(|v| v.iter().sum()).collect();
    sums.sort_unstable();
    black_box((f, x, sums));
    start.elapsed().as_secs_f64()
}
