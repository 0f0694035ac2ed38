//! Probabilistic EPR-pair generation (paper §III, §IV.C).
//!
//! "Another property of EPR pair generation is that its success is
//! probabilistic. A failed EPR generation also consumes communication
//! qubits." Allocating `x` communication-qubit pairs to a remote gate
//! lets `x` generation attempts run in parallel per round; the round
//! succeeds if any attempt does.

use rand::rngs::StdRng;
use rand::RngExt;

/// The EPR generation model: per-attempt success probability `p`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EprModel {
    success_prob: f64,
}

impl EprModel {
    /// A model with per-attempt success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "EPR success probability must be in (0, 1]"
        );
        EprModel { success_prob: p }
    }

    /// Per-attempt success probability.
    pub fn success_prob(&self) -> f64 {
        self.success_prob
    }

    /// Probability that a round with `pairs` parallel attempts succeeds:
    /// `1 - (1-p)^pairs`. Zero pairs always fail.
    pub fn round_success_prob(&self, pairs: usize) -> f64 {
        self.round_success_prob_with_quality(pairs, 1.0)
    }

    /// Round success probability over a link of the given *quality*
    /// (per-link reliability factor in `(0, 1]`, see the cloud model's
    /// link-reliability extension): `1 - (1 - p·quality)^pairs`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `(0, 1]`.
    pub fn round_success_prob_with_quality(&self, pairs: usize, quality: f64) -> f64 {
        assert!(
            quality > 0.0 && quality <= 1.0,
            "link quality must be in (0, 1]"
        );
        if pairs == 0 {
            return 0.0;
        }
        1.0 - (1.0 - self.success_prob * quality).powi(pairs as i32)
    }

    /// Samples `attempts` rounds of `pairs` parallel attempts each over
    /// a link of the given quality and returns how many succeeded. The
    /// round success probability `p` of
    /// [`round_success_prob_with_quality`](Self::round_success_prob_with_quality)
    /// is computed once, then each round draws one `random_bool(p)` in
    /// order, and none at all when `p == 0` (zero pairs), so a seeded
    /// simulation replays bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `(0, 1]`.
    pub fn sample_successes(
        &self,
        pairs: usize,
        quality: f64,
        attempts: u64,
        rng: &mut StdRng,
    ) -> u64 {
        let p = self.round_success_prob_with_quality(pairs, quality);
        if p == 0.0 {
            return 0;
        }
        (0..attempts).filter(|_| rng.random_bool(p)).count() as u64
    }

    /// Expected rounds until success with `pairs` parallel attempts:
    /// `1 / (1 - (1-p)^pairs)`. Used by the placement time estimator.
    ///
    /// Returns `f64::INFINITY` for zero pairs.
    pub fn expected_rounds(&self, pairs: usize) -> f64 {
        let p = self.round_success_prob(pairs);
        if p == 0.0 {
            f64::INFINITY
        } else {
            1.0 / p
        }
    }
}

impl Default for EprModel {
    /// The paper's evaluation default: `p = 0.3` (§VI.A, consistent with
    /// the NV-center experiments it cites).
    fn default() -> Self {
        EprModel::new(0.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn round_probability_formula() {
        let m = EprModel::new(0.3);
        assert_eq!(m.round_success_prob(0), 0.0);
        assert!((m.round_success_prob(1) - 0.3).abs() < 1e-12);
        assert!((m.round_success_prob(2) - 0.51).abs() < 1e-12);
        assert!((m.round_success_prob(5) - (1.0 - 0.7f64.powi(5))).abs() < 1e-12);
    }

    #[test]
    fn more_pairs_help() {
        let m = EprModel::default();
        for x in 1..10 {
            assert!(m.round_success_prob(x + 1) > m.round_success_prob(x));
            assert!(m.expected_rounds(x + 1) < m.expected_rounds(x));
        }
    }

    /// Rounds until the first success, one single-round draw at a time.
    fn rounds_to_success(m: &EprModel, pairs: usize, rng: &mut StdRng) -> u64 {
        let mut rounds = 1;
        while m.sample_successes(pairs, 1.0, 1, rng) == 0 {
            rounds += 1;
        }
        rounds
    }

    #[test]
    fn expected_rounds_matches_empirical_mean() {
        let m = EprModel::new(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let total: u64 = (0..trials)
            .map(|_| rounds_to_success(&m, 2, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = m.expected_rounds(2);
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn certain_success_is_one_round() {
        let m = EprModel::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rounds_to_success(&m, 1, &mut rng), 1);
        assert_eq!(m.expected_rounds(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_probability_rejected() {
        EprModel::new(0.0);
    }

    #[test]
    fn quality_degrades_success() {
        let m = EprModel::new(0.3);
        assert!(m.round_success_prob_with_quality(2, 0.5) < m.round_success_prob(2));
        assert_eq!(
            m.round_success_prob_with_quality(2, 1.0),
            m.round_success_prob(2)
        );
        // Quality 0.5 behaves like halved per-attempt probability.
        let halved = EprModel::new(0.15);
        assert!(
            (m.round_success_prob_with_quality(3, 0.5) - halved.round_success_prob(3)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "link quality")]
    fn bad_quality_rejected() {
        EprModel::default().round_success_prob_with_quality(1, 1.5);
    }

    #[test]
    fn sampler_matches_per_round_loop_bit_for_bit() {
        let m = EprModel::new(0.3);
        for &(pairs, quality, attempts) in &[
            (1usize, 1.0f64, 50u64),
            (3, 0.8, 200),
            (7, 0.45, 1000),
            (0, 1.0, 100),
        ] {
            // One draw per attempt at the round probability, none at 0.
            let p = m.round_success_prob_with_quality(pairs, quality);
            let mut reference_rng = StdRng::seed_from_u64(42);
            let reference = (0..attempts)
                .filter(|_| p > 0.0 && reference_rng.random_bool(p))
                .count() as u64;
            let mut rng = StdRng::seed_from_u64(42);
            let successes = m.sample_successes(pairs, quality, attempts, &mut rng);
            assert_eq!(successes, reference);
            // The streams must stay aligned after the batch, too.
            assert_eq!(
                reference_rng.random::<u64>(),
                rng.random::<u64>(),
                "RNG streams diverged after sampling {attempts} attempts of {pairs} pairs"
            );
        }
    }

    #[test]
    fn sampler_precomputes_round_probability() {
        let m = EprModel::new(0.3);
        // Every round draws at the one round probability for (pairs, quality).
        let p = m.round_success_prob_with_quality(4, 0.9);
        let mut reference_rng = StdRng::seed_from_u64(1);
        let reference = (0..100)
            .filter(|_| reference_rng.random_bool(p))
            .count() as u64;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample_successes(4, 0.9, 100, &mut rng), reference);
        // Zero pairs: probability 0, no RNG draws at all.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample_successes(0, 1.0, 100, &mut rng), 0);
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.random_bool(0.5), fresh.random_bool(0.5));
    }

    #[test]
    #[should_panic(expected = "link quality")]
    fn sampler_rejects_bad_quality() {
        EprModel::default().sample_successes(1, 0.0, 1, &mut StdRng::seed_from_u64(0));
    }
}
