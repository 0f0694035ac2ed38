//! Framework configuration knobs.
//!
//! The paper leaves several constants unpublished (λ₁..λ₃ of Eq. 11,
//! the α/β scoring weights of §V.B, the ε remote-operation threshold of
//! Eq. 6, and the imbalance-factor list of Algorithm 1). This
//! reproduction's choices are the [`Default`] impls of [`BatchWeights`]
//! and [`PlacementConfig`], and every field is public for sweeps.

/// Weights of the batch-ordering metric
/// `I_i = λ₁·#CNOTs/n_i + λ₂·n_i + λ₃·d_i` (Eq. 11).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BatchWeights {
    /// λ₁: weight of two-qubit-gate density.
    pub lambda1: f64,
    /// λ₂: weight of qubit count (resource demand).
    pub lambda2: f64,
    /// λ₃: weight of circuit depth (execution time).
    pub lambda3: f64,
}

impl Default for BatchWeights {
    /// λ = (1, 1, 0.1): density and width dominate, depth tie-breaks.
    fn default() -> Self {
        BatchWeights {
            lambda1: 1.0,
            lambda2: 1.0,
            lambda3: 0.1,
        }
    }
}

/// Configuration of the CloudQC placement pipeline (Algorithm 1).
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementConfig {
    /// Imbalance factors α to sweep in the graph-partition step.
    pub imbalance_factors: Vec<f64>,
    /// Scoring weight α of `S = α/T + β/C` (estimated time term).
    /// While both weights are ≥ 0, the CloudQC sweep skips every split
    /// whose score cannot beat the best so far; a negative or NaN
    /// weight runs the full sweep.
    pub score_alpha: f64,
    /// Scoring weight β of `S = α/T + β/C` (communication cost term).
    /// Like α, a negative or NaN β runs the full sweep.
    pub score_beta: f64,
    /// ε: maximum remote operations borne by a single QPU (Eq. 6).
    /// `usize::MAX` disables the constraint.
    pub epsilon: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            imbalance_factors: vec![0.1, 0.3, 0.5],
            score_alpha: 1.0,
            score_beta: 1.0,
            epsilon: usize::MAX,
        }
    }
}

impl PlacementConfig {
    /// Sets the imbalance-factor sweep list.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty or contains a negative factor.
    pub fn with_imbalance_factors(mut self, factors: Vec<f64>) -> Self {
        assert!(!factors.is_empty(), "need at least one imbalance factor");
        assert!(
            factors.iter().all(|&f| f >= 0.0),
            "imbalance factors must be non-negative"
        );
        self.imbalance_factors = factors;
        self
    }

    /// Sets the remote-operation threshold ε (Eq. 6).
    pub fn with_epsilon(mut self, epsilon: usize) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the scoring weights.
    pub fn with_score_weights(mut self, alpha: f64, beta: f64) -> Self {
        self.score_alpha = alpha;
        self.score_beta = beta;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PlacementConfig::default();
        assert!(!c.imbalance_factors.is_empty());
        assert_eq!(c.epsilon, usize::MAX);
        let w = BatchWeights::default();
        assert!(w.lambda1 > 0.0 && w.lambda2 > 0.0 && w.lambda3 > 0.0);
    }

    #[test]
    fn builder_setters() {
        let c = PlacementConfig::default()
            .with_imbalance_factors(vec![0.2])
            .with_epsilon(50)
            .with_score_weights(2.0, 0.5);
        assert_eq!(c.imbalance_factors, vec![0.2]);
        assert_eq!(c.epsilon, 50);
        assert_eq!(c.score_alpha, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_factors_rejected() {
        PlacementConfig::default().with_imbalance_factors(vec![]);
    }
}
