//! The CloudQC-BFS placement variant (paper §VI.B).
//!
//! "Also a method proposed by us. It differs from CloudQC in using a BFS
//! search to find feasible QPU for each partition instead of community
//! detection."

use super::cloudqc::{place_with_mode, SplitMemo};
use super::find_placement::FindPlacementMode;
use super::{Placement, PlacementAlgorithm};
use crate::config::PlacementConfig;
use crate::error::PlacementError;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus};
use std::fmt;

/// CloudQC with BFS QPU-set selection instead of community detection.
/// Shares every other pipeline stage (partition sweep, center mapping,
/// scoring) with [`super::CloudQcPlacement`], and like it partitions
/// each circuit shape once: it keeps its own bounded, exact memo of the
/// sweep's partitions, keyed, bounded and shared as described there.
#[derive(Clone, Default)]
pub struct CloudQcBfsPlacement {
    config: PlacementConfig,
    memo: SplitMemo,
}

impl CloudQcBfsPlacement {
    /// Uses the given pipeline configuration.
    pub fn new(config: PlacementConfig) -> Self {
        CloudQcBfsPlacement {
            config,
            memo: SplitMemo::default(),
        }
    }
}

impl fmt::Debug for CloudQcBfsPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CloudQcBfsPlacement")
            .field("config", &self.config)
            .finish()
    }
}

impl PlacementAlgorithm for CloudQcBfsPlacement {
    fn name(&self) -> &'static str {
        "CloudQC-BFS"
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        place_with_mode(
            circuit,
            cloud,
            status,
            &self.config,
            FindPlacementMode::Bfs,
            seed,
            &self.memo,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::cost::remote_op_count;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    #[test]
    fn places_large_circuits() {
        let cloud = CloudBuilder::paper_default(0).build();
        let circuit = catalog::by_name("cat_n130").unwrap();
        let status = cloud.status();
        let p = CloudQcBfsPlacement::default()
            .place(&circuit, &cloud, &status, 1)
            .unwrap();
        assert!(p.fits(&status));
        // A chain circuit should still cut cheaply under BFS selection.
        assert!(remote_op_count(&circuit, &p) <= 30);
    }

    #[test]
    fn name_distinguishes_variant() {
        assert_eq!(CloudQcBfsPlacement::default().name(), "CloudQC-BFS");
    }
}
