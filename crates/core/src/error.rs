//! Framework error types.

use cloudqc_cloud::{QpuId, ResourceError};
use cloudqc_sim::Tick;
use std::error::Error;
use std::fmt;

/// Failures of the placement pipeline, and of the runtime calls that
/// drive it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// The circuit needs more qubits than the whole cloud has free.
    InsufficientCapacity {
        /// Qubits the circuit needs.
        required: usize,
        /// Computing qubits currently free cloud-wide.
        available: usize,
    },
    /// No placement satisfied the constraints (capacity per QPU, remote
    /// operation threshold ε) for any partitioning tried.
    NoFeasiblePlacement,
    /// A resource allocation failed while applying a placement.
    Resource(ResourceError),
    /// [`crate::runtime::Service::drive`] was called while the service
    /// had in-flight work. Nothing changed; drive it to quiescence
    /// first.
    ServiceBusy,
}

impl PlacementError {
    /// Short stable label of the variant, mirroring
    /// [`ExecError::kind_name`]: the string vocabulary experiment
    /// tables and routing telemetry key on. Both enums are
    /// `#[non_exhaustive]`, so later PRs can add variants (e.g. new
    /// routing errors) without breaking downstream matches — matching
    /// on `kind_name` strings instead of variants is the
    /// forward-compatible spelling.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PlacementError::InsufficientCapacity { .. } => "insufficient-capacity",
            PlacementError::NoFeasiblePlacement => "no-feasible-placement",
            PlacementError::Resource(_) => "resource",
            PlacementError::ServiceBusy => "service-busy",
        }
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientCapacity {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} qubits but only {available} are free"
            ),
            PlacementError::NoFeasiblePlacement => {
                write!(
                    f,
                    "no feasible placement found under the configured constraints"
                )
            }
            PlacementError::Resource(e) => write!(f, "resource allocation failed: {e}"),
            PlacementError::ServiceBusy => write!(
                f,
                "cannot drive an epoch while the service has in-flight work; \
                 call drive_to_quiescence() first"
            ),
        }
    }
}

impl Error for PlacementError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlacementError::Resource(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ResourceError> for PlacementError {
    fn from(e: ResourceError) -> Self {
        PlacementError::Resource(e)
    }
}

/// Reasons a job is rejected at admission instead of executed: its
/// placement induces remote gates the cloud's communication fabric can
/// never serve, or (under deadline-aware admission) its SLA deadline
/// can no longer be met. The runtime rejects such jobs instead of
/// aborting the whole run; [`crate::exec::Executor::try_add_job`]
/// returns the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A remote gate's endpoint QPU owns zero communication qubits, so
    /// no EPR pair can ever be generated for it.
    NoCommQubits {
        /// First endpoint of the offending remote gate.
        a: QpuId,
        /// Second endpoint of the offending remote gate.
        b: QpuId,
    },
    /// No quantum path connects a remote gate's endpoints.
    NoRoute {
        /// First endpoint of the offending remote gate.
        a: QpuId,
        /// Second endpoint of the offending remote gate.
        b: QpuId,
    },
    /// Path reservation is enabled and a swapping station on the
    /// selected route owns zero communication qubits.
    StationWithoutCommQubits {
        /// The saturated intermediate QPU.
        station: QpuId,
        /// First endpoint of the routed remote gate.
        a: QpuId,
        /// Second endpoint of the routed remote gate.
        b: QpuId,
    },
    /// Deadline-aware admission determined the job can no longer finish
    /// by its SLA deadline (estimated completion past the deadline), so
    /// it was rejected rather than left to rot in the queue.
    SlaExpired {
        /// The job's absolute deadline.
        deadline: Tick,
        /// When the rejection decision was made.
        now: Tick,
    },
    /// Admission-time load shedding: the waiting queue was at its
    /// configured depth cap when the job arrived, so it was turned away
    /// at the door instead of deepening the backlog.
    LoadShed {
        /// Waiting jobs at the instant the job was shed.
        queue_depth: usize,
    },
    /// The job can never be placed, even on a fully idle cloud. Every
    /// face of the runtime rejects such a job (carrying the placement
    /// failure) and keeps running the rest of the stream.
    Unplaceable(PlacementError),
}

impl ExecError {
    /// Short stable label of the variant, for per-cause rejection
    /// breakdowns in experiment tables.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ExecError::NoCommQubits { .. } => "no-comm-qubits",
            ExecError::NoRoute { .. } => "no-route",
            ExecError::StationWithoutCommQubits { .. } => "station-no-comm",
            ExecError::SlaExpired { .. } => "sla-expired",
            ExecError::LoadShed { .. } => "load-shed",
            ExecError::Unplaceable(_) => "unplaceable",
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoCommQubits { a, b } => {
                write!(f, "remote gate endpoints {a}/{b} lack communication qubits")
            }
            ExecError::NoRoute { a, b } => {
                write!(f, "no quantum path between {a} and {b}")
            }
            ExecError::StationWithoutCommQubits { station, a, b } => {
                write!(
                    f,
                    "swapping station {station} on route {a}->{b} lacks communication qubits"
                )
            }
            ExecError::SlaExpired { deadline, now } => {
                write!(
                    f,
                    "SLA deadline at tick {} can no longer be met (decision at tick {})",
                    deadline.as_ticks(),
                    now.as_ticks()
                )
            }
            ExecError::LoadShed { queue_depth } => {
                write!(
                    f,
                    "admission shed the job under overload ({queue_depth} jobs already waiting)"
                )
            }
            ExecError::Unplaceable(e) => {
                write!(f, "job can never be placed: {e}")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Unplaceable(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_cloud::QpuId;

    #[test]
    fn display_forms() {
        let e = PlacementError::InsufficientCapacity {
            required: 100,
            available: 40,
        };
        assert!(e.to_string().contains("100"));
        assert!(PlacementError::NoFeasiblePlacement
            .to_string()
            .contains("feasible"));
        assert!(PlacementError::ServiceBusy
            .to_string()
            .contains("in-flight work"));
    }

    #[test]
    fn placement_error_kind_names_are_distinct() {
        // Exhaustiveness check: this match has no wildcard arm, so
        // adding a PlacementError variant fails compilation here until
        // the new variant gets a kind name (the enum's #[non_exhaustive]
        // only shields *downstream* crates, not this one).
        let kind = |e: &PlacementError| match e {
            PlacementError::InsufficientCapacity { .. }
            | PlacementError::NoFeasiblePlacement
            | PlacementError::Resource(_)
            | PlacementError::ServiceBusy => e.kind_name(),
        };
        let kinds = [
            kind(&PlacementError::InsufficientCapacity {
                required: 10,
                available: 2,
            }),
            kind(&PlacementError::NoFeasiblePlacement),
            kind(&PlacementError::Resource(ResourceError::Insufficient {
                qpu: QpuId::new(0),
                requested: 5,
                available: 2,
            })),
            kind(&PlacementError::ServiceBusy),
        ];
        assert_eq!(
            kinds.len(),
            kinds.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn exec_error_kind_names_are_distinct() {
        let (a, b) = (QpuId::new(0), QpuId::new(3));
        // No-wildcard match: a new ExecError variant fails compilation
        // here until it gets a kind name (see the PlacementError twin).
        let kind = |e: &ExecError| match e {
            ExecError::NoCommQubits { .. }
            | ExecError::NoRoute { .. }
            | ExecError::StationWithoutCommQubits { .. }
            | ExecError::SlaExpired { .. }
            | ExecError::LoadShed { .. }
            | ExecError::Unplaceable(_) => e.kind_name(),
        };
        let kinds = [
            kind(&ExecError::NoCommQubits { a, b }),
            ExecError::NoRoute { a, b }.kind_name(),
            ExecError::StationWithoutCommQubits {
                station: QpuId::new(1),
                a,
                b,
            }
            .kind_name(),
            ExecError::SlaExpired {
                deadline: Tick::new(100),
                now: Tick::new(150),
            }
            .kind_name(),
            ExecError::LoadShed { queue_depth: 12 }.kind_name(),
            ExecError::Unplaceable(PlacementError::NoFeasiblePlacement).kind_name(),
        ];
        assert_eq!(
            kinds.len(),
            kinds.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn exec_error_display_forms() {
        let (a, b) = (QpuId::new(0), QpuId::new(3));
        assert!(ExecError::NoCommQubits { a, b }
            .to_string()
            .contains("lack communication qubits"));
        assert!(ExecError::NoRoute { a, b }
            .to_string()
            .contains("no quantum path"));
        let e = ExecError::StationWithoutCommQubits {
            station: QpuId::new(1),
            a,
            b,
        };
        assert!(e.to_string().contains("swapping station"));
        assert!(e.to_string().contains("QPU1"));
        let sla = ExecError::SlaExpired {
            deadline: Tick::new(100),
            now: Tick::new(150),
        };
        assert!(sla.to_string().contains("deadline"));
        assert!(sla.to_string().contains("100"));
        let shed = ExecError::LoadShed { queue_depth: 12 };
        assert!(shed.to_string().contains("12 jobs already waiting"));
        let unplaceable = ExecError::Unplaceable(PlacementError::NoFeasiblePlacement);
        assert!(unplaceable.to_string().contains("never be placed"));
        assert!(unplaceable.source().is_some());
    }

    #[test]
    fn resource_error_wraps() {
        let inner = ResourceError::Insufficient {
            qpu: QpuId::new(1),
            requested: 5,
            available: 2,
        };
        let e = PlacementError::from(inner);
        assert!(e.source().is_some());
    }
}
