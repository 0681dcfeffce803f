//! Error types for instance validation and migration planning.

use crate::machine::MachineId;
use crate::shard::ShardId;
use std::fmt;

/// Errors produced by instance validation, assignment construction, and
/// migration planning/verification.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// The instance has inconsistent dimensionalities.
    DimensionMismatch {
        expected: usize,
        found: usize,
        what: &'static str,
    },
    /// A machine's `id` field does not match its index.
    BadMachineId { index: usize, id: MachineId },
    /// A shard's `id` field does not match its index.
    BadShardId { index: usize, id: ShardId },
    /// The initial placement references a machine that does not exist.
    UnknownMachine { shard: ShardId, machine: MachineId },
    /// A shard is initially placed on an exchange machine (they must start
    /// vacant).
    ShardOnExchangeMachine { shard: ShardId, machine: MachineId },
    /// The initial placement overflows a machine's capacity.
    InitialOverload { machine: MachineId },
    /// More vacant machines must be returned than machines exist.
    BadReturnCount { k_return: usize, machines: usize },
    /// The initial placement does not have `k_return` vacant machines
    /// available (exchange machines must at least cover the return quota).
    InsufficientVacancy { k_return: usize, vacant: usize },
    /// A placement vector has the wrong length.
    BadPlacementLength { expected: usize, found: usize },
    /// A target placement leaves fewer than `k_return` machines vacant.
    VacancyShortfall { required: usize, found: usize },
    /// A target placement overloads a machine.
    TargetOverload { machine: MachineId },
    /// The migration planner could not schedule all moves without violating
    /// transient constraints, even with two-hop staging.
    PlanningDeadlock { remaining_moves: usize },
    /// A migration schedule violated a transient capacity constraint.
    TransientViolation { batch: usize, machine: MachineId },
    /// A migration schedule contains a move whose source does not match the
    /// shard's current location at that point of the schedule.
    InconsistentMove { batch: usize, shard: ShardId },
    /// A migration schedule does not end at the declared target placement.
    WrongFinalPlacement { shard: ShardId },
    /// The migration overhead factor is invalid.
    BadOverhead { alpha: f64 },
    /// A shard merge was requested for shards that are not distinct,
    /// not both present, or not co-located on one machine.
    BadMerge { keep: ShardId, drop: ShardId },
    /// A synthetic-generator setting is out of range (a zero count,
    /// stringency outside `(0,1)`, too few shards to reach it, ...).
    BadGenerator { reason: String },
    /// No initial placement packs the generated demands: neither the
    /// requested placement nor the balanced fallback finds a machine with
    /// room for `shard`.
    Unpackable { shard: ShardId, stringency: f64 },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ClusterError::*;
        match self {
            DimensionMismatch {
                expected,
                found,
                what,
            } => {
                write!(f, "{what}: expected {expected} dims, found {found}")
            }
            BadMachineId { index, id } => write!(f, "machine at index {index} has id {id}"),
            BadShardId { index, id } => write!(f, "shard at index {index} has id {id}"),
            UnknownMachine { shard, machine } => {
                write!(f, "shard {shard} placed on unknown machine {machine}")
            }
            ShardOnExchangeMachine { shard, machine } => {
                write!(
                    f,
                    "shard {shard} initially placed on exchange machine {machine}"
                )
            }
            InitialOverload { machine } => {
                write!(f, "initial placement overloads machine {machine}")
            }
            BadReturnCount { k_return, machines } => {
                write!(f, "k_return={k_return} exceeds machine count {machines}")
            }
            InsufficientVacancy { k_return, vacant } => {
                write!(
                    f,
                    "need {k_return} vacant machines initially, found {vacant}"
                )
            }
            BadPlacementLength { expected, found } => {
                write!(
                    f,
                    "placement has {found} entries, instance has {expected} shards"
                )
            }
            VacancyShortfall { required, found } => {
                write!(
                    f,
                    "target leaves {found} machines vacant, {required} must be returned"
                )
            }
            TargetOverload { machine } => write!(f, "target placement overloads {machine}"),
            PlanningDeadlock { remaining_moves } => {
                write!(
                    f,
                    "migration planning deadlocked with {remaining_moves} moves pending"
                )
            }
            TransientViolation { batch, machine } => {
                write!(f, "batch {batch} transiently overloads machine {machine}")
            }
            InconsistentMove { batch, shard } => {
                write!(
                    f,
                    "batch {batch} moves shard {shard} from a machine it is not on"
                )
            }
            WrongFinalPlacement { shard } => {
                write!(f, "schedule leaves shard {shard} off its target machine")
            }
            BadOverhead { alpha } => write!(f, "migration overhead alpha={alpha} invalid"),
            BadMerge { keep, drop } => {
                write!(
                    f,
                    "cannot merge shard {drop} into {keep}: shards must be \
                     distinct, present, and co-located"
                )
            }
            BadGenerator { reason } => write!(f, "generator: {reason}"),
            Unpackable { shard, stringency } => {
                write!(
                    f,
                    "shard {shard} fits on no machine: the demands do not pack \
                     at stringency {stringency}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::PlanningDeadlock { remaining_moves: 3 };
        assert!(e.to_string().contains("3 moves pending"));
        let e = ClusterError::TransientViolation {
            batch: 2,
            machine: MachineId(4),
        };
        assert!(e.to_string().contains("batch 2"));
        assert!(e.to_string().contains("m4"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<ClusterError>();
    }
}
