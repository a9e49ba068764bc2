//! Error types shared across the framework.

use core::fmt;

use crate::TaskId;

/// A convenient alias for results in the rideshare framework.
pub type Result<T, E = MarketError> = core::result::Result<T, E>;

/// Errors raised when constructing or solving market instances.
///
/// # Examples
///
/// ```
/// use rideshare_types::{MarketError, TaskId};
/// let err = MarketError::UnknownTask(TaskId::new(9));
/// assert_eq!(err.to_string(), "unknown task: task#9");
/// ```
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum MarketError {
    /// A task id referenced an index outside `0..M`.
    UnknownTask(TaskId),
    /// A driver or task has an inverted time window (`end ≤ start`).
    InvalidTimeWindow {
        /// Human-readable description of the offending entity.
        entity: String,
    },
    /// A task's publish time is not strictly before its pickup deadline
    /// (the paper requires `t̄ₘ < t̄⁻ₘ < t̄⁺ₘ`).
    PublishAfterStart(TaskId),
    /// An assignment violated a model constraint (5a–5f); describes which.
    InfeasibleAssignment {
        /// Description of the violated constraint.
        reason: String,
    },
    /// An optimization model was malformed (e.g. mismatched dimensions).
    InvalidModel {
        /// Description of the problem.
        reason: String,
    },
    /// The LP solver detected an unbounded problem.
    Unbounded,
    /// The LP/ILP solver proved the problem infeasible.
    Infeasible,
    /// An iterative solver exceeded its iteration budget.
    IterationLimit {
        /// The budget that was exhausted.
        limit: usize,
    },
    /// Numerical breakdown (NaN/Inf encountered) in a solver.
    Numerical {
        /// Description of where the breakdown happened.
        context: String,
    },
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::UnknownTask(t) => write!(f, "unknown task: {t}"),
            MarketError::InvalidTimeWindow { entity } => {
                write!(f, "invalid time window for {entity}")
            }
            MarketError::PublishAfterStart(t) => {
                write!(f, "{t} published at or after its pickup deadline")
            }
            MarketError::InfeasibleAssignment { reason } => {
                write!(f, "infeasible assignment: {reason}")
            }
            MarketError::InvalidModel { reason } => write!(f, "invalid model: {reason}"),
            MarketError::Unbounded => write!(f, "problem is unbounded"),
            MarketError::Infeasible => write!(f, "problem is infeasible"),
            MarketError::IterationLimit { limit } => {
                write!(f, "iteration limit of {limit} exceeded")
            }
            MarketError::Numerical { context } => {
                write!(f, "numerical breakdown in {context}")
            }
        }
    }
}

impl std::error::Error for MarketError {}

/// Errors raised when validating user-supplied configuration before a run
/// starts (CLI flags, option builders), as opposed to failures during a run.
///
/// # Examples
///
/// ```
/// use rideshare_types::ConfigError;
/// let err = ConfigError::ZeroShards;
/// assert_eq!(err.to_string(), "shard count must be at least 1");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// A sharded engine was configured with `shards == 0`; the partitioner
    /// would divide by zero before dispatching a single event.
    ZeroShards,
    /// A sharded engine was configured with more shards than the fixed
    /// limit; each shard is an OS thread, and a count the OS refuses would
    /// abort the process instead of failing the run.
    TooManyShards {
        /// The rejected shard count.
        shards: usize,
        /// The most shards a run may have.
        max: usize,
    },
    /// An orchestrated sweep was configured with `workers == 0`; no process
    /// would ever claim a unit and the run could not finish.
    ZeroWorkers,
    /// A retry budget of zero attempts can never execute a unit.
    ZeroAttempts,
    /// A free-form invalid value for a named option.
    InvalidValue {
        /// The option that was rejected (e.g. `--timeout`).
        option: String,
        /// Why the value is unusable.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ConfigError::TooManyShards { shards, max } => write!(
                f,
                "shard count {shards} exceeds the limit of {max} (one OS thread per shard)"
            ),
            ConfigError::ZeroWorkers => write!(f, "worker count must be at least 1"),
            ConfigError::ZeroAttempts => write!(f, "retry budget must allow at least 1 attempt"),
            ConfigError::InvalidValue { option, reason } => {
                write!(f, "invalid value for {option}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors raised by the multi-process sweep orchestrator and its workers.
///
/// Every failure mode of the spool protocol is typed so callers (and the
/// `rideshare orchestrate` CLI) can distinguish a corrupt spool from a
/// poisoned unit from a plain I/O failure.
///
/// # Examples
///
/// ```
/// use rideshare_types::OrchestrateError;
/// let err = OrchestrateError::Poisoned {
///     units: vec!["porto-day:greedy".into()],
/// };
/// assert_eq!(
///     err.to_string(),
///     "1 unit(s) poisoned after exhausting retries: porto-day:greedy"
/// );
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum OrchestrateError {
    /// Configuration was rejected before the spool was touched.
    Config(ConfigError),
    /// An I/O operation on the spool failed.
    Io {
        /// What the orchestrator was doing (e.g. `create spool dir`).
        op: String,
        /// The path involved.
        path: String,
        /// The underlying error rendered as text.
        detail: String,
    },
    /// The spool directory already contains a catalog and `--resume` was not
    /// requested; refusing to clobber a previous (possibly partial) run.
    SpoolExists {
        /// The spool directory.
        path: String,
    },
    /// `--resume` found a spool whose catalog disagrees with the requested
    /// scenarios/policies; resuming would silently merge unrelated runs.
    ManifestMismatch {
        /// Why the manifests differ.
        detail: String,
    },
    /// A unit spec file in the spool could not be parsed.
    CorruptUnit {
        /// The unit file path.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A result file in the spool could not be parsed back into sweep cells.
    CorruptResult {
        /// The result file path.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A unit referenced a scenario name absent from the catalog.
    UnknownScenario(String),
    /// A unit referenced a policy label that does not parse.
    UnknownPolicy(String),
    /// Spawning a worker child process failed.
    Spawn {
        /// The underlying error rendered as text.
        detail: String,
    },
    /// Workers kept dying and the respawn budget ran out before the spool
    /// drained; the spool is left intact for `--resume`.
    SpawnBudgetExhausted {
        /// How many respawns were attempted.
        attempts: usize,
    },
    /// One or more units exhausted their retry budget and were poisoned.
    /// The merged report for the surviving units is intentionally withheld:
    /// a partial sweep is not byte-comparable to the canonical one.
    Poisoned {
        /// Unit ids (`scenario:policy`) that were poisoned.
        units: Vec<String>,
    },
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Config(c) => write!(f, "{c}"),
            OrchestrateError::Io { op, path, detail } => {
                write!(f, "i/o failure during {op} at {path}: {detail}")
            }
            OrchestrateError::SpoolExists { path } => write!(
                f,
                "spool {path} already holds a run; pass --resume to continue it"
            ),
            OrchestrateError::ManifestMismatch { detail } => {
                write!(f, "spool catalog does not match this invocation: {detail}")
            }
            OrchestrateError::CorruptUnit { path, detail } => {
                write!(f, "corrupt unit spec {path}: {detail}")
            }
            OrchestrateError::CorruptResult { path, detail } => {
                write!(f, "corrupt unit result {path}: {detail}")
            }
            OrchestrateError::UnknownScenario(name) => write!(f, "unknown scenario: {name}"),
            OrchestrateError::UnknownPolicy(label) => write!(f, "unknown policy: {label}"),
            OrchestrateError::Spawn { detail } => write!(f, "failed to spawn worker: {detail}"),
            OrchestrateError::SpawnBudgetExhausted { attempts } => {
                write!(f, "worker respawn budget exhausted after {attempts} spawns")
            }
            OrchestrateError::Poisoned { units } => write!(
                f,
                "{} unit(s) poisoned after exhausting retries: {}",
                units.len(),
                units.join(", ")
            ),
        }
    }
}

impl std::error::Error for OrchestrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestrateError::Config(c) => Some(c),
            _ => None,
        }
    }
}

impl From<ConfigError> for OrchestrateError {
    fn from(c: ConfigError) -> Self {
        OrchestrateError::Config(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            MarketError::PublishAfterStart(TaskId::new(2)).to_string(),
            "task#2 published at or after its pickup deadline"
        );
        assert_eq!(MarketError::Unbounded.to_string(), "problem is unbounded");
        assert_eq!(
            MarketError::IterationLimit { limit: 10 }.to_string(),
            "iteration limit of 10 exceeded"
        );
        assert_eq!(
            MarketError::Numerical {
                context: "simplex pivot".into()
            }
            .to_string(),
            "numerical breakdown in simplex pivot"
        );
    }

    #[test]
    fn error_trait_object() {
        let err: Box<dyn std::error::Error> = Box::new(MarketError::Infeasible);
        assert_eq!(err.to_string(), "problem is infeasible");
    }

    #[test]
    fn config_error_display() {
        assert_eq!(
            ConfigError::ZeroShards.to_string(),
            "shard count must be at least 1"
        );
        assert_eq!(
            ConfigError::TooManyShards {
                shards: 70_000,
                max: 1024
            }
            .to_string(),
            "shard count 70000 exceeds the limit of 1024 (one OS thread per shard)"
        );
        assert_eq!(
            ConfigError::ZeroWorkers.to_string(),
            "worker count must be at least 1"
        );
        assert_eq!(
            ConfigError::InvalidValue {
                option: "--timeout".into(),
                reason: "must be positive".into()
            }
            .to_string(),
            "invalid value for --timeout: must be positive"
        );
    }

    #[test]
    fn orchestrate_error_display_and_source() {
        let err = OrchestrateError::from(ConfigError::ZeroWorkers);
        assert_eq!(err.to_string(), "worker count must be at least 1");
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(
            OrchestrateError::SpoolExists {
                path: "/tmp/spool".into()
            }
            .to_string(),
            "spool /tmp/spool already holds a run; pass --resume to continue it"
        );
        assert_eq!(
            OrchestrateError::Poisoned {
                units: vec!["a:greedy".into(), "b:random".into()]
            }
            .to_string(),
            "2 unit(s) poisoned after exhausting retries: a:greedy, b:random"
        );
    }
}
