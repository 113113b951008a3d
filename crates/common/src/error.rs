//! Error type shared across the engine.

use std::fmt;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, PrestoError>;

/// The error taxonomy of the engine.
///
/// The variants mirror where in the query lifecycle (Fig. 1 of the paper) an
/// error arises: parsing, analysis, planning, execution, or in one of the
/// substrates (storage, connector, file format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrestoError {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// The query is syntactically valid but semantically wrong
    /// (unknown table/column, type mismatch, ...).
    Analysis(String),
    /// The optimizer or fragmenter could not produce a plan.
    Plan(String),
    /// A runtime failure while executing operators.
    Execution(String),
    /// A storage-layer failure (simulated HDFS / S3 / local fs).
    Storage(String),
    /// A connector-specific failure.
    Connector(String),
    /// File-format level corruption or version mismatch.
    Format(String),
    /// Schema evolution rule violation (§V.A: renames and type changes
    /// are rejected).
    SchemaEvolution(String),
    /// The paper's infamous `"Insufficient Resource ..."` error users hit on
    /// big joins (§XII.C). Raised when a query exceeds the session memory
    /// budget.
    InsufficientResources(String),
    /// The cluster memory pool ran dry and the OOM arbiter chose this query
    /// as the victim: it held the most memory and nothing was revocable
    /// (spillable) anywhere, so killing it frees the most capacity.
    ExceededMemoryLimit(String),
    /// A worker node died (crash, injected fault, lost heartbeat) while it
    /// held tasks. Infrastructure, not the query's fault: the coordinator
    /// may reassign the lost splits to surviving workers.
    WorkerFailed {
        /// The worker that failed.
        worker_id: u32,
        /// What happened.
        message: String,
    },
    /// A whole cluster cannot serve the query right now (no active workers,
    /// maintenance drain). The gateway may re-route to a healthy cluster.
    ClusterUnavailable(String),
    /// A transient-error retry budget ran out at this layer (e.g. the S3
    /// exponential backoff gave up after N `503 SlowDown`s, §IX).
    /// Non-retryable *here*, but retryable by the coordinator: the same
    /// split rescheduled onto another worker gets a fresh budget.
    TransientExhausted(String),
    /// Feature not supported by this reproduction.
    NotSupported(String),
    /// Invariant violation — a bug in the engine itself.
    Internal(String),
}

impl PrestoError {
    /// Short machine-readable code, handy in tests and logs.
    pub fn code(&self) -> &'static str {
        match self {
            PrestoError::Parse(_) => "PARSE_ERROR",
            PrestoError::Analysis(_) => "ANALYSIS_ERROR",
            PrestoError::Plan(_) => "PLAN_ERROR",
            PrestoError::Execution(_) => "EXECUTION_ERROR",
            PrestoError::Storage(_) => "STORAGE_ERROR",
            PrestoError::Connector(_) => "CONNECTOR_ERROR",
            PrestoError::Format(_) => "FORMAT_ERROR",
            PrestoError::SchemaEvolution(_) => "SCHEMA_EVOLUTION_ERROR",
            PrestoError::InsufficientResources(_) => "INSUFFICIENT_RESOURCES",
            PrestoError::ExceededMemoryLimit(_) => "EXCEEDED_MEMORY_LIMIT",
            PrestoError::WorkerFailed { .. } => "WORKER_FAILED",
            PrestoError::ClusterUnavailable(_) => "CLUSTER_UNAVAILABLE",
            PrestoError::TransientExhausted(_) => "TRANSIENT_EXHAUSTED",
            PrestoError::NotSupported(_) => "NOT_SUPPORTED",
            PrestoError::Internal(_) => "INTERNAL_ERROR",
        }
    }

    /// Is this an *infrastructure* fault a higher layer may retry on
    /// different resources — the coordinator by reassigning the split to a
    /// surviving worker, the gateway by re-routing the query to a healthy
    /// cluster? User, plan, and resource-policy errors are **not**
    /// retryable: re-running them elsewhere reproduces the same failure.
    ///
    /// The match is deliberately exhaustive with no wildcard: rustc rejects
    /// a missing variant, and the two clippy lints below reject a `_` arm
    /// (the second catches one that covers a single variant). Adding a
    /// variant forces whoever adds it to decide, here, whether retry loops
    /// may act on it.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn is_retryable(&self) -> bool {
        match self {
            // infrastructure faults: fresh resources can succeed
            PrestoError::WorkerFailed { .. }
            | PrestoError::ClusterUnavailable(_)
            | PrestoError::TransientExhausted(_) => true,
            // user errors: the query itself is wrong everywhere
            PrestoError::Parse(_)
            | PrestoError::Analysis(_)
            | PrestoError::Plan(_)
            | PrestoError::NotSupported(_) => false,
            // deterministic runtime/substrate failures: same data, same crash
            PrestoError::Execution(_)
            | PrestoError::Storage(_)
            | PrestoError::Connector(_)
            | PrestoError::Format(_)
            | PrestoError::SchemaEvolution(_) => false,
            // resource-policy decisions: retrying would just re-trigger them
            PrestoError::InsufficientResources(_) | PrestoError::ExceededMemoryLimit(_) => false,
            // engine bugs must surface, never be papered over by retries
            PrestoError::Internal(_) => false,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            PrestoError::Parse(m)
            | PrestoError::Analysis(m)
            | PrestoError::Plan(m)
            | PrestoError::Execution(m)
            | PrestoError::Storage(m)
            | PrestoError::Connector(m)
            | PrestoError::Format(m)
            | PrestoError::SchemaEvolution(m)
            | PrestoError::InsufficientResources(m)
            | PrestoError::ExceededMemoryLimit(m)
            | PrestoError::WorkerFailed { message: m, .. }
            | PrestoError::ClusterUnavailable(m)
            | PrestoError::TransientExhausted(m)
            | PrestoError::NotSupported(m)
            | PrestoError::Internal(m) => m,
        }
    }
}

impl fmt::Display for PrestoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

impl std::error::Error for PrestoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_messages_round_trip() {
        let e = PrestoError::InsufficientResources("join too big".into());
        assert_eq!(e.code(), "INSUFFICIENT_RESOURCES");
        assert_eq!(e.message(), "join too big");
        assert_eq!(e.to_string(), "INSUFFICIENT_RESOURCES: join too big");
    }

    #[test]
    fn every_variant_has_a_distinct_code() {
        let all = [
            PrestoError::Parse(String::new()),
            PrestoError::Analysis(String::new()),
            PrestoError::Plan(String::new()),
            PrestoError::Execution(String::new()),
            PrestoError::Storage(String::new()),
            PrestoError::Connector(String::new()),
            PrestoError::Format(String::new()),
            PrestoError::SchemaEvolution(String::new()),
            PrestoError::InsufficientResources(String::new()),
            PrestoError::ExceededMemoryLimit(String::new()),
            PrestoError::WorkerFailed { worker_id: 0, message: String::new() },
            PrestoError::ClusterUnavailable(String::new()),
            PrestoError::TransientExhausted(String::new()),
            PrestoError::NotSupported(String::new()),
            PrestoError::Internal(String::new()),
        ];
        let mut codes: Vec<_> = all.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn only_infrastructure_faults_are_retryable() {
        assert!(
            PrestoError::WorkerFailed { worker_id: 3, message: "crashed".into() }.is_retryable()
        );
        assert!(PrestoError::ClusterUnavailable("no active workers".into()).is_retryable());
        assert!(PrestoError::TransientExhausted("gave up after 6 retries".into()).is_retryable());
        // user / plan / policy errors reproduce identically elsewhere
        for e in [
            PrestoError::Parse("x".into()),
            PrestoError::Analysis("x".into()),
            PrestoError::Execution("x".into()),
            PrestoError::InsufficientResources("x".into()),
            PrestoError::ExceededMemoryLimit("x".into()),
            PrestoError::Internal("x".into()),
        ] {
            assert!(!e.is_retryable(), "{e} must not be retryable");
        }
    }

    #[test]
    fn worker_failed_carries_the_worker_id() {
        let e = PrestoError::WorkerFailed { worker_id: 7, message: "injected crash".into() };
        assert_eq!(e.code(), "WORKER_FAILED");
        assert_eq!(e.message(), "injected crash");
        assert_eq!(e.to_string(), "WORKER_FAILED: injected crash");
    }
}
