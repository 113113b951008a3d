//! Execution context: catalogs, functions, memory pool, exchange bindings.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use presto_common::metrics::CounterSet;
use presto_common::trace::{SpanId, Trace};
use presto_common::{Page, PrestoError, Result};
use presto_connectors::CatalogRegistry;
use presto_expr::{Evaluator, FunctionRegistry};
use presto_resource::{MemoryPool, QueryPool, ReservationKind, SpillManager};

/// Everything an executing plan needs.
pub struct ExecutionContext {
    /// Registered connectors.
    pub catalogs: CatalogRegistry,
    /// Expression evaluator (shares the session's function registry).
    pub evaluator: Evaluator,
    /// Pages bound for `RemoteSource` leaves, keyed by fragment id —
    /// populated by the cluster runtime when executing upper fragments, and
    /// moved out (`None` after) by the one leaf that reads them.
    remote_sources: Mutex<HashMap<u32, Option<Vec<Page>>>>,
    /// Execution counters (`exec.rows_scanned`, `exec.splits`, ...).
    pub metrics: CounterSet,
    /// This query's slice of the (cluster) memory pool. Blocking operators
    /// hold RAII reservations against it.
    pub pool: Arc<QueryPool>,
    /// Spill manager for blocking operators; `None` disables spilling (the
    /// operator fails with `"Insufficient Resource"` instead).
    pub spill: Option<Arc<SpillManager>>,
    /// Trace collecting operator spans for this execution. Standalone
    /// contexts get a private trace on a private clock; the engine and
    /// cluster install the query's shared trace instead.
    pub trace: Trace,
    /// Parent span for operator spans opened by the executor — the task or
    /// query span this fragment runs under.
    pub root_span: Option<SpanId>,
}

impl ExecutionContext {
    /// Context over catalogs with a default function registry and no memory
    /// limit.
    pub fn new(catalogs: CatalogRegistry) -> ExecutionContext {
        ExecutionContext::with_registry(catalogs, FunctionRegistry::new())
    }

    /// Context with an explicit function registry (plugins registered).
    pub fn with_registry(
        catalogs: CatalogRegistry,
        registry: FunctionRegistry,
    ) -> ExecutionContext {
        ExecutionContext {
            catalogs,
            evaluator: Evaluator::new(registry),
            remote_sources: Mutex::default(),
            metrics: CounterSet::new(),
            pool: MemoryPool::unbounded().register_query(None),
            spill: None,
            trace: Trace::default(),
            root_span: None,
        }
    }

    /// Install the query's shared trace; executor spans nest under `parent`.
    pub fn with_trace(mut self, trace: Trace, parent: Option<SpanId>) -> ExecutionContext {
        self.trace = trace;
        self.root_span = parent;
        self
    }

    /// Set the memory budget — the bytes of materialized state (join builds,
    /// aggregation tables, sort buffers) allowed before `"Insufficient
    /// Resource"` (standalone contexts: re-registers this query on a private
    /// unbounded cluster pool with the given per-query limit).
    pub fn with_memory_budget(mut self, bytes: usize) -> ExecutionContext {
        self.pool = MemoryPool::unbounded().register_query(Some(bytes));
        self
    }

    /// Attach this query to an externally managed pool slice (the engine
    /// registers the query on the shared cluster pool) and optionally a
    /// spill manager.
    pub fn with_resources(
        mut self,
        pool: Arc<QueryPool>,
        spill: Option<Arc<SpillManager>>,
    ) -> ExecutionContext {
        self.pool = pool;
        self.spill = spill;
        self
    }

    /// Bind pages for a `RemoteSource` fragment.
    pub fn bind_remote_source(&mut self, fragment: u32, pages: Vec<Page>) {
        self.remote_sources.get_mut().insert(fragment, Some(pages));
    }

    /// Move a `RemoteSource` fragment's bound pages out. A fragment never
    /// bound is an execution error; one already taken is an engine bug.
    pub(crate) fn take_remote_source(&self, fragment: u32) -> Result<Vec<Page>> {
        match self.remote_sources.lock().get_mut(&fragment) {
            Some(slot) => slot.take().ok_or_else(|| {
                PrestoError::Internal(format!("remote source fragment {fragment} read twice"))
            }),
            None => {
                Err(PrestoError::Execution(format!("remote source fragment {fragment} not bound")))
            }
        }
    }

    /// Bytes currently reserved.
    pub fn reserved_memory(&self) -> usize {
        self.pool.reserved()
    }

    /// The reservation kind blocking operators should use: revocable when a
    /// spill manager is attached (the arbiter can then ask for the memory
    /// back), plain user memory otherwise.
    pub fn operator_reservation_kind(&self) -> ReservationKind {
        if self.spill.is_some() {
            ReservationKind::Revocable
        } else {
            ReservationKind::User
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_budget_enforced() {
        let ctx = ExecutionContext::new(CatalogRegistry::new()).with_memory_budget(1000);
        let held = ctx.pool.reserve(600, ReservationKind::User).unwrap();
        let err = ctx.pool.reserve(600, ReservationKind::User).unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
        assert!(err.message().contains("Insufficient Resource"));
        // the failed reservation was rolled back
        assert_eq!(ctx.reserved_memory(), 600);
        drop(held);
        assert_eq!(ctx.reserved_memory(), 0);
        ctx.pool.reserve(900, ReservationKind::User).unwrap();
    }

    #[test]
    fn unlimited_without_budget() {
        let ctx = ExecutionContext::new(CatalogRegistry::new());
        ctx.pool.reserve(usize::MAX / 2, ReservationKind::User).unwrap();
    }

    #[test]
    fn externally_managed_pool_is_adopted() {
        let cluster = MemoryPool::new(Some(1 << 20));
        let query = cluster.register_query(Some(4096));
        let ctx = ExecutionContext::new(CatalogRegistry::new()).with_resources(query, None);
        assert_eq!(ctx.pool.limit(), Some(4096));
        let held = ctx.pool.reserve(4096, ReservationKind::User).unwrap();
        assert_eq!(cluster.used(), 4096);
        assert!(ctx.pool.reserve(1, ReservationKind::User).is_err());
        drop(held);
        assert_eq!(cluster.used(), 0);
    }
}
