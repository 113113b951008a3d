//! Query sessions.
//!
//! §XII.A: "Presto has session properties to turn on broadcast join for all
//! queries in this session ... we will set Presto session property to turn
//! on broadcast join for these queries" — sessions carry per-query knobs
//! (default namespace, memory budget, optimizer rule toggles).

use presto_plan::OptimizerConfig;
use presto_resource::QueryPriority;

/// Per-query session settings.
#[derive(Debug, Clone)]
pub struct Session {
    /// Catalog for unqualified table names.
    pub catalog: String,
    /// Schema for unqualified table names.
    pub schema: String,
    /// Memory budget in bytes (`None` = unlimited). Exceeding it raises the
    /// §XII.C `"Insufficient Resource"` error.
    pub memory_budget: Option<usize>,
    /// Optimizer rule toggles (session properties).
    pub optimizer: OptimizerConfig,
    /// Scheduling lane: a worker on probation serves only `Low` queries.
    pub priority: QueryPriority,
    /// Allow blocking operators to spill to disk instead of failing with
    /// `"Insufficient Resource"` when the memory budget is hit.
    pub spill_enabled: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            catalog: "memory".into(),
            schema: "default".into(),
            memory_budget: None,
            optimizer: OptimizerConfig::default(),
            priority: QueryPriority::Normal,
            spill_enabled: false,
        }
    }
}

impl Session {
    /// Session defaulting to `catalog.schema`.
    pub fn new(catalog: impl Into<String>, schema: impl Into<String>) -> Session {
        Session { catalog: catalog.into(), schema: schema.into(), ..Session::default() }
    }

    /// Set the memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Session {
        self.memory_budget = Some(bytes);
        self
    }

    /// Override optimizer toggles.
    pub fn with_optimizer(mut self, optimizer: OptimizerConfig) -> Session {
        self.optimizer = optimizer;
        self
    }

    /// Set the scheduling lane.
    pub fn with_priority(mut self, priority: QueryPriority) -> Session {
        self.priority = priority;
        self
    }

    /// Let blocking operators spill to disk under memory pressure.
    pub fn with_spill(mut self, enabled: bool) -> Session {
        self.spill_enabled = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let s = Session::new("hive", "rawdata").with_memory_budget(1 << 20);
        assert_eq!(s.catalog, "hive");
        assert_eq!(s.schema, "rawdata");
        assert_eq!(s.memory_budget, Some(1 << 20));
        assert!(s.optimizer.aggregation_pushdown);
    }
}
