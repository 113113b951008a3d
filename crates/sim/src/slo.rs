//! Declared latency SLOs per workload class, in virtual time.

use presto_common::cost::TASK_US;

use crate::workload::TenantClass;

/// Per-class p99 latency targets, in virtual µs. The defaults mirror the
/// paper's tiers: interactive analysts expect answers in a few virtual
/// milliseconds, dashboards refresh on a deadline an order looser, and
/// batch pipelines only care about eventual completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Interactive p99 target (virtual µs).
    pub interactive_p99_us: u64,
    /// Dashboard p99 target (virtual µs).
    pub dashboard_p99_us: u64,
    /// Batch p99 target (virtual µs).
    pub batch_p99_us: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            interactive_p99_us: 50 * TASK_US,
            dashboard_p99_us: 250 * TASK_US,
            batch_p99_us: 1_000 * TASK_US,
        }
    }
}

impl SloPolicy {
    /// The p99 target a class declared.
    pub fn p99_target(&self, class: TenantClass) -> u64 {
        match class {
            TenantClass::Interactive => self.interactive_p99_us,
            TenantClass::Dashboard => self.dashboard_p99_us,
            TenantClass::Batch => self.batch_p99_us,
        }
    }
}
