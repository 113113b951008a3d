//! The engine's cost model: how much virtual time a unit of query work
//! takes.
//!
//! Nothing here measures CPU. Three readers charge from [`COST`]: the
//! executor each operator invocation ([`CostModel::operator`]), the
//! cluster's scan scheduler each scan task ([`CostModel::scan_task`]), and
//! the tenant simulation its estimate of a query's scan waves (the same
//! scan-task charge). Two cost models stay separate and do not scale with
//! it: the realtime stores' `RealtimeCostModel` (per segment, per matched
//! and per streamed row) and the storage simulators' latencies (HDFS
//! NameNode and read costs, S3 request and transfer costs).
//!
//! Every clock of the sim, elastic, telemetry, autoscaler and retry
//! experiments — arrival gaps, patience, ticks, grace periods, SLOs,
//! recovery bounds, backoffs — is a multiple of [`TASK_US`], one scan
//! task's fixed cost. Offered load is arrival rate × service time, so stated
//! this way it survives a change of the model's numbers: editing [`COST`]
//! rescales those experiments with it. `tests/toolchain_config.rs` refuses
//! a bare numeric clock in their sources.

use std::time::Duration;

/// Virtual nanoseconds charged per unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Charged once per operator invocation.
    pub operator_base_nanos: u64,
    /// Charged per row an operator outputs.
    pub operator_row_nanos: u64,
    /// Charged once per scan task (queueing, setup, page handoff).
    pub scan_task_base_nanos: u64,
    /// Charged per row a scan task returns.
    pub scan_task_row_nanos: u64,
}

/// The cost of work, everywhere: 1 µs per operator + 100 ns per output
/// row, and 100 µs per scan task + 100 ns per row scanned.
pub const COST: CostModel = CostModel {
    operator_base_nanos: 1_000,
    operator_row_nanos: 100,
    scan_task_base_nanos: 100_000,
    scan_task_row_nanos: 100,
};

/// One task: the scan-task base of [`COST`] in whole virtual µs. The unit
/// every experiment states its clocks in.
pub const TASK_US: u64 = COST.scan_task_base_nanos / 1_000;

impl CostModel {
    /// Virtual time of one operator invocation that output `rows_out` rows.
    pub const fn operator(&self, rows_out: u64) -> Duration {
        Duration::from_nanos(charge(self.operator_base_nanos, self.operator_row_nanos, rows_out))
    }

    /// Virtual time of one scan task that returned `rows` rows.
    pub const fn scan_task(&self, rows: u64) -> Duration {
        Duration::from_nanos(charge(self.scan_task_base_nanos, self.scan_task_row_nanos, rows))
    }
}

const fn charge(base: u64, per_row: u64, rows: u64) -> u64 {
    base.saturating_add(per_row.saturating_mul(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_charge_is_its_base_plus_its_rows() {
        let model = CostModel {
            operator_base_nanos: 1_000,
            operator_row_nanos: 100,
            scan_task_base_nanos: 100_000,
            scan_task_row_nanos: 10,
        };
        assert_eq!(model.operator(0), Duration::from_micros(1));
        assert_eq!(model.operator(10), Duration::from_micros(2));
        assert_eq!(model.scan_task(64), Duration::from_nanos(100_640));
        assert_eq!(model.scan_task(u64::MAX), Duration::from_nanos(u64::MAX));
        assert_eq!(TASK_US, COST.scan_task(0).as_micros() as u64);
    }
}
