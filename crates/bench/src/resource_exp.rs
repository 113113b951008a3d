//! §XII.C: resource management — the Fig 17 join workload under a capped
//! per-query memory budget, with and without the resource subsystem.
//!
//! Without per-query pools and spill, a query that outgrows its budget dies
//! with `INSUFFICIENT_RESOURCES` ("consider running this query on
//! Spark/Hive" — the paper's batch-fallback advice). With the subsystem
//! enabled the same query under the same cap spills its blocking operators
//! (hash join build, aggregation table, sort buffer) to the spill
//! filesystem, completes, and returns the same rows.
//!
//! The cap is self-calibrating: each query first runs unconstrained and the
//! constrained runs get half its `memory.reserved_peak`.

use std::sync::Arc;

use presto_common::metrics::names;
use presto_common::{Result, SimClock, Value};
use presto_core::Session;
use presto_resource::ResourceManager;
use presto_storage::{FileSystem, LocalFileSystem};

use crate::fig17::{self, QueryKind};
use crate::report::{Gate, Report, Table};

/// One join query's fate under each regime.
#[derive(Debug, Clone)]
pub struct ResourceResult {
    /// Query label (`q10`..`q21`).
    pub name: String,
    /// Unconstrained peak memory reservation in bytes.
    pub peak_bytes: u64,
    /// The cap applied to both constrained runs (half the peak).
    pub budget_bytes: usize,
    /// Error code of the capped run WITHOUT the subsystem (`None` =
    /// completed within budget).
    pub unmanaged_error: Option<String>,
    /// Whether the capped run WITH spill enabled completed.
    pub managed_ok: bool,
    /// Bytes the managed run wrote to the spill filesystem.
    pub spilled_bytes: u64,
    /// Spill files the managed run created.
    pub spill_files: u64,
    /// Whether the managed run returned exactly the unconstrained rows.
    pub rows_match: bool,
}

/// Row equality with a relative tolerance on doubles: spilling reorders
/// floating-point sums, which is correct but not bit-identical.
fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Double(x), Value::Double(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => va == vb,
                })
        })
}

/// Run the 12 Fig 17 joins at `rows_per_partition`, each capped at half its
/// unconstrained peak, spilling onto `spill_fs`.
pub fn run(
    rows_per_partition: usize,
    spill_fs: Arc<dyn FileSystem>,
) -> Result<Vec<ResourceResult>> {
    let workload = fig17::build(rows_per_partition);
    let engine = workload.engine.clone().with_resources(ResourceManager::with_spill_fs(
        None,
        SimClock::new(),
        spill_fs,
    ));
    let session = Session::new("hive", "rawdata");
    workload
        .queries
        .iter()
        .filter(|q| q.kind == QueryKind::Join)
        .map(|q| {
            let unconstrained = engine.execute_with_session(&q.sql, &session)?;
            let expected: Vec<Vec<Value>> = unconstrained.rows();
            // LIMIT without ORDER BY may keep any N rows; spilling reorders
            // the join output, so only the row count is comparable there.
            let deterministic = !q.sql.contains("LIMIT") || q.sql.contains("ORDER BY");
            let peak = unconstrained.metrics.get(names::MEMORY_RESERVED_PEAK);
            let budget = (peak / 2) as usize;

            let capped = session.clone().with_memory_budget(budget);
            let unmanaged_error =
                engine.execute_with_session(&q.sql, &capped).err().map(|e| e.code().to_string());

            let managed = engine.execute_with_session(&q.sql, &capped.with_spill(true)).ok();
            let rows_match = managed.as_ref().is_some_and(|result| {
                let rows = result.rows();
                if deterministic {
                    rows_approx_eq(&rows, &expected)
                } else {
                    rows.len() == expected.len()
                }
            });
            let spill = |key| managed.as_ref().map_or(0, |result| result.metrics.get(key));
            Ok(ResourceResult {
                name: q.name.clone(),
                peak_bytes: peak,
                budget_bytes: budget,
                unmanaged_error,
                managed_ok: managed.is_some(),
                spilled_bytes: spill("spill.bytes_written"),
                spill_files: spill("spill.files"),
                rows_match,
            })
        })
        .collect()
}

fn gates(results: &[ResourceResult]) -> [Gate; 4] {
    let every = |name: &str, ok: &dyn Fn(&ResourceResult) -> bool| {
        let failing: Vec<&str> =
            results.iter().filter(|r| !ok(r)).map(|r| r.name.as_str()).collect();
        Gate::new(name, failing.is_empty(), format!("failing: {failing:?}"))
    };
    let spilled: u64 = results.iter().map(|r| r.spilled_bytes).sum();
    [
        every("every join dies with INSUFFICIENT_RESOURCES unmanaged", &|r| {
            r.unmanaged_error.as_deref() == Some("INSUFFICIENT_RESOURCES")
        }),
        every("every join completes with spill", &|r| r.managed_ok),
        every("spilled rows match the unconstrained rows", &|r| r.rows_match),
        Gate::new("at least one join spills", spilled > 0, format!("{spilled} bytes spilled")),
    ]
}

/// `paper-experiments resource`: the joins at 20,000 rows per partition,
/// spilling to a local temp dir.
pub fn report() -> Result<Report> {
    let mut report =
        Report::new("\n=== §XII.C: memory pools + spill-to-disk on the Fig 17 joins ===");
    report.line("each join capped at half its unconstrained peak; spill on local disk\n");
    let spill_dir = LocalFileSystem::temp("resource-exp")?;
    let spill_root = spill_dir.root().to_path_buf();
    let results = run(20_000, Arc::new(spill_dir));
    let _ = std::fs::remove_dir_all(spill_root);
    let results = results?;
    let mut table = Table::new(
        "12 joins, budget = peak/2",
        &[
            "query",
            "peak",
            "budget",
            "without subsystem",
            "with subsystem",
            "spilled",
            "rows match",
        ],
    );
    for r in &results {
        table.row(vec![
            r.name.clone(),
            format!("{} B", r.peak_bytes),
            format!("{} B", r.budget_bytes),
            r.unmanaged_error.clone().unwrap_or_else(|| "completed".into()),
            if r.managed_ok { "completed".into() } else { "failed".into() },
            format!("{} B / {} files", r.spilled_bytes, r.spill_files),
            r.rows_match.to_string(),
        ]);
    }
    report.line(table.render());
    report.line(format!(
        "without subsystem: {}/12 killed; with subsystem: {}/12 completed, {} bytes spilled\n",
        results.iter().filter(|r| r.unmanaged_error.is_some()).count(),
        results.iter().filter(|r| r.managed_ok).count(),
        results.iter().map(|r| r.spilled_bytes).sum::<u64>(),
    ));
    report.gates = gates(&results).into();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;
    use presto_storage::InMemoryFileSystem;

    #[test]
    fn managed_runs_complete_where_unmanaged_runs_die() {
        let results = run(2_000, Arc::new(InMemoryFileSystem::new())).unwrap();
        assert_eq!(results.len(), 12);
        for r in &results {
            assert!(r.peak_bytes > 0, "{}: joins must reserve memory", r.name);
        }
        assert_gates(&gates(&results));
    }
}
