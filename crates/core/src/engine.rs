//! `PrestoEngine`: the coordinator-in-a-box.
//!
//! Fig 1's lifecycle, end to end: SQL → tokens → AST → analyzer → logical
//! plan → optimizer rounds → (optionally) fragmenter → execution. The local
//! engine executes unfragmented plans directly; the cluster runtime
//! ([`presto-cluster`](https://crates.io)) comes through the same front door
//! ([`PrestoEngine::run_query`]) and runs the plan it is handed as
//! [`presto_plan::fragment_plan`] fragments on simulated workers.

use std::sync::Arc;
use std::time::Duration;

use presto_common::clock::{SimClock, SimStopwatch};
use presto_common::metrics::{names, CounterSet};
use presto_common::telemetry::TelemetryRegistry;
use presto_common::trace::{OperatorStats, SpanId, SpanKind, Trace};
use presto_common::{Page, PrestoError, Result, Schema, Value};
use presto_connectors::{CatalogRegistry, Connector};
use presto_exec::{execute, ExecutionContext};
use presto_expr::{Evaluator, FunctionRegistry};
use presto_plan::{explain, explain_analyze, optimize, LogicalPlan, PlanFragment};
use presto_resource::{ResourceManager, SpillManager};
use presto_sql::{analyze, parse_sql, AnalyzerContext, Statement};

use crate::plugin::register_geospatial_plugin;
use crate::session::Session;

/// Observability record of one executed query: its trace, end-to-end
/// virtual latency, and peak memory — the repro of Presto's `QueryInfo`.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// The query's span tree (query → operator; the cluster runtime adds
    /// stage and task levels).
    pub trace: Trace,
    /// End-to-end virtual latency.
    pub latency: Duration,
    /// Peak bytes reserved against the query's memory pool.
    pub peak_memory: usize,
}

impl QueryInfo {
    /// An empty record (plans that never executed, e.g. plain `EXPLAIN`).
    pub fn empty() -> QueryInfo {
        QueryInfo { trace: Trace::default(), latency: Duration::ZERO, peak_memory: 0 }
    }

    /// Per-operator runtime stats in plan pre-order.
    pub fn operator_stats(&self) -> Vec<OperatorStats> {
        self.trace.operator_stats()
    }
}

/// A planned query, as [`PrestoEngine::run_query`] hands it to whoever
/// runs it: the optimized plan, and the per-query counters, trace and root
/// span to run it under.
pub struct PlannedQuery<'a> {
    /// The optimized plan.
    pub plan: &'a LogicalPlan,
    /// The query's counter set (ends up on [`QueryResult::metrics`]).
    pub metrics: &'a CounterSet,
    /// The query's trace, on the query's clock.
    pub trace: &'a Trace,
    /// The open `"query"` span every stage and operator hangs under.
    pub root: SpanId,
}

/// A completed query's output.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names and types.
    pub schema: Schema,
    /// Output pages.
    pub pages: Vec<Page>,
    /// Per-query counters: `memory.reserved_peak`, `spill.bytes_written`,
    /// `spill.files`, plus the executor's `exec.*` counters.
    pub metrics: CounterSet,
    /// Trace, latency, and memory observability for this query.
    pub info: QueryInfo,
}

impl QueryResult {
    /// Total output rows.
    pub fn row_count(&self) -> usize {
        self.pages.iter().map(Page::positions).sum()
    }

    /// Materialize all rows (for display and tests).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.pages.iter().flat_map(|p| p.rows()).collect()
    }

    /// Render as a simple text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self.schema.fields().iter().map(|f| f.name.as_str()).collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in self.rows() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// One-column varchar result carrying rendered plan text (EXPLAIN variants).
fn plan_text_result(text: String, metrics: CounterSet, info: QueryInfo) -> Result<QueryResult> {
    let schema =
        Schema::new(vec![presto_common::Field::new("plan", presto_common::DataType::Varchar)])?;
    let block = presto_common::Block::varchar(&[text.as_str()]);
    Ok(QueryResult { schema, pages: vec![Page::new(vec![block])?], metrics, info })
}

/// The engine: catalogs + functions + optimizer + executor.
///
/// Cloning shares catalogs and functions (an engine is one "cluster brain";
/// the cluster crate instantiates several for federation).
///
/// ```
/// use std::sync::Arc;
/// use presto_core::PrestoEngine;
/// use presto_connectors::memory::MemoryConnector;
/// use presto_common::{Block, DataType, Field, Page, Schema, Value};
///
/// let engine = PrestoEngine::new();
/// let memory = MemoryConnector::new();
/// memory.create_table(
///     "default", "trips",
///     Schema::new(vec![
///         Field::new("city", DataType::Varchar),
///         Field::new("fare", DataType::Double),
///     ])?,
///     vec![Page::new(vec![
///         Block::varchar(&["sf", "nyc", "sf"]),
///         Block::double(vec![10.0, 20.0, 30.0]),
///     ])?],
/// )?;
/// engine.register_catalog("memory", Arc::new(memory));
///
/// let result = engine.execute(
///     "SELECT city, sum(fare) AS revenue FROM trips GROUP BY city ORDER BY 2 DESC",
/// )?;
/// assert_eq!(result.rows()[0], vec![Value::from("sf"), Value::Double(40.0)]);
/// # Ok::<(), presto_common::PrestoError>(())
/// ```
#[derive(Clone)]
pub struct PrestoEngine {
    catalogs: CatalogRegistry,
    registry: FunctionRegistry,
    resources: ResourceManager,
    telemetry: Arc<TelemetryRegistry>,
}

impl Default for PrestoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PrestoEngine {
    /// Engine with built-in functions and the geospatial plugin registered.
    /// Resource management defaults to unbounded (no cluster memory cap).
    pub fn new() -> PrestoEngine {
        let registry = FunctionRegistry::new();
        register_geospatial_plugin(&registry);
        PrestoEngine {
            catalogs: CatalogRegistry::new(),
            registry,
            resources: ResourceManager::unbounded(),
            telemetry: Arc::new(TelemetryRegistry::new()),
        }
    }

    /// Swap in a configured resource manager (cluster memory pool, spill
    /// filesystem). Clones of the engine share it.
    pub fn with_resources(mut self, resources: ResourceManager) -> PrestoEngine {
        self.resources = resources;
        self
    }

    /// Swap in a shared telemetry registry (the cluster runtime injects the
    /// one its snapshots land in, so `EXPLAIN ANALYZE` footers and the
    /// `system` catalog read live fleet state). Clones share it.
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryRegistry>) -> PrestoEngine {
        self.telemetry = telemetry;
        self
    }

    /// The engine's telemetry registry.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// The engine's resource manager.
    pub fn resources(&self) -> &ResourceManager {
        &self.resources
    }

    /// Register a connector under a catalog name.
    pub fn register_catalog(&self, name: impl Into<String>, connector: Arc<dyn Connector>) {
        self.catalogs.register(name, connector);
    }

    /// The catalog registry.
    pub fn catalogs(&self) -> &CatalogRegistry {
        &self.catalogs
    }

    /// The function registry (for further plugin registration).
    pub fn functions(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Parse + analyze + optimize into a logical plan.
    pub fn plan(&self, sql: &str, session: &Session) -> Result<LogicalPlan> {
        self.plan_statement(&parse_sql(sql)?, session)
    }

    /// Analyze + optimize a parsed statement (the query inside an `EXPLAIN`).
    fn plan_statement(&self, statement: &Statement, session: &Session) -> Result<LogicalPlan> {
        let query = match statement {
            Statement::Query(q) | Statement::Explain(q) | Statement::ExplainAnalyze(q) => q,
        };
        let analyzer_ctx = AnalyzerContext {
            catalogs: self.catalogs.clone(),
            registry: self.registry.clone(),
            default_catalog: session.catalog.clone(),
            default_schema: session.schema.clone(),
        };
        let plan = analyze(query, &analyzer_ctx)?;
        let evaluator = Evaluator::new(self.registry.clone());
        optimize(plan, &self.catalogs, &evaluator, &session.optimizer)
    }

    /// EXPLAIN: the optimized plan as text.
    pub fn explain(&self, sql: &str, session: &Session) -> Result<String> {
        Ok(explain(&self.plan(sql, session)?))
    }

    /// The front door every statement comes through (§III, §VIII): parse
    /// once, plan, answer a plain `EXPLAIN` with the plan text, then hand
    /// the optimized plan to `run` under a fresh `"query"` span and a
    /// stopwatch on `clock`. `run` is the only thing a caller chooses: the
    /// engine executes the plan in place, the cluster runtime fragments it
    /// and schedules the scans on its workers.
    /// `EXPLAIN ANALYZE` runs the query like any other and answers with the
    /// plan annotated from the trace.
    ///
    /// Returns the outcome alongside the [`QueryInfo`] of the run — populated
    /// even when `run` failed, for postmortems; empty when the statement
    /// never ran (`EXPLAIN`, a parse or plan error).
    pub fn run_query(
        &self,
        sql: &str,
        session: &Session,
        clock: &SimClock,
        run: impl FnOnce(&PlannedQuery<'_>) -> Result<Vec<Page>>,
    ) -> (Result<QueryResult>, QueryInfo) {
        let mut info = QueryInfo::empty();
        let result = (|| {
            let statement = parse_sql(sql)?;
            let plan = self.plan_statement(&statement, session)?;
            if let Statement::Explain(_) = statement {
                return plan_text_result(explain(&plan), CounterSet::new(), QueryInfo::empty());
            }
            let metrics = CounterSet::new();
            // The trace runs on the query's clock, so span timestamps line
            // up with task waits and retry backoffs.
            let trace = Trace::new(clock.clone());
            let root = trace.begin(SpanKind::Query, "query", None);
            let watch = SimStopwatch::start(clock);
            let pages = run(&PlannedQuery { plan: &plan, metrics: &metrics, trace: &trace, root });
            trace.end(root);
            info = QueryInfo {
                trace,
                latency: watch.elapsed(),
                peak_memory: metrics.get(names::MEMORY_RESERVED_PEAK) as usize,
            };
            let pages = pages?;
            if let Statement::ExplainAnalyze(_) = statement {
                // The plan tree annotated with the operator stats the trace
                // collected, plus a telemetry footer: how hot the fleet ran
                // while this query was sampled, and how many snapshots back
                // the claim.
                let mut text = explain_analyze(&plan, &info.operator_stats());
                let snapshots = self.telemetry.snapshots();
                let peak_busy = self.telemetry.series().get(names::TS_FLEET_BUSY_PCT).peak();
                text.push_str(&format!(
                    "Telemetry  {{snapshots: {snapshots}, peak busy: {peak_busy}%}}\n"
                ));
                return plan_text_result(text, metrics, info.clone());
            }
            Ok(QueryResult { schema: plan.output_schema()?, pages, metrics, info: info.clone() })
        })();
        (result, info)
    }

    /// Execute a query under a session.
    ///
    /// The query comes through [`PrestoEngine::run_query`] and runs under a
    /// per-query slice of the engine's cluster memory pool. Peak-memory and
    /// spill counters land on [`QueryResult::metrics`].
    pub fn execute_with_session(&self, sql: &str, session: &Session) -> Result<QueryResult> {
        let run = |query: &PlannedQuery<'_>| {
            self.run_plan(query.plan, vec![], session, query.metrics, query.trace, Some(query.root))
        };
        self.run_query(sql, session, self.resources.clock(), run).0
    }

    /// Execute with the default session.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_session(sql, &Session::default())
    }

    /// Execute one fragment with bound remote sources — the worker-side
    /// entry point used by the cluster runtime.
    pub fn execute_fragment(
        &self,
        fragment: &PlanFragment,
        remote_inputs: Vec<(u32, Vec<Page>)>,
        session: &Session,
    ) -> Result<Vec<Page>> {
        // A private trace: worker-side fragment runs must not advance the
        // shared virtual clock (concurrent advances would make span
        // timestamps — and therefore trace digests — interleaving-dependent).
        let metrics = CounterSet::new();
        self.run_plan(&fragment.plan, remote_inputs, session, &metrics, &Trace::default(), None)
    }

    /// Execute a plan (a whole query's, or one fragment's with its remote
    /// sources bound) under a fresh query slice of the shared cluster memory
    /// pool, plus a spill manager when the session allows spilling. Accounts
    /// into the caller's per-query counter set and records the operator
    /// spans into `trace` under `parent`. Only safe from a single thread per
    /// trace clock — the cluster runtime uses this for the coordinator-side
    /// root fragment.
    pub fn run_plan(
        &self,
        plan: &LogicalPlan,
        remote_inputs: Vec<(u32, Vec<Page>)>,
        session: &Session,
        metrics: &CounterSet,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> Result<Vec<Page>> {
        let pool = self.resources.pool().register_query(session.memory_budget);
        let spill: Option<Arc<SpillManager>> = session
            .spill_enabled
            .then(|| Arc::new(self.resources.spill_manager(pool.query_id(), metrics.clone())));
        let mut ctx = ExecutionContext::with_registry(self.catalogs.clone(), self.registry.clone());
        ctx.metrics = metrics.clone();
        let mut ctx = ctx.with_resources(pool.clone(), spill);
        for (id, pages) in remote_inputs {
            ctx.bind_remote_source(id, pages);
        }
        let ctx = ctx.with_trace(trace.clone(), parent);
        let result = execute(plan, &ctx);
        metrics.add(names::MEMORY_RESERVED_PEAK, pool.peak() as u64);
        debug_assert_eq!(pool.reserved(), 0, "plan left memory reserved after completion");
        result
    }

    /// Execute with automatic fallback to a batch engine on
    /// `"Insufficient Resource"` (§XII.C).
    ///
    /// "We need to resolve the problem either via: adding fault tolerance to
    /// Presto, or automatically translate failed Presto queries to other
    /// systems. Presto on Spark is a good option, which enables users
    /// writing the same Presto SQL, with automatic translation." The
    /// fallback here re-runs the *same plan* without the interactive
    /// session's memory ceiling — the defining property of the batch tier
    /// (disk-backed shuffles trade latency for capacity). Returns the result
    /// plus a flag telling the caller which tier served it.
    pub fn execute_with_batch_fallback(
        &self,
        sql: &str,
        session: &Session,
    ) -> Result<(QueryResult, bool)> {
        match self.execute_with_session(sql, session) {
            Err(PrestoError::InsufficientResources(_)) => {
                let batch_session = Session { memory_budget: None, ..session.clone() };
                let result = self.execute_with_session(sql, &batch_session)?;
                Ok((result, true))
            }
            other => Ok((other?, false)),
        }
    }

    /// Convenience: single-row, single-column query result.
    pub fn execute_scalar(&self, sql: &str) -> Result<Value> {
        let result = self.execute(sql)?;
        let rows = result.rows();
        match rows.len() {
            1 if rows[0].len() == 1 => Ok(rows[0][0].clone()),
            n => Err(PrestoError::Execution(format!("expected a single scalar, got {n} row(s)"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, DataType, Field};
    use presto_connectors::memory::MemoryConnector;

    fn engine_with_data() -> PrestoEngine {
        let engine = PrestoEngine::new();
        let memory = MemoryConnector::new();
        let trips_schema = Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new(
                "base",
                DataType::row(vec![
                    Field::new("driver_uuid", DataType::Varchar),
                    Field::new("city_id", DataType::Bigint),
                ]),
            ),
            Field::new("fare", DataType::Double),
        ])
        .unwrap();
        let base_type = trips_schema.field_at(1).data_type.clone();
        let base = Block::from_values(
            &base_type,
            &(0..20)
                .map(|i| Value::Row(vec![Value::Varchar(format!("drv{i}")), Value::Bigint(i % 5)]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let page = Page::new(vec![
            Block::varchar(
                &(0..20)
                    .map(|i| if i % 2 == 0 { "2017-03-01" } else { "2017-03-02" })
                    .collect::<Vec<_>>(),
            ),
            base,
            Block::double((0..20).map(|i| i as f64).collect()),
        ])
        .unwrap();
        memory.create_table("default", "trips", trips_schema, vec![page]).unwrap();
        engine.register_catalog("memory", Arc::new(memory));
        engine
    }

    #[test]
    fn end_to_end_select() {
        let engine = engine_with_data();
        let result = engine
            .execute(
                "SELECT base.driver_uuid FROM trips \
                 WHERE datestr = '2017-03-02' AND base.city_id IN (1)",
            )
            .unwrap();
        assert_eq!(result.schema.fields()[0].name, "driver_uuid");
        let rows = result.rows();
        assert_eq!(rows.len(), 2); // i in {1, 11}: odd i with i%5==1
        assert_eq!(rows[0][0], Value::Varchar("drv1".into()));
        assert_eq!(rows[1][0], Value::Varchar("drv11".into()));
    }

    #[test]
    fn end_to_end_aggregation_and_order() {
        let engine = engine_with_data();
        let result = engine
            .execute(
                "SELECT datestr, count(*) AS cnt, sum(fare) AS total FROM trips \
                 GROUP BY 1 ORDER BY 1",
            )
            .unwrap();
        let rows = result.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["2017-03-01".into(), Value::Bigint(10), Value::Double(90.0)]);
        assert_eq!(rows[1][1], Value::Bigint(10));
    }

    #[test]
    fn scalar_and_expressions() {
        let engine = engine_with_data();
        assert_eq!(engine.execute_scalar("SELECT 2 + 3 * 4").unwrap(), Value::Bigint(14));
        assert_eq!(
            engine.execute_scalar("SELECT upper('presto')").unwrap(),
            Value::Varchar("PRESTO".into())
        );
        assert_eq!(
            engine
                .execute_scalar(
                    "SELECT st_contains('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))', st_point(1.0, 1.0))"
                )
                .unwrap(),
            Value::Boolean(true)
        );
        assert!(engine.execute_scalar("SELECT * FROM trips").is_err());
    }

    #[test]
    fn explain_shows_pushdowns() {
        let engine = engine_with_data();
        let result = engine
            .execute("EXPLAIN SELECT base.city_id FROM trips WHERE datestr = '2017-03-01'")
            .unwrap();
        let text = result.rows()[0][0].to_string();
        assert!(text.contains("TableScan"), "{text}");
        assert!(text.contains("predicate"), "{text}");
        assert!(text.contains("nested pruning"), "{text}");
    }

    #[test]
    fn explain_analyze_annotates_operators() {
        let engine = engine_with_data();
        let result = engine
            .execute(
                "EXPLAIN ANALYZE SELECT datestr, count(*) FROM trips \
                 GROUP BY 1 ORDER BY 1",
            )
            .unwrap();
        let text = result.rows()[0][0].to_string();
        assert!(text.contains("TableScan"), "{text}");
        assert!(text.contains("rows:"), "{text}");
        assert!(text.contains("busy:"), "{text}");
        assert!(text.contains("peak:"), "{text}");
        assert!(text.contains("spilled:"), "{text}");
        // every line of the tree carries an annotation: the whole plan ran
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            assert!(line.contains('{'), "unannotated operator: {line}");
        }
        assert!(!result.info.trace.is_empty());
    }

    #[test]
    fn query_info_records_trace_and_latency() {
        let engine = engine_with_data();
        let result = engine.execute("SELECT count(*) FROM trips").unwrap();
        let stats = result.info.operator_stats();
        assert!(!stats.is_empty());
        let scan = stats.iter().find(|s| s.name.starts_with("TableScan")).unwrap();
        assert_eq!(scan.rows_in, 20);
        assert!(result.info.latency > Duration::ZERO);
        // same query, same engine state ⇒ same trace shape
        let again = engine.execute("SELECT count(*) FROM trips").unwrap();
        assert_eq!(result.info.trace.len(), again.info.trace.len());
    }

    #[test]
    fn insufficient_resources_surfaces() {
        let engine = engine_with_data();
        let session = Session::default().with_memory_budget(16);
        let err = engine
            .execute_with_session(
                "SELECT a.fare FROM trips a JOIN trips b ON a.datestr = b.datestr",
                &session,
            )
            .unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
    }

    #[test]
    fn case_and_union_all_end_to_end() {
        let engine = engine_with_data();
        let result = engine
            .execute(
                "SELECT CASE WHEN fare >= 10.0 THEN 'high' ELSE 'low' END AS bucket, count(*)                  FROM trips GROUP BY 1 ORDER BY 1",
            )
            .unwrap();
        assert_eq!(
            result.rows(),
            vec![vec!["high".into(), Value::Bigint(10)], vec!["low".into(), Value::Bigint(10)],]
        );
        let union = engine
            .execute(
                "SELECT count(*) FROM trips WHERE datestr = '2017-03-01'                  UNION ALL SELECT count(*) FROM trips WHERE datestr = '2017-03-02'",
            )
            .unwrap();
        assert_eq!(union.rows(), vec![vec![Value::Bigint(10)], vec![Value::Bigint(10)]]);
    }

    #[test]
    fn batch_fallback_rescues_big_joins() {
        let engine = engine_with_data();
        let session = Session::default().with_memory_budget(192);
        let sql = "SELECT count(b.fare) FROM trips a JOIN trips b ON a.datestr = b.datestr";
        // the build side holds the fares alone (a `count(*)` build holds no
        // column, and the aggregate above then needs more than the join),
        // and 192 bytes is below the join's peak: the interactive tier
        // fails...
        assert_eq!(
            engine.execute_with_session(sql, &session).unwrap_err().code(),
            "INSUFFICIENT_RESOURCES"
        );
        // ...the fallback runs the same SQL on the batch tier
        let (result, fell_back) = engine.execute_with_batch_fallback(sql, &session).unwrap();
        assert!(fell_back);
        assert_eq!(result.rows(), vec![vec![Value::Bigint(200)]]); // 10+10 per datestr → 100+100 pairs
                                                                   // small queries stay interactive
        let (_, fell_back) =
            engine.execute_with_batch_fallback("SELECT count(*) FROM trips", &session).unwrap();
        assert!(!fell_back);
        // non-resource errors are not retried
        assert!(engine.execute_with_batch_fallback("SELECT bogus FROM trips", &session).is_err());
    }

    #[test]
    fn spill_rescues_big_joins_without_fallback() {
        let engine = engine_with_data();
        let sql = "SELECT count(b.fare) FROM trips a JOIN trips b ON a.datestr = b.datestr";
        // the build side holds the fares alone: 192 bytes is below the
        // join's peak, above each spilled partition's
        let session = Session::default().with_memory_budget(192);
        // same budget that fails the interactive tier...
        assert_eq!(
            engine.execute_with_session(sql, &session).unwrap_err().code(),
            "INSUFFICIENT_RESOURCES"
        );
        // ...succeeds in place once the session allows spilling
        let session = session.with_spill(true);
        let result = engine.execute_with_session(sql, &session).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(200)]]);
        assert!(result.metrics.get(names::SPILL_FILES) > 0, "join did not spill");
        assert!(result.metrics.get(names::SPILL_BYTES_WRITTEN) > 0);
        assert!(result.metrics.get(names::MEMORY_RESERVED_PEAK) > 0);
    }

    #[test]
    fn fragments_for_distributed_execution() {
        let engine = engine_with_data();
        let session = Session::default();
        let plan = engine.plan("SELECT count(*) FROM trips", &session).unwrap();
        let fragments = presto_plan::fragment_plan(plan).unwrap();
        assert_eq!(fragments.len(), 2);
        // run the scan fragment, feed it to the root fragment
        let scan_out = engine.execute_fragment(&fragments[1], vec![], &session).unwrap();
        let root_out =
            engine.execute_fragment(&fragments[0], vec![(1, scan_out)], &session).unwrap();
        assert_eq!(root_out[0].row(0), vec![Value::Bigint(20)]);
    }
}
