//! Runs one SQL query the way `PrestoEngine::execute_with_session` and the
//! cluster coordinator do, but one public call at a time, with a span around
//! each: `parse_sql` → `analyze` → `optimize` → `fragment_plan` → per leaf
//! fragment `Connector::splits` / `scan_split` / `exchange::deliver` →
//! `PrestoEngine::execute_fragment` on the root with the scanned pages bound.
//! No engine code is changed or instrumented.

use presto_common::fault::FaultInjector;
use presto_common::{Page, SimClock};
use presto_connectors::ScanHooks;
use presto_core::{PrestoEngine, Session};
use presto_expr::Evaluator;
use presto_plan::{fragment_plan, optimize, LogicalPlan};
use presto_sql::{analyze, parse_sql, AnalyzerContext, Statement};

use crate::span::Tracer;

/// What the stepped run saw besides the answer.
pub struct Stepped {
    pub pages: Vec<Page>,
    pub splits: u64,
    /// `catalog.table` of every leaf scan, for the rows-addressed lookup.
    pub tables: Vec<String>,
    pub rows_emitted: u64,
    /// `(plan fingerprint, split identity)` of each scanned split — the key
    /// the cluster's fragment result cache would use.
    pub cache_keys: Vec<(u64, String)>,
}

pub fn run_stepped(
    engine: &PrestoEngine,
    session: &Session,
    sql: &str,
    op: u32,
    tracer: &mut Tracer,
) -> Result<Stepped, String> {
    let root = tracer.begin(op, "stepped");
    let result = steps(engine, session, sql, op, tracer);
    tracer.end(root);
    result.map_err(|e| e.to_string())
}

fn steps(
    engine: &PrestoEngine,
    session: &Session,
    sql: &str,
    op: u32,
    tracer: &mut Tracer,
) -> presto_common::Result<Stepped> {
    let span = tracer.begin(op, "sql.parse");
    let statement = parse_sql(sql);
    tracer.end(span);
    let Statement::Query(query) = statement? else {
        return Err(presto_common::PrestoError::Analysis("workload SQL must be a query".into()));
    };

    let span = tracer.begin(op, "sql.analyze");
    let context = AnalyzerContext {
        catalogs: engine.catalogs().clone(),
        registry: engine.functions().clone(),
        default_catalog: session.catalog.clone(),
        default_schema: session.schema.clone(),
    };
    let plan = analyze(&query, &context);
    tracer.end(span);

    let span = tracer.begin(op, "plan.optimize");
    let evaluator = Evaluator::new(engine.functions().clone());
    let plan = plan.and_then(|p| optimize(p, engine.catalogs(), &evaluator, &session.optimizer));
    tracer.end(span);

    let span = tracer.begin(op, "plan.fragment");
    let fragments = plan.and_then(fragment_plan);
    tracer.end(span);
    let fragments = fragments?;

    let injector = FaultInjector::disabled();
    let clock = SimClock::new();
    let hooks = ScanHooks::none();
    let mut out = Stepped {
        pages: Vec::new(),
        splits: 0,
        tables: Vec::new(),
        rows_emitted: 0,
        cache_keys: Vec::new(),
    };
    let mut exchanges = Vec::with_capacity(fragments.len() - 1);
    for fragment in &fragments[1..] {
        let LogicalPlan::TableScan { catalog, schema, table, request, .. } = &fragment.plan else {
            return Err(presto_common::PrestoError::Internal("leaf fragment is not a scan".into()));
        };
        let connector = engine.catalogs().get(catalog)?;
        let span = tracer.begin(op, "connectors.splits");
        let splits = connector.splits(schema, table, request);
        tracer.end(span);
        let splits = splits?;

        let fingerprint = presto_cache::fragment::fingerprint(&format!("{:?}", fragment.plan));
        out.tables.push(format!("{catalog}.{table}"));
        out.splits += splits.len() as u64;
        let mut pages = Vec::new();
        for split in &splits {
            let span = tracer.begin(op, "connectors.scan_split");
            let scanned = connector.scan_split(split, request, &hooks);
            tracer.end(span);
            pages.extend(scanned?);
            out.cache_keys.push((fingerprint, format!("{:?}", split.payload)));
        }
        out.rows_emitted += pages.iter().map(|p| p.positions() as u64).sum::<u64>();

        let span = tracer.begin(op, "exec.exchange_deliver");
        let delivered = presto_exec::exchange::deliver(&injector, &clock, fragment.id, &pages, 1);
        tracer.end(span);
        delivered?;
        exchanges.push((fragment.id, pages));
    }

    let span = tracer.begin(op, "exec.root");
    let pages = engine.execute_fragment(&fragments[0], exchanges, session);
    tracer.end(span);
    out.pages = pages?;
    Ok(out)
}
