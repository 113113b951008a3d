//! The recursive plan executor.
//!
//! The breakers work on typed columns (§III). Hash aggregation and the hash
//! join turn key columns into dense ids ([`presto_common::keys`]): aggregation
//! updates slot-indexed typed state a column at a time
//! ([`GroupedAccumulator`]) and emits typed blocks sorted by key; the join
//! chains build rows per key id (or, when no key repeats, maps each to its
//! one row) and probes a page at a time, emitting only the channels the
//! plan names. Sort, top-N (a bounded heap) and the aggregate emit order
//! rows with one typed comparator ([`RowOrder`], the order of
//! [`Value::total_cmp`]) across their input pages, and gather the ordered
//! rows straight from those pages: the input is never concatenated.
//!
//! Each breaker evaluates its key columns once — the aggregate's input keys,
//! the join's build keys — and its key table picks its layout from them.
//! When every key is an integer, boolean, date or timestamp, and the
//! product of the keys' value spans is at most the slot count a hash table
//! for those rows would take, the table is dense: a key's id sits at its
//! offset in one id array, found with no hash and no compare. It holds that
//! array and nothing else, so it is never larger than the hash table it
//! replaces: the join's reservation needs no new term, and a dense GROUP BY
//! table reserves its array up front. Ids are dealt in first-seen order
//! under every layout, so no output order depends on the choice.
//!
//! Blocking operators (hash aggregation, hash-join build, sort) account
//! their materialized state against the query's memory pool through RAII
//! [`presto_resource::Reservation`] guards — reservations release on every
//! exit path, including early `?` unwinds. When the context carries a spill
//! manager, those operators reserve *revocable* memory and fall back to
//! Grace-style partitioned spilling when a reservation fails instead of
//! surfacing `"Insufficient Resource"`.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use presto_common::cost::COST;
use presto_common::keys::{Grouping, KeyTable, NO_KEY};
use presto_common::metrics::names;
use presto_common::trace::{SpanId, SpanKind};
use presto_common::{
    selected_rows, Block, DataType, Page, PrestoError, Result, RowOrder, Schema, Value,
};
use presto_expr::{GroupedAccumulator, RowExpression};
use presto_geo::index::GeofenceIndex;
use presto_plan::logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};
use presto_resource::{Reservation, ReservationKind, SpillFile};

use crate::context::ExecutionContext;

/// Fan-out of Grace partitioning when an operator spills.
const SPILL_PARTITIONS: usize = 8;

fn is_insufficient(e: &PrestoError) -> bool {
    matches!(e, PrestoError::InsufficientResources(_))
}

/// The context's spill manager. Spill fallbacks only run after the caller
/// observed `ctx.spill.is_some()`, so a miss here is an engine bug — but it
/// must surface as an error with query context, not a panic that takes the
/// whole engine loop down.
fn spill_manager(ctx: &ExecutionContext) -> Result<Arc<presto_resource::SpillManager>> {
    ctx.spill.as_ref().cloned().ok_or_else(|| {
        PrestoError::Internal(format!(
            "query {}: spill fallback entered without a spill manager",
            ctx.pool.query_id()
        ))
    })
}

/// `expr` over `page`, borrowing the column when it is a plain reference.
fn evaluate<'a>(
    expr: &RowExpression,
    page: &'a Page,
    ctx: &ExecutionContext,
) -> Result<Cow<'a, Block>> {
    match expr {
        RowExpression::VariableReference { index, .. } if *index < page.column_count() => {
            Ok(Cow::Borrowed(page.block(*index)))
        }
        _ => ctx.evaluator.evaluate(expr, page).map(Cow::Owned),
    }
}

/// The rows a boolean column selects: TRUE, not FALSE or NULL. A mask
/// without NULLs is its own selection; a dictionary's entries are selected
/// once and read through its ids.
fn selection(mask: Block) -> Vec<bool> {
    match mask {
        Block::Boolean { values, nulls: None } => values,
        Block::Boolean { mut values, nulls: Some(nulls) } => {
            values.iter_mut().zip(nulls).for_each(|(v, null)| *v &= !null);
            values
        }
        Block::Dictionary { dictionary, ids } => {
            let entries = selection(*dictionary);
            ids.iter().map(|&id| entries[id as usize]).collect()
        }
        other => vec![false; other.len()],
    }
}

/// A page of `rows` rows over `blocks`, owned or shared.
fn page_of(blocks: Vec<impl Into<Arc<Block>>>, rows: usize) -> Result<Page> {
    if blocks.is_empty() {
        Ok(Page::zero_column(rows))
    } else {
        Page::from_columns(blocks.into_iter().map(Into::into).collect())
    }
}

/// Execute a plan to completion, returning its output pages.
///
/// Every plan node gets an operator span in `ctx.trace`, nested under
/// `ctx.root_span`, annotated with rows/bytes/pages out, peak memory growth,
/// and spill bytes — the raw material of `EXPLAIN ANALYZE`.
pub fn execute(plan: &LogicalPlan, ctx: &ExecutionContext) -> Result<Vec<Page>> {
    execute_traced(plan, ctx, ctx.root_span)
}

fn execute_traced(
    plan: &LogicalPlan,
    ctx: &ExecutionContext,
    parent: Option<SpanId>,
) -> Result<Vec<Page>> {
    // An OOM-arbiter victim unwinds at the next operator boundary, freeing
    // its reservations for the queries that were starved.
    ctx.pool.check_killed()?;
    let span = ctx.trace.begin(SpanKind::Operator, plan.label(), parent);
    let spill_before = ctx.metrics.get(names::SPILL_BYTES_WRITTEN);
    let peak_before = ctx.pool.peak();
    match execute_node(plan, ctx, span) {
        Ok(pages) => {
            let rows_out: u64 = pages.iter().map(|p| p.positions() as u64).sum();
            let bytes_out: u64 = pages.iter().map(|p| p.memory_size() as u64).sum();
            ctx.trace.set_attr(span, "rows_out", rows_out);
            ctx.trace.set_attr(span, "bytes_out", bytes_out);
            ctx.trace.set_attr(span, "pages_out", pages.len() as u64);
            if ctx.trace.attr(span, "rows_in").is_none() {
                let from_children = ctx.trace.child_attr_sum(span, "rows_out");
                ctx.trace.set_attr(span, "rows_in", from_children);
            }
            let spilled = ctx.metrics.get(names::SPILL_BYTES_WRITTEN) - spill_before;
            ctx.trace.set_attr(span, "spill_bytes", spilled);
            let peak_growth = ctx.pool.peak().saturating_sub(peak_before);
            ctx.trace.set_attr(span, "peak_memory", peak_growth as u64);
            ctx.trace.clock().advance(COST.operator(rows_out));
            ctx.trace.end(span);
            Ok(pages)
        }
        Err(e) => {
            ctx.trace.set_attr(span, "error", 1);
            ctx.trace.end(span);
            Err(e)
        }
    }
}

fn execute_node(plan: &LogicalPlan, ctx: &ExecutionContext, span: SpanId) -> Result<Vec<Page>> {
    match plan {
        LogicalPlan::TableScan { catalog, schema, table, request, .. } => {
            let connector = ctx.catalogs.get(catalog)?;
            let splits = connector.splits(schema, table, request)?;
            ctx.metrics.add(names::EXEC_SPLITS, splits.len() as u64);
            ctx.trace.set_attr(span, "splits", splits.len() as u64);
            let mut pages = Vec::new();
            let mut scanned = 0u64;
            let hooks = presto_connectors::ScanHooks::none();
            for split in &splits {
                for page in connector.scan_split(split, request, &hooks)? {
                    scanned += page.positions() as u64;
                    if !page.is_empty() {
                        pages.push(page);
                    }
                }
            }
            ctx.metrics.add(names::EXEC_ROWS_SCANNED, scanned);
            ctx.trace.set_attr(span, "rows_in", scanned);
            Ok(pages)
        }
        LogicalPlan::Values { schema, rows } => {
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            let mut blocks = Vec::with_capacity(schema.len());
            for (c, field) in schema.fields().iter().enumerate() {
                let column: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                blocks.push(Block::from_values(&field.data_type, &column)?);
            }
            Ok(vec![page_of(blocks, rows.len())?])
        }
        LogicalPlan::Filter { input, predicate } => {
            let pages = execute_traced(input, ctx, Some(span))?;
            let mut out = Vec::with_capacity(pages.len());
            for page in pages {
                let filtered = page.filter(&selection(ctx.evaluator.evaluate(predicate, &page)?));
                if !filtered.is_empty() {
                    out.push(filtered);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, expressions } => {
            let pages = execute_traced(input, ctx, Some(span))?;
            let mut out = Vec::with_capacity(pages.len());
            for page in pages {
                // a bare reference shares its column, however often named
                let column = |e: &RowExpression| match e {
                    RowExpression::VariableReference { index, .. } => {
                        page.blocks().get(*index).cloned().ok_or_else(|| {
                            PrestoError::Internal(format!(
                                "projection of channel {index} of a {}-column page",
                                page.column_count()
                            ))
                        })
                    }
                    computed => ctx.evaluator.evaluate(computed, &page).map(Arc::new),
                };
                let blocks: Vec<Arc<Block>> =
                    expressions.iter().map(|(_, e)| column(e)).collect::<Result<_>>()?;
                out.push(page_of(blocks, page.positions())?);
            }
            Ok(out)
        }
        LogicalPlan::Aggregate { input, group_by, aggregates, step } => {
            execute_aggregate(input, group_by, aggregates, *step, plan, ctx, span)
        }
        LogicalPlan::Join { left, right, kind, on, residual, output } => {
            execute_join(left, right, *kind, on, residual.as_ref(), output, ctx, span)
        }
        LogicalPlan::GeoJoin { probe, fences, probe_lng, probe_lat, fence_shape } => {
            execute_geo_join(probe, fences, probe_lng, probe_lat, fence_shape, ctx, span)
        }
        LogicalPlan::Sort { input, keys } => execute_sort(input, keys, None, ctx, span),
        LogicalPlan::TopN { input, keys, count } => {
            execute_sort(input, keys, Some(*count), ctx, span)
        }
        LogicalPlan::Limit { input, count } => {
            let pages = execute_traced(input, ctx, Some(span))?;
            let mut out = Vec::new();
            let mut kept = 0;
            for page in pages {
                if kept >= *count {
                    break;
                }
                let take = (*count - kept).min(page.positions());
                kept += take;
                out.push(if take == page.positions() { page } else { page.slice(0, take) });
            }
            Ok(out)
        }
        LogicalPlan::Output { input, .. } => execute_traced(input, ctx, Some(span)),
        LogicalPlan::Union { inputs } => {
            let mut out = Vec::new();
            for input in inputs {
                out.extend(execute_traced(input, ctx, Some(span))?);
            }
            Ok(out)
        }
        LogicalPlan::RemoteSource { fragment, .. } => ctx.take_remote_source(*fragment),
    }
}

// ------------------------------------------------------------- aggregation

#[allow(clippy::too_many_arguments)]
fn execute_aggregate(
    input: &LogicalPlan,
    group_by: &[RowExpression],
    aggregates: &[AggregateExpr],
    step: AggregateStep,
    plan: &LogicalPlan,
    ctx: &ExecutionContext,
    span: SpanId,
) -> Result<Vec<Page>> {
    let pages = execute_traced(input, ctx, Some(span))?;
    let schema = plan.output_schema()?;
    let groups = match aggregate_pages(&pages, group_by, aggregates, step, &schema, ctx) {
        Ok(page) => vec![page],
        // Grace fallback needs equi keys to partition on and columns to
        // spill; a global aggregate's state is one row and never spills.
        Err(e) if is_insufficient(&e) && ctx.spill.is_some() && !group_by.is_empty() => {
            match spillable_schema(input) {
                Some(input_schema) => spill_aggregate(
                    &pages,
                    &input_schema,
                    group_by,
                    aggregates,
                    step,
                    &schema,
                    ctx,
                )?,
                None => return Err(e),
            }
        }
        Err(e) => return Err(e),
    };
    emit_aggregate(groups, &schema)
}

/// In-memory hash aggregation over `pages`: one row per group in first-seen
/// order, key columns then aggregates. The key columns are evaluated once,
/// the table laid out from them ([`KeyTable::group_by`]); each page's become
/// group ids and every aggregate adds the page a column at a time. The
/// table is accounted through an RAII reservation: a dense table's slots
/// up front, then a share per group as groups appear; it releases when the
/// page is handed back.
fn aggregate_pages(
    pages: &[Page],
    group_by: &[RowExpression],
    aggregates: &[AggregateExpr],
    step: AggregateStep,
    schema: &Schema,
    ctx: &ExecutionContext,
) -> Result<Page> {
    let mut table_memory = ctx.pool.reserve(0, ctx.operator_reservation_kind())?;
    let merge_partials = step == AggregateStep::FinalOverPartial;
    let key_types: Vec<DataType> = group_by.iter().map(RowExpression::data_type).collect();
    let page_keys = pages
        .iter()
        .map(|page| group_by.iter().map(|e| evaluate(e, page, ctx)).collect())
        .collect::<Result<Vec<Vec<_>>>>()?;
    let mut grouping = Grouping::new(&key_types, &page_keys);
    if grouping.dense_bytes() > 0 {
        table_memory.grow(grouping.dense_bytes())?;
    }
    let mut states: Vec<GroupedAccumulator> = aggregates
        .iter()
        .zip(&schema.fields()[group_by.len()..])
        .map(|(a, field)| {
            let argument = a.argument.as_ref().map(RowExpression::data_type);
            GroupedAccumulator::new(a.function, argument.as_ref(), &field.data_type, merge_partials)
        })
        .collect();

    for (p, (page, key_blocks)) in pages.iter().zip(&page_keys).enumerate() {
        // vectorized: evaluate arguments once per page
        let arg_blocks = aggregates
            .iter()
            .map(|a| a.argument.as_ref().map(|e| evaluate(e, page, ctx)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let rows = page.positions();
        if rows == 0 {
            continue;
        }
        // Fig 2: the final step merges connector-produced partials — counts
        // sum, sums sum, min/max re-compare.
        if merge_partials && arg_blocks.iter().any(Option::is_none) {
            return Err(PrestoError::Internal("final aggregation needs partial columns".into()));
        }
        let known = grouping.groups();
        let groups = grouping.resolve(p, key_blocks, None)?;
        for (state, argument) in states.iter_mut().zip(&arg_blocks) {
            state.resize(groups);
            state.update(grouping.ids(), argument.as_deref(), None, rows)?;
        }
        // coarse memory accounting on the hash table
        if groups > known {
            table_memory.grow((groups - known) * (64 + aggregates.len() * 48))?;
        }
    }

    // Global aggregation over zero rows still yields one output row.
    let groups = if group_by.is_empty() { 1 } else { grouping.groups() };
    let mut blocks = grouping.keys(&page_keys)?;
    for mut state in states {
        state.resize(groups);
        blocks.push(state.finish()?);
    }
    if let Some((block, field)) =
        blocks.iter().zip(schema.fields()).find(|(b, f)| b.data_type() != f.data_type)
    {
        return Err(PrestoError::Internal(format!(
            "aggregate column '{}' is {}, planned as {}",
            field.name,
            block.data_type(),
            field.data_type
        )));
    }
    page_of(blocks, groups)
}

/// Grace aggregation: hash-partition the input on the group keys, spill each
/// partition, then aggregate the partitions one at a time — peak memory is
/// one partition's hash table instead of the whole table.
fn spill_aggregate(
    pages: &[Page],
    input_schema: &Schema,
    group_by: &[RowExpression],
    aggregates: &[AggregateExpr],
    step: AggregateStep,
    schema: &Schema,
    ctx: &ExecutionContext,
) -> Result<Vec<Page>> {
    let spill = spill_manager(ctx)?;
    let key_exprs: Vec<&RowExpression> = group_by.iter().collect();
    let parts = partition_pages(pages, &key_exprs, None, ctx)?;
    let mut files = Vec::with_capacity(SPILL_PARTITIONS);
    for part in &parts {
        files.push(if part.is_empty() {
            None
        } else {
            Some(spill.spill_pages(input_schema, part)?)
        });
    }
    drop(parts);
    let mut groups = Vec::new();
    for file in files.into_iter().flatten() {
        let part_pages = spill.read(&file)?;
        groups.push(aggregate_pages(&part_pages, group_by, aggregates, step, schema, ctx)?);
        spill.remove(file)?;
    }
    Ok(groups)
}

/// Lay the groups out as one page sorted by key: ids follow the input's row
/// order and, on the spill path, the partitioning, and every consumer must
/// see the same sequence whichever path produced it. Keys that tie in the
/// sort order though they differ (NaNs of different payloads) are told
/// apart by their aggregates, so the order is over whole rows; what still
/// ties, by the bits of its DOUBLE columns.
fn emit_aggregate(groups: Vec<Page>, schema: &Schema) -> Result<Vec<Page>> {
    let groups = if groups.is_empty() { vec![empty_page(schema)?] } else { groups };
    let columns = (0..schema.len())
        .map(|c| (groups.iter().map(|page| Cow::Borrowed(page.block(c))).collect(), false));
    let order = RowOrder::new(groups.iter().map(Page::positions).collect(), columns.collect());
    Ok(vec![order.ties_by_bits().sorted().gather(&groups)?])
}

// -------------------------------------------------------------------- join

#[allow(clippy::too_many_arguments)]
fn execute_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: &[(RowExpression, RowExpression)],
    residual: Option<&RowExpression>,
    output: &[usize],
    ctx: &ExecutionContext,
    span: SpanId,
) -> Result<Vec<Page>> {
    let left_pages = execute_traced(left, ctx, Some(span))?;
    let right_pages = execute_traced(right, ctx, Some(span))?;
    let build_schema = right.output_schema()?;
    let layout = JoinLayout::new(left.output_schema()?.len(), &build_schema, output, residual)?;
    // Build side: the right input, materialized (distributed hash join is
    // the production default, §XII.A). Without equi keys — the cross join
    // the geospatial rewrite replaces (§VI.C's "brute force" plan) — there
    // is nothing to Grace-partition on, so that build never spills.
    match JoinBuild::new(&right_pages, &build_schema, &layout, on, ctx) {
        Ok(build) => build.probe(left_pages, &layout, kind, on, ctx),
        Err(e) if is_insufficient(&e) && ctx.spill.is_some() && !on.is_empty() => {
            match spillable_schema(left) {
                Some(probe_schema) if !build_schema.is_empty() => grace_hash_join(
                    &left_pages,
                    &right_pages,
                    kind,
                    on,
                    &layout,
                    &probe_schema,
                    &build_schema,
                    ctx,
                ),
                _ => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// Where a join's columns come from. The join emits `output` channels of
/// the joined row `probe ++ build`; its residual reads the joined row too.
/// The build page holds only the build columns either of them needs
/// (`held`), and the residual's candidate pairs carry only the columns it
/// reads.
struct JoinLayout {
    /// The build channels the build page holds, ascending.
    held: Vec<usize>,
    /// Each output channel: a probe channel or a held column.
    output: Vec<Side>,
    /// The probe channels and the held columns `output` names, ascending.
    probe_used: Vec<usize>,
    build_used: Vec<usize>,
    residual: Option<Residual>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Probe(usize),
    /// A column of the build page (an index into [`JoinLayout::held`]).
    Build(usize),
}

/// A join's residual over its candidate pairs: the probe columns `probe`
/// then the held build columns `build`, the ones it reads.
struct Residual {
    expr: RowExpression,
    probe: Vec<usize>,
    build: Vec<usize>,
}

impl JoinLayout {
    fn new(
        probe_width: usize,
        build_schema: &Schema,
        output: &[usize],
        residual: Option<&RowExpression>,
    ) -> Result<JoinLayout> {
        let width = probe_width + build_schema.len();
        let reads = residual.map(RowExpression::referenced_columns).unwrap_or_default();
        if let Some(c) = output.iter().chain(&reads).find(|&&c| c >= width) {
            return Err(PrestoError::Internal(format!("join channel {c} of a {width}-wide row")));
        }
        let mut held: Vec<usize> =
            output.iter().chain(&reads).filter_map(|&c| c.checked_sub(probe_width)).collect();
        held.sort_unstable();
        held.dedup();
        let side = |c: usize| match c.checked_sub(probe_width) {
            None => Side::Probe(c),
            Some(b) => Side::Build(held.partition_point(|&h| h < b)),
        };
        let residual = residual.map(|expr| {
            let (mut probe, mut build) = (Vec::new(), Vec::new());
            for &c in &reads {
                match side(c) {
                    Side::Probe(p) => probe.push(p),
                    Side::Build(b) => build.push(b),
                }
            }
            let expr = expr.remap_columns(&|c| match side(c) {
                Side::Probe(p) => probe.partition_point(|&q| q < p),
                Side::Build(b) => probe.len() + build.partition_point(|&q| q < b),
            });
            Residual { expr, probe, build }
        });
        let output: Vec<Side> = output.iter().map(|&c| side(c)).collect();
        let (mut probe_used, mut build_used) = (Vec::new(), Vec::new());
        for side in &output {
            match *side {
                Side::Probe(c) => probe_used.push(c),
                Side::Build(c) => build_used.push(c),
            }
        }
        for used in [&mut probe_used, &mut build_used] {
            used.sort_unstable();
            used.dedup();
        }
        Ok(JoinLayout { held, output, probe_used, build_used, residual })
    }
}

/// The type each equi-key pair is compared in; `None` when some pair is
/// incomparable, so the join matches nothing.
fn join_key_types(on: &[(RowExpression, RowExpression)]) -> Option<Vec<DataType>> {
    on.iter().map(|(l, r)| l.data_type().comparison_type(&r.data_type())).collect()
}

/// One side's key columns over `page`, each widened to its pair's type.
fn join_keys<'a>(
    exprs: impl Iterator<Item = &'a RowExpression>,
    types: &[DataType],
    page: &'a Page,
    ctx: &ExecutionContext,
) -> Result<Vec<Cow<'a, Block>>> {
    let widened = |(e, to)| {
        let block = evaluate(e, page, ctx)?;
        Ok(block.widen(to).map_or(block, Cow::Owned))
    };
    exprs.zip(types).map(widened).collect()
}

/// How a probe row finds its build rows.
enum Matches {
    /// No equi keys: every build row is a candidate.
    Every,
    /// Some key pair is incomparable: nothing matches.
    Nothing,
    /// The key table gives a probe row's key id (into `ids`, a page at a
    /// time); `heads[id]` is the key's first build row and `next[row]` the
    /// one after — or, when every key has one build row (`next: None`), its
    /// only one.
    Keys {
        table: KeyTable,
        types: Vec<DataType>,
        heads: Vec<u32>,
        next: Option<Vec<u32>>,
        ids: Vec<u32>,
    },
}

/// A probe page's candidate pairs, `(probe rows, build rows)`; the probe
/// rows are `None` when they are every row in order, each with one build
/// row.
type Pairs = (Option<Vec<usize>>, Vec<usize>);

impl Matches {
    /// The candidate pairs of `probe` against `build_rows` build rows, by
    /// probe row, then by build row.
    fn pairs(
        &mut self,
        probe: &Page,
        build_rows: usize,
        on: &[(RowExpression, RowExpression)],
        ctx: &ExecutionContext,
    ) -> Result<Pairs> {
        let rows = probe.positions();
        Ok(match self {
            Matches::Every => {
                let probe_idx = (0..rows).flat_map(|i| std::iter::repeat_n(i, build_rows));
                (Some(probe_idx.collect()), (0..rows).flat_map(|_| 0..build_rows).collect())
            }
            Matches::Nothing => (Some(Vec::new()), Vec::new()),
            Matches::Keys { table, types, heads, next, ids } => {
                let probe_keys = join_keys(on.iter().map(|(l, _)| l), types, probe, ctx)?;
                table.resolve(&probe_keys, None, false, ids)?;
                if next.is_none() && !ids.contains(&NO_KEY) {
                    return Ok((None, ids.iter().map(|&id| heads[id as usize] as usize).collect()));
                }
                let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
                for (i, &id) in ids.iter().enumerate().filter(|(_, &id)| id != NO_KEY) {
                    let mut j = heads[id as usize];
                    while j != NO_KEY {
                        probe_idx.push(i);
                        build_idx.push(j as usize);
                        j = next.as_ref().map_or(NO_KEY, |next| next[j as usize]);
                    }
                }
                (Some(probe_idx), build_idx)
            }
        })
    }
}

/// A join's build side: its held columns over every build row, how probe
/// rows find theirs, and the reservation that holds both in memory.
struct JoinBuild {
    page: Page,
    matches: Matches,
    _memory: Reservation,
}

impl JoinBuild {
    /// The build side over `build_pages`, held under an RAII reservation
    /// for the duration of the probe.
    ///
    /// The build keys are evaluated once: the key table is laid out from
    /// them ([`KeyTable::join`]; a hashed one sized for the build rows),
    /// then they are resolved a page at a time, as the probe's are. Build
    /// rows with equal keys are chained in ascending order of their
    /// position; when no key repeats, there is no chain.
    fn new(
        build_pages: &[Page],
        build_schema: &Schema,
        layout: &JoinLayout,
        on: &[(RowExpression, RowExpression)],
        ctx: &ExecutionContext,
    ) -> Result<JoinBuild> {
        let rows = build_pages.iter().map(Page::positions).sum();
        // one page's columns are shared; the page is reserved in full
        let column = |&c: &usize| match build_pages {
            [] => Ok(Arc::new(Block::nulls(&build_schema.field_at(c).data_type, 0))),
            [page] => Ok(page.column(c).clone()),
            pages => {
                Block::concat(&pages.iter().map(|p| p.block(c)).collect::<Vec<_>>()).map(Arc::new)
            }
        };
        let page = page_of(layout.held.iter().map(column).collect::<Result<Vec<_>>>()?, rows)?;
        let kind = match on.is_empty() {
            true => ReservationKind::User,
            false => ctx.operator_reservation_kind(),
        };
        let mut memory = ctx.pool.reserve(page.memory_size(), kind)?;
        let matches = match join_key_types(on) {
            _ if on.is_empty() => Matches::Every,
            None => Matches::Nothing,
            Some(types) => {
                let build_keys = build_pages
                    .iter()
                    .map(|page| join_keys(on.iter().map(|(_, r)| r), &types, page, ctx))
                    .collect::<Result<Vec<_>>>()?;
                let mut table = KeyTable::join(&types, &build_keys);
                let (mut ids, mut build_ids) = (Vec::new(), Vec::with_capacity(rows));
                for page_keys in &build_keys {
                    table.resolve(page_keys, None, true, &mut ids)?;
                    build_ids.extend_from_slice(&ids);
                }
                drop(build_keys);
                let keyed = build_ids.iter().enumerate().filter(|(_, &id)| id != NO_KEY);
                let mut heads = vec![NO_KEY; table.distinct()];
                let next = if keyed.clone().count() == table.distinct() {
                    keyed.for_each(|(row, &id)| heads[id as usize] = row as u32);
                    None
                } else {
                    let mut next = vec![NO_KEY; rows];
                    for (row, &id) in keyed.rev() {
                        next[row] = std::mem::replace(&mut heads[id as usize], row as u32);
                    }
                    Some(next)
                };
                memory.grow(table.distinct() * 48)?;
                Matches::Keys { table, types, heads, next, ids }
            }
        };
        Ok(JoinBuild { page, matches, _memory: memory })
    }

    /// Join each probe page against the build side. A page yields its
    /// matches by (probe row, build row), then — LEFT — its unmatched rows,
    /// null-extended. A NULL or NaN key matches nothing. The residual
    /// filters the candidate pairs first: a pair that fails it is no match.
    ///
    /// When no key repeats, a probe row finds its one build row with no
    /// chain walk, and a page whose every row matched (and passed) emits
    /// its probe columns as they are, moved rather than gathered. The build
    /// columns of a dense page leave as dictionaries ([`gather_build`]).
    fn probe(
        self,
        probe_pages: Vec<Page>,
        layout: &JoinLayout,
        kind: JoinKind,
        on: &[(RowExpression, RowExpression)],
        ctx: &ExecutionContext,
    ) -> Result<Vec<Page>> {
        let JoinBuild { page: build, mut matches, _memory } = self;
        let null_entry = kind == JoinKind::Left;
        let mut entries: Vec<Option<BuildEntries<'_>>> = layout.held.iter().map(|_| None).collect();
        let mut out = Vec::new();
        for probe in probe_pages {
            let rows = probe.positions();
            let (mut probe_idx, mut build_idx) =
                matches.pairs(&probe, build.positions(), on, ctx)?;
            // ON-clause residual filters *candidate pairs*, before outer-join
            // null extension — a pair failing the residual is not a match, so
            // its LEFT row must still appear null-extended.
            if let Some(residual) = &layout.residual {
                let mut columns: Vec<Arc<Block>> = match &probe_idx {
                    None => residual.probe.iter().map(|&c| probe.column(c).clone()).collect(),
                    Some(idx) => {
                        residual.probe.iter().map(|&c| Arc::new(probe.block(c).take(idx))).collect()
                    }
                };
                let build_columns =
                    gather_build(&build, &residual.build, &build_idx, 0, null_entry, &mut entries)?;
                columns.extend(build_columns.into_iter().map(Arc::new));
                let pairs = page_of(columns, build_idx.len())?;
                let keep = selection(ctx.evaluator.evaluate(&residual.expr, &pairs)?);
                if keep.contains(&false) {
                    let kept = selected_rows(&keep);
                    build_idx = kept.iter().map(|&k| build_idx[k]).collect();
                    probe_idx = Some(match probe_idx {
                        None => kept,
                        Some(idx) => kept.iter().map(|&k| idx[k]).collect(),
                    });
                }
            }
            let misses = match (kind, &probe_idx) {
                (JoinKind::Left, Some(probe_idx)) => {
                    let mut missed = vec![true; rows];
                    probe_idx.iter().for_each(|&i| missed[i] = false);
                    selected_rows(&missed)
                }
                _ => Vec::new(),
            };
            let emitted = build_idx.len() + misses.len();
            if emitted == 0 {
                continue;
            }
            let mut build_columns = vec![None; layout.held.len()];
            let gathered = gather_build(
                &build,
                &layout.build_used,
                &build_idx,
                misses.len(),
                null_entry,
                &mut entries,
            )?;
            for (&c, block) in layout.build_used.iter().zip(gathered) {
                build_columns[c] = Some(Arc::new(block));
            }
            let probe_columns = match probe_idx {
                // every row matched once, in order: the page's own columns
                None => probe.blocks().iter().cloned().map(Some).collect(),
                Some(mut idx) => {
                    idx.extend(misses);
                    let mut columns = vec![None; probe.column_count()];
                    for &c in &layout.probe_used {
                        columns[c] = Some(Arc::new(probe.block(c).take(&idx)));
                    }
                    columns
                }
            };
            // a channel emitted twice shares one column
            let column = |side: &Side| {
                let column = match *side {
                    Side::Probe(c) => probe_columns.get(c),
                    Side::Build(c) => build_columns.get(c),
                };
                column.cloned().flatten().ok_or_else(|| {
                    PrestoError::Internal(format!("join output {side:?} was not gathered"))
                })
            };
            let blocks: Vec<Arc<Block>> =
                layout.output.iter().map(column).collect::<Result<_>>()?;
            out.push(page_of(blocks, emitted)?);
        }
        Ok(out)
    }
}

/// The held build columns `columns` of the build rows `build_idx`, then
/// `misses` NULL rows for a LEFT join's unmatched probe rows.
///
/// A dense page — at least as many pairs as build rows — hands each column
/// out as a [`Block::Dictionary`] over the whole column, so the dimension
/// values of a fact-to-dimension join leave as ids. Each build row is then
/// referenced about once, and cloning the entries costs no more than the
/// gather it replaces. A column's entries are built on the first dense page
/// that needs them, once per join; with `null_entry` (a LEFT join) they end
/// in the one NULL the misses point at. A sparse page gathers.
fn gather_build<'b>(
    build: &'b Page,
    columns: &[usize],
    build_idx: &[usize],
    misses: usize,
    null_entry: bool,
    entries: &mut [Option<BuildEntries<'b>>],
) -> Result<Vec<Block>> {
    if build_idx.is_empty() || build_idx.len() < build.positions() {
        if misses == 0 {
            return Ok(columns.iter().map(|&c| build.block(c).take(build_idx)).collect());
        }
        let rows = build_idx.iter().map(|&j| Some((0, j..j + 1)));
        let rows = rows.chain(std::iter::repeat_n(None, misses));
        return columns.iter().map(|&c| Block::gather(&[build.block(c)], rows.clone())).collect();
    }
    let mut blocks = Vec::with_capacity(columns.len());
    for &c in columns {
        let column = match &mut entries[c] {
            Some(column) => column,
            empty => empty.insert(BuildEntries::new(build.block(c), null_entry)?),
        };
        blocks.push(column.gather(build_idx, misses));
    }
    Ok(blocks)
}

/// One build column as the entries of the dictionaries dense probe pages
/// point into: the column itself or, when it is a dictionary already, its
/// innermost entries with `rows` mapping each build row to one — one
/// dictionary never nests in another. `null` is the entry of a LEFT join's
/// misses.
struct BuildEntries<'b> {
    entries: Cow<'b, Block>,
    rows: Option<Vec<u32>>,
    null: u32,
}

impl<'b> BuildEntries<'b> {
    fn new(column: &'b Block, null_entry: bool) -> Result<BuildEntries<'b>> {
        let (entries, rows) = innermost_entries(column);
        let null = entries.len() as u32;
        let entries = match null_entry {
            true => Cow::Owned(Block::gather(&[entries], [Some((0, 0..entries.len())), None])?),
            false => Cow::Borrowed(entries),
        };
        Ok(BuildEntries { entries, rows, null })
    }

    /// The build rows `build_idx`, then `misses` NULLs, as ids into the
    /// entries.
    fn gather(&self, build_idx: &[usize], misses: usize) -> Block {
        let mut ids = Vec::with_capacity(build_idx.len() + misses);
        match &self.rows {
            Some(rows) => ids.extend(build_idx.iter().map(|&j| rows[j])),
            None => ids.extend(build_idx.iter().map(|&j| j as u32)),
        }
        ids.resize(build_idx.len() + misses, self.null);
        Block::Dictionary { dictionary: Box::new(self.entries.as_ref().clone()), ids }
    }
}

/// A column's innermost non-dictionary block and, when the column is a
/// dictionary, the entry of each of its rows in that block (the ids of
/// nested dictionaries composed).
fn innermost_entries(column: &Block) -> (&Block, Option<Vec<u32>>) {
    match column {
        Block::Dictionary { dictionary, ids } => match innermost_entries(dictionary) {
            (entries, None) => (entries, Some(ids.clone())),
            (entries, Some(inner)) => {
                (entries, Some(ids.iter().map(|&id| inner[id as usize]).collect()))
            }
        },
        plain => (plain, None),
    }
}

/// Grace hash join: both sides are hash-partitioned on the join keys and
/// spilled, then each partition pair is joined independently — peak memory
/// is one partition's build side instead of the whole build side.
///
/// Probe rows with NULL keys go to partition 0 (see [`partition_of`]) so
/// LEFT joins still null-extend them; matching rows always share a
/// partition because both sides hash the same (widened) key values.
#[allow(clippy::too_many_arguments)]
fn grace_hash_join(
    probe_pages: &[Page],
    build_pages: &[Page],
    kind: JoinKind,
    on: &[(RowExpression, RowExpression)],
    layout: &JoinLayout,
    probe_schema: &Schema,
    build_schema: &Schema,
    ctx: &ExecutionContext,
) -> Result<Vec<Page>> {
    let spill = spill_manager(ctx)?;
    let key_types = join_key_types(on);
    let probe_exprs: Vec<&RowExpression> = on.iter().map(|(l, _)| l).collect();
    let build_exprs: Vec<&RowExpression> = on.iter().map(|(_, r)| r).collect();
    let probe_parts = partition_pages(probe_pages, &probe_exprs, key_types.as_deref(), ctx)?;
    let build_parts = partition_pages(build_pages, &build_exprs, key_types.as_deref(), ctx)?;

    let mut files: Vec<(Option<SpillFile>, Option<SpillFile>)> =
        Vec::with_capacity(SPILL_PARTITIONS);
    for p in 0..SPILL_PARTITIONS {
        let probe_file = if probe_parts[p].is_empty() {
            None
        } else {
            Some(spill.spill_pages(probe_schema, &probe_parts[p])?)
        };
        let build_file = if build_parts[p].is_empty() {
            None
        } else {
            Some(spill.spill_pages(build_schema, &build_parts[p])?)
        };
        files.push((probe_file, build_file));
    }
    drop(probe_parts);
    drop(build_parts);

    let mut out = Vec::new();
    for (probe_file, build_file) in files {
        let probe = match &probe_file {
            Some(f) => spill.read(f)?,
            None => Vec::new(),
        };
        if !probe.is_empty() {
            let build_part = match &build_file {
                Some(f) => spill.read(f)?,
                None => Vec::new(),
            };
            let build = JoinBuild::new(&build_part, build_schema, layout, on, ctx)?;
            out.extend(build.probe(probe, layout, kind, on, ctx)?);
        }
        if let Some(f) = probe_file {
            spill.remove(f)?;
        }
        if let Some(f) = build_file {
            spill.remove(f)?;
        }
    }
    Ok(out)
}

// ---------------------------------------------------- spill partitioning

/// Hash-partition pages into [`SPILL_PARTITIONS`] buckets by key columns
/// (a join's widened to `widen_to`, so both sides hash the same values).
fn partition_pages(
    pages: &[Page],
    key_exprs: &[&RowExpression],
    widen_to: Option<&[DataType]>,
    ctx: &ExecutionContext,
) -> Result<Vec<Vec<Page>>> {
    let mut parts: Vec<Vec<Page>> = vec![Vec::new(); SPILL_PARTITIONS];
    for page in pages {
        let mut key_blocks =
            key_exprs.iter().map(|e| evaluate(e, page, ctx)).collect::<Result<Vec<_>>>()?;
        for (block, to) in key_blocks.iter_mut().zip(widen_to.into_iter().flatten()) {
            if let Some(widened) = block.widen(to) {
                *block = Cow::Owned(widened);
            }
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); SPILL_PARTITIONS];
        for i in 0..page.positions() {
            let key: Vec<Value> = key_blocks.iter().map(|b| b.value(i)).collect();
            buckets[partition_of(&key)].push(i);
        }
        for (part, indices) in parts.iter_mut().zip(&buckets) {
            if !indices.is_empty() {
                part.push(page.take(indices));
            }
        }
    }
    Ok(parts)
}

/// Deterministic partition for a key. NULL-containing keys never hash-match
/// anything, so they are parked together in partition 0.
fn partition_of(key: &[Value]) -> usize {
    if key.iter().any(Value::is_null) {
        return 0;
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % SPILL_PARTITIONS
}

/// The input's schema if its pages can be spilled (parquet needs at least
/// one column); `None` keeps the original reservation error.
fn spillable_schema(plan: &LogicalPlan) -> Option<Schema> {
    match plan.output_schema() {
        Ok(schema) if !schema.is_empty() => Some(schema),
        _ => None,
    }
}

/// Combine probe rows and the build rows gathered for them side by side.
fn stitch(probe: &Page, probe_idx: &[usize], build_side: Page) -> Result<Page> {
    let mut blocks = probe.take(probe_idx).into_blocks();
    blocks.extend(build_side.into_blocks());
    page_of(blocks, probe_idx.len())
}

// ---------------------------------------------------------------- geo join

#[allow(clippy::too_many_arguments)]
fn execute_geo_join(
    probe: &LogicalPlan,
    fences: &LogicalPlan,
    probe_lng: &RowExpression,
    probe_lat: &RowExpression,
    fence_shape: &RowExpression,
    ctx: &ExecutionContext,
    span: SpanId,
) -> Result<Vec<Page>> {
    // build_geo_index (§VI.E): consume the fence side, parse WKT shapes,
    // build the QuadTree on the fly.
    let fence_pages = execute_traced(fences, ctx, Some(span))?;
    let fence_page = match fence_pages.len() {
        0 => empty_page(&fences.output_schema()?)?,
        _ => Page::concat(&fence_pages)?,
    };
    // RAII: the fence-side reservation releases even when an early `?`
    // (bad WKT, evaluation error) unwinds out of this function.
    let _fence_memory = ctx.pool.reserve(fence_page.memory_size(), ReservationKind::User)?;
    let shapes = ctx.evaluator.evaluate(fence_shape, &fence_page)?;
    let mut rows_with_shapes = Vec::with_capacity(fence_page.positions());
    for j in 0..fence_page.positions() {
        if let Some(wkt) = shapes.str_at(j) {
            rows_with_shapes.push((j as i64, wkt.to_string()));
        }
    }
    let index = GeofenceIndex::build_from_wkt(rows_with_shapes)?;
    ctx.metrics.add(names::EXEC_GEO_INDEX_FENCES, index.len() as u64);

    let probe_pages = execute_traced(probe, ctx, Some(span))?;
    let mut out = Vec::new();
    for page in &probe_pages {
        let lng = ctx.evaluator.evaluate(probe_lng, page)?;
        let lat = ctx.evaluator.evaluate(probe_lat, page)?;
        let mut probe_idx = Vec::new();
        let mut fence_idx = Vec::new();
        for i in 0..page.positions() {
            let (Some(x), Some(y)) = (lng.value(i).as_f64(), lat.value(i).as_f64()) else {
                continue;
            };
            for fence_row in index.find_containing(&presto_geo::Point::new(x, y)) {
                probe_idx.push(i);
                fence_idx.push(fence_row as usize);
            }
        }
        ctx.metrics.add(names::EXEC_GEO_CONTAINS_CALLS, index.contains_calls());
        let stitched = stitch(page, &probe_idx, fence_page.take(&fence_idx))?;
        if !stitched.is_empty() {
            out.push(stitched);
        }
    }
    Ok(out)
}

// -------------------------------------------------------------------- sort

/// The order of the rows of `pages` under `keys`.
fn row_order<'a>(
    keys: &[SortKey],
    pages: &'a [Page],
    ctx: &ExecutionContext,
) -> Result<RowOrder<'a>> {
    let columns = keys.iter().map(|k| {
        let blocks = pages.iter().map(|page| evaluate(&k.expr, page, ctx));
        Ok((blocks.collect::<Result<_>>()?, k.descending))
    });
    Ok(RowOrder::new(pages.iter().map(Page::positions).collect(), columns.collect::<Result<_>>()?))
}

/// Sort (`limit: None`) or top-N: one page of the input's rows in key
/// order, the first `limit` of them, gathered from the input pages.
fn execute_sort(
    input: &LogicalPlan,
    keys: &[SortKey],
    limit: Option<usize>,
    ctx: &ExecutionContext,
    span: SpanId,
) -> Result<Vec<Page>> {
    let pages = execute_traced(input, ctx, Some(span))?;
    if pages.is_empty() {
        return Ok(Vec::new());
    }
    let total: usize = pages.iter().map(|p| p.memory_size()).sum();
    let _sort_memory = match ctx.pool.reserve(total, ctx.operator_reservation_kind()) {
        Ok(reservation) => reservation,
        Err(e) if is_insufficient(&e) && ctx.spill.is_some() => {
            return match spillable_schema(input) {
                Some(schema) => {
                    let sorted = external_sort(&pages, keys, &schema, ctx)?;
                    let rows = sorted.positions();
                    Ok(vec![sorted.slice(0, limit.map_or(rows, |count| count.min(rows)))])
                }
                None => Err(e),
            };
        }
        Err(e) => return Err(e),
    };
    let order = row_order(keys, &pages, ctx)?;
    let rows = match limit {
        None => order.sorted(),
        Some(count) => order.top(count),
    };
    Ok(vec![rows.gather(&pages)?])
}

/// External merge sort: each input page becomes a spilled sorted run (only
/// one page is reserved at a time), then the runs are read back in order
/// and merged by one stable sort. Ties break by (run order, row order),
/// reproducing exactly what a stable sort over the concatenated input
/// would produce.
fn external_sort(
    pages: &[Page],
    keys: &[SortKey],
    schema: &Schema,
    ctx: &ExecutionContext,
) -> Result<Page> {
    let spill = spill_manager(ctx)?;

    // Phase 1: sorted runs. A page that alone exceeds the budget is halved
    // (recursively, in order — run order must stay the row order) until its
    // pieces fit, so even a single oversized input page can sort.
    let mut worklist: Vec<Page> = pages.iter().rev().filter(|p| !p.is_empty()).cloned().collect();
    let mut run_files = Vec::new();
    while let Some(page) = worklist.pop() {
        let _run_memory =
            match ctx.pool.reserve(page.memory_size(), ctx.operator_reservation_kind()) {
                Ok(reservation) => reservation,
                Err(e) if is_insufficient(&e) && page.positions() > 1 => {
                    let mid = page.positions() / 2;
                    worklist.push(page.slice(mid, page.positions() - mid));
                    worklist.push(page.slice(0, mid));
                    continue;
                }
                Err(e) => return Err(e),
            };
        let page = std::slice::from_ref(&page);
        let run = row_order(keys, page, ctx)?.sorted().gather(page)?;
        run_files.push(spill.spill_pages(schema, &[run])?);
    }

    // Phase 2: the runs back to back, in order, under one stable sort.
    let mut runs = Vec::with_capacity(run_files.len());
    for file in &run_files {
        runs.extend(spill.read(file)?);
    }
    for file in run_files {
        spill.remove(file)?;
    }
    if runs.is_empty() {
        return empty_page(schema);
    }
    row_order(keys, &runs, ctx)?.sorted().gather(&runs)
}

fn empty_page(schema: &Schema) -> Result<Page> {
    page_of(schema.fields().iter().map(|f| Block::nulls(&f.data_type, 0)).collect(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{DataType, Field, Schema};
    use presto_connectors::memory::MemoryConnector;
    use presto_connectors::{CatalogRegistry, ColumnPath, ScanRequest};
    use presto_expr::{AggregateFunction, FunctionHandle};
    use std::sync::Arc;

    /// Gather all output rows of a plan.
    fn execute_to_rows(plan: &LogicalPlan, ctx: &ExecutionContext) -> Result<Vec<Vec<Value>>> {
        Ok(execute(plan, ctx)?.iter().flat_map(|p| p.rows()).collect())
    }

    fn ctx_with_table() -> ExecutionContext {
        let registry = CatalogRegistry::new();
        let memory = MemoryConnector::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("city", DataType::Varchar),
            Field::new("fare", DataType::Double),
        ])
        .unwrap();
        let page = Page::new(vec![
            Block::bigint(vec![1, 2, 3, 4, 5, 6]),
            Block::varchar(&["sf", "nyc", "sf", "la", "nyc", "sf"]),
            Block::double(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        ])
        .unwrap();
        memory.create_table("default", "trips", schema, vec![page]).unwrap();
        registry.register("memory", Arc::new(memory));
        ExecutionContext::new(registry)
    }

    fn trips_scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            catalog: "memory".into(),
            schema: "default".into(),
            table: "trips".into(),
            table_schema: Schema::new(vec![
                Field::new("id", DataType::Bigint),
                Field::new("city", DataType::Varchar),
                Field::new("fare", DataType::Double),
            ])
            .unwrap(),
            request: ScanRequest::project(vec![
                ColumnPath::whole("id"),
                ColumnPath::whole("city"),
                ColumnPath::whole("fare"),
            ]),
        }
    }

    fn eq(l: RowExpression, r: RowExpression) -> RowExpression {
        RowExpression::Call {
            handle: FunctionHandle::new(
                "eq",
                vec![l.data_type(), r.data_type()],
                DataType::Boolean,
            ),
            args: vec![l, r],
        }
    }

    #[test]
    fn scan_filter_project() {
        let ctx = ctx_with_table();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(trips_scan()),
                predicate: eq(
                    RowExpression::column("city", 1, DataType::Varchar),
                    RowExpression::varchar("sf"),
                ),
            }),
            expressions: vec![("id".into(), RowExpression::column("id", 0, DataType::Bigint))],
        };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Bigint(1)], vec![Value::Bigint(3)], vec![Value::Bigint(6)]]
        );
    }

    #[test]
    fn group_by_aggregation() {
        let ctx = ctx_with_table();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(trips_scan()),
            group_by: vec![RowExpression::column("city", 1, DataType::Varchar)],
            aggregates: vec![
                AggregateExpr {
                    function: AggregateFunction::CountStar,
                    argument: None,
                    name: "cnt".into(),
                },
                AggregateExpr {
                    function: AggregateFunction::Sum,
                    argument: Some(RowExpression::column("fare", 2, DataType::Double)),
                    name: "total".into(),
                },
            ],
            step: AggregateStep::Single,
        };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(
            rows,
            vec![
                vec!["la".into(), Value::Bigint(1), Value::Double(40.0)],
                vec!["nyc".into(), Value::Bigint(2), Value::Double(70.0)],
                vec!["sf".into(), Value::Bigint(3), Value::Double(100.0)],
            ]
        );
    }

    #[test]
    fn global_aggregation_on_empty_input_yields_one_row() {
        let ctx = ctx_with_table();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(trips_scan()),
                predicate: eq(
                    RowExpression::column("city", 1, DataType::Varchar),
                    RowExpression::varchar("nowhere"),
                ),
            }),
            group_by: vec![],
            aggregates: vec![AggregateExpr {
                function: AggregateFunction::CountStar,
                argument: None,
                name: "cnt".into(),
            }],
            step: AggregateStep::Single,
        };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(rows, vec![vec![Value::Bigint(0)]]);
    }

    #[test]
    fn final_over_partial_merges_counts() {
        let ctx = ctx_with_table();
        // partials: (city, partial_count) from two "splits"
        let partials = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("city", DataType::Varchar),
                Field::new("cnt", DataType::Bigint),
            ])
            .unwrap(),
            rows: vec![
                vec!["sf".into(), Value::Bigint(2)],
                vec!["sf".into(), Value::Bigint(3)],
                vec!["la".into(), Value::Bigint(1)],
            ],
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(partials),
            group_by: vec![RowExpression::column("city", 0, DataType::Varchar)],
            aggregates: vec![AggregateExpr {
                function: AggregateFunction::Count,
                argument: Some(RowExpression::column("cnt", 1, DataType::Bigint)),
                name: "cnt".into(),
            }],
            step: AggregateStep::FinalOverPartial,
        };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(
            rows,
            vec![vec!["la".into(), Value::Bigint(1)], vec!["sf".into(), Value::Bigint(5)],]
        );
    }

    #[test]
    fn hash_join_inner_and_left() {
        let ctx = ctx_with_table();
        let cities = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("name", DataType::Varchar),
                Field::new("state", DataType::Varchar),
            ])
            .unwrap(),
            rows: vec![vec!["sf".into(), "CA".into()], vec!["nyc".into(), "NY".into()]],
        };
        let join = |kind| {
            LogicalPlan::join(
                trips_scan(),
                cities.clone(),
                kind,
                vec![(
                    RowExpression::column("city", 1, DataType::Varchar),
                    RowExpression::column("name", 0, DataType::Varchar),
                )],
                None,
            )
            .unwrap()
        };
        let inner = execute_to_rows(&join(JoinKind::Inner), &ctx).unwrap();
        assert_eq!(inner.len(), 5); // la has no match
        let left = execute_to_rows(&join(JoinKind::Left), &ctx).unwrap();
        assert_eq!(left.len(), 6);
        let la_row = left.iter().find(|r| r[1] == "la".into()).unwrap();
        assert_eq!(la_row[3], Value::Null);
        assert_eq!(la_row[4], Value::Null);
    }

    /// A build side of one page holds that page's columns, shared; of
    /// several, one concatenated copy of them.
    #[test]
    fn a_one_page_build_side_shares_its_columns() {
        let ctx = ctx_with_table();
        let schema = Schema::new(vec![Field::new("name", DataType::Varchar)]).unwrap();
        let page = Page::new(vec![Block::varchar(&["sf", "nyc"])]).unwrap();
        let key = |name, c| RowExpression::column(name, c, DataType::Varchar);
        let on = [(key("city", 1), key("name", 0))];
        // the trips row, then the build column
        let layout = JoinLayout::new(3, &schema, &[0, 1, 2, 3], None).unwrap();
        let build = |pages: &[Page]| JoinBuild::new(pages, &schema, &layout, &on, &ctx).unwrap();
        assert!(Arc::ptr_eq(build(std::slice::from_ref(&page)).page.column(0), page.column(0)));
        let halves = build(&[page.slice(0, 1), page.slice(1, 1)]);
        assert!(halves.page == page && !Arc::ptr_eq(halves.page.column(0), page.column(0)));
    }

    #[test]
    fn cross_join_with_residual() {
        let ctx = ctx_with_table();
        let nums = LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("n", DataType::Bigint)]).unwrap(),
            rows: vec![vec![Value::Bigint(1)], vec![Value::Bigint(2)]],
        };
        let plan = LogicalPlan::join(
            nums.clone(),
            nums,
            JoinKind::Inner,
            vec![],
            Some(RowExpression::Call {
                handle: FunctionHandle::new(
                    "lt",
                    vec![DataType::Bigint, DataType::Bigint],
                    DataType::Boolean,
                ),
                args: vec![
                    RowExpression::column("n", 0, DataType::Bigint),
                    RowExpression::column("n2", 1, DataType::Bigint),
                ],
            }),
        )
        .unwrap();
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(rows, vec![vec![Value::Bigint(1), Value::Bigint(2)]]);
    }

    #[test]
    fn geo_join_matches_points_to_fences() {
        let ctx = ctx_with_table();
        let trips = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("lng", DataType::Double),
                Field::new("lat", DataType::Double),
            ])
            .unwrap(),
            rows: vec![
                vec![Value::Double(0.5), Value::Double(0.5)],
                vec![Value::Double(5.5), Value::Double(5.5)],
                vec![Value::Double(99.0), Value::Double(99.0)],
            ],
        };
        let cities = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("city_id", DataType::Bigint),
                Field::new("shape", DataType::Varchar),
            ])
            .unwrap(),
            rows: vec![
                vec![Value::Bigint(1), "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))".into()],
                vec![Value::Bigint(2), "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))".into()],
            ],
        };
        let plan = LogicalPlan::GeoJoin {
            probe: Box::new(trips),
            fences: Box::new(cities),
            probe_lng: RowExpression::column("lng", 0, DataType::Double),
            probe_lat: RowExpression::column("lat", 1, DataType::Double),
            fence_shape: RowExpression::column("shape", 1, DataType::Varchar),
        };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::Bigint(1)); // first point in city 1
        assert_eq!(rows[1][2], Value::Bigint(2));
    }

    #[test]
    fn sort_topn_limit() {
        let ctx = ctx_with_table();
        let keys = vec![SortKey {
            expr: RowExpression::column("fare", 2, DataType::Double),
            descending: true,
        }];
        let sorted = execute_to_rows(
            &LogicalPlan::Sort { input: Box::new(trips_scan()), keys: keys.clone() },
            &ctx,
        )
        .unwrap();
        assert_eq!(sorted[0][2], Value::Double(60.0));
        assert_eq!(sorted[5][2], Value::Double(10.0));

        let top2 = execute_to_rows(
            &LogicalPlan::TopN { input: Box::new(trips_scan()), keys, count: 2 },
            &ctx,
        )
        .unwrap();
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[1][2], Value::Double(50.0));

        let limited =
            execute_to_rows(&LogicalPlan::Limit { input: Box::new(trips_scan()), count: 4 }, &ctx)
                .unwrap();
        assert_eq!(limited.len(), 4);
    }

    /// Budget-capped context with an in-memory spill manager attached, so
    /// blocking operators spill instead of failing.
    fn ctx_with_spill(budget: usize) -> ExecutionContext {
        let ctx = ctx_with_table().with_memory_budget(budget);
        let spill = presto_resource::SpillManager::in_memory(ctx.metrics.clone());
        let pool = ctx.pool.clone();
        ctx.with_resources(pool, Some(Arc::new(spill)))
    }

    fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn spilled_aggregation_matches_in_memory() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(trips_scan()),
            group_by: vec![RowExpression::column("city", 1, DataType::Varchar)],
            aggregates: vec![
                AggregateExpr {
                    function: AggregateFunction::CountStar,
                    argument: None,
                    name: "cnt".into(),
                },
                AggregateExpr {
                    function: AggregateFunction::Sum,
                    argument: Some(RowExpression::column("fare", 2, DataType::Double)),
                    name: "total".into(),
                },
            ],
            step: AggregateStep::Single,
        };
        let unconstrained = execute_to_rows(&plan, &ctx_with_table()).unwrap();
        // 3 groups need 3 * (64 + 2*48) = 480 bytes; budget 400 forces the
        // Grace fallback, and each partition's slice fits.
        let ctx = ctx_with_spill(400);
        let spilled = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(spilled, unconstrained);
        assert!(ctx.metrics.get(names::SPILL_FILES) > 0, "aggregation did not spill");
        assert_eq!(ctx.reserved_memory(), 0, "reservation leaked");
    }

    #[test]
    fn spilled_join_matches_in_memory() {
        // Large enough that a partition's build slice is much smaller than
        // the whole build side (page overhead doesn't shrink with rows).
        let schema =
            Schema::new(vec![Field::new("k", DataType::Bigint), Field::new("v", DataType::Double)])
                .unwrap();
        let mut rows: Vec<Vec<Value>> =
            (0..128i64).map(|i| vec![Value::Bigint(i % 8), Value::Double(i as f64)]).collect();
        // NULL probe keys must survive the LEFT join via partition 0
        rows.push(vec![Value::Null, Value::Double(-1.0)]);
        let big = LogicalPlan::Values { schema, rows };
        let plan = LogicalPlan::join(
            big.clone(),
            big.clone(),
            JoinKind::Left,
            vec![(
                RowExpression::column("k", 0, DataType::Bigint),
                RowExpression::column("k", 0, DataType::Bigint),
            )],
            None,
        )
        .unwrap();
        let unconstrained = execute_to_rows(&plan, &ctx_with_table()).unwrap();
        // one byte short of the materialized build side
        let build_size = execute(&big, &ctx_with_table()).unwrap()[0].memory_size();
        let ctx = ctx_with_spill(build_size - 1);
        let spilled = execute_to_rows(&plan, &ctx).unwrap();
        // Grace partitioning reorders rows across partitions
        assert_eq!(sorted_rows(spilled), sorted_rows(unconstrained));
        assert!(ctx.metrics.get(names::SPILL_FILES) > 0, "join did not spill");
        assert_eq!(ctx.reserved_memory(), 0, "reservation leaked");
    }

    #[test]
    fn spilled_sort_matches_in_memory() {
        // two input pages, so the external sort can hold one run at a time
        let two_scans = LogicalPlan::Union { inputs: vec![trips_scan(), trips_scan()] };
        let keys = vec![SortKey {
            expr: RowExpression::column("fare", 2, DataType::Double),
            descending: true,
        }];
        let plan = LogicalPlan::Sort { input: Box::new(two_scans), keys };
        let unconstrained = execute_to_rows(&plan, &ctx_with_table()).unwrap();
        let page_size = execute(&trips_scan(), &ctx_with_table()).unwrap()[0].memory_size();
        // fits one page (a run) but not both
        let ctx = ctx_with_spill(page_size + page_size / 2);
        let spilled = execute_to_rows(&plan, &ctx).unwrap();
        // external merge sort must reproduce the stable in-memory order exactly
        assert_eq!(spilled, unconstrained);
        assert!(ctx.metrics.get(names::SPILL_FILES) > 0, "sort did not spill");
        assert_eq!(ctx.reserved_memory(), 0, "reservation leaked");
    }

    #[test]
    fn big_join_raises_insufficient_resources() {
        let ctx = ctx_with_table().with_memory_budget(64);
        let plan = LogicalPlan::join(
            trips_scan(),
            trips_scan(),
            JoinKind::Inner,
            vec![(
                RowExpression::column("id", 0, DataType::Bigint),
                RowExpression::column("id", 0, DataType::Bigint),
            )],
            None,
        )
        .unwrap();
        let err = execute(&plan, &ctx).unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
    }

    /// A dictionary mask selects through its ids what its decoded form
    /// selects: a NULL entry (TRUE underneath) and FALSE select nothing,
    /// repeated entries select each time, an unused entry is never read.
    #[test]
    fn a_dictionary_mask_selects_what_its_decoded_form_does() {
        let entries = Block::Boolean {
            values: vec![true, true, true, false],
            nulls: Some(vec![false, true, false, false]),
        };
        let ids = vec![0, 1, 3, 0, 1, 0, 3, 3];
        let mask = Block::Dictionary { dictionary: Box::new(entries), ids };
        let expected = selection(mask.decode_dictionary());
        assert_eq!(expected, [true, false, false, true, false, true, false, false]);
        assert_eq!(selection(mask.clone()), expected);
        let nested = Block::Dictionary { dictionary: Box::new(mask), ids: vec![7, 0, 3, 3] };
        assert_eq!(selection(nested.decode_dictionary()), [false, true, true, true]);
        assert_eq!(selection(nested), [false, true, true, true]);
    }

    #[test]
    fn remote_source_binds_pages() {
        let mut ctx = ctx_with_table();
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        let page = Page::new(vec![Block::bigint(vec![7])]).unwrap();
        ctx.bind_remote_source(3, vec![page]);
        let plan = LogicalPlan::RemoteSource { fragment: 3, schema };
        let rows = execute_to_rows(&plan, &ctx).unwrap();
        assert_eq!(rows, vec![vec![Value::Bigint(7)]]);
        // the pages were moved out: a second read is an engine bug
        assert_eq!(execute(&plan, &ctx).unwrap_err().code(), "INTERNAL_ERROR");
        let unbound = LogicalPlan::RemoteSource { fragment: 9, schema: Schema::empty() };
        assert_eq!(execute(&unbound, &ctx).unwrap_err().code(), "EXECUTION_ERROR");
    }
}
