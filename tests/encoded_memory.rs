//! Memory tables encoded at rest, against a row-at-a-time reference over the
//! pages they were created from.
//!
//! `MemoryConnector::create_table` keeps a low-NDV VARCHAR column of a page
//! as one `Block::Dictionary`, and a key table reads such a column as a
//! dense digit. The benchmark's `mem_exec` oracle runs the same engine over
//! the same connector, so it cannot see a wrong answer either makes. Here a
//! lineitem-shaped table whose low-NDV VARCHARs hold NULLs answers the nine
//! `mem_exec` query shapes, every predicate form over the encoded columns,
//! `coalesce`, ORDER BY, distinct counts, a two-key VARCHAR GROUP BY and a
//! two-key VARCHAR equi-join (each side the build side once, the probe
//! holding a string the build never held). Each answer must equal the
//! reference's (`tests/common/reference.rs`, or plain Rust over the rows) —
//! in order under a total ORDER BY, as a multiset otherwise, and DOUBLEs to
//! 1e-9 relative, since a sum may add its terms in another order.

#[path = "common/reference.rs"]
mod reference;

use std::sync::Arc;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::memory::MemoryConnector;
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_connectors::{ColumnPath, Connector, ScanHooks, ScanRequest};
use presto_core::{PrestoEngine, Session};
use presto_expr::AggregateFunction::{self, Avg, CountStar, Sum};
use presto_plan::logical::{AggregateStep, JoinKind};
use reference::{cmp_keys, reference_aggregate, reference_join};

const PAGES: usize = 3;
const PAGE_ROWS: usize = 300;

/// The low-NDV VARCHARs given NULLs, each every `n`-th row.
const NULLED: [(&str, usize); 3] = [("returnflag", 5), ("linestatus", 7), ("shipmode", 11)];

/// The shipping modes of the `modes` dimension: `FOB` left out, `BOAT`
/// in, which no lineitem row holds.
const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "BOAT"];
const INSTRUCTIONS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];

fn column(name: &str) -> usize {
    lineitem_schema().index_of(name).unwrap()
}

fn lineitem_pages() -> Vec<Page> {
    (0..PAGES)
        .map(|p| {
            let mut blocks = generate_lineitem(p * PAGE_ROWS, PAGE_ROWS, 7).unwrap().into_blocks();
            for (name, every) in NULLED {
                let c = column(name);
                let values: Vec<Value> = (0..PAGE_ROWS)
                    .map(|i| if (i + p) % every == 0 { Value::Null } else { blocks[c].value(i) })
                    .collect();
                blocks[c] = Arc::new(Block::from_values(&DataType::Varchar, &values).unwrap());
            }
            Page::from_columns(blocks).unwrap()
        })
        .collect()
}

/// `(shipmode, shipinstruct, label)`: every mode of [`MODES`] with every
/// instruction, then a NULL mode.
fn modes_rows() -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for mode in MODES {
        for instruction in INSTRUCTIONS {
            let label = rows.len() as i64;
            rows.push(vec![mode.into(), instruction.into(), Value::Bigint(label)]);
        }
    }
    rows.push(vec![Value::Null, "NONE".into(), Value::Bigint(99)]);
    rows
}

fn modes_schema() -> Schema {
    Schema::new(vec![
        Field::new("shipmode", DataType::Varchar),
        Field::new("shipinstruct", DataType::Varchar),
        Field::new("label", DataType::Bigint),
    ])
    .unwrap()
}

struct Fixture {
    memory: MemoryConnector,
    engine: PrestoEngine,
    session: Session,
    /// `lineitem`'s input rows, page by page.
    pages: Vec<Vec<Vec<Value>>>,
    modes: Vec<Vec<Value>>,
}

impl Fixture {
    fn new() -> Fixture {
        let pages = lineitem_pages();
        let memory = MemoryConnector::new();
        memory.create_table("default", "lineitem", lineitem_schema(), pages.clone()).unwrap();
        let modes = modes_rows();
        let blocks = modes_schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(c, field)| {
                let values: Vec<Value> = modes.iter().map(|row| row[c].clone()).collect();
                Block::from_values(&field.data_type, &values).unwrap()
            })
            .collect();
        let modes_page = Page::new(blocks).unwrap();
        memory.create_table("default", "modes", modes_schema(), vec![modes_page]).unwrap();
        let engine = PrestoEngine::new();
        engine.register_catalog("memory", Arc::new(memory.clone()));
        let pages = pages.iter().map(Page::rows).collect();
        Fixture { memory, engine, session: Session::new("memory", "default"), pages, modes }
    }

    fn rows(&self) -> Vec<Vec<Value>> {
        self.pages.iter().flatten().cloned().collect()
    }

    /// The rows of `lineitem` passing `keep`, as `(orderkey, linenumber)`.
    fn keys_where(&self, keep: impl Fn(&[Value]) -> bool) -> Vec<Vec<Value>> {
        let (orderkey, linenumber) = (column("orderkey"), column("linenumber"));
        let kept = self.rows().into_iter().filter(|row| keep(row));
        kept.map(|row| vec![row[orderkey].clone(), row[linenumber].clone()]).collect()
    }

    /// `sql`'s answer must be `expected`: in order when `ordered`, else as
    /// a multiset.
    fn check(&self, sql: &str, mut expected: Vec<Vec<Value>>, ordered: bool) {
        let result = self.engine.execute_with_session(sql, &self.session);
        let mut actual = result.unwrap_or_else(|e| panic!("{sql}: {e}")).rows();
        if !ordered {
            for rows in [&mut actual, &mut expected] {
                let ascending = vec![false; rows.first().map_or(0, Vec::len)];
                rows.sort_by(|a, b| cmp_keys(a, b, &ascending));
            }
        }
        assert_eq!(actual.len(), expected.len(), "{sql}");
        for (a, e) in actual.iter().zip(&expected) {
            let close = |(x, y): (&Value, &Value)| match (x, y) {
                (Value::Double(x), Value::Double(y)) => {
                    x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
                }
                _ => x == y,
            };
            assert!(a.len() == e.len() && a.iter().zip(e).all(close), "{sql}: {a:?} vs {e:?}");
        }
    }

    /// Each stored column of `table`'s first page: a dictionary or not.
    fn encoded(&self, table: &str, schema: &Schema) -> Vec<bool> {
        let columns = schema.fields().iter().map(|f| ColumnPath::whole(&f.name)).collect();
        let request = ScanRequest { columns, ..ScanRequest::default() };
        let splits = self.memory.splits("default", table, &request).unwrap();
        let pages = self.memory.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap();
        pages[0].blocks().iter().map(|b| matches!(**b, Block::Dictionary { .. })).collect()
    }
}

fn aggregate(
    rows: &[Vec<Value>],
    keys: &[usize],
    aggregates: &[(AggregateFunction, Option<usize>)],
) -> Vec<Vec<Value>> {
    reference_aggregate(rows, keys, aggregates, AggregateStep::Single)
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Varchar(s) => Some(s),
        _ => None,
    }
}

fn double(v: &Value) -> f64 {
    v.as_f64().unwrap()
}

#[test]
fn low_ndv_varchars_are_stored_encoded_and_the_rest_plain() {
    let f = Fixture::new();
    let encoded: Vec<String> = lineitem_schema()
        .fields()
        .iter()
        .zip(f.encoded("lineitem", &lineitem_schema()))
        .filter(|(_, encoded)| *encoded)
        .map(|(field, _)| field.name.clone())
        .collect();
    assert_eq!(encoded, ["returnflag", "linestatus", "shipinstruct", "shipmode"]);
    assert_eq!(f.encoded("modes", &modes_schema()), [true, true, false]);

    // one past either cut-off stays plain: at most 1024 distinct strings,
    // at most half as many as the page's strings
    let strings = |rows: usize, distinct: usize| -> Block {
        Block::varchar(&(0..rows).map(|i| format!("s{}", i % distinct)).collect::<Vec<_>>())
    };
    let fields = ["at", "past"].map(|name| Field::new(name, DataType::Varchar));
    let schema = Schema::new(fields.to_vec()).unwrap();
    for (rows, at, past) in [(2_050, 1_024, 1_025), (100, 50, 51)] {
        let page = Page::new(vec![strings(rows, at), strings(rows, past)]).unwrap();
        f.memory.create_table("default", "cutoffs", schema.clone(), vec![page]).unwrap();
        assert_eq!(f.encoded("cutoffs", &schema), [true, false], "{rows} rows");
    }
}

#[test]
fn the_mem_exec_templates_answer_as_the_reference() {
    let f = Fixture::new();
    let rows = f.rows();
    let c = column;
    f.check("SELECT count(*) FROM lineitem", aggregate(&rows, &[], &[(CountStar, None)]), false);

    const REVENUE: &str = "SELECT sum(extendedprice * (1 - discount)) FROM lineitem WHERE";
    let revenue = |keep: &dyn Fn(f64, f64) -> bool| {
        let kept =
            rows.iter().filter(|r| keep(double(&r[c("quantity")]), double(&r[c("discount")])));
        let terms: Vec<Vec<Value>> = kept
            .map(|r| {
                vec![Value::Double(
                    double(&r[c("extendedprice")]) * (1.0 - double(&r[c("discount")])),
                )]
            })
            .collect();
        aggregate(&terms, &[], &[(Sum, Some(0))])
    };
    f.check(
        &format!("{REVENUE} quantity = 7 AND discount BETWEEN 0.02 AND 0.07"),
        revenue(&|q, d| q == 7.0 && (0.02..=0.07).contains(&d)),
        false,
    );
    f.check(
        &format!("{REVENUE} quantity BETWEEN 5 AND 29"),
        revenue(&|q, _| (5.0..=29.0).contains(&q)),
        false,
    );
    f.check(
        &format!("{REVENUE} quantity BETWEEN 3 AND 47"),
        revenue(&|q, _| (3.0..=47.0).contains(&q)),
        false,
    );

    f.check(
        "SELECT returnflag, linestatus, count(*), sum(quantity), avg(extendedprice) \
         FROM lineitem GROUP BY 1, 2",
        aggregate(
            &rows,
            &[c("returnflag"), c("linestatus")],
            &[(CountStar, None), (Sum, Some(c("quantity"))), (Avg, Some(c("extendedprice")))],
        ),
        false,
    );
    f.check(
        "SELECT orderkey, count(*), sum(extendedprice) FROM lineitem GROUP BY 1",
        aggregate(&rows, &[c("orderkey")], &[(CountStar, None), (Sum, Some(c("extendedprice")))]),
        false,
    );

    // the self-join: (orderkey, linenumber, extendedprice) ⋈ (orderkey, linenumber, tax)
    let project = |columns: &[usize]| -> Vec<Vec<Vec<Value>>> {
        let page = |rows: &Vec<Vec<Value>>| {
            rows.iter().map(|r| columns.iter().map(|&i| r[i].clone()).collect()).collect()
        };
        f.pages.iter().map(page).collect()
    };
    let probe = project(&[c("orderkey"), c("linenumber"), c("extendedprice")]);
    let build = project(&[c("orderkey"), c("linenumber"), c("tax")]).concat();
    let pairs = reference_join(&probe, &build, 3, JoinKind::Inner, &[(0, 0), (1, 1)], None);
    let terms: Vec<Vec<Value>> =
        pairs.concat().iter().map(|p| vec![Value::Double(double(&p[2]) + double(&p[5]))]).collect();
    f.check(
        "SELECT count(*), sum(a.extendedprice + b.tax) FROM lineitem a JOIN lineitem b \
         ON a.orderkey = b.orderkey AND a.linenumber = b.linenumber",
        aggregate(&terms, &[], &[(CountStar, None), (Sum, Some(0))]),
        false,
    );

    let mut sorted = probe.concat();
    sorted.sort_by(|a, b| {
        cmp_keys(
            &[a[2].clone(), a[0].clone(), a[1].clone()],
            &[b[2].clone(), b[0].clone(), b[1].clone()],
            &[true, false, false],
        )
    });
    const SORT: &str = "SELECT orderkey, linenumber, extendedprice FROM lineitem \
                        ORDER BY extendedprice DESC, orderkey, linenumber";
    f.check(SORT, sorted.clone(), true);
    f.check(&format!("{SORT} LIMIT 100"), sorted[..100].to_vec(), true);
}

#[test]
fn predicates_over_encoded_columns_answer_as_the_reference() {
    let f = Fixture::new();
    let c = column;
    // per predicate, each conjunct's column and its test of the column's string
    type Test = fn(Option<&str>) -> bool;
    let cases: [(&str, &[(&str, Test)]); 10] = [
        ("returnflag = 'R'", &[("returnflag", |s| s == Some("R"))]),
        (
            "shipmode IN ('AIR', 'RAIL', 'BOAT')",
            &[("shipmode", |s| s.is_some_and(|s| ["AIR", "RAIL", "BOAT"].contains(&s)))],
        ),
        (
            "shipmode NOT IN ('AIR', 'MAIL')",
            &[("shipmode", |s| s.is_some_and(|s| !["AIR", "MAIL"].contains(&s)))],
        ),
        ("shipmode LIKE '%AIR'", &[("shipmode", |s| s.is_some_and(|s| s.ends_with("AIR")))]),
        (
            "shipinstruct LIKE '%BACK%'",
            &[("shipinstruct", |s| s.is_some_and(|s| s.contains("BACK")))],
        ),
        (
            "shipmode BETWEEN 'FOB' AND 'RAIL'",
            &[("shipmode", |s| s.is_some_and(|s| ("FOB"..="RAIL").contains(&s)))],
        ),
        ("returnflag IS NULL", &[("returnflag", |s| s.is_none())]),
        ("linestatus IS NOT NULL", &[("linestatus", |s| s.is_some())]),
        ("coalesce(returnflag, 'X') = 'X'", &[("returnflag", |s| s.is_none())]),
        (
            "returnflag = 'A' AND shipmode IN ('SHIP', 'TRUCK')",
            &[
                ("returnflag", |s| s == Some("A")),
                ("shipmode", |s| s.is_some_and(|s| ["SHIP", "TRUCK"].contains(&s))),
            ],
        ),
    ];
    for (predicate, conjuncts) in cases {
        let sql = format!("SELECT orderkey, linenumber FROM lineitem WHERE {predicate}");
        let expected =
            f.keys_where(|row| conjuncts.iter().all(|(name, test)| test(text(&row[c(name)]))));
        assert!(!expected.is_empty(), "{predicate} selects no row");
        f.check(&sql, expected, false);
    }

    // coalesce as a value and as a GROUP BY key
    let rows = f.rows();
    let coalesced: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            let mode =
                if r[c("shipmode")].is_null() { "none".into() } else { r[c("shipmode")].clone() };
            vec![r[c("orderkey")].clone(), r[c("linenumber")].clone(), mode]
        })
        .collect();
    f.check(
        "SELECT orderkey, linenumber, coalesce(shipmode, 'none') FROM lineitem",
        coalesced.clone(),
        false,
    );
    f.check(
        "SELECT coalesce(shipmode, 'none'), count(*) FROM lineitem GROUP BY 1",
        aggregate(&coalesced, &[2], &[(CountStar, None)]),
        false,
    );
}

#[test]
fn order_by_and_distinct_over_encoded_columns_answer_as_the_reference() {
    let f = Fixture::new();
    let c = column;
    let picked = |row: &Vec<Value>, columns: &[usize]| -> Vec<Value> {
        columns.iter().map(|&i| row[i].clone()).collect()
    };
    let order = [c("shipmode"), c("returnflag"), c("orderkey"), c("linenumber")];
    let mut sorted: Vec<Vec<Value>> = f.rows().iter().map(|r| picked(r, &order)).collect();
    sorted.sort_by(|a, b| cmp_keys(a, b, &[true, false, false, false]));
    f.check(
        "SELECT shipmode, returnflag, orderkey, linenumber FROM lineitem \
         ORDER BY shipmode DESC, returnflag, orderkey, linenumber",
        sorted,
        true,
    );

    // count(DISTINCT x) as the count of x over its distinct values
    let modes = aggregate(&f.rows(), &[c("shipmode")], &[]);
    let distinct = modes.iter().filter(|m| !m[0].is_null()).count() as i64;
    assert_eq!(distinct, 7);
    f.check(
        "SELECT count(m) FROM (SELECT DISTINCT shipmode AS m FROM lineitem) d",
        vec![vec![Value::Bigint(distinct)]],
        true,
    );
    f.check(
        "SELECT DISTINCT returnflag, linestatus FROM lineitem",
        aggregate(&f.rows(), &[c("returnflag"), c("linestatus")], &[]),
        false,
    );
}

#[test]
fn two_key_varchar_group_by_and_join_answer_as_the_reference() {
    let f = Fixture::new();
    let c = column;
    let rows = f.rows();
    f.check(
        "SELECT shipmode, shipinstruct, count(*), sum(quantity) FROM lineitem GROUP BY 1, 2",
        aggregate(
            &rows,
            &[c("shipmode"), c("shipinstruct")],
            &[(CountStar, None), (Sum, Some(c("quantity")))],
        ),
        false,
    );

    // lineitem (orderkey, linenumber, shipmode, shipinstruct) ⋈ modes
    let wanted = [c("orderkey"), c("linenumber"), c("shipmode"), c("shipinstruct")];
    let page = |rows: &Vec<Vec<Value>>| -> Vec<Vec<Value>> {
        rows.iter().map(|r| wanted.iter().map(|&i| r[i].clone()).collect()).collect()
    };
    let lineitem: Vec<Vec<Vec<Value>>> = f.pages.iter().map(page).collect();
    let pairs = reference_join(&lineitem, &f.modes, 3, JoinKind::Inner, &[(2, 0), (3, 1)], None);
    let expected: Vec<Vec<Value>> =
        pairs.concat().iter().map(|p| vec![p[0].clone(), p[1].clone(), p[6].clone()]).collect();
    // every row whose mode is in `modes` matches once; `FOB` and NULL none
    let fob = rows.iter().filter(|r| r[c("shipmode")] == "FOB".into()).count();
    let nulls = rows.iter().filter(|r| r[c("shipmode")].is_null()).count();
    assert!(fob > 0 && nulls > 0);
    assert_eq!(expected.len(), rows.len() - fob - nulls);
    // modes the build side, then lineitem: `BOAT` probes a build that never held it
    f.check(
        "SELECT l.orderkey, l.linenumber, m.label FROM lineitem l JOIN modes m \
         ON l.shipmode = m.shipmode AND l.shipinstruct = m.shipinstruct",
        expected.clone(),
        false,
    );
    f.check(
        "SELECT l.orderkey, l.linenumber, m.label FROM modes m JOIN lineitem l \
         ON m.shipmode = l.shipmode AND m.shipinstruct = l.shipinstruct",
        expected,
        false,
    );
}
