//! Quickstart: stand up the engine, register catalogs, run SQL.
//!
//! Run with: `cargo run --release --example quickstart`
#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use presto_at_scale::fixtures::demo_platform;
use presto_core::Session;
use presto_expr::RowExpression;

fn main() -> presto_common::Result<()> {
    println!("== Running Presto at Scale: quickstart ==\n");
    let platform = demo_platform(500);
    let session = Session::new("hive", "rawdata");

    // 1. The paper's §V.C example query shape: prune one nested field out of
    //    a wide struct, with predicate + partition pruning.
    let sql = "SELECT base.driver_uuid FROM trips \
               WHERE datestr = '2017-03-02' AND base.city_id IN (12) LIMIT 5";
    println!("query: {sql}\n");
    println!("plan:\n{}", platform.engine.explain(sql, &session)?);
    let result = platform.engine.execute_with_session(sql, &session)?;
    println!("{}", result.to_table());

    // 2. Aggregation over the warehouse.
    let sql = "SELECT datestr, count(*) AS trips, sum(base.fare) AS revenue \
               FROM trips GROUP BY 1 ORDER BY 1";
    println!("query: {sql}\n");
    let result = platform.engine.execute_with_session(sql, &session)?;
    println!("{}", result.to_table());

    // 3. Table I: RowExpression is self-contained and serializable — the
    //    property that makes connector pushdown possible (§IV.B).
    println!("Table I — self-contained RowExpressions:");
    let exprs: Vec<(&str, RowExpression)> = vec![
        ("ConstantExpression", RowExpression::bigint(1)),
        (
            "VariableReferenceExpression",
            RowExpression::column("city_id", 0, presto_common::DataType::Bigint),
        ),
        (
            "CallExpression",
            RowExpression::Call {
                handle: presto_expr::FunctionHandle::new(
                    "max",
                    vec![presto_common::DataType::Bigint],
                    presto_common::DataType::Bigint,
                ),
                args: vec![RowExpression::column("columnB", 1, presto_common::DataType::Bigint)],
            },
        ),
        (
            "SpecialFormExpression",
            RowExpression::SpecialForm {
                form: presto_expr::SpecialForm::In,
                args: vec![
                    RowExpression::column("x", 0, presto_common::DataType::Bigint),
                    RowExpression::bigint(12),
                ],
                return_type: presto_common::DataType::Boolean,
            },
        ),
        (
            "LambdaDefinitionExpression",
            RowExpression::LambdaDefinition {
                parameters: vec![
                    ("x".into(), presto_common::DataType::Bigint),
                    ("y".into(), presto_common::DataType::Bigint),
                ],
                body: Box::new(RowExpression::Call {
                    handle: presto_expr::FunctionHandle::new(
                        "add",
                        vec![presto_common::DataType::Bigint, presto_common::DataType::Bigint],
                        presto_common::DataType::Bigint,
                    ),
                    args: vec![
                        RowExpression::column("x", 0, presto_common::DataType::Bigint),
                        RowExpression::column("y", 1, presto_common::DataType::Bigint),
                    ],
                }),
            },
        ),
    ];
    for (kind, expr) in exprs {
        let serialized = expr.serialize();
        let back = RowExpression::deserialize(&serialized)?;
        assert_eq!(back, expr);
        println!("  {kind:<30} {expr}   (serialized {} bytes, round-trips)", serialized.len());
    }
    println!("\nquickstart complete.");
    Ok(())
}
