//! Real-time dashboard on Druid through the connector (§IV.B, Fig 2):
//! aggregation pushdown ships the GROUP BY into the store's inverted
//! indexes; only aggregated rows reach the engine.
//!
//! Run with: `cargo run --release --example realtime_dashboard`
#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use presto_at_scale::fixtures::demo_platform;
use presto_core::Session;
use presto_plan::OptimizerConfig;

fn main() -> presto_common::Result<()> {
    println!("== Real-time dashboard: Presto-Druid connector (§IV.B) ==\n");
    let platform = demo_platform(2000);
    let session = Session::new("druid", "realtime");

    let sql = "SELECT city, count(*) AS orders, sum(amount) AS gmv \
               FROM orders WHERE status = 'completed' \
               GROUP BY city ORDER BY gmv DESC LIMIT 8";
    println!("query: {sql}\n");

    // Fig 2 right side: aggregation pushed into the connector.
    println!("plan WITH aggregation pushdown:");
    println!("{}", platform.engine.explain(sql, &session)?);
    platform.druid.store().metrics().reset();
    let pushed = platform.engine.execute_with_session(sql, &session)?;
    let pushed_cost = platform.druid.take_last_scan_cost();
    let pushed_streamed = platform.druid.store().metrics().get("rt.rows_streamed");
    println!("{}", pushed.to_table());

    // Fig 2 left side: pushdown disabled → the connector streams raw rows
    // and the engine aggregates.
    let no_push = session.clone().with_optimizer(OptimizerConfig {
        aggregation_pushdown: false,
        ..OptimizerConfig::default()
    });
    println!("plan WITHOUT aggregation pushdown:");
    println!("{}", platform.engine.explain(sql, &no_push)?);
    platform.druid.store().metrics().reset();
    let raw = platform.engine.execute_with_session(sql, &no_push)?;
    let raw_cost = platform.druid.take_last_scan_cost();
    let raw_streamed = platform.druid.store().metrics().get("rt.rows_streamed");

    assert_eq!(pushed.rows(), raw.rows(), "results must agree");
    println!(
        "rows streamed out of Druid:   with pushdown = {pushed_streamed}, without = {raw_streamed}"
    );
    println!(
        "virtual store cost:           with pushdown = {pushed_cost:?}, without = {raw_cost:?}"
    );
    println!(
        "\nWith pushdown, only aggregated rows cross the wire — the sub-second\n\
         path of Fig 16. Without it, every matching event streams into the engine."
    );
    Ok(())
}
