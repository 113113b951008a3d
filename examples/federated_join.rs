//! Federated query: join Hive warehouse data with MySQL reference data —
//! "users could join Hadoop data with MySQL data using Presto-Hive-connector
//! and Presto-MySQL-connector, no need to copy any data" (§IV.A).
//!
//! Run with: `cargo run --release --example federated_join`
#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use presto_at_scale::fixtures::demo_platform;
use presto_core::Session;

fn main() -> presto_common::Result<()> {
    println!("== Federated join: hive × mysql, no data copy ==\n");
    let platform = demo_platform(500);
    let session = Session::new("hive", "rawdata");

    // Trips live in hive.rawdata.trips (nested Parquet on HDFS); city
    // geofences live in mysql.ops.cities. One SQL query spans both.
    let sql = "SELECT c.city_id, count(*) AS trips, sum(t.base.fare) AS revenue \
               FROM hive.rawdata.trips t \
               JOIN mysql.ops.cities c ON t.base.city_id = c.city_id \
               WHERE t.datestr = '2017-03-01' \
               GROUP BY 1 ORDER BY 2 DESC LIMIT 10";
    println!("query: {sql}\n");
    println!("plan:\n{}", platform.engine.explain(sql, &session)?);

    let result = platform.engine.execute_with_session(sql, &session)?;
    println!("{}", result.to_table());

    // What moved over the wire from MySQL? Only the projected columns —
    // predicate/projection/limit were applied store-side.
    println!(
        "mysql rows scanned: {}, rows streamed into the engine: {}",
        platform.mysql.metrics().get("mysql.rows_scanned"),
        platform.mysql.metrics().get("mysql.rows_streamed"),
    );
    println!(
        "hive partitions pruned: {}, hdfs listFiles calls: {}",
        platform.hive.metrics().get("hive.partitions_pruned"),
        platform.hdfs.metrics().get("hdfs.list_files"),
    );
    println!("\nfederated join complete — zero copy pipelines were built.");
    Ok(())
}
