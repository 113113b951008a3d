//! Geospatial analytics (§VI): the paper's trips-per-city query, with the
//! Fig 13 automatic rewrite from `st_contains` into the QuadTree-backed
//! GeoJoin, and a measured comparison against the brute-force path.
//!
//! Run with: `cargo run --release --example geospatial`
#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use std::time::Instant;

use presto_at_scale::fixtures::demo_platform;
use presto_core::Session;
use presto_plan::OptimizerConfig;

fn main() -> presto_common::Result<()> {
    println!("== Geospatial queries with QuadTree (§VI) ==\n");
    let platform = demo_platform(2000);
    let session = Session::new("hive", "rawdata");

    // The §VI.C query: count trips per city by point-in-geofence.
    let sql = "SELECT c.city_id, count(*) \
               FROM hive.rawdata.trips AS t \
               JOIN mysql.ops.cities AS c \
                 ON st_contains(c.geo_shape, st_point(t.base.dest_lng, t.base.dest_lat)) \
               WHERE t.datestr = '2017-03-01' \
               GROUP BY 1 ORDER BY 2 DESC LIMIT 10";
    println!("query: {sql}\n");

    // With the geospatial rewrite (Fig 13): GeoJoin with build_geo_index.
    println!("optimized plan (build_geo_index rewrite ON):");
    println!("{}", platform.engine.explain(sql, &session)?);
    #[allow(clippy::disallowed_methods, reason = "the example prints real query time")]
    let start = Instant::now();
    let fast = platform.engine.execute_with_session(sql, &session)?;
    let fast_elapsed = start.elapsed();
    println!("{}", fast.to_table());
    println!("quadtree path: {fast_elapsed:?}\n");

    // Rewrite disabled: brute-force nested loop evaluating st_contains for
    // every (trip, city) pair — the Hive-MapReduce-style plan of §VI.C.
    let brute_session = session
        .clone()
        .with_optimizer(OptimizerConfig { geo_rewrite: false, ..OptimizerConfig::default() });
    println!("optimized plan (rewrite OFF → keyless join, st_contains filters every pair):");
    println!("{}", platform.engine.explain(sql, &brute_session)?);
    #[allow(clippy::disallowed_methods, reason = "the example prints real query time")]
    let start = Instant::now();
    let brute = platform.engine.execute_with_session(sql, &brute_session)?;
    let brute_elapsed = start.elapsed();

    assert_eq!(fast.rows(), brute.rows(), "both plans must agree");
    let speedup = brute_elapsed.as_secs_f64() / fast_elapsed.as_secs_f64().max(1e-9);
    println!("brute force path: {brute_elapsed:?}");
    println!("\nQuadTree speedup: {speedup:.1}x (paper reports >50x at production scale)");
    Ok(())
}
