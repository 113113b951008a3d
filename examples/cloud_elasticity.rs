//! Presto on cloud (§IX): S3-backed storage through `PrestoS3FileSystem`
//! (lazy seek, exponential backoff, multipart upload) and graceful cluster
//! expansion/shrink.
//!
//! Run with: `cargo run --release --example cloud_elasticity`
#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use std::sync::Arc;
use std::time::Duration;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::CounterSet;
use presto_common::{Block, DataType, Field, Page, Schema, SimClock};
use presto_connectors::hive::HiveConnector;
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::s3::{S3Config, S3FsConfig};
use presto_storage::{PrestoS3FileSystem, S3ObjectStore};

fn main() -> presto_common::Result<()> {
    println!("== Presto on cloud: S3 + elasticity (§IX) ==\n");

    // ---- S3-backed warehouse (the Pinterest deployment shape, §II.D)
    let clock = SimClock::new();
    let store = S3ObjectStore::new(
        S3Config { fail_every: 97 }, // occasional 503s
        clock.clone(),
        CounterSet::new(),
    );
    let s3fs = PrestoS3FileSystem::new(store.clone(), S3FsConfig::default());

    let engine = PrestoEngine::new();
    let hive = HiveConnector::new(Arc::new(s3fs), CounterSet::new());
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("city", DataType::Varchar),
    ])
    .unwrap();
    hive.register_table("web", "pins", schema, "/bucket/warehouse/pins", Some("ds"));
    for day in ["d1", "d2"] {
        hive.add_partition("web", "pins", day, true)?;
        for file in 0..4 {
            let page = Page::new(vec![
                Block::bigint((0..5000).collect()),
                Block::varchar(&(0..5000).map(|i| format!("c{}", i % 20)).collect::<Vec<_>>()),
            ])?;
            hive.write_data_file(
                "web",
                "pins",
                Some(day),
                &format!("part-{file}.upq"),
                &[page],
                WriterMode::Native,
                WriterProperties::default(),
            )?;
        }
    }
    engine.register_catalog("hive", Arc::new(hive));
    println!(
        "wrote warehouse to S3: {} PUT, {} multipart parts, {} retries after 503s",
        store.metrics().get("s3.put"),
        store.metrics().get("s3.upload_part"),
        store.metrics().get("s3fs.retries"),
    );

    // ---- a cluster over it, expanding and shrinking with load
    let cluster = PrestoCluster::new(
        "cloud",
        engine,
        ClusterConfig {
            initial_workers: 2,
            grace_period: Duration::from_secs(120),
            ..ClusterConfig::default()
        },
        clock.clone(),
    );
    let session = Session::new("hive", "web");
    let sql = "SELECT city, count(*) AS pins FROM pins GROUP BY city ORDER BY 2 DESC LIMIT 5";

    println!("\nbusy hours: expanding 2 → 6 workers");
    cluster.expand(4);
    let result = cluster.execute(sql, &session)?;
    println!("{}", result.to_table());
    println!(
        "active workers: {}, tasks executed: {}",
        cluster.active_workers().len(),
        cluster.metrics().get("cluster.tasks"),
    );

    println!("\nnon-busy hours: gracefully shrinking 4 workers");
    for id in 2..6 {
        cluster.decommission_worker(id)?;
    }
    // queries keep succeeding while workers drain (the §IX guarantee)
    for i in 0..4 {
        cluster.execute(sql, &session)?;
        clock.advance(Duration::from_secs(60));
        let live = cluster.tick();
        println!("  t+{}m: live workers = {live}", (i + 1));
    }
    clock.advance(Duration::from_secs(240));
    let live = cluster.tick();
    println!("after both grace periods: live workers = {live}");
    assert_eq!(live, 2);
    assert_eq!(cluster.metrics().get("cluster.queries_failed"), 0);
    println!(
        "\n{} queries ran during shrink, 0 failed — graceful shutdown preserved them all.",
        cluster.queries_started()
    );
    Ok(())
}
