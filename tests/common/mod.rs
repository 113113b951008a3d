//! Data shared by the file-format tests: Fig 17's nested trips schema (one
//! `base` struct of 16 scalars, a struct holding an array, and a map — 20
//! leaf columns), built as typed blocks so a test that counts allocations or
//! digests bytes starts from the page a connector would hand the writer; and
//! the nested type the round-trip tests generate values of. Also the
//! 12-split table and the cluster over it that the elasticity, fault
//! tolerance and speculation suites share.

#![allow(dead_code)]

use std::sync::Arc;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::{Block, DataType, Field, Page, Schema, SimClock};
use presto_connectors::memory::MemoryConnector;
use presto_connectors::tpch::TpchConnector;
use presto_core::PrestoEngine;

/// 12-page table `t` → 12 splits per scan, spread across the workers; plus
/// the TPC-H catalog, whose splits (unlike memory splits) are
/// result-cacheable.
pub fn engine_with_table() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    let pages: Vec<Page> = (0..12)
        .map(|p| Page::new(vec![Block::bigint((p * 50..p * 50 + 50).collect())]).unwrap())
        .collect();
    memory.create_table("default", "t", schema, pages).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    engine.register_catalog("tpch", Arc::new(TpchConnector::new()));
    engine
}

/// A cluster over [`engine_with_table`].
pub fn cluster(config: ClusterConfig) -> Arc<PrestoCluster> {
    PrestoCluster::new("test", engine_with_table(), config, SimClock::new())
}

const STATUSES: [&str; 4] = ["completed", "canceled", "arrived", "dispatched"];
const PRODUCTS: [&str; 5] = ["uberx", "pool", "black", "xl", "eats"];

fn workflow_fields() -> Vec<Field> {
    vec![
        Field::new("code", DataType::Integer),
        Field::new("tags", DataType::array(DataType::Varchar)),
    ]
}

fn base_fields() -> Vec<Field> {
    vec![
        Field::new("driver_uuid", DataType::Varchar),
        Field::new("client_uuid", DataType::Varchar),
        Field::new("city_id", DataType::Bigint),
        Field::new("vehicle_id", DataType::Bigint),
        Field::new("status", DataType::Varchar),
        Field::new("product", DataType::Varchar),
        Field::new("fare", DataType::Double),
        Field::new("tip", DataType::Double),
        Field::new("distance_km", DataType::Double),
        Field::new("duration_s", DataType::Bigint),
        Field::new("surge", DataType::Double),
        Field::new("rating", DataType::Integer),
        Field::new("dest_lng", DataType::Double),
        Field::new("dest_lat", DataType::Double),
        Field::new("request_ts", DataType::Timestamp),
        Field::new("dropoff_ts", DataType::Timestamp),
        Field::new("workflow", DataType::row(workflow_fields())),
        Field::new("features", DataType::map(DataType::Varchar, DataType::Double)),
    ]
}

/// The nested trips file schema.
pub fn trips_schema() -> Schema {
    Schema::new(vec![Field::new("base", DataType::row(base_fields()))]).unwrap()
}

/// `rows` trips, NULL-free, clustered by city: one tag per row, two features.
pub fn trips_page(rows: usize) -> Page {
    let ids = || 0..rows;
    let strings = |f: &dyn Fn(usize) -> String| Block::varchar(&ids().map(f).collect::<Vec<_>>());
    let names =
        |table: &[&str]| Block::varchar(&ids().map(|i| table[i % table.len()]).collect::<Vec<_>>());
    let doubles = |f: &dyn Fn(usize) -> f64| Block::double(ids().map(f).collect());
    let bigints = |f: &dyn Fn(usize) -> i64| Block::bigint(ids().map(f).collect());
    let timestamps = |offset: i64| Block::Timestamp {
        values: ids().map(|i| i as i64 * 1000 + offset).collect(),
        nulls: None,
    };
    let workflow = Block::Row {
        fields: workflow_fields(),
        children: vec![
            Block::integer(ids().map(|i| (i % 7) as i32).collect()),
            Block::Array {
                element_type: DataType::Varchar,
                offsets: (0..=rows as u32).collect(),
                elements: Box::new(strings(&|i| format!("tag{}", i % 3))),
                nulls: None,
            },
        ],
        len: rows,
        nulls: None,
    };
    let features = Block::Map {
        key_type: DataType::Varchar,
        value_type: DataType::Double,
        offsets: (0..=rows as u32).map(|i| i * 2).collect(),
        keys: Box::new(Block::varchar(
            &(0..rows * 2)
                .map(|k| if k % 2 == 0 { "eta_error" } else { "route_score" })
                .collect::<Vec<_>>(),
        )),
        values: Box::new(Block::double(
            ids().flat_map(|i| [(i % 9) as f64, (i % 17) as f64]).collect(),
        )),
        nulls: None,
    };
    let children = vec![
        strings(&|i| format!("driver-{:06}", i % 5000)),
        strings(&|i| format!("client-{:06}", i % 20_000)),
        bigints(&|i| (i * 48 / rows.max(1)) as i64),
        bigints(&|i| (i % 3000) as i64),
        names(&STATUSES),
        names(&PRODUCTS),
        doubles(&|i| 5.0 + (i % 80) as f64 * 0.5),
        doubles(&|i| (i % 10) as f64 * 0.25),
        doubles(&|i| 1.0 + (i % 300) as f64 * 0.125),
        bigints(&|i| 300 + (i % 3600) as i64),
        doubles(&|i| 1.0 + (i % 5) as f64 * 0.125),
        Block::integer(ids().map(|i| (i % 5) as i32 + 1).collect()),
        doubles(&|i| -122.5 + (i % 100) as f64 / 1024.0),
        doubles(&|i| 37.75 + (i % 100) as f64 / 1024.0),
        timestamps(0),
        timestamps(900_000),
        workflow,
        features,
    ];
    let base = Block::Row { fields: base_fields(), children, len: rows, nulls: None };
    Page::new(vec![base]).unwrap()
}

/// `block` with every dictionary in it, at any depth, decoded: the plain
/// block of the same values, in the form [`Block::from_values`] builds.
pub fn decoded(block: &Block) -> Block {
    match block {
        Block::Dictionary { .. } => decoded(&block.decode_dictionary()),
        Block::Array { element_type, offsets, elements, nulls } => Block::Array {
            element_type: element_type.clone(),
            offsets: offsets.clone(),
            elements: Box::new(decoded(elements)),
            nulls: nulls.clone(),
        },
        Block::Map { key_type, value_type, offsets, keys, values, nulls } => Block::Map {
            key_type: key_type.clone(),
            value_type: value_type.clone(),
            offsets: offsets.clone(),
            keys: Box::new(decoded(keys)),
            values: Box::new(decoded(values)),
            nulls: nulls.clone(),
        },
        Block::Row { fields, children, len, nulls } => Block::Row {
            fields: fields.clone(),
            children: children.iter().map(decoded).collect(),
            len: *len,
            nulls: nulls.clone(),
        },
        plain => plain.clone(),
    }
}

/// Every shape the readers must get right: lists that are NULL, empty or
/// hold NULLs; a struct under a struct; a list of structs that hold lists
/// (and may themselves be NULL); a map to structs.
pub fn nested_test_type() -> DataType {
    DataType::row(vec![
        Field::new("id", DataType::Bigint),
        Field::new("name", DataType::Varchar),
        Field::new("tags", DataType::array(DataType::Varchar)),
        Field::new(
            "inner",
            DataType::row(vec![
                Field::new("score", DataType::Double),
                Field::new("flags", DataType::array(DataType::Bigint)),
            ]),
        ),
        Field::new("props", DataType::map(DataType::Varchar, DataType::Double)),
        Field::new(
            "legs",
            DataType::array(DataType::row(vec![
                Field::new("stop", DataType::Varchar),
                Field::new("codes", DataType::array(DataType::Bigint)),
            ])),
        ),
        Field::new(
            "attrs",
            DataType::map(
                DataType::Varchar,
                DataType::row(vec![
                    Field::new("weight", DataType::Double),
                    Field::new("on", DataType::Boolean),
                ]),
            ),
        ),
    ])
}
