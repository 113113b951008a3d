//! Deterministic table data, built as typed blocks (no per-row `Value`s) so
//! set-up stays a small part of a run.
//!
//! Data does not depend on `--seed`: the seed picks literals and op order,
//! and every literal of one template selects the same number of rows, so a
//! run's cost does not depend on which seed it got. Doubles are dyadic
//! rationals (multiples of 1/8, 1/4, 1/2): their sums are exact in `f64`
//! whatever the order, so two execution paths agree to the last bit.

use presto_common::{Block, DataType, Field, Page, Schema, Value};

/// Distinct `base.city_id` values. 48 = 3 × 16: with rows clustered by city
/// and 16 row groups per 60k-row partition, every city lies inside exactly
/// one row group, so a needle query costs the same for any city literal.
pub const NUM_CITIES: usize = 48;
/// Rows of the MySQL `cities` dimension (cities 48 and 49 match no trip).
pub const DIM_CITIES: usize = 50;
pub const DAYS: [&str; 2] = ["2017-03-01", "2017-03-02"];
pub const STATUSES: [&str; 4] = ["completed", "canceled", "arrived", "dispatched"];
pub const PRODUCTS: [&str; 5] = ["uberx", "pool", "black", "xl", "eats"];

pub const COUNTRIES: [&str; 8] = ["us", "in", "br", "de", "jp", "fr", "gb", "mx"];
pub const DEVICES: [&str; 3] = ["ios", "android", "web"];
pub const NUM_CAMPAIGNS: usize = 40;

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

fn workflow_fields() -> Vec<Field> {
    vec![
        Field::new("code", DataType::Integer),
        Field::new("tags", DataType::array(DataType::Varchar)),
    ]
}

/// The nested trips *file* schema of Fig 17: one `base` struct of 16
/// scalars, a struct holding an array, and a map — 20 leaf columns.
pub fn trips_schema() -> Schema {
    Schema::new(vec![Field::new("base", DataType::row(base_fields()))]).expect("static schema")
}

/// The trips schema as a query sees it: file columns plus the partition key.
pub fn trips_table_schema() -> Schema {
    Schema::new(vec![
        Field::new("base", DataType::row(base_fields())),
        Field::new("datestr", DataType::Varchar),
    ])
    .expect("static schema")
}

/// The `base` block for rows `start..start + rows` of partition `day`, in a
/// partition of `partition_rows` rows clustered by city.
fn trips_base(day: usize, start: usize, rows: usize, partition_rows: usize) -> Block {
    // the second day is the first one shifted, so partitions differ
    let ids = || (start..start + rows).map(move |i| i + day * 7);
    let strings = |f: &dyn Fn(usize) -> String| {
        let owned: Vec<String> = ids().map(f).collect();
        Block::varchar(&owned)
    };
    let names = |table: &[&'static str]| {
        Block::varchar(&ids().map(|i| table[i % table.len()]).collect::<Vec<_>>())
    };
    let doubles = |f: &dyn Fn(usize) -> f64| Block::double(ids().map(f).collect());
    let bigints = |f: &dyn Fn(usize) -> i64| Block::bigint(ids().map(f).collect());
    let timestamps = |offset: i64| Block::Timestamp {
        values: ids().map(|i| i as i64 * 1000 + offset).collect(),
        nulls: None,
    };

    let one_per_row: Vec<u32> = (0..=rows as u32).collect();
    let two_per_row: Vec<u32> = (0..=rows as u32).map(|i| i * 2).collect();
    let workflow = Block::Row {
        fields: workflow_fields(),
        children: vec![
            Block::integer(ids().map(|i| (i % 7) as i32).collect()),
            Block::Array {
                element_type: DataType::Varchar,
                offsets: one_per_row,
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
        offsets: two_per_row,
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
        // clustered on the un-shifted row index → tight row-group min/max
        Block::bigint(
            (start..start + rows).map(|i| (i * NUM_CITIES / partition_rows) as i64).collect(),
        ),
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
    Block::Row { fields: base_fields(), children, len: rows, nulls: None }
}

/// One page of the trips *file* schema.
pub fn trips_file_page(day: usize, start: usize, rows: usize, partition_rows: usize) -> Page {
    Page::new(vec![trips_base(day, start, rows, partition_rows)]).expect("one block")
}

/// The same rows as a page of the *table* schema (with `datestr`), for the
/// in-memory reference table the oracle queries.
pub fn trips_table_page(day: usize, start: usize, rows: usize, partition_rows: usize) -> Page {
    Page::new(vec![
        trips_base(day, start, rows, partition_rows),
        Block::varchar(&vec![DAYS[day]; rows]),
    ])
    .expect("equal lengths")
}

pub fn cities_schema() -> Schema {
    Schema::new(vec![
        Field::new("city_id", DataType::Bigint),
        Field::new("name", DataType::Varchar),
        Field::new("region", DataType::Varchar),
    ])
    .expect("static schema")
}

/// The 50-row city dimension. Names are zero-padded so that name order and
/// id order agree (a total `ORDER BY name`).
pub fn cities_rows() -> Vec<Vec<Value>> {
    (0..DIM_CITIES)
        .map(|c| {
            vec![
                Value::Bigint(c as i64),
                Value::Varchar(format!("city{c:02}")),
                Value::Varchar(format!("region{}", c % 5)),
            ]
        })
        .collect()
}

/// Fig 16's Druid `events` table.
pub fn events_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("country", DataType::Varchar),
        Field::new("device", DataType::Varchar),
        Field::new("campaign", DataType::Varchar),
        Field::new("clicks", DataType::Bigint),
        Field::new("revenue", DataType::Double),
    ])
    .expect("static schema")
}

/// Event rows `start..start + rows`, as the row-oriented ingest API wants.
pub fn events_rows(start: usize, rows: usize) -> Vec<Vec<Value>> {
    (start..start + rows)
        .map(|i| {
            vec![
                Value::Timestamp(i as i64 * 100),
                Value::Varchar(COUNTRIES[i % COUNTRIES.len()].into()),
                Value::Varchar(DEVICES[i % DEVICES.len()].into()),
                Value::Varchar(format!("camp{:02}", i % NUM_CAMPAIGNS)),
                Value::Bigint((i % 100) as i64),
                Value::Double((i % 1000) as f64 * 0.125),
            ]
        })
        .collect()
}

/// The same event rows as one typed page (reference table).
pub fn events_page(start: usize, rows: usize) -> Page {
    let ids = || start..start + rows;
    let campaigns: Vec<String> = ids().map(|i| format!("camp{:02}", i % NUM_CAMPAIGNS)).collect();
    Page::new(vec![
        Block::Timestamp { values: ids().map(|i| i as i64 * 100).collect(), nulls: None },
        Block::varchar(&ids().map(|i| COUNTRIES[i % COUNTRIES.len()]).collect::<Vec<_>>()),
        Block::varchar(&ids().map(|i| DEVICES[i % DEVICES.len()]).collect::<Vec<_>>()),
        Block::varchar(&campaigns),
        Block::bigint(ids().map(|i| (i % 100) as i64).collect()),
        Block::double(ids().map(|i| (i % 1000) as f64 * 0.125).collect()),
    ])
    .expect("equal lengths")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_pages_match_their_schemas_and_cluster_by_city() {
        assert_eq!(trips_schema().leaf_count(), 20);
        let page = trips_file_page(0, 0, 960, 960);
        assert_eq!(page.positions(), 960);
        assert_eq!(page.block(0).data_type(), trips_schema().field_at(0).data_type);
        let Value::Row(first) = page.block(0).value(0) else { panic!("row") };
        let Value::Row(last) = page.block(0).value(959) else { panic!("row") };
        assert_eq!(first[2], Value::Bigint(0));
        assert_eq!(last[2], Value::Bigint(NUM_CITIES as i64 - 1));
        assert_eq!(
            first[17],
            Value::Map(vec![
                (Value::Varchar("eta_error".into()), Value::Double(0.0)),
                (Value::Varchar("route_score".into()), Value::Double(0.0)),
            ])
        );
        // a slice of the partition equals the same rows of the whole
        let tail = trips_file_page(0, 900, 60, 960);
        assert_eq!(tail.block(0).value(59), page.block(0).value(959));
        // the two days differ, the table page carries the partition key
        assert_ne!(trips_file_page(1, 0, 10, 960), trips_file_page(0, 0, 10, 960));
        let table = trips_table_page(1, 0, 4, 960);
        assert_eq!(table.block(1).value(3), Value::Varchar(DAYS[1].into()));
    }

    #[test]
    fn event_rows_and_pages_hold_the_same_values() {
        let rows = events_rows(95, 10);
        let page = events_page(95, 10);
        assert_eq!(page.rows(), rows);
        assert_eq!(page.column_count(), events_schema().len());
    }
}
