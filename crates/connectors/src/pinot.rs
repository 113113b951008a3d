//! The Presto-Pinot connector (§IV.B).
//!
//! Uber "is leveraging Apache Pinot for real time streaming processing"
//! (§IV); like Druid, Pinot serves sub-second filtered aggregations from
//! inverted indexes, and the connector bridges it to full SQL via
//! aggregation pushdown. The store personality differs slightly: smaller
//! segments and a lower per-query base (Pinot's broker fan-out is lighter),
//! but the connector machinery is shared with [`crate::druid`].

use std::time::Duration;

use crate::realtime::{RealtimeConnector, RealtimeCostModel, RealtimeStore};

/// Default rows per Pinot segment.
pub const PINOT_ROWS_PER_SEGMENT: usize = 5_000;

/// A fresh Pinot store with the Pinot cost personality.
pub fn pinot_store() -> RealtimeStore {
    RealtimeStore::new(
        "pinot",
        PINOT_ROWS_PER_SEGMENT,
        RealtimeCostModel {
            per_segment_base: Duration::from_micros(400),
            per_matched_row: Duration::from_nanos(120),
            per_streamed_row: Duration::from_micros(2),
        },
    )
}

/// A connector over a fresh Pinot store.
pub fn pinot_connector() -> RealtimeConnector {
    RealtimeConnector::new(pinot_store())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spi::{AggregationPushdown, ColumnPath, Connector, ScanHooks, ScanRequest};
    use presto_common::{DataType, Field, Schema, Value};
    use presto_expr::AggregateFunction;

    #[test]
    fn pinot_connector_round_trip() {
        let c = pinot_connector();
        let schema = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("city", DataType::Varchar),
            Field::new("orders", DataType::Bigint),
        ])
        .unwrap();
        c.store().create_table("eats", "orders_rt", schema).unwrap();
        c.store()
            .ingest(
                "eats",
                "orders_rt",
                (0..12_000)
                    .map(|i| {
                        vec![
                            Value::Timestamp(i as i64),
                            Value::Varchar(format!("city{}", i % 3)),
                            Value::Bigint(1),
                        ]
                    })
                    .collect(),
            )
            .unwrap();

        assert_eq!(c.name(), "pinot");
        let request = ScanRequest {
            aggregation: Some(AggregationPushdown {
                group_by: vec![ColumnPath::whole("city")],
                aggregates: vec![(AggregateFunction::Sum, Some(ColumnPath::whole("orders")))],
            }),
            ..ScanRequest::default()
        };
        let splits = c.splits("eats", "orders_rt", &request).unwrap();
        let mut totals = std::collections::BTreeMap::new();
        for s in &splits {
            for p in c.scan_split(s, &request, &ScanHooks::none()).unwrap() {
                for i in 0..p.positions() {
                    let row = p.row(i);
                    *totals.entry(row[0].to_string()).or_insert(0i64) += row[1].as_i64().unwrap();
                }
            }
        }
        assert_eq!(totals["city0"], 4000);
        assert_eq!(totals["city1"], 4000);
        assert_eq!(totals["city2"], 4000);
    }
}
