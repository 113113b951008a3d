//! `ingest_write`: the write side of the file format (Figs 18–20). An op is
//! one `HiveConnector::write_data_file` of a pre-built page; each template
//! rotates over four file slots so the in-memory filesystem stays bounded.
//! A pass is 25 writes: 4 `flat_fast`, 20 `nested_fast`, 1 `flat_deep`.
//! After the timed section every table is read back through SQL and compared
//! with totals computed from the pages that were written.

use std::sync::Arc;

use presto_common::metrics::{names, CounterSet};
use presto_common::{Block, Page, Schema};
use presto_connectors::hive::HiveConnector;
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_core::{PrestoEngine, Session};
use presto_parquet::{Codec, FileWriter, WriterMode, WriterProperties};
use presto_storage::{FileSystem, HdfsFileSystem};

use crate::data;
use crate::digest::{Check, Digest};
use crate::fixture::{Scale, LINEITEM_DATA_SEED};
use crate::metrics::Values;
use crate::probes;
use crate::span::Tracer;
use crate::speed::Calibrator;
use crate::templates::Instance;
use crate::workload::{Accumulator, Answer, OpStream, Scaling, Workload};

const SLOTS: usize = 4;
/// Writes per pass of `flat_fast`, `nested_fast`, `flat_deep`: 25 in all.
/// One slow `flat_deep` write in 25 puts p98 on its median; `nested_fast`
/// holds the middle 80% so p50 falls well inside its block, not on the edge
/// between two templates of similar cost.
const REPEATS: [usize; 3] = [4, 20, 1];
const SCHEMA: &str = "ingest";

struct WriteTemplate {
    table: &'static str,
    schema: Schema,
    page: Page,
    codec: Codec,
    /// Read-back query and the total it must return per written file.
    check_sql: String,
    sum_per_file: f64,
    writes: usize,
}

pub struct IngestWrite {
    hdfs: HdfsFileSystem,
    hive: HiveConnector,
    engine: PrestoEngine,
    session: Session,
    templates: Vec<WriteTemplate>,
    instances: Vec<Instance>,
    file_rows: usize,
}

fn double_sum(block: &Block) -> f64 {
    match block {
        Block::Double { values, .. } => values.iter().sum(),
        Block::Row { children, .. } => double_sum(&children[6]), // base.fare
        _ => 0.0,
    }
}

impl IngestWrite {
    pub fn build(scale: Scale) -> IngestWrite {
        let file_rows = scale.ingest_file_rows();
        let hdfs = HdfsFileSystem::with_defaults();
        let hive = HiveConnector::new(Arc::new(hdfs.clone()), CounterSet::new());
        let lineitem = generate_lineitem(0, file_rows, LINEITEM_DATA_SEED)
            .expect("generator output matches its schema");
        let trips = data::trips_file_page(0, 0, file_rows, file_rows);
        let quantity = double_sum(lineitem.block(4));
        let fare = double_sum(trips.block(0));
        let flat = |table, codec| WriteTemplate {
            table,
            schema: lineitem_schema(),
            page: lineitem.clone(),
            codec,
            check_sql: format!("SELECT count(*), sum(quantity) FROM {table}"),
            sum_per_file: quantity,
            writes: 0,
        };
        let templates = vec![
            flat("flat_fast", Codec::Fast),
            WriteTemplate {
                table: "nested_fast",
                schema: data::trips_schema(),
                page: trips,
                codec: Codec::Fast,
                check_sql: "SELECT count(*), sum(base.fare) FROM nested_fast".to_string(),
                sum_per_file: fare,
                writes: 0,
            },
            flat("flat_deep", Codec::Deep),
        ];
        for t in &templates {
            let location = format!("/warehouse/{SCHEMA}/{}", t.table);
            hive.register_table(SCHEMA, t.table, t.schema.clone(), &location, None);
        }
        let engine = PrestoEngine::new();
        engine.register_catalog("hive", Arc::new(hive.clone()));
        let instances = templates
            .iter()
            .map(|t| Instance {
                template: t.table,
                class: t.table,
                check: Check::CountOnly,
                sql: format!("WRITE {file_rows} rows INTO {}", t.table),
            })
            .collect();
        IngestWrite {
            hdfs,
            hive,
            engine,
            session: Session::new("hive", SCHEMA),
            templates,
            instances,
            file_rows,
        }
    }

    fn properties(&self, codec: Codec) -> WriterProperties {
        WriterProperties { codec, row_group_rows: self.file_rows, ..WriterProperties::default() }
    }

    fn next_slot(&mut self, template: usize) -> String {
        let t = &mut self.templates[template];
        t.writes += 1;
        format!("slot-{}.upq", (t.writes - 1) % SLOTS)
    }

    fn write(&mut self, template: usize) -> Result<String, String> {
        let file = self.next_slot(template);
        let t = &self.templates[template];
        self.hive
            .write_data_file(
                SCHEMA,
                t.table,
                None,
                &file,
                std::slice::from_ref(&t.page),
                WriterMode::Native,
                self.properties(t.codec),
            )
            .map_err(|e| e.to_string())
    }
}

impl Workload for IngestWrite {
    fn instances(&self) -> &[Instance] {
        &self.instances
    }

    fn stream(&self, seed: u64) -> OpStream {
        OpStream::passes(REPEATS.to_vec(), 1, seed)
    }

    fn execute(&mut self, instance: usize) -> Result<Answer, String> {
        self.write(instance).map(|_| Answer::Written { rows: self.file_rows as u64 })
    }

    fn oracle(&mut self) -> Vec<Result<Digest, String>> {
        vec![Ok(Digest { rows: self.file_rows as u64, hash: 0 }); self.templates.len()]
    }

    fn traced(
        &mut self,
        instance: usize,
        op: u32,
        tracer: &mut Tracer,
        acc: &mut Accumulator,
    ) -> Result<Answer, String> {
        // the facade, with the storage counters it moved
        let write_ops = self.hdfs.metrics().get(names::HDFS_WRITE_OPS);
        let clock = self.hdfs.clock().now();
        let span = tracer.begin(op, "facade");
        let written = self.write(instance);
        tracer.end(span);
        let path = written?;
        let size = self.hdfs.backing_store().get_file_info(&path).map_err(|e| e.to_string())?.size;
        acc.add(
            "hdfs_write_ops",
            (self.hdfs.metrics().get(names::HDFS_WRITE_OPS) - write_ops) as f64,
        );
        acc.add("hdfs_write_bytes", size as f64);
        acc.add("hdfs_sim_io_ms", (self.hdfs.clock().now() - clock).as_secs_f64() * 1e3);
        acc.add("result_rows", self.file_rows as f64);
        if instance == 0 {
            let per_row = size as f64 / self.file_rows as f64;
            acc.sample("file_bytes_per_row", op, per_row, Scaling::None);
        }

        // stepped: the same write, one public call at a time, into the same slot
        let file = self.next_slot(instance);
        let t = &self.templates[instance];
        let root = tracer.begin(op, "stepped");
        let result = (|| {
            let span = tracer.begin(op, "parquet.writer_new");
            let writer =
                FileWriter::new(t.schema.clone(), self.properties(t.codec), WriterMode::Native);
            tracer.end(span);
            let mut writer = writer?;
            let span = tracer.begin(op, "parquet.write_page");
            let wrote = writer.write_page(&t.page);
            tracer.end(span);
            wrote?;
            let span = tracer.begin(op, "parquet.finish");
            let bytes = writer.finish();
            tracer.end(span);
            let span = tracer.begin(op, "storage.write");
            let stored = bytes.and_then(|b| {
                self.hdfs.write(&format!("/warehouse/{SCHEMA}/{}/{file}", t.table), &b)
            });
            tracer.end(span);
            stored
        })();
        tracer.end(root);
        result.map_err(|e| e.to_string())?;
        Ok(Answer::Written { rows: self.file_rows as u64 })
    }

    fn probes(&mut self, values: &mut Values, cal: &mut Calibrator) {
        let flat = &self.templates[0];
        let nested = &self.templates[1];
        probes::parquet_write(&flat.schema, &flat.page, &nested.schema, &nested.page, values, cal);
    }

    fn verify_after(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for t in &self.templates {
            let files = t.writes.min(SLOTS) as f64;
            let expected = (files * self.file_rows as f64, files * t.sum_per_file);
            let ok = self
                .engine
                .execute_with_session(&t.check_sql, &self.session)
                .ok()
                .and_then(|result| result.rows().into_iter().next())
                .is_some_and(|row| {
                    let number = |v: &presto_common::Value| match v {
                        presto_common::Value::Bigint(n) => *n as f64,
                        presto_common::Value::Double(d) => *d,
                        _ => f64::NAN,
                    };
                    let (count, sum) = (number(&row[0]), number(&row[1]));
                    count == expected.0 && (sum - expected.1).abs() <= expected.1.abs() * 1e-9
                });
            if !ok {
                eprintln!("read-back of {} disagrees with the pages written", t.table);
                failed += 1;
            }
        }
        (self.templates.len() as u64, failed)
    }
}
