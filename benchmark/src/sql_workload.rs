//! The four SQL workloads: one implementation over a [`SqlFixture`], differing
//! in tables, templates, how ops are drawn, and which facade they go through.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use presto_common::metrics::{names, CounterSet};
use presto_core::QueryResult;

use crate::digest::Digest;
use crate::fixture::{self, Scale, SqlFixture};
use crate::metrics::Values;
use crate::probes;
use crate::span::Tracer;
use crate::speed::Calibrator;
use crate::stepped::run_stepped;
use crate::templates::{self, Instance};
use crate::workload::{Accumulator, Answer, OpStream, Scaling, Workload};

/// Literal variants rendered per template; with 21 templates, 63 instances.
const VARIANTS: usize = 3;
/// Ops per Zipf batch (one "pass" of `cluster_repeat`).
const ZIPF_BATCH: usize = 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lake,
    MemExec,
    Realtime,
    Cluster,
}

pub struct SqlWorkload {
    kind: Kind,
    scale: Scale,
    fixture: SqlFixture,
    instances: Vec<Instance>,
    /// Times each template is issued per pass.
    repeats: Vec<usize>,
    /// Distinct `(plan fingerprint, split)` keys the traced ops touched.
    cache_keys: BTreeSet<(u64, String)>,
}

fn new(kind: Kind, scale: Scale, fixture: SqlFixture, seed: u64) -> SqlWorkload {
    let set = match kind {
        Kind::Lake | Kind::Cluster => templates::lake_templates(),
        Kind::MemExec => templates::mem_exec_templates(),
        Kind::Realtime => templates::realtime_templates(),
    };
    SqlWorkload {
        kind,
        scale,
        fixture,
        instances: templates::instantiate(&set, VARIANTS, seed),
        repeats: set.iter().map(|t| t.per_pass).collect(),
        cache_keys: BTreeSet::new(),
    }
}

pub fn lake_adhoc(scale: Scale, seed: u64) -> SqlWorkload {
    new(Kind::Lake, scale, fixture::build_lake(scale), seed)
}

pub fn mem_exec(scale: Scale, seed: u64) -> SqlWorkload {
    new(Kind::MemExec, scale, fixture::build_mem_exec(scale), seed)
}

pub fn realtime_dash(scale: Scale, seed: u64) -> SqlWorkload {
    new(Kind::Realtime, scale, fixture::build_realtime(scale), seed)
}

pub fn cluster_repeat(scale: Scale, seed: u64) -> SqlWorkload {
    new(Kind::Cluster, scale, fixture::build_cluster(scale), seed)
}

/// Four `(accumulator key, counter name)` pairs read together.
type Counters = [(&'static str, &'static str); 4];

fn add_deltas(acc: &mut Accumulator, of: &Counters, before: [u64; 4], after: [u64; 4]) {
    for (i, (key, _)) in of.iter().enumerate() {
        acc.add(key, (after[i] - before[i]) as f64);
    }
}

impl SqlWorkload {
    fn facade(&self, sql: &str) -> presto_common::Result<QueryResult> {
        match &self.fixture.cluster {
            Some(cluster) => cluster.execute(sql, &self.fixture.session),
            None => self.fixture.engine.execute_with_session(sql, &self.fixture.session),
        }
    }

    /// `cluster_repeat` only: the op through the cluster, with the fragment
    /// cache and scheduler counters it moved. Returns its wall time and
    /// whether every cacheable split was served from the cache.
    fn traced_cluster_op(
        &self,
        sql: &str,
        op: u32,
        tracer: &mut Tracer,
        acc: &mut Accumulator,
    ) -> Result<Option<(f64, bool)>, String> {
        let Some(cluster) = &self.fixture.cluster else { return Ok(None) };
        let counters = cluster.metrics();
        let read = |name| counters.get(name);
        let before = [
            read(names::FRC_HITS),
            read(names::FRC_MISSES),
            read(names::CLUSTER_TASKS),
            read(names::CLUSTER_SPLIT_RETRIES),
        ];
        let span = tracer.begin(op, "cluster.execute");
        let start = Instant::now();
        let result = cluster.execute(sql, &self.fixture.session);
        let wall = start.elapsed();
        tracer.end(span);
        let result = result.map_err(|e| e.to_string())?;
        let hits = read(names::FRC_HITS) - before[0];
        let misses = read(names::FRC_MISSES) - before[1];
        acc.add("frc_hits", hits as f64);
        acc.add("frc_misses", misses as f64);
        acc.add("cluster_tasks", (read(names::CLUSTER_TASKS) - before[2]) as f64);
        acc.add("split_retries", (read(names::CLUSTER_SPLIT_RETRIES) - before[3]) as f64);
        let wall_ms = wall.as_secs_f64() * 1e3;
        let all_hits = hits > 0 && misses == 0;
        let which = if all_hits { "cluster_hit_ms" } else { "cluster_miss_ms" };
        acc.sample(which, op, wall_ms, Scaling::Duration);
        acc.sample(
            "cluster_virtual_over_wall",
            op,
            result.info.latency.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            Scaling::PerDuration,
        );
        Ok(Some((wall_ms, all_hits)))
    }
}

impl Workload for SqlWorkload {
    fn instances(&self) -> &[Instance] {
        &self.instances
    }

    fn stream(&self, seed: u64) -> OpStream {
        match self.kind {
            Kind::Cluster => OpStream::zipf(self.repeats.len(), VARIANTS, ZIPF_BATCH, seed),
            _ => OpStream::passes(self.repeats.clone(), VARIANTS, seed),
        }
    }

    fn execute(&mut self, instance: usize) -> Result<Answer, String> {
        self.facade(&self.instances[instance].sql)
            .map(|result| Answer::Pages(result.pages))
            .map_err(|e| e.to_string())
    }

    fn oracle(&mut self) -> Vec<Result<Digest, String>> {
        // templates without literals render the same text for every variant
        let mut by_sql: BTreeMap<&str, Result<Digest, String>> = BTreeMap::new();
        self.instances
            .iter()
            .map(|instance| {
                by_sql
                    .entry(&instance.sql)
                    .or_insert_with(|| {
                        self.fixture
                            .reference
                            .execute_with_session(&instance.sql, &self.fixture.reference_session)
                            .map(|result| Answer::Pages(result.pages).digest(instance.check))
                            .map_err(|e| e.to_string())
                    })
                    .clone()
            })
            .collect()
    }

    fn traced(
        &mut self,
        instance: usize,
        op: u32,
        tracer: &mut Tracer,
        acc: &mut Accumulator,
    ) -> Result<Answer, String> {
        let sql = &self.instances[instance].sql;
        let fx = &self.fixture;
        let cluster_op = self.traced_cluster_op(sql, op, tracer, acc)?;

        // the engine facade, with the storage and metadata-cache counters it moved
        const HDFS: Counters = [
            ("hdfs_read_ops", names::HDFS_READ_OPS),
            ("hdfs_read_bytes", names::HDFS_READ_BYTES),
            ("hdfs_list_files", names::HDFS_LIST_FILES),
            ("hdfs_get_file_info", names::HDFS_GET_FILE_INFO),
        ];
        const HIVE: Counters = [
            ("flc_hits", names::FLC_HITS),
            ("flc_misses", names::FLC_MISSES),
            ("fhc_hits", names::FHC_HITS),
            ("fhc_misses", names::FHC_MISSES),
        ];
        let read = |set: &CounterSet, of: &Counters| of.map(|(_, name)| set.get(name));
        let hdfs_before = fx.hdfs.as_ref().map(|h| (read(h.metrics(), &HDFS), h.clock().now()));
        let hive_before = fx.hive.as_ref().map(|h| read(h.metrics(), &HIVE));
        let span = tracer.begin(op, "facade");
        let start = Instant::now();
        let result = fx.engine.execute_with_session(sql, &fx.session);
        let wall = start.elapsed();
        tracer.end(span);
        let result = result.map_err(|e| e.to_string())?;
        if let (Some(hdfs), Some((before, clock))) = (&fx.hdfs, hdfs_before) {
            add_deltas(acc, &HDFS, before, read(hdfs.metrics(), &HDFS));
            acc.add("hdfs_sim_io_ms", (hdfs.clock().now() - clock).as_secs_f64() * 1e3);
        }
        if let (Some(hive), Some(before)) = (&fx.hive, hive_before) {
            add_deltas(acc, &HIVE, before, read(hive.metrics(), &HIVE));
        }
        let wall_ms = wall.as_secs_f64() * 1e3;
        acc.sample(
            "virtual_over_wall",
            op,
            result.info.latency.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            Scaling::PerDuration,
        );
        let reserved = result.metrics.get(names::MEMORY_RESERVED_PEAK) as f64;
        acc.sample("peak_reserved_bytes", op, reserved, Scaling::None);
        acc.add("spilled_ops", f64::from(u8::from(result.metrics.get(names::SPILL_FILES) > 0)));
        acc.add("result_rows", result.row_count() as f64);
        if let Some((cluster_ms, false)) = cluster_op {
            acc.sample("cluster_over_engine_ms", op, cluster_ms - wall_ms, Scaling::Duration);
        }
        drop(result);

        let stepped = run_stepped(&fx.engine, &fx.session, sql, op, tracer)?;
        acc.add("splits", stepped.splits as f64);
        acc.add("rows_emitted", stepped.rows_emitted as f64);
        let addressed: u64 =
            stepped.tables.iter().map(|t| fx.table_rows.get(t).copied().unwrap_or(0)).sum();
        acc.add("rows_addressed", addressed as f64);
        self.cache_keys.extend(stepped.cache_keys);
        Ok(Answer::Pages(stepped.pages))
    }

    fn probes(&mut self, values: &mut Values, cal: &mut Calibrator) {
        values.insert("resource.admit_ns", probes::admit_ns(&self.fixture.engine, cal));
        match self.kind {
            Kind::Lake => probes::parquet_read(self.scale, values, cal),
            Kind::MemExec => probes::expr(&self.fixture.engine, values, cal),
            Kind::Realtime => {}
            Kind::Cluster => {
                probes::fragment_cache(self.scale, values, cal);
                values.insert("cache.frc_working_set_keys", self.cache_keys.len() as f64);
                values.insert(
                    "cache.frc_capacity",
                    (fixture::FRAGMENT_CACHE_ENTRIES * fixture::CLUSTER_WORKERS as usize) as f64,
                );
            }
        }
    }
}
