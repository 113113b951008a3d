//! Named counters and latency histograms for reporting experiments.
//!
//! Several of the paper's results are expressed as call-count reductions
//! ("overall listFile calls is reduced to less than 40%", "almost 90% of
//! getFileInfo calls could be reduced", §VII). Simulators increment counters
//! here; experiments snapshot and compare them. The latency CDFs and
//! crossover plots (§V, §VI) need distributions rather than counts, so
//! [`Histogram`] keeps log-bucketed samples with `p(q)` quantile queries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Rank, RwLock};

/// Declares each metric name once, as a `&'static str` constant, and
/// [`names::ALL`] as the list of them all.
macro_rules! registry {
    ($( $(#[$doc:meta])* $name:ident = $value:literal; )*) => {
        $( $(#[$doc])* pub const $name: &str = $value; )*

        /// Every registered name, in declaration order. The sets below
        /// refuse (in debug builds) to create a metric whose name is not
        /// here, and no two entries may share a value.
        pub const ALL: &[&str] = &[$($name),*];
    };
}

/// Canonical counter, gauge, histogram and time-series names.
///
/// Every metric recorded anywhere is declared here, so a typo'd name is a
/// compile error at a `names::` path and a debug-build panic anywhere else,
/// never a metric that silently reads 0.
pub mod names {
    registry! {
        /// Connector splits scheduled by the local executor.
        EXEC_SPLITS = "exec.splits";
        /// Rows produced by table scans.
        EXEC_ROWS_SCANNED = "exec.rows_scanned";
        /// Fences loaded into the geospatial QuadTree index.
        EXEC_GEO_INDEX_FENCES = "exec.geo_index_fences";
        /// `st_contains` evaluations performed by the geo join.
        EXEC_GEO_CONTAINS_CALLS = "exec.geo_contains_calls";

        /// Spill files written by blocking operators.
        SPILL_FILES = "spill.files";
        /// Bytes written to spill storage.
        SPILL_BYTES_WRITTEN = "spill.bytes_written";
        /// Peak bytes reserved by a query against its memory pool.
        MEMORY_RESERVED_PEAK = "memory.reserved_peak";

        /// Queries a cluster started.
        CLUSTER_QUERIES = "cluster.queries";
        /// Distinct scan tasks (splits) a cluster scheduled.
        CLUSTER_TASKS = "cluster.tasks";
        /// Queries that started and then died.
        CLUSTER_QUERIES_FAILED = "cluster.queries_failed";
        /// Queries refused at the door (maintenance drain, unparseable or unplannable SQL).
        CLUSTER_QUERIES_REJECTED = "cluster.queries_rejected";
        /// Scheduling rounds in which a worker failed at least one task.
        CLUSTER_WORKER_FAILURES = "cluster.worker_failures";
        /// Splits reassigned to surviving workers after retryable failures.
        CLUSTER_SPLIT_RETRIES = "cluster.split_retries";
        /// Workers quarantined by the consecutive-failure blacklist.
        CLUSTER_BLACKLISTED_WORKERS = "cluster.blacklisted_workers";
        /// Scan fragments whose sibling-runtime yardstick was pre-seeded from a
        /// previous run of the same plan fingerprint (in-wave speculation).
        CLUSTER_SPECULATION_SEEDED = "cluster.speculation_seeded_fragments";
        /// Duplicate attempts launched for straggling splits.
        CLUSTER_SPECULATIVE_LAUNCHES = "cluster.speculative_launches";
        /// Speculative attempts that finished before the original.
        CLUSTER_SPECULATIVE_WINS = "cluster.speculative_wins";
        /// Speculative attempts cancelled or failed after the original won.
        CLUSTER_SPECULATIVE_WASTED = "cluster.speculative_wasted";
        /// Exchange deliveries retried after a mid-stream tear.
        CLUSTER_EXCHANGE_RETRIES = "cluster.exchange_retries";
        /// Workers that completed the graceful decommission lifecycle
        /// (Active → Draining → Decommissioned) and left the fleet.
        CLUSTER_WORKERS_DECOMMISSIONED = "cluster.workers_decommissioned";
        /// Queued splits a draining worker handed off to surviving workers.
        CLUSTER_SPLITS_HANDED_OFF = "cluster.splits_handed_off";
        /// Fragment-cache entries migrated to the consistent successor before
        /// a draining worker left.
        CLUSTER_CACHE_ENTRIES_MIGRATED = "cluster.cache_entries_migrated";
        /// Workers abruptly lost to a spot-instance revocation.
        CLUSTER_WORKERS_REVOKED = "cluster.workers_revoked";
        /// Autoscaler scale-out actions (batches of workers added).
        CLUSTER_SCALE_OUTS = "cluster.autoscaler_scale_outs";
        /// Autoscaler scale-in actions (workers gracefully decommissioned).
        CLUSTER_SCALE_INS = "cluster.autoscaler_scale_ins";
        /// Workers the autoscaler added across all scale-out actions.
        CLUSTER_SCALE_OUT_WORKERS = "cluster.autoscaler_workers_added";

        /// Redirects the federation gateway resolved.
        GATEWAY_REDIRECTS = "gateway.redirects";
        /// Redirects that fell back because the primary cluster was draining.
        GATEWAY_REROUTED_MAINTENANCE = "gateway.rerouted_maintenance";
        /// Queries the gateway failed over to a healthy sibling cluster.
        GATEWAY_RETRIED_QUERIES = "gateway.retried_queries";

        /// Fragment-result-cache hits.
        FRC_HITS = "frc.hits";
        /// Fragment-result-cache misses.
        FRC_MISSES = "frc.misses";

        /// File-list-cache hits.
        FLC_HITS = "flc.hits";
        /// File-list-cache misses.
        FLC_MISSES = "flc.misses";
        /// Listings that bypassed the cache because the partition was open.
        FLC_BYPASS_OPEN_PARTITION = "flc.bypass_open_partition";

        /// File-handle (footer) cache hits.
        FHC_HITS = "fhc.hits";
        /// File-handle (footer) cache misses.
        FHC_MISSES = "fhc.misses";
        /// Stripe-footer cache hits.
        FTC_HITS = "ftc.hits";
        /// Stripe-footer cache misses.
        FTC_MISSES = "ftc.misses";

        /// Partitions the Hive connector pruned via partition filters.
        HIVE_PARTITIONS_PRUNED = "hive.partitions_pruned";
        /// Leaf column values the Hive connector decoded.
        HIVE_LEAVES_DECODED = "hive.leaves_decoded";
        /// Row groups skipped by min/max statistics.
        HIVE_ROW_GROUPS_SKIPPED = "hive.row_groups_skipped";

        /// Statements executed against the simulated MySQL metastore.
        MYSQL_STATEMENTS = "mysql.statements";
        /// Rows the MySQL connector scanned server-side.
        MYSQL_ROWS_SCANNED = "mysql.rows_scanned";
        /// Rows the MySQL connector streamed to the engine.
        MYSQL_ROWS_STREAMED = "mysql.rows_streamed";

        /// Queries answered natively by the realtime store.
        RT_NATIVE_QUERIES = "rt.native_queries";
        /// Rows matched by realtime-store index lookups.
        RT_ROWS_MATCHED = "rt.rows_matched";
        /// Rows the realtime connector streamed to the engine.
        RT_ROWS_STREAMED = "rt.rows_streamed";

        /// `listFiles` calls against the simulated HDFS namenode.
        HDFS_LIST_FILES = "hdfs.list_files";
        /// `getFileInfo` calls against the simulated HDFS namenode.
        HDFS_GET_FILE_INFO = "hdfs.get_file_info";
        /// HDFS read operations.
        HDFS_READ_OPS = "hdfs.read_ops";
        /// Bytes read from HDFS.
        HDFS_READ_BYTES = "hdfs.read_bytes";
        /// HDFS write operations.
        HDFS_WRITE_OPS = "hdfs.write_ops";
        /// HDFS delete operations.
        HDFS_DELETE_OPS = "hdfs.delete_ops";

        /// Requests issued to the simulated S3 service.
        S3_REQUESTS = "s3.requests";
        /// S3 requests that were answered with an injected fault.
        S3_FAULTS_INJECTED = "s3.faults_injected";
        /// Bytes downloaded from S3 (GET side).
        S3_BYTES_OUT = "s3.bytes_out";
        /// Bytes uploaded to S3 (PUT side).
        S3_BYTES_IN = "s3.bytes_in";
        /// S3 `GET` requests (whole objects and ranges).
        S3_GET = "s3.get";
        /// S3 `PUT` requests.
        S3_PUT = "s3.put";
        /// S3 `HEAD` requests.
        S3_HEAD = "s3.head";
        /// S3 `LIST` requests.
        S3_LIST = "s3.list";
        /// S3 `DELETE` requests.
        S3_DELETE = "s3.delete";
        /// S3 S3 Select requests.
        S3_SELECT = "s3.select";
        /// S3 multipart part uploads.
        S3_UPLOAD_PART = "s3.upload_part";
        /// S3 multipart completions.
        S3_COMPLETE_MULTIPART = "s3.complete_multipart";
        /// Retries performed by the S3 filesystem's backoff loop.
        S3FS_RETRIES = "s3fs.retries";
        /// Virtual nanoseconds spent in exponential backoff against S3.
        S3FS_BACKOFF_NANOS = "s3fs.backoff_nanos";
        /// Multipart uploads started by the S3 filesystem.
        S3FS_MULTIPART_UPLOADS = "s3fs.multipart_uploads";
        /// Seeks issued through the buffered S3 reader.
        S3FS_SEEKS = "s3fs.seeks";
        /// Seeks satisfied from the read-ahead buffer without a refetch.
        S3FS_SEEK_FETCHES_AVOIDED = "s3fs.seek_fetches_avoided";

        /// Histogram: end-to-end virtual query latency on a cluster, in µs.
        HIST_CLUSTER_QUERY_LATENCY_US = "cluster.query_latency_us";
        /// Histogram: virtual backoff waited between split retry rounds, in µs.
        HIST_CLUSTER_RETRY_BACKOFF_US = "cluster.retry_backoff_us";
        /// Histogram: virtual runtime of completed scan tasks, in µs — the
        /// sibling distribution the speculation quantile rule consults.
        HIST_CLUSTER_TASK_RUNTIME_US = "cluster.task_runtime_us";
        /// Histogram: end-to-end virtual latency of gateway-submitted queries, µs.
        HIST_GATEWAY_QUERY_LATENCY_US = "gateway.query_latency_us";
        /// Histogram: dispatch-queue depth observed at each autoscaler
        /// evaluation tick — the hysteresis signal.
        HIST_CLUSTER_QUEUE_DEPTH = "cluster.autoscaler_queue_depth";

        /// Time series: per-worker busy fraction (percent of the sampling
        /// window spent running tasks), one series per worker id.
        TS_WORKER_BUSY_PCT = "telemetry.worker_busy_pct";
        /// Time series: mean busy fraction across the active fleet, percent.
        TS_FLEET_BUSY_PCT = "telemetry.fleet_busy_pct";
        /// Time series: cluster memory-pool utilization, percent of budget
        /// (0 when the pool is unbounded).
        TS_MEMORY_UTIL_PCT = "telemetry.memory_util_pct";
        /// Time series: fragment-result-cache hit rate, percent of lookups.
        TS_CACHE_HIT_PCT = "telemetry.cache_hit_pct";
        /// Gauge: most recent fleet-mean busy fraction, percent — the signal
        /// the utilization-aware autoscaler reads between snapshots.
        GAUGE_FLEET_BUSY_PCT = "telemetry.fleet_busy_now_pct";
        /// Gauge: workers in the `Active` lifecycle at the last snapshot.
        GAUGE_ACTIVE_WORKERS = "telemetry.active_workers";
        /// Histogram: fleet busy-fraction observed at each autoscaler
        /// evaluation tick — the utilization hysteresis signal.
        HIST_CLUSTER_BUSY_PCT = "cluster.autoscaler_busy_pct";

        /// Queries the workload simulator injected (arrival events).
        SIM_ARRIVALS = "sim.arrivals";
        /// Queries the workload simulator ran to completion.
        SIM_COMPLETED = "sim.completed";
        /// Simulated queries that failed (should be 0 in a fault-free workload).
        SIM_FAILED = "sim.failed";
        /// Histogram: virtual end-to-end latency (queue wait + service) of
        /// simulated queries, in µs, recorded per tenant class.
        HIST_SIM_LATENCY_US = "sim.latency_us";
        /// Histogram: virtual time simulated queries spent queued before
        /// dispatch, in µs.
        HIST_SIM_QUEUE_WAIT_US = "sim.queue_wait_us";
    }
}

/// Debug builds refuse a name that [`names`] does not declare. Each set
/// calls this where it first creates a name, never on the per-record path,
/// and on every read, so a misspelt read fails rather than reading 0.
fn check_registered(name: &str) {
    debug_assert!(names::ALL.contains(&name), "metric `{name}` is not declared in metrics::names");
}

/// A set of named, thread-safe monotonically increasing counters.
///
/// Cloning shares the underlying counters.
#[derive(Debug, Clone)]
pub struct CounterSet {
    counters: Arc<RwLock<BTreeMap<String, Arc<AtomicU64>>>>,
}

impl Default for CounterSet {
    fn default() -> CounterSet {
        CounterSet::new()
    }
}

impl CounterSet {
    /// New, empty counter set.
    pub fn new() -> CounterSet {
        CounterSet { counters: Arc::new(RwLock::new(Rank::Counters, BTreeMap::new())) }
    }

    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        let mut write = self.counters.write();
        write
            .entry(name.to_string())
            .or_insert_with(|| {
                check_registered(name);
                Arc::new(AtomicU64::new(0))
            })
            .clone()
    }

    /// Increment `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        check_registered(name);
        self.counters.read().get(name).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.counters.read().iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect()
    }

    /// Reset every counter to zero (between experiment phases).
    ///
    /// Keeps the counter names registered; a later [`CounterSet::snapshot`]
    /// still lists them at value 0. Use [`CounterSet::clear`] to also drop
    /// the names so a new phase's snapshot doesn't carry stale keys.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Drop every counter, names included.
    ///
    /// Unlike [`CounterSet::reset`], a subsequent snapshot is empty until
    /// new counters are recorded — use this between experiment phases so
    /// phase-B reports don't inherit phase-A keys.
    pub fn clear(&self) {
        self.counters.write().clear();
    }
}

/// A log₂-bucketed latency/size histogram with quantile queries.
///
/// Values land in bucket `⌈log₂(v+1)⌉`: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i − 1]`. Quantiles are answered to
/// within one bucket (≤ 2× relative error), clamped to the observed
/// min/max so `p(0) == min` and `p(1) == max` exactly. Merging two
/// histograms adds buckets element-wise, which makes `merge` commutative
/// and associative — safe to combine per-worker histograms in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded observations, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Quantile estimate for `q ∈ [0, 1]`.
    ///
    /// Returns the inclusive upper bound of the bucket containing the
    /// rank-`⌈q·count⌉` observation, clamped to `[min, max]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i: 0 for bucket 0, else 2^i − 1.
                let upper = if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one (element-wise bucket add).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A fixed-interval time series over a bounded ring of buckets.
///
/// Samples are stamped with a *virtual* instant (always taken from a
/// `SimClock`, never the wall clock) and land in bucket
/// `⌊at / interval⌋`. Buckets within one interval accumulate; when the
/// ring exceeds its capacity the oldest buckets fall off the front, so the
/// series always covers the most recent `capacity · interval` of virtual
/// time. A sample older than the retained window is dropped — re-recording
/// the past would make the series order-dependent.
///
/// Merging adds buckets element-wise over *absolute* bucket indexes and
/// keeps the last `capacity` buckets ending at the later series' end —
/// commutative and associative by construction, like [`Histogram::merge`],
/// so per-worker series can be folded in any order. The digest folds the
/// canonical state (interval, window start, bucket values, sample count)
/// with the same FNV-1a the trace digests use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval_us: u64,
    capacity: usize,
    /// Absolute index of `values[0]` (bucket 0 starts at virtual t = 0).
    first: u64,
    values: Vec<u64>,
    samples: u64,
}

impl TimeSeries {
    /// New, empty series: `capacity` buckets of `interval_us` each.
    /// Zero-valued parameters are clamped to 1.
    pub fn new(interval_us: u64, capacity: usize) -> TimeSeries {
        TimeSeries {
            interval_us: interval_us.max(1),
            capacity: capacity.max(1),
            first: 0,
            values: Vec::new(),
            samples: 0,
        }
    }

    /// The bucket width in virtual microseconds.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Maximum number of retained buckets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples accepted over the series' lifetime (dropped-as-too-old
    /// samples are not counted; wrapped-away buckets still are).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Retained bucket count (≤ capacity).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// No buckets retained?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Record one observation at virtual instant `at`. Values landing in
    /// the same bucket accumulate; an observation older than the retained
    /// window is dropped.
    pub fn record(&mut self, at: std::time::Duration, value: u64) {
        let micros = u64::try_from(at.as_micros()).unwrap_or(u64::MAX);
        let bucket = micros / self.interval_us;
        if self.values.is_empty() {
            self.first = bucket;
            self.values.push(value);
            self.samples += 1;
            return;
        }
        if bucket < self.first {
            return; // older than the retained window
        }
        let idx = (bucket - self.first) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0);
        }
        self.values[idx] = self.values[idx].saturating_add(value);
        self.samples += 1;
        self.evict();
    }

    fn evict(&mut self) {
        if self.values.len() > self.capacity {
            let drop = self.values.len() - self.capacity;
            self.values.drain(..drop);
            self.first += drop as u64;
        }
    }

    /// Retained points as `(bucket_start_us, value)` in time order.
    pub fn points(&self) -> Vec<(u64, u64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| ((self.first + i as u64) * self.interval_us, v))
            .collect()
    }

    /// Largest retained bucket value, or 0 when empty.
    pub fn peak(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Fold another series into this one (element-wise bucket add over
    /// absolute indexes; both series must share `interval_us`). The result
    /// keeps the last `capacity` buckets ending at the later end.
    pub fn merge(&mut self, other: &TimeSeries) {
        debug_assert_eq!(self.interval_us, other.interval_us, "merging mismatched intervals");
        if other.values.is_empty() {
            return;
        }
        if self.values.is_empty() {
            let samples = self.samples + other.samples;
            *self = other.clone();
            self.samples = samples;
            return;
        }
        let first = self.first.min(other.first);
        let end =
            (self.first + self.values.len() as u64).max(other.first + other.values.len() as u64);
        let mut values = vec![0u64; (end - first) as usize];
        for (i, &v) in self.values.iter().enumerate() {
            values[(self.first - first) as usize + i] = v;
        }
        for (i, &v) in other.values.iter().enumerate() {
            let slot = &mut values[(other.first - first) as usize + i];
            *slot = slot.saturating_add(v);
        }
        self.first = first;
        self.values = values;
        self.samples += other.samples;
        self.evict();
    }

    /// Canonical FNV-1a digest of the series state — bit-identical across
    /// same-seed runs, like trace digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.interval_us);
        h.write(self.first);
        h.write(self.values.len() as u64);
        for &v in &self.values {
            h.write(v);
        }
        h.write(self.samples);
        h.finish()
    }
}

/// The FNV-1a fold every digest in the workspace shares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// Start at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one 64-bit word, byte by byte.
    pub fn write(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a string's bytes.
    pub fn write_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of named, last-write-wins gauges. Cloning shares the data.
#[derive(Debug, Clone)]
pub struct GaugeSet {
    inner: Arc<RwLock<BTreeMap<String, u64>>>,
}

impl Default for GaugeSet {
    fn default() -> GaugeSet {
        GaugeSet::new()
    }
}

impl GaugeSet {
    /// New, empty gauge set.
    pub fn new() -> GaugeSet {
        GaugeSet { inner: Arc::new(RwLock::new(Rank::Gauges, BTreeMap::new())) }
    }

    /// Set `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        if self.inner.write().insert(name.to_string(), value).is_none() {
            check_registered(name);
        }
    }

    /// Current value of `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        check_registered(name);
        self.inner.read().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all gauges.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.read().clone()
    }
}

/// A set of named, shared time series with a common interval/capacity.
/// Cloning shares the underlying data.
#[derive(Debug, Clone)]
pub struct TimeSeriesSet {
    interval_us: u64,
    capacity: usize,
    inner: Arc<RwLock<BTreeMap<String, TimeSeries>>>,
}

impl TimeSeriesSet {
    /// New, empty set; every series it creates uses `capacity` buckets of
    /// `interval_us` each.
    pub fn new(interval_us: u64, capacity: usize) -> TimeSeriesSet {
        TimeSeriesSet {
            interval_us: interval_us.max(1),
            capacity: capacity.max(1),
            inner: Arc::new(RwLock::new(Rank::TimeSeries, BTreeMap::new())),
        }
    }

    /// Record one observation under `name` at virtual instant `at`.
    pub fn sample(&self, name: &str, at: std::time::Duration, value: u64) {
        self.inner
            .write()
            .entry(name.to_string())
            .or_insert_with(|| self.series(name))
            .record(at, value);
    }

    /// Record one observation under the `id`-keyed variant of `name`
    /// (`name[id]`) — the per-worker form of [`TimeSeriesSet::sample`].
    pub fn sample_for(&self, name: &str, id: u32, at: std::time::Duration, value: u64) {
        let keyed = format!("{name}[{id}]");
        self.inner.write().entry(keyed).or_insert_with(|| self.series(name)).record(at, value);
    }

    /// A new, empty series for the registered `name`.
    fn series(&self, name: &str) -> TimeSeries {
        check_registered(name);
        TimeSeries::new(self.interval_us, self.capacity)
    }

    /// Copy of the series for `name` (empty if never sampled).
    pub fn get(&self, name: &str) -> TimeSeries {
        check_registered(name);
        self.read(name)
    }

    /// Copy of the `id`-keyed series for `name`.
    pub fn get_for(&self, name: &str, id: u32) -> TimeSeries {
        check_registered(name);
        self.read(&format!("{name}[{id}]"))
    }

    fn read(&self, key: &str) -> TimeSeries {
        self.inner
            .read()
            .get(key)
            .cloned()
            .unwrap_or_else(|| TimeSeries::new(self.interval_us, self.capacity))
    }

    /// Snapshot of all series, in name order.
    pub fn snapshot(&self) -> BTreeMap<String, TimeSeries> {
        self.inner.read().clone()
    }

    /// Canonical digest over every named series, folded in BTree order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, ts) in self.inner.read().iter() {
            h.write_str(name);
            h.write(ts.digest());
        }
        h.finish()
    }
}

/// A set of named, shared histograms. Cloning shares the underlying data.
#[derive(Debug, Clone)]
pub struct HistogramSet {
    inner: Arc<RwLock<BTreeMap<String, Histogram>>>,
}

impl Default for HistogramSet {
    fn default() -> HistogramSet {
        HistogramSet::new()
    }
}

impl HistogramSet {
    /// New, empty histogram set.
    pub fn new() -> HistogramSet {
        HistogramSet { inner: Arc::new(RwLock::new(Rank::Histograms, BTreeMap::new())) }
    }

    /// Record one observation under `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.inner
            .write()
            .entry(name.to_string())
            .or_insert_with(|| {
                check_registered(name);
                Histogram::new()
            })
            .record(value);
    }

    /// Copy of the histogram for `name` (empty if never recorded).
    pub fn get(&self, name: &str) -> Histogram {
        check_registered(name);
        self.inner.read().get(name).cloned().unwrap_or_default()
    }

    /// Snapshot of all histograms.
    pub fn snapshot(&self) -> BTreeMap<String, Histogram> {
        self.inner.read().clone()
    }

    /// Drop every histogram, names included.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = CounterSet::new();
        m.incr(names::HDFS_LIST_FILES);
        m.add(names::HDFS_LIST_FILES, 4);
        m.incr(names::HDFS_GET_FILE_INFO);
        assert_eq!(m.get(names::HDFS_LIST_FILES), 5);
        assert_eq!(m.get(names::HDFS_READ_OPS), 0);
        let snap = m.snapshot();
        assert_eq!(snap[names::HDFS_LIST_FILES], 5);
        assert_eq!(snap[names::HDFS_GET_FILE_INFO], 1);
    }

    #[test]
    fn clones_share_state_and_reset_works() {
        let m = CounterSet::new();
        let alias = m.clone();
        alias.incr(names::FRC_HITS);
        assert_eq!(m.get(names::FRC_HITS), 1);
        m.reset();
        assert_eq!(alias.get(names::FRC_HITS), 0);
    }

    #[test]
    fn clear_drops_stale_names_while_reset_keeps_them() {
        let m = CounterSet::new();
        m.incr(names::FLC_HITS);
        m.reset();
        assert!(m.snapshot().contains_key(names::FLC_HITS));
        m.clear();
        assert!(m.snapshot().is_empty());
        m.incr(names::FLC_MISSES);
        assert_eq!(m.snapshot().len(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // Any quantile lies within [min, max] and within 2× of a real value.
        let p50 = h.quantile(0.5);
        assert!((1..=7).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn histogram_merge_matches_bulk_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5u64, 9, 12] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_set_shares_state() {
        let set = HistogramSet::new();
        let alias = set.clone();
        alias.record(names::HIST_SIM_LATENCY_US, 10);
        alias.record(names::HIST_SIM_LATENCY_US, 20);
        assert_eq!(set.get(names::HIST_SIM_LATENCY_US).count(), 2);
        assert_eq!(set.snapshot().len(), 1);
        set.clear();
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn time_series_buckets_accumulate_and_wrap() {
        use std::time::Duration;
        let mut ts = TimeSeries::new(100, 4);
        ts.record(Duration::from_micros(10), 1);
        ts.record(Duration::from_micros(90), 2); // same bucket
        ts.record(Duration::from_micros(250), 5);
        assert_eq!(ts.points(), vec![(0, 3), (100, 0), (200, 5)]);
        assert_eq!(ts.samples(), 3);
        // advancing past capacity drops the oldest buckets
        ts.record(Duration::from_micros(550), 7);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.points()[0], (200, 5));
        assert_eq!(ts.points()[3], (500, 7));
        // a sample older than the window is dropped, not re-bucketed
        let before = ts.clone();
        ts.record(Duration::from_micros(10), 9);
        assert_eq!(ts, before);
        assert_eq!(ts.peak(), 7);
    }

    #[test]
    fn time_series_merge_matches_bulk_recording() {
        use std::time::Duration;
        let mut a = TimeSeries::new(50, 8);
        let mut b = TimeSeries::new(50, 8);
        let mut all = TimeSeries::new(50, 8);
        for (us, v) in [(0u64, 3u64), (120, 4)] {
            a.record(Duration::from_micros(us), v);
            all.record(Duration::from_micros(us), v);
        }
        for (us, v) in [(60u64, 1u64), (300, 9)] {
            b.record(Duration::from_micros(us), v);
            all.record(Duration::from_micros(us), v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.digest(), all.digest());
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let g = GaugeSet::new();
        let alias = g.clone();
        alias.set_gauge(names::GAUGE_FLEET_BUSY_PCT, 40);
        alias.set_gauge(names::GAUGE_FLEET_BUSY_PCT, 75);
        assert_eq!(g.gauge(names::GAUGE_FLEET_BUSY_PCT), 75);
        assert_eq!(g.gauge(names::GAUGE_ACTIVE_WORKERS), 0);
    }

    #[test]
    fn time_series_set_keys_per_worker_series() {
        use std::time::Duration;
        let set = TimeSeriesSet::new(100, 16);
        set.sample(names::TS_FLEET_BUSY_PCT, Duration::from_micros(10), 2);
        set.sample_for(names::TS_WORKER_BUSY_PCT, 3, Duration::from_micros(10), 50);
        set.sample_for(names::TS_WORKER_BUSY_PCT, 7, Duration::from_micros(10), 90);
        assert_eq!(set.get(names::TS_FLEET_BUSY_PCT).samples(), 1);
        assert_eq!(set.get_for(names::TS_WORKER_BUSY_PCT, 3).points(), vec![(0, 50)]);
        assert_eq!(set.get_for(names::TS_WORKER_BUSY_PCT, 7).points(), vec![(0, 90)]);
        assert_eq!(set.snapshot().len(), 3);
        // digest is stable across identical replays
        let replay = TimeSeriesSet::new(100, 16);
        replay.sample(names::TS_FLEET_BUSY_PCT, Duration::from_micros(10), 2);
        replay.sample_for(names::TS_WORKER_BUSY_PCT, 3, Duration::from_micros(10), 50);
        replay.sample_for(names::TS_WORKER_BUSY_PCT, 7, Duration::from_micros(10), 90);
        assert_eq!(set.digest(), replay.digest());
    }

    #[test]
    fn registered_names_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names::ALL {
            assert!(seen.insert(name), "two metrics::names constants share the value {name:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "metric `fixture.hits` is not declared in metrics::names")]
    fn an_unregistered_name_panics() {
        CounterSet::new().incr("fixture.hits");
    }

    /// A misspelt read fails instead of reading 0.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "metric `frc.hit` is not declared in metrics::names")]
    fn an_unregistered_read_panics() {
        let m = CounterSet::new();
        m.incr(names::FRC_HITS);
        m.get("frc.hit");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "metric `fleet.busy` is not declared in metrics::names")]
    fn an_unregistered_per_worker_read_panics() {
        TimeSeriesSet::new(100, 16).get_for("fleet.busy", 3);
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let m = CounterSet::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr(names::FRC_HITS);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.get(names::FRC_HITS), 8000);
    }
}
