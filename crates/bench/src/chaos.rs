//! §XII chaos experiment: a query stream against a cluster under seeded
//! fault injection, with and without coordinator fault recovery.
//!
//! Every task start may be failed (probability `fault_rate`) or turned into
//! a worker crash by the declarative [`FaultPlan`]; all decisions are pure
//! functions of `(seed, worker, task ordinal)`, and retry backoff advances
//! the virtual clock, so one `(seed, config)` pair replays the exact same
//! schedule — the experiment is a determinism check as much as a
//! survival-rate one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::names;
use presto_common::{
    Block, DataType, FaultInjector, FaultPlan, Field, Page, Result, Schema, SimClock,
};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};

use crate::report::{replay, Gate, Json, Report, Table};

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Workers in the cluster.
    pub workers: u32,
    /// Queries submitted serially.
    pub queries: usize,
    /// Per-task transient fault probability.
    pub fault_rate: f64,
    /// Injector seed — same seed, same schedule.
    pub seed: u64,
    /// Coordinator split-reassignment recovery on/off.
    pub recovery: bool,
    /// Also crash worker 0 when it starts its 25th task (exercises abrupt
    /// node loss on top of the flaky-task noise).
    pub crash_worker: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            workers: 6,
            queries: 40,
            fault_rate: 0.10,
            seed: 42,
            recovery: true,
            crash_worker: true,
        }
    }
}

/// What a serial stream of `SELECT sum(x), count(*) FROM t` returned.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Queries submitted.
    pub queries: usize,
    /// Queries that returned rows.
    pub succeeded: usize,
    /// Virtual time consumed by the run (retry backoff, stalls).
    pub virtual_ms: u64,
    /// Order-sensitive digest over every successful query's rows — two runs
    /// with the same seed must agree bit-for-bit.
    pub rows_digest: u64,
    /// Order-sensitive fold of every successful query's virtual-time trace
    /// digest. Stronger than `rows_digest`: it pins not just *what* each
    /// query answered but the whole span tree — which worker ran which
    /// split, every injected failure, every retry round, every timestamp.
    pub trace_digest: u64,
}

impl StreamResult {
    /// Fraction of queries that completed.
    pub fn success_rate(&self) -> f64 {
        self.succeeded as f64 / self.queries.max(1) as f64
    }
}

/// Outcome of one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// The query stream.
    pub stream: StreamResult,
    /// `cluster.split_retries` at the end of the run.
    pub split_retries: u64,
    /// `cluster.worker_failures` at the end of the run.
    pub worker_failures: u64,
    /// `cluster.blacklisted_workers` at the end of the run.
    pub blacklisted_workers: u64,
    /// Worker crashes the injector fired.
    pub crashes_injected: u64,
    /// Transient task faults the injector fired.
    pub task_faults_injected: u64,
}

/// An engine whose `memory.default.t` holds one BIGINT column `x` =
/// `0..pages * rows_per_page`, one page (one split) per `rows_per_page` rows.
pub(crate) fn engine_with_table(pages: i64, rows_per_page: i64) -> Result<PrestoEngine> {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)])?;
    let pages = (0..pages)
        .map(|p| {
            Page::new(vec![Block::bigint((p * rows_per_page..(p + 1) * rows_per_page).collect())])
        })
        .collect::<Result<Vec<Page>>>()?;
    memory.create_table("default", "t", schema, pages)?;
    engine.register_catalog("memory", Arc::new(memory));
    Ok(engine)
}

/// Issue `queries` aggregations over a 12-split table (12 pages → 12 splits
/// per query, spread over the workers) on a cluster built from `config`.
fn run_stream(
    name: &str,
    config: ClusterConfig,
    queries: usize,
) -> Result<(Arc<PrestoCluster>, StreamResult)> {
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(name, engine_with_table(12, 50)?, config, clock.clone());
    let session = Session::default();
    let start = clock.now();
    let mut succeeded = 0;
    let mut digest = DefaultHasher::new();
    let mut trace_digest = DefaultHasher::new();
    for _ in 0..queries {
        if let Ok(result) = cluster.execute("SELECT sum(x), count(*) FROM t", &session) {
            succeeded += 1;
            format!("{:?}", result.rows()).hash(&mut digest);
            // Only successful queries fold in: a doomed query's cancel flag
            // races sibling workers, so its span count is timing-dependent.
            result.info.trace.digest().hash(&mut trace_digest);
        }
    }
    let virtual_ms = (clock.now() - start).as_millis() as u64;
    let (rows_digest, trace_digest) = (digest.finish(), trace_digest.finish());
    Ok((cluster, StreamResult { queries, succeeded, virtual_ms, rows_digest, trace_digest }))
}

/// Run the chaos workload: `config.queries` aggregations over a 12-split
/// table while the injector fails tasks (and optionally crashes a worker).
pub fn run(config: &ChaosConfig) -> Result<ChaosResult> {
    let mut plan = FaultPlan::new().fail_rate(config.fault_rate);
    if config.crash_worker {
        plan = plan.crash_on_task(0, 25);
    }
    let injector = FaultInjector::new(config.seed, plan);
    let (cluster, stream) = run_stream(
        "chaos",
        ClusterConfig {
            initial_workers: config.workers,
            fault_injector: injector.clone(),
            fault_recovery: config.recovery,
            // rate 0.2 would trip a 3-strike blacklist constantly; the
            // experiment is about retries, so quarantine only real streaks
            blacklist_after: 4,
            ..ClusterConfig::default()
        },
        config.queries,
    )?;
    Ok(ChaosResult {
        stream,
        split_retries: cluster.metrics().get(names::CLUSTER_SPLIT_RETRIES),
        worker_failures: cluster.metrics().get(names::CLUSTER_WORKER_FAILURES),
        blacklisted_workers: cluster.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS),
        crashes_injected: injector.crashes_injected(),
        task_faults_injected: injector.task_faults_injected(),
    })
}

/// The default config run twice: `paper-experiments chaos`'s replay gate.
fn replay_default() -> Result<(ChaosResult, ChaosResult, Gate)> {
    replay("seed 42", || run(&ChaosConfig::default()), ChaosResult::clone)
}

/// Straggler scenario parameters: the same query stream, but instead of
/// failing tasks the injector *stalls* scan pages mid-stream, turning a
/// random subset of splits into stragglers hundreds of times slower than
/// their siblings. Run twice — speculation on and off — on the same seed
/// to measure what duplicate attempts buy at the tail.
#[derive(Debug, Clone)]
pub struct StragglerConfig {
    /// Workers in the cluster.
    pub workers: u32,
    /// Queries submitted serially.
    pub queries: usize,
    /// Injector seed — same seed, same stall schedule.
    pub seed: u64,
    /// Per-scan-page stall probability.
    pub stall_rate: f64,
    /// Injected stall length (virtual time) — each stalled page costs this.
    pub stall: Duration,
    /// Speculative execution on/off.
    pub speculation: bool,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            workers: 4,
            queries: 30,
            seed: 42,
            stall_rate: 0.10,
            stall: Duration::from_millis(20),
            speculation: true,
        }
    }
}

/// Outcome of one straggler run.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerResult {
    /// Whether speculation was on.
    pub speculation: bool,
    /// The query stream.
    pub stream: StreamResult,
    /// Query latency percentiles (virtual µs) over the whole stream.
    pub p50_us: u64,
    /// 95th percentile latency (virtual µs).
    pub p95_us: u64,
    /// 99th percentile latency (virtual µs).
    pub p99_us: u64,
    /// `cluster.speculative_launches` at the end of the run.
    pub speculative_launches: u64,
    /// `cluster.speculative_wins` at the end of the run.
    pub speculative_wins: u64,
    /// `cluster.speculative_wasted` at the end of the run.
    pub speculative_wasted: u64,
    /// Mid-stream stalls the injector fired.
    pub stalls_injected: u64,
}

/// Run the straggler workload: `config.queries` aggregations over a
/// 12-split table while the injector stalls scan pages mid-stream.
pub fn run_straggler(config: &StragglerConfig) -> Result<StragglerResult> {
    let injector = FaultInjector::new(
        config.seed,
        FaultPlan::new().scan_stall_rate(config.stall_rate, config.stall),
    );
    let (cluster, stream) = run_stream(
        "straggler",
        ClusterConfig {
            initial_workers: config.workers,
            fault_injector: injector.clone(),
            speculation: config.speculation,
            ..ClusterConfig::default()
        },
        config.queries,
    )?;
    let latency = cluster.histograms().get(names::HIST_CLUSTER_QUERY_LATENCY_US);
    Ok(StragglerResult {
        speculation: config.speculation,
        stream,
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        p99_us: latency.quantile(0.99),
        speculative_launches: cluster.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES),
        speculative_wins: cluster.metrics().get(names::CLUSTER_SPECULATIVE_WINS),
        speculative_wasted: cluster.metrics().get(names::CLUSTER_SPECULATIVE_WASTED),
        stalls_injected: injector.stalls_injected(),
    })
}

/// The straggler gates on one seed's speculation-on and -off runs.
fn speculation_gates(on: &StragglerResult, off: &StragglerResult) -> [Gate; 2] {
    let (on_rows, off_rows) = (on.stream.rows_digest, off.stream.rows_digest);
    let rows = format!("rows {on_rows:#018x} / {off_rows:#018x}");
    let p99 = format!("p99 on {} vs off {} µs", on.p99_us, off.p99_us);
    [
        Gate::new("speculation keeps the answers", on_rows == off_rows, rows),
        Gate::new("speculation cuts the tail", on.p99_us < off.p99_us, p99),
    ]
}

/// `paper-experiments chaos`, part 1: the fault-rate × recovery sweep and
/// the same-seed replay gate (`BENCH_chaos.json`).
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== §XII: chaos — fault injection vs coordinator recovery ===");
    report.line(
        "40 queries x 12 splits on 6 workers; every task faults with probability p,\n\
         worker 0 crashes at its 25th task; seed 42; backoff on the virtual clock\n",
    );
    let mut table = Table::new(
        "split reassignment, attempt cap 4, blacklist after 4 consecutive failures",
        &[
            "fault rate",
            "recovery",
            "queries ok",
            "split retries",
            "worker failures",
            "blacklisted",
            "injected (crash/task)",
            "virtual backoff",
        ],
    );
    for rate in [0.0, 0.05, 0.10, 0.20] {
        for recovery in [true, false] {
            let r = run(&ChaosConfig { fault_rate: rate, recovery, ..ChaosConfig::default() })?;
            let s = &r.stream;
            table.row(vec![
                format!("{:.0}%", rate * 100.0),
                if recovery { "on".into() } else { "off".into() },
                format!("{}/{} ({:.0}%)", s.succeeded, s.queries, s.success_rate() * 100.0),
                r.split_retries.to_string(),
                r.worker_failures.to_string(),
                r.blacklisted_workers.to_string(),
                format!("{}/{}", r.crashes_injected, r.task_faults_injected),
                format!("{} ms", s.virtual_ms),
            ]);
        }
    }
    report.line(table.render());
    let (a, b, replayed) = replay_default()?;
    report.line(format!(
        "determinism: two seed-42 runs -> rows {:#018x} / {:#018x}, traces {:#018x} / {:#018x} ({})\n",
        a.stream.rows_digest,
        b.stream.rows_digest,
        a.stream.trace_digest,
        b.stream.trace_digest,
        if replayed.passed { "identical" } else { "MISMATCH" }
    ));
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("chaos".into())),
        ("queries".into(), Json::U64(a.stream.queries as u64)),
        ("succeeded".into(), Json::U64(a.stream.succeeded as u64)),
        ("split_retries".into(), Json::U64(a.split_retries)),
        ("worker_failures".into(), Json::U64(a.worker_failures)),
        ("virtual_ms".into(), Json::U64(a.stream.virtual_ms)),
        ("rows_digest".into(), Json::Str(format!("{:#018x}", a.stream.rows_digest))),
        ("trace_digest".into(), Json::Str(format!("{:#018x}", a.stream.trace_digest))),
        ("deterministic".into(), Json::Bool(replayed.passed)),
    ]);
    report.bench = Some(("chaos".into(), json));
    report.gates.push(replayed);
    Ok(report)
}

/// `paper-experiments chaos`, part 2: speculation on vs off under injected
/// stragglers (`BENCH_speculation.json`).
pub fn speculation_report() -> Result<Report> {
    let mut report =
        Report::new("=== §XII: stragglers — speculative execution on mid-stream stalls ===");
    let config = StragglerConfig::default();
    report.line(format!(
        "{} queries x 12 splits on {} workers; each scan page stalls with p={:.0}% for {} ms;\n\
         speculation duplicates any split past the p99 of its completed siblings\n",
        config.queries,
        config.workers,
        config.stall_rate * 100.0,
        config.stall.as_millis()
    ));
    let on = run_straggler(&config)?;
    let off = run_straggler(&StragglerConfig { speculation: false, ..config.clone() })?;
    let mut table = Table::new(
        "query latency under injected stragglers (virtual µs)",
        &["speculation", "queries ok", "p50", "p95", "p99", "launches", "wins", "wasted"],
    );
    for r in [&on, &off] {
        table.row(vec![
            if r.speculation { "on".into() } else { "off".into() },
            format!("{}/{}", r.stream.succeeded, r.stream.queries),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
            r.speculative_launches.to_string(),
            r.speculative_wins.to_string(),
            r.speculative_wasted.to_string(),
        ]);
    }
    report.line(table.render());
    let [agree, tail_cut] = speculation_gates(&on, &off);
    report.line(format!(
        "answers agree across modes: {} ({})\n",
        if agree.passed { "yes" } else { "NO" },
        agree.detail
    ));
    let mode_json = |r: &StragglerResult| {
        Json::Obj(vec![
            ("succeeded".into(), Json::U64(r.stream.succeeded as u64)),
            ("p50_us".into(), Json::U64(r.p50_us)),
            ("p95_us".into(), Json::U64(r.p95_us)),
            ("p99_us".into(), Json::U64(r.p99_us)),
            ("speculative_launches".into(), Json::U64(r.speculative_launches)),
            ("speculative_wins".into(), Json::U64(r.speculative_wins)),
            ("speculative_wasted".into(), Json::U64(r.speculative_wasted)),
            ("stalls_injected".into(), Json::U64(r.stalls_injected)),
            ("virtual_ms".into(), Json::U64(r.stream.virtual_ms)),
            ("rows_digest".into(), Json::Str(format!("{:#018x}", r.stream.rows_digest))),
            ("trace_digest".into(), Json::Str(format!("{:#018x}", r.stream.trace_digest))),
        ])
    };
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("speculation".into())),
        ("queries".into(), Json::U64(config.queries as u64)),
        ("seed".into(), Json::U64(config.seed)),
        ("speculation_on".into(), mode_json(&on)),
        ("speculation_off".into(), mode_json(&off)),
        ("answers_agree".into(), Json::Bool(agree.passed)),
        ("tail_cut".into(), Json::Bool(tail_cut.passed)),
    ]);
    report.bench = Some(("speculation".into(), json));
    report.gates = vec![agree, tail_cut];
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn recovery_materially_beats_no_recovery_at_ten_percent() {
        let on = run(&ChaosConfig::default()).unwrap();
        let off = run(&ChaosConfig { recovery: false, ..ChaosConfig::default() }).unwrap();
        let (on_rate, off_rate) = (on.stream.success_rate(), off.stream.success_rate());
        assert!(on_rate >= 0.95, "recovery on: {:?}", on.stream);
        assert!(on.split_retries > 0, "recovery must actually have retried splits");
        assert!(
            off_rate <= on_rate - 0.25,
            "recovery off must be materially worse: {off_rate} vs {on_rate}"
        );
        assert_eq!(off.split_retries, 0, "no recovery, no retries");
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let (a, _, replayed) = replay_default().unwrap();
        assert_gates(&[replayed]);
        // and a different seed gives a different schedule
        let c = run(&ChaosConfig { seed: 43, ..ChaosConfig::default() }).unwrap();
        assert_ne!(
            (a.split_retries, a.task_faults_injected),
            (c.split_retries, c.task_faults_injected)
        );
    }

    #[test]
    fn zero_fault_rate_is_failure_free_without_the_crash() {
        let r =
            run(&ChaosConfig { fault_rate: 0.0, crash_worker: false, ..ChaosConfig::default() })
                .unwrap();
        assert_eq!(r.stream.succeeded, r.stream.queries);
        assert_eq!(r.split_retries, 0);
        assert_eq!(r.worker_failures, 0);
        assert_eq!(r.crashes_injected, 0);
    }

    #[test]
    fn speculation_beats_stragglers_at_the_tail() {
        let on = run_straggler(&StragglerConfig::default()).unwrap();
        let off =
            run_straggler(&StragglerConfig { speculation: false, ..Default::default() }).unwrap();
        assert_gates(&speculation_gates(&on, &off));
        // every query answers either way — stalls delay, they don't fail
        assert_eq!(on.stream.succeeded, on.stream.queries);
        assert_eq!(off.stream.succeeded, off.stream.queries);
        assert!(on.stalls_injected > 0, "the plan must actually stall pages");
        assert!(on.speculative_launches > 0, "stalled splits must trigger duplicates");
        assert!(on.speculative_wins > 0, "some duplicates must win their race");
        assert_eq!(off.speculative_launches, 0, "speculation off launches nothing");
    }

    #[test]
    fn straggler_runs_replay_on_the_same_seed() {
        let config = StragglerConfig::default();
        let (_, _, replayed) =
            replay("straggler", || run_straggler(&config), StragglerResult::clone).unwrap();
        assert_gates(&[replayed]);
    }
}
