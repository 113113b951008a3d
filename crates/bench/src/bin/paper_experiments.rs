//! `paper-experiments`: regenerate every table/figure of the paper's
//! evaluation and print paper-claim vs measured.
//!
//! Usage:
//! ```text
//! paper-experiments [fig16|fig17|fig18|fig19|fig20|geo|cache|s3|shrink|gateway|resource|chaos|obs|sim|elastic|telemetry|all]
//! ```
//! Run `--release`; the reader/writer figures measure real CPU work.
//!
//! `chaos` and `obs` also dump machine-readable `BENCH_<experiment>.json`
//! files into the current directory for CI to archive and diff.

use std::sync::Arc;
use std::time::Duration;

use presto_bench::report::{histogram_json, mbps, ms, write_bench_json, Json, Table};
use presto_bench::{cache_exp, chaos, fig16, fig17, geo_exp, obs, resource_exp, s3_exp, writers};
use presto_cluster::{ClusterConfig, PrestoCluster, PrestoGateway};
use presto_common::{Block, DataType, Field, Page, Schema, SimClock};
use presto_connectors::memory::MemoryConnector;
use presto_connectors::mysql::MySqlConnector;
use presto_core::{PrestoEngine, Session};
use presto_parquet::Codec;

const EXPERIMENTS: [&str; 17] = [
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "geo",
    "cache",
    "s3",
    "shrink",
    "gateway",
    "resource",
    "chaos",
    "obs",
    "sim",
    "elastic",
    "telemetry",
    "all",
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !EXPERIMENTS.contains(&arg.as_str()) {
        eprintln!("unknown experiment '{arg}'");
        eprintln!("usage: paper-experiments [{}]", EXPERIMENTS.join("|"));
        std::process::exit(2);
    }
    let all = arg == "all";
    if all || arg == "fig16" {
        run_fig16();
    }
    if all || arg == "fig17" {
        run_fig17();
    }
    if all || arg == "fig18" {
        run_writer_figure(Codec::Fast, "Fig 18 — writer throughput, Snappy-profile codec");
    }
    if all || arg == "fig19" {
        run_writer_figure(Codec::Deep, "Fig 19 — writer throughput, Gzip-profile codec");
    }
    if all || arg == "fig20" {
        run_writer_figure(Codec::None, "Fig 20 — writer throughput, no compression");
    }
    if all || arg == "geo" {
        run_geo();
    }
    if all || arg == "cache" {
        run_cache();
    }
    if all || arg == "s3" {
        run_s3();
    }
    if all || arg == "shrink" {
        run_shrink();
    }
    if all || arg == "gateway" {
        run_gateway();
    }
    if all || arg == "resource" {
        run_resource();
    }
    if all || arg == "chaos" {
        run_chaos();
    }
    if all || arg == "obs" {
        run_obs();
    }
    if all || arg == "sim" {
        run_sim();
    }
    if all || arg == "elastic" {
        run_elastic();
    }
    if all || arg == "telemetry" {
        run_telemetry();
    }
}

fn run_telemetry() {
    use presto_bench::telemetry;
    use presto_common::metrics::names;
    use presto_sim::run_simulation;
    println!(
        "\n=== queryable telemetry: sampled replay + busy-vs-queue autoscaler counterfactual ==="
    );
    println!(
        "rush/lull workload replayed under two autoscaler policies (seed 7, same arrivals);\n\
         every variant runs twice to check same-seed telemetry digests;\n\
         gates: sampling happened, digests bit-identical, busy-signal action trace diverges\n"
    );

    let variants: [(&str, presto_sim::SimConfig); 2] = [
        ("queue-depth", telemetry::queue_only_config(7)),
        ("busy-fraction", telemetry::busy_signal_config(7)),
    ];
    let mut table = Table::new(
        "autoscaler policies on identical arrivals (2000 queries, virtual time)",
        &[
            "policy",
            "ok/failed",
            "out/in",
            "actions",
            "peak/final workers",
            "snapshots",
            "peak busy",
            "deterministic",
        ],
    );
    let mut gate_failed = false;
    let mut action_traces: Vec<Vec<(u64, i64)>> = Vec::new();
    let mut json_rows: Vec<(String, Json)> = Vec::new();
    for (name, config) in &variants {
        let (a, b) = match (run_simulation(config), run_simulation(config)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("telemetry variant '{name}' failed to run: {e}");
                std::process::exit(1);
            }
        };
        let deterministic = a.digest == b.digest
            && a.trace_digest == b.trace_digest
            && a.telemetry_digest == b.telemetry_digest
            && a.elastic == b.elastic;
        let Some(e) = a.elastic.clone() else {
            eprintln!("telemetry variant '{name}' produced no elastic report");
            std::process::exit(1);
        };
        let busy_series = a.telemetry_series.get(names::TS_FLEET_BUSY_PCT).cloned();
        let depth_series = a.telemetry_series.get(names::TS_QUEUE_DEPTH).cloned();
        let peak_busy = busy_series.as_ref().map(|s| s.peak()).unwrap_or(0);
        table.row(vec![
            (*name).into(),
            format!("{}/{}", a.completed, a.failed),
            format!("{}/{}", e.scale_outs, e.scale_ins),
            e.actions.len().to_string(),
            format!("{}/{}", e.peak_workers, e.final_workers),
            a.telemetry_snapshots.to_string(),
            format!("{peak_busy}%"),
            if deterministic { "yes".into() } else { "NO".into() },
        ]);
        if a.failed > 0 {
            eprintln!("telemetry gate FAILED: variant '{name}' failed {} queries", a.failed);
            gate_failed = true;
        }
        if !deterministic {
            eprintln!("telemetry gate FAILED: variant '{name}' same-seed digests diverged");
            gate_failed = true;
        }
        if a.telemetry_snapshots == 0 || busy_series.as_ref().is_none_or(|s| s.samples() == 0) {
            eprintln!("telemetry gate FAILED: variant '{name}' sampled nothing");
            gate_failed = true;
        }
        let series_json = |series: &Option<presto_common::TimeSeries>| match series {
            Some(s) => Json::Arr(
                s.points()
                    .into_iter()
                    .map(|(at_us, v)| Json::Arr(vec![Json::U64(at_us), Json::U64(v)]))
                    .collect(),
            ),
            None => Json::Arr(Vec::new()),
        };
        json_rows.push((
            (*name).to_string(),
            Json::Obj(vec![
                ("completed".into(), Json::U64(a.completed)),
                ("failed".into(), Json::U64(a.failed)),
                ("makespan_us".into(), Json::U64(a.makespan_us)),
                ("scale_outs".into(), Json::U64(e.scale_outs)),
                ("scale_ins".into(), Json::U64(e.scale_ins)),
                ("peak_workers".into(), Json::U64(e.peak_workers as u64)),
                ("final_workers".into(), Json::U64(e.final_workers as u64)),
                ("snapshots".into(), Json::U64(a.telemetry_snapshots)),
                ("telemetry_digest".into(), Json::Str(format!("{:#018x}", a.telemetry_digest))),
                ("deterministic".into(), Json::Bool(deterministic)),
                (
                    "actions".into(),
                    Json::Arr(
                        e.actions
                            .iter()
                            .map(|&(at_us, delta)| {
                                Json::Arr(vec![Json::U64(at_us), Json::Str(delta.to_string())])
                            })
                            .collect(),
                    ),
                ),
                ("fleet_busy_pct".into(), series_json(&busy_series)),
                ("queue_depth".into(), series_json(&depth_series)),
            ]),
        ));
        action_traces.push(e.actions);
    }
    println!("{}", table.render());

    let diverged = action_traces.first() != action_traces.last();
    if !diverged {
        eprintln!(
            "telemetry gate FAILED: the busy-fraction policy produced the same action trace \
             as the queue-depth-only counterfactual — the second signal changed nothing"
        );
        gate_failed = true;
    } else {
        println!(
            "busy-vs-queue counterfactual: action traces diverge ({} vs {} actions)\n",
            action_traces.first().map(Vec::len).unwrap_or(0),
            action_traces.last().map(Vec::len).unwrap_or(0),
        );
    }

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("telemetry".into())),
        ("variants".into(), Json::Obj(json_rows)),
        ("counterfactual_diverged".into(), Json::Bool(diverged)),
        ("gates_passed".into(), Json::Bool(!gate_failed)),
    ]);
    match write_bench_json("telemetry", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_telemetry.json: {e}"),
    }
    if gate_failed {
        std::process::exit(1);
    }
}

fn run_elastic() {
    use presto_bench::elastic;
    use presto_sim::run_simulation;
    println!("\n=== elastic lifecycle: autoscaler, graceful decommission, revocation storm ===");
    println!(
        "multi-tenant diurnal load; scenarios run twice each to check same-seed digests;\n\
         gates: zero failed queries in every scenario, storm recovery within {} virtual ms\n",
        elastic::RECOVERY_BOUND_US / 1_000
    );

    let scenarios: [(&str, presto_sim::SimConfig); 3] = [
        ("scale-down", elastic::scale_down_config(7)),
        ("storm", elastic::storm_config(7)),
        ("rush-lull", elastic::rush_lull_config(7)),
    ];
    let mut table = Table::new(
        "lifecycle scenarios (2000 queries each, virtual time)",
        &[
            "scenario",
            "ok/failed",
            "peak/final workers",
            "out/in",
            "drained",
            "revoked",
            "recovery",
            "deterministic",
        ],
    );
    let mut json_rows: Vec<(String, Json)> = Vec::new();
    let mut gate_failed = false;
    for (name, config) in &scenarios {
        let (a, b) = match (run_simulation(config), run_simulation(config)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("elastic scenario '{name}' failed to run: {e}");
                std::process::exit(1);
            }
        };
        let deterministic =
            a.digest == b.digest && a.trace_digest == b.trace_digest && a.elastic == b.elastic;
        let Some(e) = a.elastic.clone() else {
            eprintln!("elastic scenario '{name}' produced no elastic report");
            std::process::exit(1);
        };
        let recovery = match (e.storm_at_us, e.recovered_at_us) {
            (None, _) => "n/a".to_string(),
            (Some(storm), Some(rec)) => format!("{} µs", rec.saturating_sub(storm)),
            (Some(_), None) => "NEVER".to_string(),
        };
        table.row(vec![
            (*name).into(),
            format!("{}/{}", a.completed, a.failed),
            format!("{}/{}", e.peak_workers, e.final_workers),
            format!("{}/{}", e.scale_outs, e.scale_ins),
            e.workers_decommissioned.to_string(),
            e.workers_revoked.to_string(),
            recovery,
            if deterministic { "yes".into() } else { "NO".into() },
        ]);
        if a.failed > 0 {
            eprintln!("elastic gate FAILED: scenario '{name}' failed {} queries", a.failed);
            gate_failed = true;
        }
        if !deterministic {
            eprintln!("elastic gate FAILED: scenario '{name}' same-seed digests diverged");
            gate_failed = true;
        }
        if !e.recovered_within_bound() {
            eprintln!(
                "elastic gate FAILED: scenario '{name}' did not recover from the storm \
                 within {} virtual µs: {e:?}",
                e.recovery_bound_us
            );
            gate_failed = true;
        }
        json_rows.push((
            (*name).to_string(),
            Json::Obj(vec![
                ("completed".into(), Json::U64(a.completed)),
                ("failed".into(), Json::U64(a.failed)),
                ("makespan_us".into(), Json::U64(a.makespan_us)),
                ("scale_outs".into(), Json::U64(e.scale_outs)),
                ("scale_ins".into(), Json::U64(e.scale_ins)),
                ("workers_added".into(), Json::U64(e.workers_added)),
                ("workers_decommissioned".into(), Json::U64(e.workers_decommissioned)),
                ("workers_revoked".into(), Json::U64(e.workers_revoked)),
                ("splits_handed_off".into(), Json::U64(e.splits_handed_off)),
                ("cache_entries_migrated".into(), Json::U64(e.cache_entries_migrated)),
                ("peak_workers".into(), Json::U64(e.peak_workers as u64)),
                ("final_workers".into(), Json::U64(e.final_workers as u64)),
                (
                    "recovered_us".into(),
                    match (e.storm_at_us, e.recovered_at_us) {
                        (Some(storm), Some(rec)) => Json::U64(rec.saturating_sub(storm)),
                        (Some(_), None) => Json::Str("never".into()),
                        (None, _) => Json::Str("n/a".into()),
                    },
                ),
                ("recovered_within_bound".into(), Json::Bool(e.recovered_within_bound())),
                ("digest".into(), Json::Str(format!("{:#018x}", a.digest))),
                ("deterministic".into(), Json::Bool(deterministic)),
            ]),
        ));
    }
    println!("{}", table.render());

    let migration = match elastic::run_cache_migration() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("elastic cache-migration check failed to run: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "cache migration (tpch, drain mid-query): {} entries migrated, {} splits handed off,\n\
         frc hits {} -> {}, answers match: {}, failed queries: {}\n",
        migration.entries_migrated,
        migration.splits_handed_off,
        migration.warm_hits,
        migration.hits_after_drain,
        migration.rows_match,
        migration.queries_failed,
    );
    if !migration.rows_match
        || migration.queries_failed > 0
        || migration.entries_migrated == 0
        || migration.workers_decommissioned != 1
    {
        eprintln!("elastic gate FAILED: cache migration check: {migration:?}");
        gate_failed = true;
    }

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("elastic".into())),
        ("scenarios".into(), Json::Obj(json_rows)),
        (
            "cache_migration".into(),
            Json::Obj(vec![
                ("entries_migrated".into(), Json::U64(migration.entries_migrated)),
                ("splits_handed_off".into(), Json::U64(migration.splits_handed_off)),
                ("warm_hits".into(), Json::U64(migration.warm_hits)),
                ("hits_after_drain".into(), Json::U64(migration.hits_after_drain)),
                ("rows_match".into(), Json::Bool(migration.rows_match)),
                ("queries_failed".into(), Json::U64(migration.queries_failed)),
            ]),
        ),
        ("gates_passed".into(), Json::Bool(!gate_failed)),
    ]);
    match write_bench_json("elastic", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_elastic.json: {e}"),
    }
    if gate_failed {
        std::process::exit(1);
    }
}

fn run_sim() {
    use presto_sim::{run_simulation, SchedulerMode, SimConfig, TenantClass};
    println!("\n=== multi-tenant workload simulation: WFQ vs FIFO dispatch ===");
    let config = SimConfig::default();
    println!(
        "{} tenants (zipf s={}), {} queries, diurnal rush over {} workers / {} slots; seed {}\n",
        config.tenants,
        config.zipf_exponent,
        config.queries,
        config.workers,
        config.slots,
        config.seed
    );
    let wfq = match run_simulation(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sim (wfq) failed: {e}");
            std::process::exit(1);
        }
    };
    let wfq_again = match run_simulation(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sim (wfq, rerun) failed: {e}");
            std::process::exit(1);
        }
    };
    let fifo = match run_simulation(&SimConfig { mode: SchedulerMode::Fifo, ..config.clone() }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sim (fifo) failed: {e}");
            std::process::exit(1);
        }
    };

    let classes = [TenantClass::Interactive, TenantClass::Dashboard, TenantClass::Batch];
    let mut table = Table::new(
        "end-to-end latency by workload class (virtual µs)",
        &["class", "queries", "fifo p50", "fifo p99", "wfq p50", "wfq p99", "slo p99"],
    );
    for class in classes {
        let (f, w) = (&fifo.class_latency_us[class.name()], &wfq.class_latency_us[class.name()]);
        table.row(vec![
            class.name().into(),
            w.count().to_string(),
            f.quantile(0.5).to_string(),
            f.quantile(0.99).to_string(),
            w.quantile(0.5).to_string(),
            w.quantile(0.99).to_string(),
            config.slos.p99_target(class).to_string(),
        ]);
    }
    println!("{}", table.render());

    let mut slo_table = Table::new(
        "per-tenant SLO attainment (busiest tenant per class + worst tenant)",
        &["tenant", "class", "queries", "wfq p50", "wfq p99", "slo p99", "within"],
    );
    let mut shown: Vec<&presto_sim::TenantReport> = Vec::new();
    for class in classes {
        if let Some(busiest) = wfq.class_rows(class).max_by_key(|t| (t.queries, t.tenant)) {
            shown.push(busiest);
        }
    }
    if let Some(worst) = wfq.tenants.iter().find(|t| t.tenant == wfq.worst_tenant) {
        if !shown.iter().any(|t| t.tenant == worst.tenant) {
            shown.push(worst);
        }
    }
    for t in shown {
        slo_table.row(vec![
            format!("t{}", t.tenant),
            t.class.name().into(),
            t.queries.to_string(),
            t.p50_us.to_string(),
            t.p99_us.to_string(),
            t.slo_p99_us.to_string(),
            if t.within_slo { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", slo_table.render());

    let deterministic = wfq.digest == wfq_again.digest
        && wfq.trace_digest == wfq_again.trace_digest
        && wfq.tenant_latency_us == wfq_again.tenant_latency_us;
    println!(
        "worst-tenant p99: fifo {} µs (t{}) -> wfq {} µs (t{})",
        fifo.worst_p99_us, fifo.worst_tenant, wfq.worst_p99_us, wfq.worst_tenant
    );
    println!(
        "SLO violations: fifo {} tenants, wfq {} tenants (interactive lane clean: {})",
        fifo.slo_violations,
        wfq.slo_violations,
        wfq.class_within_slo(TenantClass::Interactive)
    );
    println!(
        "determinism: two seed-{} runs -> digests {:#018x} / {:#018x}, traces {:#018x} / {:#018x} ({})\n",
        config.seed,
        wfq.digest,
        wfq_again.digest,
        wfq.trace_digest,
        wfq_again.trace_digest,
        if deterministic { "identical" } else { "MISMATCH" }
    );

    let mode_json = |r: &presto_sim::SimReport| {
        Json::Obj(vec![
            ("completed".into(), Json::U64(r.completed)),
            ("failed".into(), Json::U64(r.failed)),
            ("makespan_us".into(), Json::U64(r.makespan_us)),
            ("worst_tenant".into(), Json::U64(u64::from(r.worst_tenant))),
            ("worst_tenant_p99_us".into(), Json::U64(r.worst_p99_us)),
            ("slo_violations".into(), Json::U64(r.slo_violations)),
            ("latency_us".into(), histogram_json(&r.latency_us)),
            ("queue_wait_us".into(), histogram_json(&r.queue_wait_us)),
            (
                "class_p99_us".into(),
                Json::Obj(
                    r.class_latency_us
                        .iter()
                        .map(|(k, h)| ((*k).into(), Json::U64(h.quantile(0.99))))
                        .collect(),
                ),
            ),
            ("digest".into(), Json::Str(format!("{:#018x}", r.digest))),
            ("trace_digest".into(), Json::Str(format!("{:#018x}", r.trace_digest))),
        ])
    };
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("sim".into())),
        ("tenants".into(), Json::U64(u64::from(config.tenants))),
        ("queries".into(), Json::U64(config.queries)),
        ("wfq".into(), mode_json(&wfq)),
        ("fifo".into(), mode_json(&fifo)),
        ("deterministic".into(), Json::Bool(deterministic)),
        ("wfq_improves_worst_tenant_p99".into(), Json::Bool(wfq.worst_p99_us < fifo.worst_p99_us)),
        (
            "interactive_within_slo".into(),
            Json::Bool(wfq.class_within_slo(TenantClass::Interactive)),
        ),
    ]);
    match write_bench_json("sim", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_sim.json: {e}"),
    }
    if !deterministic {
        eprintln!("sim determinism check FAILED: same-seed runs diverged");
        std::process::exit(1);
    }
    if wfq.worst_p99_us >= fifo.worst_p99_us {
        eprintln!(
            "sim fairness check FAILED: wfq worst-tenant p99 ({} µs) does not improve on fifo ({} µs)",
            wfq.worst_p99_us, fifo.worst_p99_us
        );
        std::process::exit(1);
    }
    if !wfq.class_within_slo(TenantClass::Interactive) {
        eprintln!("sim SLO check FAILED: an interactive tenant missed its p99 target under wfq");
        std::process::exit(1);
    }
    if wfq.completed != config.queries || fifo.completed != config.queries {
        eprintln!(
            "sim completion check FAILED: wfq {} / fifo {} of {} queries completed",
            wfq.completed, fifo.completed, config.queries
        );
        std::process::exit(1);
    }
}

fn run_obs() {
    println!("\n=== observability: latency quantiles, EXPLAIN ANALYZE, span tree ===");
    let config = obs::ObsConfig::default();
    println!(
        "{} join+agg dashboard queries on {} workers ({} warm-up, discarded via clear())\n",
        config.queries, config.workers, config.warmup
    );
    let r = obs::run(&config);
    let mut table = Table::new(
        "virtual-time latency distributions",
        &["histogram", "count", "p50", "p95", "p99", "max"],
    );
    table.row(vec![
        "query latency (µs)".into(),
        r.latency.count().to_string(),
        r.latency.quantile(0.50).to_string(),
        r.latency.quantile(0.95).to_string(),
        r.latency.quantile(0.99).to_string(),
        r.latency.max().to_string(),
    ]);
    table.row(vec![
        "admission queue wait (ms)".into(),
        r.queue_wait.count().to_string(),
        r.queue_wait.quantile(0.50).to_string(),
        r.queue_wait.quantile(0.95).to_string(),
        r.queue_wait.quantile(0.99).to_string(),
        r.queue_wait.max().to_string(),
    ]);
    println!("{}", table.render());
    println!("EXPLAIN ANALYZE (representative query):\n{}", r.explain);
    println!(
        "span tree ({} spans, digest {:#018x}):\n{}",
        r.trace_spans, r.trace_digest, r.trace_render
    );
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("obs".into())),
        ("queries".into(), Json::U64(r.queries as u64)),
        ("query_latency_us".into(), histogram_json(&r.latency)),
        ("admission_queue_wait_ms".into(), histogram_json(&r.queue_wait)),
        ("trace_spans".into(), Json::U64(r.trace_spans as u64)),
        ("trace_digest".into(), Json::Str(format!("{:#018x}", r.trace_digest))),
        (
            "counters".into(),
            Json::Obj(r.counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect()),
        ),
    ]);
    match write_bench_json("obs", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_obs.json: {e}"),
    }
}

fn run_chaos() {
    println!("\n=== §XII: chaos — fault injection vs coordinator recovery ===");
    println!(
        "40 queries x 12 splits on 6 workers; every task faults with probability p,\n\
         worker 0 crashes at its 25th task; seed 42; backoff on the virtual clock\n"
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
            let r = chaos::run(&chaos::ChaosConfig {
                fault_rate: rate,
                recovery,
                ..chaos::ChaosConfig::default()
            });
            table.row(vec![
                format!("{:.0}%", rate * 100.0),
                if recovery { "on".into() } else { "off".into() },
                format!("{}/{} ({:.0}%)", r.succeeded, r.queries, r.success_rate() * 100.0),
                r.split_retries.to_string(),
                r.worker_failures.to_string(),
                r.blacklisted_workers.to_string(),
                format!("{}/{}", r.crashes_injected, r.task_faults_injected),
                format!("{} ms", r.virtual_ms),
            ]);
        }
    }
    println!("{}", table.render());
    let a = chaos::run(&chaos::ChaosConfig::default());
    let b = chaos::run(&chaos::ChaosConfig::default());
    let identical = a.rows_digest == b.rows_digest
        && a.trace_digest == b.trace_digest
        && a.split_retries == b.split_retries;
    println!(
        "determinism: two seed-42 runs -> rows {:#018x} / {:#018x}, traces {:#018x} / {:#018x} ({})\n",
        a.rows_digest,
        b.rows_digest,
        a.trace_digest,
        b.trace_digest,
        if identical { "identical" } else { "MISMATCH" }
    );
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("chaos".into())),
        ("queries".into(), Json::U64(a.queries as u64)),
        ("succeeded".into(), Json::U64(a.succeeded as u64)),
        ("split_retries".into(), Json::U64(a.split_retries)),
        ("worker_failures".into(), Json::U64(a.worker_failures)),
        ("virtual_ms".into(), Json::U64(a.virtual_ms)),
        ("rows_digest".into(), Json::Str(format!("{:#018x}", a.rows_digest))),
        ("trace_digest".into(), Json::Str(format!("{:#018x}", a.trace_digest))),
        ("deterministic".into(), Json::Bool(identical)),
    ]);
    match write_bench_json("chaos", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_chaos.json: {e}"),
    }
    if !identical {
        eprintln!("chaos determinism check FAILED: same-seed runs diverged");
        std::process::exit(1);
    }
    run_speculation();
}

fn run_speculation() {
    println!("=== §XII: stragglers — speculative execution on mid-stream stalls ===");
    let config = chaos::StragglerConfig::default();
    println!(
        "{} queries x 12 splits on {} workers; each scan page stalls with p={:.0}% for {} ms;\n\
         speculation duplicates any split past the p99 of its completed siblings\n",
        config.queries,
        config.workers,
        config.stall_rate * 100.0,
        config.stall.as_millis()
    );
    let on = chaos::run_straggler(&config);
    let off =
        chaos::run_straggler(&chaos::StragglerConfig { speculation: false, ..config.clone() });
    let mut table = Table::new(
        "query latency under injected stragglers (virtual µs)",
        &["speculation", "queries ok", "p50", "p95", "p99", "launches", "wins", "wasted"],
    );
    for r in [&on, &off] {
        table.row(vec![
            if r.speculation { "on".into() } else { "off".into() },
            format!("{}/{}", r.succeeded, r.queries),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
            r.speculative_launches.to_string(),
            r.speculative_wins.to_string(),
            r.speculative_wasted.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "answers agree across modes: {} (rows {:#018x} / {:#018x})\n",
        if on.rows_digest == off.rows_digest { "yes" } else { "NO" },
        on.rows_digest,
        off.rows_digest
    );
    let mode_json = |r: &chaos::StragglerResult| {
        Json::Obj(vec![
            ("succeeded".into(), Json::U64(r.succeeded as u64)),
            ("p50_us".into(), Json::U64(r.p50_us)),
            ("p95_us".into(), Json::U64(r.p95_us)),
            ("p99_us".into(), Json::U64(r.p99_us)),
            ("speculative_launches".into(), Json::U64(r.speculative_launches)),
            ("speculative_wins".into(), Json::U64(r.speculative_wins)),
            ("speculative_wasted".into(), Json::U64(r.speculative_wasted)),
            ("stalls_injected".into(), Json::U64(r.stalls_injected)),
            ("virtual_ms".into(), Json::U64(r.virtual_ms)),
            ("rows_digest".into(), Json::Str(format!("{:#018x}", r.rows_digest))),
            ("trace_digest".into(), Json::Str(format!("{:#018x}", r.trace_digest))),
        ])
    };
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("speculation".into())),
        ("queries".into(), Json::U64(on.queries as u64)),
        ("seed".into(), Json::U64(chaos::StragglerConfig::default().seed)),
        ("speculation_on".into(), mode_json(&on)),
        ("speculation_off".into(), mode_json(&off)),
        ("answers_agree".into(), Json::Bool(on.rows_digest == off.rows_digest)),
        ("tail_cut".into(), Json::Bool(on.p99_us < off.p99_us)),
    ]);
    match write_bench_json("speculation", &json) {
        Ok(path) => println!("wrote {path}\n"),
        Err(e) => eprintln!("could not write BENCH_speculation.json: {e}"),
    }
    if on.rows_digest != off.rows_digest {
        eprintln!("speculation correctness check FAILED: modes returned different answers");
        std::process::exit(1);
    }
    if on.p99_us >= off.p99_us {
        eprintln!("speculation tail check FAILED: on p99 {} >= off p99 {}", on.p99_us, off.p99_us);
        std::process::exit(1);
    }
}

fn run_resource() {
    println!("\n=== §XII.C: memory pools + spill-to-disk on the Fig 17 joins ===");
    println!("each join capped at half its unconstrained peak; spill on local disk\n");
    let spill_dir =
        presto_storage::LocalFileSystem::temp("resource-exp").expect("create spill tempdir");
    let spill_root = spill_dir.root().to_path_buf();
    let results = resource_exp::run(20_000, Arc::new(spill_dir));
    let mut table = Table::new(
        "12 joins, budget = peak/2",
        &[
            "query",
            "peak",
            "budget",
            "without subsystem",
            "with subsystem",
            "spilled",
            "rows match",
        ],
    );
    let mut killed = 0;
    let mut completed = 0;
    let mut spilled_total = 0;
    for r in &results {
        killed += r.unmanaged_killed() as usize;
        completed += r.managed_ok as usize;
        spilled_total += r.spilled_bytes;
        table.row(vec![
            r.name.clone(),
            format!("{} B", r.peak_bytes),
            format!("{} B", r.budget_bytes),
            r.unmanaged_error.clone().unwrap_or_else(|| "completed".into()),
            if r.managed_ok { "completed".into() } else { "failed".into() },
            format!("{} B / {} files", r.spilled_bytes, r.spill_files),
            r.rows_match.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "without subsystem: {killed}/12 killed; with subsystem: {completed}/12 completed, {spilled_total} bytes spilled\n"
    );
    let _ = std::fs::remove_dir_all(spill_root);
}

fn run_fig16() {
    println!("\n=== Fig 16: Druid vs Presto-Druid connector ===");
    println!("paper claim: connector adds <15% overhead; most queries < 1s\n");
    let results = fig16::run(200_000);
    let mut table = Table::new(
        "20 production-style queries (14 predicated, 5 limited, 12 aggregations)",
        &["query", "druid native", "presto-druid connector", "overhead"],
    );
    let mut overheads = Vec::new();
    for r in &results {
        overheads.push(r.overhead_pct);
        table.row(vec![
            r.name.clone(),
            ms(r.native),
            ms(r.connector),
            format!("{:+.1}%", r.overhead_pct),
        ]);
    }
    println!("{}", table.render());
    overheads.sort_by(f64::total_cmp);
    let median = overheads[overheads.len() / 2];
    let sub_second = results.iter().filter(|r| r.connector < Duration::from_secs(1)).count();
    println!("median overhead: {median:+.1}%  (paper: <15%)");
    println!("queries under 1s through the connector: {sub_second}/20\n");
}

fn run_fig17() {
    println!("\n=== Fig 17: legacy vs new Parquet reader ===");
    println!("paper claim: 2–10x speedup across 21 queries; P90 5min → 40s\n");
    let results = fig17::run(60_000);
    let mut table = Table::new(
        "21 queries over nested trips (4 scans incl. 2 needle-in-haystack, 5 group-bys, 12 joins)",
        &["query", "kind", "old reader", "new reader", "speedup"],
    );
    for r in &results {
        table.row(vec![
            r.name.clone(),
            format!("{:?}", r.kind),
            ms(r.old_reader),
            ms(r.new_reader),
            format!("{:.1}x", r.speedup),
        ]);
    }
    println!("{}", table.render());
    let mut speedups: Vec<f64> = results.iter().map(|r| r.speedup).collect();
    speedups.sort_by(f64::total_cmp);
    println!(
        "speedup min/median/max: {:.1}x / {:.1}x / {:.1}x  (paper: 2–10x)\n",
        speedups[0],
        speedups[speedups.len() / 2],
        speedups[speedups.len() - 1]
    );
}

fn run_writer_figure(codec: Codec, title: &str) {
    println!("\n=== {title} ===");
    println!("paper claim: native writer ≥ ~20% throughput gain (bigint+gzip best; lineitem ~50% uncompressed)\n");
    let results = writers::run_figure(codec, 150_000);
    let mut table = Table::new(
        format!("codec = {}", codec.name()),
        &["workload", "old writer", "native writer", "gain"],
    );
    for r in &results {
        table.row(vec![
            r.workload.clone(),
            format!("{:.1} MB/s", r.old_mbps()),
            format!("{:.1} MB/s", r.native_mbps()),
            format!("{:+.0}%", r.gain_pct()),
        ]);
    }
    println!("{}", table.render());
    // the figure compares two ways of producing one file; two files would
    // make it a comparison of formats
    let differing: Vec<&str> =
        results.iter().filter(|r| !r.files_identical).map(|r| r.workload.as_str()).collect();
    if !differing.is_empty() {
        eprintln!("FAIL: the two writers' files differ in bytes for {differing:?}");
        std::process::exit(1);
    }
    println!("both writers produced byte-identical files for all {} workloads", results.len());
}

fn run_geo() {
    println!("\n=== §VI: QuadTree geospatial join vs brute force ===");
    println!("paper claim: Presto Geospatial plugin >50x faster than brute force\n");
    let mut table = Table::new(
        "trips-in-city counting",
        &[
            "cities",
            "trips",
            "vertices",
            "quadtree",
            "brute force",
            "speedup",
            "st_contains calls (quad vs brute)",
        ],
    );
    for (cities, trips, vertices) in [(500, 20_000, 100), (2_000, 20_000, 200), (5_000, 5_000, 400)]
    {
        let r = geo_exp::run(cities, trips, vertices, 7);
        table.row(vec![
            cities.to_string(),
            trips.to_string(),
            vertices.to_string(),
            ms(r.quadtree),
            ms(r.brute_force),
            format!("{:.0}x", r.speedup()),
            format!("{} vs {}", r.quadtree_contains_calls, r.brute_contains_calls),
        ]);
    }
    println!("{}", table.render());
}

fn run_cache() {
    println!("\n=== §VII: file-list cache and file-handle/footer cache ===");
    println!("paper claims: listFiles reduced to <40%; ~90% of getFileInfo removed\n");
    let result = cache_exp::run(&cache_exp::CacheTrace::default(), 7);
    let mut table = Table::new(
        "2000-scan trace, 5 hot tables (sealed+open partitions), 20 cold tables",
        &["metric", "baseline", "with caches", "paper", "measured"],
    );
    table.row(vec![
        "HDFS listFiles calls".into(),
        result.list_calls_baseline.to_string(),
        result.list_calls_cached.to_string(),
        "< 40% remain".into(),
        format!("{:.1}% remain", result.list_remaining_pct()),
    ]);
    table.row(vec![
        "HDFS getFileInfo calls".into(),
        result.getinfo_calls_baseline.to_string(),
        result.getinfo_calls_cached.to_string(),
        "~90% removed".into(),
        format!("{:.1}% removed", result.getinfo_reduction_pct()),
    ]);
    println!("{}", table.render());
}

fn run_s3() {
    println!("\n=== §IX: PrestoS3FileSystem optimizations ===\n");
    let lazy = s3_exp::lazy_seek(50);
    let mut table = Table::new(
        "lazy seek (footer-first access over 50 files)",
        &["policy", "GET requests", "virtual time"],
    );
    table.row(vec!["eager seek".into(), lazy.eager_gets.to_string(), ms(lazy.eager_time)]);
    table.row(vec!["lazy seek".into(), lazy.lazy_gets.to_string(), ms(lazy.lazy_time)]);
    println!("{}", table.render());

    let backoff = s3_exp::backoff(200, 3);
    let mut table = Table::new(
        "exponential backoff (503 every 3rd request)",
        &["policy", "reads completed", "retries", "time backing off"],
    );
    table.row(vec![
        "no retries".into(),
        format!("{}/200", backoff.completed_without_retries),
        "0".into(),
        "0ms".into(),
    ]);
    table.row(vec![
        "exponential backoff".into(),
        format!("{}/200", backoff.completed_with_retries),
        backoff.retries.to_string(),
        ms(backoff.backoff_time),
    ]);
    println!("{}", table.render());

    let select = s3_exp::s3_select(20_000);
    let mut table = Table::new("S3 Select (project 2 of 8 columns)", &["path", "bytes out of S3"]);
    table.row(vec!["full GET".into(), select.full_bytes.to_string()]);
    table.row(vec!["S3 Select".into(), select.select_bytes.to_string()]);
    println!("{}", table.render());

    let multi = s3_exp::multipart(64);
    let mut table = Table::new(
        "multipart upload (64 MiB object, 4 MiB parts)",
        &["path", "virtual upload time", "effective throughput"],
    );
    table.row(vec![
        "single PUT".into(),
        ms(multi.single_put),
        mbps(64 * 1024 * 1024, multi.single_put),
    ]);
    table.row(vec![
        "multipart (parallel parts)".into(),
        ms(multi.multipart),
        mbps(64 * 1024 * 1024, multi.multipart),
    ]);
    println!("{}", table.render());
}

fn run_shrink() {
    println!("\n=== §IX: graceful expansion and shrink ===");
    println!("paper claim: workers drain through SHUTTING_DOWN with zero failed queries\n");
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    let pages: Vec<Page> = (0..16)
        .map(|p| Page::new(vec![Block::bigint((p * 100..p * 100 + 100).collect())]).unwrap())
        .collect();
    memory.create_table("default", "t", schema, pages).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "elastic",
        engine,
        ClusterConfig {
            initial_workers: 2,
            grace_period: Duration::from_secs(120),
            ..ClusterConfig::default()
        },
        clock.clone(),
    );
    let session = Session::default();
    let mut table =
        Table::new("timeline", &["event", "active workers", "queries ok", "queries failed"]);
    let snapshot = |cluster: &PrestoCluster, event: &str, table: &mut Table| {
        table.row(vec![
            event.to_string(),
            cluster.active_workers().len().to_string(),
            cluster.queries_started().to_string(),
            cluster.metrics().get("cluster.queries_failed").to_string(),
        ]);
    };
    cluster.execute("SELECT count(*) FROM t", &session).unwrap();
    snapshot(&cluster, "baseline (2 workers)", &mut table);
    cluster.expand(6);
    cluster.execute("SELECT count(*) FROM t", &session).unwrap();
    snapshot(&cluster, "busy hours: expand to 8", &mut table);
    for id in 2..8 {
        cluster.request_worker_shutdown(id).unwrap();
    }
    for _ in 0..4 {
        cluster.execute("SELECT count(*) FROM t", &session).unwrap();
        clock.advance(Duration::from_secs(61));
        cluster.tick();
    }
    snapshot(&cluster, "shrinking: 6 workers draining", &mut table);
    clock.advance(Duration::from_secs(240));
    cluster.tick();
    cluster.execute("SELECT count(*) FROM t", &session).unwrap();
    snapshot(&cluster, "after grace periods", &mut table);
    println!("{}", table.render());
}

fn run_gateway() {
    println!("\n=== §VIII: cluster federation gateway ===");
    println!("paper claim: MySQL-driven routing, zero-downtime redirect during maintenance\n");
    let gateway = PrestoGateway::new(MySqlConnector::new()).unwrap();
    let mk = |name: &str| {
        PrestoCluster::new(
            name,
            PrestoEngine::new(),
            ClusterConfig {
                initial_workers: 2,
                grace_period: Duration::from_secs(10),
                ..ClusterConfig::default()
            },
            SimClock::new(),
        )
    };
    let clusters: Vec<_> = ["dedicated-ads", "dedicated-eats", "shared-1", "shared-2", "adhoc"]
        .iter()
        .map(|n| mk(n))
        .collect();
    for c in &clusters {
        gateway.add_cluster(c.clone());
    }
    gateway.set_route("*", "shared-1").unwrap();
    gateway.set_route("ads", "dedicated-ads").unwrap();
    gateway.set_route("eats", "dedicated-eats").unwrap();

    let session = Session::default();
    let mut table = Table::new("routing under maintenance", &["phase", "group", "served by"]);
    for group in ["ads", "eats", "random-team"] {
        table.row(vec!["normal".into(), group.into(), gateway.route(group).unwrap().cluster]);
    }
    clusters[0].set_maintenance(true); // upgrade dedicated-ads
    for group in ["ads", "eats"] {
        gateway.submit(group, "SELECT 1", &session).unwrap();
        table.row(vec![
            "dedicated-ads in maintenance".into(),
            group.into(),
            gateway.route(group).unwrap().cluster,
        ]);
    }
    clusters[0].set_maintenance(false);
    table.row(vec!["after upgrade".into(), "ads".into(), gateway.route("ads").unwrap().cluster]);
    println!("{}", table.render());
    println!(
        "queries failed during the whole exercise: {}",
        clusters.iter().map(|c| c.metrics().get("cluster.queries_failed")).sum::<u64>()
    );
}
