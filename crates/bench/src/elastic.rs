//! Elastic-lifecycle experiments: graceful scale-down under live load, a
//! spot-revocation storm with autoscaler backfill, and an autoscaling
//! rush/lull cycle — all on the multi-tenant workload simulation — plus a
//! direct fragment-cache-migration check on a TPC-H cluster.

use std::sync::Arc;
use std::time::Duration;

use presto_cluster::{AutoscalerConfig, ClusterConfig, PrestoCluster};
use presto_common::cost::TASK_US;
use presto_common::metrics::names;
use presto_common::{PrestoError, Result, SimClock};
use presto_core::{PrestoEngine, Session};
use presto_sim::{
    run_simulation, ArrivalProcess, ElasticPlan, ElasticReport, SchedulerMode, SimConfig,
    SimReport, SloPolicy,
};

use crate::report::{replay, Gate, Json, Report, Table};

/// Virtual instant of the revocation storm in [`storm_config`].
pub const STORM_AT_US: u64 = 400 * TASK_US;

/// Recovery budget after the storm (virtual µs): active capacity must be
/// back at the pre-storm level within 10,000 tasks (one virtual second).
pub const RECOVERY_BOUND_US: u64 = 10_000 * TASK_US;

/// The shared workload every scenario runs: a diurnal multi-tenant rush
/// with enough contention that queues actually form.
fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        tenants: 120,
        queries: 2_000,
        zipf_exponent: 0.8,
        arrival: ArrivalProcess::Diurnal {
            mean_interarrival_us: 1.3 * TASK_US as f64,
            amplitude: 0.6,
            cycle_us: 500 * TASK_US,
        },
        workers: 6,
        slots: 8,
        mode: SchedulerMode::Wfq,
        slos: SloPolicy::default(),
        elastic: None,
    }
}

/// Scenario A — graceful scale-down under live load: three scheduled
/// decommissions drain the coldest worker each, mid-run, while the rush is
/// in flight. The gate: zero failed queries, all drains reaped.
pub fn scale_down_config(seed: u64) -> SimConfig {
    let mut config = base_config(seed);
    config.elastic = Some(ElasticPlan {
        decommission_at_us: vec![200 * TASK_US, 400 * TASK_US, 600 * TASK_US],
        ..ElasticPlan::default()
    });
    config
}

/// Scenario B — the spot-revocation storm: half the fleet is preemptible
/// (4 on-demand + 4 spot), the whole spot class is revoked at
/// [`STORM_AT_US`], and the queue-driven autoscaler must backfill on-demand
/// capacity within [`RECOVERY_BOUND_US`] — with every query still
/// succeeding via retry on the survivors.
pub fn storm_config(seed: u64) -> SimConfig {
    let mut config = base_config(seed);
    config.workers = 4;
    config.elastic = Some(ElasticPlan {
        autoscaler: Some(AutoscalerConfig {
            // capped at the provisioned fleet so recovery is a real
            // backfill: the autoscaler cannot bank spare capacity before
            // the storm and coast through it
            max_workers: 8,
            high_water_depth: 2,
            scale_in_after: Duration::from_micros(5_000 * TASK_US),
            cooldown: Duration::from_micros(10 * TASK_US),
            ..AutoscalerConfig::default()
        }),
        spot_workers: 4,
        revoke_spot_at_us: Some(STORM_AT_US),
        recovery_bound_us: RECOVERY_BOUND_US,
        ..ElasticPlan::default()
    });
    config
}

/// Scenario C — rush and lull: a strongly diurnal arrival process over a
/// small starting fleet, with the autoscaler free to grow during the rush
/// and shrink (gracefully) during the lull. The gate: at least one
/// scale-out *and* one scale-in, zero failed queries.
pub fn rush_lull_config(seed: u64) -> SimConfig {
    let mut config = base_config(seed);
    config.workers = 3;
    config.arrival = ArrivalProcess::Diurnal {
        mean_interarrival_us: 1.5 * TASK_US as f64,
        amplitude: 0.95,
        cycle_us: 500 * TASK_US,
    };
    config.elastic = Some(ElasticPlan {
        autoscaler: Some(AutoscalerConfig {
            max_workers: 12,
            high_water_depth: 3,
            scale_in_after: Duration::from_micros(50 * TASK_US),
            cooldown: Duration::from_micros(20 * TASK_US),
            ..AutoscalerConfig::default()
        }),
        ..ElasticPlan::default()
    });
    config
}

/// What the fragment-cache migration check measured.
#[derive(Debug, Clone)]
pub struct MigrationResult {
    /// `frc.hits` after the warm-up run (affinity owners populated).
    pub warm_hits: u64,
    /// `frc.hits` after the post-drain run — successors serve migrated
    /// entries, so this must exceed `warm_hits`.
    pub hits_after_drain: u64,
    /// Entries copied to consistent successors when the drain began.
    pub entries_migrated: u64,
    /// Queued splits displaced off the draining worker mid-query.
    pub splits_handed_off: u64,
    /// Drained workers that ran the full state machine to the reaper.
    pub workers_decommissioned: u64,
    /// Queries the cluster failed (must stay 0 throughout).
    pub queries_failed: u64,
    /// Every run returned identical rows.
    pub rows_match: bool,
}

/// Drain a cache-owning worker *mid-query* on a TPC-H cluster with
/// affinity scheduling and fragment result caches: its queued splits are
/// handed off to survivors, its cache entries migrate to each split's
/// consistent successor, and the answers never change.
pub fn run_cache_migration() -> Result<MigrationResult> {
    // tpch "small" scans 10 splits (~11 tasks of virtual work each), so a
    // drain scheduled into wave 2 lands while the victim still has splits
    // queued — exercising the handoff path, not just the migration path
    const QUERY: &str = "SELECT count(*) FROM lineitem";
    let engine = PrestoEngine::new();
    engine.register_catalog("tpch", Arc::new(presto_connectors::tpch::TpchConnector::new()));
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "elastic-cache",
        engine,
        ClusterConfig {
            initial_workers: 2,
            affinity_scheduling: true,
            fragment_cache_entries: 64,
            grace_period: Duration::from_micros(2 * TASK_US),
            ..ClusterConfig::default()
        },
        clock.clone(),
    );
    let session = Session::new("tpch", "small");
    let baseline = cluster.execute(QUERY, &session)?;
    // warm: affinity routes each split to its owner, populating its cache
    cluster.execute(QUERY, &session)?;
    let warm_hits = cluster.metrics().get(names::FRC_HITS);

    // the drain comes due during the scan's second wave, so the worker
    // flips to Draining while it still has splits queued
    cluster.schedule_decommission(0, clock.now() + Duration::from_micros(15 * TASK_US));
    let during = cluster.execute(QUERY, &session)?;

    // let the drain run Grace1 → Draining → Grace2 → Terminated, then
    // reap; each grace phase restarts its timer, so tick twice
    for _ in 0..2 {
        clock.advance(Duration::from_micros(50 * TASK_US));
        cluster.tick();
    }
    let after = cluster.execute(QUERY, &session)?;

    Ok(MigrationResult {
        warm_hits,
        hits_after_drain: cluster.metrics().get(names::FRC_HITS),
        entries_migrated: cluster.metrics().get(names::CLUSTER_CACHE_ENTRIES_MIGRATED),
        splits_handed_off: cluster.metrics().get(names::CLUSTER_SPLITS_HANDED_OFF),
        workers_decommissioned: cluster.metrics().get(names::CLUSTER_WORKERS_DECOMMISSIONED),
        queries_failed: cluster.metrics().get(names::CLUSTER_QUERIES_FAILED),
        rows_match: baseline.rows() == during.rows() && baseline.rows() == after.rows(),
    })
}

/// Run a scenario twice: its run, its lifecycle report and the same-seed
/// replay gate over the workload, trace and telemetry digests.
pub(crate) fn replay_scenario(
    name: &str,
    config: &SimConfig,
) -> Result<(SimReport, ElasticReport, Gate)> {
    let key = |r: &SimReport| {
        (r.digest, r.trace_digest, r.telemetry_digest, r.telemetry_snapshots, r.elastic.clone())
    };
    let (a, _, replayed) = replay(name, || run_simulation(config), key)?;
    let e = a
        .elastic
        .clone()
        .ok_or_else(|| PrestoError::Internal(format!("{name}: no elastic report")))?;
    Ok((a, e, replayed))
}

/// The gate every elastic and telemetry run shares.
pub(crate) fn zero_failed(name: &str, r: &SimReport) -> Gate {
    Gate::new(format!("{name}: zero failed queries"), r.failed == 0, format!("{} failed", r.failed))
}

fn scenario_gates(name: &str, r: &SimReport, e: &ElasticReport) -> [Gate; 2] {
    let recovered = e.recovered_within_bound();
    let storm = Gate::new(format!("{name}: storm recovery in bound"), recovered, format!("{e:?}"));
    [zero_failed(name, r), storm]
}

fn migration_gate(m: &MigrationResult) -> Gate {
    let ok = m.rows_match
        && m.queries_failed == 0
        && m.entries_migrated > 0
        && m.workers_decommissioned == 1;
    Gate::new("cache migration keeps answers and moves entries", ok, format!("{m:?}"))
}

/// `paper-experiments elastic`: the three lifecycle scenarios, each run
/// twice, and the cache-migration check (`BENCH_elastic.json`).
pub fn report() -> Result<Report> {
    let mut report = Report::new(
        "\n=== elastic lifecycle: autoscaler, graceful decommission, revocation storm ===",
    );
    report.line(format!(
        "multi-tenant diurnal load; scenarios run twice each to check same-seed digests;\n\
         gates: zero failed queries in every scenario, storm recovery within {} virtual ms\n",
        RECOVERY_BOUND_US / 1_000
    ));
    let scenarios = [
        ("scale-down", scale_down_config(7)),
        ("storm", storm_config(7)),
        ("rush-lull", rush_lull_config(7)),
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
    for (name, config) in &scenarios {
        let (a, e, replayed) = replay_scenario(name, config)?;
        let recovered =
            e.storm_at_us.map(|storm| e.recovered_at_us.map(|rec| rec.saturating_sub(storm)));
        table.row(vec![
            (*name).into(),
            format!("{}/{}", a.completed, a.failed),
            format!("{}/{}", e.peak_workers, e.final_workers),
            format!("{}/{}", e.scale_outs, e.scale_ins),
            e.workers_decommissioned.to_string(),
            e.workers_revoked.to_string(),
            match recovered {
                None => "n/a".to_string(),
                Some(Some(us)) => format!("{us} µs"),
                Some(None) => "NEVER".to_string(),
            },
            if replayed.passed { "yes".into() } else { "NO".into() },
        ]);
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
                    match recovered {
                        None => Json::Str("n/a".into()),
                        Some(Some(us)) => Json::U64(us),
                        Some(None) => Json::Str("never".into()),
                    },
                ),
                ("recovered_within_bound".into(), Json::Bool(e.recovered_within_bound())),
                ("digest".into(), Json::Str(format!("{:#018x}", a.digest))),
                ("deterministic".into(), Json::Bool(replayed.passed)),
            ]),
        ));
        report.gates.push(replayed);
        report.gates.extend(scenario_gates(name, &a, &e));
    }
    report.line(table.render());

    let migration = run_cache_migration()?;
    report.line(format!(
        "cache migration (tpch, drain mid-query): {} entries migrated, {} splits handed off,\n\
         frc hits {} -> {}, answers match: {}, failed queries: {}\n",
        migration.entries_migrated,
        migration.splits_handed_off,
        migration.warm_hits,
        migration.hits_after_drain,
        migration.rows_match,
        migration.queries_failed,
    ));
    report.gates.push(migration_gate(&migration));

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
        ("gates_passed".into(), Json::Bool(report.gates.iter().all(|g| g.passed))),
    ]);
    report.bench = Some(("elastic".into(), json));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    fn shrunk(name: &str, mut config: SimConfig) -> (SimReport, ElasticReport) {
        config.queries = 600;
        let r = run_simulation(&config).unwrap();
        let e = r.elastic.clone().unwrap();
        assert_gates(&scenario_gates(name, &r, &e));
        (r, e)
    }

    #[test]
    fn scale_down_scenario_meets_its_gates() {
        let (_, e) = shrunk("scale-down", scale_down_config(7));
        assert_eq!(e.workers_decommissioned, 3);
        assert_eq!(e.final_workers, 3);
    }

    #[test]
    fn storm_scenario_recovers_in_bound() {
        let (_, e) = shrunk("storm", storm_config(7));
        assert_eq!(e.workers_revoked, 4);
    }

    #[test]
    fn rush_lull_scenario_scales_both_ways() {
        let (_, e) = shrunk("rush-lull", rush_lull_config(7));
        assert!(e.scale_outs > 0, "{e:?}");
        assert!(e.scale_ins > 0, "{e:?}");
    }

    #[test]
    fn cache_migration_preserves_answers_and_moves_entries() {
        let m = run_cache_migration().unwrap();
        assert_gates(&[migration_gate(&m)]);
        assert!(m.splits_handed_off > 0, "{m:?}");
        assert!(m.hits_after_drain > m.warm_hits, "{m:?}");
    }
}
