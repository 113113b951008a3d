//! §VIII / §IX cluster experiments: graceful expansion and shrink of one
//! cluster, and gateway routing across five clusters through a maintenance
//! window.

use std::time::Duration;

use presto_cluster::{ClusterConfig, PrestoCluster, PrestoGateway};
use presto_common::metrics::names;
use presto_common::{Result, SimClock};
use presto_connectors::mysql::MySqlConnector;
use presto_core::{PrestoEngine, Session};

use crate::chaos::engine_with_table;
use crate::report::{Gate, Report, Table};

/// Expand a 2-worker cluster to 8 for the busy hours, then drain the 6
/// extra workers through SHUTTING_DOWN (120 s grace) while queries keep
/// arriving. Returns the timeline, then the queries failed and the workers
/// active at the end.
fn shrink() -> Result<(Table, u64, usize)> {
    let clock = SimClock::new();
    let config = ClusterConfig {
        initial_workers: 2,
        grace_period: Duration::from_secs(120),
        ..ClusterConfig::default()
    };
    let cluster = PrestoCluster::new("elastic", engine_with_table(16, 100)?, config, clock.clone());
    let session = Session::default();
    let query = || cluster.execute("SELECT count(*) FROM t", &session).map(drop);
    let failed = || cluster.metrics().get(names::CLUSTER_QUERIES_FAILED);
    let mut table =
        Table::new("timeline", &["event", "active workers", "queries ok", "queries failed"]);
    let mut snapshot = |event: &str| {
        let active = cluster.active_workers().len();
        let started = cluster.queries_started();
        table.row(vec![
            event.into(),
            active.to_string(),
            started.to_string(),
            failed().to_string(),
        ]);
    };
    query()?;
    snapshot("baseline (2 workers)");
    cluster.expand(6);
    query()?;
    snapshot("busy hours: expand to 8");
    for id in 2..8 {
        cluster.decommission_worker(id)?;
    }
    for _ in 0..4 {
        query()?;
        clock.advance(Duration::from_secs(61));
        cluster.tick();
    }
    snapshot("shrinking: 6 workers draining");
    clock.advance(Duration::from_secs(240));
    cluster.tick();
    query()?;
    snapshot("after grace periods");
    Ok((table, failed(), cluster.active_workers().len()))
}

/// The failed-query counter is cumulative: zero at the end is zero across
/// the whole timeline.
fn shrink_gate(failed: u64, active: usize) -> Gate {
    let detail = format!("{failed} failed, {active} active");
    Gate::new("zero failed queries, back to 2 workers", failed == 0 && active == 2, detail)
}

/// `paper-experiments shrink`.
pub fn shrink_report() -> Result<Report> {
    let mut report = Report::new("\n=== §IX: graceful expansion and shrink ===");
    report.line("paper claim: workers drain through SHUTTING_DOWN with zero failed queries\n");
    let (table, failed, active) = shrink()?;
    report.line(table.render());
    report.gates.push(shrink_gate(failed, active));
    Ok(report)
}

/// Where `ads` went in each phase: (dedicated-ads in maintenance, served by).
type AdsRoutes = Vec<(bool, String)>;

/// Five clusters behind one gateway with MySQL-stored routes; upgrade
/// `dedicated-ads` while its group keeps submitting. Returns the routing
/// table, the queries failed across all clusters, and the `ads` routes.
fn gateway() -> Result<(Table, u64, AdsRoutes)> {
    let gateway = PrestoGateway::new(MySqlConnector::new())?;
    let config = ClusterConfig {
        initial_workers: 2,
        grace_period: Duration::from_secs(10),
        ..Default::default()
    };
    let clusters = ["dedicated-ads", "dedicated-eats", "shared-1", "shared-2", "adhoc"]
        .map(|name| PrestoCluster::new(name, PrestoEngine::new(), config.clone(), SimClock::new()));
    for c in &clusters {
        gateway.add_cluster(c.clone());
    }
    gateway.set_route("*", "shared-1")?;
    gateway.set_route("ads", "dedicated-ads")?;
    gateway.set_route("eats", "dedicated-eats")?;

    let session = Session::default();
    let mut table = Table::new("routing under maintenance", &["phase", "group", "served by"]);
    let mut ads = Vec::new();
    let mut route = |phase: &str, group: &str| -> Result<()> {
        let served_by = gateway.route(group)?.cluster;
        if group == "ads" {
            ads.push((phase.contains("maintenance"), served_by.clone()));
        }
        table.row(vec![phase.into(), group.into(), served_by]);
        Ok(())
    };
    for group in ["ads", "eats", "random-team"] {
        route("normal", group)?;
    }
    clusters[0].set_maintenance(true); // upgrade dedicated-ads
    for group in ["ads", "eats"] {
        gateway.submit(group, "SELECT 1", &session)?;
        route("dedicated-ads in maintenance", group)?;
    }
    clusters[0].set_maintenance(false);
    route("after upgrade", "ads")?;
    let failed = clusters.iter().map(|c| c.metrics().get(names::CLUSTER_QUERIES_FAILED)).sum();
    Ok((table, failed, ads))
}

fn gateway_gates(failed: u64, ads: &[(bool, String)]) -> [Gate; 2] {
    let redirected = ads.iter().all(|(maintenance, by)| (by == "dedicated-ads") != *maintenance);
    [
        Gate::new("zero failed queries", failed == 0, format!("{failed} failed")),
        Gate::new("ads leaves dedicated-ads only in maintenance", redirected, format!("{ads:?}")),
    ]
}

/// `paper-experiments gateway`.
pub fn gateway_report() -> Result<Report> {
    let mut report = Report::new("\n=== §VIII: cluster federation gateway ===");
    report.line("paper claim: MySQL-driven routing, zero-downtime redirect during maintenance\n");
    let (table, failed, ads) = gateway()?;
    report.line(table.render());
    report.line(format!("queries failed during the whole exercise: {failed}"));
    report.gates = gateway_gates(failed, &ads).into();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn shrink_drains_without_failing_a_query() {
        let (_, failed, active) = shrink().unwrap();
        assert_gates(&[shrink_gate(failed, active)]);
    }

    #[test]
    fn gateway_redirects_only_during_maintenance() {
        let (_, failed, ads) = gateway().unwrap();
        assert_gates(&gateway_gates(failed, &ads));
        assert_eq!(ads.len(), 3);
    }
}
