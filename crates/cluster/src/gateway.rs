//! The federation gateway (§VIII).
//!
//! "Using HTTP Redirect, we developed a presto gateway. The gateway will
//! redirect incoming queries to specific presto clusters, based on user name
//! and group information. The user and group to cluster mapping data is
//! stored in MySQL. Presto administrators could play with MySQL to
//! dynamically redirect any traffic to any cluster."
//!
//! Per the §XII.B lesson ("A general gateway is hard" — a proxying gateway
//! became the bottleneck), this gateway only issues *redirects*: clients
//! then talk to the cluster directly. [`PrestoGateway::submit`] models a
//! client that follows the redirect.

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::metrics::{names, CounterSet, HistogramSet};
use presto_common::sync::{Rank, RwLock};
use presto_common::{PrestoError, Result, Schema, Value};
use presto_connectors::mysql::MySqlConnector;
use presto_core::{QueryResult, Session};

use crate::cluster::PrestoCluster;

/// Schema/table where routes live in MySQL.
const ROUTING_SCHEMA: &str = "presto";
const ROUTING_TABLE: &str = "routing";
/// Route used when a group has no explicit mapping ("A few big clusters are
/// shared by all teams").
pub const DEFAULT_GROUP: &str = "*";

/// An HTTP-redirect-style response: which cluster the client should use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redirect {
    /// Target cluster name (the Location header, morally).
    pub cluster: String,
}

/// The federation gateway.
pub struct PrestoGateway {
    routing: MySqlConnector,
    clusters: RwLock<BTreeMap<String, Arc<PrestoCluster>>>,
    metrics: CounterSet,
    /// End-to-end submit latency as the client saw it
    /// (`gateway.query_latency_us`), failovers included.
    histograms: HistogramSet,
}

impl PrestoGateway {
    /// Gateway with a fresh routing table in the given MySQL instance.
    pub fn new(routing: MySqlConnector) -> Result<PrestoGateway> {
        routing.create_table(
            ROUTING_SCHEMA,
            ROUTING_TABLE,
            Schema::new(vec![
                presto_common::Field::new("user_group", presto_common::DataType::Varchar),
                presto_common::Field::new("cluster", presto_common::DataType::Varchar),
            ])?,
        )?;
        Ok(PrestoGateway {
            routing,
            clusters: RwLock::new(Rank::GatewayClusters, BTreeMap::new()),
            metrics: CounterSet::new(),
            histograms: HistogramSet::new(),
        })
    }

    /// The counters (`gateway.redirects`, `gateway.rerouted_maintenance`,
    /// `gateway.retried_queries`).
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Latency distributions recorded by this gateway.
    pub fn histograms(&self) -> &HistogramSet {
        &self.histograms
    }

    /// Register a cluster with the gateway.
    pub fn add_cluster(&self, cluster: Arc<PrestoCluster>) {
        self.clusters.write().insert(cluster.name().to_string(), cluster);
    }

    /// Administrator: set (or replace) a group's route — an UPDATE/INSERT
    /// against MySQL, effective for the very next query.
    pub fn set_route(&self, group: &str, cluster: &str) -> Result<()> {
        let changed = self.routing.update_where(
            ROUTING_SCHEMA,
            ROUTING_TABLE,
            "cluster",
            Value::Varchar(cluster.into()),
            "user_group",
            &Value::Varchar(group.into()),
        )?;
        if changed == 0 {
            self.routing.insert(
                ROUTING_SCHEMA,
                ROUTING_TABLE,
                vec![vec![Value::Varchar(group.into()), Value::Varchar(cluster.into())]],
            )?;
        }
        Ok(())
    }

    /// Resolve a redirect for a user group. Routes pointing at clusters in
    /// maintenance fall back to the default (`*`) route, which is what makes
    /// "redirect traffic ... to guarantee no downtime" work (§VIII).
    pub fn route(&self, group: &str) -> Result<Redirect> {
        self.metrics.incr(names::GATEWAY_REDIRECTS);
        let primary = match self.lookup_route(group)? {
            Some(c) => c,
            None => self.lookup_route(DEFAULT_GROUP)?.ok_or_else(|| {
                PrestoError::Execution(format!("no route for group '{group}' and no default route"))
            })?,
        };
        let clusters = self.clusters.read();
        let healthy = |name: &str| clusters.get(name).map(|c| !c.in_maintenance()).unwrap_or(false);
        if healthy(&primary) {
            return Ok(Redirect { cluster: primary });
        }
        // primary down/draining (or the route names a cluster that was
        // never registered): re-route to the shared default
        self.metrics.incr(names::GATEWAY_REROUTED_MAINTENANCE);
        let fallback = self.lookup_route(DEFAULT_GROUP)?.ok_or_else(|| {
            PrestoError::Execution(format!("cluster '{primary}' unavailable and no default route"))
        })?;
        if fallback != primary && healthy(&fallback) {
            return Ok(Redirect { cluster: fallback });
        }
        Err(PrestoError::Execution(format!("no healthy cluster for group '{group}'")))
    }

    /// One routing-table lookup: the cluster mapped to `group`, if any.
    fn lookup_route(&self, group: &str) -> Result<Option<String>> {
        Ok(self
            .routing
            .lookup(ROUTING_SCHEMA, ROUTING_TABLE, "user_group", &Value::Varchar(group.into()))?
            .map(|row| row[1].as_str().unwrap_or_default().to_string()))
    }

    /// Client helper: resolve the redirect, then run the query *directly on
    /// the cluster* (the gateway never proxies data, §XII.B).
    ///
    /// §XII fault tolerance: when the cluster fails the query with a
    /// *retryable* infrastructure error — it lost its last workers mid-query,
    /// a split ran out of attempts, a maintenance drain raced the redirect —
    /// the gateway fails over **once** to a healthy sibling cluster and
    /// counts `gateway.retried_queries`. Non-retryable errors (bad SQL,
    /// resource policy) propagate unchanged: they would fail anywhere.
    pub fn submit(&self, group: &str, sql: &str, session: &Session) -> Result<QueryResult> {
        let redirect = self.route(group)?;
        let cluster = self.cluster_named(&redirect.cluster)?;
        let result = match cluster.execute(sql, session) {
            Err(e) if e.is_retryable() => {
                let Some(fallback) = self.failover_target(&redirect.cluster) else {
                    return Err(e);
                };
                self.metrics.incr(names::GATEWAY_RETRIED_QUERIES);
                fallback.execute(sql, session)
            }
            other => other,
        };
        if let Ok(ok) = &result {
            // failover is part of what the client waited through, so the
            // winning attempt's latency stands in for the whole submit
            self.histograms
                .record(names::HIST_GATEWAY_QUERY_LATENCY_US, ok.info.latency.as_micros() as u64);
        }
        result
    }

    fn cluster_named(&self, name: &str) -> Result<Arc<PrestoCluster>> {
        self.clusters
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PrestoError::Execution(format!("unknown cluster '{name}'")))
    }

    /// Pick the failover cluster after `failed` lost a query: the default
    /// route's cluster when it is healthy and is not the one that just
    /// failed, otherwise the first healthy other cluster in name order.
    /// Health here is stronger than routing health: a failover target must
    /// have active workers, not merely be out of maintenance.
    fn failover_target(&self, failed: &str) -> Option<Arc<PrestoCluster>> {
        let healthy =
            |c: &Arc<PrestoCluster>| !c.in_maintenance() && !c.active_workers().is_empty();
        let clusters = self.clusters.read();
        if let Ok(Some(default)) = self.lookup_route(DEFAULT_GROUP) {
            if default != failed {
                if let Some(c) = clusters.get(&default).filter(|c| healthy(c)) {
                    return Some(c.clone());
                }
            }
        }
        clusters
            .iter()
            .find(|(name, c)| name.as_str() != failed && healthy(c))
            .map(|(_, c)| c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use presto_common::{DataType, SimClock};
    use presto_core::PrestoEngine;
    use std::time::Duration;

    fn gateway_with_clusters() -> (PrestoGateway, Arc<PrestoCluster>, Arc<PrestoCluster>) {
        let gateway = PrestoGateway::new(MySqlConnector::new()).unwrap();
        let mk = |name: &str| {
            let engine = PrestoEngine::new();
            engine
                .register_catalog("tpch", Arc::new(presto_connectors::tpch::TpchConnector::new()));
            PrestoCluster::new(
                name,
                engine,
                ClusterConfig {
                    initial_workers: 2,
                    grace_period: Duration::from_secs(1),
                    ..ClusterConfig::default()
                },
                SimClock::new(),
            )
        };
        let dedicated = mk("dedicated-1");
        let shared = mk("shared");
        gateway.add_cluster(dedicated.clone());
        gateway.add_cluster(shared.clone());
        gateway.set_route(DEFAULT_GROUP, "shared").unwrap();
        gateway.set_route("ads", "dedicated-1").unwrap();
        (gateway, dedicated, shared)
    }

    #[test]
    fn explain_comes_back_as_plan_text_through_cluster_and_gateway() {
        let (gateway, dedicated, _) = gateway_with_clusters();
        let session = Session::new("tpch", "tiny");
        let plan_text = |result: QueryResult| {
            assert_eq!(result.schema.fields().len(), 1);
            assert_eq!(result.schema.fields()[0].name, "plan");
            assert_eq!(result.schema.fields()[0].data_type, DataType::Varchar);
            assert_eq!(result.row_count(), 1);
            result.rows()[0][0].to_string()
        };
        let tasks = || dedicated.metrics().get("cluster.tasks");

        // EXPLAIN plans and answers; nothing is scheduled
        let sql = "EXPLAIN SELECT count(*) FROM lineitem";
        for result in [dedicated.execute(sql, &session), gateway.submit("ads", sql, &session)] {
            let text = plan_text(result.unwrap());
            assert!(text.contains("TableScan"), "{text}");
            assert!(!text.contains("rows:"), "plain EXPLAIN carries no runtime stats: {text}");
        }
        assert_eq!(tasks(), 0);
        assert_eq!(dedicated.queries_started(), 0);

        // EXPLAIN ANALYZE runs distributed and annotates what ran
        let sql = "EXPLAIN ANALYZE SELECT count(*) FROM lineitem";
        let through_cluster = dedicated.execute(sql, &session).unwrap();
        let scheduled = tasks();
        let through_gateway = gateway.submit("ads", sql, &session).unwrap();
        assert_eq!(tasks(), 2 * scheduled);
        for result in [through_cluster, through_gateway] {
            assert!(!result.info.trace.is_empty());
            let text = plan_text(result);
            assert!(text.contains("Aggregate") && text.contains("rows:"), "{text}");
            assert!(text.contains("Telemetry"), "{text}");
        }
        assert!(tasks() > 0, "EXPLAIN ANALYZE scheduled its scan");
        assert_eq!(dedicated.queries_started(), 2);
    }

    #[test]
    fn routes_by_group_with_default_fallback() {
        let (gateway, _, _) = gateway_with_clusters();
        assert_eq!(gateway.route("ads").unwrap().cluster, "dedicated-1");
        assert_eq!(gateway.route("unknown-team").unwrap().cluster, "shared");
    }

    #[test]
    fn dynamic_rerouting_is_immediate() {
        let (gateway, _, _) = gateway_with_clusters();
        gateway.set_route("ads", "shared").unwrap();
        assert_eq!(gateway.route("ads").unwrap().cluster, "shared");
        gateway.set_route("ads", "dedicated-1").unwrap();
        assert_eq!(gateway.route("ads").unwrap().cluster, "dedicated-1");
    }

    #[test]
    fn maintenance_reroutes_with_zero_downtime() {
        let (gateway, dedicated, shared) = gateway_with_clusters();
        // queries flow to the dedicated cluster
        gateway.submit("ads", "SELECT 1", &Session::default()).unwrap();
        assert_eq!(dedicated.queries_started(), 1);

        // drain the dedicated cluster for an upgrade
        dedicated.set_maintenance(true);
        for _ in 0..3 {
            gateway.submit("ads", "SELECT 1", &Session::default()).unwrap();
        }
        assert_eq!(shared.queries_started(), 3, "traffic moved to the shared cluster");
        assert_eq!(gateway.metrics().get("gateway.rerouted_maintenance"), 3);

        // upgrade done
        dedicated.set_maintenance(false);
        gateway.submit("ads", "SELECT 1", &Session::default()).unwrap();
        assert_eq!(dedicated.queries_started(), 2);
    }

    #[test]
    fn no_route_errors() {
        let gateway = PrestoGateway::new(MySqlConnector::new()).unwrap();
        assert!(gateway.route("anyone").is_err());
    }

    #[test]
    fn route_to_unregistered_cluster_falls_back_to_default() {
        let (gateway, _, _) = gateway_with_clusters();
        // the routing table can point at a cluster the gateway never saw
        // (decommissioned, typo'd by the administrator in MySQL)
        gateway.set_route("x-team", "ghost").unwrap();
        assert_eq!(gateway.route("x-team").unwrap().cluster, "shared");
        assert_eq!(gateway.metrics().get("gateway.rerouted_maintenance"), 1);
    }

    #[test]
    fn all_clusters_draining_is_a_routing_error() {
        let (gateway, dedicated, shared) = gateway_with_clusters();
        dedicated.set_maintenance(true);
        shared.set_maintenance(true);
        let err = gateway.route("ads").unwrap_err();
        assert!(err.message().contains("no healthy cluster"), "{err}");
        assert_eq!(gateway.metrics().get("gateway.rerouted_maintenance"), 1);
        // the default group is just as stuck, and each attempt is counted
        assert!(gateway.route("unknown-team").is_err());
        assert_eq!(gateway.metrics().get("gateway.rerouted_maintenance"), 2);
    }

    #[test]
    fn gateway_fails_over_when_the_cluster_dies_mid_query() {
        let (gateway, dedicated, shared) = gateway_with_clusters();
        // every worker on the dedicated cluster dies abruptly; routing
        // cannot see that (health there is maintenance-only), so the query
        // lands on the dead cluster, fails retryably, and fails over.
        for w in dedicated.workers() {
            w.crash();
        }
        let session = Session::new("tpch", "tiny");
        let result = gateway.submit("ads", "SELECT count(*) FROM lineitem", &session).unwrap();
        assert!(!result.rows().is_empty());
        assert_eq!(gateway.metrics().get("gateway.retried_queries"), 1);
        assert_eq!(shared.queries_started(), 1, "the fallback ran the query");
        assert_eq!(dedicated.metrics().get("cluster.queries_failed"), 1);
        // the routing layer was never involved in the failover
        assert_eq!(gateway.metrics().get("gateway.rerouted_maintenance"), 0);
    }

    #[test]
    fn submit_records_end_to_end_latency() {
        let (gateway, _, _) = gateway_with_clusters();
        let session = Session::new("tpch", "tiny");
        gateway.submit("ads", "SELECT count(*) FROM lineitem", &session).unwrap();
        gateway.submit("ads", "SELECT count(*) FROM lineitem", &session).unwrap();
        let h = gateway.histograms().get(names::HIST_GATEWAY_QUERY_LATENCY_US);
        assert_eq!(h.count(), 2);
        assert!(h.max() > 0);
    }

    #[test]
    fn non_retryable_errors_do_not_fail_over() {
        let (gateway, _, shared) = gateway_with_clusters();
        let err = gateway.submit("ads", "SELECT count(* FROM", &Session::default()).unwrap_err();
        assert!(!err.is_retryable(), "{err}");
        assert_eq!(gateway.metrics().get("gateway.retried_queries"), 0);
        assert_eq!(shared.queries_started(), 0, "a doomed query is not re-run elsewhere");
    }
}
