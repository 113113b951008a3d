//! Multi-tenant workload simulation: the default seeded workload dispatched
//! under weighted fair queueing and under FIFO (`presto_sim`).

use presto_common::Result;
use presto_sim::{run_simulation, SchedulerMode, SimConfig, SimReport, TenantClass, TenantReport};

use crate::report::{histogram_json, replay, Gate, Json, Report, Table};

fn gates(config: &SimConfig, wfq: &SimReport, fifo: &SimReport) -> [Gate; 3] {
    let (w, f, n) = (wfq.worst_p99_us, fifo.worst_p99_us, config.queries);
    let slo = wfq.class_within_slo(TenantClass::Interactive);
    let missed = format!("{} tenants miss their p99 target", wfq.slo_violations);
    let complete = wfq.completed == n && fifo.completed == n;
    let done = format!("wfq {} / fifo {} of {n}", wfq.completed, fifo.completed);
    [
        Gate::new("wfq beats fifo's worst-tenant p99", w < f, format!("wfq {w} vs fifo {f} µs")),
        Gate::new("interactive tenants meet their SLO under wfq", slo, missed),
        Gate::new("every query completes", complete, done),
    ]
}

/// `paper-experiments sim`: WFQ twice (same-seed replay) and the FIFO
/// counterfactual (`BENCH_sim.json`).
pub fn report() -> Result<Report> {
    let mut report =
        Report::new("\n=== multi-tenant workload simulation: WFQ vs FIFO dispatch ===");
    let config = SimConfig::default();
    report.line(format!(
        "{} tenants (zipf s={}), {} queries, diurnal rush over {} workers / {} slots; seed {}\n",
        config.tenants,
        config.zipf_exponent,
        config.queries,
        config.workers,
        config.slots,
        config.seed
    ));
    let (wfq, wfq_again, replayed) = replay(
        "wfq",
        || run_simulation(&config),
        |r| (r.digest, r.trace_digest, r.tenant_latency_us.clone()),
    )?;
    let fifo = run_simulation(&SimConfig { mode: SchedulerMode::Fifo, ..config.clone() })?;

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
    report.line(table.render());

    let mut slo_table = Table::new(
        "per-tenant SLO attainment (busiest tenant per class + worst tenant)",
        &["tenant", "class", "queries", "wfq p50", "wfq p99", "slo p99", "within"],
    );
    let mut shown: Vec<&TenantReport> = Vec::new();
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
    report.line(slo_table.render());

    let [fair, interactive, completed] = gates(&config, &wfq, &fifo);
    report.line(format!(
        "worst-tenant p99: fifo {} µs (t{}) -> wfq {} µs (t{})",
        fifo.worst_p99_us, fifo.worst_tenant, wfq.worst_p99_us, wfq.worst_tenant
    ));
    report.line(format!(
        "SLO violations: fifo {} tenants, wfq {} tenants (interactive lane clean: {})",
        fifo.slo_violations, wfq.slo_violations, interactive.passed
    ));
    report.line(format!(
        "determinism: two seed-{} runs -> digests {:#018x} / {:#018x}, traces {:#018x} / {:#018x} ({})\n",
        config.seed,
        wfq.digest,
        wfq_again.digest,
        wfq.trace_digest,
        wfq_again.trace_digest,
        if replayed.passed { "identical" } else { "MISMATCH" }
    ));

    let mode_json = |r: &SimReport| {
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
        ("deterministic".into(), Json::Bool(replayed.passed)),
        ("wfq_improves_worst_tenant_p99".into(), Json::Bool(fair.passed)),
        ("interactive_within_slo".into(), Json::Bool(interactive.passed)),
    ]);
    report.bench = Some(("sim".into(), json));
    report.gates = vec![replayed, fair, interactive, completed];
    Ok(report)
}
