//! Telemetry replay experiment: the rush/lull autoscaling workload runs
//! while the cluster's lifecycle ticks sample busy-fraction, memory and
//! cache time series into the [`TelemetryRegistry`] — then the
//! busy-fraction-fed autoscaler is compared against the queue-depth-only
//! counterfactual on identical seeded arrivals.
//!
//! [`TelemetryRegistry`]: presto_common::telemetry::TelemetryRegistry

use presto_common::metrics::names;
use presto_common::{Result, TimeSeries};
use presto_sim::{SimConfig, SimReport};

use crate::elastic::{replay_scenario, rush_lull_config, zero_failed};
use crate::report::{Gate, Json, Report, Table};

/// The queue-depth-only policy on the seeded rush/lull workload — the
/// counterfactual baseline.
pub fn queue_only_config(seed: u64) -> SimConfig {
    rush_lull_config(seed)
}

/// The same seeded workload with the busy-fraction signal enabled on the
/// autoscaler. Everything else — arrivals, fleet, water marks, windows —
/// is identical to [`queue_only_config`], so any divergence in the action
/// trace is attributable to the second signal alone.
pub fn busy_signal_config(seed: u64) -> SimConfig {
    let mut config = rush_lull_config(seed);
    if let Some(plan) = &mut config.elastic {
        if let Some(auto) = &mut plan.autoscaler {
            auto.busy_signal = true;
        }
    }
    config
}

fn variant_gates(name: &str, r: &SimReport) -> [Gate; 2] {
    let busy = r.telemetry_series.get(names::TS_FLEET_BUSY_PCT).map_or(0, TimeSeries::samples);
    let sampled = r.telemetry_snapshots > 0 && busy > 0;
    let detail = format!("{} snapshots, {busy} busy-fraction samples", r.telemetry_snapshots);
    [zero_failed(name, r), Gate::new(format!("{name}: ticks sampled the fleet"), sampled, detail)]
}

/// The counterfactual gate: if the busy-fraction signal never changes a
/// decision of the queue-depth-only policy, it is dead weight.
fn divergence_gate(queue_only: &[(u64, i64)], busy_signal: &[(u64, i64)]) -> Gate {
    let detail = format!("{} vs {} actions", queue_only.len(), busy_signal.len());
    Gate::new("busy-fraction action trace diverges", queue_only != busy_signal, detail)
}

/// `[[at_us, value], …]`.
fn timed_json(points: impl Iterator<Item = (u64, Json)>) -> Json {
    Json::Arr(points.map(|(at_us, v)| Json::Arr(vec![Json::U64(at_us), v])).collect())
}

/// `paper-experiments telemetry`: both policies on the same seeded
/// arrivals, each run twice (`BENCH_telemetry.json`).
pub fn report() -> Result<Report> {
    let mut report = Report::new(
        "\n=== queryable telemetry: sampled replay + busy-vs-queue autoscaler counterfactual ===",
    );
    report.line(
        "rush/lull workload replayed under two autoscaler policies (seed 7, same arrivals);\n\
         every variant runs twice to check same-seed telemetry digests;\n\
         gates: sampling happened, digests bit-identical, busy-signal action trace diverges\n",
    );
    let variants =
        [("queue-depth", queue_only_config(7)), ("busy-fraction", busy_signal_config(7))];
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
    let mut actions: Vec<Vec<(u64, i64)>> = Vec::new();
    let mut json_rows: Vec<(String, Json)> = Vec::new();
    for (name, config) in &variants {
        let (a, e, replayed) = replay_scenario(name, config)?;
        let busy_series = a.telemetry_series.get(names::TS_FLEET_BUSY_PCT);
        let series_json = |series: Option<&TimeSeries>| {
            let points = series.map_or_else(Vec::new, TimeSeries::points);
            timed_json(points.into_iter().map(|(at_us, v)| (at_us, Json::U64(v))))
        };
        table.row(vec![
            (*name).into(),
            format!("{}/{}", a.completed, a.failed),
            format!("{}/{}", e.scale_outs, e.scale_ins),
            e.actions.len().to_string(),
            format!("{}/{}", e.peak_workers, e.final_workers),
            a.telemetry_snapshots.to_string(),
            format!("{}%", busy_series.map_or(0, TimeSeries::peak)),
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
                ("peak_workers".into(), Json::U64(e.peak_workers as u64)),
                ("final_workers".into(), Json::U64(e.final_workers as u64)),
                ("snapshots".into(), Json::U64(a.telemetry_snapshots)),
                ("telemetry_digest".into(), Json::Str(format!("{:#018x}", a.telemetry_digest))),
                ("deterministic".into(), Json::Bool(replayed.passed)),
                (
                    "actions".into(),
                    timed_json(
                        e.actions.iter().map(|&(at_us, d)| (at_us, Json::Str(d.to_string()))),
                    ),
                ),
                ("fleet_busy_pct".into(), series_json(busy_series)),
            ]),
        ));
        report.gates.push(replayed);
        report.gates.extend(variant_gates(name, &a));
        actions.push(e.actions);
    }
    report.line(table.render());

    let diverged = divergence_gate(&actions[0], &actions[1]);
    if diverged.passed {
        report.line(format!(
            "busy-vs-queue counterfactual: action traces diverge ({})\n",
            diverged.detail
        ));
    }
    let counterfactual_diverged = Json::Bool(diverged.passed);
    report.gates.push(diverged);
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("telemetry".into())),
        ("variants".into(), Json::Obj(json_rows)),
        ("counterfactual_diverged".into(), counterfactual_diverged),
        ("gates_passed".into(), Json::Bool(report.gates.iter().all(|g| g.passed))),
    ]);
    report.bench = Some(("telemetry".into(), json));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;
    use presto_sim::run_simulation;

    fn shrunk(mut config: SimConfig) -> SimConfig {
        config.queries = 600;
        config.tenants = 60;
        config
    }

    #[test]
    fn sampling_runs_and_same_seed_telemetry_digests_agree() {
        let (a, _, replayed) =
            replay_scenario("queue-depth", &shrunk(queue_only_config(7))).unwrap();
        assert_gates(&[replayed]);
        assert_gates(&variant_gates("queue-depth", &a));
        assert!(a.telemetry_series.contains_key(names::TS_FLEET_BUSY_PCT));
    }

    #[test]
    fn busy_signal_diverges_from_queue_only_on_the_same_seed() {
        let queue = run_simulation(&shrunk(queue_only_config(7))).unwrap();
        let busy = run_simulation(&shrunk(busy_signal_config(7))).unwrap();
        assert_gates(&variant_gates("queue-depth", &queue));
        assert_gates(&variant_gates("busy-fraction", &busy));
        let queue_actions = queue.elastic.unwrap().actions;
        let busy_actions = busy.elastic.unwrap().actions;
        assert!(!queue_actions.is_empty(), "baseline must actually scale");
        assert_gates(&[divergence_gate(&queue_actions, &busy_actions)]);
    }
}
