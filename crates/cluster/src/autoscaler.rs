//! Queue-driven autoscaler with hysteresis (§IX elasticity, grounded in
//! the hybrid-cloud serving model of ephemeral workers behind a router).
//!
//! The signal is the depth of the dispatch queue the caller hands in (the
//! workload simulator's WFQ or FIFO queue): a deep queue means the fleet is
//! undersized for the offered load, an empty queue sustained over a window
//! means it is oversized. Decisions are evaluated as discrete events on the
//! virtual clock — callers invoke [`Autoscaler::evaluate`] at whatever
//! cadence their simulation ticks — so every decision is a pure function of
//! `(config, the sequence of (virtual instant, depth) samples)`.
//!
//! Hysteresis, in both directions, keeps the fleet from flapping:
//!
//! - **Scale-out** when depth exceeds `high_water_depth` *continuously* for
//!   500 µs of virtual time: add two on-demand workers, capped at
//!   `max_workers`.
//! - **Scale-in** when the queue stays empty continuously for
//!   `scale_in_after` *and* the depth histogram since the last action
//!   agrees (p95 of 0): gracefully decommission the **coldest** active
//!   worker (fewest completed tasks, ties to the newest) via
//!   [`PrestoCluster::decommission_worker`], never below two.
//! - A `cooldown` after either action lets the previous decision take
//!   effect before the signal is judged again.
//!
//! Every depth sample is also recorded into the cluster's
//! `cluster.autoscaler_queue_depth` histogram, and actions are counted as
//! `cluster.autoscaler_scale_outs` / `cluster.autoscaler_scale_ins` /
//! `cluster.autoscaler_workers_added`.
//!
//! With `busy_signal` enabled the autoscaler consults a **second signal**:
//! the fleet busy-fraction gauge the telemetry sampler maintains
//! (`telemetry.fleet_busy_now_pct`). A fleet running hot
//! (`busy >= 60%`) counts as pressure even while the queue
//! is shallow — short queries drain the queue between ticks yet saturate
//! the workers — and scale-in additionally requires the busy-fraction
//! window since the last action to be calm (p95 at/below 20%), so a
//! drained queue over a still-hot fleet never shrinks it. With the flag
//! off, decisions are bit-identical to the queue-depth-only policy.

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Duration;

use presto_common::cost::TASK_US;
use presto_common::metrics::{names, Histogram};
use presto_common::sync::{Mutex, Rank};

use crate::cluster::PrestoCluster;
use crate::worker::WorkerLifecycle;

/// Never decommission below this many active workers.
const MIN_WORKERS: usize = 2;
/// Workers added per scale-out action.
const SCALE_OUT_STEP: u32 = 2;
/// Depth must stay above high water continuously this long.
const SCALE_OUT_AFTER: Duration = Duration::from_micros(5 * TASK_US);
/// With `busy_signal`: fleet busy-fraction at/above this percentage counts
/// as pressure even when the queue is shallow.
const BUSY_HIGH_WATER_PCT: u64 = 60;
/// With `busy_signal`: scale-in additionally requires the busy-fraction
/// window since the last action to sit at/below this percentage (p95).
const BUSY_LOW_WATER_PCT: u64 = 20;

/// Autoscaler policy knobs. All windows are virtual time.
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Never expand above this many active workers.
    pub max_workers: usize,
    /// Scale-out trigger: queue depth must *exceed* this.
    pub high_water_depth: usize,
    /// The queue must stay empty continuously this long before a scale-in.
    pub scale_in_after: Duration,
    /// Quiet period after any action before the signal is judged again.
    pub cooldown: Duration,
    /// Consult the fleet busy-fraction gauge as a second signal.
    pub busy_signal: bool,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            max_workers: 32,
            high_water_depth: 8,
            scale_in_after: Duration::from_micros(200 * TASK_US),
            cooldown: Duration::from_micros(100 * TASK_US),
            busy_signal: false,
        }
    }
}

/// What one evaluation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No action this tick.
    Hold,
    /// Added this many workers.
    Out {
        /// Workers added.
        added: u32,
    },
    /// Began gracefully decommissioning this worker.
    In {
        /// The worker now draining.
        worker_id: u32,
    },
}

/// Hysteresis state between evaluations.
struct AutoState {
    /// Since when has depth been continuously above high water?
    above_since: Option<Duration>,
    /// Since when has the queue been continuously empty?
    below_since: Option<Duration>,
    /// Virtual instant of the last scale action (cooldown anchor).
    last_action: Option<Duration>,
    /// Depth samples since the last action — the scale-in confidence
    /// check consults its p95 so one quiet sample can't shrink the fleet.
    window: Histogram,
    /// Fleet busy-fraction samples since the last action (`busy_signal`
    /// only): scale-in also requires this window's p95 to be calm.
    busy_window: Histogram,
}

/// The queue-driven autoscaler. Cheap to share; all state is internal.
pub struct Autoscaler {
    cluster: Arc<PrestoCluster>,
    config: AutoscalerConfig,
    state: Mutex<AutoState>,
}

impl Autoscaler {
    /// An autoscaler managing `cluster` under `config`.
    pub fn new(cluster: Arc<PrestoCluster>, config: AutoscalerConfig) -> Autoscaler {
        Autoscaler {
            cluster,
            config,
            state: Mutex::new(
                Rank::AutoscalerState,
                AutoState {
                    above_since: None,
                    below_since: None,
                    last_action: None,
                    window: Histogram::new(),
                    busy_window: Histogram::new(),
                },
            ),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Evaluate one discrete tick on the depth of the caller's dispatch
    /// queue. Pure in the sample sequence: the same `(virtual instant,
    /// depth)` ticks always produce the same decisions.
    pub fn evaluate(&self, depth: usize) -> ScaleDecision {
        let cfg = &self.config;
        let now = self.cluster.clock().now();
        self.cluster.histograms().record(names::HIST_CLUSTER_QUEUE_DEPTH, depth as u64);
        let busy = self.cluster.telemetry().gauge(names::GAUGE_FLEET_BUSY_PCT);
        if cfg.busy_signal {
            self.cluster.histograms().record(names::HIST_CLUSTER_BUSY_PCT, busy);
        }
        let hot = cfg.busy_signal && busy >= BUSY_HIGH_WATER_PCT;
        let active = self
            .cluster
            .workers()
            .iter()
            .filter(|w| w.lifecycle() == WorkerLifecycle::Active)
            .count();

        let decision = {
            let mut st = self.state.lock();
            st.window.record(depth as u64);
            st.busy_window.record(busy);
            let cooling = st.last_action.is_some_and(|t| now.saturating_sub(t) < cfg.cooldown);
            if depth > cfg.high_water_depth || hot {
                st.below_since = None;
                let since = *st.above_since.get_or_insert(now);
                if !cooling
                    && now.saturating_sub(since) >= SCALE_OUT_AFTER
                    && active < cfg.max_workers
                {
                    let added = SCALE_OUT_STEP.min((cfg.max_workers - active) as u32);
                    st.above_since = None;
                    st.last_action = Some(now);
                    st.window = Histogram::new();
                    st.busy_window = Histogram::new();
                    ScaleDecision::Out { added }
                } else {
                    ScaleDecision::Hold
                }
            } else if depth == 0 {
                st.above_since = None;
                let since = *st.below_since.get_or_insert(now);
                let sustained = now.saturating_sub(since) >= cfg.scale_in_after;
                let calm = st.window.quantile(0.95) == 0
                    && (!cfg.busy_signal || st.busy_window.quantile(0.95) <= BUSY_LOW_WATER_PCT);
                if !cooling && sustained && calm && active > MIN_WORKERS {
                    match self.coldest_active_worker() {
                        Some(worker_id) => {
                            st.below_since = None;
                            st.last_action = Some(now);
                            st.window = Histogram::new();
                            st.busy_window = Histogram::new();
                            ScaleDecision::In { worker_id }
                        }
                        None => ScaleDecision::Hold,
                    }
                } else {
                    ScaleDecision::Hold
                }
            } else {
                // between the water marks: both streaks reset
                st.above_since = None;
                st.below_since = None;
                ScaleDecision::Hold
            }
        };

        match decision {
            ScaleDecision::Out { added } => {
                self.cluster.expand(added);
                self.cluster.metrics().incr(names::CLUSTER_SCALE_OUTS);
                self.cluster.metrics().add(names::CLUSTER_SCALE_OUT_WORKERS, u64::from(added));
            }
            ScaleDecision::In { worker_id } => {
                // errors only for an unknown id, and the id was just read
                // from the live fleet — a concurrent reap is benign
                let _ = self.cluster.decommission_worker(worker_id);
                self.cluster.metrics().incr(names::CLUSTER_SCALE_INS);
            }
            ScaleDecision::Hold => {}
        }
        decision
    }

    /// The coldest active worker: fewest completed tasks, ties broken
    /// toward the newest (highest id) so long-lived cache-warm workers
    /// survive a tie.
    fn coldest_active_worker(&self) -> Option<u32> {
        self.cluster
            .workers()
            .iter()
            .filter(|w| w.lifecycle() == WorkerLifecycle::Active)
            .min_by_key(|w| (w.completed_tasks(), Reverse(w.id)))
            .map(|w| w.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use presto_common::SimClock;
    use presto_core::PrestoEngine;

    fn harness(initial_workers: u32, config: AutoscalerConfig) -> (Arc<PrestoCluster>, Autoscaler) {
        let cluster = PrestoCluster::new(
            "auto",
            PrestoEngine::new(),
            ClusterConfig {
                initial_workers,
                grace_period: Duration::from_millis(1),
                ..ClusterConfig::default()
            },
            SimClock::new(),
        );
        let scaler = Autoscaler::new(cluster.clone(), config);
        (cluster, scaler)
    }

    fn active(cluster: &PrestoCluster) -> usize {
        cluster.workers().iter().filter(|w| w.lifecycle() == WorkerLifecycle::Active).count()
    }

    #[test]
    fn scale_out_requires_a_sustained_breach() {
        let cfg = AutoscalerConfig {
            high_water_depth: 4,
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(4, cfg);
        let step = SCALE_OUT_AFTER / 2;
        // one spike is not enough
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold);
        // a dip resets the streak
        cluster.clock().advance(step);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        cluster.clock().advance(step);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold);
        cluster.clock().advance(step);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold, "only half the window above");
        cluster.clock().advance(step);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Out { added: 2 });
        assert_eq!(active(&cluster), 6);
        assert_eq!(cluster.metrics().get(names::CLUSTER_SCALE_OUTS), 1);
        assert_eq!(cluster.metrics().get(names::CLUSTER_SCALE_OUT_WORKERS), 2);
    }

    #[test]
    fn scale_out_respects_the_max_bound() {
        let cfg = AutoscalerConfig {
            max_workers: 5,
            high_water_depth: 1,
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(4, cfg);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold);
        cluster.clock().advance(SCALE_OUT_AFTER);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Out { added: 1 });
        assert_eq!(active(&cluster), 5);
        // at the cap: no further growth no matter the depth
        cluster.clock().advance(Duration::from_millis(5));
        assert_eq!(scaler.evaluate(100), ScaleDecision::Hold);
    }

    #[test]
    fn scale_in_decommissions_the_coldest_worker_gracefully() {
        let cfg = AutoscalerConfig {
            scale_in_after: Duration::from_millis(3),
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(3, cfg);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        cluster.clock().advance(Duration::from_millis(3));
        // all workers are equally cold (0 tasks): the newest (highest id) goes
        assert_eq!(scaler.evaluate(0), ScaleDecision::In { worker_id: 2 });
        assert_eq!(active(&cluster), 2);
        let victim = cluster.workers().into_iter().find(|w| w.id == 2).unwrap();
        assert_eq!(victim.lifecycle(), WorkerLifecycle::Draining);
        assert_eq!(cluster.metrics().get(names::CLUSTER_SCALE_INS), 1);
        // at the floor: no further shrink
        cluster.clock().advance(Duration::from_millis(10));
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        assert_eq!(active(&cluster), 2);
    }

    #[test]
    fn one_busy_sample_in_the_window_blocks_scale_in() {
        let cfg = AutoscalerConfig {
            high_water_depth: 100,
            scale_in_after: Duration::from_millis(2),
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(3, cfg);
        // a burst lands in the window, then the queue drains
        assert_eq!(scaler.evaluate(50), ScaleDecision::Hold);
        for _ in 0..3 {
            cluster.clock().advance(Duration::from_millis(1));
            assert_eq!(
                scaler.evaluate(0),
                ScaleDecision::Hold,
                "p95 of the window still remembers the burst"
            );
        }
        // enough quiet samples dilute the burst below p95 eventually
        for _ in 0..80 {
            cluster.clock().advance(Duration::from_millis(1));
            if scaler.evaluate(0) != ScaleDecision::Hold {
                return;
            }
        }
        panic!("sustained quiet must eventually scale in");
    }

    #[test]
    fn cooldown_separates_consecutive_actions() {
        let cfg = AutoscalerConfig {
            high_water_depth: 1,
            max_workers: 16,
            cooldown: Duration::from_millis(5),
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(2, cfg);
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold);
        cluster.clock().advance(SCALE_OUT_AFTER);
        assert!(matches!(scaler.evaluate(10), ScaleDecision::Out { .. }));
        cluster.clock().advance(Duration::from_millis(1));
        assert_eq!(scaler.evaluate(10), ScaleDecision::Hold, "cooling down");
        cluster.clock().advance(Duration::from_millis(5));
        assert!(matches!(scaler.evaluate(10), ScaleDecision::Out { .. }));
    }

    #[test]
    fn hot_fleet_scales_out_even_with_a_shallow_queue() {
        let cfg = AutoscalerConfig {
            busy_signal: true,
            high_water_depth: 8,
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(4, cfg.clone());
        // every worker pegged: busy-fraction pressure with an empty queue
        cluster.telemetry().set_gauge(names::GAUGE_FLEET_BUSY_PCT, 97);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold, "not sustained yet");
        cluster.clock().advance(Duration::from_millis(2));
        assert_eq!(scaler.evaluate(0), ScaleDecision::Out { added: 2 });
        assert_eq!(active(&cluster), 6);
        assert!(cluster.histograms().get(names::HIST_CLUSTER_BUSY_PCT).count() >= 2);

        // the queue-depth-only counterfactual holds on the same samples
        let (cluster, scaler) = harness(4, AutoscalerConfig { busy_signal: false, ..cfg });
        cluster.telemetry().set_gauge(names::GAUGE_FLEET_BUSY_PCT, 97);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        cluster.clock().advance(Duration::from_millis(2));
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        assert_eq!(active(&cluster), 4);
    }

    #[test]
    fn warm_fleet_blocks_scale_in_that_queue_depth_alone_would_take() {
        let cfg = AutoscalerConfig {
            busy_signal: true,
            scale_in_after: Duration::from_millis(3),
            cooldown: Duration::ZERO,
            ..AutoscalerConfig::default()
        };
        let (cluster, scaler) = harness(3, cfg.clone());
        // queue drained but the fleet is still half busy: no shrink
        cluster.telemetry().set_gauge(names::GAUGE_FLEET_BUSY_PCT, 55);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        cluster.clock().advance(Duration::from_millis(4));
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold, "busy window is warm");
        assert_eq!(active(&cluster), 3);

        // queue-depth-only counterfactual shrinks on the same samples
        let (cluster, scaler) = harness(3, AutoscalerConfig { busy_signal: false, ..cfg });
        cluster.telemetry().set_gauge(names::GAUGE_FLEET_BUSY_PCT, 55);
        assert_eq!(scaler.evaluate(0), ScaleDecision::Hold);
        cluster.clock().advance(Duration::from_millis(4));
        assert!(matches!(scaler.evaluate(0), ScaleDecision::In { .. }));
    }

    #[test]
    fn same_sample_sequence_same_decisions() {
        let samples: Vec<(u64, usize)> =
            vec![(0, 10), (1, 10), (2, 10), (3, 0), (4, 0), (10, 0), (25, 0), (40, 0)];
        let run = || -> Vec<ScaleDecision> {
            let (cluster, scaler) = harness(4, AutoscalerConfig::default());
            let mut out = Vec::new();
            let mut last = 0u64;
            for &(at_ms, depth) in &samples {
                cluster.clock().advance(Duration::from_millis(at_ms - last));
                last = at_ms;
                out.push(scaler.evaluate(depth));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
