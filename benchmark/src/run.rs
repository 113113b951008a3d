//! Runs one workload — set-up, the timed closed loop, the traced replay and
//! the probes, the oracle, the remaining set-up repetitions — then turns what
//! was recorded into metric values.
//!
//! Closed loop, one client, no think time, one thread: the engine and the
//! cluster's scan scheduler are synchronous, so the next op is issued when
//! the previous one returns. An op's latency is the wall time of the facade
//! call alone; digesting the answer, reading the CPU clock and timing the
//! calibration kernel happen between ops and are not part of any latency.
//! Every reported time is divided by the machine-speed factor measured next
//! to it (see `speed.rs`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::digest::{Check, Digest};
use crate::fixture::Scale;
use crate::metrics::Values;
use crate::span::{self_times_ns, Span, Tracer};
use crate::speed::Calibrator;
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::sys::{peak_rss_mb, reset_peak_rss, CpuClock, HEAP};
use crate::workload::{self, Accumulator, Answer, Workload};

/// Times the whole set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// `noise_frac` above which a run is marked noisy.
pub const NOISY_ABOVE: f64 = 0.05;
/// Passes of the op stream compared between two same-seed streams.
const GUARD_PASSES: usize = 8;

/// How long a section runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole passes until this much wall time has gone by.
    Seconds(f64),
    /// A fixed number of passes: same-seed runs issue identical sequences.
    Passes(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the timed section only.
    EndToEnd,
    /// `--trace 1`: the traced replay and probes first, then a timed
    /// section (class medians and the executor ladder come from it).
    PerLayer,
    /// `all`: the timed section, then the traced replay and probes.
    Both,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub timed: Budget,
    pub traced: Budget,
    pub mode: Mode,
    pub scale: Scale,
}

/// Passes per workload of the fixed-count (`all`) run, sized for ~12–15 s of
/// timed ops on a 2-core box and at least 500 ops each, and of the traced
/// replay (about a third as many ops).
pub fn default_passes(workload: &str) -> (usize, usize) {
    match workload {
        "lake_adhoc" => (24, 4),     // 504 ops of 21 per pass, 84 traced
        "mem_exec" => (30, 8),       // 750 ops of 25 per pass
        "realtime_dash" => (58, 12), // 1,218 ops of 21 per pass
        "cluster_repeat" => (38, 8), // 798 Zipf draws in batches of 21
        "ingest_write" => (40, 10),  // 1,000 writes of 25 per pass
        _ => (1, 1),
    }
}

struct OpRecord {
    instance: usize,
    answer: Result<Digest, String>,
    /// Midpoint of the op on the calibrator's timeline.
    at_ns: u64,
    wall_ns: u64,
    cpu_ns: u64,
    rows: u64,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    pub per_layer: Values,
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn noisy(&self) -> bool {
        self.per_layer.get("harness.noise_frac").is_some_and(|n| *n > NOISY_ABOVE)
    }
}

/// An op is correct when it returned an answer, the oracle produced a
/// digest for it, and the two digests are equal. Anything else — an error
/// on either side, a differing digest — counts as a failed op; it never
/// panics. Answers are digested when the op returns and compared once the
/// oracle has run, after the timed section.
fn agrees(answer: &Result<Digest, String>, expected: &Result<Digest, String>) -> bool {
    matches!((answer, expected), (Ok(answer), Ok(expected)) if answer == expected)
}

/// The digest of an op's answer, under the comparison its instance asks for.
fn digest_of(answer: &Result<Answer, String>, check: Check) -> Result<Digest, String> {
    answer.as_ref().map(|a| a.digest(check)).map_err(String::clone)
}

fn fold_sequence(digest: u64, instance: usize) -> u64 {
    (digest ^ instance as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let name = config.workload.as_str();
    let reps = if config.scale.quick { 1 } else { SETUP_REPS };

    // ---- set-up: data generation, table/file writes, engine construction
    // and the untimed warm-up. Timed whole; repeated after everything else.
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::with_capacity(reps);
    let mut set_up = |cal: &mut Calibrator| -> Result<Box<dyn Workload>, String> {
        let (w, elapsed_ns, factor) = cal.bracket(|| {
            let mut w = workload::build(name, config.scale, config.seed)?;
            for instance in w.stream(config.seed ^ 0x5eed_0000).warm_up() {
                let _ = w.execute(instance);
            }
            Some(w)
        });
        setup_s.push(elapsed_ns / 1e9 / factor);
        w.ok_or_else(|| format!("unknown workload '{name}'"))
    };
    let mut w = set_up(&mut cal)?;

    // ---- determinism guard: the op sequence is a pure function of the seed
    let (mut a, mut b) = (w.stream(config.seed), w.stream(config.seed));
    for pass in 0..GUARD_PASSES {
        if a.next_pass() != b.next_pass() {
            return Err(format!("op streams of seed {} diverge at pass {pass}", config.seed));
        }
    }

    let mut acc = Accumulator::default();
    let mut tracer = Tracer::new();
    let mut per_layer = Values::new();
    let mut traced_ops = 0u64;
    let mut traced_answers: Vec<(usize, Result<Digest, String>)> = Vec::new();
    let mut traced_at: Vec<u64> = Vec::new();
    let mut traced_section = |w: &mut dyn Workload,
                              per_layer: &mut Values,
                              cal: &mut Calibrator| {
        let started = Instant::now();
        let mut stream = w.stream(config.seed);
        let mut passes = 0usize;
        loop {
            match config.traced {
                Budget::Passes(n) if passes >= n => break,
                Budget::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
                _ => {}
            }
            for instance in stream.next_pass() {
                let op = traced_ops as u32;
                cal.sample_if_due();
                let began = cal.now_ns();
                let root = tracer.begin(op, "op");
                let answer = w.traced(instance, op, &mut tracer, &mut acc);
                tracer.end(root);
                traced_at.push((began + cal.now_ns()) / 2);
                if let Err(e) = &answer {
                    eprintln!("traced op {op} ({}) failed: {e}", w.instances()[instance].template);
                }
                traced_answers.push((instance, digest_of(&answer, w.instances()[instance].check)));
                traced_ops += 1;
            }
            passes += 1;
        }
        cal.sample();
        w.probes(per_layer, cal);
    };

    if config.mode == Mode::PerLayer {
        traced_section(w.as_mut(), &mut per_layer, &mut cal);
    }

    // ---- the timed section
    let rss_reset = reset_peak_rss();
    HEAP.restart_peak();
    let cpu = CpuClock::open();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut sequence = 0xcbf2_9ce4_8422_2325u64;
    let mut stream = w.stream(config.seed);
    cal.sample();
    let started = Instant::now();
    let mut passes = 0usize;
    loop {
        match config.timed {
            Budget::Passes(n) if passes >= n => break,
            Budget::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        for instance in stream.next_pass() {
            cal.sample_if_due();
            let began = cal.now_ns();
            let cpu_before = cpu.now_ns();
            let wall_before = Instant::now();
            let answer = w.execute(instance);
            let wall = wall_before.elapsed();
            let cpu_ns = cpu.now_ns().saturating_sub(cpu_before);
            if let Err(e) = &answer {
                eprintln!(
                    "op {} ({}) failed: {e}",
                    records.len(),
                    w.instances()[instance].template
                );
            }
            records.push(OpRecord {
                instance,
                at_ns: began + wall.as_nanos() as u64 / 2,
                wall_ns: wall.as_nanos() as u64,
                cpu_ns,
                rows: answer.as_ref().map_or(0, |a| a.rows()),
                answer: digest_of(&answer, w.instances()[instance].check),
            });
            sequence = fold_sequence(sequence, instance);
        }
        passes += 1;
    }
    let heap_mb = HEAP.peak_bytes() as f64 / (1024.0 * 1024.0);
    let rss_mb = peak_rss_mb();
    cal.sample();
    let (extra_attempted, extra_failed) = w.verify_after();

    if config.mode == Mode::Both {
        traced_section(w.as_mut(), &mut per_layer, &mut cal);
    }

    // ---- oracle: only now, so that the timed section ran in a process that
    // had done nothing but one set-up (what the allocator was left holding by
    // three set-ups and the oracle's queries put `mem_exec`'s join into one
    // of several speed classes, a different one per process)
    let oracle_start = Instant::now();
    let oracle = w.oracle();
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    for (instance, expected) in w.instances().iter().zip(&oracle) {
        if let Err(e) = expected {
            eprintln!("oracle failed on {} ({}): {e}", instance.template, instance.sql);
        }
    }
    let failed_ops =
        records.iter().filter(|r| !agrees(&r.answer, &oracle[r.instance])).count() as u64;
    let traced_failed =
        traced_answers.iter().filter(|(i, answer)| !agrees(answer, &oracle[*i])).count() as u64;
    let instances: Vec<crate::templates::Instance> = w.instances().to_vec();
    drop(w);
    for _ in 1..reps {
        drop(set_up(&mut cal)?);
    }

    // ---- end-to-end metrics, every time divided by the local speed factor
    let n = records.len().max(1) as f64;
    let factors: Vec<f64> = records.iter().map(|r| cal.factor_at(r.at_ns)).collect();
    let norm_ms: Vec<f64> =
        records.iter().zip(&factors).map(|(r, f)| r.wall_ns as f64 / 1e6 / f).collect();
    let walls_ms = sorted(&norm_ms);
    let wall_total_s: f64 = norm_ms.iter().sum::<f64>() / 1e3;
    let cpu_total_s: f64 =
        records.iter().zip(&factors).map(|(r, f)| r.cpu_ns as f64 / f).sum::<f64>() / 1e9;
    let attempted = records.len() as u64 + extra_attempted + traced_ops;
    let failed = failed_ops + extra_failed + traced_failed;
    let mut end_to_end = Values::new();
    end_to_end.insert("op_p50_ms", percentile(&walls_ms, 50.0));
    end_to_end.insert("op_p98_ms", percentile(&walls_ms, 98.0));
    end_to_end.insert("ops_per_s", n / wall_total_s.max(1e-9));
    end_to_end.insert("cpu_ms_per_op", cpu_total_s * 1e3 / n);
    end_to_end.insert("peak_heap_mb", heap_mb);
    end_to_end.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    end_to_end.insert("setup_s", median(&setup_s));

    // ---- per-layer metrics out of the timed section
    per_layer.insert("harness.ops", records.len() as f64);
    per_layer.insert("harness.traced_ops", traced_ops as f64);
    per_layer.insert("harness.failed_ops", failed as f64);
    per_layer.insert("harness.p98_samples_beyond", samples_beyond(records.len(), 98.0) as f64);
    per_layer.insert(
        "harness.rows_per_s",
        records.iter().map(|r| r.rows as f64).sum::<f64>() / wall_total_s.max(1e-9),
    );
    let noise = if cpu_total_s > 0.0 { (1.0 - cpu_total_s / wall_total_s).max(0.0) } else { 0.0 };
    per_layer.insert("harness.noise_frac", noise);
    let raw_ms = sorted(&records.iter().map(|r| r.wall_ns as f64 / 1e6).collect::<Vec<_>>());
    per_layer.insert("harness.raw_op_p50_ms", percentile(&raw_ms, 50.0));
    let (speed_factor, speed_spread) = cal.summary();
    per_layer.insert("harness.speed_factor", speed_factor);
    per_layer.insert("harness.speed_factor_spread", speed_spread);
    per_layer.insert("harness.oracle_s", oracle_s);
    per_layer.insert("harness.peak_rss_mb", rss_mb);
    per_layer.insert("harness.rss_reset", f64::from(u8::from(rss_reset)));
    // 48 bits: exact in an f64, and in JSON
    per_layer.insert("harness.sequence_digest", (sequence >> 16) as f64);

    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut by_template: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (r, ms) in records.iter().zip(&norm_ms) {
        let instance = &instances[r.instance];
        by_class.entry(instance.class).or_default().push(*ms);
        by_template.entry(instance.template).or_default().push(*ms);
    }
    for m in crate::metrics::PER_LAYER.iter() {
        let class = m.name.strip_prefix("class.").and_then(|rest| rest.strip_suffix(".p50_ms"));
        if let Some(samples) = class.and_then(|c| by_class.get(c)) {
            per_layer.insert(m.name, median(samples));
        }
    }
    if let Some(baseline) = by_template.get("count_star").map(|s| median(s)) {
        // the executor ladder: what a template costs over a bare scan, per input row
        let rows = config.scale.lineitem_rows() as f64;
        for m in crate::metrics::PER_LAYER.iter() {
            let template =
                m.name.strip_prefix("exec.").and_then(|rest| rest.strip_suffix("_ns_per_row"));
            if let Some(samples) = template.and_then(|t| by_template.get(t)) {
                per_layer.insert(m.name, (median(samples) - baseline) * 1e6 / rows);
            }
        }
    }

    if traced_ops > 0 {
        let factors: Vec<f64> = traced_at.iter().map(|at| cal.factor_at(*at)).collect();
        layer_metrics(tracer.spans(), &acc, &factors, &mut per_layer);
    }
    Ok(RunReport { attempted, failed, end_to_end, per_layer, spans: tracer.spans().to_vec() })
}

/// Per-layer values out of the traced section's spans and counter deltas.
/// `factors[op]` is the machine-speed factor next to traced op `op`; every
/// span time is divided by its op's.
fn layer_metrics(spans: &[Span], acc: &Accumulator, factors: &[f64], out: &mut Values) {
    let ops = factors.len() as f64;
    let factor = |op: usize| factors.get(op).copied().unwrap_or(1.0);
    let own = self_times_ns(spans);
    // per op: self time by span name, and the durations of the two roots
    let op_count = spans.iter().map(|s| s.op as usize + 1).max().unwrap_or(0);
    let mut self_by_name: Vec<BTreeMap<&str, f64>> = vec![BTreeMap::new(); op_count];
    let mut stepped = vec![0.0; op_count];
    let mut facade = vec![0.0; op_count];
    for (span, own_ns) in spans.iter().zip(own) {
        let op = span.op as usize;
        *self_by_name[op].entry(span.name).or_insert(0.0) += own_ns as f64 / factor(op);
        match span.name {
            "stepped" => stepped[op] = span.duration_ns() as f64 / factor(op),
            "facade" => facade[op] = span.duration_ns() as f64 / factor(op),
            _ => {}
        }
    }
    let per_op = |name: &str| -> Vec<f64> {
        self_by_name.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect()
    };
    let total = |name: &str| -> f64 { per_op(name).iter().sum() };
    let p50 = |name: &str| median(&per_op(name));
    let stepped_total: f64 = stepped.iter().sum::<f64>().max(1.0);
    let facade_total: f64 = facade.iter().sum::<f64>().max(1.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    out.insert("sql.parse_us", p50("sql.parse") / 1e3);
    out.insert("sql.analyze_us", p50("sql.analyze") / 1e3);
    out.insert("plan.optimize_us", p50("plan.optimize") / 1e3);
    out.insert("plan.fragment_us", p50("plan.fragment") / 1e3);
    let frontend =
        total("sql.parse") + total("sql.analyze") + total("plan.optimize") + total("plan.fragment");
    out.insert("plan.frontend_share", frontend / stepped_total);

    let scan = total("connectors.scan_split");
    out.insert("connectors.splits_us", p50("connectors.splits") / 1e3);
    out.insert("connectors.scan_ms", p50("connectors.scan_split") / 1e6);
    out.insert("connectors.scan_share", scan / stepped_total);
    out.insert("connectors.scan_ns_per_row", ratio(scan, acc.sum("rows_addressed")));
    out.insert("connectors.splits_per_op", acc.sum("splits") / ops);
    out.insert("connectors.emit_ratio", ratio(acc.sum("rows_emitted"), acc.sum("rows_addressed")));

    let root = total("exec.root");
    out.insert("exec.root_ms", p50("exec.root") / 1e6);
    out.insert("exec.root_share", root / stepped_total);
    out.insert("exec.root_ns_per_row_in", ratio(root, acc.sum("rows_emitted")));
    out.insert("exec.exchange_deliver_us", p50("exec.exchange_deliver") / 1e3);
    let sample = |name: &str| acc.normalised(name, factor);
    out.insert(
        "exec.peak_reserved_mb",
        sample("peak_reserved_bytes").into_iter().fold(0.0, f64::max) / (1024.0 * 1024.0),
    );
    out.insert("exec.spilled_ops", acc.sum("spilled_ops"));

    // what the facade spends that no stepped call accounts for (admission,
    // query bookkeeping), and what the stepped run spends between its calls
    let residual: Vec<f64> = (0..op_count)
        .filter(|op| stepped[*op] > 0.0)
        .map(|op| {
            let children = stepped[op] - self_by_name[op].get("stepped").copied().unwrap_or(0.0);
            (facade[op] - children) / 1e3
        })
        .collect();
    out.insert("core.facade_residual_us", median(&residual));
    out.insert("core.virtual_over_wall", median(&sample("virtual_over_wall")));
    out.insert("core.result_rows_per_op", acc.sum("result_rows") / ops);
    out.insert("harness.trace_overhead_frac", stepped_total / facade_total - 1.0);
    out.insert("harness.decomp_residual_frac", total("stepped") / stepped_total);

    out.insert("storage.read_ops_per_op", acc.sum("hdfs_read_ops") / ops);
    out.insert("storage.read_kb_per_op", acc.sum("hdfs_read_bytes") / 1024.0 / ops);
    out.insert("storage.list_files_per_op", acc.sum("hdfs_list_files") / ops);
    out.insert("storage.get_file_info_per_op", acc.sum("hdfs_get_file_info") / ops);
    out.insert("storage.write_kb_per_op", acc.sum("hdfs_write_bytes") / 1024.0 / ops);
    out.insert("storage.sim_io_ms_per_op", acc.sum("hdfs_sim_io_ms") / ops);

    let rate = |hits: &str, misses: &str| ratio(acc.sum(hits), acc.sum(hits) + acc.sum(misses));
    out.insert("cache.frc_hit_rate", rate("frc_hits", "frc_misses"));
    out.insert("cache.flc_hit_rate", rate("flc_hits", "flc_misses"));
    out.insert("cache.fhc_hit_rate", rate("fhc_hits", "fhc_misses"));
    out.insert("cache.hit_op_p50_ms", median(&sample("cluster_hit_ms")));
    out.insert("cache.miss_op_p50_ms", median(&sample("cluster_miss_ms")));
    out.insert("cluster.over_engine_ms", median(&sample("cluster_over_engine_ms")));
    out.insert("cluster.tasks_per_op", acc.sum("cluster_tasks") / ops);
    out.insert("cluster.split_retries", acc.sum("split_retries"));
    out.insert("cluster.virtual_over_wall", median(&sample("cluster_virtual_over_wall")));
    if let Some(bytes_per_row) = sample("file_bytes_per_row").first() {
        out.insert("parquet.file_bytes_per_row", *bytes_per_row);
    }
}

/// How long the run's sections may take in contract mode.
pub fn contract_budgets(seconds: f64, mode: Mode, workload: &str) -> (Budget, Budget) {
    match mode {
        Mode::EndToEnd => (Budget::Seconds(seconds), Budget::Passes(0)),
        // fixed traced passes (exact counts), the rest of the time timed
        _ => (Budget::Seconds(seconds / 2.0), Budget::Passes(default_passes(workload).1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, Page};

    #[test]
    fn a_corrupted_oracle_digest_is_a_failed_op_not_a_panic() {
        let page = Page::new(vec![Block::bigint(vec![1, 2, 3])]).unwrap();
        let answer = digest_of(&Ok(Answer::Pages(vec![page])), Check::Unordered);
        let good = answer.clone().unwrap();
        assert!(agrees(&answer, &Ok(good)));
        assert!(!agrees(&answer, &Ok(Digest { rows: good.rows, hash: good.hash ^ 1 })));
        assert!(!agrees(&answer, &Ok(Digest { rows: good.rows - 1, hash: good.hash })));
        assert!(!agrees(&answer, &Err("oracle query failed".into())));
        assert!(!agrees(&digest_of(&Err("op failed".into()), Check::Unordered), &Ok(good)));
        // a write is checked by its row count
        let written = digest_of(&Ok(Answer::Written { rows: 5_000 }), Check::CountOnly);
        assert!(agrees(&written, &Ok(Digest { rows: 5_000, hash: 0 })));
        assert!(!agrees(&written, &Ok(Digest { rows: 4_999, hash: 0 })));
    }

    #[test]
    fn every_workload_times_five_hundred_ops_in_the_fixed_count_run() {
        for (workload, per_pass) in [
            ("lake_adhoc", 21),
            ("mem_exec", 25),
            ("realtime_dash", 21),
            ("cluster_repeat", 21),
            ("ingest_write", 25),
        ] {
            let (timed, traced) = default_passes(workload);
            assert!(timed * per_pass >= 500, "{workload}");
            assert!(traced > 0 && traced * 2 <= timed, "{workload}");
        }
    }
}
