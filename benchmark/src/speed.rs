//! Machine-speed calibration.
//!
//! The box this benchmark runs on is a small VM whose memory system is shared
//! with other tenants: for minutes at a time, and in bursts of seconds, the
//! same single-threaded work takes 20–60% longer, while pure ALU work is
//! unaffected. Ten runs of one workload then spread 20–40% apart, and no
//! bound under 25% could tell a regression from a neighbour.
//!
//! So every time the harness reports is *normalised*: a fixed kernel — a few
//! milliseconds of the kind of work the engine does (boxed-row hash grouping,
//! column materialisation, run copying) — is timed every ~100 ms between ops,
//! and each op's wall and CPU time are divided by the local speed factor:
//! (median kernel time within ±1 s of the op ÷ [`NOMINAL_KERNEL_NS`]) to the
//! power [`SENSITIVITY`]. A reported millisecond is a wall-clock millisecond
//! on a machine that runs the kernel in the nominal time. The kernel lives here, in the benchmark,
//! so a change to the engine cannot move it. Raw (un-normalised) p50 and the
//! factor itself are reported per layer (`harness.raw_op_p50_ms`,
//! `harness.speed_factor`, `harness.speed_factor_spread`).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, percentile, sorted};

/// Kernel time on this repo's 2-core reference box when it is quiet.
pub const NOMINAL_KERNEL_NS: f64 = 1_500_000.0;
/// How much of the kernel's slowdown the engine's work shares. The kernel is
/// almost purely memory-bound; the workloads are a little less so. Over 48
/// runs of four workloads at kernel slowdowns between 1.0× and 1.8×, run time
/// grew as the 0.72–0.82th power of kernel time, and dividing by the 0.75th
/// power left the least spread on three of the four.
pub const SENSITIVITY: f64 = 0.75;
/// Sample the kernel again once this much time has passed since the last.
const SAMPLE_EVERY_NS: u64 = 100_000_000;
/// An op is normalised by the kernel samples this close to it.
const WINDOW_NS: u64 = 1_000_000_000;

#[derive(Clone, PartialEq, Eq, Hash)]
enum Cell {
    Int(i64),
    Text(String),
}

/// The fixed work. Deterministic, allocation-heavy, a few MB of traffic.
struct Kernel {
    cities: Vec<String>,
    bytes: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            cities: (0..48).map(|c| format!("city{c:02}")).collect(),
            bytes: (0..(256 << 10)).map(|i| (i * 31 % 251) as u8).collect(),
        }
    }

    fn run(&self) -> u64 {
        // 1. group 12k boxed rows by (text, int) and sum, like the executor
        let mut groups: HashMap<Vec<Cell>, (u64, f64)> = HashMap::new();
        for i in 0..12_000usize {
            let key = vec![Cell::Text(self.cities[i % 48].clone()), Cell::Int((i % 4) as i64)];
            let entry = groups.entry(key).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += (i % 80) as f64 * 0.5;
        }
        // 2. materialise a column, a selection mask, the selected values
        let column: Vec<f64> = (0..120_000).map(|i| (i % 300) as f64 * 0.125).collect();
        let mask: Vec<bool> = column.iter().map(|v| *v >= 10.0).collect();
        let taken: Vec<f64> =
            column.iter().zip(&mask).filter(|(_, keep)| **keep).map(|(v, _)| *v).collect();
        // 3. copy short runs, like a decompressor
        let mut out = Vec::with_capacity(self.bytes.len());
        let mut at = 0usize;
        while at + 64 <= self.bytes.len() {
            let run = 8 + (self.bytes[at] as usize % 56);
            out.extend_from_slice(&self.bytes[at..at + run]);
            at += run;
        }
        groups.len() as u64 + taken.iter().sum::<f64>() as u64 + out.len() as u64
    }
}

/// Kernel timings on one timeline, and the speed factor at any point of it.
pub struct Calibrator {
    kernel: Kernel,
    epoch: Instant,
    /// `(when, kernel ns)`, in time order.
    samples: Vec<(u64, f64)>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let kernel = Kernel::new();
        for _ in 0..3 {
            black_box(kernel.run());
        }
        Calibrator { kernel, epoch: Instant::now(), samples: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time the kernel once, now.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(self.kernel.run());
        let ns = start.elapsed().as_nanos() as f64;
        self.samples.push((self.now_ns(), ns));
    }

    /// Time the kernel if the last sample is older than ~100 ms.
    pub fn sample_if_due(&mut self) {
        let due = self.samples.last().is_none_or(|(at, _)| self.now_ns() - at >= SAMPLE_EVERY_NS);
        if due {
            self.sample();
        }
    }

    /// Machine slowness around time `at`: the median of the kernel samples
    /// within a second of it (or the nearest one) over the nominal time.
    pub fn factor_at(&self, at: u64) -> f64 {
        factor_from(&self.samples, at)
    }

    /// Run `work` between two pairs of kernel timings. Returns its result,
    /// its wall nanoseconds, and the speed factor from those four timings —
    /// for work too long for the ±1 s window (a set-up repetition, a probe).
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let first = self.samples.len();
        self.sample();
        self.sample();
        let start = Instant::now();
        let result = work();
        let elapsed = start.elapsed().as_nanos() as f64;
        self.sample();
        self.sample();
        let around: Vec<f64> = self.samples[first..].iter().map(|(_, ns)| *ns).collect();
        (result, elapsed, factor_of(median(&around)))
    }

    /// The factor over the whole timeline, and how far its samples spread
    /// ((p90 − p10) ÷ p50).
    pub fn summary(&self) -> (f64, f64) {
        let times = sorted(&self.samples.iter().map(|(_, ns)| *ns).collect::<Vec<_>>());
        if times.is_empty() {
            return (1.0, 0.0);
        }
        let p50 = percentile(&times, 50.0);
        (factor_of(p50), (percentile(&times, 90.0) - percentile(&times, 10.0)) / p50)
    }
}

fn factor_from(samples: &[(u64, f64)], at: u64) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let from = samples.partition_point(|(t, _)| *t + WINDOW_NS < at);
    let to = samples.partition_point(|(t, _)| *t <= at + WINDOW_NS);
    let near: Vec<f64> = samples[from..to].iter().map(|(_, ns)| *ns).collect();
    let kernel_ns = if near.is_empty() {
        // no sample in the window: take the nearest in time
        let after = from.min(samples.len() - 1);
        let before = after.saturating_sub(1);
        let gap = |i: usize| samples[i].0.abs_diff(at);
        samples[if gap(before) <= gap(after) { before } else { after }].1
    } else {
        median(&near)
    };
    factor_of(kernel_ns)
}

/// The factor by which times measured while the kernel takes `kernel_ns` are
/// divided.
fn factor_of(kernel_ns: f64) -> f64 {
    (kernel_ns / NOMINAL_KERNEL_NS).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let kernel = Kernel::new();
        assert_eq!(kernel.run(), kernel.run());
    }

    #[test]
    fn factor_is_the_local_median_over_nominal() {
        let ms = |t: u64| t * 1_000_000;
        let n = NOMINAL_KERNEL_NS;
        // quiet, then a burst from 3.0 s to 5.0 s where the kernel takes 1.5×
        let samples: Vec<(u64, f64)> = (0..80)
            .map(|i| (ms(i * 100), if (30..=50).contains(&i) { n * 1.5 } else { n }))
            .collect();
        let slow = 1.5f64.powf(SENSITIVITY);
        assert_eq!(factor_from(&samples, ms(1_000)), 1.0);
        assert_eq!(factor_from(&samples, ms(4_000)), slow);
        // at the burst's edge the window is half slow, half quiet: the median holds
        assert_eq!(factor_from(&samples, ms(2_900)), 1.0);
        assert_eq!(factor_from(&samples, ms(7_000)), 1.0);
        // outside the timeline the nearest sample decides
        assert_eq!(factor_from(&samples, ms(60_000)), 1.0);
        assert_eq!(factor_from(&[(ms(10), n * 2.0)], ms(5_000)), 2.0f64.powf(SENSITIVITY));
        assert_eq!(factor_from(&[], 7), 1.0);
    }
}
