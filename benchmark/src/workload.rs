//! What the runner needs from a workload, and the seeded op stream.

use std::collections::BTreeMap;

use presto_common::Page;

use crate::digest::{digest_pages, Check, Digest};
use crate::fixture::Scale;
use crate::metrics::Values;
use crate::rng::{Rng, Zipf};
use crate::span::Tracer;
use crate::speed::Calibrator;
use crate::templates::Instance;

/// Zipf exponent of `cluster_repeat`'s draws.
const ZIPF_S: f64 = 1.0;

/// What one op returned.
pub enum Answer {
    Pages(Vec<Page>),
    /// A file write: rows written (the read-back check follows the run).
    Written {
        rows: u64,
    },
}

impl Answer {
    pub fn digest(&self, check: Check) -> Digest {
        match self {
            Answer::Pages(pages) => digest_pages(pages, check),
            Answer::Written { rows } => Digest { rows: *rows, hash: 0 },
        }
    }

    pub fn rows(&self) -> u64 {
        match self {
            Answer::Pages(pages) => pages.iter().map(|p| p.positions() as u64).sum(),
            Answer::Written { rows } => *rows,
        }
    }
}

/// How a sample depends on machine speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// A count or a size: reported as sampled.
    None,
    /// A duration: divided by the op's speed factor.
    Duration,
    /// Something ÷ a duration: multiplied by the op's speed factor.
    PerDuration,
}

/// Counter deltas summed, and per-op samples kept, over the traced section.
#[derive(Default)]
pub struct Accumulator {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<(u32, f64, Scaling)>>,
}

impl Accumulator {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn sample(&mut self, name: &'static str, op: u32, value: f64, scaling: Scaling) {
        self.samples.entry(name).or_default().push((op, value, scaling));
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The samples of `name`, each normalised by `factor(op)`.
    pub fn normalised(&self, name: &str, factor: impl Fn(usize) -> f64) -> Vec<f64> {
        let scale = |(op, value, scaling): &(u32, f64, Scaling)| match scaling {
            Scaling::None => *value,
            Scaling::Duration => value / factor(*op as usize),
            Scaling::PerDuration => value * factor(*op as usize),
        };
        self.samples.get(name).map(|s| s.iter().map(scale).collect()).unwrap_or_default()
    }
}

pub trait Workload {
    /// The pool of distinct ops this run draws from.
    fn instances(&self) -> &[Instance];

    /// The seeded order in which ops are issued.
    fn stream(&self, seed: u64) -> OpStream;

    /// One op through the facade a user calls. Timed by the runner.
    fn execute(&mut self, instance: usize) -> Result<Answer, String>;

    /// The expected digest of every instance, by an independent path.
    fn oracle(&mut self) -> Vec<Result<Digest, String>>;

    /// One op of the traced section: the facade again (with counter deltas
    /// into `acc`), then the same op stepped through the layers' public
    /// functions under spans. Returns the stepped answer.
    fn traced(
        &mut self,
        instance: usize,
        op: u32,
        tracer: &mut Tracer,
        acc: &mut Accumulator,
    ) -> Result<Answer, String>;

    /// Fixed micro-ops on this workload's own data, each normalised by the
    /// machine speed `cal` measures around it.
    fn probes(&mut self, values: &mut Values, cal: &mut Calibrator);

    /// Checks that can only run after the timed section; returns
    /// `(attempted, failed)`.
    fn verify_after(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// How a workload draws its ops.
#[derive(Debug, Clone)]
enum Draw {
    /// Every pass issues template `t` `repeats[t]` times, all in one shuffled
    /// order, each time picking one of the template's `variants` instances.
    Passes { repeats: Vec<usize>, variants: usize },
    /// Instances in a popularity ranking, drawn Zipf by rank.
    Zipf { rank_to_instance: Vec<usize>, zipf: Zipf, batch: usize },
}

/// The op sequence of one `--seed`, produced a pass at a time.
#[derive(Debug, Clone)]
pub struct OpStream {
    draw: Draw,
    rng: Rng,
}

impl OpStream {
    /// `repeats.len() × variants` instances laid out template-major.
    pub fn passes(repeats: Vec<usize>, variants: usize, seed: u64) -> OpStream {
        OpStream { draw: Draw::Passes { repeats, variants }, rng: Rng::new(seed, 0x0fde) }
    }

    /// Zipf draws over `templates × variants` instances (template-major).
    /// Which *template* holds which popularity rank is the same for every
    /// seed — ranks `k`, `k + templates`, … belong to one template, in a
    /// fixed shuffled order — so the cost mix of the hot head does not depend
    /// on the seed; the seed decides which of a template's variants (which
    /// literals) takes the hotter rank, and the draws.
    pub fn zipf(templates: usize, variants: usize, batch: usize, seed: u64) -> OpStream {
        let template_order = Rng::new(0x7a9f, 0).permutation(templates);
        let mut seeded = Rng::new(seed, 0x7a9f);
        let variant_order: Vec<Vec<usize>> =
            (0..templates).map(|_| seeded.permutation(variants)).collect();
        let rank_to_instance = (0..templates * variants)
            .map(|rank| {
                let template = template_order[rank % templates];
                template * variants + variant_order[template][rank / templates]
            })
            .collect();
        let zipf = Zipf::new(templates * variants, ZIPF_S);
        OpStream { draw: Draw::Zipf { rank_to_instance, zipf, batch }, rng: Rng::new(seed, 0x0fde) }
    }

    /// The ops of a set-up's untimed warm-up: one pass, or for Zipf draws the
    /// two hottest ranks of every template (the same queries for any seed, up
    /// to their literals, so set-up costs the same for any seed).
    pub fn warm_up(&mut self) -> Vec<usize> {
        match &self.draw {
            Draw::Passes { .. } => self.next_pass(),
            Draw::Zipf { rank_to_instance, batch, .. } => rank_to_instance[..2 * batch].to_vec(),
        }
    }

    /// Instance indexes of the next pass.
    pub fn next_pass(&mut self) -> Vec<usize> {
        match &self.draw {
            Draw::Passes { repeats, variants } => {
                let mut order: Vec<usize> = repeats
                    .iter()
                    .enumerate()
                    .flat_map(|(template, times)| std::iter::repeat_n(template, *times))
                    .collect();
                self.rng.shuffle(&mut order);
                order.into_iter().map(|t| t * variants + self.rng.below(*variants)).collect()
            }
            Draw::Zipf { rank_to_instance, zipf, batch } => {
                (0..*batch).map(|_| rank_to_instance[zipf.sample(&mut self.rng)]).collect()
            }
        }
    }
}

pub fn build(name: &str, scale: Scale, seed: u64) -> Option<Box<dyn Workload>> {
    use crate::{ingest, sql_workload};
    Some(match name {
        "lake_adhoc" => Box::new(sql_workload::lake_adhoc(scale, seed)),
        "mem_exec" => Box::new(sql_workload::mem_exec(scale, seed)),
        "realtime_dash" => Box::new(sql_workload::realtime_dash(scale, seed)),
        "cluster_repeat" => Box::new(sql_workload::cluster_repeat(scale, seed)),
        "ingest_write" => Box::new(ingest::IngestWrite::build(scale)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_issues_every_template_once_and_streams_are_pure_in_the_seed() {
        let mut a = OpStream::passes(vec![1; 21], 3, 5);
        let mut b = OpStream::passes(vec![1; 21], 3, 5);
        let mut other = OpStream::passes(vec![1; 21], 3, 6);
        let first = a.next_pass();
        assert_eq!(first, b.next_pass());
        assert_ne!(first, other.next_pass());
        let mut templates: Vec<usize> = first.iter().map(|i| i / 3).collect();
        templates.sort_unstable();
        assert_eq!(templates, (0..21).collect::<Vec<_>>());
        assert_ne!(a.next_pass(), first, "each pass reshuffles");

        // weighted: the slow template once in 25 ops, so p98 falls mid-block
        let mut weighted = OpStream::passes(vec![3, 3, 1, 3], 1, 5);
        let mut pass = weighted.next_pass();
        pass.sort_unstable();
        assert_eq!(pass, [0, 0, 0, 1, 1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn zipf_stream_favours_a_hot_head_of_fixed_templates() {
        let mut stream = OpStream::zipf(21, 3, 21, 9);
        let mut counts = vec![0usize; 63];
        for _ in 0..200 {
            for i in stream.next_pass() {
                counts[i] += 1;
            }
        }
        let hottest = (0..63).max_by_key(|i| counts[*i]).unwrap();
        let Draw::Zipf { rank_to_instance, .. } = &stream.draw else { unreachable!() };
        assert_eq!(rank_to_instance[0], hottest);
        assert!(counts[hottest] > 700, "{}", counts[hottest]); // ≈ 21% of 4,200
        let mut sorted = rank_to_instance.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..63).collect::<Vec<_>>(), "every instance holds one rank");
        let mut replay = OpStream::zipf(21, 3, 21, 9);
        let mut again = OpStream::zipf(21, 3, 21, 9);
        assert_eq!(replay.next_pass(), again.next_pass());
        // another seed: the same template at every rank, other draws
        let other = OpStream::zipf(21, 3, 21, 10);
        let Draw::Zipf { rank_to_instance: other_ranks, .. } = &other.draw else { unreachable!() };
        let templates = |ranks: &[usize]| ranks.iter().map(|i| i / 3).collect::<Vec<_>>();
        assert_eq!(templates(rank_to_instance), templates(other_ranks));
        assert_ne!(rank_to_instance, other_ranks);
        let mut warm = replay.warm_up();
        assert_eq!(warm, rank_to_instance[..42]);
        warm.iter_mut().for_each(|i| *i /= 3);
        warm.sort_unstable();
        assert_eq!(warm, (0..42).map(|i| i / 2).collect::<Vec<_>>(), "every template twice");
    }
}
