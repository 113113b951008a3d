//! Seeded randomness for the harness: every draw is a pure function of the
//! `--seed` argument, so two runs with the same seed issue the same ops in
//! the same order. The engine never sees this generator, only SQL text.

/// SplitMix64: small, fast, and good enough for shuffles and Zipf draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed (literals,
    /// order, Zipf) do not disturb each other when one draws more.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF on a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank (0 = hottest).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_streams_differ() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn shuffle_is_a_permutation_and_pure_in_the_seed() {
        let p = Rng::new(3, 0).permutation(21);
        let q = Rng::new(3, 0).permutation(21);
        assert_eq!(p, q);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        assert_ne!(p, Rng::new(4, 0).permutation(21));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let zipf = Zipf::new(63, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0usize; 63];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // rank 0 carries 1/H(63) ≈ 21% of the mass, rank 62 ≈ 0.34%
        assert!(counts[0] > 3_600 && counts[0] < 4_900, "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[5] && counts[5] > counts[40]);
        assert!(counts[62] > 0);
        let again: Vec<usize> = {
            let mut rng = Rng::new(1, 0);
            (0..50).map(|_| zipf.sample(&mut rng)).collect()
        };
        let mut rng = Rng::new(1, 0);
        assert_eq!(again, (0..50).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>());
    }
}
