//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! The benchmark draws every input from `--seed` through these, so the
//! same seed always gives the same query pools, draw sequences and
//! simulation seeds.

/// SplitMix64: tiny, fast, and good enough to pick inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift: unbiased enough for input selection.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of `choices`, uniformly.
    pub fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[self.below(choices.len() as u64) as usize]
    }
}

/// Zipf-distributed ranks over `0..len`: rank `k` has weight
/// `1 / (k + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `len > 0` ranks.
    #[must_use]
    pub fn new(len: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..len)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(exponent);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed, 1);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(9, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 5 * counts[50]);
        assert!(counts[99] > 0);
    }
}
