//! Seeded input generation. Everything a workload feeds the program is
//! drawn from here, so one `--seed` always yields the same inputs.

/// SplitMix64: tiny, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6F69_7375_6D2D_6265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// One summand: half the draws are the paper's Figs. 5-8 uniform
    /// `[-0.5, 0.5]`, half are log-uniform magnitudes in `2^-100..2^100`
    /// with a random sign — far inside HP(6,3)'s `2^-192..2^191` range, so
    /// every value converts exactly and no partial sum can overflow.
    pub fn summand(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            self.unit() - 0.5
        } else {
            let mag = (self.unit() * 200.0 - 100.0).exp2();
            if self.next_u64() & 1 == 0 {
                mag
            } else {
                -mag
            }
        }
    }
}

/// The bulk-sum input (the paper's section II.A zero-sum construction):
/// `n / 2` summands, each paired with its negation, then shuffled. The
/// exact sum is zero by construction, whatever the order.
pub fn zero_sum_array(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n / 2 {
        let x = rng.summand();
        xs.push(x);
        xs.push(-x);
    }
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
    xs
}

/// Zipf(1) popularity over `n` items: item `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            // lint:allow(float-accum) -- benchmark input statistics, not summation data
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
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
    fn same_seed_same_inputs() {
        assert_eq!(zero_sum_array(7, 1024), zero_sum_array(7, 1024));
        assert_ne!(zero_sum_array(7, 1024), zero_sum_array(8, 1024));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 64];
        for _ in 0..100_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        // P(0) / P(1) = 2 under Zipf(1).
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
