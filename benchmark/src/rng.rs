//! Seeded generators owned by the benchmark, so the op stream depends on
//! `--seed` alone and not on any sampler inside the measured crates.

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        Self([
            splitmix(&mut x),
            splitmix(&mut x),
            splitmix(&mut x),
            splitmix(&mut x),
        ])
    }

    /// A generator for `(seed, stream)`: distinct streams are independent.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// domains used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Key popularity of a workload.
#[derive(Debug, Clone)]
pub enum Keys {
    Uniform(u64),
    /// Zipf over `0..n`: rank `i` has weight `(i + 1)^-theta`, ranks are
    /// scattered over the key space by a seeded permutation so hot keys
    /// spread over chunks, stripes and shards.
    Zipf {
        cdf: Vec<f64>,
        perm: Vec<u32>,
    },
}

impl Keys {
    pub fn zipf(n: usize, theta: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let perm = Rng::stream(seed, 0x5eed_2172).permutation(n);
        Self::Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Self::Uniform(n) => rng.below(*n),
            Self::Zipf { cdf, perm } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|c| *c < u).min(cdf.len() - 1);
                perm[rank] as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::stream(7, 3);
        let mut b = Rng::stream(7, 3);
        let mut c = Rng::stream(8, 3);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..64).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_in_range_and_scrambled() {
        let n = 10_000;
        let keys = Keys::zipf(n, 0.99, 1);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; n];
        for _ in 0..100_000 {
            counts[keys.sample(&mut rng) as usize] += 1;
        }
        let Keys::Zipf { perm, .. } = &keys else {
            unreachable!()
        };
        let hottest = perm[0] as usize;
        // Rank 0 carries 1/H(n, 0.99) of the mass, about 10% at n = 10^4.
        assert!(counts[hottest] > 8_000, "hottest {}", counts[hottest]);
        assert_eq!(counts.iter().max(), Some(&counts[hottest]));
        assert_ne!(hottest, 0, "ranks are scattered");
    }
}
