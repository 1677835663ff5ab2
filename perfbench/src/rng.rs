//! A small seeded generator (SplitMix64), so the benchmark's inputs
//! depend on nothing but `--seed` and this file.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream derived from `seed` and a stream tag, so
    /// adding draws to one input family never shifts another.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut base = Rng::new(seed);
        for _ in 0..=tag % 7 {
            base.next_u64();
        }
        Rng::new(base.next_u64() ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(Rng::stream(1, 0).next_u64(), Rng::stream(1, 1).next_u64());
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
            let v = r.range(2, 4);
            assert!((2..=4).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
