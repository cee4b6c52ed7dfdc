//! The case-generation RNG.
//!
//! SplitMix64 (Steele, Lea, Flood), also the stream `process` draws its
//! Monte Carlo samples from. `drill` is deliberately dependency-free, so
//! every crate in the workspace can depend on it without cycles.

/// A seeded deterministic generator with the drawing helpers property
/// generators need. Equal seeds give equal streams on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the generator.
    pub fn seeded(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next uniform 64-bit word (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`. Debiased by rejection, so small moduli do
    /// not skew toward low values.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return raw % n;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// An independent child generator (for sub-structures that should
    /// not perturb the parent stream when their draw count varies).
    pub fn fork(&mut self) -> Rng {
        Rng::seeded(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector() {
        // Vigna's SplitMix64 test vector, seed 0.
        let mut rng = Rng::seeded(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = Rng::seeded(99);
        let mut b = Rng::seeded(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_stays_in_unit_interval_and_varies() {
        let mut rng = Rng::seeded(7);
        let xs: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seeded(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn int_in_hits_both_endpoints() {
        let mut rng = Rng::seeded(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..500 {
            match rng.int_in(2, 5) {
                2 => lo_seen = true,
                5 => hi_seen = true,
                3 | 4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = Rng::seeded(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = Rng::seeded(5);
        let mut child = parent.fork();
        // The child stream is not a suffix of the parent stream.
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(c, p);
    }
}
