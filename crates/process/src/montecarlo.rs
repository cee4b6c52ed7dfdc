//! Gaussian Monte Carlo sampling of within-die mismatch.
//!
//! Beyond the paper's hand-picked case studies, the reproduction uses
//! Monte Carlo sampling to validate that the worst-case patterns the
//! paper constructs really are tail events: random arrays almost never
//! contain a ±6σ fully-adversarial cell, which is exactly why the paper
//! calls that case "a theoretical case study".

use drill::Rng;

use crate::sigma::Sigma;

/// A seeded Gaussian sampler producing σ-valued threshold deviations.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    rng: Rng,
    cache: Option<f64>,
}

impl MonteCarlo {
    /// A sampler over SplitMix64 ([`drill::Rng`]); equal seeds give
    /// equal streams.
    pub fn seeded(seed: u64) -> Self {
        MonteCarlo {
            rng: Rng::seeded(seed),
            cache: None,
        }
    }

    /// Draws one standard-normal sample via the Box–Muller transform
    /// (pairs are generated together; the second is cached).
    pub fn sample_standard_normal(&mut self) -> f64 {
        if let Some(v) = self.cache.take() {
            return v;
        }
        // Box–Muller: u1 ∈ (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - self.rng.next_f64();
        let u2: f64 = self.rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cache = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws a σ-valued mismatch for one transistor.
    pub fn sample_sigma(&mut self) -> Sigma {
        obs::counter_add("process.mc.samples", 1);
        Sigma(self.sample_standard_normal())
    }

    /// Draws `n` independent σ-valued mismatches.
    pub fn sample_sigmas(&mut self, n: usize) -> Vec<Sigma> {
        (0..n).map(|_| self.sample_sigma()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(seed: u64) -> MonteCarlo {
        MonteCarlo::seeded(seed)
    }

    #[test]
    fn mean_and_variance_near_standard_normal() {
        let mut mc = sampler(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| mc.sample_standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f64> = {
            let mut mc = sampler(42);
            (0..10).map(|_| mc.sample_standard_normal()).collect()
        };
        let b: Vec<f64> = {
            let mut mc = sampler(42);
            (0..10).map(|_| mc.sample_standard_normal()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn six_sigma_events_are_rare() {
        let mut mc = sampler(11);
        let n = 100_000;
        let extreme = (0..n)
            .filter(|_| mc.sample_standard_normal().abs() >= 6.0)
            .count();
        // P(|X| >= 6) ≈ 2e-9; in 1e5 draws we expect zero.
        assert_eq!(extreme, 0);
    }

    #[test]
    fn sample_sigmas_length() {
        let mut mc = sampler(3);
        assert_eq!(mc.sample_sigmas(6).len(), 6);
    }

    #[test]
    fn samples_are_not_all_equal() {
        let mut mc = sampler(5);
        let xs = mc.sample_sigmas(16);
        let first = xs[0];
        assert!(xs.iter().any(|&x| x != first));
    }
}
