//! `drill` — a zero-dependency property-testing harness.
//!
//! It is the workspace's one property harness, so every property runs
//! in the offline tier-1 build: the root `tests/properties.rs`, the
//! `drftest::fuzz` fuzzers and `anasim`'s LU bit-identity property.
//! It provides seeded case generation on a [`Rng`] (SplitMix64), a
//! [`check`] runner that catches property panics per case, bounded
//! greedy shrinking, and a per-case seed in every failure so any
//! counterexample replays from one `u64`.
//!
//! # Replay contract
//!
//! Case `i` of a run with seed `s` draws from
//! `Rng::seeded(case_seed(s, i))`. A failure report carries that
//! `case_seed`; running the same property with `seed = case_seed` and
//! `cases = 1` regenerates the failing input exactly.
//!
//! ```
//! use drill::{check, no_shrink, Config};
//!
//! let config = Config::new("sum is symmetric", 42).cases(64);
//! let report = check(
//!     &config,
//!     |rng| (rng.next_u64() >> 32, rng.next_u64() >> 32),
//!     no_shrink,
//!     |&(a, b)| {
//!         if a + b == b + a {
//!             Ok(())
//!         } else {
//!             Err("addition broke".into())
//!         }
//!     },
//! );
//! assert!(report.ok());
//! ```

pub mod rng;
pub mod runner;

pub use rng::Rng;
pub use runner::{case_seed, check, no_shrink, Config, Failure, Report};
