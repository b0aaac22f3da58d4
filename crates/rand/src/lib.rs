//! Offline stand-in for the subset of the `rand` 0.8 API that the permrs
//! data generators use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over the common numeric range types and
//! [`Rng::gen_bool`].
//!
//! The build environment has no access to crates.io, so this workspace crate
//! shadows the real dependency via a path override. The generator only needs
//! *deterministic, seedable, reasonably well-distributed* numbers — it does
//! not need to reproduce the upstream `StdRng` stream. The implementation is
//! xoshiro256++ seeded through SplitMix64 (the same construction the
//! reference `xoshiro` crate documents).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Random number generator trait (subset of `rand::Rng`).
pub trait Rng {
    /// Produces the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value uniformly from `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        unit_f64(self.next_u64()) < p
    }
}

/// Seedable construction (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// A range that supports uniform sampling (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps 64 random bits to a float in `[0, 1)` with 53 bits of precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (start as i128 + offset) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + unit_f64(rng.next_u64()) as f32 * (self.end - self.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (API-compatible stand-in for
    /// `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            // SplitMix64 expansion of the seed, as recommended by the
            // xoshiro authors for seeding from small states.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let v: usize = rng.gen_range(0..3);
            assert!(v < 3);
            let v: i64 = rng.gen_range(1..=7);
            assert!((1..=7).contains(&v));
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_f64_covers_the_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..10_000 {
            let f: f64 = rng.gen_range(0.0..1.0);
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }
}
