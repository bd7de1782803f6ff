#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-rand
//!
//! A dependency-free pseudo-random number generator used across the
//! workspace so that normal builds never touch crates.io. The surface
//! mirrors the subset of `rand` 0.8 the repo used — [`SmallRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`], [`Rng::gen`],
//! [`Rng::gen_bool`] and [`seq::SliceRandom`] — so call sites port with
//! an import swap. The generator is xoshiro256++ (Blackman & Vigna)
//! seeded through SplitMix64, the exact construction the reference
//! implementation recommends; streams differ from `rand`'s `SmallRng`,
//! so seed-sensitive experiment shapes were re-checked (EXPERIMENTS.md).
//!
//! The [`prop`] module layers a minimal property-test harness on top,
//! replacing the `proptest` dev-dependency for offline builds.

pub mod prop;

/// Construct a generator from small, human-chosen seeds.
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed (SplitMix64
    /// expansion, so nearby seeds yield unrelated streams).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core entropy source: everything else is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// SplitMix64 — used to expand seeds into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — the workspace's small, fast, non-cryptographic PRNG.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for SmallRng {
    #[inline]
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

/// Types producible by [`Rng::gen`] from uniform bits.
pub trait Standard: Sized {
    /// Draw one value from the "standard" distribution for the type
    /// (uniform `[0, 1)` for floats, uniform over all values for ints).
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Map 64 random bits onto `[0, span)` without modulo bias hot spots
/// (widening-multiply method).
#[inline]
fn bounded(bits: u64, span: u64) -> u64 {
    ((u128::from(bits) * u128::from(span)) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(bounded(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(bounded(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                self.start + <$t as Standard>::from_rng(rng) * (self.end - self.start)
            }
        }
    )*};
}

float_range!(f32, f64);

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform value in `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A value from the type's standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        <f64 as Standard>::from_rng(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use super::SmallRng;
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random selection and shuffling over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// A uniformly random element, or `None` when empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: xoshiro256++ from state {1, 2, 3, 4} (Vigna's test
        // values, first three outputs).
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
        assert_eq!(rng.next_u64(), 3588806011781223);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = rng.gen_range(3..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.gen_range(-0.5..0.5f32);
            assert!((-0.5..0.5).contains(&f));
            let d = rng.gen_range(1.0..5.0f64);
            assert!((1.0..5.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_covers_every_value_of_a_small_range() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_stay_in_unit_interval_and_spread() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 4000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(21);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((1000..1400).contains(&hits), "hits {hits}");
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn shuffle_permutes_and_choose_selects() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..32).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig, "32 elements virtually never shuffle to identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert!(orig.contains(v.choose(&mut rng).unwrap()));
        let empty: &[usize] = &[];
        assert!(empty.choose(&mut rng).is_none());
    }
}
