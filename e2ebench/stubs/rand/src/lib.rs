//! Offline stand-in for `rand` 0.10: a seedable xoshiro256** generator
//! behind the `StdRng` / `SeedableRng` / `RngExt` / `seq` names the
//! NetAlytics crates use. Streams differ from the real crate's, which
//! only matters to callers that hard-code expected draws (none do).

use std::ops::{Range, RangeInclusive};

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit source every helper draws from.
pub trait Rng {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Generator types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
    }
}

/// Types drawable uniformly from their whole domain (`[0, 1)` for
/// floats).
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for bool {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($ty:ty),*) => {$(
        impl Standard for $ty {
            fn draw<R: Rng + ?Sized>(rng: &mut R) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a uniform draw between two bounds.
pub trait SampleUniform: Sized + PartialOrd {
    /// Draws from `[lo, hi)` or, when `inclusive`, `[lo, hi]`.
    fn between<R: Rng + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn between<R: Rng + ?Sized>(lo: $ty, hi: $ty, inclusive: bool, rng: &mut R) -> $ty {
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $ty
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn between<R: Rng + ?Sized>(lo: $ty, hi: $ty, _inclusive: bool, rng: &mut R) -> $ty {
                lo + (hi - lo) * <$ty as Standard>::draw(rng)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Ranges a value can be drawn from. One generic impl per range kind,
/// so an unannotated float literal range still infers `f64`.
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range");
        T::between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        T::between(lo, hi, true, rng)
    }
}

/// Convenience draws on any [`Rng`].
pub trait RngExt: Rng {
    /// A uniform value of `T`'s whole domain (`[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform value inside `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// Random element access.
    pub trait IndexedRandom {
        /// Element type.
        type Output;

        /// A uniformly chosen element, `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get((rng.next_u64() % self.len() as u64) as usize)
            }
        }
    }

    /// In-place shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = a.random_range(10..20);
            assert_eq!(x, b.random_range(10..20));
            assert!((10..20).contains(&x));
            let f: f64 = a.random_range(0.5..=1.5);
            let _ = b.random_range(0.5..=1.5);
            assert!((0.5..=1.5).contains(&f));
        }
    }
}
