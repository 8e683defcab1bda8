//! Offline shim for the subset of the `rand` crate API this workspace
//! uses. The container image has no crates.io access, so the workspace
//! vendors a tiny deterministic PRNG instead of the real crate.
//!
//! Deliberate restrictions, aligned with the repo's determinism rules
//! (see `clippy.toml` and DESIGN.md §7.2):
//!
//! * **No ambient entropy.** There is no `thread_rng`, no `random()`
//!   free function, no `from_os_rng`. Every generator is constructed
//!   from an explicit seed (`SeedableRng::seed_from_u64` /
//!   `from_seed`), so replicated state machines cannot accidentally
//!   pick up per-process randomness.
//! * **Stable algorithm.** `StdRng` is xoshiro256++ seeded via
//!   SplitMix64 — a fixed, documented stream. The real crate reserves
//!   the right to change `StdRng`'s algorithm between versions; a
//!   simulator that wants reproducible traces across toolchain bumps
//!   is better off pinning one.
//!
//! Uniform-range sampling uses Lemire-style widening multiplication
//! with a rejection step, so draws are unbiased as well as
//! deterministic.

/// Core randomness source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of `next_u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Construction from seeds. Mirrors `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` seed (SplitMix64-expanded).
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step: the canonical seed-expansion generator.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic standard generator: xoshiro256++.
    ///
    /// Small state (32 bytes), passes BigCrush, and — unlike the real
    /// crate's `StdRng` — guaranteed never to change stream between
    /// versions of this shim.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is the one fixed point of xoshiro;
            // nudge it onto a valid stream.
            if s == [0, 0, 0, 0] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }
}

/// Types producible by [`RngExt::random`].
pub trait StandardUniform: Sized {
    fn sample_from<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for bool {
    fn sample_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for f64 {
    fn sample_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    fn sample_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardUniform for $t {
            fn sample_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer types usable with [`RngExt::random_range`].
pub trait UniformSampled: Copy + PartialOrd {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi_incl: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi_incl: Self) -> Self {
                debug_assert!(lo <= hi_incl);
                // Span as u64 (works for every integer type we cover:
                // the two's-complement difference is the unsigned span).
                let span = (hi_incl as i128 - lo as i128) as u128 as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let bound = span + 1;
                // Lemire: multiply-shift with rejection of the biased
                // low zone keeps the draw exactly uniform.
                let threshold = bound.wrapping_neg() % bound;
                loop {
                    let x = rng.next_u64();
                    let m = (x as u128) * (bound as u128);
                    if (m as u64) >= threshold {
                        return lo.wrapping_add(((m >> 64) as u64) as $t);
                    }
                }
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi_incl: Self) -> Self {
                let u = <$t as StandardUniform>::sample_from(rng);
                lo + u * (hi_incl - lo)
            }
        }
        // For floats the exclusive upper bound is kept as-is: the
        // uniform draw lands exactly on it with probability ~0, and
        // nudging by one ULP buys nothing.
        impl OneLess for $t {
            fn one_less(self) -> Self { self }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// Range argument for [`RngExt::random_range`] (mirrors `SampleRange`).
pub trait SampleRange<T> {
    fn bounds(self) -> (T, T, bool);
}

impl<T: UniformSampled> SampleRange<T> for core::ops::Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: UniformSampled> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (s, e) = self.into_inner();
        (s, e, true)
    }
}

macro_rules! impl_one_less {
    ($($t:ty),*) => {$(
        impl OneLess for $t {
            fn one_less(self) -> Self { self - 1 }
        }
    )*};
}

/// Helper to turn an exclusive upper bound into an inclusive one.
pub trait OneLess {
    fn one_less(self) -> Self;
}
impl_one_less!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods, available on every [`RngCore`].
/// (The real crate calls this `Rng`; recent versions re-export it as
/// `RngExt`, which is the name this workspace imports.)
pub trait RngExt: RngCore {
    /// A uniformly random value of type `T`.
    fn random<T: StandardUniform>(&mut self) -> T {
        T::sample_from(self)
    }

    /// A uniform draw from `range` (empty ranges panic, like `rand`).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSampled + OneLess,
        R: SampleRange<T>,
    {
        let (lo, hi, inclusive) = range.bounds();
        let hi_incl = if inclusive {
            hi
        } else {
            assert!(lo < hi, "cannot sample from empty range");
            hi.one_less()
        };
        assert!(lo <= hi_incl, "cannot sample from empty range");
        T::sample_range(self, lo, hi_incl)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Compatibility alias: older call sites use `Rng` for the extension
/// trait.
pub use RngExt as Rng;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = r.random_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.random_range(1u32..=3);
            assert!((1..=3).contains(&y));
        }
    }

    #[test]
    fn unit_interval() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f = r.random::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_range_integers_hit_extremes_eventually() {
        let mut r = StdRng::seed_from_u64(3);
        let mut small = false;
        let mut large = false;
        for _ in 0..10_000 {
            let x = r.random_range(0u64..=u64::MAX);
            small |= x < u64::MAX / 4;
            large |= x > u64::MAX / 4 * 3;
        }
        assert!(small && large);
    }

    #[test]
    fn from_seed_all_zero_is_escaped() {
        let mut r = StdRng::from_seed([0u8; 32]);
        assert_ne!(r.random::<u64>(), 0);
    }
}
