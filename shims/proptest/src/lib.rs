//! Offline shim for the subset of the `proptest` API this workspace
//! uses. The container image has no crates.io access, so the workspace
//! vendors a miniature property-testing harness instead of the real
//! crate.
//!
//! Supported surface: the `proptest!` macro (with an optional
//! `#![proptest_config(..)]` header), `prop_assert!` /
//! `prop_assert_eq!` / `prop_assert_ne!`, `prop_oneof!` (weighted),
//! `any::<T>()`, integer-range strategies, tuple strategies,
//! `Strategy::prop_map`, `Just`, and `prop::collection::vec`.
//!
//! Differences from the real crate, on purpose:
//!
//! * **Deterministic.** Case seeds derive from the test name, so every
//!   run explores the same inputs — a failure in CI reproduces locally
//!   with no `.proptest-regressions` machinery (existing regression
//!   files are kept as documentation but not replayed).
//! * **No shrinking.** A failing case reports its exact inputs
//!   instead; schedules here are short enough to read directly.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{OneLess, RngExt, UniformSampled};

    /// A generator of values of type `Value`.
    ///
    /// Unlike the real crate there is no value tree: `generate` draws a
    /// concrete value directly from the deterministic case RNG.
    pub trait Strategy {
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl<T: UniformSampled + OneLess + Copy> Strategy for core::ops::Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.random_range(self.start..self.end)
        }
    }

    impl<T: UniformSampled + OneLess + Copy> Strategy for core::ops::RangeInclusive<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.random_range(*self.start()..=*self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident / $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

    /// Weighted choice between boxed strategies (built by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    }

    impl<T> Union<T> {
        /// `options` pairs a relative weight with each branch.
        pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one branch");
            assert!(
                options.iter().any(|(w, _)| *w > 0),
                "prop_oneof! needs a positive weight"
            );
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            let total: u64 = self.options.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.random_range(0..total);
            for (w, s) in &self.options {
                let w = u64::from(*w);
                if pick < w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weight walk exhausted")
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::{RngExt, StandardUniform};
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut StdRng) -> Self;
    }

    impl<T: StandardUniform> Arbitrary for T {
        fn arbitrary_value(rng: &mut StdRng) -> T {
            rng.random()
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T`: uniform over its whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Inclusive length bounds for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_incl: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max_incl: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_incl: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_incl: n,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a
    /// [`SizeRange`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy: length in `size`, elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.min..=self.size.max_incl);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Runner configuration. Only `cases` is meaningful in the shim;
    /// the other fields exist so `..ProptestConfig::default()` spreads
    /// keep compiling against the real crate's field set.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// A failed or rejected test case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// FNV-1a over the test name: a stable per-test seed namespace.
    fn name_seed(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Drive every case of one property test. `case` fills in a
    /// human-readable description of the generated inputs before
    /// running the body, so both assertion failures and panics can
    /// report what input broke.
    pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut StdRng, &mut String) -> Result<(), TestCaseError>,
    {
        let base = name_seed(name);
        for i in 0..config.cases {
            let mut rng =
                StdRng::seed_from_u64(base ^ (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let mut desc = String::new();
            match catch_unwind(AssertUnwindSafe(|| case(&mut rng, &mut desc))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => panic!(
                    "property `{name}` failed at case {i}/{}:\n  {e}\n  inputs: {desc}",
                    config.cases
                ),
                Err(payload) => {
                    eprintln!(
                        "property `{name}` panicked at case {i}/{} with inputs: {desc}",
                        config.cases
                    );
                    resume_unwind(payload);
                }
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of the real crate's `prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests. Accepts an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn name(arg
/// in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(
                &($cfg),
                stringify!($name),
                |rng, desc| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), rng);)+
                    *desc = {
                        let mut parts: ::std::vec::Vec<::std::string::String> =
                            ::std::vec::Vec::new();
                        $(parts.push(::std::format!(
                            "{} = {:?}", stringify!($arg), &$arg
                        ));)+
                        parts.join(", ")
                    };
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure reports the generated
/// inputs instead of unwinding blindly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, ::std::format!($($fmt)*)
        );
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: both sides equal `{:?}`", l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: both sides equal `{:?}`: {}", l, ::std::format!($($fmt)*)
        );
    }};
}

/// Weighted choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, ::std::boxed::Box::new($strat) as _)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Push(u8),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<u8>().prop_map(Op::Push),
            1 => Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_vecs_are_in_bounds(
            x in 3u32..10,
            y in 1u64..=5,
            ops in prop::collection::vec(op_strategy(), 1..20),
            pair in (0u8..4, any::<bool>()),
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=5).contains(&y));
            prop_assert!(!ops.is_empty() && ops.len() < 20);
            prop_assert!(pair.0 < 4, "pair {:?} out of range", pair);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }

    #[test]
    fn generation_is_deterministic_per_test_name() {
        use crate::strategy::Strategy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = crate::collection::vec(0u32..100, 5..10);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "inputs:")]
    fn failing_property_reports_inputs() {
        // No `#[test]` attribute here: the fn is expanded inside this
        // test's body and invoked directly.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
            fn always_fails(v in 0u32..4) {
                prop_assert!(v > 100, "v was {}", v);
            }
        }
        always_fails();
    }
}
