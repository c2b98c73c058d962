//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment cannot reach crates.io, so the workspace ships
//! this re-implementation of the surface its property tests use: the
//! `proptest!` macro, range / tuple / `any` / `collection::vec` /
//! `prop_map` strategies, and the `prop_assert*` macros. Generation is
//! seeded deterministically per (test name, case index), so failures are
//! reproducible run to run. There is no shrinking: a failing case panics
//! with the case number and the classic advice applies — re-run and
//! debug at that seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; rejection is not implemented.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0, max_global_rejects: 1024 }
    }
}

/// Deterministic per-case random source.
pub struct TestRng {
    inner: SmallRng,
}

impl TestRng {
    /// Seeds from the test path and case index (FNV-1a over the name).
    pub fn for_case(test_path: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { inner: SmallRng::seed_from_u64(h ^ case.wrapping_mul(0x9e3779b97f4a7c15)) }
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.inner
    }
}

/// A value generator (subset of proptest's `Strategy`; no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.rng().gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.rng().gen::<f64>()
    }
}

macro_rules! signed_range_strategy {
    ($($ty:ty => $un:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end);
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.rng().gen_range(0u64..span);
                (self.start as i128 + off as i128) as $ty
            }
        }
    )*};
}

signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// Marker strategy produced by [`any`].
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// The full-range strategy for `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any { _marker: core::marker::PhantomData }
}

macro_rules! any_strategy {
    ($($ty:ty => |$rng:ident| $gen:expr),+ $(,)?) => {$(
        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn generate(&self, $rng: &mut TestRng) -> $ty {
                $gen
            }
        }
    )+};
}

any_strategy!(
    bool => |rng| rng.rng().gen::<bool>(),
    u8 => |rng| rng.rng().gen::<u64>() as u8,
    u16 => |rng| rng.rng().gen::<u64>() as u16,
    u32 => |rng| rng.rng().gen::<u32>(),
    u64 => |rng| rng.rng().gen::<u64>(),
    usize => |rng| rng.rng().gen::<u64>() as usize,
    i32 => |rng| rng.rng().gen::<u32>() as i32,
    i64 => |rng| rng.rng().gen::<u64>() as i64,
    f64 => |rng| rng.rng().gen::<f64>(),
);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Accepted length specifications for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    /// Strategy generating vectors of `elem` values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi_exclusive {
                self.size.lo
            } else {
                rng.rng().gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec(...)` works.
pub mod prop {
    pub use crate::collection;
}

/// The proptest prelude (subset).
pub mod prelude {
    pub use crate::{any, prop, Any, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!($($fmt)*);
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            panic!("prop_assert_eq failed: {:?} != {:?}", a, b);
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            panic!($($fmt)*);
        }
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            panic!("prop_assert_ne failed: both {:?}", a);
        }
    }};
}

/// The `proptest!` macro: declares `#[test]` functions whose arguments
/// are drawn from strategies, run for `cases` deterministic cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..cfg.cases as u64 {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let run = || $body;
                    run();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in 0.25f64..0.75, b in any::<bool>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
            let _ = b;
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec((0usize..10, 0usize..10), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for (a, b) in v {
                prop_assert!(a < 10 && b < 10);
            }
        }

        #[test]
        fn prop_map_applies(s in (0usize..5).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0 && s < 10);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = crate::collection::vec(0usize..1000, 5..20);
        let mut r1 = TestRng::for_case("t", 3);
        let mut r2 = TestRng::for_case("t", 3);
        assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
    }
}
