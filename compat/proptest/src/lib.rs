//! Offline stand-in for `proptest` (the subset this workspace uses).
//!
//! Supports the `proptest! { #[test] fn name(x in strategy, ..) { .. } }`
//! macro with range strategies over ints and floats, tuples of strategies,
//! `prop::collection::vec(elem, len_range)`, simple `".{lo,hi}"` string
//! patterns, and `prop_assert!`/`prop_assert_eq!`. Each property runs a
//! fixed number of deterministic cases (seeded from the test name) instead
//! of upstream's adaptive shrinking runner — no shrinking, but failures
//! reproduce exactly on re-run. As upstream, the `PROPTEST_CASES`
//! environment variable overrides the case count.

#![forbid(unsafe_code)]

/// Number of deterministic cases each property runs unless
/// `PROPTEST_CASES` says otherwise.
pub const NUM_CASES: usize = 64;

/// Strategies: how to generate a value of some type.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values for one property-test parameter.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(f32, f64, i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (self.0.generate(rng), self.1.generate(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (
                self.0.generate(rng),
                self.1.generate(rng),
                self.2.generate(rng),
            )
        }
    }

    /// String pattern strategy. Upstream interprets the pattern as a regex;
    /// this stub understands the `".{lo,hi}"` form the workspace uses
    /// (arbitrary text of bounded length) and falls back to `0..=64` chars
    /// for anything else.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut StdRng) -> String {
            let (lo, hi) = parse_dot_repetition(self).unwrap_or((0, 64));
            let len = rng.gen_range(lo..=hi);
            // Mostly printable ASCII with spaces; occasional non-ASCII to
            // keep tokenizers honest.
            (0..len)
                .map(|_| {
                    if rng.gen_bool(0.12) {
                        ' '
                    } else if rng.gen_bool(0.03) {
                        'é'
                    } else {
                        char::from(rng.gen_range(0x21u8..0x7F))
                    }
                })
                .collect()
        }
    }

    fn parse_dot_repetition(pattern: &str) -> Option<(usize, usize)> {
        let inner = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = inner.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    /// Strategy for vectors of another strategy (see [`crate::collection::vec`]).
    pub struct VecStrategy<S> {
        pub(crate) elem: S,
        pub(crate) len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.len.clone());
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// Vectors of `elem` with length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

/// The `prop::` alias namespace used inside `proptest!` bodies.
pub mod prop {
    pub use crate::collection;
}

/// Deterministic per-test RNG construction.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Seed an RNG from the test name (FNV-1a) so every property is
    /// deterministic and independent of execution order.
    pub fn deterministic_rng(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }

    /// Cases each property runs: `PROPTEST_CASES` when it is set to a
    /// number, else [`crate::NUM_CASES`].
    pub fn num_cases() -> usize {
        cases_from(std::env::var("PROPTEST_CASES").ok().as_deref())
    }

    pub(crate) fn cases_from(var: Option<&str>) -> usize {
        var.and_then(|v| v.trim().parse().ok())
            .unwrap_or(crate::NUM_CASES)
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running [`test_runner::num_cases`] deterministic
/// cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::deterministic_rng(stringify!($name));
                let cases = $crate::test_runner::num_cases();
                for case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let trace = format!(
                        "proptest case {case}/{cases}: {}",
                        stringify!($($arg = $strat),+)
                    );
                    let _ = &trace;
                    $body
                }
            }
        )+
    };
}

/// `assert!` under a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0.0..=300.0f64, n in 1i32..50) {
            prop_assert!((0.0..=300.0).contains(&x));
            prop_assert!((1..50).contains(&n));
        }

        #[test]
        fn vec_strategy_sizes(xs in prop::collection::vec(-1e3..1e3f64, 2..40)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 40);
            prop_assert!(xs.iter().all(|x| (-1e3..1e3).contains(x)));
        }

        #[test]
        fn tuple_vec_strategy(xy in prop::collection::vec((-1.0..1.0f64, 0.0..2.0f64), 2..10)) {
            for (x, y) in &xy {
                prop_assert!((-1.0..1.0).contains(x));
                prop_assert!((0.0..2.0).contains(y));
            }
        }

        #[test]
        fn string_pattern_lengths(text in ".{0,400}") {
            prop_assert!(text.chars().count() <= 400);
        }
    }

    #[test]
    fn case_count_reads_the_variable_or_defaults() {
        use crate::test_runner::cases_from;
        assert_eq!(cases_from(None), crate::NUM_CASES);
        assert_eq!(cases_from(Some("4096")), 4096);
        assert_eq!(cases_from(Some("lots")), crate::NUM_CASES);
    }

    #[test]
    fn deterministic_between_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::deterministic_rng("seed-name");
        let mut b = crate::test_runner::deterministic_rng("seed-name");
        let s = 0.0..1.0f64;
        for _ in 0..10 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
