#![allow(clippy::all)]
//! Minimal, dependency-free stand-in for the `proptest` crate covering
//! the subset this workspace uses: the `proptest!` macro, composable
//! strategies (`prop_map`, `prop_flat_map`, ranges, tuples,
//! `collection::vec`, `any`), `prop_assert*` / `prop_assume!`, and
//! `ProptestConfig::with_cases`.
//!
//! Vendored so the workspace builds fully offline. Differences from
//! upstream: cases are generated from a fixed deterministic seed unless
//! `PROPTEST_RNG_SEED` names another (a failing case prints the seed it
//! ran under), and there is **no shrinking** — a failing case reports its
//! generated inputs as-is.

#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

/// Everything a test normally imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]`-able function that runs the body over generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($s,)+);
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner
                .run(&strategy, |($($p,)+)| {
                    $body
                    Ok(())
                })
                .unwrap();
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{}: {:?} != {:?}", format!($($fmt)*), a, b);
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: both sides are {:?}", a);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{}: both sides are {:?}", format!($($fmt)*), a);
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(stringify!($cond)));
        }
    };
}
