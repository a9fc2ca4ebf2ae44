//! The `proptest!`-compatible macro layer: property definitions,
//! in-property assertions, and `prop_oneof!` unions.

/// Defines property tests. Drop-in for the `proptest!` subset this
/// workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in any::<u32>(), b in 0u32..100) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
///
/// Each property becomes a normal `#[test]` that draws `cases` inputs,
/// panics on the first failure after greedy shrinking, and prints a
/// `TESTKIT_SEED` value that replays the failing input.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__testkit_properties! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__testkit_properties! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion target of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __testkit_properties {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __strategy = ( $($strat,)+ );
                $crate::runner::run_property(
                    &__cfg,
                    concat!(module_path!(), "::", stringify!($name)),
                    &__strategy,
                    |( $($arg,)+ )| $body,
                );
            }
        )*
    };
}

/// Asserts a condition inside a property; on failure the runner
/// shrinks the input and reports it.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            panic!("prop_assert!({}) failed", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!($($fmt)+);
        }
    };
}

/// Asserts equality inside a property (shrinking counterpart of
/// `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    panic!(
                        "prop_assert_eq! failed: `{}` != `{}`\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), l, r
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    panic!(
                        "prop_assert_eq! failed: {}\n  left: {:?}\n right: {:?}",
                        format_args!($($fmt)+), l, r
                    );
                }
            }
        }
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    panic!(
                        "prop_assert_ne! failed: `{}` == `{}`\n  both: {:?}",
                        stringify!($left), stringify!($right), l
                    );
                }
            }
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn macro_single_arg(v in 0u32..100) {
            prop_assert!(v < 100);
        }

        #[test]
        fn macro_multiple_args(a in any::<u8>(), b in 1u16..=5, flag in any::<bool>()) {
            prop_assert!(u16::from(a) <= 255);
            prop_assert!((1..=5).contains(&b));
            prop_assert!(u8::from(flag) <= 1);
        }

        /// Doc comments on properties must be accepted.
        #[test]
        fn macro_oneof_and_map(v in prop_oneof![Just(1u32), Just(5u32), 10u32..20]) {
            prop_assert!(v == 1 || v == 5 || (10..20).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn macro_config_applies(_v in any::<u64>()) {
            // Cases counted via the deterministic stream: just verify
            // the block compiles and runs with an explicit config.
            prop_assert!(true);
        }
    }
}
