//! # proptest (in-tree shim)
//!
//! A dependency-free stand-in for the `proptest` crate, implementing exactly
//! the API surface this workspace's property tests use. The build
//! environment has no access to a crate registry, so the real proptest
//! cannot be fetched; this shim keeps the property-test suites source- and
//! semantics-compatible:
//!
//! * [`Strategy`] with `prop_map`, integer/float range strategies, tuples,
//!   [`Just`], [`any`], `prop::collection::vec`, `prop::option::of`,
//!   `prop_oneof!`, and pattern-string strategies (`"[ -~]{0,80}"`).
//! * The [`proptest!`] macro with `#![proptest_config(...)]`, and the
//!   `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports the generated inputs and a
//!   case seed instead of a minimized example.
//! * **Deterministic by default.** Cases derive from a hash of the test's
//!   module path, so every run explores the same inputs (CI-reproducible).
//!   Set `PROPTEST_CASES` to change the case count without editing code.
//! * Pattern strings support character classes (with ranges, `&&[^…]`
//!   subtraction) and `{m,n}` repetition — the subset our tests use — not
//!   full regex.

pub mod pattern;
pub mod strategy;

pub use strategy::{
    any, boxed, Any, Arbitrary, BoxedStrategy, Just, Map, OptionStrategy, SizeRange, Strategy,
    Union, VecStrategy,
};

/// Strategy factories namespaced like the real crate (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy::new(element, size.into())
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use crate::strategy::{OptionStrategy, Strategy};

    /// A strategy producing `None` about a quarter of the time and
    /// `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy::new(inner)
    }
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Per-test configuration; set with `#![proptest_config(...)]` inside
/// [`proptest!`].
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A property-level failure raised by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The shim's seeded generator (SplitMix64 stream): deterministic per test
/// and case, independent across cases.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for the given case seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)` (multiply-shift; `bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Drives the cases of one property; used by the [`proptest!`] expansion.
pub struct TestRunner {
    cases: u32,
    name_hash: u64,
    case_index: u32,
    case_seed: u64,
}

impl TestRunner {
    /// A runner for the property named `name` (its module path).
    pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(config.cases);
        // FNV-1a over the test name. Deliberately not `simcore::hash`: this
        // shim stands in for the published crate and depends on nothing.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner {
            cases,
            name_hash: h,
            case_index: 0,
            case_seed: 0,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The generator for the next case.
    pub fn next_case(&mut self) -> TestRng {
        let mut s = self.name_hash ^ ((self.case_index as u64) << 32 | 0x5EED);
        let mut rng = TestRng::new(0);
        rng.state = s;
        // Burn one step so consecutive case seeds decorrelate.
        let _ = rng.next_u64();
        s = rng.state;
        self.case_seed = s;
        self.case_index += 1;
        TestRng::new(s)
    }

    /// Seed of the case most recently produced by [`Self::next_case`].
    pub fn case_seed(&self) -> u64 {
        self.case_seed
    }

    /// 1-based index of the current case.
    pub fn case_index(&self) -> u32 {
        self.case_index
    }
}

/// Render generated inputs for a failure report.
pub fn format_inputs(inputs: &[(&str, String)]) -> String {
    inputs
        .iter()
        .map(|(name, value)| format!("    {name} = {value}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Define property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)
     $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(
                    config,
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for _ in 0..runner.cases() {
                    let mut case_rng = runner.next_case();
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut case_rng);)+
                    let inputs = $crate::format_inputs(&[
                        $((stringify!($arg), format!("{:?}", $arg))),+
                    ]);
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            || -> ::std::result::Result<(), $crate::TestCaseError> {
                                $body
                                ::std::result::Result::Ok(())
                            },
                        ),
                    );
                    match outcome {
                        ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                        ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                            panic!(
                                "property failed at case {} (seed {:#018x}):\n{}\ninputs:\n{}",
                                runner.case_index(),
                                runner.case_seed(),
                                e,
                                inputs,
                            );
                        }
                        ::std::result::Result::Err(payload) => {
                            eprintln!(
                                "property panicked at case {} (seed {:#018x}); inputs:\n{}",
                                runner.case_index(),
                                runner.case_seed(),
                                inputs,
                            );
                            ::std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a property, failing the case (not panicking)
/// so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right,
            )));
        }
    }};
}

/// Assert inequality inside a property; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+),
                left,
            )));
        }
    }};
}

/// Choose uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::new(7);
        let mut b = crate::TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn runner_reads_env_override() {
        // No env set in tests: falls back to the config value.
        let r = crate::TestRunner::new(ProptestConfig::with_cases(7), "x");
        assert!(r.cases() == 7 || std::env::var("PROPTEST_CASES").is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0u8..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in ((0u16..4), (10u64..20)).prop_map(|(a, b)| (b, a)),
            opt in prop::option::of(1u32..3),
        ) {
            prop_assert!((10..20).contains(&pair.0));
            prop_assert!(pair.1 < 4);
            if let Some(x) = opt {
                prop_assert!((1..3).contains(&x));
            }
        }

        #[test]
        fn oneof_picks_each_arm(choice in prop_oneof![Just(1u8), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&choice));
        }

        #[test]
        fn pattern_strings_match_their_class(s in "[a-c]{2,4}") {
            prop_assert!((2..=4).contains(&s.len()), "len {}", s.len());
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    // Failure paths: prop_assert must abort the case via Err, not panic
    // directly, and the harness must convert that into a panic. The inner
    // `#[test]` lives inside this fn body so the harness never collects it
    // as a (failing) test of its own — hence the allow.
    #[test]
    #[allow(unnameable_test_items)]
    fn failing_property_panics_with_case_info() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[test]
                fn always_fails(x in 0u8..4) { prop_assert!(x > 200, "x was {}", x); }
            }
            always_fails();
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("property failed"), "got: {msg}");
        assert!(msg.contains("inputs"), "got: {msg}");
    }
}
