//! Case generation and execution (no shrinking).

use crate::strategy::Strategy;

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case was rejected by `prop_assume!` (skipped, not failed).
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Builds a rejection.
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError::Reject(message.into())
    }
}

/// The deterministic generator driving strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next 64 uniformly distributed bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The seed runners start from when `PROPTEST_RNG_SEED` is unset: fixed,
/// so a plain `cargo test` generates the same cases every time.
pub const DEFAULT_SEED: u64 = 0x5D50_1997_C0FF_EE00;

/// The seed runners start from: `PROPTEST_RNG_SEED` (decimal, or hex with
/// a `0x` prefix) when set and non-empty, else [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics when the variable is set to something that is not a `u64`, so
/// a typo cannot silently fall back to the default cases.
pub fn configured_seed() -> u64 {
    match std::env::var("PROPTEST_RNG_SEED") {
        Ok(raw) if !raw.trim().is_empty() => parse_seed(raw.trim())
            .unwrap_or_else(|| panic!("PROPTEST_RNG_SEED={raw:?} is not a u64")),
        _ => DEFAULT_SEED,
    }
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Prints the run's seed if a test body panics (an `unwrap` inside a
/// property, say), so the failing case can be regenerated.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("proptest case panicked; rerun with PROPTEST_RNG_SEED={:#x}", self.0);
        }
    }
}

/// Runs one strategy over many generated cases.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    seed: u64,
    rng: TestRng,
}

impl TestRunner {
    /// Creates a runner starting from [`configured_seed`].
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner::with_seed(config, configured_seed())
    }

    /// Creates a runner starting from `seed`.
    pub fn with_seed(config: ProptestConfig, seed: u64) -> Self {
        TestRunner { config, seed, rng: TestRng::new(seed) }
    }

    /// Generates `config.cases` inputs and runs `test` on each. Returns
    /// the first failure, annotated with the generated input.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first failing case.
    pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), String>
    where
        S: Strategy,
        S::Value: std::fmt::Debug,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let _report = SeedOnPanic(self.seed);
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        while accepted < self.config.cases {
            // Bail out rather than spin when `prop_assume!` rejects nearly
            // everything the strategy can generate.
            if rejected > 16 * self.config.cases + 1024 {
                break;
            }
            let value = strategy.generate(&mut self.rng);
            let shown = format!("{value:?}");
            match test(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => rejected += 1,
                Err(TestCaseError::Fail(msg)) => {
                    return Err(format!(
                        "proptest case failed after {accepted} passing case(s) \
                         (rerun with PROPTEST_RNG_SEED={:#x}): {msg}; input = {shown}",
                        self.seed
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_is_deterministic() {
        let strategy = 0u64..1000;
        let collect = || {
            let mut out = Vec::new();
            TestRunner::new(ProptestConfig::with_cases(16))
                .run(&strategy, |v| {
                    out.push(v);
                    Ok(())
                })
                .unwrap();
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_reports_input() {
        let err = TestRunner::new(ProptestConfig::with_cases(64))
            .run(&(0u64..10), |v| if v >= 5 { Err(TestCaseError::fail("too big")) } else { Ok(()) })
            .unwrap_err();
        assert!(err.contains("too big"), "{err}");
        assert!(err.contains("input ="), "{err}");
    }

    #[test]
    fn failure_reports_the_seed_and_the_seed_replays_it() {
        let failing = |seed| {
            TestRunner::with_seed(ProptestConfig::with_cases(64), seed)
                .run(&(0u64..1000), |v| {
                    if v % 7 == 3 {
                        Err(TestCaseError::fail(format!("hit {v}")))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err()
        };
        let err = failing(0xABC);
        assert!(err.contains("PROPTEST_RNG_SEED=0xabc"), "{err}");
        assert_eq!(err, failing(parse_seed("2748").unwrap()), "same seed, same case");
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("2748"), Some(0xABC));
        assert_eq!(parse_seed("0xABC"), Some(0xABC));
        assert_eq!(parse_seed("0Xabc"), Some(0xABC));
        assert_eq!(parse_seed("20261017"), Some(20_261_017));
        assert_eq!(parse_seed("x12"), None);
        assert_eq!(parse_seed("-1"), None);
        assert_eq!(parse_seed("18446744073709551616"), None);
    }

    #[test]
    fn rejection_exhaustion_terminates() {
        TestRunner::new(ProptestConfig::with_cases(8))
            .run(&(0u64..10), |_| Err(TestCaseError::reject("never")))
            .unwrap();
    }
}
