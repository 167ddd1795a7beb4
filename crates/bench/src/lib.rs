//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's evaluation
//! (the README's "Running things" lists them; ROADMAP item 8 tracks the claims). The helpers
//! here keep the binaries small: fixed-width table printing, paper-vs-measured rows, a
//! `/proc`-based memory probe for the Figure 6 reproduction, simple CLI parsing, and
//! reduced-scale dataset variants for the MCMC-heavy experiments.

pub mod memory;
pub mod report;
pub mod smallsets;

/// Minimal command-line options shared by the experiment binaries.
///
/// Recognised flags: `--steps N`, `--scale small|full`, `--epsilon X`, `--seed N`,
/// `--threads N`, `--epinions`. Unknown arguments are ignored so binaries stay forgiving.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Number of MCMC steps (binaries pick their own defaults).
    pub steps: Option<u64>,
    /// Use the full-scale dataset stand-ins instead of the reduced MCMC-friendly ones.
    pub full_scale: bool,
    /// Override the per-measurement ε.
    pub epsilon: Option<f64>,
    /// RNG seed for the run.
    pub seed: u64,
    /// Worker-thread count for batch plan evaluation (`--threads N`). `None` leaves the
    /// `WPINQ_THREADS` environment variable in charge; binaries pass
    /// [`threads_or_env`](Self::threads_or_env) into `SynthesisConfig::threads`.
    pub threads: Option<usize>,
    /// Run the optional Epinions panel (Figure 6, right).
    pub epinions: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            steps: None,
            full_scale: false,
            epsilon: None,
            seed: 42,
            threads: None,
            epinions: false,
        }
    }
}

impl HarnessArgs {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--steps" => {
                    if let Some(v) = iter.next() {
                        parsed.steps = v.parse().ok();
                    }
                }
                "--scale" => {
                    if let Some(v) = iter.next() {
                        parsed.full_scale = v == "full";
                    }
                }
                "--epsilon" => {
                    if let Some(v) = iter.next() {
                        parsed.epsilon = v.parse().ok();
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next() {
                        parsed.seed = v.parse().unwrap_or(42);
                    }
                }
                "--threads" => {
                    if let Some(v) = iter.next() {
                        parsed.threads = v.parse().ok();
                    }
                }
                "--epinions" => parsed.epinions = true,
                _ => {}
            }
        }
        parsed
    }

    /// The number of MCMC steps to run, with a binary-specific default.
    pub fn steps_or(&self, default: u64) -> u64 {
        self.steps.unwrap_or(default)
    }

    /// The ε to use, with a binary-specific default.
    pub fn epsilon_or(&self, default: f64) -> f64 {
        self.epsilon.unwrap_or(default)
    }

    /// The `SynthesisConfig::threads` value for this invocation: the explicit `--threads`
    /// flag, or `0` (= defer to the `WPINQ_THREADS` environment variable).
    pub fn threads_or_env(&self) -> usize {
        self.threads.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_flags_and_ignores_unknown_ones() {
        let args = HarnessArgs::parse(
            [
                "--steps",
                "5000",
                "--scale",
                "full",
                "--epsilon",
                "0.5",
                "--bogus",
                "--threads",
                "4",
                "--epinions",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.steps, Some(5000));
        assert!(args.full_scale);
        assert_eq!(args.epsilon, Some(0.5));
        assert_eq!(args.threads, Some(4));
        assert!(args.epinions);
        assert_eq!(args.seed, 42);
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let args = HarnessArgs::parse(Vec::<String>::new());
        assert_eq!(args.steps_or(123), 123);
        assert!((args.epsilon_or(0.1) - 0.1).abs() < 1e-12);
        assert!(!args.full_scale);
    }
}
