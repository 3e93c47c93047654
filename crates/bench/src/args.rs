//! Typed command-line parsing for the experiment binaries.
//!
//! The original binaries parsed flags with `parse().ok()` — a typo like
//! `--jobs ten` silently fell back to the default, and an impossible combination
//! like `--rate` without an open-loop mode was silently ignored.  Service-facing
//! binaries (`serve_traffic`, `fig_cluster`) type their value flags, every
//! binary that takes `--json` reads it through [`raw_value`], and a binary that lists
//! the flags it takes ([`known_flags`]) refuses any other; a problem is a
//! typed [`UsageError`] that `main` hands to [`or_exit`], which prints it and
//! exits with status 2, never panicking on user input.

use std::fmt;

/// A command-line problem the user can fix, with enough context to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A flag's value failed to parse (`--jobs ten`).
    InvalidValue {
        /// The flag as typed.
        flag: String,
        /// The offending value.
        value: String,
        /// What would have parsed (`"a positive integer"`).
        expected: &'static str,
    },
    /// A flag that takes a value appeared last (`serve_traffic --jobs`).
    MissingValue {
        /// The flag as typed.
        flag: String,
    },
    /// A flag's value is outside its enumerated set (`--arrivals sometimes`).
    UnknownValue {
        /// The flag as typed.
        flag: String,
        /// The offending value.
        value: String,
        /// The accepted values, for the message.
        allowed: &'static str,
    },
    /// A flag only means something in combination with another that is absent
    /// (`--rate` without `--arrivals`).
    ConflictingFlags {
        /// The flag as typed.
        flag: String,
        /// What it needs.
        requires: &'static str,
    },
    /// An argument the binary does not take (`--bogus`, or `--smok` for `--smoke`).
    UnknownFlag {
        /// The argument as typed.
        flag: String,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} {value:?}: expected {expected}"),
            UsageError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            UsageError::UnknownValue {
                flag,
                value,
                allowed,
            } => write!(f, "{flag} {value:?}: must be one of {allowed}"),
            UsageError::ConflictingFlags { flag, requires } => {
                write!(f, "{flag} only makes sense with {requires}")
            }
            UsageError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
        }
    }
}

impl std::error::Error for UsageError {}

/// The parsed value, or — on a usage error — the error printed as `bin: error`
/// and exit status 2, before the binary does any work.
pub fn or_exit<T>(bin: &str, parsed: Result<T, UsageError>) -> T {
    parsed.unwrap_or_else(|usage| {
        eprintln!("{bin}: {usage}");
        std::process::exit(2)
    })
}

/// The raw string value of `flag`, or a typed error when the flag is present but
/// dangling.  `Ok(None)` means the flag was not given.
pub fn raw_value(args: &[String], flag: &str) -> Result<Option<String>, UsageError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(UsageError::MissingValue {
                flag: flag.to_string(),
            }),
        },
    }
}

/// Rejects any argument that is neither one of `switches` nor one of `value_flags`
/// with its value, so a typo cannot quietly run the default mode.  A value flag
/// followed by another flag keeps that flag to be checked; [`raw_value`] reports the
/// missing value.
pub fn known_flags(
    args: &[String],
    switches: &[&str],
    value_flags: &[&str],
) -> Result<(), UsageError> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg.as_str()) {
            rest.next_if(|value| !value.starts_with("--"));
        } else if !switches.contains(&arg.as_str()) {
            return Err(UsageError::UnknownFlag { flag: arg.clone() });
        }
    }
    Ok(())
}

/// Parses `--flag N` as a `u64`, with a typed error instead of a silent default.
pub fn parse_u64(args: &[String], flag: &str) -> Result<Option<u64>, UsageError> {
    match raw_value(args, flag)? {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| UsageError::InvalidValue {
            flag: flag.to_string(),
            value: v,
            expected: "a non-negative integer",
        }),
    }
}

/// Parses `--flag N` as a `usize` that must be at least 1.
pub fn parse_positive_usize(args: &[String], flag: &str) -> Result<Option<usize>, UsageError> {
    match parse_u64(args, flag)? {
        None => Ok(None),
        Some(0) => Err(UsageError::InvalidValue {
            flag: flag.to_string(),
            value: "0".to_string(),
            expected: "a positive integer",
        }),
        Some(v) => Ok(Some(v as usize)),
    }
}

/// Parses `--flag X` as a finite, strictly positive `f64`.
pub fn parse_positive_f64(args: &[String], flag: &str) -> Result<Option<f64>, UsageError> {
    match raw_value(args, flag)? {
        None => Ok(None),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
            _ => Err(UsageError::InvalidValue {
                flag: flag.to_string(),
                value: v,
                expected: "a positive number",
            }),
        },
    }
}

/// Parses `--flag X` as a finite, non-negative `f64` (0 allowed — e.g. a skew).
pub fn parse_nonneg_f64(args: &[String], flag: &str) -> Result<Option<f64>, UsageError> {
    match raw_value(args, flag)? {
        None => Ok(None),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(Some(x)),
            _ => Err(UsageError::InvalidValue {
                flag: flag.to_string(),
                value: v,
                expected: "a non-negative number",
            }),
        },
    }
}

/// Errors when `flag` is present but `requirement_met` is false — for flags that
/// only mean something in combination with another (`--rate` without
/// `--arrivals`).
pub fn require_with(
    args: &[String],
    flag: &str,
    requirement_met: bool,
    requires: &'static str,
) -> Result<(), UsageError> {
    if !requirement_met && args.iter().any(|a| a == flag) {
        return Err(UsageError::ConflictingFlags {
            flag: flag.to_string(),
            requires,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_parse_to_none() {
        let a = args(&["--jobs", "10"]);
        assert_eq!(parse_u64(&a, "--workers"), Ok(None));
        assert_eq!(parse_positive_f64(&a, "--rate"), Ok(None));
    }

    #[test]
    fn present_flags_parse_their_values() {
        let a = args(&["--jobs", "240", "--rate", "12.5", "--skew", "0"]);
        assert_eq!(parse_u64(&a, "--jobs"), Ok(Some(240)));
        assert_eq!(parse_positive_f64(&a, "--rate"), Ok(Some(12.5)));
        assert_eq!(parse_nonneg_f64(&a, "--skew"), Ok(Some(0.0)));
    }

    #[test]
    fn garbage_values_are_typed_errors_not_silent_defaults() {
        let a = args(&["--jobs", "ten"]);
        assert_eq!(
            parse_u64(&a, "--jobs"),
            Err(UsageError::InvalidValue {
                flag: "--jobs".to_string(),
                value: "ten".to_string(),
                expected: "a non-negative integer",
            })
        );
    }

    #[test]
    fn dangling_flags_are_missing_value_errors() {
        for tail in [args(&["--jobs"]), args(&["--jobs", "--quick"])] {
            assert_eq!(
                parse_u64(&tail, "--jobs"),
                Err(UsageError::MissingValue {
                    flag: "--jobs".to_string()
                })
            );
        }
    }

    #[test]
    fn zero_is_rejected_where_a_positive_count_is_required() {
        let a = args(&["--nodes", "0"]);
        assert!(matches!(
            parse_positive_usize(&a, "--nodes"),
            Err(UsageError::InvalidValue { .. })
        ));
    }

    #[test]
    fn nonpositive_and_nonfinite_rates_are_rejected() {
        for bad in ["0", "-3", "inf", "nan", "fast"] {
            let a = args(&["--rate", bad]);
            assert!(
                matches!(
                    parse_positive_f64(&a, "--rate"),
                    Err(UsageError::InvalidValue { .. })
                ),
                "--rate {bad} must be rejected"
            );
        }
    }

    #[test]
    fn dependent_flags_error_when_their_anchor_is_absent() {
        let a = args(&["--rate", "50"]);
        let err = require_with(&a, "--rate", false, "--arrivals").unwrap_err();
        assert_eq!(
            err,
            UsageError::ConflictingFlags {
                flag: "--rate".to_string(),
                requires: "--arrivals",
            }
        );
        assert!(require_with(&a, "--rate", true, "--arrivals").is_ok());
        assert!(require_with(&a, "--skew", false, "--arrivals").is_ok());
    }

    #[test]
    fn only_the_listed_flags_and_their_values_pass() {
        let known = |list: &[&str]| known_flags(&args(list), &["--smoke"], &["--json"]);
        assert_eq!(known(&[]), Ok(()));
        assert_eq!(known(&["--smoke", "--json", "out.json"]), Ok(()));
        // A dangling value flag is raw_value's error, not this one.
        assert_eq!(known(&["--json", "--smoke"]), Ok(()));
        for (list, flag) in [
            (&["--smok"][..], "--smok"),
            (&["--smoke", "extra"], "extra"),
            (&["--json", "--bogus"], "--bogus"),
        ] {
            let unknown = UsageError::UnknownFlag {
                flag: flag.to_string(),
            };
            assert_eq!(known(list), Err(unknown), "{list:?}");
        }
        let message = known(&["--bogus"]).unwrap_err().to_string();
        assert_eq!(message, "unknown flag --bogus");
    }

    #[test]
    fn errors_render_actionable_messages() {
        let message = UsageError::UnknownValue {
            flag: "--arrivals".to_string(),
            value: "sometimes".to_string(),
            allowed: "poisson, bursty",
        }
        .to_string();
        assert!(message.contains("--arrivals"));
        assert!(message.contains("poisson"));
    }
}
