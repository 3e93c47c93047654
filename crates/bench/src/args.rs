//! One command line for every experiment binary.
//!
//! Each binary makes one call, [`Args::from_env`], naming the switches and the value
//! flags it takes.  That call refuses any other argument (`--quik`, `--bogus`) and
//! any value flag left without its value (`--json` last, or `--out --quick`), so a
//! typo never runs the default mode and a path flag never swallows the next flag.
//! A problem is a typed [`UsageError`], printed as `bin: error` with exit status 2
//! before the binary does any work, never a panic on user input.  Once the call
//! returns, [`Args::switch`] and [`Args::value`] cannot fail; the typed getters
//! ([`Args::u64`], [`Args::positive_f64`], ...) and [`Args::require_with`] check a
//! value's type and a flag's company, and hand their errors to [`Args::or_exit`].

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

/// A command line checked against the flags its binary declared.
#[derive(Debug, PartialEq)]
pub struct Args {
    bin: &'static str,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses this process's arguments, or prints the usage error and exits with
    /// status 2.
    pub fn from_env(
        bin: &'static str,
        switches: &[&'static str],
        value_flags: &[&'static str],
    ) -> Args {
        let parsed = Args::parse(bin, std::env::args().skip(1), switches, value_flags);
        parsed.unwrap_or_else(|usage| exit(bin, usage))
    }

    /// Parses `argv` against the declared flags.  An argument that is neither one of
    /// `switches` nor one of `value_flags` with its value is [`UsageError::UnknownFlag`];
    /// a value flag followed by another flag, or by nothing, is
    /// [`UsageError::MissingValue`], reported only once no argument is unknown.  A
    /// value flag given twice keeps its first value.
    pub fn parse(
        bin: &'static str,
        argv: impl IntoIterator<Item = String>,
        switches: &[&'static str],
        value_flags: &[&'static str],
    ) -> Result<Args, UsageError> {
        let mut args = Args {
            bin,
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut dangling = None;
        let mut rest = argv.into_iter().peekable();
        while let Some(arg) = rest.next() {
            if let Some(&flag) = value_flags.iter().find(|&&f| f == arg) {
                match rest.next_if(|value| !value.starts_with("--")) {
                    Some(value) => args.values.push((flag, value)),
                    None => dangling = dangling.or(Some(flag)),
                }
            } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
                args.switches.push(flag);
            } else {
                return Err(UsageError::UnknownFlag { flag: arg });
            }
        }
        match dangling {
            Some(flag) => Err(UsageError::MissingValue {
                flag: flag.to_string(),
            }),
            None => Ok(args),
        }
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag`, or `None` when it was not given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The parsed value, or — on a usage error — the error printed as `bin: error`
    /// and exit status 2, before the binary does any work.
    pub fn or_exit<T>(&self, parsed: Result<T, UsageError>) -> T {
        parsed.unwrap_or_else(|usage| exit(self.bin, usage))
    }

    /// The value of `flag` parsed as a `T` that passes `accept`, with a typed error
    /// naming `expected` instead of a silent default.
    fn typed<T: std::str::FromStr>(
        &self,
        flag: &str,
        expected: &'static str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, UsageError> {
        let Some(value) = self.value(flag) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(x) if accept(&x) => Ok(Some(x)),
            _ => Err(UsageError::InvalidValue {
                flag: flag.to_string(),
                value: value.to_string(),
                expected,
            }),
        }
    }

    /// `--flag N` as a `u64`.
    pub fn u64(&self, flag: &str) -> Result<Option<u64>, UsageError> {
        self.typed(flag, "a non-negative integer", |_| true)
    }

    /// `--flag N` as a `usize` that must be at least 1.
    pub fn positive_usize(&self, flag: &str) -> Result<Option<usize>, UsageError> {
        self.typed(flag, "a positive integer", |&n| n > 0)
    }

    /// `--flag X` as a finite, strictly positive `f64`.
    pub fn positive_f64(&self, flag: &str) -> Result<Option<f64>, UsageError> {
        self.typed(flag, "a positive number", |x: &f64| {
            x.is_finite() && *x > 0.0
        })
    }

    /// `--flag X` as a finite, non-negative `f64` (0 allowed — e.g. a skew).
    pub fn nonneg_f64(&self, flag: &str) -> Result<Option<f64>, UsageError> {
        self.typed(flag, "a non-negative number", |x: &f64| {
            x.is_finite() && *x >= 0.0
        })
    }

    /// Errors when `flag` was given but `requirement_met` is false — for flags that
    /// only mean something in combination with another (`--rate` without
    /// `--arrivals`).
    pub fn require_with(
        &self,
        flag: &str,
        requirement_met: bool,
        requires: &'static str,
    ) -> Result<(), UsageError> {
        if !requirement_met && self.value(flag).is_some() {
            return Err(UsageError::ConflictingFlags {
                flag: flag.to_string(),
                requires,
            });
        }
        Ok(())
    }
}

fn exit(bin: &str, usage: UsageError) -> ! {
    eprintln!("{bin}: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `list` as a binary taking two switches and the service's value flags.
    fn parse(list: &[&str]) -> Result<Args, UsageError> {
        let argv = list.iter().map(|s| s.to_string());
        let values = [
            "--jobs",
            "--workers",
            "--nodes",
            "--rate",
            "--skew",
            "--json",
        ];
        Args::parse("test", argv, &["--smoke", "--quick"], &values)
    }

    fn args(list: &[&str]) -> Args {
        parse(list).expect("a valid command line")
    }

    #[test]
    fn absent_flags_parse_to_none() {
        let a = args(&["--jobs", "10"]);
        assert_eq!(a.u64("--workers"), Ok(None));
        assert_eq!(a.positive_f64("--rate"), Ok(None));
        assert!(!a.switch("--quick"));
        assert_eq!(a.value("--json"), None);
    }

    #[test]
    fn present_flags_parse_their_values() {
        let a = args(&["--jobs", "240", "--quick", "--rate", "12.5", "--skew", "0"]);
        assert_eq!(a.u64("--jobs"), Ok(Some(240)));
        assert_eq!(a.positive_f64("--rate"), Ok(Some(12.5)));
        assert_eq!(a.nonneg_f64("--skew"), Ok(Some(0.0)));
        assert!(a.switch("--quick") && !a.switch("--smoke"));
        assert_eq!(
            args(&["--json", "a", "--json", "b"]).value("--json"),
            Some("a")
        );
    }

    #[test]
    fn garbage_values_are_typed_errors_not_silent_defaults() {
        let a = args(&["--jobs", "ten"]);
        assert_eq!(
            a.u64("--jobs"),
            Err(UsageError::InvalidValue {
                flag: "--jobs".to_string(),
                value: "ten".to_string(),
                expected: "a non-negative integer",
            })
        );
    }

    #[test]
    fn dangling_flags_are_missing_value_errors() {
        for tail in [
            &["--jobs"][..],
            &["--jobs", "--quick"],
            &["--quick", "--jobs"],
        ] {
            assert_eq!(
                parse(tail),
                Err(UsageError::MissingValue {
                    flag: "--jobs".to_string()
                }),
                "{tail:?}"
            );
        }
    }

    #[test]
    fn zero_is_rejected_where_a_positive_count_is_required() {
        let a = args(&["--nodes", "0"]);
        assert!(matches!(
            a.positive_usize("--nodes"),
            Err(UsageError::InvalidValue { .. })
        ));
    }

    #[test]
    fn nonpositive_and_nonfinite_rates_are_rejected() {
        for bad in ["0", "-3", "inf", "nan", "fast"] {
            let a = args(&["--rate", bad]);
            assert!(
                matches!(
                    a.positive_f64("--rate"),
                    Err(UsageError::InvalidValue { .. })
                ),
                "--rate {bad} must be rejected"
            );
        }
    }

    #[test]
    fn dependent_flags_error_when_their_anchor_is_absent() {
        let a = args(&["--rate", "50"]);
        let err = a.require_with("--rate", false, "--arrivals").unwrap_err();
        assert_eq!(
            err,
            UsageError::ConflictingFlags {
                flag: "--rate".to_string(),
                requires: "--arrivals",
            }
        );
        assert!(a.require_with("--rate", true, "--arrivals").is_ok());
        assert!(a.require_with("--skew", false, "--arrivals").is_ok());
    }

    #[test]
    fn only_the_listed_flags_and_their_values_pass() {
        assert!(parse(&[]).is_ok());
        let a = args(&["--smoke", "--json", "out.json"]);
        assert!(a.switch("--smoke"));
        assert_eq!(a.value("--json"), Some("out.json"));
        // A dangling value flag is refused, but only once nothing is unknown.
        let missing = UsageError::MissingValue {
            flag: "--json".to_string(),
        };
        assert_eq!(parse(&["--json", "--smoke"]), Err(missing));
        for (list, flag) in [
            (&["--smok"][..], "--smok"),
            (&["--smoke", "extra"], "extra"),
            (&["--json", "--bogus"], "--bogus"),
            (&["--quik"], "--quik"),
        ] {
            let unknown = UsageError::UnknownFlag {
                flag: flag.to_string(),
            };
            assert_eq!(parse(list), Err(unknown), "{list:?}");
        }
        let message = parse(&["--bogus"]).unwrap_err().to_string();
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
        let message = UsageError::MissingValue {
            flag: "--out".to_string(),
        };
        assert_eq!(message.to_string(), "--out requires a value");
    }
}
