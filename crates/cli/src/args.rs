//! Minimal, dependency-free command-line parsing.
//!
//! The grammar is deliberately simple: a subcommand followed by
//! `--key value` pairs (plus a few boolean flags). Everything here is
//! pure so it can be unit-tested without process plumbing.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: subcommand plus options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// An optional second positional operand (e.g. `calibrate learn`).
    pub op: Option<String>,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
}

/// Errors from argument parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was supplied.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// A required option is absent.
    Required(String),
    /// A value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
        /// Expected format.
        expected: &'static str,
    },
    /// An argument did not follow the `--key` convention.
    Unexpected(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand (try 'nhpp help')"),
            ArgError::MissingValue(key) => write!(f, "option --{key} needs a value"),
            ArgError::Required(key) => write!(f, "required option --{key} is missing"),
            ArgError::Invalid {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value}: expected {expected}")
            }
            ArgError::Unexpected(arg) => write!(f, "unexpected argument '{arg}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Boolean switches recognised by any subcommand.
const FLAGS: &[&str] = &[
    "grouped",
    "quiet",
    "strict",
    "fallback",
    "smoke",
    "calibrated",
    "monitor",
];

impl ParsedArgs {
    /// Parses `args` (excluding the program name).
    ///
    /// # Errors
    ///
    /// [`ArgError`] on malformed input; see the variants.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut op = None;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                // At most one bare operand after the command, e.g.
                // `calibrate learn`; a second is a genuine mistake.
                if op.is_none() {
                    op = Some(arg);
                    continue;
                }
                return Err(ArgError::Unexpected(arg.clone()));
            };
            let key = key.to_string();
            if FLAGS.contains(&key.as_str()) {
                flags.push(key);
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.clone()))?;
                options.insert(key, value);
            }
        }
        Ok(ParsedArgs {
            command,
            op,
            options,
            flags,
        })
    }

    /// Returns a string option if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Returns a required string option.
    ///
    /// # Errors
    ///
    /// [`ArgError::Required`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::Required(key.to_string()))
    }

    /// Returns a parsed finite `f64` option, or the default when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] when present but unparsable or not finite
    /// (`inf`, `NaN`, or a literal like `1e400` that overflows).
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .ok()
                .filter(|value: &f64| value.is_finite())
                .ok_or_else(|| ArgError::Invalid {
                    key: key.to_string(),
                    value: raw.to_string(),
                    expected: "a finite number",
                }),
        }
    }

    /// Returns a parsed `u64` option, or the default when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] when present but unparsable.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::Invalid {
                key: key.to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// Whether a boolean flag was supplied.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = parse(&["fit", "--data", "f.csv", "--grouped", "--level", "0.99"]).unwrap();
        assert_eq!(p.command, "fit");
        assert_eq!(p.get("data"), Some("f.csv"));
        assert!(p.flag("grouped"));
        assert!(!p.flag("quiet"));
        assert_eq!(p.get_f64("level", 0.95).unwrap(), 0.99);
        assert_eq!(p.get_f64("absent", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(parse(&["--fit"]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["calibrate", "learn", "stray"]).unwrap_err(),
            ArgError::Unexpected("stray".into())
        );
        assert_eq!(
            parse(&["fit", "--data"]).unwrap_err(),
            ArgError::MissingValue("data".into())
        );
    }

    #[test]
    fn captures_a_single_operand() {
        let p = parse(&["calibrate", "learn", "--reps", "50", "--smoke"]).unwrap();
        assert_eq!(p.command, "calibrate");
        assert_eq!(p.op.as_deref(), Some("learn"));
        assert_eq!(p.get("reps"), Some("50"));
        assert!(p.flag("smoke"));
        // The operand may also come after options.
        let p = parse(&["calibrate", "--reps", "50", "show"]).unwrap();
        assert_eq!(p.op.as_deref(), Some("show"));
        assert_eq!(parse(&["fit"]).unwrap().op, None);
    }

    #[test]
    fn typed_getters_validate() {
        let p = parse(&["fit", "--level", "abc", "--seed", "-3"]).unwrap();
        assert!(matches!(
            p.get_f64("level", 0.9),
            Err(ArgError::Invalid { .. })
        ));
        for raw in ["inf", "NaN"] {
            let p = parse(&["predict", "--window", raw]).unwrap();
            assert!(
                matches!(p.get_f64("window", 1.0), Err(ArgError::Invalid { .. })),
                "{raw}"
            );
        }
        assert!(matches!(
            p.get_u64("seed", 1),
            Err(ArgError::Invalid { .. })
        ));
        assert!(matches!(p.require("missing"), Err(ArgError::Required(_))));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ArgError::Required("data".into())
            .to_string()
            .contains("--data"));
        assert!(ArgError::Invalid {
            key: "level".into(),
            value: "x".into(),
            expected: "a number"
        }
        .to_string()
        .contains("expected a number"));
    }
}
