//! A small, dependency-free `--key value` argument parser, and the error
//! every subcommand reports through.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// Why a subcommand stopped, and the process exit code that says so: 2 for
/// input the command cannot act on (a usage hint follows the message), 1 for
/// a run that was attempted and failed. [`crate::run`] is the one place that
/// prints it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// One line for stderr.
    pub message: String,
    /// The process exit code.
    pub code: i32,
}

impl CliError {
    /// Exit 2: bad arguments, or input that cannot be read or validated.
    pub fn usage(message: impl Display) -> Self {
        CliError { message: message.to_string(), code: 2 }
    }

    /// Exit 1: the arguments were fine and the run itself failed.
    pub fn failed(message: impl Display) -> Self {
        CliError { message: message.to_string(), code: 1 }
    }
}

/// Parsed `--key value` pairs plus bare flags (`--flag`). Every lookup
/// records its key, so [`Args::reject_unknown`] can name what nothing read.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    stray: Vec<String>,
    consumed: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse `--key value` pairs; a `--key` followed by another `--...` or
    /// nothing is a boolean flag.
    pub fn parse(argv: &[String]) -> Self {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(key) = arg.strip_prefix("--") else {
                out.stray.push(arg.clone());
                i += 1;
                continue;
            };
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                out.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                out.flags.push(key.to_string());
                i += 1;
            }
        }
        out
    }

    /// String value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.consumed.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// String with default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// A value of any parseable type, `None` when the key is absent; `what`
    /// names the expected form in the error ("an integer").
    pub fn parsed<T: FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| CliError::usage(format!("--{key} expects {what}, got `{v}`")))
            })
            .transpose()
    }

    /// Integer with default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parsed(key, "an integer")?.unwrap_or(default))
    }

    /// f64 with default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.parsed(key, "a number")?.unwrap_or(default))
    }

    /// A count that must be positive: zero gets a clean message here
    /// instead of a panic deep inside the library.
    pub fn positive_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.usize_or(key, default)? {
            0 => Err(CliError::usage(format!("--{key} must be positive"))),
            v => Ok(v),
        }
    }

    /// A finite positive float (bandwidth and latency factors, I/O rates).
    pub fn positive_f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        let v = self.f64_or(key, default)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(CliError::usage(format!(
                "--{key} must be a positive finite number, got {v}"
            )));
        }
        Ok(v)
    }

    /// A duration given in milliseconds.
    pub fn millis_or(&self, key: &str, default_ms: u64) -> Result<Duration, CliError> {
        Ok(Duration::from_millis(self.parsed(key, "an integer")?.unwrap_or(default_ms)))
    }

    /// Boolean flag (present or `--key true/false`).
    pub fn flag(&self, key: &str) -> bool {
        let by_value = self.get(key).is_some_and(|v| v == "true" || v == "1");
        by_value || self.flags.iter().any(|f| f == key)
    }

    /// A `PxQ` grid specification, both sides positive.
    pub fn grid_or(&self, key: &str, default: (usize, usize)) -> Result<(usize, usize), CliError> {
        let Some(v) = self.get(key) else { return Ok(default) };
        v.split_once(['x', 'X'])
            .and_then(|(p, q)| Some((p.parse().ok()?, q.parse().ok()?)))
            .filter(|&(p, q)| p > 0 && q > 0)
            .ok_or_else(|| CliError::usage(format!("--{key} expects PxQ (e.g. 15x4), got `{v}`")))
    }

    /// Fail on anything the subcommand did not read: a misspelled or
    /// misplaced `--key` would otherwise run with the default it was meant
    /// to replace. Call after the last lookup and before any work.
    pub fn reject_unknown(&self) -> Result<(), CliError> {
        if let Some(arg) = self.stray.first() {
            return Err(CliError::usage(format!("unexpected argument `{arg}`")));
        }
        let consumed = self.consumed.borrow();
        match self.values.keys().chain(&self.flags).filter(|k| !consumed.contains(*k)).min() {
            Some(key) => Err(CliError::usage(format!("unknown flag `--{key}` for this command"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&argv(&["--rows", "128", "--domino", "--tree", "greedy"]));
        assert_eq!(a.usize_or("rows", 0), Ok(128));
        assert!(a.flag("domino"));
        assert_eq!(a.str_or("tree", "flat"), "greedy");
        assert!(!a.flag("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv(&[]));
        assert_eq!(a.usize_or("tile", 16), Ok(16));
        assert_eq!(a.f64_or("speedup", 8.0), Ok(8.0));
        assert_eq!(a.grid_or("grid", (15, 4)), Ok((15, 4)));
    }

    #[test]
    fn grid_parses() {
        let a = Args::parse(&argv(&["--grid", "3x2"]));
        assert_eq!(a.grid_or("grid", (1, 1)), Ok((3, 2)));
    }

    #[test]
    fn boolean_value_forms() {
        let a = Args::parse(&argv(&["--domino", "true", "--ts", "false"]));
        assert!(a.flag("domino"));
        assert!(!a.flag("ts"));
    }

    #[test]
    fn trailing_flag() {
        let a = Args::parse(&argv(&["--rows", "4", "--quiet"]));
        assert!(a.flag("quiet"));
        assert_eq!(a.usize_or("rows", 0), Ok(4));
    }

    #[test]
    fn garbage_is_an_error_not_an_exit() {
        let a = Args::parse(&argv(&["--rows", "abc", "--grid", "3by2", "--rate", "fast"]));
        assert_eq!(a.usize_or("rows", 1).unwrap_err().code, 2);
        assert_eq!(a.grid_or("grid", (1, 1)).unwrap_err().code, 2);
        assert_eq!(a.grid_or("rows", (1, 1)).unwrap_err().code, 2);
        assert_eq!(a.f64_or("rate", 1.0).unwrap_err().code, 2);
    }

    #[test]
    fn unread_keys_flags_and_positionals_are_rejected_by_name() {
        let a = Args::parse(&argv(&["--rows", "4", "--thread", "2", "--verify"]));
        assert_eq!(a.usize_or("rows", 0), Ok(4));
        assert!(a.reject_unknown().unwrap_err().message.contains("--thread"));
        let _ = a.get("thread");
        assert!(a.reject_unknown().unwrap_err().message.contains("--verify"));
        assert!(a.flag("verify"));
        assert_eq!(a.reject_unknown(), Ok(()));
        let a = Args::parse(&argv(&["oops", "--rows", "4"]));
        let _ = a.get("rows");
        assert!(a.reject_unknown().unwrap_err().message.contains("`oops`"));
    }
}
