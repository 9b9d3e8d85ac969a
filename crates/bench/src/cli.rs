//! The one argument reader behind every `swiftrl-bench` subcommand.
//!
//! A subcommand lists the flags it accepts as their usage fragments, as
//! `--help` prints them: the flag, then `<placeholder>` if it takes a
//! value, then an optional `(note)`. [`read_flags`] walks the argument
//! list (everything after the subcommand name) once, in order. It never
//! exits the process: the binary maps [`ArgError::Help`] to exit code 0
//! and [`ArgError::Usage`] to exit code 2.

/// Why an argument list was not run.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h` was given: the usage line to print (exit code 0).
    Help(String),
    /// The argument list is malformed: what is wrong (exit code 2).
    Usage(String),
}

/// The flags of one argument list, in the order given. A switch
/// carries an empty value.
#[derive(Debug, PartialEq, Eq)]
pub struct Flags(Vec<(&'static str, String)>);

impl Flags {
    /// Every flag with its value, in argument order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &str)> {
        self.0.iter().map(|(name, value)| (*name, value.as_str()))
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.iter().any(|(n, _)| n == name)
    }

    /// The value of the last `name` given, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.iter()
            .filter(|(n, _)| *n == name)
            .last()
            .map(|(_, v)| v)
    }
}

/// Reads `args` against the `accepted` usage fragments, e.g.
/// `["--quick (smaller run)", "--out <path>"]`.
///
/// # Errors
///
/// [`ArgError::Help`] with `flags: <fragments joined by " | ">` at a
/// `--help` / `-h`; [`ArgError::Usage`] at an unknown flag or a value
/// flag with no value after it.
pub fn read_flags(args: &[String], accepted: &[&'static str]) -> Result<Flags, ArgError> {
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            let listed = if accepted.is_empty() {
                "none".into()
            } else {
                accepted.join(" | ")
            };
            return Err(ArgError::Help(format!("flags: {listed}")));
        }
        let Some((name, rest)) = accepted
            .iter()
            .map(|usage| usage.split_once(' ').unwrap_or((usage, "")))
            .find(|(name, _)| name == arg)
        else {
            return Err(ArgError::Usage(format!("unknown flag {arg}")));
        };
        let value = match rest.strip_prefix('<') {
            None => String::new(),
            Some(placeholder) => {
                let placeholder = placeholder.split_once('>').map_or(placeholder, |(p, _)| p);
                args.next()
                    .ok_or_else(|| ArgError::Usage(format!("{name} needs <{placeholder}>")))?
                    .clone()
            }
        };
        flags.push((name, value));
    }
    Ok(Flags(flags))
}

/// Parses one flag value; `what` names the expected type in the error
/// (`--seed must be a u32`).
///
/// # Errors
///
/// [`ArgError::Usage`] when `value` does not parse as `T`.
pub fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    what: &str,
) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError::Usage(format!("{flag} must be {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: [&str; 3] = [
        "--quick (smaller run)",
        "--out <path (default out)>",
        "--env <a|b>",
    ];

    #[test]
    fn reads_switches_and_values_in_order() {
        let args = argv(&["--out", "a", "--quick", "--env", "b", "--out", "c"]);
        let flags = read_flags(&args, &FLAGS).unwrap();
        let seen: Vec<_> = flags.iter().collect();
        assert_eq!(
            seen,
            [
                ("--out", "a"),
                ("--quick", ""),
                ("--env", "b"),
                ("--out", "c")
            ]
        );
        assert!(flags.has("--quick"));
        assert_eq!(flags.value("--out"), Some("c"));
        let none = read_flags(&[], &FLAGS).unwrap();
        assert!(!none.has("--quick"));
        assert_eq!(none.value("--out"), None);
    }

    #[test]
    fn missing_values_unknown_flags_and_help() {
        let read = |args: &[&str]| read_flags(&argv(args), &FLAGS);
        let usage = |msg: &str| Err(ArgError::Usage(msg.into()));
        assert_eq!(
            read(&["--quick", "--out"]),
            usage("--out needs <path (default out)>")
        );
        assert_eq!(read(&["--env"]), usage("--env needs <a|b>"));
        assert_eq!(read(&["--frobnicate"]), usage("unknown flag --frobnicate"));
        // A stray word is an unknown flag, not a silently ignored value.
        assert_eq!(read(&["--quick", "extra"]), usage("unknown flag extra"));
        // `--help` stops the walk wherever it stands.
        let help = Err(ArgError::Help(
            "flags: --quick (smaller run) | --out <path (default out)> | --env <a|b>".into(),
        ));
        assert_eq!(read(&["--help", "--frobnicate"]), help);
        assert_eq!(read(&["--quick", "-h"]), help);
        assert_eq!(
            read_flags(&argv(&["--help"]), &[]),
            Err(ArgError::Help("flags: none".into()))
        );
        assert_eq!(
            read_flags(&argv(&["--quick"]), &[]),
            usage("unknown flag --quick")
        );
    }
}
