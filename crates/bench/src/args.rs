//! Strict command-line parsing shared by every figure binary.
//!
//! The original binaries parsed positionals with
//! `.and_then(|s| s.parse().ok()).unwrap_or(default)`, so a typo like
//! `fig5 100O` silently ran the 1000 s default instead of erroring —
//! an entire paper-scale run wasted on a malformed invocation. The
//! parser here exits non-zero with a usage message on anything it does
//! not understand.

use std::process::ExitCode;

/// The `[duration_secs] [seed]` positionals every figure binary takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigArgs {
    /// Virtual run length in seconds.
    pub duration_secs: u64,
    /// Base RNG seed.
    pub seed: u64,
}

/// Outcome of strict parsing, before process-exit policy is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Arguments were well-formed.
    Ok(FigArgs),
    /// `--help`/`-h` was requested: print usage, exit zero.
    Help,
    /// Malformed input: print the message, exit non-zero.
    Error(String),
}

/// Usage text for a binary taking the standard positionals.
#[must_use]
pub fn usage(bin: &str, default_duration: u64, default_seed: u64) -> String {
    format!(
        "usage: {bin} [duration_secs] [seed]\n\
         \n\
           duration_secs  virtual run length in seconds (default: {default_duration})\n\
           seed           base RNG seed (default: {default_seed})\n\
         \n\
         Malformed values are rejected rather than silently replaced by\n\
         their defaults."
    )
}

/// Parses the standard `[duration_secs] [seed]` positionals strictly:
/// a value that does not parse as `u64`, or any extra argument, is an
/// error — never silently replaced by the default.
pub fn parse_fig_args<I>(args: I, default_duration: u64, default_seed: u64) -> Parsed
where
    I: IntoIterator<Item = String>,
{
    let mut values = [default_duration, default_seed];
    const NAMES: [&str; 2] = ["duration_secs", "seed"];
    for (slot, arg) in args.into_iter().enumerate() {
        if arg == "--help" || arg == "-h" {
            return Parsed::Help;
        }
        if arg.starts_with('-') && arg.parse::<u64>().is_err() {
            return Parsed::Error(format!("unknown flag `{arg}`"));
        }
        if slot >= values.len() {
            return Parsed::Error(format!("unexpected extra argument `{arg}`"));
        }
        match arg.parse::<u64>() {
            Ok(v) => values[slot] = v,
            Err(_) => {
                return Parsed::Error(format!(
                    "invalid {} `{arg}`: expected an unsigned integer",
                    NAMES[slot]
                ))
            }
        }
    }
    Parsed::Ok(FigArgs {
        duration_secs: values[0],
        seed: values[1],
    })
}

/// Entry-point helper: parses `std::env::args()` strictly and either
/// returns the parsed values or the exit code the binary must return
/// (0 for `--help`, 2 for malformed input, with usage on stderr).
pub fn fig_args_or_exit(
    bin: &str,
    default_duration: u64,
    default_seed: u64,
) -> Result<FigArgs, ExitCode> {
    match parse_fig_args(std::env::args().skip(1), default_duration, default_seed) {
        Parsed::Ok(v) => Ok(v),
        Parsed::Help => {
            println!("{}", usage(bin, default_duration, default_seed));
            Err(ExitCode::SUCCESS)
        }
        Parsed::Error(msg) => {
            eprintln!("{bin}: {msg}");
            eprintln!("{}", usage(bin, default_duration, default_seed));
            Err(ExitCode::from(2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        parse_fig_args(args.iter().map(|s| (*s).to_owned()), 1000, 42)
    }

    #[test]
    fn defaults_apply_with_no_args() {
        assert_eq!(
            parse(&[]),
            Parsed::Ok(FigArgs {
                duration_secs: 1000,
                seed: 42
            })
        );
    }

    #[test]
    fn positionals_override_defaults() {
        assert_eq!(
            parse(&["120", "7"]),
            Parsed::Ok(FigArgs {
                duration_secs: 120,
                seed: 7
            })
        );
        assert_eq!(
            parse(&["120"]),
            Parsed::Ok(FigArgs {
                duration_secs: 120,
                seed: 42
            })
        );
    }

    #[test]
    fn typo_is_an_error_not_the_default() {
        // The motivating bug: `fig5 100O` (letter O) used to run 1000 s.
        let Parsed::Error(msg) = parse(&["100O"]) else {
            panic!("`100O` must be rejected");
        };
        assert!(msg.contains("100O"), "message names the bad value: {msg}");
        assert!(matches!(parse(&["120", "4x"]), Parsed::Error(_)));
        assert!(matches!(parse(&["-5"]), Parsed::Error(_)));
    }

    #[test]
    fn extra_arguments_are_rejected() {
        assert!(matches!(parse(&["120", "7", "9"]), Parsed::Error(_)));
    }

    #[test]
    fn unknown_flags_are_rejected_and_help_is_honoured() {
        assert!(matches!(parse(&["--frobnicate"]), Parsed::Error(_)));
        assert_eq!(parse(&["--help"]), Parsed::Help);
        assert_eq!(parse(&["-h"]), Parsed::Help);
    }

    #[test]
    fn usage_names_the_binary_and_defaults() {
        let u = usage("fig5", 1000, 42);
        assert!(u.contains("fig5"));
        assert!(u.contains("1000"));
        assert!(u.contains("42"));
    }
}
