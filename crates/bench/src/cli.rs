//! Argument parsing shared by the `experiments`, `ablations` and
//! `validate` binaries: a missing, malformed, zero-count or unknown
//! argument prints the binary's usage line and exits with code 2 instead
//! of panicking.

use std::process;
use std::str::FromStr;

/// One binary's command-line arguments, read against its usage line.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process arguments after the program name.
    pub fn from_env(usage: &'static str) -> Self {
        Self::new(usage, std::env::args().skip(1).collect())
    }

    /// Reads `args` (without the program name) against `usage`.
    fn new(usage: &'static str, args: Vec<String>) -> Self {
        Self {
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Takes the argument after `flag` and parses it as `T`, exiting
    /// through [`Cli::fail`] when it is missing or malformed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(&format!("{flag} needs a value"))
        };
        match raw.parse() {
            Ok(value) => value,
            Err(_) => self.fail(&format!("{flag}: invalid value {raw:?}")),
        }
    }

    /// [`Cli::value`] for a count that must be at least 1 (`--trials`,
    /// `--threads`): zero exits through [`Cli::fail`].
    pub fn count<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> T {
        let count = self.value(flag);
        if count == T::from(0) {
            self.fail(&format!("{flag} must be at least 1"))
        }
        count
    }

    /// Prints the usage line and exits successfully (`--help`).
    pub fn help(&self) -> ! {
        eprintln!("{}", self.usage);
        process::exit(0)
    }

    /// Prints `message` and the usage line to stderr and exits with code 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("error: {message}\n{}", self.usage);
        process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flag_values_in_order() {
        let args = ["12", "out/dir", "rest"].map(String::from).to_vec();
        let mut cli = Cli::new("usage: test", args);
        assert_eq!(cli.value::<u64>("--trials"), 12);
        assert_eq!(
            cli.value::<std::path::PathBuf>("--out"),
            std::path::Path::new("out/dir")
        );
        assert_eq!(cli.next_arg().as_deref(), Some("rest"));
        assert_eq!(cli.next_arg(), None);
    }
}
