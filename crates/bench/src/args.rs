//! Arguments and standard output of the figure binaries (`src/bin/*.rs`).
//!
//! Each binary declares what it accepts as one [`BinUsage`]; anything
//! else — an undeclared or repeated flag, a flag without its value, a
//! positional that is not a positive count, one positional too many — is
//! refused with exit 1, the argument named on stderr above the usage
//! line, before anything runs. An argument that is silently dropped is a
//! silently different experiment.
//!
//! [`outln!`](crate::outln) is the binaries' `println!`: a reader that
//! went away (`fig3_4_distributions | head -3`) ends the process quietly
//! where the std macro would panic.

use std::io::Write as _;

/// What one figure binary accepts.
#[derive(Debug)]
pub struct BinUsage {
    /// The binary's name, as the usage line prints it.
    pub bin: &'static str,
    /// Names of the optional positionals, in order; each is a positive
    /// count (tasks, trips, seeds, …).
    pub counts: &'static [&'static str],
    /// The declared `--switch` names.
    pub switches: &'static [&'static str],
    /// The declared `--key value` pairs, as `(name, value grammar)`.
    pub keys: &'static [(&'static str, &'static str)],
}

/// One run's arguments, read against a [`BinUsage`].
#[derive(Debug, Default)]
pub struct BinArgs {
    counts: Vec<usize>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl BinUsage {
    /// The usage line: every declared argument, all optional.
    #[must_use]
    pub fn line(&self) -> String {
        let optional = (self.counts.iter().chain(self.switches))
            .map(|arg| format!(" [{arg}]"))
            .chain(
                self.keys
                    .iter()
                    .map(|(key, grammar)| format!(" [{key} {grammar}]")),
            );
        format!("usage: {}{}", self.bin, optional.collect::<String>())
    }

    /// Reads `args` (without the program name) strictly.
    ///
    /// # Errors
    ///
    /// Names the first argument the declaration does not cover.
    pub fn read(&self, args: impl IntoIterator<Item = String>) -> Result<BinArgs, String> {
        let mut read = BinArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if read.switch(&arg) || read.value(&arg).is_some() {
                return Err(format!("{arg} given more than once"));
            }
            if let Some(&name) = self.switches.iter().find(|s| **s == arg) {
                read.switches.push(name);
            } else if let Some(&(name, grammar)) = self.keys.iter().find(|k| k.0 == arg) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{name} needs a value ({grammar})"))?;
                read.values.push((name, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                let name = self
                    .counts
                    .get(read.counts.len())
                    .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
                let count = arg.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                    format!("bad value '{arg}' for {name} (expected a positive integer)")
                })?;
                read.counts.push(count);
            }
        }
        Ok(read)
    }

    /// The process's own arguments, or [`BinUsage::refuse`].
    #[must_use]
    pub fn from_env(&self) -> BinArgs {
        self.read(std::env::args().skip(1))
            .unwrap_or_else(|e| self.refuse(&e))
    }

    /// Ends the process with exit 1, `message` and the usage line on
    /// stderr — also for a declared key whose value the binary rejects.
    pub fn refuse(&self, message: &str) -> ! {
        eprintln!("error: {message}\n{}", self.line());
        std::process::exit(1);
    }
}

impl BinArgs {
    /// The `index`-th positional count, if given.
    #[must_use]
    pub fn count(&self, index: usize) -> Option<usize> {
        self.counts.get(index).copied()
    }

    /// Whether the switch `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value given for the key `name`, if any.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.values.iter().find(|(key, _)| *key == name)?;
        Some(value)
    }
}

/// Writes one line to standard output; [`outln!`](crate::outln) expands
/// to this. A closed pipe ends the process quietly (exit 0), any other
/// write error with exit 1.
pub fn write_line(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `println!` for the figure binaries, through
/// [`args::write_line`](crate::args::write_line).
#[macro_export]
macro_rules! outln {
    () => { $crate::args::write_line(format_args!("")) };
    ($($arg:tt)*) => { $crate::args::write_line(format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: BinUsage = BinUsage {
        bin: "fig",
        counts: &["tasks"],
        switches: &["--quick"],
        keys: &[("--model", "hitch|hwh")],
    };

    fn read(args: &[&str]) -> Result<BinArgs, String> {
        FIG.read(args.iter().map(ToString::to_string))
    }

    #[test]
    fn declared_arguments_are_read_in_any_order() {
        assert_eq!(
            FIG.line(),
            "usage: fig [tasks] [--quick] [--model hitch|hwh]"
        );
        let none = read(&[]).unwrap();
        assert_eq!(none.count(0), None);
        assert!(!none.switch("--quick"));
        assert_eq!(none.value("--model"), None);
        let all = read(&["--model", "hwh", "500", "--quick"]).unwrap();
        assert_eq!(all.count(0), Some(500));
        assert!(all.switch("--quick"));
        assert_eq!(all.value("--model"), Some("hwh"));
    }

    #[test]
    fn everything_undeclared_is_refused_by_name() {
        for (args, named) in [
            (&["--bogus"][..], "unknown flag '--bogus'"),
            (&["--rounds", "5"], "unknown flag '--rounds'"),
            (&["--quick", "--model"], "--model needs a value"),
            (&["2000x"], "bad value '2000x' for tasks"),
            (&["six"], "bad value 'six' for tasks"),
            (&["0"], "bad value '0' for tasks"),
            (&["200", "300"], "unexpected argument '300'"),
            (&["--quick", "--quick"], "--quick given more than once"),
            (
                &["--model", "hwh", "--model", "hitch"],
                "--model given more than once",
            ),
        ] {
            let e = read(args).unwrap_err();
            assert!(e.contains(named), "{args:?}: {e}");
        }
    }
}
