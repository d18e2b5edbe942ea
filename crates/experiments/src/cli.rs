//! The one command-line parser every binary of the workspace uses.
//!
//! A binary declares its flags — each a [`Flag`]: a name, a value
//! [`Kind`] and help text — and its positional operands in a [`Cli`].
//! [`Cli::parse`] makes a single pass over the arguments, checking each
//! value against its flag's kind, and returns them as [`Args`], or an
//! error. [`Cli::parse_env`] parses the process's own arguments and
//! turns an error into a usage failure: the error, the usage line
//! generated from the declarations and the flag list go to stderr,
//! nothing to stdout, and the process exits with status 2 before
//! anything runs or is written.
//!
//! Rejected: an unknown flag, a stray argument, a missing operand or
//! value, a malformed value, a non-repeatable flag given twice, and a
//! value that is itself a flag (`--trace --quick` names no trace file).
//!
//! A valued flag's help text is a noun phrase for its value ("a worker
//! count"); it doubles as the expectation in a malformed-value error
//! (`--jobs: expected a worker count, got "many"`).

use std::str::FromStr;
use std::time::Duration;

/// What a flag takes, and how its value is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value: the flag is on or off.
    Switch,
    /// An unsigned integer (`usize`) of at least the given minimum.
    Count(usize),
    /// An unsigned 64-bit integer.
    U64,
    /// A TCP port number.
    Port,
    /// A finite number greater than zero.
    Positive,
    /// A finite, non-negative number of seconds that fits a
    /// [`Duration`].
    Seconds,
    /// A file or directory path.
    Path,
    /// A name, e.g. an address or a spec.
    Name,
    /// A name; the flag may be given any number of times.
    Names,
    /// A comma-separated list of counts, e.g. `1,2,4`.
    Counts,
}

impl Kind {
    /// Whether `raw` is a well-formed value of this kind.
    fn accepts(self, raw: &str) -> bool {
        match self {
            Kind::Switch | Kind::Path | Kind::Name | Kind::Names => true,
            Kind::Count(min) => raw.parse::<usize>().is_ok_and(|n| n >= min),
            Kind::U64 => raw.parse::<u64>().is_ok(),
            Kind::Port => raw.parse::<u16>().is_ok(),
            Kind::Positive => raw.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
            Kind::Seconds => raw
                .parse()
                .is_ok_and(|secs| Duration::try_from_secs_f64(secs).is_ok()),
            Kind::Counts => raw.split(',').all(|k| k.trim().parse::<usize>().is_ok()),
        }
    }
}

/// One declared flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--jobs`.
    pub name: &'static str,
    /// What the flag takes.
    pub kind: Kind,
    /// For a switch, what it does; for a valued flag, a noun phrase for
    /// its value.
    pub help: &'static str,
    /// The value's placeholder in the usage line.
    meta: &'static str,
    /// Whether the flag must be given.
    required: bool,
}

impl Flag {
    /// A flag with the kind's default placeholder (`N`, `PATH`, …).
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        let meta = match kind {
            Kind::Switch => "",
            Kind::Count(_) | Kind::U64 => "N",
            Kind::Port => "PORT",
            Kind::Positive => "X",
            Kind::Seconds => "SECS",
            Kind::Path => "PATH",
            Kind::Name | Kind::Names => "NAME",
            Kind::Counts => "K,K,...",
        };
        Flag {
            name,
            kind,
            help,
            meta,
            required: false,
        }
    }

    /// Replaces the value's placeholder in the usage line.
    pub const fn meta(self, meta: &'static str) -> Flag {
        Flag { meta, ..self }
    }

    /// Makes the flag mandatory.
    pub const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    /// The flag as the usage line shows it, e.g. `--jobs N`.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_owned(),
            _ => format!("{} {}", self.name, self.meta),
        }
    }
}

/// A binary's command line: its name, positional operands and flags.
#[derive(Debug, Clone)]
pub struct Cli {
    name: &'static str,
    operands: &'static [&'static str],
    flags: Vec<Flag>,
}

impl Cli {
    /// The command `name` taking the concatenated flag `groups`, in
    /// order, and no operands.
    pub fn new(name: &'static str, groups: &[&[Flag]]) -> Cli {
        Cli {
            name,
            operands: &[],
            flags: groups.concat(),
        }
    }

    /// Declares the operands the command requires, in order.
    pub fn operands(self, operands: &'static [&'static str]) -> Cli {
        Cli { operands, ..self }
    }

    /// The usage line, e.g. `table2 [--quick] [--seeds N] …`.
    pub fn usage(&self) -> String {
        let operands = self.operands.iter().map(|o| format!(" <{o}>"));
        let flags = self.flags.iter().map(|f| match (f.required, f.kind) {
            (true, _) => format!(" {}", f.synopsis()),
            (false, Kind::Names) => format!(" [{}]...", f.synopsis()),
            (false, _) => format!(" [{}]", f.synopsis()),
        });
        operands
            .chain(flags)
            .fold(self.name.to_owned(), |u, s| u + &s)
    }

    /// Parses `args` (the arguments after the program name).
    pub fn parse<S: AsRef<str>>(&self, args: &[S]) -> Result<Args, String> {
        let mut values: Vec<(&'static str, String)> = Vec::new();
        let mut operands = Vec::new();
        let mut rest = args.iter().map(AsRef::as_ref);
        while let Some(arg) = rest.next() {
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                if arg.starts_with('-') && arg.len() > 1 {
                    return Err(format!("unknown flag {arg:?}"));
                }
                if operands.len() == self.operands.len() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                operands.push(arg.to_owned());
                continue;
            };
            if flag.kind != Kind::Names && values.iter().any(|(name, _)| *name == flag.name) {
                return Err(format!("{}: given more than once", flag.name));
            }
            let value = match flag.kind {
                Kind::Switch => "",
                _ => match rest.next() {
                    None => return Err(format!("{}: expected a value", flag.name)),
                    Some(v) if v.starts_with("--") => {
                        return Err(format!(
                            "{}: expected a value, got the flag {v:?}",
                            flag.name
                        ))
                    }
                    Some(v) if !flag.kind.accepts(v) => {
                        return Err(format!("{}: expected {}, got {v:?}", flag.name, flag.help))
                    }
                    Some(v) => v,
                },
            };
            values.push((flag.name, value.to_owned()));
        }
        if let Some(missing) = self.operands.get(operands.len()) {
            return Err(format!("missing operand <{missing}>"));
        }
        let given = |f: &&Flag| values.iter().any(|(name, _)| *name == f.name);
        if let Some(flag) = self.flags.iter().find(|f| f.required && !given(f)) {
            return Err(format!("{}: required", flag.name));
        }
        Ok(Args {
            cli: self.clone(),
            values,
            operands,
        })
    }

    /// Parses the process's own arguments; any error is a usage failure
    /// (see [`Cli::fail`]). The only place the workspace reads them.
    pub fn parse_env(&self) -> Args {
        let args: Result<Vec<String>, _> = std::env::args_os()
            .skip(1)
            .map(|a| a.into_string())
            .collect();
        args.map_err(|bad| format!("argument {bad:?} is not valid UTF-8"))
            .and_then(|args| self.parse(&args))
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// Reports `error`, the usage line and the flag list on stderr and
    /// exits with status 2.
    pub fn fail(&self, error: &str) -> ! {
        let width = self
            .flags
            .iter()
            .map(|f| f.synopsis().len())
            .max()
            .unwrap_or(0);
        let mut text = format!("error: {error}\nusage: {}\n", self.usage());
        for flag in &self.flags {
            text += &format!("  {:<width$}  {}\n", flag.synopsis(), flag.help);
        }
        eprint!("{text}");
        std::process::exit(2);
    }
}

/// The checked values of one command line.
#[derive(Debug)]
pub struct Args {
    cli: Cli,
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Every value given for the flag `name`, in order: empty when it
    /// was not given, one value unless it is a [`Kind::Names`] flag.
    pub fn names(&self, name: &str) -> Vec<&str> {
        debug_assert!(
            self.cli.flags.iter().any(|f| f.name == name),
            "{}: flag {name} is not declared",
            self.cli.name
        );
        let given = self.values.iter().filter(|(n, _)| *n == name);
        given.map(|(_, value)| value.as_str()).collect()
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        !self.names(name).is_empty()
    }

    /// The value of the flag `name`, if given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.names(name).first().copied()
    }

    /// The value of the flag `name` as a `T` (`usize` for a count, `u16`
    /// for a port, `f64` for a number, `PathBuf` for a path, …), if
    /// given. The parse cannot fail: the value was checked against the
    /// flag's kind.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.text(name)?.parse().ok();
        debug_assert!(
            value.is_some(),
            "{name}: asked for a type its kind does not parse as"
        );
        value
    }

    /// The value of the [`Kind::Seconds`] flag `name`, if given.
    pub fn seconds(&self, name: &str) -> Option<Duration> {
        self.get(name).map(Duration::from_secs_f64)
    }

    /// The counts of the [`Kind::Counts`] flag `name`, if given.
    pub fn counts(&self, name: &str) -> Option<Vec<usize>> {
        let list = self.text(name)?.split(',');
        list.map(|k| k.trim().parse().ok()).collect()
    }

    /// The `i`-th declared operand.
    pub fn operand(&self, i: usize) -> &str {
        &self.operands[i]
    }

    /// A usage failure for a value the parser cannot judge alone (an
    /// unknown plan name, an inconsistent sweep): see [`Cli::fail`].
    pub fn fail(&self, error: &str) -> ! {
        self.cli.fail(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [Flag; 6] = [
        Flag::new("--quick", Kind::Switch, "reduced scale"),
        Flag::new("--jobs", Kind::Count(0), "a worker count"),
        Flag::new("--seeds", Kind::Count(1), "a seed count of at least 1"),
        Flag::new("--trace", Kind::Path, "a trace path"),
        Flag::new("--hold", Kind::Seconds, "a number of seconds"),
        Flag::new("--plan", Kind::Names, "a plan name"),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Cli::new("demo", &[&FLAGS]).parse(args)
    }

    #[test]
    fn usage_is_generated_from_the_declarations() {
        let usage = Cli::new("demo", &[&FLAGS]).usage();
        let want =
            "demo [--quick] [--jobs N] [--seeds N] [--trace PATH] [--hold SECS] [--plan NAME]...";
        assert_eq!(usage, want);
        let addr = Flag::new("--addr", Kind::Name, "an address").meta("HOST:PORT");
        let cli = Cli::new("cmp", &[&[addr.required()]]).operands(&["a.json", "b.json"]);
        assert_eq!(cli.usage(), "cmp <a.json> <b.json> --addr HOST:PORT");
    }

    #[test]
    fn parses_every_kind_in_one_pass() {
        let args = parse(&[
            "--plan", "a", "--quick", "--jobs", "0", "--hold", "2.5", "--plan", "b",
        ]);
        let args = args.unwrap();
        assert!(args.switch("--quick"));
        assert_eq!(args.get::<usize>("--jobs"), Some(0));
        assert_eq!(args.get::<usize>("--seeds"), None);
        assert_eq!(args.seconds("--hold"), Some(Duration::from_millis(2500)));
        assert_eq!(args.names("--plan"), ["a", "b"]);
        let none = parse(&[]).unwrap();
        assert!(!none.switch("--quick") && none.names("--plan").is_empty());
    }

    #[test]
    fn rejects_ambiguous_input() {
        for (args, error) in [
            (&["--bogus"][..], "unknown flag \"--bogus\""),
            (&["stray"], "unexpected argument \"stray\""),
            (&["--jobs"], "--jobs: expected a value"),
            (
                &["--jobs", "many"],
                "--jobs: expected a worker count, got \"many\"",
            ),
            (
                &["--jobs", "1", "--jobs", "x"],
                "--jobs: given more than once",
            ),
            (&["--quick", "--quick"], "--quick: given more than once"),
            (
                &["--trace", "--quick"],
                "--trace: expected a value, got the flag \"--quick\"",
            ),
            (
                &["--seeds", "0"],
                "--seeds: expected a seed count of at least 1, got \"0\"",
            ),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    fn values_are_range_checked() {
        for (kind, good, bad) in [
            (
                Kind::Seconds,
                &["0", "2.5"][..],
                &["-1", "nan", "inf", "1e30", "x"][..],
            ),
            (
                Kind::Positive,
                &["3", "0.5"],
                &["0", "-1", "nan", "inf", "x"],
            ),
            (Kind::Port, &["0", "65535"], &["65536", "-1"]),
            (Kind::U64, &["0", "18446744073709551615"], &["-1", "1.5"]),
            (Kind::Counts, &["1,2, 4", "0"], &["", "1,,2", "1,x"]),
        ] {
            let cli = Cli::new("k", &[&[Flag::new("--v", kind, "a value")]]);
            for v in good {
                assert!(cli.parse(&["--v", v]).is_ok(), "{kind:?} {v}");
            }
            for v in bad {
                assert!(cli.parse(&["--v", v]).is_err(), "{kind:?} {v}");
            }
        }
    }

    #[test]
    fn operands_and_required_flags_are_counted() {
        let x = Flag::new("--x", Kind::U64, "a number");
        let cli = Cli::new("two", &[&[x]]).operands(&["a", "b"]);
        let args = cli.parse(&["p", "--x", "3", "q"]).unwrap();
        assert_eq!((args.operand(0), args.operand(1)), ("p", "q"));
        assert_eq!(cli.parse(&["p"]).unwrap_err(), "missing operand <b>");
        assert_eq!(
            cli.parse(&["p", "q", "r"]).unwrap_err(),
            "unexpected argument \"r\""
        );
        let required = Cli::new("req", &[&[x.required()]]);
        assert_eq!(required.parse::<&str>(&[]).unwrap_err(), "--x: required");
    }
}
