//! Declarative command-line option tables, shared by `repro` and the
//! `serve` daemon/loadgen.
//!
//! Each binary declares its options once as a static [`Opt`] table; the
//! table drives parsing *and* renders the `usage:` block, so help text
//! can never drift from what the parser accepts. Typed accessors
//! return precise diagnostics — `--scale 2x` reports
//! ``invalid integer `2x` for --scale``, not a generic "needs an
//! integer" — where the old hand-rolled `std::env::args` loops lost the
//! offending token to a silent `parse().ok()`.

use std::collections::HashMap;

/// One option in a table.
#[derive(Clone, Copy, Debug)]
pub struct Opt {
    /// Canonical spelling, with dashes (e.g. `--scale`).
    pub name: &'static str,
    /// Optional short/alternate spelling (e.g. `-v`).
    pub alias: Option<&'static str>,
    /// Metavariable for the value (`None` makes this a boolean flag).
    pub metavar: Option<&'static str>,
    /// Help text; embedded newlines become aligned continuation lines.
    pub help: &'static str,
}

impl Opt {
    /// A boolean flag.
    pub const fn flag(name: &'static str, help: &'static str) -> Opt {
        Opt {
            name,
            alias: None,
            metavar: None,
            help,
        }
    }

    /// A value-taking option.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Opt {
        Opt {
            name,
            alias: None,
            metavar: Some(metavar),
            help,
        }
    }

    /// The same option with an alias.
    pub const fn with_alias(mut self, alias: &'static str) -> Opt {
        self.alias = Some(alias);
        self
    }
}

/// A binary's full option table.
#[derive(Clone, Copy, Debug)]
pub struct OptionTable {
    /// The options, in `usage:` display order.
    pub opts: &'static [Opt],
}

/// The result of a successful parse: option values, set flags, and
/// positional arguments in order.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    values: HashMap<&'static str, String>,
    flags: Vec<&'static str>,
    /// Non-option arguments, in order.
    pub positional: Vec<String>,
}

impl OptionTable {
    fn find(&self, arg: &str) -> Option<&'static Opt> {
        self.opts
            .iter()
            .find(|o| o.name == arg || o.alias == Some(arg))
    }

    /// Parses `args` (without the program name) against the table.
    /// Unknown options and missing values are errors; anything not
    /// starting with `-` is positional.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<ParsedArgs, String> {
        let mut out = ParsedArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                out.positional.push(arg);
                continue;
            }
            let opt = self
                .find(&arg)
                .ok_or_else(|| format!("unknown option `{arg}`"))?;
            match opt.metavar {
                None => {
                    if !out.flags.contains(&opt.name) {
                        out.flags.push(opt.name);
                    }
                }
                Some(metavar) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{} needs a value ({metavar})", opt.name))?;
                    out.values.insert(opt.name, value);
                }
            }
        }
        Ok(out)
    }

    /// Renders the aligned `options:` block for the `usage:` text.
    pub fn render_options(&self) -> String {
        let head = |o: &Opt| -> String {
            let mut s = String::from("  ");
            s.push_str(o.name);
            if let Some(alias) = o.alias {
                s.push_str(&format!(", {alias}"));
            }
            if let Some(m) = o.metavar {
                s.push(' ');
                s.push_str(m);
            }
            s
        };
        let width = self
            .opts
            .iter()
            .map(|o| head(o).len())
            .max()
            .unwrap_or(0)
            .max(20)
            + 2;
        let mut out = String::new();
        for o in self.opts {
            let h = head(o);
            let mut lines = o.help.lines();
            let first = lines.next().unwrap_or("");
            out.push_str(&format!("{h:<width$}{first}\n"));
            for cont in lines {
                out.push_str(&format!("{:<width$}{cont}\n", ""));
            }
        }
        out
    }
}

impl ParsedArgs {
    /// Whether `name` (a flag) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// The raw value of `name`, if given.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `name` parsed as an integer type.
    pub fn int<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.raw(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid integer `{raw}` for {name}")),
        }
    }

    /// The value of `name` parsed as an f64.
    pub fn num(&self, name: &str) -> Result<Option<f64>, String> {
        match self.raw(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid number `{raw}` for {name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: OptionTable = OptionTable {
        opts: &[
            Opt::value("--scale", "N", "target scale"),
            Opt::value("--rate", "R", "arrival rate"),
            Opt::flag("--progress", "live progress").with_alias("-v"),
            Opt::value("--out", "DIR", "output directory\n(second line)"),
        ],
    };

    #[test]
    fn parses_values_flags_aliases_and_positionals() {
        let p = TABLE
            .parse(["fig3", "--scale", "12", "-v", "table7"].map(String::from))
            .unwrap();
        assert_eq!(p.positional, ["fig3", "table7"]);
        assert_eq!(p.int::<u32>("--scale").unwrap(), Some(12));
        assert!(p.flag("--progress"));
        assert!(!p.flag("--out"));
        assert_eq!(p.raw("--out"), None);
    }

    #[test]
    fn bad_integers_name_the_token_and_the_option() {
        let p = TABLE.parse(["--scale", "2x"].map(String::from)).unwrap();
        assert_eq!(
            p.int::<u32>("--scale").unwrap_err(),
            "invalid integer `2x` for --scale"
        );
        let p = TABLE.parse(["--rate", "fast"].map(String::from)).unwrap();
        assert_eq!(
            p.num("--rate").unwrap_err(),
            "invalid number `fast` for --rate"
        );
    }

    #[test]
    fn unknown_options_and_missing_values_error() {
        assert_eq!(
            TABLE.parse(["--nope".to_string()]).unwrap_err(),
            "unknown option `--nope`"
        );
        assert_eq!(
            TABLE.parse(["--scale".to_string()]).unwrap_err(),
            "--scale needs a value (N)"
        );
    }

    #[test]
    fn rendered_options_stay_aligned_and_cover_every_opt() {
        let text = TABLE.render_options();
        for o in TABLE.opts {
            assert!(text.contains(o.name), "{} missing", o.name);
        }
        assert!(text.contains("(second line)"));
        // continuation lines are indented to the help column
        let lines: Vec<&str> = text.lines().collect();
        let col = lines[0].find("target scale").unwrap();
        assert_eq!(lines.last().unwrap().find("(second line)").unwrap(), col);
    }
}
