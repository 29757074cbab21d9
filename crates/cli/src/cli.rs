//! Minimal argument parsing for `trace-tools`.
//!
//! The grammar is deliberately simple — `trace-tools <subcommand>
//! [--flag value]…` — so no external argument-parsing dependency is needed.

use std::collections::BTreeMap;

/// A parsed invocation: the subcommand plus its `--flag value` options.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Invocation {
    /// The subcommand name (e.g. `generate`).
    pub command: String,
    /// Flag values keyed by flag name (without the leading `--`).
    pub options: BTreeMap<String, String>,
}

impl Invocation {
    /// Creates an invocation (used by tests and the examples).
    pub fn new(command: &str, options: &[(&str, &str)]) -> Self {
        Invocation {
            command: command.to_string(),
            options: options
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Returns a required option or a descriptive error.
    pub fn require(&self, flag: &str) -> Result<&str, String> {
        match self.options.get(flag).map(String::as_str) {
            Some("") => Err(format!("option --{flag} needs a value")),
            Some(value) => Ok(value),
            None => Err(format!(
                "missing required option --{flag} for `{}`",
                self.command
            )),
        }
    }

    /// Returns an optional option.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// True if the flag was given at all — with or without a value.  This
    /// is how boolean switches such as `--stream` are tested.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.options.contains_key(flag)
    }

    /// Returns an optional option parsed as `f64`.
    pub(crate) fn get_f64(&self, flag: &str) -> Result<Option<f64>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("option --{flag} expects a number, got {raw:?}")),
        }
    }

    /// Returns an optional option parsed as `usize`.
    pub(crate) fn get_usize(&self, flag: &str) -> Result<Option<usize>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("option --{flag} expects an integer, got {raw:?}")),
        }
    }
}

/// Binary-output flags shared by every command that writes `.trc` files
/// (`generate`, `reduce`, `convert`).
pub(crate) const BINARY_OUTPUT_FLAGS: &[&str] = &["codec"];

/// Observability flags shared by the instrumented commands.
pub(crate) const OBS_FLAGS: &[&str] = &["obs", "obs-out", "obs-format"];

/// Declarative flag specification for one subcommand: the flags it owns
/// plus any shared flag groups it participates in.  `commands::run`
/// rejects anything not listed here instead of silently ignoring it, so
/// every flag an implementation reads must appear in [`COMMAND_SPECS`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct CommandSpec {
    /// Canonical subcommand name.
    pub name: &'static str,
    /// Flags specific to this subcommand, in usage order.
    pub own: &'static [&'static str],
    /// Shared flag groups (e.g. [`BINARY_OUTPUT_FLAGS`], [`OBS_FLAGS`]).
    pub groups: &'static [&'static [&'static str]],
}

impl CommandSpec {
    /// True if the subcommand accepts `flag`.
    pub fn allows(&self, flag: &str) -> bool {
        self.own.contains(&flag) || self.groups.iter().any(|group| group.contains(&flag))
    }

    /// All accepted flags: own flags first, then each group in order.
    pub(crate) fn flags(&self) -> Vec<&'static str> {
        let mut flags: Vec<&'static str> = self.own.to_vec();
        for group in self.groups {
            flags.extend_from_slice(group);
        }
        flags
    }
}

/// The flag table for every `trace-tools` subcommand.
pub(crate) const COMMAND_SPECS: &[CommandSpec] = &[
    CommandSpec {
        name: "help",
        own: &[],
        groups: &[],
    },
    CommandSpec {
        name: "list",
        own: &[],
        groups: &[],
    },
    CommandSpec {
        name: "generate",
        own: &["workload", "preset", "out"],
        groups: &[BINARY_OUTPUT_FLAGS, OBS_FLAGS],
    },
    CommandSpec {
        name: "reduce",
        own: &[
            "in",
            "out",
            "method",
            "threshold",
            "stream",
            "shards",
            "report",
        ],
        groups: &[BINARY_OUTPUT_FLAGS, OBS_FLAGS],
    },
    CommandSpec {
        name: "reconstruct",
        own: &["in", "out"],
        groups: &[],
    },
    CommandSpec {
        name: "convert",
        own: &["in", "out"],
        groups: &[BINARY_OUTPUT_FLAGS, OBS_FLAGS],
    },
    CommandSpec {
        name: "analyze",
        own: &["in"],
        groups: &[],
    },
    CommandSpec {
        name: "report",
        own: &[
            "in",
            "full",
            "run-report",
            "method",
            "threshold",
            "divergence-threshold",
            "html",
            "chrome",
        ],
        groups: &[],
    },
];

/// Looks up the spec for a subcommand; `--help`/`-h` alias `help`.
/// `None` means the subcommand itself is unknown (reported by the
/// dispatcher, not as a flag error).
pub(crate) fn command_spec(command: &str) -> Option<&'static CommandSpec> {
    let canonical = match command {
        "--help" | "-h" => "help",
        other => other,
    };
    COMMAND_SPECS.iter().find(|spec| spec.name == canonical)
}

/// Rejects flags the subcommand does not define, listing the valid ones.
pub(crate) fn check_flags(invocation: &Invocation) -> Result<(), String> {
    let Some(spec) = command_spec(&invocation.command) else {
        return Ok(()); // unknown subcommand: reported by the dispatcher
    };
    for flag in invocation.options.keys() {
        if !spec.allows(flag) {
            let valid = if spec.own.is_empty() && spec.groups.is_empty() {
                "it takes no flags".to_string()
            } else {
                format!(
                    "valid flags: {}",
                    spec.flags()
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            return Err(format!(
                "unknown option --{flag} for `{}`; {valid}",
                invocation.command
            ));
        }
    }
    Ok(())
}

/// Parses raw command-line arguments (without the program name).
///
/// Flags take the form `--flag value`; a flag followed by another flag (or
/// by the end of the arguments) is a boolean switch, stored with an empty
/// value and tested with `Invocation::has` (e.g. `reduce --stream`).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut iter = args.iter().peekable();
    let command = iter
        .next()
        .ok_or_else(|| "no subcommand given".to_string())?
        .clone();
    // `--help`/`-h` look like flags but are dispatched as the `help`
    // subcommand (commands::run already accepts them).
    if command.starts_with('-') && command != "--help" && command != "-h" {
        return Err(format!("expected a subcommand, found flag {command:?}"));
    }
    let mut options = BTreeMap::new();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {flag:?}"))?;
        if name.is_empty() {
            return Err("empty flag name".to_string());
        }
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => iter.next().expect("just peeked").clone(),
            _ => String::new(),
        };
        if options.insert(name.to_string(), value).is_some() {
            return Err(format!("flag --{name} was given more than once"));
        }
    }
    Ok(Invocation { command, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let inv = parse_args(&strings(&[
            "reduce",
            "--method",
            "avgWave",
            "--threshold",
            "0.2",
        ]))
        .unwrap();
        assert_eq!(inv.command, "reduce");
        assert_eq!(inv.require("method").unwrap(), "avgWave");
        assert_eq!(inv.get_f64("threshold").unwrap(), Some(0.2));
        assert_eq!(inv.get("missing"), None);
        assert_eq!(inv.get_f64("missing").unwrap(), None);
    }

    #[test]
    fn rejects_missing_subcommand_and_bad_flags() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&strings(&["--method", "x"])).is_err());
        assert!(parse_args(&strings(&["reduce", "method", "x"])).is_err());
        assert!(parse_args(&strings(&["reduce", "--", "x"])).is_err());
    }

    #[test]
    fn value_less_flags_are_boolean_switches() {
        let inv = parse_args(&strings(&["reduce", "--stream", "--shards", "4"])).unwrap();
        assert!(inv.has("stream"));
        assert!(!inv.has("method"));
        assert_eq!(inv.get_usize("shards").unwrap(), Some(4));
        // A switch at the end of the arguments works too.
        let inv = parse_args(&strings(&["reduce", "--method", "avgWave", "--stream"])).unwrap();
        assert!(inv.has("stream"));
        assert_eq!(inv.require("method").unwrap(), "avgWave");
        // `require` refuses to treat a bare switch as a value.
        let inv = parse_args(&strings(&["reduce", "--method"])).unwrap();
        let err = inv.require("method").unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn rejects_duplicate_flags_and_bad_numbers() {
        assert!(parse_args(&strings(&["x", "--a", "1", "--a", "2"])).is_err());
        let inv = parse_args(&strings(&["x", "--k", "abc"])).unwrap();
        assert!(inv.get_f64("k").is_err());
        assert!(inv.get_usize("k").is_err());
    }

    #[test]
    fn require_reports_the_subcommand() {
        let inv = Invocation::new("generate", &[]);
        let err = inv.require("workload").unwrap_err();
        assert!(err.contains("--workload"));
        assert!(err.contains("generate"));
    }

    #[test]
    fn specs_are_unique_and_groups_expand() {
        let mut names: Vec<_> = COMMAND_SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMAND_SPECS.len(), "duplicate command spec");
        for spec in COMMAND_SPECS {
            let flags = spec.flags();
            let mut sorted = flags.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), flags.len(), "duplicate flag in {}", spec.name);
            for flag in &flags {
                assert!(spec.allows(flag), "{} must allow --{flag}", spec.name);
            }
        }
        let reduce = command_spec("reduce").unwrap();
        assert!(reduce.allows("codec"), "group flags are honoured");
        assert!(reduce.allows("obs-format"));
        assert!(!reduce.allows("policy"));
    }

    #[test]
    fn help_aliases_resolve_and_unknown_commands_do_not() {
        assert!(command_spec("--help").is_some());
        assert!(command_spec("-h").is_some());
        assert!(command_spec("no-such-command").is_none());
    }

    #[test]
    fn check_flags_lists_the_valid_set() {
        let inv = Invocation::new("reduce", &[("bogus", "1")]);
        let err = check_flags(&inv).unwrap_err();
        assert!(err.contains("unknown option --bogus"), "{err}");
        assert!(err.contains("--threshold"), "{err}");
        assert!(err.contains("--codec"), "{err}");
        let inv = Invocation::new("list", &[("bogus", "")]);
        let err = check_flags(&inv).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
        // Unknown subcommands pass: the dispatcher reports those.
        let inv = Invocation::new("no-such-command", &[("anything", "")]);
        assert!(check_flags(&inv).is_ok());
    }
}
