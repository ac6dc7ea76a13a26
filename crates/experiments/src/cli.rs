//! The one argument parser of the `experiments` binary.
//!
//! `experiments <command> [flags]`: the command is looked up in
//! [`COMMANDS`](crate::cmd::COMMANDS) and its `usage` string is the list
//! of flags it accepts — a flag that is not spelled in that string is an
//! error there, even if another command knows it. Valued flags take
//! `--flag V` or `--flag=V`. Anything unknown, valueless or unparsable is
//! reported with the command's usage line and exit code 2: a reproduction
//! run must never proceed on a seed or a thread count it did not get.
//!
//! Nothing is read from the environment. Scale, thread count and the
//! telemetry switch arrive here and are passed down as values.

use crate::cmd::{self, Command};
use experiments::experiments::Scale;

/// Everything a command can be told, parsed once in `main`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// `--threads N`: worker threads (default: available parallelism).
    pub threads: usize,
    /// `--quick`: smoke-test scale.
    pub quick: bool,
    /// `--telemetry`: collect per-run telemetry snapshots into the JSON
    /// trace (write-only; CSVs are byte-identical either way).
    pub telemetry: bool,
    /// `--bless`: rewrite scenario goldens.
    pub bless: bool,
    // `--<field> V`, `None` when not given.
    pub seed: Option<u64>,
    pub out: Option<String>,
    pub trials: Option<usize>,
    pub rounds: Option<u64>,
    pub flows: Option<usize>,
    /// `--n A,B,...`: explicit scale grid.
    pub n: Option<Vec<usize>>,
    /// `--single N`: one scale grid point, in-process.
    pub single: Option<usize>,
    pub max_rss_mb: Option<u64>,
    /// Positional arguments (scenario files or directories).
    pub paths: Vec<String>,
}

impl Args {
    /// No flag given: every thread the machine has, nothing else set.
    pub fn new() -> Self {
        Args {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..Args::default()
        }
    }

    /// The experiment scale `--quick` selects.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// The `--help` text: every command with its flags.
pub fn help() -> String {
    let mut out = String::from("usage: experiments <command> [flags]\n\ncommands:\n");
    for c in cmd::COMMANDS {
        out.push_str(&format!("  {:<20} {}\n", c.name, c.usage));
    }
    out.push_str(
        "\nvalued flags take `--flag V` or `--flag=V`; nothing is read from the environment",
    );
    out
}

/// How a usage string spells "takes positional arguments".
const PATHS: &str = "<file|dir>...";

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["--quick", "--telemetry", "--bless"];

/// Store one flag; `None` when the value is missing, does not parse, or
/// was given to a switch.
fn apply(args: &mut Args, flag: &str, value: Option<&str>) -> Option<()> {
    fn num<T: std::str::FromStr>(value: Option<&str>) -> Option<T> {
        value?.parse().ok()
    }
    match flag {
        "--quick" if value.is_none() => args.quick = true,
        "--telemetry" if value.is_none() => args.telemetry = true,
        "--bless" if value.is_none() => args.bless = true,
        "--threads" => args.threads = num::<usize>(value)?.max(1),
        "--seed" => args.seed = Some(num(value)?),
        "--out" => args.out = Some(value?.to_string()),
        "--trials" => args.trials = Some(num(value)?),
        "--rounds" => args.rounds = Some(num(value)?),
        "--flows" => args.flows = Some(num(value)?),
        "--n" => {
            let grid: Option<Vec<usize>> =
                value?.split(',').map(|s| s.trim().parse().ok()).collect();
            args.n = Some(grid?);
        }
        "--single" => args.single = Some(num(value)?),
        "--max-rss-mb" => args.max_rss_mb = Some(num(value)?),
        _ => return None,
    }
    Some(())
}

/// Parse `argv` (without the program name) into the command to run and
/// its arguments. `Err` carries the message for stderr; the caller exits 2.
pub fn parse(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(help());
    };
    let Some(command) = cmd::COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("experiments: unknown command {name}\n{}", help()));
    };
    let usage = command.usage;
    let fail =
        |what: String| format!("experiments {name}: {what}\nusage: experiments {name} {usage}");

    let mut args = Args::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if !command.accepts(PATHS) {
                return Err(fail(format!("unexpected argument {arg}")));
            }
            args.paths.push(arg.clone());
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        if !command.accepts(flag) {
            return Err(fail(format!("unknown flag {flag}")));
        }
        let value = if SWITCHES.contains(&flag) {
            inline
        } else {
            let next = inline.or_else(|| it.next().map(String::as_str));
            next.filter(|v| !v.starts_with("--"))
        };
        if apply(&mut args, flag, value).is_none() {
            return Err(fail(format!("bad or missing value for {flag}: {value:?}")));
        }
    }
    if command.accepts(PATHS) && args.paths.is_empty() {
        return Err(fail(format!("needs at least one {PATHS}")));
    }
    Ok((command, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// `Some(edit)` = parses to `Args::new()` with `edit` applied; `None`
    /// = usage error. At the parent commit every `None` row ran with
    /// defaults.
    #[test]
    fn argv_table() {
        let reexec = crate::cmd::scale::single_argv(50_000, 500, 42, Some(256)).join(" ");
        type Want = Option<fn(&mut Args)>;
        let cases: Vec<(&str, Want)> = vec![
            ("tab1", Some(|_| {})),
            ("tab1 --threads 4", Some(|a| a.threads = 4)),
            ("tab1 --threads=4", Some(|a| a.threads = 4)),
            ("tab1 --threads 0", Some(|a| a.threads = 1)),
            (
                "tab1 --quick --threads 2",
                Some(|a| (a.quick, a.threads) = (true, 2)),
            ),
            ("recovery --telemetry", Some(|a| a.telemetry = true)),
            (
                "attack --seed=7 --trials 10",
                Some(|a| (a.seed, a.trials) = (Some(7), Some(10))),
            ),
            (
                "chaos_soak --rounds 50 --out x",
                Some(|a| (a.rounds, a.out) = (Some(50), Some("x".into()))),
            ),
            (
                "scale --n 1000,50000",
                Some(|a| a.n = Some(vec![1000, 50000])),
            ),
            (
                "scenario --bless s/ a.toml",
                Some(|a| (a.bless, a.paths) = (true, argv("s/ a.toml"))),
            ),
            // What the scale sweep re-executes itself with, per grid point.
            (
                &reexec,
                Some(|a| {
                    (a.single, a.flows, a.seed) = (Some(50_000), Some(500), Some(42));
                    a.max_rss_mb = Some(256);
                }),
            ),
            // Unknown flag (a typo of a known one).
            ("tab1 --thread 4", None),
            // Flag without value, at the end and before another flag.
            ("tab1 --threads", None),
            ("attack --seed --quick", None),
            // Unparsable values.
            ("attack --seed=abc", None),
            ("tab1 --threads four", None),
            ("scale --n 1000,x", None),
            // A flag that belongs to another command.
            ("fig1 --threads 4", None),
            ("tab1 --seed 3", None),
            ("tab1 --telemetry", None),
            // Switch given a value, stray or missing positional, unknown
            // command, nothing at all.
            ("tab1 --quick=1", None),
            ("tab1 scenarios/", None),
            ("scenario --bless", None),
            ("tab9", None),
            ("", None),
            // Only `experiments --help` is help.
            ("tab1 --help", None),
        ];
        for (line, want) in cases {
            let want = want.map(|edit| {
                let mut args = Args::new();
                edit(&mut args);
                args
            });
            let got = match parse(&argv(line)) {
                Ok((command, args)) => {
                    assert!(line.starts_with(command.name), "{line:?}");
                    Some(args)
                }
                Err(message) => {
                    assert!(message.contains("usage: experiments"), "{line:?}");
                    None
                }
            };
            assert_eq!(got, want, "argv {line:?}");
        }
    }

    /// Every command rejects a mistyped flag and is in the listing.
    #[test]
    fn every_command_rejects_a_typo_and_is_listed() {
        assert_eq!(cmd::COMMANDS.len(), 20);
        for c in cmd::COMMANDS {
            assert!(parse(&argv(&format!("{} --sead 1", c.name))).is_err());
            assert!(help().contains(&format!("\n  {} ", c.name)), "{}", c.name);
        }
        // Retired with the Criterion harness; `main` exits 2 on any `Err`.
        let retired = parse(&argv("perf")).unwrap_err();
        assert!(retired.starts_with("experiments: unknown command perf\n"));
    }
}
