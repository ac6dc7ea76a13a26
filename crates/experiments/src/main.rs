//! `experiments <command> [flags]` — every table, figure and harness of
//! the reproduction behind one binary. `experiments --help` lists the
//! commands; [`cli`] is the only argument parser and nothing is read from
//! the environment.

#![forbid(unsafe_code)]

mod cli;
mod cmd;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(argv.first().map(String::as_str), Some("--help" | "-h")) {
        println!("{}", cli::help());
        return ExitCode::SUCCESS;
    }
    match cli::parse(&argv) {
        Ok((command, args)) => (command.run)(&args),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
