//! Run every table/figure reproduction in sequence, in this process, with
//! the arguments given to `all`: `--quick` shrinks everything to
//! smoke-test scale, `--threads N` is the one parallelism setting of the
//! whole suite, `--telemetry` reaches the commands that collect it.

use super::{Args, ExitCode, COMMANDS, SUITE};

pub fn run(args: &Args) -> ExitCode {
    println!(
        "running full suite with {} worker thread(s) per experiment",
        args.threads
    );
    for command in &COMMANDS[..SUITE] {
        let name = command.name;
        println!("\n================================================================");
        println!("running {name}");
        println!("================================================================");
        let code = (command.run)(args);
        if code != ExitCode::SUCCESS {
            eprintln!("{name} failed");
            return code;
        }
    }
    println!("\nall experiments completed; CSVs in results/, run traces in results/traces/");
    ExitCode::SUCCESS
}
