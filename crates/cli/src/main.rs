//! `lazylocks` — command-line driver for the systematic concurrency tester.
//!
//! The subcommands and their flags are documented in `args::USAGE`,
//! which `lazylocks help` prints.

mod args;
mod commands;

use commands::Failure;
use lazylocks::obs::write_stderr;
use std::process::ExitCode;

fn main() -> ExitCode {
    // `println!` panics once the reader of a piped stdout has gone
    // (`lazylocks list | head -1`); nobody is left to read the rest, so
    // every subcommand exits quietly with success instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>();
        if message.is_some_and(|m| m.starts_with("failed printing to stdout: Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(failure) => {
                let (code, e) = match failure {
                    Failure::Refused(e) => (2, e),
                    Failure::Failed(e) => (1, e),
                };
                write_stderr(&format!("error: {e}\n"));
                ExitCode::from(code)
            }
        },
        Err(e) => {
            write_stderr(&format!("error: {e}\n\n{}\n", args::USAGE));
            ExitCode::from(2)
        }
    }
}
