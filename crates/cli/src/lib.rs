//! Library backing the `hqr` command-line tool: argument parsing and the
//! subcommand implementations (kept in a lib so they are unit-testable).

pub mod args;
pub mod commands;
pub mod dist;
pub mod experiments;
pub mod problem;
pub mod proto;
#[cfg(unix)]
pub mod service;

pub use args::{Args, CliError};

/// Entry point shared by the binary and the tests. Returns the process
/// exit code: every subcommand reports failure as a [`CliError`], and this
/// is the one place that prints it (with the usage hint on exit 2).
pub fn run(argv: &[String]) -> i32 {
    let Some(command) = argv.first() else {
        print!("{}", commands::USAGE);
        return 0;
    };
    let args = &Args::parse(&argv[1..]);
    let outcome = match command.as_str() {
        "factor" => commands::factor(args),
        "simulate" => commands::simulate(args),
        "fault" => commands::fault(args),
        "trace" => commands::trace(args),
        "schedule" => commands::schedule(args),
        "trees" => commands::trees(args),
        "dot" => commands::dot(args),
        "experiments" => experiments::experiments(&argv[1..]),
        #[cfg(unix)]
        "serve" => service::serve(args),
        #[cfg(unix)]
        "submit" => service::submit(args),
        #[cfg(unix)]
        "jobs" => service::jobs(args),
        #[cfg(unix)]
        "cancel" => service::cancel(args),
        #[cfg(unix)]
        "result" => service::result(args),
        #[cfg(unix)]
        "suspend" => service::suspend(args),
        #[cfg(unix)]
        "resume-job" => service::resume_job(args),
        #[cfg(unix)]
        "drain" => service::drain(args),
        #[cfg(unix)]
        "ping" => service::ping(args),
        "worker" => dist::worker(args),
        "dist" => dist::dist(args),
        "calibrate" => dist::calibrate(args),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(0)
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{}", commands::USAGE);
            Ok(2)
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{}", e.message);
        if e.code == 2 {
            eprintln!("run `hqr help` for usage");
        }
        e.code
    })
}
