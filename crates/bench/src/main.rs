//! `swiftrl-bench`: one subcommand per table, figure and benchmark of
//! the SwiftRL reproduction.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- <subcommand> [flags]
//! cargo run --release -p swiftrl-bench -- fig5_frozenlake_scaling --scale 0.01
//! cargo run --release -p swiftrl-bench -- sim_throughput --help
//! ```
//!
//! Exit codes: **0** done (or `<subcommand> --help`), **2** no or an
//! unknown subcommand, an unknown flag, a missing or malformed flag
//! value. A failed run panics (101).

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "benchmark binary: reads its arguments, and wall-clock timing is the measurement"
)]

use std::process::ExitCode;

use swiftrl_bench::cli::ArgError;

/// Declares each subcommand's module (`src/commands/<name>.rs`, entry
/// point `run`, which gets the arguments after the subcommand's name)
/// and lists it in `COMMANDS` under the module's name.
macro_rules! subcommands {
    ($($name:ident),* $(,)?) => {
        mod commands {
            $(pub mod $name;)*
        }
        const COMMANDS: &[(&str, fn(&[String]) -> Result<(), ArgError>)] =
            &[$((stringify!($name), commands::$name::run)),*];
    };
}

subcommands!(
    ablations,
    behavior_policy,
    extension_envs,
    extension_weak_scaling,
    fig2_roofline,
    fig5_frozenlake_scaling,
    fig6_taxi_scaling,
    fig7_cpu_gpu_pim,
    fleet_scaling,
    multi_agent_scaling,
    quality_training,
    resilience,
    service_throughput,
    sim_throughput,
    table1_systems,
    trace_run,
);

fn command_list() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: swiftrl-bench <subcommand> [flags]; <subcommand> --help lists its flags\n\
         subcommands: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, args)) = argv.split_first() else {
        eprintln!("no subcommand given\n{}", command_list());
        return ExitCode::from(2);
    };
    let Some((_, run)) = COMMANDS.iter().find(|(n, _)| n == name) else {
        eprintln!("unknown subcommand {name}\n{}", command_list());
        return ExitCode::from(2);
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(ArgError::Help(usage)) => {
            eprintln!("{usage}");
            ExitCode::SUCCESS
        }
        Err(ArgError::Usage(msg)) => {
            eprintln!("{msg}; try --help");
            ExitCode::from(2)
        }
    }
}
