//! End-to-end tests of the `swiftrl-bench` binary: subcommand dispatch,
//! usage exit codes in every subcommand, and one subcommand's output.

use std::process::{Command, Output};

use swiftrl_baselines::specs::MachineSpec;

/// Every subcommand, as the binary lists them.
const SUBCOMMANDS: [&str; 16] = [
    "ablations",
    "behavior_policy",
    "extension_envs",
    "extension_weak_scaling",
    "fig2_roofline",
    "fig5_frozenlake_scaling",
    "fig6_taxi_scaling",
    "fig7_cpu_gpu_pim",
    "fleet_scaling",
    "multi_agent_scaling",
    "quality_training",
    "resilience",
    "service_throughput",
    "sim_throughput",
    "table1_systems",
    "trace_run",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swiftrl-bench"))
        .args(args)
        .output()
        .expect("spawn swiftrl-bench")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn missing_or_unknown_subcommand_exits_two_and_lists_every_name() {
    for args in [
        &[][..],
        &["fig99_nonexistent"],
        &["--scale", "0.1"],
        &["--help"],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "{args:?}: {out:?}");
        let err = stderr(&out);
        for name in SUBCOMMANDS {
            assert!(err.contains(name), "{args:?}: {name} missing from {err}");
        }
    }
}

#[test]
fn unknown_flag_exits_two_in_every_subcommand() {
    for name in SUBCOMMANDS {
        let out = run(&[name, "--frobnicate"]);
        assert_eq!(code(&out), 2, "{name}: {out:?}");
        assert!(
            stderr(&out).contains("unknown flag --frobnicate"),
            "{name}: {}",
            stderr(&out)
        );
        assert!(
            out.stdout.is_empty(),
            "{name} ran before rejecting its flags"
        );
    }
}

#[test]
fn help_exits_zero_in_every_subcommand_without_running_it() {
    for name in SUBCOMMANDS {
        let out = run(&[name, "--help"]);
        assert_eq!(code(&out), 0, "{name}: {out:?}");
        assert!(
            stderr(&out).starts_with("flags: "),
            "{name}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{name} ran instead of printing help");
    }
}

#[test]
fn malformed_values_exit_two() {
    for args in [
        &["fig5_frozenlake_scaling", "--scale", "1.5"][..],
        &["fig5_frozenlake_scaling", "--scale"],
        &["quality_training", "--dpus", "8,x"],
        &["resilience", "--seed", "-1"],
        &["trace_run", "--env", "cartpole"],
        &["trace_run", "--dpus", "8,16"],
        &["service_throughput", "--trace"],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "{args:?}: {out:?}");
        assert!(
            stderr(&out).ends_with("; try --help\n"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn table1_systems_prints_table_1() {
    let out = run(&["table1_systems"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# Table 1: Evaluated systems\n"),
        "{stdout}"
    );
    let systems = MachineSpec::table1();
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("| ")).collect();
    // Header plus one row per system, in Table 1 order.
    assert_eq!(rows.len(), 1 + systems.len(), "{stdout}");
    for (row, system) in rows[1..].iter().zip(&systems) {
        assert!(row.starts_with(&format!("| {}", system.name)), "{row}");
    }
}
