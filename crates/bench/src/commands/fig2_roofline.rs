//! Figure 2: roofline model of the RL workloads' CPU versions on an
//! Intel i7-9700K — all four points (Q/SARSA × 1M/20M transitions) land
//! in the memory-bound region, motivating PIM.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- fig2_roofline
//! ```

use swiftrl_baselines::roofline::{figure2_machine, figure2_points};
use swiftrl_bench::cli::{read_flags, ArgError};
use swiftrl_bench::print_table;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    read_flags(args, &[])?;
    let machine = figure2_machine();
    println!("# Figure 2: Roofline model of RL workloads\n");
    println!("Machine: {machine}");
    println!(
        "Ridge point (machine balance): {:.2} FLOP/byte\n",
        machine.peak_gops / machine.memory_bandwidth_gbps
    );

    let rows: Vec<Vec<String>> = figure2_points()
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.3}", p.arithmetic_intensity),
                format!("{:.1}", p.attainable_gflops),
                if p.memory_bound {
                    "memory-bound".into()
                } else {
                    "compute-bound".into()
                },
            ]
        })
        .collect();
    print_table(
        &[
            "Workload",
            "Arithmetic intensity (FLOP/B)",
            "Attainable GFLOPS",
            "Region",
        ],
        &rows,
    );

    println!(
        "\nPaper: both the Q-learner and SARSA-learner CPU versions sit in \
         the memory-bound region at 1M and 20M transitions."
    );
    let all_memory_bound = figure2_points().iter().all(|p| p.memory_bound);
    println!(
        "Measured: all points memory-bound = {all_memory_bound} — {}",
        if all_memory_bound { "MATCHES" } else { "DEVIATES" }
    );
    Ok(())
}
