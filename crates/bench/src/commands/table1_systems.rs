//! Table 1: evaluated UPMEM PIM system and baseline CPU/GPU
//! specifications.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- table1_systems
//! ```

use swiftrl_baselines::specs::MachineSpec;
use swiftrl_bench::cli::{read_flags, ArgError};
use swiftrl_bench::print_table;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    read_flags(args, &[])?;
    println!("# Table 1: Evaluated systems\n");
    let rows: Vec<Vec<String>> = MachineSpec::table1()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.process_node.clone(),
                m.total_cores.clone(),
                format!("{} MHz", m.frequency_mhz),
                format!("{:.0} GOPS", m.peak_gops),
                format!("{:.0} GB", m.memory_gb),
                format!("{:.1} GB/s", m.memory_bandwidth_gbps),
                format!("{:.0} W", m.tdp_w),
                format!("{:.2} GOPS/W", m.gops_per_watt()),
            ]
        })
        .collect();
    print_table(
        &[
            "System",
            "Node",
            "Total cores",
            "Frequency",
            "Peak perf",
            "Main memory",
            "Memory BW",
            "TDP",
            "Efficiency",
        ],
        &rows,
    );
    println!(
        "\nThe simulated PIM platform in this reproduction instantiates the \
         UPMEM row (see swiftrl_pim::config::PimConfig::default)."
    );
    Ok(())
}
