//! Figure 6: execution time of the 12 RL workload variants on 125–2,000
//! PIM cores for the Taxi environment (5M transitions in the paper),
//! broken into PIM kernel, CPU-PIM, PIM-CPU and inter-PIM-core
//! components (τ = 50, stride = 4).
//!
//! Taxi's Q-table is ~47× larger than FrozenLake's, so the inter-PIM
//! component should become a visible share (up to ~21% for the INT32
//! variants at 2,000 cores in the paper).
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- fig6_taxi_scaling
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::scaling::{run_scaling_figure, ScalingFigure};
use swiftrl_bench::HarnessArgs;
use swiftrl_core::config::DataType;
use swiftrl_env::collect::collect_random;
use swiftrl_env::taxi::Taxi;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.01)?;
    let fig = ScalingFigure {
        figure: "Figure 6",
        env: "taxi",
        paper_transitions: 5_000_000,
        paper_episodes: 2_000,
        tau: 50,
    };
    let transitions = args.scaled(fig.paper_transitions, 10_000);
    let mut env = Taxi::new();
    let dataset = collect_random(&mut env, transitions, args.seed.unwrap_or(42) as u64);
    let cells = run_scaling_figure(&fig, &dataset, &args);

    // The paper's observation 2: inter-PIM share peaks for INT32 at
    // 2,000 cores (≈21% for Q-STR-INT32 / 20.8% Q-SEQ-INT32).
    println!("\n## Inter-PIM-core share at 2,000 cores (paper: up to 21.19%)\n");
    for c in cells
        .iter()
        .filter(|c| c.dpus == 2_000 && c.spec.dtype == DataType::Int32)
    {
        let f = c.breakdown.fractions();
        println!("- {}: {:.2}%", c.spec, f[3] * 100.0);
    }
    Ok(())
}
