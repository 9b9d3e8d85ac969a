//! Figure 5: execution time of the 12 RL workload variants on 125–2,000
//! PIM cores for the FrozenLake environment, broken into PIM kernel,
//! CPU-PIM, PIM-CPU and inter-PIM-core components (τ = 50, stride = 4).
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- fig5_frozenlake_scaling
//! cargo run --release -p swiftrl-bench -- fig5_frozenlake_scaling --paper-scale
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::scaling::{run_scaling_figure, ScalingFigure};
use swiftrl_bench::HarnessArgs;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;
    let fig = ScalingFigure {
        figure: "Figure 5",
        env: "frozen lake",
        paper_transitions: 1_000_000,
        paper_episodes: 2_000,
        tau: 50,
    };
    let transitions = args.scaled(fig.paper_transitions, 10_000);
    let mut env = FrozenLake::slippery_4x4();
    let dataset = collect_random(&mut env, transitions, args.seed.unwrap_or(42) as u64);
    run_scaling_figure(&fig, &dataset, &args);
    Ok(())
}
