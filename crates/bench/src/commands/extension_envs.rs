//! Extension: SwiftRL beyond the paper's two environments — FrozenLake
//! 8×8 and CliffWalking, demonstrating that the system is
//! environment-agnostic (any `DiscreteEnv` trains unchanged).
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- extension_envs
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{fmt_secs, print_table, HarnessArgs};
use swiftrl_core::backend::TrainingBackend;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::cliff_walking::CliffWalking;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::taxi::Taxi;
use swiftrl_env::DiscreteEnv;
use swiftrl_rl::eval::evaluate_greedy;
use swiftrl_rl::online::{collect_partially_trained, OnlineConfig};

fn run_env<E: DiscreteEnv>(
    env: &mut E,
    transitions: usize,
    episodes: u32,
    dpus: usize,
    reference: &str,
) -> Vec<String> {
    let dataset = collect_random(env, transitions, 13);
    run_dataset(env, dataset, episodes, dpus, 0.0, reference)
}

fn run_dataset<E: DiscreteEnv>(
    env: &mut E,
    dataset: swiftrl_env::ExperienceDataset,
    episodes: u32,
    dpus: usize,
    initial_q: f32,
    reference: &str,
) -> Vec<String> {
    let backend: Box<dyn TrainingBackend> = Box::new(
        PimRunner::new(
            WorkloadSpec::q_learning_seq_int32(),
            RunConfig::paper_defaults()
                .with_dpus(dpus)
                .with_episodes(episodes)
                .with_tau(50)
                .with_initial_q(initial_q),
        )
        .expect("alloc"),
    );
    let report = backend.train(&dataset).expect("run");
    let stats = evaluate_greedy(env, &report.q_table, 500, 5);
    vec![
        env.name().to_string(),
        format!("{}x{}", env.num_states(), env.num_actions()),
        dataset.len().to_string(),
        fmt_secs(report.breakdown.total_seconds()),
        format!("{:.2}", stats.mean_reward),
        reference.to_string(),
    ]
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;
    let n = args.scaled(1_000_000, 20_000);
    let episodes = args.scaled_episodes(2_000, 50).max(100);

    println!("# Extension: more environments (Q-learner-SEQ-INT32)\n");
    // Negative-reward environments (CliffWalking, Taxi) are sensitive to
    // per-chunk coverage: unvisited (s,a) pairs keep the optimistic zero
    // initialization through the averaging step, so they get fewer DPUs
    // (larger chunks) relative to their state-space size.
    let rows = vec![
        run_env(
            &mut FrozenLake::slippery_4x4(),
            n,
            episodes,
            64,
            "optimal ≈ 0.74",
        ),
        run_env(
            &mut FrozenLake::slippery_8x8(),
            n * 2,
            episodes,
            64,
            "optimal well above random ≈ 0",
        ),
        {
            // A random behaviour policy essentially never crosses the
            // cliff to the goal, so the dataset must come from the
            // paper's §4.1 pipeline: train a behaviour policy online to
            // a threshold, then log experiences under it.
            let mut cliff = CliffWalking::new();
            let online_cfg = OnlineConfig {
                epsilon: 0.3,
                max_episodes: 6_000,
                eval_every: 500,
                eval_episodes: 100,
                ..OnlineConfig::default()
            };
            let (dataset, _) =
                collect_partially_trained(&mut cliff, &online_cfg, -60.0, n, 13);
            // Pessimistic initialization: CliffWalking's rewards are all
            // negative, so zero-init is optimistic and pulls the greedy
            // policy toward unvisited pairs.
            run_dataset(
                &mut cliff,
                dataset,
                episodes,
                16,
                -25.0,
                "optimal = -13 (safe path ≈ -17)",
            )
        },
        run_env(&mut Taxi::new(), n * 8, episodes, 16, "optimal ≈ +8"),
    ];
    print_table(
        &[
            "Environment",
            "Space (SxA)",
            "Transitions",
            "Modelled time",
            "Mean reward",
            "Reference",
        ],
        &rows,
    );
    println!(
        "\nThe same kernels, runner and synchronization protocol train any \
         DiscreteEnv; distributed offline RL needs per-chunk coverage \
         commensurate with the state-action space."
    );
    Ok(())
}
