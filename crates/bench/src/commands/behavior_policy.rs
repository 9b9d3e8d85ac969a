//! Extension: behaviour-policy quality vs offline-training outcome.
//!
//! The paper collects its datasets from a *partially trained* behaviour
//! policy ("we train a random behavior policy online and log the
//! experiences until the policy performance achieves a performance
//! threshold", §4.1). This experiment compares offline training from
//! (a) a uniform-random behaviour policy and (b) the paper's
//! partially-trained pipeline, at equal dataset sizes — showing how the
//! dataset's provenance moves the §4.2 quality numbers.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- behavior_policy
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{print_table, HarnessArgs};
use swiftrl_core::backend::TrainingBackend;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::ExperienceDataset;
use swiftrl_rl::eval::evaluate_greedy;
use swiftrl_rl::online::{collect_partially_trained, OnlineConfig};

fn train_and_eval(dataset: &ExperienceDataset, episodes: u32) -> f64 {
    let backend: Box<dyn TrainingBackend> = Box::new(
        PimRunner::new(
            WorkloadSpec::q_learning_seq_int32(),
            RunConfig::paper_defaults()
                .with_dpus(64)
                .with_episodes(episodes)
                .with_tau(50),
        )
        .expect("alloc"),
    );
    let report = backend.train(dataset).expect("run");
    let mut env = FrozenLake::slippery_4x4();
    evaluate_greedy(&mut env, &report.q_table, 1_000, 11).mean_reward
}

fn goal_fraction(d: &ExperienceDataset) -> f64 {
    d.iter().filter(|t| t.reward > 0.0).count() as f64 / d.len() as f64
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;
    let transitions = args.scaled(1_000_000, 20_000);
    let episodes = args.scaled_episodes(2_000, 50);
    let seed = args.seed.unwrap_or(21);

    println!("# Extension: behaviour-policy provenance ({transitions} transitions, {episodes} episodes)\n");

    let mut env = FrozenLake::slippery_4x4();

    // (a) Uniform random behaviour policy.
    let random = collect_random(&mut env, transitions, seed as u64);

    // (b) The paper's pipeline: online training to a threshold, then
    //     logging under the frozen ε-greedy policy.
    let online_cfg = OnlineConfig {
        epsilon: 0.5,
        max_episodes: 10_000,
        eval_every: 500,
        eval_episodes: 200,
        ..OnlineConfig::default()
    };
    let (partial, online) =
        collect_partially_trained(&mut env, &online_cfg, 0.4, transitions, seed);
    println!(
        "behaviour policy trained online for {} episodes (eval {:.3}, threshold 0.4 {})\n",
        online.episodes,
        online.final_eval.mean_reward,
        if online.reached_threshold { "reached" } else { "NOT reached" }
    );

    let rows = vec![
        vec![
            "random".into(),
            format!("{:.4}", goal_fraction(&random)),
            format!("{:.3}", train_and_eval(&random, episodes)),
        ],
        vec![
            "partially trained (paper §4.1)".into(),
            format!("{:.4}", goal_fraction(&partial)),
            format!("{:.3}", train_and_eval(&partial, episodes)),
        ],
    ];
    print_table(
        &[
            "Behaviour policy",
            "Goal-reward fraction in dataset",
            "Offline-trained mean reward",
        ],
        &rows,
    );
    println!(
        "\nA better behaviour policy concentrates experience along useful \
         trajectories (higher goal fraction) but narrows state coverage; \
         offline Q-learning tolerates both on FrozenLake. On larger state \
         spaces the coverage difference explains why partially-trained \
         datasets (as in the paper) land below the optimum."
    );
    Ok(())
}
