//! Resilience sweep (extension): how training quality and modelled time
//! respond to injected platform faults under the host-side resilience
//! policy (retry / checkpoint / degrade).
//!
//! Three sweeps, all on Q-learner-SEQ-INT32 over FrozenLake:
//!
//! 1. **Transient fault rate vs retry** — per-(DPU, launch) abort
//!    probability swept with a bounded relaunch budget; an absorbed
//!    transient fault must not move the learned policy at all.
//! 2. **Dead DPUs vs degrade + checkpoint** — a growing set of DPUs
//!    dies mid-run; their chunks are remapped onto the survivors and
//!    the run rolls back to the last Q-table snapshot.
//! 3. **MRAM bit flips in the Q-table region** — silent data corruption
//!    retry cannot absorb; quality collapses once flips land, which is
//!    what motivates the host-side checkpoints.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- resilience
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{fmt_secs, print_table, HarnessArgs};
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::resilience::ResilienceConfig;
use swiftrl_core::runner::{PimRunner, RunOutcome};
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::ExperienceDataset;
use swiftrl_core::layout::Q_TABLE_OFFSET;
use swiftrl_pim::config::PimConfig;
use swiftrl_pim::faults::{FaultPlan, MramRegion};
use swiftrl_rl::eval::evaluate_greedy;

fn run_resilient(
    spec: WorkloadSpec,
    cfg: RunConfig,
    faults: FaultPlan,
    resilience: ResilienceConfig,
    dataset: &ExperienceDataset,
) -> RunOutcome {
    let platform = PimConfig::builder().dpus(cfg.dpus).faults(faults).build();
    PimRunner::with_platform(spec, cfg, platform)
        .expect("runner construction")
        .with_resilience(resilience)
        .run(dataset)
        .unwrap_or_else(|e| panic!("resilient run failed: {e}"))
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;
    let transitions = args.scaled(1_000_000, 20_000);
    let tau = 50u32;
    // At least 4 sync rounds: sweep 2 kills DPUs from launch 1 and the
    // checkpoint/rollback path needs rounds after the snapshot to replay.
    let episodes = args.scaled_episodes(2_000, tau).max(tau * 4);
    let dpus = 64;
    let spec = WorkloadSpec::q_learning_seq_int32();
    let cfg = RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(tau);

    let mut env = FrozenLake::slippery_4x4();
    let dataset = collect_random(&mut env, transitions, 42);
    let q_bytes = dataset.num_states() * dataset.num_actions() * 4;

    println!("# Resilience ({transitions} transitions, {episodes} episodes, τ={tau}, {dpus} DPUs)\n");

    // Fault-free reference for quality and overhead comparisons.
    let clean = run_resilient(
        spec,
        cfg,
        FaultPlan::none(),
        ResilienceConfig::none(),
        &dataset,
    );
    let clean_total = clean.breakdown.total_seconds();
    let clean_reward = evaluate_greedy(&mut env, &clean.q_table, 500, 1).mean_reward;

    // ---- 1. Transient fault rate vs bounded retry -----------------------
    println!("## 1. Transient fault rate (retry budget 6, no degradation)\n");
    let mut rows = Vec::new();
    for rate in [0.0f64, 0.01, 0.05, 0.1, 0.2] {
        let out = run_resilient(
            spec,
            cfg,
            FaultPlan::seeded(20).with_dpu_fail_rate(rate),
            ResilienceConfig::none().with_max_retries(6),
            &dataset,
        );
        let reward = evaluate_greedy(&mut env, &out.q_table, 500, 1).mean_reward;
        let total = out.breakdown.total_seconds();
        rows.push(vec![
            format!("{rate:.2}"),
            out.resilience.faults_seen.to_string(),
            out.resilience.retries.to_string(),
            fmt_secs(out.resilience.faulted_kernel_seconds),
            fmt_secs(total),
            format!("{:.2}×", total / clean_total),
            format!("{reward:.3}"),
            if out.q_table == clean.q_table { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        &[
            "Fail rate",
            "Faults",
            "Retries",
            "Wasted kernel",
            "Total",
            "vs clean",
            "Mean reward",
            "Q identical",
        ],
        &rows,
    );
    println!(
        "\nAn injected fault aborts before kernel work, so every absorbed \
         transient leaves the Q-table bit-identical — only time is lost.\n"
    );

    // ---- 2. Dead DPUs vs degrade + checkpoint ---------------------------
    println!("## 2. Dead DPUs (degrade on, checkpoint every round)\n");
    let mut rows = Vec::new();
    for kill in [0usize, 1, 4, 16] {
        let dead: Vec<usize> = (0..kill).map(|i| i * (dpus / kill.max(1))).collect();
        let out = run_resilient(
            spec,
            cfg,
            FaultPlan::seeded(21).with_dead_dpus(dead, 1),
            ResilienceConfig::none()
                .with_max_retries(1)
                .with_checkpoint_every(1)
                .with_degrade(true),
            &dataset,
        );
        let reward = evaluate_greedy(&mut env, &out.q_table, 500, 1).mean_reward;
        let total = out.breakdown.total_seconds();
        rows.push(vec![
            kill.to_string(),
            out.resilience.degraded_dpus.len().to_string(),
            out.resilience.rollbacks.to_string(),
            out.resilience.checkpoints.to_string(),
            fmt_secs(total),
            format!("{:.2}×", total / clean_total),
            format!("{reward:.3}"),
        ]);
    }
    print_table(
        &[
            "Killed",
            "Degraded",
            "Rollbacks",
            "Checkpoints",
            "Total",
            "vs clean",
            "Mean reward",
        ],
        &rows,
    );
    println!(
        "\nDead DPUs' chunks are remapped onto the survivors and the run \
         rolls back one sync round, so quality holds (reference {clean_reward:.3}) \
         while the smaller machine pays more kernel time per round.\n"
    );

    // ---- 3. Q-table bit flips -------------------------------------------
    println!("## 3. MRAM bit flips in the Q-table region (retry cannot help)\n");
    let region = MramRegion {
        offset: Q_TABLE_OFFSET,
        len: q_bytes,
    };
    let mut rows = Vec::new();
    for rate in [0.0f64, 0.001, 0.01, 0.1] {
        let out = run_resilient(
            spec,
            cfg,
            FaultPlan::seeded(22).with_bitflips(rate, region),
            ResilienceConfig::none(),
            &dataset,
        );
        let reward = evaluate_greedy(&mut env, &out.q_table, 500, 1).mean_reward;
        rows.push(vec![
            format!("{rate:.3}"),
            format!("{reward:.3}"),
            format!("{:+.3}", reward - clean_reward),
        ]);
    }
    print_table(&["Flip rate/launch", "Mean reward", "Δ vs clean"], &rows);
    println!(
        "\nSilent corruption is the failure mode retry cannot absorb: a \
         single high-bit flip in an INT32 Q-value still dominates the \
         {dpus}-way average, so quality falls off a cliff once flips land \
         at all — the motivation for the host-side Q-table checkpoints."
    );
    Ok(())
}
