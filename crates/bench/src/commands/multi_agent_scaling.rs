//! §4.4 — multi-agent Q-learning scaling: 1,000 / 2,000 independent
//! agents (10,000 FrozenLake transitions each, 2,000 episodes) on one
//! PIM core per agent, against the paper's measured Xeon baseline.
//!
//! Both comparators run through the [`TrainingBackend`] trait:
//! [`MultiAgentRunner`] (one learner per DPU) against
//! [`CpuMultiAgentBackend`] (Table 1 Xeon model).
//!
//! Paper: CPU takes ≈996.52 s (1,000 agents) and ≈1,943.78 s (2,000);
//! SwiftRL achieves ≈11.23× and ≈21.92× speedup respectively.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- multi_agent_scaling
//! ```

use swiftrl_baselines::cpu_model::CpuModel;
use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{fmt_ratio, fmt_secs, print_table, HarnessArgs};
use swiftrl_core::backend::{
    BackendStats, CpuMultiAgentBackend, MultiAgentRunner, TrainingBackend,
};
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_env::collect::collect_per_agent;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::ExperienceDataset;

const PAPER_TRANSITIONS_PER_AGENT: usize = 10_000;
const PAPER_EPISODES: u32 = 2_000;
/// Paper measurements for (agents, cpu_seconds, speedup).
const PAPER_POINTS: [(usize, f64, f64); 2] = [(1_000, 996.52, 11.23), (2_000, 1_943.78, 21.92)];

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;

    // Reduced-scale simulation: fewer agents (kernel time is agent-count
    // invariant — one agent per DPU) and a smaller per-agent workload.
    let sim_agents = args.scaled(64, 8).min(256);
    let transitions = args.scaled(PAPER_TRANSITIONS_PER_AGENT, 500);
    let episodes = args.scaled_episodes(PAPER_EPISODES, 50);

    let mut env = FrozenLake::slippery_4x4();
    // The backend interface takes one combined dataset; the runner
    // re-splits it into equal contiguous per-agent chunks, which
    // round-trips the per-agent collection exactly.
    let datasets = collect_per_agent(&mut env, sim_agents, transitions, 42);
    let mut combined = ExperienceDataset::new(
        datasets[0].env_name(),
        datasets[0].num_states(),
        datasets[0].num_actions(),
    );
    for d in &datasets {
        combined.extend(d.transitions().iter().copied());
    }

    let spec = WorkloadSpec::q_learning_seq_int32();
    let cfg = RunConfig::paper_defaults()
        .with_episodes(episodes)
        .with_tau(episodes);
    let cpu = CpuModel::xeon_4110();

    // The two comparators of the figure, behind one interface.
    let pim_backend: Box<dyn TrainingBackend> =
        Box::new(MultiAgentRunner::new(spec, cfg, sim_agents).expect("bad agent count"));
    let cpu_backend: Box<dyn TrainingBackend> = Box::new(
        CpuMultiAgentBackend::new(cpu, sim_agents, episodes).expect("bad agent count"),
    );

    let pim_report = pim_backend
        .train(&combined)
        .expect("multi-agent run failed");
    let cpu_report = cpu_backend.train(&combined).expect("CPU model failed");

    // Per-agent work extrapolation for the kernel; transfers scale with
    // agents × per-agent bytes. The CPU model is exactly linear in
    // agents × updates, so the simulated-scale figure extrapolates to
    // paper scale by the same two factors.
    let update_factor = (PAPER_TRANSITIONS_PER_AGENT as f64 * PAPER_EPISODES as f64)
        / (transitions as f64 * episodes as f64);

    println!("# §4.4 Multi-agent Q-learning scaling ({spec})\n");
    println!(
        "simulated {sim_agents} agents × {transitions} transitions × {episodes} episodes; \
         extrapolated to paper scale below\n"
    );

    let mut rows = Vec::new();
    for (agents, paper_cpu_s, paper_speedup) in PAPER_POINTS {
        let agents_ratio = agents as f64 / sim_agents as f64;
        let xfer_factor = agents_ratio * PAPER_TRANSITIONS_PER_AGENT as f64 / transitions as f64;
        let b = &pim_report.breakdown;
        let pim_s = b.pim_kernel_s * update_factor
            + b.program_load_s * agents_ratio
            + (b.cpu_pim_s - b.program_load_s) * xfer_factor
            + b.pim_cpu_s * agents_ratio;
        let cpu_model_s = cpu_report.total_seconds() * agents_ratio * update_factor;
        rows.push(vec![
            agents.to_string(),
            format!("{} (paper {paper_cpu_s:.2}s)", fmt_secs(cpu_model_s)),
            fmt_secs(pim_s),
            format!("{} (paper {paper_speedup}×)", fmt_ratio(cpu_model_s / pim_s)),
        ]);
    }
    print_table(
        &["Agents", "CPU (modelled)", "PIM (simulated)", "Speedup"],
        &rows,
    );

    let agent_tables = match &pim_report.stats {
        BackendStats::MultiAgent { q_tables } => q_tables.len(),
        other => panic!("expected MultiAgent stats, got {other:?}"),
    };
    println!(
        "\nIndependence check: {} per-agent Q-tables returned, no inter-PIM \
         communication time ({}s).",
        agent_tables, pim_report.breakdown.inter_pim_s
    );
    Ok(())
}
