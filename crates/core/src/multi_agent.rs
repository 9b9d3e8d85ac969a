//! Multi-agent Q-learning: one independent learner per PIM core.
//!
//! In the paper's multi-agent workload (§3.2.1) each agent has its own
//! experience dataset and Q-table; agents are pinned one-per-DPU, train
//! concurrently, and never communicate — so the τ-synchronization and the
//! aggregation step disappear entirely. The host only loads the
//! per-agent datasets and retrieves the final per-agent Q-tables.

use crate::breakdown::TimeBreakdown;
use crate::config::{DataType, RunConfig, WorkloadSpec};
use crate::kernels::SwiftRlKernel;
use crate::layout::{encode_chunk, KernelHeader, Q_TABLE_OFFSET};
use swiftrl_env::ExperienceDataset;
use swiftrl_pim::config::PimConfig;
use swiftrl_pim::host::{PimError, PimSystem};
use swiftrl_rl::qtable::{FixedQTable, QTable};

/// Result of a multi-agent run.
#[derive(Debug, Clone)]
pub struct MultiAgentOutcome {
    /// One trained Q-table per agent, in agent order.
    pub q_tables: Vec<QTable>,
    /// Modelled execution-time breakdown (no inter-PIM component by
    /// construction).
    pub breakdown: TimeBreakdown,
}

/// Trains `datasets.len()` independent agents, one per DPU.
///
/// All agents share the workload variant and hyper-parameters of
/// `spec`/`cfg`; `cfg.dpus` is ignored in favour of the agent count, and
/// `cfg.tau` is irrelevant (no synchronization) — the whole episode
/// budget runs in a single launch per agent.
///
/// # Errors
///
/// Returns a [`PimError`] if allocation, transfers, or kernels fail.
///
/// # Panics
///
/// Panics if `datasets` is empty or the datasets disagree on their
/// state/action spaces.
pub fn train_multi_agent(
    spec: WorkloadSpec,
    cfg: &RunConfig,
    datasets: &[ExperienceDataset],
) -> Result<MultiAgentOutcome, PimError> {
    assert!(!datasets.is_empty(), "need at least one agent dataset");
    let ns = datasets[0].num_states();
    let na = datasets[0].num_actions();
    assert!(
        datasets
            .iter()
            .all(|d| d.num_states() == ns && d.num_actions() == na),
        "agent datasets must share the environment spaces"
    );

    let agents = datasets.len();
    let platform = PimConfig::builder().dpus(agents).build();
    let mut system = PimSystem::new(platform);
    let mut set = system.alloc(agents)?;
    let q_bytes = ns * na * 4;
    let scale = cfg.scale();
    let mut breakdown = TimeBreakdown::default();

    set.load_program();

    // Load: per-agent header + zero Q-table + the agent's own dataset.
    let headers: Vec<KernelHeader> = datasets
        .iter()
        .enumerate()
        .map(|(agent, d)| KernelHeader::for_chunk(spec, cfg, d, agent, d.len(), cfg.episodes))
        .collect();

    set.scatter(0, &headers.iter().map(|h| h.to_bytes()).collect::<Vec<_>>())?;
    // Zero-initialized Q-tables need no transfer (fresh MRAM reads as
    // zero); an arbitrary initial value is broadcast to every agent.
    if cfg.initial_q != 0.0 {
        let init = match spec.dtype {
            DataType::Fp32 => QTable::filled(ns, na, cfg.initial_q).to_bytes(),
            DataType::Int32 => {
                FixedQTable::filled(ns, na, scale, scale.to_fixed(cfg.initial_q)).to_bytes()
            }
        };
        set.broadcast(Q_TABLE_OFFSET, &init)?;
    }
    let trans_offset = headers[0].transitions_offset();
    let chunks: Vec<Vec<u8>> = datasets
        .iter()
        .map(|d| encode_chunk(spec, cfg, d, 0..d.len()))
        .collect();
    set.scatter(trans_offset, &chunks)?;
    breakdown.cpu_pim_s = set.stats().cpu_to_pim_seconds;
    breakdown.program_load_s = set.stats().program_load_seconds;

    // One launch trains every agent for the full episode budget.
    set.launch(&SwiftRlKernel::with_tasklets(spec, cfg.tasklets))?;
    breakdown.pim_kernel_s = set.stats().kernel_seconds;

    // Retrieval: per-agent Q-tables; no aggregation ("the aggregation
    // step would be unnecessary in this setting").
    let before = set.stats().pim_to_cpu_seconds;
    let mut q_tables = Vec::with_capacity(set.ndpus());
    set.gather_with(Q_TABLE_OFFSET, q_bytes, None, |b| {
        q_tables.push(match spec.dtype {
            DataType::Fp32 => QTable::from_bytes(ns, na, b),
            DataType::Int32 => FixedQTable::from_bytes(ns, na, scale, b).to_float(),
        });
    })?;
    breakdown.pim_cpu_s = set.stats().pim_to_cpu_seconds - before;

    Ok(MultiAgentOutcome {
        q_tables,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::dpu_seed;
    use swiftrl_env::collect::collect_per_agent;
    use swiftrl_env::frozen_lake::FrozenLake;
    use swiftrl_rl::sampling::SamplingStrategy;

    fn cfg() -> RunConfig {
        RunConfig::paper_defaults().with_episodes(10).with_tau(10)
    }

    #[test]
    fn agents_train_independently() {
        let mut env = FrozenLake::slippery_4x4();
        // Enough data per agent that every dataset contains at least one
        // goal reward (otherwise an all-zero table is the correct result).
        let datasets = collect_per_agent(&mut env, 4, 3_000, 3);
        assert!(datasets
            .iter()
            .all(|d| d.iter().any(|t| t.reward > 0.0)));
        let out =
            train_multi_agent(WorkloadSpec::q_learning_seq_int32(), &cfg(), &datasets).unwrap();
        assert_eq!(out.q_tables.len(), 4);
        assert_eq!(out.breakdown.inter_pim_s, 0.0, "no inter-agent communication");
        // Different datasets + seeds ⇒ different tables.
        assert_ne!(out.q_tables[0], out.q_tables[1]);
        assert!(out.q_tables.iter().all(|q| q.values().iter().any(|&v| v != 0.0)));
    }

    #[test]
    fn agent_result_equals_single_agent_run() {
        // Agent i's table must be exactly what a lone DPU would learn on
        // dataset i (independence property).
        let mut env = FrozenLake::slippery_4x4();
        let datasets = collect_per_agent(&mut env, 3, 300, 7);
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let out = train_multi_agent(spec, &cfg(), &datasets).unwrap();

        let mut host = QTable::zeros(16, 4);
        let qcfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 10,
        };
        swiftrl_rl::qlearning::train_offline_into(
            &mut host,
            datasets[1].transitions(),
            &qcfg,
            SamplingStrategy::Sequential,
            dpu_seed(cfg().seed, 1),
        );
        assert_eq!(out.q_tables[1], host);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_agent_list_rejected() {
        let _ = train_multi_agent(WorkloadSpec::q_learning_seq_fp32(), &cfg(), &[]);
    }

    #[test]
    fn breakdown_scales_with_agents() {
        let mut env = FrozenLake::slippery_4x4();
        let d2 = collect_per_agent(&mut env, 2, 400, 1);
        let d8 = collect_per_agent(&mut env, 8, 400, 1);
        let spec = WorkloadSpec::q_learning_seq_int32();
        let t2 = train_multi_agent(spec, &cfg(), &d2).unwrap().breakdown;
        let t8 = train_multi_agent(spec, &cfg(), &d8).unwrap().breakdown;
        // Same per-agent work ⇒ kernel time roughly flat (agent-level
        // parallelism), while CPU↔PIM bytes grow.
        assert!(t8.pim_kernel_s < t2.pim_kernel_s * 1.5);
        assert!(t8.cpu_pim_s > t2.cpu_pim_s);
    }
}
