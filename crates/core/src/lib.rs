//! # swiftrl-core
//!
//! The SwiftRL system (Gogineni et al., ISPASS 2024): offline tabular
//! reinforcement learning — Q-learning and SARSA — accelerated on a
//! processing-in-memory architecture, reproduced on the simulated
//! UPMEM-class platform of [`swiftrl_pim`].
//!
//! The execution model follows the paper's Figure 4:
//!
//! 1. the experience dataset is partitioned into per-DPU chunks and
//!    scattered into the DPUs' MRAM banks ([`partition`], **CPU→PIM**);
//! 2. every DPU trains a local Q-table over its chunk with a
//!    single-tasklet kernel ([`kernels`], **PIM kernel**), in one of 12
//!    workload variants: {Q-learning, SARSA} × {FP32, INT32 fixed-point}
//!    × {SEQ, STR, RAN} sampling ([`config`]);
//! 3. every `τ` episodes the host gathers the local Q-tables, averages
//!    them and broadcasts the aggregate back (**inter-PIM-core
//!    communication**, host-mediated as on the real hardware);
//! 4. after the final round the host retrieves and aggregates the final
//!    Q-table (**PIM→CPU**).
//!
//! [`runner::PimRunner`] drives this loop and reports a
//! [`breakdown::TimeBreakdown`] with exactly the four components of the
//! paper's Figures 5–6. [`multi_agent`] implements the multi-agent
//! variant (one independent learner per DPU, no aggregation).
//! [`backend::TrainingBackend`] puts the PIM runner, the multi-agent
//! runner, and the CPU/GPU baselines behind one
//! `train(dataset) → report` interface, so experiment binaries
//! enumerate comparators instead of hand-rolling per-executor loops.
//!
//! ## Example
//!
//! ```rust
//! use swiftrl_core::config::{RunConfig, WorkloadSpec};
//! use swiftrl_core::runner::PimRunner;
//! use swiftrl_env::collect::collect_random;
//! use swiftrl_env::frozen_lake::FrozenLake;
//! use swiftrl_rl::eval::evaluate_greedy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut env = FrozenLake::slippery_4x4();
//! let dataset = collect_random(&mut env, 4_000, 1);
//!
//! let spec = WorkloadSpec::q_learning_seq_int32();
//! let cfg = RunConfig::paper_defaults()
//!     .with_dpus(4)
//!     .with_episodes(100)
//!     .with_tau(50);
//!
//! let outcome = PimRunner::new(spec, cfg)?.run(&dataset)?;
//! let stats = evaluate_greedy(&mut env, &outcome.q_table, 100, 2);
//! assert!(stats.mean_reward >= 0.0);
//! assert!(outcome.breakdown.total_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod backend;
pub mod breakdown;
pub mod config;
pub mod kernels;
pub mod layout;
pub mod multi_agent;
pub mod partition;
pub mod resilience;
pub mod runner;
pub mod service;

pub use backend::{BackendStats, MultiAgentRunner, TrainingBackend, TrainingReport};
pub use breakdown::TimeBreakdown;
pub use config::{Algorithm, DataType, RunConfig, WorkloadSpec};
pub use resilience::{ResilienceConfig, ResilienceStats};
pub use runner::{PimRunner, RunOutcome};
pub use service::{
    CancelToken, JobHandle, JobOutcome, JobRequest, JobStatus, ServiceError, TrainingService,
};
