//! # swiftrl-rl
//!
//! Tabular reinforcement-learning substrate for the SwiftRL reproduction:
//! the host-side reference implementations of everything the PIM kernels
//! compute, plus the pieces shared between host and device.
//!
//! * [`qtable`] — dense Q-tables in FP32 and fixed-point INT32, with the
//!   aggregation (averaging) the SwiftRL host performs between
//!   synchronization rounds;
//! * [`fixed`] — the paper's fixed-point scaling optimization (constant
//!   scale factor 10,000, §3.2.1);
//! * [`qlearning`] / [`sarsa`] — the update rules (Algorithm 1 and Eq. 1)
//!   and offline training loops over experience datasets;
//! * [`sampling`] — the three experience-sampling strategies: sequential
//!   (SEQ), stride-based (STR) and random (RAN);
//! * [`policy`] — random, greedy, ε-greedy and Boltzmann action selection;
//! * [`eval`] — policy evaluation by greedy rollouts (mean reward over
//!   episodes, the §4.2 training-quality metric);
//! * [`rng`] — the linear congruential generator used on both host and
//!   PIM sides.
//!
//! ## Example: offline Q-learning on FrozenLake
//!
//! ```rust
//! use swiftrl_env::frozen_lake::FrozenLake;
//! use swiftrl_env::collect::collect_random;
//! use swiftrl_rl::qlearning::{train_offline, QLearningConfig};
//! use swiftrl_rl::sampling::SamplingStrategy;
//! use swiftrl_rl::eval::evaluate_greedy;
//!
//! let mut env = FrozenLake::slippery_4x4();
//! let dataset = collect_random(&mut env, 20_000, 1);
//! let config = QLearningConfig::paper_defaults().with_episodes(50);
//! let q = train_offline(&dataset, &config, SamplingStrategy::Sequential, 7);
//! let stats = evaluate_greedy(&mut env, &q, 200, 3);
//! assert!(stats.mean_reward > 0.0); // learned something
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod eval;
pub mod fixed;
pub mod io;
pub mod online;
pub mod policy;
pub mod qlearning;
pub mod qtable;
pub mod rng;
pub mod sampling;
pub mod sarsa;

pub use qtable::{FixedQTable, QTable};
pub use sampling::SamplingStrategy;
