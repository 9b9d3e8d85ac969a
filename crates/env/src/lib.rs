//! # swiftrl-env
//!
//! Discrete reinforcement-learning environments reimplemented faithfully
//! from OpenAI Gym, plus offline experience-dataset collection — the
//! environment substrate of the SwiftRL reproduction.
//!
//! The SwiftRL paper evaluates on two Gym environments:
//!
//! * [`FrozenLake`](frozen_lake::FrozenLake) — 4×4 slippery grid,
//!   `Discrete(16)` states × `Discrete(4)` actions (8×8 also supported);
//! * [`Taxi`](taxi::Taxi) — the 5×5 taxi grid, `Discrete(500)` states ×
//!   `Discrete(6)` actions.
//!
//! [`CliffWalking`](cliff_walking::CliffWalking) is included as a third
//! environment for examples and extension experiments.
//!
//! All environments implement [`DiscreteEnv`] with tabular state/action
//! spaces, deterministic seeding, and transition semantics matching the
//! Gym reference implementations (verified in each module's tests).
//!
//! [`collect`] gathers offline datasets by logging a behaviour policy, the
//! collection procedure of SwiftRL §3.2.1 (random action selection).
//!
//! ## Example
//!
//! ```rust
//! use swiftrl_env::frozen_lake::FrozenLake;
//! use swiftrl_env::{DiscreteEnv, collect};
//!
//! let mut env = FrozenLake::slippery_4x4();
//! let dataset = collect::collect_random(&mut env, 1_000, 7);
//! assert_eq!(dataset.len(), 1_000);
//! assert_eq!(dataset.num_states(), 16);
//! assert_eq!(dataset.num_actions(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cliff_walking;
pub mod collect;
pub mod dataset;
pub mod env;
pub mod frozen_lake;
pub mod rng;
pub mod taxi;

pub use dataset::{ExperienceDataset, Transition};
pub use env::{Action, DiscreteEnv, State, Step};
pub use rng::Rng;
