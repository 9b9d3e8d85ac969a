//! Workload and run configuration: the paper's 12 variants and
//! hyper-parameters.

use std::fmt;
use swiftrl_pim::host::PimError;
use swiftrl_rl::fixed::{FixedScale, PAPER_SCALE};
use swiftrl_rl::sampling::{SamplingStrategy, PAPER_STRIDE};

/// Which RL algorithm the kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Tabular Q-learning (Algorithm 1).
    QLearning,
    /// SARSA (Equation 1) with ε-greedy next-action selection.
    Sarsa,
}

impl Algorithm {
    /// Short tag used in workload names.
    pub fn tag(&self) -> &'static str {
        match self {
            Algorithm::QLearning => "Q-learner",
            Algorithm::Sarsa => "SARSA",
        }
    }
}

/// Numeric representation of the kernel's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// 32-bit IEEE floating point, emulated by the runtime library.
    Fp32,
    /// 32-bit fixed point with the paper's scaling optimization.
    Int32,
}

impl DataType {
    /// Short tag used in workload names.
    pub fn tag(&self) -> &'static str {
        match self {
            DataType::Fp32 => "FP32",
            DataType::Int32 => "INT32",
        }
    }
}

/// One of the paper's workload variants: algorithm × sampling × data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// The RL algorithm.
    pub algorithm: Algorithm,
    /// The experience-sampling strategy.
    pub sampling: SamplingStrategy,
    /// The arithmetic representation.
    pub dtype: DataType,
}

impl WorkloadSpec {
    /// All 12 variants evaluated in Figures 5–6, in the paper's order.
    pub fn paper_variants() -> Vec<WorkloadSpec> {
        let mut out = Vec::with_capacity(12);
        for algorithm in [Algorithm::QLearning, Algorithm::Sarsa] {
            for sampling in [
                SamplingStrategy::Sequential,
                SamplingStrategy::Random,
                SamplingStrategy::Stride(PAPER_STRIDE),
            ] {
                for dtype in [DataType::Fp32, DataType::Int32] {
                    out.push(WorkloadSpec {
                        algorithm,
                        sampling,
                        dtype,
                    });
                }
            }
        }
        out
    }

    /// `Q-learner-SEQ-FP32`.
    pub fn q_learning_seq_fp32() -> Self {
        Self {
            algorithm: Algorithm::QLearning,
            sampling: SamplingStrategy::Sequential,
            dtype: DataType::Fp32,
        }
    }

    /// `Q-learner-SEQ-INT32`.
    pub fn q_learning_seq_int32() -> Self {
        Self {
            algorithm: Algorithm::QLearning,
            sampling: SamplingStrategy::Sequential,
            dtype: DataType::Int32,
        }
    }

    /// `SARSA-SEQ-FP32`.
    pub fn sarsa_seq_fp32() -> Self {
        Self {
            algorithm: Algorithm::Sarsa,
            sampling: SamplingStrategy::Sequential,
            dtype: DataType::Fp32,
        }
    }

    /// `SARSA-SEQ-INT32`.
    pub fn sarsa_seq_int32() -> Self {
        Self {
            algorithm: Algorithm::Sarsa,
            sampling: SamplingStrategy::Sequential,
            dtype: DataType::Int32,
        }
    }

    /// The paper's workload name, e.g. `Q-learner-RAN-INT32`.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}",
            self.algorithm.tag(),
            self.sampling.tag(),
            self.dtype.tag()
        )
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Run-level configuration: hardware allotment, schedule and
/// hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of PIM cores to train on.
    pub dpus: usize,
    /// Total training episodes `E`.
    pub episodes: u32,
    /// Synchronization period `τ`: local Q-tables are aggregated every τ
    /// episodes, so `Comm_rounds = E/τ` (§4.2).
    pub tau: u32,
    /// Learning rate α.
    pub alpha: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Exploration rate of SARSA's ε-greedy next-action selection.
    pub epsilon: f32,
    /// Fixed-point scale factor for INT32 workloads.
    pub scale_factor: i32,
    /// Base RNG seed (RAN sampling and SARSA exploration).
    pub seed: u32,
    /// Tasklets (hardware threads) per DPU. The paper pins a single
    /// tasklet per DPU ("this work focuses solely on PIM-core
    /// parallelism"); values >1 enable the tasklet-parallel kernel
    /// extension, where the chunk is sub-partitioned within each DPU and
    /// the pipeline fills up to its 1-IPC peak at ≥11 tasklets.
    pub tasklets: usize,
    /// Initial Q-value ("Initialize a Q-table with arbitrary/zero
    /// values", Algorithm 1). Zero costs no transfer (fresh MRAM reads
    /// as zero); non-zero values are broadcast to every DPU during the
    /// load phase. Pessimistic initialization (below the minimum return)
    /// is recommended for all-negative-reward environments.
    pub initial_q: f32,
}

impl RunConfig {
    /// The paper's experiment parameters: 2,000 episodes, τ = 50,
    /// α = 0.1, γ = 0.95, scale factor 10,000, 2,000 DPUs.
    pub fn paper_defaults() -> Self {
        Self {
            dpus: 2_000,
            episodes: 2_000,
            tau: 50,
            alpha: 0.1,
            gamma: 0.95,
            epsilon: 0.1,
            scale_factor: PAPER_SCALE,
            seed: 0xC0FFEE,
            tasklets: 1,
            initial_q: 0.0,
        }
    }

    /// Returns a copy with a different DPU count.
    pub fn with_dpus(mut self, dpus: usize) -> Self {
        self.dpus = dpus;
        self
    }

    /// Returns a copy with a different episode count.
    pub fn with_episodes(mut self, episodes: u32) -> Self {
        self.episodes = episodes;
        self
    }

    /// Returns a copy with a different synchronization period.
    pub fn with_tau(mut self, tau: u32) -> Self {
        self.tau = tau;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u32) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different tasklet count per DPU.
    ///
    /// # Panics
    ///
    /// Panics if `tasklets` is zero.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        assert!(tasklets > 0, "need at least one tasklet");
        self.tasklets = tasklets;
        self
    }

    /// Returns a copy with a different initial Q-value.
    pub fn with_initial_q(mut self, initial_q: f32) -> Self {
        self.initial_q = initial_q;
        self
    }

    /// The fixed-point format of INT32 workloads.
    pub fn scale(&self) -> FixedScale {
        FixedScale::new(self.scale_factor)
    }

    /// Communication rounds `E/τ`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadArgument`] if `τ` is zero or does not
    /// divide the episode count — the paper assumes divisibility ("the
    /// total number of episodes … is assumed to be divisible by τ").
    pub fn comm_rounds(&self) -> Result<u32, PimError> {
        if self.tau == 0 {
            return Err(PimError::BadArgument(
                "tau must be positive".to_string(),
            ));
        }
        if !self.episodes.is_multiple_of(self.tau) {
            return Err(PimError::BadArgument(format!(
                "episodes ({}) must be divisible by tau ({})",
                self.episodes, self.tau
            )));
        }
        Ok(self.episodes / self.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_paper_variants_with_unique_names() {
        let v = WorkloadSpec::paper_variants();
        assert_eq!(v.len(), 12);
        let names: std::collections::BTreeSet<_> = v.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 12);
        assert!(names.contains("Q-learner-SEQ-FP32"));
        assert!(names.contains("SARSA-RAN-INT32"));
        assert!(names.contains("Q-learner-STR-INT32"));
    }

    #[test]
    fn paper_defaults_match_section_4_1() {
        let c = RunConfig::paper_defaults();
        assert_eq!(c.episodes, 2_000);
        assert_eq!(c.tau, 50);
        assert_eq!(c.alpha, 0.1);
        assert_eq!(c.gamma, 0.95);
        assert_eq!(c.scale_factor, 10_000);
        assert_eq!(c.comm_rounds().unwrap(), 40);
    }

    #[test]
    fn builder_helpers() {
        let c = RunConfig::paper_defaults()
            .with_dpus(125)
            .with_episodes(100)
            .with_tau(25)
            .with_seed(9);
        assert_eq!(c.dpus, 125);
        assert_eq!(c.comm_rounds().unwrap(), 4);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn indivisible_tau_rejected() {
        let err = RunConfig::paper_defaults()
            .with_episodes(100)
            .with_tau(33)
            .comm_rounds()
            .unwrap_err();
        match err {
            PimError::BadArgument(msg) => assert!(msg.contains("divisible"), "{msg}"),
            other => panic!("expected BadArgument, got {other:?}"),
        }
    }

    #[test]
    fn zero_tau_rejected() {
        let err = RunConfig::paper_defaults().with_tau(0).comm_rounds().unwrap_err();
        assert!(matches!(err, PimError::BadArgument(_)), "{err:?}");
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(
            WorkloadSpec::q_learning_seq_fp32().to_string(),
            "Q-learner-SEQ-FP32"
        );
        assert_eq!(WorkloadSpec::sarsa_seq_int32().to_string(), "SARSA-SEQ-INT32");
    }
}
