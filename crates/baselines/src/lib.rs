//! # swiftrl-baselines
//!
//! The comparison systems of the SwiftRL evaluation (§4.4):
//!
//! * [`cpu_exec`] — *real*, runnable multithreaded CPU baselines:
//!   **CPU-V1** (threads share one Q-table) and **CPU-V2** (threads train
//!   local Q-tables on disjoint chunks, aggregated at the end), matching
//!   the paper's two CPU versions;
//! * [`cpu_model`] / [`gpu_model`] — analytical execution-time models of
//!   the Xeon Silver 4110 and RTX 3090 from Table 1, used when comparing
//!   against the *simulated* PIM platform so that both sides live in the
//!   same modelled time base (the host running this reproduction is not a
//!   Xeon 4110, and no CUDA GPU is available offline — see DESIGN.md);
//! * [`specs`] — the Table 1 machine descriptions;
//! * [`roofline`] — the roofline model of Figure 2 (arithmetic intensity
//!   of the RL workloads against the i7-9700K's compute and DRAM roofs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::disallowed_types, reason = "the CPU baselines measure host wall-clock time by design")]

pub mod cpu_exec;
pub mod cpu_model;
pub mod energy;
pub mod gpu_model;
pub mod roofline;
pub mod specs;

pub use cpu_exec::{train_cpu_v1, train_cpu_v2};
pub use cpu_model::{CpuModel, CpuVersion};
pub use gpu_model::GpuModel;
pub use specs::MachineSpec;
