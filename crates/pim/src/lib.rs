//! # swiftrl-pim
//!
//! A functional, cycle-approximate simulator of an UPMEM-class
//! Processing-In-Memory (PIM) system, built as the hardware substrate for
//! the SwiftRL reproduction (Gogineni et al., ISPASS 2024).
//!
//! The real SwiftRL evaluation runs on a 2,524-DPU UPMEM server. This crate
//! reproduces the *performance-relevant* behaviour of that platform in
//! software:
//!
//! * **DPU cores** ([`dpu::Dpu`]) — in-order, fine-grained multithreaded
//!   cores attached to DRAM banks. A single tasklet issues at most one
//!   instruction every [`config::CostModel::issue_period`] cycles, exactly
//!   the property that makes single-tasklet kernels (as used by SwiftRL)
//!   latency-bound.
//! * **Memory hierarchy** ([`memory`]) — a 64-MB MRAM bank and a 64-KB WRAM
//!   scratchpad per DPU, connected by an explicit DMA engine with a
//!   latency + per-byte cost model.
//! * **Runtime-library arithmetic emulation** ([`softfloat`], [`emul`]) —
//!   UPMEM DPUs only support native 32-bit integer add/sub and 8-bit
//!   multiply steps; 32-bit multiplies and *all* floating-point operations
//!   are emulated by the runtime library. This crate runs a bit-accurate
//!   IEEE-754 binary32 soft-float library and a shift-add integer multiply
//!   whose *executed* primitive-operation counts are charged as DPU cycles,
//!   reproducing both the results and the data-dependent cost of emulation.
//! * **Host interface** ([`host`], [`xfer`]) — CPU→PIM scatter/broadcast,
//!   PIM→CPU gather, and kernel launch, with a rank-parallel bandwidth
//!   model for transfer time. Inter-DPU communication is only possible
//!   through the host, as on the real platform.
//!
//! Kernels are written against the intrinsics API of
//! [`kernel::DpuContext`]: arithmetic goes through charging methods
//! (`add32`, `mul32`, `fadd`, `fmul`, ...), data moves via explicit
//! MRAM↔WRAM DMA, and every charged instruction advances the DPU cycle
//! counter. Execution time of a launch is `max_over_dpus(cycles) / f_clk`.
//!
//! ## Example
//!
//! ```rust
//! use swiftrl_pim::config::PimConfig;
//! use swiftrl_pim::host::PimSystem;
//! use swiftrl_pim::kernel::{DpuContext, Kernel, KernelError};
//!
//! /// Sums the u32 words previously copied into MRAM and writes the sum
//! /// back at offset 0.
//! struct SumKernel {
//!     words: usize,
//! }
//!
//! impl Kernel for SumKernel {
//!     fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
//!         let mut buf = vec![0u8; 4 * self.words];
//!         ctx.mram_read(0, &mut buf)?;
//!         let mut sum = 0u32;
//!         for w in buf.chunks_exact(4) {
//!             let v = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
//!             sum = ctx.add32(sum, v);
//!         }
//!         // MRAM DMA is 8-byte granular: widen the result word.
//!         ctx.mram_write(0, &(sum as u64).to_le_bytes())?;
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = PimSystem::new(PimConfig::default());
//! let mut set = system.alloc(4)?;
//! for dpu in 0..4 {
//!     let data: Vec<u8> = (0..16u32).flat_map(|v| v.to_le_bytes()).collect();
//!     set.copy_to(dpu, 0, &data)?;
//! }
//! set.launch(&SumKernel { words: 16 })?;
//! let out = set.copy_from(0, 0, 8)?;
//! assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 120);
//! assert!(set.stats().last_kernel_seconds > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod arena;
pub mod batch;
pub mod config;
pub mod cost;
pub mod dpu;
pub mod emul;
pub mod engine;
pub mod fastpath;
pub mod faults;
pub mod host;
pub mod kernel;
pub mod memory;
pub mod report;
pub mod sanitize;
pub mod softfloat;
pub mod stats;
pub mod xfer;

pub use arena::{FleetArena, MemoryStats};
pub use batch::{BatchContext, BatchKernel};
pub use config::{CostModel, ExecTier, PimConfig};
pub use engine::ExecutionEngine;
pub use faults::{FaultPlan, MramRegion};
pub use host::{Delivery, DpuSet, PimError, PimSystem};
pub use kernel::{DpuContext, Kernel, KernelError};
pub use report::SanitizerReport;
pub use sanitize::{FindingKind, SanitizeLevel, SanitizerFinding};
pub use stats::{LaunchStats, SystemStats};
