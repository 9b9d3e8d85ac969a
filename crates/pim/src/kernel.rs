//! Kernel programming interface: the DPU intrinsics API.
//!
//! A [`Kernel`] is the simulator's equivalent of a UPMEM DPU program. Its
//! `run` method executes once per tasklet and receives a [`DpuContext`],
//! through which *all* charged work must flow:
//!
//! * arithmetic intrinsics (`add32`, `mul32`, `fadd`, ...) compute exact
//!   results and charge instruction slots per the platform
//!   cost model ([`crate::config::CostModel`]);
//! * WRAM loads/stores go through `wram_read_*`/`wram_write_*`;
//! * MRAM is only reachable via explicit DMA (`mram_read`, `mram_write`,
//!   `mram_to_wram`, `wram_to_mram`), like on the real hardware.
//!
//! Plain Rust control flow in kernel code is free; charge it explicitly
//! with [`DpuContext::charge_control`] where a real program would execute
//! branches. The RL kernels in `swiftrl-core` follow this discipline.

use crate::config::{CostModel, EmulationCharging, ExecTier};
use crate::cost::{CycleCounter, OpClass, OpTally};
use crate::emul;
use crate::fastpath;
use crate::memory::{DpuMemory, MemoryError, MemoryKind};
use crate::sanitize::DpuSanitizer;
use crate::softfloat;
use std::fmt;

/// An emulated IEEE-754 binary32 value as raw bits.
///
/// Kernels manipulate floats exclusively through this newtype, which makes
/// it impossible to silently use host floating point inside a kernel.
///
/// ```rust
/// use swiftrl_pim::kernel::F32;
///
/// let x = F32::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!(F32::ZERO.to_f32(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F32(pub u32);

impl F32 {
    /// Positive zero.
    pub const ZERO: F32 = F32(0);
    /// One.
    pub const ONE: F32 = F32(0x3F80_0000);

    /// Converts from a host float (host-side boundary operation; free).
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        F32(v.to_bits())
    }

    /// Converts to a host float (host-side boundary operation; free).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(self.0)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// True if the value is a NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        softfloat::is_nan(self.0)
    }
}

impl fmt::Display for F32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Error returned by kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A memory access failed (out of range).
    Memory(MemoryError),
    /// Kernel-specific failure with a message.
    Fault(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Memory(e) => write!(f, "memory fault: {e}"),
            KernelError::Fault(msg) => write!(f, "kernel fault: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Memory(e) => Some(e),
            KernelError::Fault(_) => None,
        }
    }
}

impl From<MemoryError> for KernelError {
    fn from(e: MemoryError) -> Self {
        KernelError::Memory(e)
    }
}

/// A DPU program.
///
/// `run` is invoked once per launched tasklet. SwiftRL kernels use a
/// single tasklet per DPU (the paper's configuration), the default of
/// [`Kernel::tasklets`].
pub trait Kernel: Sync {
    /// Number of tasklets this kernel launches per DPU.
    fn tasklets(&self) -> usize {
        1
    }

    /// Executes the kernel body for one tasklet.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] on memory faults or kernel-defined
    /// failures; the launch reports it to the host.
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError>;

    /// The fused batched form of this kernel, if it has one and the
    /// current configuration makes it eligible.
    ///
    /// Under [`ExecTier::Batched`] the
    /// DPU executor asks for this before falling back to the
    /// per-intrinsic `run` loop; `None` (the default) means the kernel
    /// always executes per-intrinsic, which is correct for every kernel.
    fn batch(&self) -> Option<&dyn crate::batch::BatchKernel> {
        None
    }
}

/// Pre-resolved arithmetic dispatch mode: the cross product of
/// [`ExecTier`] and [`EmulationCharging`] that matters per op, computed
/// once per context so the per-intrinsic hot path is one enum match.
#[derive(Debug, Clone, Copy)]
enum ArithMode {
    /// Instrumented reference loops; charging per [`EmulationCharging`].
    Reference,
    /// Fast tier under calibrated charging: native result, constant
    /// charge, no tally computed at all.
    FastCalibrated,
    /// Fast tier under tally charging: native result, closed-form tally.
    FastTally,
}

/// Execution context handed to a kernel tasklet: the gateway to the DPU's
/// memories, arithmetic units, and cycle accounting.
#[derive(Debug)]
pub struct DpuContext<'a> {
    dpu_id: usize,
    tasklet_id: usize,
    mem: &'a mut DpuMemory,
    cost: &'a CostModel,
    arith: ArithMode,
    counter: CycleCounter,
    /// Runtime sanitizer hook; `None` when sanitization is off. Strictly
    /// observation-only — it never alters memory contents or charges.
    san: Option<&'a mut DpuSanitizer>,
}

impl<'a> DpuContext<'a> {
    /// Creates a context (used by the DPU executor).
    pub(crate) fn new(
        dpu_id: usize,
        tasklet_id: usize,
        mem: &'a mut DpuMemory,
        cost: &'a CostModel,
    ) -> Self {
        // Under the batched tier, any launch that does not (or cannot)
        // take the fused path — ineligible kernel, sanitizer on, fault
        // plan touching the launch, or a declined batch — executes
        // per-intrinsic on the fast modes, which are proven bit- and
        // cycle-identical to the reference.
        let arith = match (cost.arith_tier, cost.emulation_charging) {
            (ExecTier::Reference, _) => ArithMode::Reference,
            (ExecTier::Fast | ExecTier::Batched, EmulationCharging::Calibrated) => {
                ArithMode::FastCalibrated
            }
            (ExecTier::Fast | ExecTier::Batched, EmulationCharging::Tally) => ArithMode::FastTally,
        };
        Self {
            dpu_id,
            tasklet_id,
            mem,
            cost,
            arith,
            counter: CycleCounter::new(),
            san: None,
        }
    }

    /// Attaches a runtime sanitizer to this context (builder-style; used by
    /// the DPU executor when the configured [`crate::sanitize::SanitizeLevel`]
    /// enables checking).
    pub(crate) fn with_sanitizer(mut self, san: &'a mut DpuSanitizer) -> Self {
        self.san = Some(san);
        self
    }

    /// Index of this DPU within its set.
    pub fn dpu_id(&self) -> usize {
        self.dpu_id
    }

    /// Index of this tasklet within the DPU.
    pub fn tasklet_id(&self) -> usize {
        self.tasklet_id
    }

    /// The platform cost model (read-only).
    pub fn cost_model(&self) -> &CostModel {
        self.cost
    }

    /// Cycle counter accumulated so far by this tasklet.
    pub fn counter(&self) -> &CycleCounter {
        &self.counter
    }

    pub(crate) fn into_counter(self) -> CycleCounter {
        self.counter
    }

    // ---- explicit charging -------------------------------------------------

    /// Charges `n` native ALU instruction slots.
    #[inline]
    pub fn charge_alu(&mut self, n: u64) {
        self.counter.charge(OpClass::Alu, n);
    }

    /// Charges `n` control-flow instruction slots (branches, calls).
    #[inline]
    pub fn charge_control(&mut self, n: u64) {
        self.counter.charge(OpClass::Control, n);
    }

    #[inline]
    fn charge_int_emul(&mut self, calibrated: u64, tally: &OpTally) {
        let n = match self.cost.emulation_charging {
            EmulationCharging::Calibrated => calibrated,
            EmulationCharging::Tally => tally.count(),
        };
        self.counter.charge(OpClass::IntEmul, n);
    }

    #[inline]
    fn charge_float_emul(&mut self, calibrated: u64, tally: &OpTally) {
        let n = match self.cost.emulation_charging {
            EmulationCharging::Calibrated => calibrated,
            EmulationCharging::Tally => tally.count() + self.cost.ops.fp_call_overhead_slots,
        };
        self.counter.charge(OpClass::FloatEmul, n);
    }

    /// Fast-tier integer charge: the slot count is already fully resolved
    /// (calibrated constant or closed-form tally).
    #[inline]
    fn charge_int_slots(&mut self, n: u64) {
        self.counter.charge(OpClass::IntEmul, n);
    }

    /// Fast-tier float charge; callers in tally mode have already added
    /// [`crate::config::OpCosts::fp_call_overhead_slots`].
    #[inline]
    fn charge_float_slots(&mut self, n: u64) {
        self.counter.charge(OpClass::FloatEmul, n);
    }

    // ---- native integer ops ------------------------------------------------

    /// Native wrapping 32-bit add (1 slot).
    #[inline]
    pub fn add32(&mut self, a: u32, b: u32) -> u32 {
        self.charge_alu(1);
        a.wrapping_add(b)
    }

    /// Native wrapping 32-bit subtract (1 slot).
    #[inline]
    pub fn sub32(&mut self, a: u32, b: u32) -> u32 {
        self.charge_alu(1);
        a.wrapping_sub(b)
    }

    /// Native signed wrapping add (1 slot).
    #[inline]
    pub fn iadd(&mut self, a: i32, b: i32) -> i32 {
        self.charge_alu(1);
        a.wrapping_add(b)
    }

    /// Native signed wrapping subtract (1 slot).
    #[inline]
    pub fn isub(&mut self, a: i32, b: i32) -> i32 {
        self.charge_alu(1);
        a.wrapping_sub(b)
    }

    /// Native shift left (1 slot).
    #[inline]
    pub fn shl(&mut self, a: u32, n: u32) -> u32 {
        self.charge_alu(1);
        a.wrapping_shl(n)
    }

    /// Native logical shift right (1 slot).
    #[inline]
    pub fn shr(&mut self, a: u32, n: u32) -> u32 {
        self.charge_alu(1);
        a.wrapping_shr(n)
    }

    /// Native signed compare `a < b` (1 slot).
    #[inline]
    pub fn ilt(&mut self, a: i32, b: i32) -> bool {
        self.charge_alu(1);
        a < b
    }

    /// Native signed compare `a > b` (1 slot).
    #[inline]
    pub fn igt(&mut self, a: i32, b: i32) -> bool {
        self.charge_alu(1);
        a > b
    }

    // ---- emulated integer ops ----------------------------------------------

    /// Emulated signed 32×32→32 multiply (runtime-library shift-and-add).
    #[inline]
    pub fn mul32(&mut self, a: i32, b: i32) -> i32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = emul::imul32(a, b, &mut t);
                self.charge_int_emul(self.cost.ops.mul32_slots, &t);
                r
            }
            ArithMode::FastCalibrated => {
                self.charge_int_slots(self.cost.ops.mul32_slots);
                fastpath::imul32(a, b)
            }
            ArithMode::FastTally => {
                self.charge_int_slots(fastpath::imul32_tally(a, b));
                fastpath::imul32(a, b)
            }
        }
    }

    /// Emulated signed 32×32→64 multiply.
    #[inline]
    pub fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = emul::imul32_wide(a, b, &mut t);
                self.charge_int_emul(self.cost.ops.mul64_slots, &t);
                r
            }
            ArithMode::FastCalibrated => {
                self.charge_int_slots(self.cost.ops.mul64_slots);
                fastpath::imul32_wide(a, b)
            }
            ArithMode::FastTally => {
                self.charge_int_slots(fastpath::imul32_wide_tally(a, b));
                fastpath::imul32_wide(a, b)
            }
        }
    }

    /// Emulated signed 32-bit divide (truncating).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, mirroring the hardware trap.
    #[inline]
    pub fn div32(&mut self, n: i32, d: i32) -> i32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let (q, _) = emul::idiv32(n, d, &mut t);
                self.charge_int_emul(self.cost.ops.div32_slots, &t);
                q
            }
            ArithMode::FastCalibrated => {
                let (q, _) = fastpath::idiv32(n, d);
                self.charge_int_slots(self.cost.ops.div32_slots);
                q
            }
            ArithMode::FastTally => {
                let (q, _) = fastpath::idiv32(n, d);
                self.charge_int_slots(fastpath::idiv32_tally(n, d));
                q
            }
        }
    }

    /// Emulated signed 64-by-32 divide (truncating), used to descale wide
    /// fixed-point products.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[inline]
    pub fn div_wide(&mut self, n: i64, d: i32) -> i64 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let q = emul::idiv64(n, d, &mut t);
                self.charge_int_emul(self.cost.ops.div64_slots, &t);
                q
            }
            ArithMode::FastCalibrated => {
                let q = fastpath::idiv64(n, d);
                self.charge_int_slots(self.cost.ops.div64_slots);
                q
            }
            ArithMode::FastTally => {
                let q = fastpath::idiv64(n, d);
                self.charge_int_slots(fastpath::idiv64_tally(n, d));
                q
            }
        }
    }

    // ---- emulated floating point -------------------------------------------

    /// Emulated FP32 add.
    #[inline]
    pub fn fadd(&mut self, a: F32, b: F32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_add(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fadd_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fadd_slots);
                F32(fastpath::f32_add(a.0, b.0))
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_add_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::f32_add(a.0, b.0))
            }
        }
    }

    /// Emulated FP32 subtract.
    #[inline]
    pub fn fsub(&mut self, a: F32, b: F32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_sub(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fadd_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fadd_slots);
                F32(fastpath::f32_sub(a.0, b.0))
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_sub_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::f32_sub(a.0, b.0))
            }
        }
    }

    /// Emulated FP32 multiply.
    #[inline]
    pub fn fmul(&mut self, a: F32, b: F32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_mul(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fmul_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fmul_slots);
                F32(fastpath::f32_mul(a.0, b.0))
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_mul_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::f32_mul(a.0, b.0))
            }
        }
    }

    /// Emulated FP32 divide.
    #[inline]
    pub fn fdiv(&mut self, a: F32, b: F32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_div(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fdiv_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fdiv_slots);
                F32(fastpath::f32_div(a.0, b.0))
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_div_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::f32_div(a.0, b.0))
            }
        }
    }

    /// Emulated FP32 `a > b` (false on NaN).
    #[inline]
    pub fn fgt(&mut self, a: F32, b: F32) -> bool {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_gt(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fcmp_slots, &t);
                r
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fcmp_slots);
                fastpath::f32_gt(a.0, b.0)
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_cmp_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                fastpath::f32_gt(a.0, b.0)
            }
        }
    }

    /// Emulated FP32 `maxNum(a, b)`.
    #[inline]
    pub fn fmax(&mut self, a: F32, b: F32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_max(a.0, b.0, &mut t);
                self.charge_float_emul(self.cost.ops.fcmp_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fcmp_slots);
                F32(fastpath::f32_max(a.0, b.0))
            }
            ArithMode::FastTally => {
                let slots =
                    fastpath::f32_max_tally(a.0, b.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::f32_max(a.0, b.0))
            }
        }
    }

    /// Emulated i32 → FP32 conversion.
    #[inline]
    pub fn i32_to_f32(&mut self, v: i32) -> F32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::i32_to_f32(v, &mut t);
                self.charge_float_emul(self.cost.ops.fconv_slots, &t);
                F32(r)
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fconv_slots);
                F32(fastpath::i32_to_f32(v))
            }
            ArithMode::FastTally => {
                let slots = fastpath::i32_to_f32_tally(v) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                F32(fastpath::i32_to_f32(v))
            }
        }
    }

    /// Emulated FP32 → i32 conversion (truncating; 0 on NaN, saturating).
    #[inline]
    pub fn f32_to_i32(&mut self, v: F32) -> i32 {
        match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let r = softfloat::f32_to_i32(v.0, &mut t);
                self.charge_float_emul(self.cost.ops.fconv_slots, &t);
                r
            }
            ArithMode::FastCalibrated => {
                self.charge_float_slots(self.cost.ops.fconv_slots);
                fastpath::f32_to_i32(v.0)
            }
            ArithMode::FastTally => {
                let slots = fastpath::f32_to_i32_tally(v.0) + self.cost.ops.fp_call_overhead_slots;
                self.charge_float_slots(slots);
                fastpath::f32_to_i32(v.0)
            }
        }
    }

    // ---- random numbers ----------------------------------------------------

    /// Advances an LCG state in-register: one emulated multiply + one add,
    /// exactly the custom `rand()` replacement SwiftRL implements (§3.2.1).
    #[inline]
    pub fn lcg_next(&mut self, state: &mut u32) -> u32 {
        let m = match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let m = emul::umul32_wide(*state, emul::Lcg32::MULTIPLIER, &mut t) as u32;
                self.charge_int_emul(self.cost.ops.mul32_slots, &t);
                m
            }
            ArithMode::FastCalibrated => {
                self.charge_int_slots(self.cost.ops.mul32_slots);
                fastpath::umul32_wide(*state, emul::Lcg32::MULTIPLIER) as u32
            }
            ArithMode::FastTally => {
                let slots = fastpath::umul32_wide_tally(*state, emul::Lcg32::MULTIPLIER);
                self.charge_int_slots(slots);
                fastpath::umul32_wide(*state, emul::Lcg32::MULTIPLIER) as u32
            }
        };
        self.charge_alu(1);
        *state = m.wrapping_add(emul::Lcg32::INCREMENT);
        *state
    }

    /// Uniform value in `[0, bound)` from an LCG state (multiply-shift
    /// reduction: one extra emulated wide multiply plus a shift).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn lcg_below(&mut self, state: &mut u32, bound: u32) -> u32 {
        assert!(bound > 0, "lcg_below bound must be positive");
        let raw = self.lcg_next(state);
        let wide = match self.arith {
            ArithMode::Reference => {
                let mut t = OpTally::new();
                let wide = emul::umul32_wide(raw, bound, &mut t);
                self.charge_int_emul(self.cost.ops.mul64_slots, &t);
                wide
            }
            ArithMode::FastCalibrated => {
                self.charge_int_slots(self.cost.ops.mul64_slots);
                fastpath::umul32_wide(raw, bound)
            }
            ArithMode::FastTally => {
                let slots = fastpath::umul32_wide_tally(raw, bound);
                self.charge_int_slots(slots);
                fastpath::umul32_wide(raw, bound)
            }
        };
        self.charge_alu(1);
        (wide >> 32) as u32
    }

    // ---- WRAM access ---------------------------------------------------

    /// Loads a `u32` from WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_read_u32(&mut self, offset: usize) -> Result<u32, KernelError> {
        self.counter.charge(OpClass::WramAccess, 1);
        if let Some(san) = self.san.as_mut() {
            san.note_wram_read(self.tasklet_id, offset, 4);
        }
        Ok(self.mem.wram.read_u32(offset)?)
    }

    /// Stores a `u32` to WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_write_u32(&mut self, offset: usize, value: u32) -> Result<(), KernelError> {
        self.counter.charge(OpClass::WramAccess, 1);
        if let Some(san) = self.san.as_mut() {
            san.note_wram_write(self.tasklet_id, offset, 4);
        }
        Ok(self.mem.wram.write_u32(offset, value)?)
    }

    /// Loads an `i32` from WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_read_i32(&mut self, offset: usize) -> Result<i32, KernelError> {
        Ok(self.wram_read_u32(offset)? as i32)
    }

    /// Stores an `i32` to WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_write_i32(&mut self, offset: usize, value: i32) -> Result<(), KernelError> {
        self.wram_write_u32(offset, value as u32)
    }

    /// Loads an emulated float from WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_read_f32(&mut self, offset: usize) -> Result<F32, KernelError> {
        Ok(F32(self.wram_read_u32(offset)?))
    }

    /// Stores an emulated float to WRAM (1 slot).
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity.
    #[inline]
    pub fn wram_write_f32(&mut self, offset: usize, value: F32) -> Result<(), KernelError> {
        self.wram_write_u32(offset, value.0)
    }

    // ---- MRAM DMA ------------------------------------------------------

    /// Enforces the DMA engine's alignment contract: offset and length must
    /// be multiples of the configured granule (8 bytes on UPMEM), exactly
    /// as on real hardware. Also reports the attempt to the sanitizer.
    fn check_dma_align(
        &mut self,
        kind: MemoryKind,
        offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        let granule = self.cost.dma_granule_bytes.max(1);
        // Mask test for the (default) power-of-two granule; the modulo
        // pair below is the same predicate for arbitrary granules.
        let misaligned = if granule.is_power_of_two() {
            (offset | len) & (granule - 1) != 0
        } else {
            !offset.is_multiple_of(granule) || !len.is_multiple_of(granule)
        };
        if misaligned {
            if let Some(san) = self.san.as_mut() {
                san.note_misaligned(self.tasklet_id, kind, offset, len);
            }
            return Err(KernelError::Memory(MemoryError::Misaligned {
                offset,
                len,
                granule,
                kind,
            }));
        }
        Ok(())
    }

    /// DMA-reads `dst.len()` bytes from MRAM into a host buffer standing in
    /// for registers/WRAM temporaries. Charged as one DMA transfer.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds MRAM capacity or is not
    /// aligned to the DMA granule.
    pub fn mram_read(&mut self, offset: usize, dst: &mut [u8]) -> Result<(), KernelError> {
        self.check_dma_align(MemoryKind::Mram, offset, dst.len())?;
        let cycles = self.cost.dma_cycles(dst.len());
        self.counter.charge_dma(dst.len() as u64, cycles);
        if let Some(san) = self.san.as_mut() {
            san.note_mram_read(self.tasklet_id, offset, dst.len());
        }
        Ok(self.mem.mram.read(offset, dst)?)
    }

    /// DMA-writes a buffer to MRAM. Charged as one DMA transfer.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds MRAM capacity or is not
    /// aligned to the DMA granule.
    pub fn mram_write(&mut self, offset: usize, src: &[u8]) -> Result<(), KernelError> {
        self.check_dma_align(MemoryKind::Mram, offset, src.len())?;
        let cycles = self.cost.dma_cycles(src.len());
        self.counter.charge_dma(src.len() as u64, cycles);
        if let Some(san) = self.san.as_mut() {
            san.note_mram_write(self.tasklet_id, offset, src.len());
        }
        Ok(self.mem.mram.write(offset, src)?)
    }

    /// DMA transfer MRAM → WRAM of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if either range exceeds its bank capacity or
    /// either offset (or the length) is not aligned to the DMA granule.
    pub fn mram_to_wram(
        &mut self,
        mram_offset: usize,
        wram_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_dma_align(MemoryKind::Mram, mram_offset, len)?;
        self.check_dma_align(MemoryKind::Wram, wram_offset, len)?;
        self.mem.copy_mram_to_wram(mram_offset, wram_offset, len)?;
        let cycles = self.cost.dma_cycles(len);
        self.counter.charge_dma(len as u64, cycles);
        if let Some(san) = self.san.as_mut() {
            san.note_mram_read(self.tasklet_id, mram_offset, len);
            san.note_wram_write(self.tasklet_id, wram_offset, len);
        }
        Ok(())
    }

    /// DMA transfer WRAM → MRAM of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if either range exceeds its bank capacity or
    /// either offset (or the length) is not aligned to the DMA granule.
    pub fn wram_to_mram(
        &mut self,
        wram_offset: usize,
        mram_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_dma_align(MemoryKind::Wram, wram_offset, len)?;
        self.check_dma_align(MemoryKind::Mram, mram_offset, len)?;
        self.mem.copy_wram_to_mram(wram_offset, mram_offset, len)?;
        let cycles = self.cost.dma_cycles(len);
        self.counter.charge_dma(len as u64, cycles);
        if let Some(san) = self.san.as_mut() {
            san.note_wram_read(self.tasklet_id, wram_offset, len);
            san.note_mram_write(self.tasklet_id, mram_offset, len);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimConfig;

    fn ctx_fixture() -> (DpuMemory, CostModel) {
        let cfg = PimConfig::default();
        (DpuMemory::new(1 << 20, 64 << 10), cfg.cost)
    }

    #[test]
    fn native_ops_charge_one_slot() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        assert_eq!(ctx.add32(2, 3), 5);
        assert_eq!(ctx.isub(2, 5), -3);
        assert_eq!(ctx.counter().alu_slots, 2);
    }

    #[test]
    fn emulated_mul_charges_calibrated_slots() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        assert_eq!(ctx.mul32(9_500, 2_000), 19_000_000);
        assert_eq!(ctx.counter().int_emul_slots, cost.ops.mul32_slots);
    }

    #[test]
    fn tally_mode_charges_data_dependent_slots() {
        let (mut mem, mut cost) = ctx_fixture();
        cost.emulation_charging = EmulationCharging::Tally;
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        ctx.mul32(3, 0x7FFF_FFFF);
        let small = ctx.counter().int_emul_slots;
        ctx.mul32(0x7FFF_FFF1, 0x7FFF_FFFF);
        let big = ctx.counter().int_emul_slots - small;
        assert!(small < big, "tally mode should be data dependent");
    }

    #[test]
    fn float_ops_compute_ieee_results_and_charge() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        let r = ctx.fmul(F32::from_f32(0.1), F32::from_f32(0.95));
        assert_eq!(r.to_f32(), 0.1f32 * 0.95f32);
        let r = ctx.fadd(r, F32::from_f32(1.0));
        assert_eq!(r.to_f32(), 0.1f32 * 0.95f32 + 1.0f32);
        assert_eq!(
            ctx.counter().float_emul_slots,
            cost.ops.fmul_slots + cost.ops.fadd_slots
        );
    }

    #[test]
    fn fp32_update_costs_several_times_int32_update() {
        // The microcosm of the paper's FP32-vs-INT32 result: one Q-value
        // update in each representation, same context.
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);

        // FP32: q += alpha * (r + gamma * maxq - q)
        let (q, r, maxq) = (
            F32::from_f32(0.5),
            F32::from_f32(1.0),
            F32::from_f32(0.8),
        );
        let (alpha, gamma) = (F32::from_f32(0.1), F32::from_f32(0.95));
        let discounted = ctx.fmul(gamma, maxq);
        let target = ctx.fadd(r, discounted);
        let delta = ctx.fsub(target, q);
        let scaled = ctx.fmul(alpha, delta);
        let _ = ctx.fadd(q, scaled);
        let fp_slots = ctx.counter().total_slots();

        let mut ctx2 = DpuContext::new(0, 0, &mut mem, &cost);
        // INT32 fixed point, scale 10_000.
        let (qs, rs, maxqs) = (5_000i32, 10_000i32, 8_000i32);
        let (alphas, gammas, scale) = (1_000i32, 9_500i32, 10_000i32);
        let t1 = ctx2.mul_wide(gammas, maxqs);
        let t1 = ctx2.div_wide(t1, scale) as i32;
        let target = ctx2.iadd(rs, t1);
        let delta = ctx2.isub(target, qs);
        let t2 = ctx2.mul_wide(alphas, delta);
        let t2 = ctx2.div_wide(t2, scale) as i32;
        let _ = ctx2.iadd(qs, t2);
        let int_slots = ctx2.counter().total_slots();

        let ratio = fp_slots as f64 / int_slots as f64;
        assert!(
            ratio > 2.5,
            "FP32 update should far out-cost INT32: fp={fp_slots} int={int_slots} ratio={ratio:.2}"
        );
    }

    #[test]
    fn wram_round_trip_and_charges() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        ctx.wram_write_f32(0, F32::from_f32(3.5)).unwrap();
        assert_eq!(ctx.wram_read_f32(0).unwrap().to_f32(), 3.5);
        assert_eq!(ctx.counter().wram_slots, 2);
    }

    #[test]
    fn wram_capacity_enforced() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        let cap = 64 << 10;
        assert!(ctx.wram_write_u32(cap - 4, 7).is_ok());
        assert!(matches!(
            ctx.wram_write_u32(cap - 3, 7),
            Err(KernelError::Memory(_))
        ));
    }

    #[test]
    fn dma_moves_data_and_charges_cycles() {
        let (mut mem, cost) = ctx_fixture();
        mem.mram.write(64, &[9, 8, 7, 6, 5, 4, 3, 2]).unwrap();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        ctx.mram_to_wram(64, 0, 8).unwrap();
        assert_eq!(ctx.wram_read_u32(0).unwrap(), u32::from_le_bytes([9, 8, 7, 6]));
        // One DMA of 8 bytes + one WRAM load.
        assert_eq!(ctx.counter().dma_bytes, 8);
        assert_eq!(ctx.counter().dma_cycles, cost.dma_cycles(8));
    }

    #[test]
    fn lcg_matches_host_generator() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        let mut dev_state = 42u32;
        let mut host = emul::Lcg32::new(42);
        for _ in 0..100 {
            assert_eq!(ctx.lcg_next(&mut dev_state), host.next_u32());
        }
    }

    #[test]
    fn lcg_below_stays_in_bounds() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        let mut s = 7u32;
        for _ in 0..1000 {
            assert!(ctx.lcg_below(&mut s, 6) < 6);
        }
    }

    #[test]
    fn misaligned_dma_is_rejected_before_charging() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        // Misaligned offset.
        assert!(matches!(
            ctx.mram_write(3, &[0u8; 8]),
            Err(KernelError::Memory(MemoryError::Misaligned { .. }))
        ));
        // Misaligned length.
        let mut buf = [0u8; 4];
        assert!(matches!(
            ctx.mram_read(0, &mut buf),
            Err(KernelError::Memory(MemoryError::Misaligned { .. }))
        ));
        // Misaligned WRAM side of a bank-to-bank transfer.
        assert!(matches!(
            ctx.mram_to_wram(0, 4, 8),
            Err(KernelError::Memory(MemoryError::Misaligned {
                kind: MemoryKind::Wram,
                ..
            }))
        ));
        assert!(matches!(
            ctx.wram_to_mram(0, 4, 8),
            Err(KernelError::Memory(MemoryError::Misaligned {
                kind: MemoryKind::Mram,
                ..
            }))
        ));
        // Rejected transfers charge nothing.
        assert_eq!(ctx.counter().dma_bytes, 0);
        assert_eq!(ctx.counter().dma_cycles, 0);
    }

    #[test]
    fn sanitizer_hook_observes_accesses_without_changing_results() {
        let (mut mem, cost) = ctx_fixture();
        let mut san = DpuSanitizer::new(0);
        san.begin_launch(crate::sanitize::SanitizeLevel::Memory, 1);
        {
            let mut ctx = DpuContext::new(0, 0, &mut mem, &cost).with_sanitizer(&mut san);
            // Read-before-write: flagged, but still returns the
            // simulator's deterministic zero-fill.
            assert_eq!(ctx.wram_read_u32(16).unwrap(), 0);
            ctx.wram_write_u32(16, 7).unwrap();
            assert_eq!(ctx.wram_read_u32(16).unwrap(), 7);
            // A misaligned DMA is both a finding and a hard error.
            assert!(ctx.mram_write(1, &[0u8; 8]).is_err());
            assert_eq!(ctx.counter().wram_slots, 3);
        }
        san.finish_launch();
        let (findings, dropped) = san.drain();
        assert_eq!(dropped, 0);
        assert_eq!(findings.len(), 2);
        assert!(matches!(
            findings[0].kind,
            crate::sanitize::FindingKind::UninitWramRead { offset: 16, len: 4 }
        ));
        assert!(matches!(
            findings[1].kind,
            crate::sanitize::FindingKind::MisalignedDma {
                kind: MemoryKind::Mram,
                offset: 1,
                len: 8
            }
        ));
        assert_eq!(san.wram_initialized_bytes(), 4);
    }
}
