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

/// The arithmetic mode of the emulated intrinsics: the cross product of
/// [`ExecTier`] and [`EmulationCharging`] that matters per op.
///
/// A context resolves its mode once. Each public emulated intrinsic
/// (`fadd`, `mul_wide`, `lcg_next`, ...) matches on it and calls its
/// mode-fixed version (`fadd_in`, `mul_wide_in`, ...), whose mode is a
/// type parameter. A kernel can instead match on
/// [`DpuContext::arith_mode`] once per launch and call the mode-fixed
/// versions, so that its loop makes no per-op dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithMode {
    /// Instrumented reference loops; charging per [`EmulationCharging`].
    Reference,
    /// Fast tier under calibrated charging: native result, constant
    /// charge, no tally computed at all.
    FastCalibrated,
    /// Fast tier under tally charging: native result, closed-form tally.
    FastTally,
}

impl ArithMode {
    /// The mode a cost model selects.
    ///
    /// Under the batched tier, any launch that does not (or cannot) take
    /// the fused path — ineligible kernel, sanitizer on, fault plan
    /// touching the launch, or a declined batch — executes per-intrinsic
    /// on the fast modes, which are proven bit- and cycle-identical to
    /// the reference.
    fn of(cost: &CostModel) -> Self {
        match (cost.arith_tier, cost.emulation_charging) {
            (ExecTier::Reference, _) => ArithMode::Reference,
            (ExecTier::Fast | ExecTier::Batched, EmulationCharging::Calibrated) => {
                ArithMode::FastCalibrated
            }
            (ExecTier::Fast | ExecTier::Batched, EmulationCharging::Tally) => ArithMode::FastTally,
        }
    }
}

/// An [`ArithMode`] fixed at compile time: the type parameter of the
/// mode-fixed intrinsics. The three markers in [`arith`] implement it.
pub trait Arith {
    /// The mode.
    const MODE: ArithMode;
}

/// One marker type per [`ArithMode`], for the mode-fixed intrinsics.
pub mod arith {
    use super::{Arith, ArithMode};

    /// [`ArithMode::Reference`].
    #[derive(Debug, Clone, Copy)]
    pub struct Reference;
    /// [`ArithMode::FastCalibrated`].
    #[derive(Debug, Clone, Copy)]
    pub struct FastCalibrated;
    /// [`ArithMode::FastTally`].
    #[derive(Debug, Clone, Copy)]
    pub struct FastTally;

    impl Arith for Reference {
        const MODE: ArithMode = ArithMode::Reference;
    }
    impl Arith for FastCalibrated {
        const MODE: ArithMode = ArithMode::FastCalibrated;
    }
    impl Arith for FastTally {
        const MODE: ArithMode = ArithMode::FastTally;
    }
}

/// Calls the mode-fixed intrinsic `$op` for the context's runtime mode:
/// the body of every public emulated intrinsic.
macro_rules! in_mode {
    ($ctx:ident . $op:ident ( $($arg:expr),* )) => {
        match $ctx.arith {
            ArithMode::Reference => $ctx.$op::<arith::Reference>($($arg),*),
            ArithMode::FastCalibrated => $ctx.$op::<arith::FastCalibrated>($($arg),*),
            ArithMode::FastTally => $ctx.$op::<arith::FastTally>($($arg),*),
        }
    };
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
    /// The last DMA length charged and its [`CostModel::dma_cycles`]:
    /// a kernel repeats one transfer size (a record, a batch), so the
    /// rounding is redone only when the length changes.
    dma_memo: (usize, u64),
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
        Self {
            dpu_id,
            tasklet_id,
            mem,
            cost,
            arith: ArithMode::of(cost),
            counter: CycleCounter::new(),
            dma_memo: (0, cost.dma_cycles(0)),
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

    /// The arithmetic mode of the emulated intrinsics, resolved from the
    /// cost model when the context was made.
    pub fn arith_mode(&self) -> ArithMode {
        self.arith
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

    // The mode-fixed intrinsics a kernel's per-update path calls are
    // forced inline: once the kernel's update loop is one function, the
    // heuristics leave the larger of them out of line, and each emulated
    // op then costs a call. Each is one call of `int_op` or `float_op`,
    // whose mode match folds away for a constant mode; their Reference
    // arms go through the two helpers after them, kept out of line like
    // `Bank::read_u32_slow`, so an inlined Reference-mode op is one call.

    /// An emulated integer op in `mode`: the Reference tier runs the
    /// instrumented routine `reference`; the fast modes charge the
    /// calibrated constant or the closed-form `tally`, then compute `fast`.
    #[inline(always)]
    fn int_op<R>(
        &mut self,
        mode: ArithMode,
        calibrated: u64,
        reference: impl FnOnce(&mut OpTally) -> R,
        fast: impl FnOnce() -> R,
        tally: impl FnOnce() -> u64,
    ) -> R {
        if mode == ArithMode::Reference {
            return self.reference_int(calibrated, reference);
        }
        let n = if mode == ArithMode::FastTally { tally() } else { calibrated };
        self.counter.charge(OpClass::IntEmul, n);
        fast()
    }

    /// [`Self::int_op`] for an emulated float op, whose executed charge
    /// includes the runtime library's call overhead.
    #[inline(always)]
    fn float_op<R>(
        &mut self,
        mode: ArithMode,
        calibrated: u64,
        reference: impl FnOnce(&mut OpTally) -> R,
        fast: impl FnOnce() -> R,
        tally: impl FnOnce() -> u64,
    ) -> R {
        if mode == ArithMode::Reference {
            return self.reference_float(calibrated, reference);
        }
        let n = if mode == ArithMode::FastTally {
            tally() + self.cost.ops.fp_call_overhead_slots
        } else {
            calibrated
        };
        self.counter.charge(OpClass::FloatEmul, n);
        fast()
    }

    /// An emulated integer op on the Reference tier: runs the instrumented
    /// routine, then charges the calibrated constant or what it executed.
    #[inline(never)]
    fn reference_int<R>(&mut self, calibrated: u64, op: impl FnOnce(&mut OpTally) -> R) -> R {
        let mut t = OpTally::new();
        let r = op(&mut t);
        let n = match self.cost.emulation_charging {
            EmulationCharging::Calibrated => calibrated,
            EmulationCharging::Tally => t.count(),
        };
        self.counter.charge(OpClass::IntEmul, n);
        r
    }

    /// [`Self::reference_int`] for an emulated float op.
    #[inline(never)]
    fn reference_float<R>(&mut self, calibrated: u64, op: impl FnOnce(&mut OpTally) -> R) -> R {
        let mut t = OpTally::new();
        let r = op(&mut t);
        let n = match self.cost.emulation_charging {
            EmulationCharging::Calibrated => calibrated,
            EmulationCharging::Tally => t.count() + self.cost.ops.fp_call_overhead_slots,
        };
        self.counter.charge(OpClass::FloatEmul, n);
        r
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
    //
    // Each emulated op is a public intrinsic that dispatches on the
    // context's mode, and its mode-fixed `_in` version ([`ArithMode`]).

    /// Emulated signed 32×32→32 multiply (runtime-library shift-and-add).
    #[inline]
    pub fn mul32(&mut self, a: i32, b: i32) -> i32 {
        in_mode!(self.mul32_in(a, b))
    }

    /// [`Self::mul32`] in the mode `A`.
    #[inline(always)]
    pub fn mul32_in<A: Arith>(&mut self, a: i32, b: i32) -> i32 {
        self.int_op(
            A::MODE,
            self.cost.ops.mul32_slots,
            |t| emul::imul32(a, b, t),
            || fastpath::imul32(a, b),
            || fastpath::imul32_tally(a, b),
        )
    }

    /// Emulated signed 32×32→64 multiply.
    #[inline]
    pub fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
        in_mode!(self.mul_wide_in(a, b))
    }

    /// [`Self::mul_wide`] in the mode `A`.
    #[inline(always)]
    pub fn mul_wide_in<A: Arith>(&mut self, a: i32, b: i32) -> i64 {
        self.int_op(
            A::MODE,
            self.cost.ops.mul64_slots,
            |t| emul::imul32_wide(a, b, t),
            || fastpath::imul32_wide(a, b),
            || fastpath::imul32_wide_tally(a, b),
        )
    }

    /// Emulated signed 32-bit divide (truncating).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, mirroring the hardware trap.
    #[inline]
    pub fn div32(&mut self, n: i32, d: i32) -> i32 {
        in_mode!(self.div32_in(n, d))
    }

    /// [`Self::div32`] in the mode `A`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[inline(always)]
    pub fn div32_in<A: Arith>(&mut self, n: i32, d: i32) -> i32 {
        self.int_op(
            A::MODE,
            self.cost.ops.div32_slots,
            |t| emul::idiv32(n, d, t).0,
            || fastpath::idiv32(n, d).0,
            || fastpath::idiv32_tally(n, d),
        )
    }

    /// Emulated signed 64-by-32 divide (truncating), used to descale wide
    /// fixed-point products.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[inline]
    pub fn div_wide(&mut self, n: i64, d: i32) -> i64 {
        in_mode!(self.div_wide_in(n, d))
    }

    /// [`Self::div_wide`] in the mode `A`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[inline(always)]
    pub fn div_wide_in<A: Arith>(&mut self, n: i64, d: i32) -> i64 {
        self.int_op(
            A::MODE,
            self.cost.ops.div64_slots,
            |t| emul::idiv64(n, d, t),
            || fastpath::idiv64(n, d),
            || fastpath::idiv64_tally(n, d),
        )
    }

    // ---- emulated floating point -------------------------------------------

    /// Emulated FP32 add.
    #[inline]
    pub fn fadd(&mut self, a: F32, b: F32) -> F32 {
        in_mode!(self.fadd_in(a, b))
    }

    /// [`Self::fadd`] in the mode `A`.
    #[inline(always)]
    pub fn fadd_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fadd_slots,
            |t| softfloat::f32_add(a.0, b.0, t),
            || fastpath::f32_add(a.0, b.0),
            || fastpath::f32_add_tally(a.0, b.0),
        ))
    }

    /// Emulated FP32 subtract.
    #[inline]
    pub fn fsub(&mut self, a: F32, b: F32) -> F32 {
        in_mode!(self.fsub_in(a, b))
    }

    /// [`Self::fsub`] in the mode `A`.
    #[inline(always)]
    pub fn fsub_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fadd_slots,
            |t| softfloat::f32_sub(a.0, b.0, t),
            || fastpath::f32_sub(a.0, b.0),
            || fastpath::f32_sub_tally(a.0, b.0),
        ))
    }

    /// Emulated FP32 multiply.
    #[inline]
    pub fn fmul(&mut self, a: F32, b: F32) -> F32 {
        in_mode!(self.fmul_in(a, b))
    }

    /// [`Self::fmul`] in the mode `A`.
    #[inline(always)]
    pub fn fmul_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fmul_slots,
            |t| softfloat::f32_mul(a.0, b.0, t),
            || fastpath::f32_mul(a.0, b.0),
            || fastpath::f32_mul_tally(a.0, b.0),
        ))
    }

    /// Emulated FP32 divide.
    #[inline]
    pub fn fdiv(&mut self, a: F32, b: F32) -> F32 {
        in_mode!(self.fdiv_in(a, b))
    }

    /// [`Self::fdiv`] in the mode `A`.
    #[inline(always)]
    pub fn fdiv_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fdiv_slots,
            |t| softfloat::f32_div(a.0, b.0, t),
            || fastpath::f32_div(a.0, b.0),
            || fastpath::f32_div_tally(a.0, b.0),
        ))
    }

    /// Emulated FP32 `a > b` (false on NaN).
    #[inline]
    pub fn fgt(&mut self, a: F32, b: F32) -> bool {
        in_mode!(self.fgt_in(a, b))
    }

    /// [`Self::fgt`] in the mode `A`.
    #[inline(always)]
    pub fn fgt_in<A: Arith>(&mut self, a: F32, b: F32) -> bool {
        self.float_op(
            A::MODE,
            self.cost.ops.fcmp_slots,
            |t| softfloat::f32_gt(a.0, b.0, t),
            || fastpath::f32_gt(a.0, b.0),
            || fastpath::f32_cmp_tally(a.0, b.0),
        )
    }

    /// Emulated FP32 `maxNum(a, b)`.
    #[inline]
    pub fn fmax(&mut self, a: F32, b: F32) -> F32 {
        in_mode!(self.fmax_in(a, b))
    }

    /// [`Self::fmax`] in the mode `A`.
    #[inline(always)]
    pub fn fmax_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fcmp_slots,
            |t| softfloat::f32_max(a.0, b.0, t),
            || fastpath::f32_max(a.0, b.0),
            || fastpath::f32_max_tally(a.0, b.0),
        ))
    }

    /// Emulated i32 → FP32 conversion.
    #[inline]
    pub fn i32_to_f32(&mut self, v: i32) -> F32 {
        in_mode!(self.i32_to_f32_in(v))
    }

    /// [`Self::i32_to_f32`] in the mode `A`.
    #[inline(always)]
    pub fn i32_to_f32_in<A: Arith>(&mut self, v: i32) -> F32 {
        F32(self.float_op(
            A::MODE,
            self.cost.ops.fconv_slots,
            |t| softfloat::i32_to_f32(v, t),
            || fastpath::i32_to_f32(v),
            || fastpath::i32_to_f32_tally(v),
        ))
    }

    /// Emulated FP32 → i32 conversion (truncating; 0 on NaN, saturating).
    #[inline]
    pub fn f32_to_i32(&mut self, v: F32) -> i32 {
        in_mode!(self.f32_to_i32_in(v))
    }

    /// [`Self::f32_to_i32`] in the mode `A`.
    #[inline(always)]
    pub fn f32_to_i32_in<A: Arith>(&mut self, v: F32) -> i32 {
        self.float_op(
            A::MODE,
            self.cost.ops.fconv_slots,
            |t| softfloat::f32_to_i32(v.0, t),
            || fastpath::f32_to_i32(v.0),
            || fastpath::f32_to_i32_tally(v.0),
        )
    }

    // ---- random numbers ----------------------------------------------------

    /// Advances an LCG state in-register: one emulated multiply + one add,
    /// exactly the custom `rand()` replacement SwiftRL implements (§3.2.1).
    #[inline]
    pub fn lcg_next(&mut self, state: &mut u32) -> u32 {
        in_mode!(self.lcg_next_in(state))
    }

    /// [`Self::lcg_next`] in the mode `A`.
    #[inline(always)]
    pub fn lcg_next_in<A: Arith>(&mut self, state: &mut u32) -> u32 {
        let s = *state;
        let m = self.int_op(
            A::MODE,
            self.cost.ops.mul32_slots,
            |t| emul::umul32_wide(s, emul::Lcg32::MULTIPLIER, t) as u32,
            || fastpath::umul32_wide(s, emul::Lcg32::MULTIPLIER) as u32,
            || fastpath::umul32_wide_tally(s, emul::Lcg32::MULTIPLIER),
        );
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
        in_mode!(self.lcg_below_in(state, bound))
    }

    /// [`Self::lcg_below`] in the mode `A`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline(always)]
    pub fn lcg_below_in<A: Arith>(&mut self, state: &mut u32, bound: u32) -> u32 {
        assert!(bound > 0, "lcg_below bound must be positive");
        let raw = self.lcg_next_in::<A>(state);
        let wide = self.int_op(
            A::MODE,
            self.cost.ops.mul64_slots,
            |t| emul::umul32_wide(raw, bound, t),
            || fastpath::umul32_wide(raw, bound),
            || fastpath::umul32_wide_tally(raw, bound),
        );
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

    /// Loads `dst.len()` consecutive `u32`s from WRAM starting at `offset`
    /// (1 slot each): exactly `dst.len()` calls of [`Self::wram_read_u32`],
    /// in values, charges, errors and sanitizer findings.
    ///
    /// Without a sanitizer, and with the words inside the written bytes of
    /// one WRAM segment, the range is checked and charged once; otherwise
    /// the words are loaded one by one.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the access exceeds WRAM capacity; the
    /// words before the faulting one are loaded and charged.
    // Forced inline: the interpreter's record read and Q-row scans call
    // it once per record and per row chunk.
    #[inline(always)]
    pub fn wram_read_words(&mut self, offset: usize, dst: &mut [u32]) -> Result<(), KernelError> {
        if self.san.is_none() {
            if let Some(bytes) = self.mem.wram.slice(offset, dst.len() * 4) {
                self.counter.charge(OpClass::WramAccess, dst.len() as u64);
                for (word, le) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
                    *word = u32::from_le_bytes([le[0], le[1], le[2], le[3]]);
                }
                return Ok(());
            }
        }
        self.wram_read_each(offset, dst)
    }

    /// [`Self::wram_read_words`] one word at a time: under a sanitizer,
    /// or for words past the written bytes, across a segment boundary or
    /// out of range. Out of line like [`Self::reference_int`].
    #[cold]
    #[inline(never)]
    fn wram_read_each(&mut self, offset: usize, dst: &mut [u32]) -> Result<(), KernelError> {
        for (i, word) in dst.iter_mut().enumerate() {
            *word = self.wram_read_u32(offset + 4 * i)?;
        }
        Ok(())
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

    /// [`CostModel::dma_cycles`] of a `len`-byte transfer, recomputed only
    /// when `len` differs from the last transfer's.
    #[inline(always)]
    fn dma_cost(&mut self, len: usize) -> u64 {
        if self.dma_memo.0 != len {
            self.dma_memo = (len, self.cost.dma_cycles(len));
        }
        self.dma_memo.1
    }

    /// Enforces the DMA engine's alignment contract: offset and length must
    /// be multiples of the configured granule (8 bytes on UPMEM), exactly
    /// as on real hardware. Also reports the attempt to the sanitizer.
    #[inline]
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
        let cycles = self.dma_cost(dst.len());
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
        let cycles = self.dma_cost(src.len());
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
    // Forced inline, with `check_dma_align`, the bank copy and the memoized
    // `dma_cost` inline under it: a kernel issues one per record on the
    // STR and RAN walks, and out of line each one is a call across the
    // crate boundary that thin LTO does not inline.
    #[inline(always)]
    pub fn mram_to_wram(
        &mut self,
        mram_offset: usize,
        wram_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_dma_align(MemoryKind::Mram, mram_offset, len)?;
        self.check_dma_align(MemoryKind::Wram, wram_offset, len)?;
        self.mem.copy_mram_to_wram(mram_offset, wram_offset, len)?;
        let cycles = self.dma_cost(len);
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
        let cycles = self.dma_cost(len);
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

    /// Runs one wide load of `n` words and `n` single loads, each on a
    /// fresh memory prepared by `setup`, and asserts equal words, errors
    /// and counters.
    fn assert_wide_load_matches_singles(setup: &dyn Fn(&mut DpuMemory), offset: usize, n: usize) {
        let (mut wide_mem, cost) = ctx_fixture();
        let (mut single_mem, _) = ctx_fixture();
        setup(&mut wide_mem);
        setup(&mut single_mem);
        let mut wide = DpuContext::new(0, 0, &mut wide_mem, &cost);
        let mut wide_words = [0xAAAA_AAAAu32; 8];
        let wide_err = wide.wram_read_words(offset, &mut wide_words[..n]).err();
        let mut single = DpuContext::new(0, 0, &mut single_mem, &cost);
        let mut single_words = [0xAAAA_AAAAu32; 8];
        let single_err = single_words[..n]
            .iter_mut()
            .enumerate()
            .try_for_each(|(i, w)| single.wram_read_u32(offset + 4 * i).map(|v| *w = v))
            .err();
        let at = format!("{n} words at {offset}");
        assert_eq!(wide_err, single_err, "{at}: errors differ");
        assert_eq!(wide_words, single_words, "{at}: words differ");
        assert_eq!(wide.counter(), single.counter(), "{at}: counters differ");
    }

    #[test]
    fn wide_wram_load_is_n_single_loads() {
        let cap = 64 << 10;
        let first_256_bytes = |mem: &mut DpuMemory| {
            for i in 0..64u32 {
                mem.wram.write_u32(i as usize * 4, 0x0101_0101 * i + 7).unwrap();
            }
        };
        // Inside the written bytes (one range check), empty, and partly
        // or wholly past the written length (zero-filled words).
        for (offset, n) in [(0, 4), (8, 8), (4, 1), (12, 0), (240, 8), (256, 3), (1_000, 5)] {
            assert_wide_load_matches_singles(&first_256_bytes, offset, n);
        }
        // Past the WRAM capacity: the words below it load and are
        // charged, then the first word past it faults.
        for (offset, n) in [(cap - 8, 4), (cap, 2), (cap - 2, 1)] {
            assert_wide_load_matches_singles(&first_256_bytes, offset, n);
        }
        // Written up to the capacity: a range that starts inside the
        // written bytes faults past them.
        let up_to_capacity = |mem: &mut DpuMemory| {
            first_256_bytes(mem);
            mem.wram.write_u32(cap - 4, 0xDEAD_BEEF).unwrap();
        };
        assert_wide_load_matches_singles(&up_to_capacity, cap - 12, 6);
        assert_wide_load_matches_singles(&up_to_capacity, cap - 12, 3);
    }

    #[test]
    fn wide_wram_load_reports_what_single_loads_report() {
        let (_, cost) = ctx_fixture();
        let findings = |wide: bool| {
            let (mut mem, _) = ctx_fixture();
            let mut san = DpuSanitizer::new(0);
            san.begin_launch(crate::sanitize::SanitizeLevel::Full, 1);
            let counter = {
                let mut ctx = DpuContext::new(0, 0, &mut mem, &cost).with_sanitizer(&mut san);
                // Word 3 is never written.
                for i in [0usize, 1, 2, 4] {
                    ctx.wram_write_u32(i * 4, i as u32).unwrap();
                }
                let mut dst = [0u32; 5];
                if wide {
                    ctx.wram_read_words(0, &mut dst).unwrap();
                } else {
                    for (i, w) in dst.iter_mut().enumerate() {
                        *w = ctx.wram_read_u32(i * 4).unwrap();
                    }
                }
                assert_eq!(dst, [0, 1, 2, 0, 4]);
                ctx.into_counter()
            };
            san.finish_launch();
            (san.drain(), counter)
        };
        let (wide, single) = (findings(true), findings(false));
        assert_eq!(wide, single);
        assert!(matches!(
            wide.0 .0[..],
            [crate::sanitize::SanitizerFinding {
                kind: crate::sanitize::FindingKind::UninitWramRead { offset: 12, len: 4 },
                ..
            }]
        ));
    }

    #[test]
    fn dma_cost_follows_the_transfer_length() {
        let (mut mem, cost) = ctx_fixture();
        let mut ctx = DpuContext::new(0, 0, &mut mem, &cost);
        let mut expected = 0;
        for len in [16, 16, 8, 512, 0, 16, 8, 8] {
            ctx.mram_to_wram(64, 0, len).unwrap();
            expected += cost.dma_cycles(len);
            assert_eq!(ctx.counter().dma_cycles, expected, "after a {len}-byte DMA");
        }
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

    /// The special-value lattices of `tests/fastpath_parity.rs`: signed
    /// zeros, units, infinities, NaN payloads, subnormal boundaries, the
    /// `f32 → i32` saturation edges, and integer sign and width edges.
    #[rustfmt::skip]
    const F32_LATTICE: &[u32] = &[
        0x0000_0000, 0x8000_0000, 0x3F80_0000, 0xBF80_0000, 0x7F80_0000, 0xFF80_0000,
        0x7FC0_0000, 0x7F80_0001, 0xFFC0_0001, 0x0000_0001, 0x0020_0000, 0x007F_FFFF,
        0x0080_0000, 0x7F7F_FFFF, 0x3DCC_CCCD, 0x4048_F5C3, 0xC2F6_E979, 0x3400_0000,
        0x4EFF_FFFF, 0x4F00_0000, 0xCF00_0000, 0xCF00_0001,
    ];
    #[rustfmt::skip]
    const U32_LATTICE: &[u32] = &[
        0, 1, 2, 3, 7, 255, 256, 9_500, 65_535, 0x0001_0000, 0x7FFF_FFFF, 0x8000_0000,
        0xFFFF_FFFE, u32::MAX,
    ];

    /// Runs `op` on a fresh context over `mem` under `cost`: its result
    /// and the counter it leaves.
    fn run<R>(
        mem: &mut DpuMemory,
        cost: &CostModel,
        op: impl FnOnce(&mut DpuContext<'_>) -> R,
    ) -> (R, CycleCounter) {
        let mut ctx = DpuContext::new(0, 0, mem, cost);
        let r = op(&mut ctx);
        (r, ctx.into_counter())
    }

    /// Every emulated op under `charging`, with the public intrinsic on a
    /// Reference-tier context as the oracle: its mode-fixed Reference
    /// version, and the public intrinsic and the mode-fixed version `F`
    /// on a Fast-tier context, must each return the oracle's bits and
    /// leave its counter. The LCG ops also return the state they leave.
    fn assert_mode_fixed_ops_match<F: Arith>(charging: EmulationCharging) {
        let (mut mem, mut reference) = ctx_fixture();
        (reference.arith_tier, reference.emulation_charging) = (ExecTier::Reference, charging);
        let mut fast = reference.clone();
        fast.arith_tier = ExecTier::Fast;
        assert_eq!(ArithMode::of(&fast), F::MODE);
        macro_rules! same {
            ($op:ident, $op_in:ident(&mut $state:expr $(, $arg:expr)*)) => {
                same!(@ $op,
                    |c| { let mut s = $state; (c.$op(&mut s $(, $arg)*), s) },
                    |c| { let mut s = $state; (c.$op_in::<arith::Reference>(&mut s $(, $arg)*), s) },
                    |c| { let mut s = $state; (c.$op_in::<F>(&mut s $(, $arg)*), s) },
                    ($state, $($arg,)*))
            };
            ($op:ident, $op_in:ident($($arg:expr),*)) => {
                same!(@ $op, |c| c.$op($($arg),*), |c| c.$op_in::<arith::Reference>($($arg),*),
                    |c| c.$op_in::<F>($($arg),*), ($($arg,)*))
            };
            (@ $op:ident, $public:expr, $reference_in:expr, $fast_in:expr, $args:expr) => {{
                let want = run(&mut mem, &reference, $public);
                let what = |ctx: &str| format!("{}{:?} on {ctx}", stringify!($op), $args);
                assert_eq!(run(&mut mem, &reference, $reference_in), want, "{}", what("Reference, fixed"));
                assert_eq!(run(&mut mem, &fast, $public), want, "{}", what("Fast"));
                assert_eq!(run(&mut mem, &fast, $fast_in), want, "{}", what("Fast, fixed"));
            }};
        }
        for &a in F32_LATTICE {
            let (fa, ia) = (F32(a), a as i32);
            for fb in F32_LATTICE.iter().map(|&b| F32(b)) {
                same!(fadd, fadd_in(fa, fb));
                same!(fsub, fsub_in(fa, fb));
                same!(fmul, fmul_in(fa, fb));
                same!(fdiv, fdiv_in(fa, fb));
                same!(fgt, fgt_in(fa, fb));
                same!(fmax, fmax_in(fa, fb));
            }
            same!(f32_to_i32, f32_to_i32_in(fa));
            same!(i32_to_f32, i32_to_f32_in(ia));
        }
        for &a in U32_LATTICE {
            let ia = a as i32;
            same!(lcg_next, lcg_next_in(&mut a));
            for &b in U32_LATTICE {
                let ib = b as i32;
                same!(mul32, mul32_in(ia, ib));
                same!(mul_wide, mul_wide_in(ia, ib));
                if b != 0 {
                    let wide = (i64::from(ia) << 16) ^ i64::from(b);
                    same!(div32, div32_in(ia, ib));
                    same!(div_wide, div_wide_in(wide, ib));
                    same!(lcg_below, lcg_below_in(&mut a, b));
                }
            }
        }
    }

    /// The public emulated intrinsics dispatch on the context's mode to
    /// their mode-fixed versions; in every mode both must return the
    /// Reference tier's bits and leave its counter.
    #[test]
    fn public_intrinsics_match_their_mode_fixed_versions() {
        assert_mode_fixed_ops_match::<arith::FastCalibrated>(EmulationCharging::Calibrated);
        assert_mode_fixed_ops_match::<arith::FastTally>(EmulationCharging::Tally);
    }
}
