//! The SwiftRL DPU kernels: Q-learning and SARSA in FP32 and INT32, with
//! SEQ/STR/RAN sampling.
//!
//! One kernel runs per DPU with a single tasklet (the paper's
//! configuration). The kernel:
//!
//! 1. reads its [`KernelHeader`] and DMAs the
//!    local Q-table from MRAM into WRAM;
//! 2. for each of the launch's `τ` episodes, walks its chunk in the
//!    sampling strategy's order, streaming transition records from MRAM
//!    (batched DMA for SEQ; per-record DMA for STR and RAN, whose
//!    irregular patterns defeat batching);
//! 3. applies the update rule with *emulated* arithmetic — soft-float
//!    FP32 or the paper's scaled INT32 — charging every operation to the
//!    DPU cycle counter;
//! 4. DMAs the updated Q-table back to MRAM for the host to gather.
//!
//! The kernel body — the episode loop, the three sampling walks and the
//! update rules — is written once, generic over a `Machine` that
//! supplies what an update touches. Two machines run it: the interpreter
//! (`Interp`), which goes through the charged `DpuContext` intrinsics in
//! an arithmetic mode fixed for the whole launch, and the batched tier's
//! fused sweep (`Sweep`), which sums the same charges in registers over
//! the bank bytes.
//!
//! The arithmetic is bit-identical to the host reference in
//! `swiftrl_rl::{qlearning, sarsa}`: an integration test trains both ways
//! and compares Q-tables exactly.

use crate::config::{Algorithm, DataType, WorkloadSpec};
use crate::layout::{episode_seed, sampling_kind, KernelHeader, HEADER_BYTES, Q_TABLE_OFFSET};
use std::convert::Infallible;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use swiftrl_pim::config::{CostModel, EmulationCharging, OpCosts};
use swiftrl_pim::cost::CycleCounter;
use swiftrl_pim::emul::Lcg32;
use swiftrl_pim::fastpath;
use swiftrl_pim::kernel::{arith, Arith, ArithMode, DpuContext, Kernel, KernelError, F32};
use swiftrl_pim::{BatchContext, BatchKernel};

/// Transition records DMA'd per batch in SEQ order (32 records = 512 B).
const SEQ_BATCH: usize = 32;
/// Bytes per transition record.
const RECORD_BYTES: usize = 16;
/// Q-values the interpreter loads from WRAM at a time when it scans a
/// row: every action of the paper's environments (FrozenLake 4, Taxi 6)
/// in one chunk.
const ROW_CHUNK: usize = 8;
/// Most tasklets a kernel can be configured with — the 24 hardware threads
/// of an UPMEM DPU. Bounds the static WRAM batch budget below.
pub const MAX_TASKLETS: usize = 24;

/// Static WRAM budget of the kernel, in the `WRAM_<X>_OFFSET`/`_BYTES`
/// convention the analyzer proves non-overlapping and within the 64-KB
/// scratchpad (K009). The runtime `WramMap` packs tighter (its batch
/// window starts right after the *actual* Q-table), but never exceeds
/// these bounds.
pub const WRAM_Q_TABLE_OFFSET: usize = 0;
/// Worst-case Q-table slab: Taxi-v3, 500 states × 6 actions × 4 bytes.
pub const WRAM_Q_TABLE_BYTES: usize = 12_000;
/// Per-tasklet transition staging windows follow the Q-table slab.
pub const WRAM_BATCH_OFFSET: usize = WRAM_Q_TABLE_OFFSET + WRAM_Q_TABLE_BYTES;
/// One SEQ batch window (32 × 16 B) per tasklet.
pub const WRAM_BATCH_BYTES: usize = MAX_TASKLETS * SEQ_BATCH * RECORD_BYTES;

// The budget must fit the UPMEM scratchpad — checked at compile time here
// and re-proven (with overlap checks) by `swiftrl-analysis` K009.
const _: () = assert!(WRAM_BATCH_OFFSET + WRAM_BATCH_BYTES <= swiftrl_pim::config::WRAM_CAPACITY_BYTES);
/// Bit of the action word carrying the terminal flag
/// (`Transition::DONE_BIT`).
const DONE_BIT: u32 = 1 << 31;

/// The SwiftRL training kernel for one workload variant.
///
/// The same kernel object is launched on every DPU of a set; per-DPU
/// behaviour (chunk size, seeds) comes from the header each DPU carries
/// in its own MRAM.
#[derive(Debug, Clone, Copy)]
pub struct SwiftRlKernel {
    spec: WorkloadSpec,
    tasklets: usize,
}

impl SwiftRlKernel {
    /// Creates the single-tasklet kernel for a workload variant (the
    /// paper's configuration).
    pub fn new(spec: WorkloadSpec) -> Self {
        Self::with_tasklets(spec, 1)
    }

    /// Creates the tasklet-parallel kernel: each DPU's chunk is further
    /// sub-partitioned across `tasklets` hardware threads sharing the
    /// WRAM Q-table. At ≥11 tasklets the DPU pipeline reaches its 1-IPC
    /// peak (the extension the paper leaves as future work).
    ///
    /// The simulator serializes tasklet bodies, so shared-table updates
    /// interleave at tasklet granularity — an idealization of the
    /// lossy concurrent updates a real multi-tasklet kernel would make
    /// (CPU-V1-style), while the *timing* reflects the fine-grained
    /// multithreaded pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tasklets` is zero or exceeds [`MAX_TASKLETS`] (the DPU's
    /// 24 hardware threads — also the bound of the static WRAM budget).
    pub fn with_tasklets(spec: WorkloadSpec, tasklets: usize) -> Self {
        assert!(tasklets > 0, "need at least one tasklet");
        assert!(
            tasklets <= MAX_TASKLETS,
            "a DPU has {MAX_TASKLETS} hardware threads, got {tasklets}"
        );
        Self { spec, tasklets }
    }

    /// The workload variant this kernel implements.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }
}

impl Kernel for SwiftRlKernel {
    fn tasklets(&self) -> usize {
        self.tasklets
    }

    /// Loads the header, then runs the interpreted body in the context's
    /// arithmetic mode: the mode and the update rule are chosen here, once
    /// per launch, so no emulated op in the loop dispatches on either.
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
        // Header load: one DMA + field decodes (every tasklet reads it,
        // as UPMEM tasklets each execute main()). Stack buffer: kernels
        // must not heap-allocate (K002).
        let mut hdr_buf = [0u8; HEADER_BYTES];
        ctx.mram_read(0, &mut hdr_buf)?;
        ctx.charge_alu(13); // unpack the 13 header words into registers
        let hdr = KernelHeader::from_bytes(&hdr_buf)
            .map_err(|e| KernelError::Fault(format!("{e}")))?;

        let ran = match ctx.arith_mode() {
            ArithMode::Reference => self.interpret::<arith::Reference>(ctx, hdr),
            ArithMode::FastCalibrated => self.interpret::<arith::FastCalibrated>(ctx, hdr),
            ArithMode::FastTally => self.interpret::<arith::FastTally>(ctx, hdr),
        };
        ran.map_err(|stop| match stop {
            Stop::Pim(e) => e,
            Stop::Kernel(fault) => KernelError::Fault(format!("{fault}")),
        })
    }

    /// Offers the fused whole-launch form to the executor under
    /// [`ExecTier::Batched`](swiftrl_pim::config::ExecTier::Batched).
    fn batch(&self) -> Option<&dyn BatchKernel> {
        Some(self)
    }
}

/// A fault of the kernel itself, as plain data; `Kernel::run` renders it
/// into the text of [`KernelError::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelFault {
    /// The header's table has no states or no actions.
    EmptyShape,
    /// The header names no sampling kind the kernel knows.
    UnknownSampling(u32),
    /// A stride walk with stride 0.
    ZeroStride,
    /// A record indexes outside the header's table.
    RecordOutOfSpace {
        state: u32,
        action: u32,
        next_state: u32,
    },
}

impl fmt::Display for KernelFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KernelFault::EmptyShape => f.write_str("empty Q-table shape"),
            KernelFault::UnknownSampling(kind) => write!(f, "unknown sampling kind {kind}"),
            KernelFault::ZeroStride => f.write_str("stride must be positive"),
            KernelFault::RecordOutOfSpace {
                state,
                action,
                next_state,
            } => write!(f, "record out of space: s={state} a={action} s'={next_state}"),
        }
    }
}

/// Why an interpreted launch stopped: a platform error from an intrinsic
/// (a memory fault) or a fault of the kernel itself.
enum Stop {
    Pim(KernelError),
    Kernel(KernelFault),
}

impl From<KernelError> for Stop {
    fn from(e: KernelError) -> Self {
        Stop::Pim(e)
    }
}

impl From<KernelFault> for Stop {
    fn from(fault: KernelFault) -> Self {
        Stop::Kernel(fault)
    }
}

/// WRAM address map used by the kernel body.
#[derive(Debug, Clone, Copy)]
struct WramMap {
    /// Q-table at offset 0.
    q: usize,
    /// Transition staging buffer after the Q-table (8-byte aligned).
    batch: usize,
}

impl WramMap {
    fn new(hdr: &KernelHeader) -> Self {
        let q_bytes = hdr.q_table_bytes();
        // The runtime map packs the batch window right after the actual
        // Q-table. Oversized tables (beyond the static budget K009 proves
        // for the paper's workloads) are legal inputs: the out-of-range
        // WRAM access faults the kernel downstream.
        Self {
            q: 0,
            batch: q_bytes.div_ceil(8) * 8,
        }
    }

    #[inline]
    fn q_entry(&self, num_actions: u32, state: u32, action: u32) -> usize {
        self.q + (state * num_actions + action) as usize * 4
    }

    /// Q-table DMA length: `q_bytes` rounded up to the 8-byte DMA
    /// granule. The pad bytes fall in the reserved gap before `batch`
    /// (WRAM) and before the transition records (MRAM).
    #[inline]
    fn q_dma_bytes(&self) -> usize {
        self.batch - self.q
    }
}

/// The header a launch leaves for the next one: its episode window
/// advanced past this launch's, so no host-side re-arm is needed between
/// rounds.
fn next_header(hdr: &KernelHeader) -> [u8; HEADER_BYTES] {
    let mut next = *hdr;
    next.episode_base = hdr.episode_base.wrapping_add(hdr.episodes);
    let mut out = [0u8; HEADER_BYTES];
    next.encode_into(&mut out);
    out
}

/// Tasklet `t`'s contiguous sub-range of an `n`-record chunk split over
/// `tasklets`, sizes within one.
fn tasklet_range(n: usize, tasklets: usize, t: usize) -> Range<usize> {
    let base = n / tasklets;
    let extra = n % tasklets;
    let start = t * base + t.min(extra);
    start..start + base + usize::from(t < extra)
}

/// The SEQ walk's DMA batches of an `n`-record range: `(first, count)`
/// with `count` [`SEQ_BATCH`] records, the last one shorter.
fn seq_batches(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).step_by(SEQ_BATCH).map(move |first| (first, SEQ_BATCH.min(n - first)))
}

/// One decoded transition record.
#[derive(Debug, Clone, Copy)]
struct Record {
    state: u32,
    action: u32,
    /// FP32 bits or scaled i32, depending on the workload data type.
    reward_raw: u32,
    next_state: u32,
    /// Terminal flag (bit 31 of the action word): do not bootstrap.
    done: bool,
}

// Every `Record` helper is forced inline: each runs once per record.
impl Record {
    /// Decodes a record's four words, unpacking the terminal flag.
    #[inline(always)]
    fn from_words([state, action_word, reward_raw, next_state]: [u32; 4]) -> Self {
        Self {
            state,
            action: action_word & !DONE_BIT,
            reward_raw,
            next_state,
            done: action_word & DONE_BIT != 0,
        }
    }

    /// Decodes one transition record as it lies in MRAM.
    #[inline(always)]
    fn decode(raw: &[u8; RECORD_BYTES]) -> Self {
        let (words, _) = raw.as_chunks::<4>();
        Self::from_words([0, 1, 2, 3].map(|i| u32::from_le_bytes(words[i])))
    }

    /// Whether every index of the record lies inside the header's table.
    #[inline(always)]
    fn fits(&self, hdr: &KernelHeader) -> bool {
        self.state < hdr.num_states
            && self.next_state < hdr.num_states
            && self.action < hdr.num_actions
    }
}

/// The order a tasklet walks its records in.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// In order, DMA'd [`SEQ_BATCH`] records at a time.
    Seq,
    /// The stride walk of `SamplingStrategy::Stride(k)`.
    Stride(usize),
    /// Uniform draws with the in-kernel LCG.
    Random,
}

impl Walk {
    /// The walk a header's sampling fields name.
    fn of(hdr: &KernelHeader) -> Result<Self, KernelFault> {
        match hdr.sampling {
            sampling_kind::SEQ => Ok(Walk::Seq),
            sampling_kind::STR if hdr.stride == 0 => Err(KernelFault::ZeroStride),
            sampling_kind::STR => Ok(Walk::Stride(hdr.stride as usize)),
            sampling_kind::RAN => Ok(Walk::Random),
            other => Err(KernelFault::UnknownSampling(other)),
        }
    }
}

// ---- The kernel body, written once ------------------------------------
//
// Every function and trait method below is forced inline, so each
// instance of the body (one per machine, mode and update rule) is one
// loop over the records with the update rule and the charges in
// registers. Left to the heuristics, the record fetch and the update stay
// out of line (three call sites each, one per walk), and every record
// then pays the calls plus the spills around them.

/// The charges and the emulated arithmetic of one tasklet. FP32 values
/// travel as raw bits.
trait Ops {
    /// Charges `n` native ALU slots.
    fn alu(&mut self, n: u64);
    /// Charges `n` control-flow slots.
    fn control(&mut self, n: u64);
    /// Emulated FP32 add.
    fn fadd(&mut self, a: u32, b: u32) -> u32;
    /// Emulated FP32 subtract.
    fn fsub(&mut self, a: u32, b: u32) -> u32;
    /// Emulated FP32 multiply.
    fn fmul(&mut self, a: u32, b: u32) -> u32;
    /// Emulated FP32 `maxNum(a, b)`.
    fn fmax(&mut self, a: u32, b: u32) -> u32;
    /// Emulated FP32 `a > b`.
    fn fgt(&mut self, a: u32, b: u32) -> bool;
    /// The bits an FP32 result is stored as.
    fn fstored(&self, bits: u32) -> u32;
    /// Emulated signed 32×32→64 multiply.
    fn mul_wide(&mut self, a: i32, b: i32) -> i64;
    /// Emulated 64-bit divide by the header's fixed-point scale.
    fn descale(&mut self, n: i64) -> i64;
    /// Advances an LCG state: one emulated multiply and one add.
    fn lcg_next(&mut self, state: &mut u32) -> u32;
    /// Uniform draw in `[0, bound)`: an LCG advance and one emulated wide
    /// multiply.
    fn lcg_below(&mut self, state: &mut u32, bound: u32) -> u32;
}

/// What one tasklet's launch touches besides [`Ops`]: the Q-table and the
/// records, each access charged as the DPU program makes it.
trait Machine {
    /// Why a step stopped. The fused sweep's is uninhabited: its inputs
    /// are validated before it starts.
    type Err;
    /// The tasklet's charges and arithmetic.
    type Ops: Ops;
    /// The tasklet's charges and arithmetic.
    fn ops(&mut self) -> &mut Self::Ops;
    /// Tasklet 0's DMA of the Q-table into WRAM.
    fn stage_table(&mut self) -> Result<(), Self::Err>;
    /// The last tasklet's DMA of the Q-table back to MRAM and its write of
    /// the next launch's header.
    fn publish_table(&mut self) -> Result<(), Self::Err>;
    /// The walk of the header's sampling fields.
    fn walk(&mut self) -> Result<Walk, Self::Err>;
    /// The SEQ walk: the tasklet's `n` records in order, each handed to
    /// `each`, DMA'd in the batches of [`seq_batches`].
    fn walk_seq(
        &mut self,
        n: usize,
        each: impl FnMut(&mut Self, &Record) -> Result<(), Self::Err>,
    ) -> Result<(), Self::Err>;
    /// DMAs record `i` of the tasklet's range alone and loads it (the STR
    /// and RAN walks).
    fn fetch(&mut self, i: usize) -> Result<Record, Self::Err>;
    /// Loads Q-row `state` and folds its words in action order: the fold
    /// starts at `first` of action 0's word, and `step` takes the fold,
    /// each further action and its word.
    fn fold_row<T>(
        &mut self,
        state: u32,
        first: impl FnOnce(u32) -> T,
        step: impl FnMut(&mut Self::Ops, T, u32, u32) -> T,
    ) -> Result<T, Self::Err>;
    /// Loads the Q-table word of `(state, action)`.
    fn load(&mut self, state: u32, action: u32) -> Result<u32, Self::Err>;
    /// Loads the Q-table word of `(state, action)` and stores the word
    /// `f` makes of it.
    fn update_entry(
        &mut self,
        state: u32,
        action: u32,
        f: impl FnOnce(&mut Self::Ops, u32) -> u32,
    ) -> Result<(), Self::Err>;
}

/// The Q-value arithmetic of a workload data type, on table words.
trait Dtype {
    /// `a + b`.
    fn add<O: Ops>(o: &mut O, a: u32, b: u32) -> u32;
    /// `a - b`.
    fn sub<O: Ops>(o: &mut O, a: u32, b: u32) -> u32;
    /// `a × b`; INT32 descales the wide product, like `FixedScale::mul`.
    fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32;
    /// The fold step of `max_a' Q(s', a')`.
    fn max<O: Ops>(o: &mut O, best: u32, v: u32) -> u32;
    /// `a > b`, the ε-greedy argmax's test.
    fn gt<O: Ops>(o: &mut O, a: u32, b: u32) -> bool;
    /// The word an update stores for the value `v`.
    fn stored<O: Ops>(o: &O, v: u32) -> u32;
}

/// Soft-float FP32 Q-values.
struct Fp32;
/// The paper's scaled INT32 Q-values.
struct Int32;

impl Dtype for Fp32 {
    #[inline(always)]
    fn add<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        o.fadd(a, b)
    }
    #[inline(always)]
    fn sub<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        o.fsub(a, b)
    }
    #[inline(always)]
    fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        o.fmul(a, b)
    }
    #[inline(always)]
    fn max<O: Ops>(o: &mut O, best: u32, v: u32) -> u32 {
        o.fmax(best, v)
    }
    #[inline(always)]
    fn gt<O: Ops>(o: &mut O, a: u32, b: u32) -> bool {
        o.fgt(a, b)
    }
    #[inline(always)]
    fn stored<O: Ops>(o: &O, v: u32) -> u32 {
        o.fstored(v)
    }
}

// The native INT32 ops charge one ALU slot each, like
// `DpuContext::iadd`, `isub` and `igt`.
impl Dtype for Int32 {
    #[inline(always)]
    fn add<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        o.alu(1);
        a.wrapping_add(b)
    }
    #[inline(always)]
    fn sub<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        o.alu(1);
        a.wrapping_sub(b)
    }
    #[inline(always)]
    fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
        let wide = o.mul_wide(a as i32, b as i32);
        o.descale(wide) as i32 as u32
    }
    /// Native compares; the last maximum wins on value ties, which is
    /// value-identical to any tie choice.
    #[inline(always)]
    fn max<O: Ops>(o: &mut O, best: u32, v: u32) -> u32 {
        if Self::gt(o, v, best) {
            v
        } else {
            best
        }
    }
    #[inline(always)]
    fn gt<O: Ops>(o: &mut O, a: u32, b: u32) -> bool {
        o.alu(1);
        a as i32 > b as i32
    }
    #[inline(always)]
    fn stored<O: Ops>(_: &O, v: u32) -> u32 {
        v
    }
}

/// One tasklet's launch on machine `m`, after the header load: the
/// Q-table stage, each episode's walk over the tasklet's `n` records with
/// the update rule (Q-learning, or SARSA when `SARSA`) in the data type
/// `D`, and the write-back. The header comes by value: the update rules
/// read its fields from this copy, which nothing else can write, so they
/// stay in registers across the loop.
#[inline(always)]
fn tasklet<M: Machine, D: Dtype, const SARSA: bool>(
    m: &mut M,
    hdr: KernelHeader,
    t: usize,
    tasklets: usize,
    n: usize,
) -> Result<(), M::Err> {
    // Tasklet 0 stages the shared Q-table into WRAM; the others
    // arrive at a barrier (charged as control slots).
    if t == 0 {
        m.stage_table()?;
    } else {
        m.ops().control(2); // barrier wait
    }
    // SARSA's ε-greedy policy stream persists across the launch's
    // episodes, seeded like the host reference trainer (decorrelated
    // per tasklet beyond tasklet 0).
    let mut policy_state =
        (hdr.seed ^ 0x5A85_AA11).wrapping_add((t as u32).wrapping_mul(0x9E37_79B9));

    for ep in 0..hdr.episodes {
        m.ops().control(2); // episode loop bookkeeping + barrier
        if n == 0 {
            continue;
        }
        let ep_seed = episode_seed(hdr.seed, hdr.episode_base + ep).wrapping_add(t as u32);
        match m.walk()? {
            Walk::Seq => {
                m.walk_seq(n, |m, rec| update::<M, D, SARSA>(m, &hdr, rec, &mut policy_state))?;
            }
            Walk::Stride(k) => {
                // Index by index; each record needs its own DMA.
                let mut cursor = 0usize;
                let mut offset = 0usize;
                for _ in 0..n {
                    let i = cursor;
                    cursor += k;
                    if cursor >= n {
                        offset += 1;
                        cursor = offset;
                    }
                    m.ops().alu(3); // stride bookkeeping
                    let rec = m.fetch(i)?;
                    update::<M, D, SARSA>(m, &hdr, &rec, &mut policy_state)?;
                }
            }
            Walk::Random => {
                // Uniform draws with the in-kernel LCG, matching the host
                // SampleIndices stream for the same seed.
                let mut sample_state = ep_seed;
                for _ in 0..n {
                    let i = m.ops().lcg_below(&mut sample_state, n as u32) as usize;
                    let rec = m.fetch(i)?;
                    update::<M, D, SARSA>(m, &hdr, &rec, &mut policy_state)?;
                }
            }
        }
    }

    // The last tasklet publishes the updated table for the host gather
    // and advances the header's episode window.
    if t + 1 == tasklets {
        m.publish_table()?;
        m.ops().alu(2);
    }
    Ok(())
}

/// One Q-update of record `rec`: the TD target from the next state's
/// best value (Q-learning) or from the ε-greedy next action's value
/// (SARSA), then `Q(s, a) += α (target − Q(s, a))`.
#[inline(always)]
fn update<M: Machine, D: Dtype, const SARSA: bool>(
    m: &mut M,
    hdr: &KernelHeader,
    rec: &Record,
    policy_state: &mut u32,
) -> Result<(), M::Err> {
    m.ops().alu(2); // unpack the record's terminal flag
    m.ops().control(2); // update-call overhead + terminal-flag branch
    let target = if rec.done {
        rec.reward_raw
    } else {
        let q_next = if SARSA {
            let a_next = epsilon_greedy::<M, D>(m, hdr, rec.next_state, policy_state)?;
            m.ops().alu(2);
            m.load(rec.next_state, a_next)?
        } else {
            // Two for the row base address, one per further action.
            m.ops().alu(1 + u64::from(hdr.num_actions));
            m.fold_row(rec.next_state, |v| v, |o, best, _, v| D::max(o, best, v))?
        };
        let o = m.ops();
        let discounted = D::mul(o, hdr.gamma, q_next);
        D::add(o, rec.reward_raw, discounted)
    };
    m.ops().alu(2);
    m.update_entry(rec.state, rec.action, |o, old| {
        let diff = D::sub(o, target, old);
        let delta = D::mul(o, hdr.alpha, diff);
        let new = D::add(o, old, delta);
        D::stored(o, new)
    })
}

/// ε-greedy a' over the Q-table, bit-identical to the host's
/// `epsilon_greedy` (integer threshold draw, then either a uniform action
/// or a first-max argmax).
#[inline(always)]
fn epsilon_greedy<M: Machine, D: Dtype>(
    m: &mut M,
    hdr: &KernelHeader,
    state: u32,
    policy_state: &mut u32,
) -> Result<u32, M::Err> {
    let o = m.ops();
    let draw = o.lcg_next(policy_state);
    o.alu(1);
    if draw < hdr.epsilon_threshold {
        return Ok(o.lcg_below(policy_state, hdr.num_actions));
    }
    o.alu(1 + u64::from(hdr.num_actions));
    let (best_a, _) = m.fold_row(
        state,
        |v| (0, v),
        |o, (best_a, best_v), a, v| {
            if D::gt(o, v, best_v) {
                (a, v)
            } else {
                (best_a, best_v)
            }
        },
    )?;
    Ok(best_a)
}

// ---- The interpreter ------------------------------------------------------

/// The interpreter's [`Machine`]: one tasklet of a launch, through the
/// DPU context's intrinsics, with its arithmetic in the mode `A`.
struct Interp<'c, 'a, A> {
    ctx: &'c mut DpuContext<'a>,
    hdr: KernelHeader,
    map: WramMap,
    /// Chunk index of the tasklet's first record.
    start: usize,
    /// WRAM offset of the tasklet's private staging window.
    window: usize,
    mode: PhantomData<A>,
}

impl<A: Arith> Interp<'_, '_, A> {
    /// Loads and validates the record staged at WRAM offset `wram_off`.
    #[inline(always)]
    fn read_record(&mut self, wram_off: usize) -> Result<Record, Stop> {
        let mut words = [0u32; RECORD_BYTES / 4];
        self.ctx.wram_read_words(wram_off, &mut words)?;
        let rec = Record::from_words(words);
        if !rec.fits(&self.hdr) {
            return Err(Stop::Kernel(KernelFault::RecordOutOfSpace {
                state: rec.state,
                action: rec.action,
                next_state: rec.next_state,
            }));
        }
        Ok(rec)
    }

    #[inline(always)]
    fn entry(&self, state: u32, action: u32) -> usize {
        self.map.q_entry(self.hdr.num_actions, state, action)
    }
}

impl<A: Arith> Ops for Interp<'_, '_, A> {
    #[inline(always)]
    fn alu(&mut self, n: u64) {
        self.ctx.charge_alu(n);
    }
    #[inline(always)]
    fn control(&mut self, n: u64) {
        self.ctx.charge_control(n);
    }
    #[inline(always)]
    fn fadd(&mut self, a: u32, b: u32) -> u32 {
        self.ctx.fadd_in::<A>(F32(a), F32(b)).0
    }
    #[inline(always)]
    fn fsub(&mut self, a: u32, b: u32) -> u32 {
        self.ctx.fsub_in::<A>(F32(a), F32(b)).0
    }
    #[inline(always)]
    fn fmul(&mut self, a: u32, b: u32) -> u32 {
        self.ctx.fmul_in::<A>(F32(a), F32(b)).0
    }
    #[inline(always)]
    fn fmax(&mut self, a: u32, b: u32) -> u32 {
        self.ctx.fmax_in::<A>(F32(a), F32(b)).0
    }
    #[inline(always)]
    fn fgt(&mut self, a: u32, b: u32) -> bool {
        self.ctx.fgt_in::<A>(F32(a), F32(b))
    }
    /// The intrinsics' NaNs are already canonical.
    #[inline(always)]
    fn fstored(&self, bits: u32) -> u32 {
        bits
    }
    #[inline(always)]
    fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
        self.ctx.mul_wide_in::<A>(a, b)
    }
    #[inline(always)]
    fn descale(&mut self, n: i64) -> i64 {
        self.ctx.div_wide_in::<A>(n, self.hdr.scale as i32)
    }
    #[inline(always)]
    fn lcg_next(&mut self, state: &mut u32) -> u32 {
        self.ctx.lcg_next_in::<A>(state)
    }
    #[inline(always)]
    fn lcg_below(&mut self, state: &mut u32, bound: u32) -> u32 {
        self.ctx.lcg_below_in::<A>(state, bound)
    }
}

impl<A: Arith> Machine for Interp<'_, '_, A> {
    type Err = Stop;
    type Ops = Self;

    #[inline(always)]
    fn ops(&mut self) -> &mut Self {
        self
    }

    #[inline(always)]
    fn stage_table(&mut self) -> Result<(), Stop> {
        let map = self.map;
        Ok(self.ctx.mram_to_wram(Q_TABLE_OFFSET, map.q, map.q_dma_bytes())?)
    }

    #[inline(always)]
    fn publish_table(&mut self) -> Result<(), Stop> {
        let map = self.map;
        self.ctx.wram_to_mram(map.q, Q_TABLE_OFFSET, map.q_dma_bytes())?;
        Ok(self.ctx.mram_write(0, &next_header(&self.hdr))?)
    }

    #[inline(always)]
    fn walk(&mut self) -> Result<Walk, Stop> {
        Ok(Walk::of(&self.hdr)?)
    }

    /// Each batch's DMA, then its records.
    #[inline(always)]
    fn walk_seq(
        &mut self,
        n: usize,
        mut each: impl FnMut(&mut Self, &Record) -> Result<(), Stop>,
    ) -> Result<(), Stop> {
        for (first, count) in seq_batches(n) {
            let from = self.hdr.transition_offset(self.start + first);
            self.ctx.mram_to_wram(from, self.window, count * RECORD_BYTES)?;
            for j in 0..count {
                let rec = self.read_record(self.window + j * RECORD_BYTES)?;
                each(self, &rec)?;
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn fetch(&mut self, i: usize) -> Result<Record, Stop> {
        let from = self.hdr.transition_offset(self.start + i);
        self.ctx.mram_to_wram(from, self.window, RECORD_BYTES)?;
        self.read_record(self.window)
    }

    /// Loads the row in [`ROW_CHUNK`]-word stack chunks, one wide WRAM
    /// load each. The first chunk is peeled, so the paper's rows (one
    /// chunk) run a plain slice loop: one loop that reloads on every
    /// chunk boundary costs 26–42 more host instructions per update.
    #[inline(always)]
    fn fold_row<T>(
        &mut self,
        state: u32,
        first: impl FnOnce(u32) -> T,
        mut step: impl FnMut(&mut Self, T, u32, u32) -> T,
    ) -> Result<T, Stop> {
        let na = self.hdr.num_actions;
        let row = self.entry(state, 0);
        let mut chunk = [0u32; ROW_CHUNK];
        let words = &mut chunk[..na.min(ROW_CHUNK as u32) as usize];
        self.ctx.wram_read_words(row, words)?;
        let mut acc = first(words[0]);
        for (a, &v) in (1u32..).zip(&words[1..]) {
            acc = step(self, acc, a, v);
        }
        let mut a = words.len() as u32;
        while a < na {
            let words = &mut chunk[..(na - a).min(ROW_CHUNK as u32) as usize];
            self.ctx.wram_read_words(row + a as usize * 4, words)?;
            for &v in words.iter() {
                acc = step(self, acc, a, v);
                a += 1;
            }
        }
        Ok(acc)
    }

    #[inline(always)]
    fn load(&mut self, state: u32, action: u32) -> Result<u32, Stop> {
        let entry = self.entry(state, action);
        Ok(self.ctx.wram_read_u32(entry)?)
    }

    #[inline(always)]
    fn update_entry(
        &mut self,
        state: u32,
        action: u32,
        f: impl FnOnce(&mut Self, u32) -> u32,
    ) -> Result<(), Stop> {
        let entry = self.entry(state, action);
        let old = self.ctx.wram_read_u32(entry)?;
        let new = f(self, old);
        Ok(self.ctx.wram_write_u32(entry, new)?)
    }
}

impl SwiftRlKernel {
    /// One tasklet's interpreted launch in the arithmetic mode `A`, under
    /// the kernel's update rule.
    fn interpret<A: Arith>(&self, ctx: &mut DpuContext<'_>, hdr: KernelHeader) -> Result<(), Stop> {
        match (self.spec.algorithm, self.spec.dtype) {
            (Algorithm::QLearning, DataType::Fp32) => self.interpret_rule::<A, Fp32, false>(ctx, hdr),
            (Algorithm::QLearning, DataType::Int32) => {
                self.interpret_rule::<A, Int32, false>(ctx, hdr)
            }
            (Algorithm::Sarsa, DataType::Fp32) => self.interpret_rule::<A, Fp32, true>(ctx, hdr),
            (Algorithm::Sarsa, DataType::Int32) => self.interpret_rule::<A, Int32, true>(ctx, hdr),
        }
    }

    /// [`Self::interpret`] for one update rule: one instance of the
    /// kernel body.
    fn interpret_rule<A: Arith, D: Dtype, const SARSA: bool>(
        &self,
        ctx: &mut DpuContext<'_>,
        hdr: KernelHeader,
    ) -> Result<(), Stop> {
        if hdr.num_states == 0 || hdr.num_actions == 0 {
            return Err(Stop::Kernel(KernelFault::EmptyShape));
        }
        let t = ctx.tasklet_id();
        let range = tasklet_range(hdr.n_transitions as usize, self.tasklets, t);
        let map = WramMap::new(&hdr);
        let mut m = Interp {
            ctx,
            hdr,
            map,
            start: range.start,
            window: map.batch + t * SEQ_BATCH * RECORD_BYTES,
            mode: PhantomData::<A>,
        };
        tasklet::<_, D, SARSA>(&mut m, hdr, t, self.tasklets, range.len())
    }
}

// ---- Batched (fused) execution -----------------------------------------
//
// Under `ExecTier::Batched` the executor offers the whole launch to the
// kernel as one host-native sweep per DPU instead of interpreting it one
// charged intrinsic at a time per tasklet. The sweep runs the same kernel
// body on the `Sweep` machine, over the Q-table image and the records
// where they lie in the bank. Values are computed with the same
// `swiftrl_pim::fastpath` bit-exact routines the fast tier uses (FP32
// add, subtract and multiply as host ops whose NaNs are canonicalized at
// the store, see `Em::fadd`), so Q-tables stay bit-identical; charges
// are summed per tasklet in registers and deposited once. The parity
// suite (`tests/fastpath_parity.rs`, `tests/engine_determinism.rs`)
// proves both the bytes and the cycle accounting identical to the
// per-intrinsic tiers; any launch this sweep cannot reproduce exactly is
// declined (`Ok(false)`), which falls back to the canonical interpreter.

/// Aggregate charge accumulator for one tasklet of a fused launch: the
/// sweep's [`Ops`]. It sums native charges and exact data-dependent
/// fastpath tallies (`TALLY = true`, FP ops plus the runtime library's
/// call overhead) in registers, and under calibrated charging counts the
/// emulated ops by kind, to be multiplied by their costs once
/// (`flush_into`).
struct Em<'a, const TALLY: bool> {
    ops: &'a OpCosts,
    /// The launch-constant fixed-point scale, as a reciprocal.
    scale: fastpath::Reciprocal,
    sum: CycleCounter,
    /// Calibrated-mode op counts, indexed by [`kind`].
    n: [u64; 6],
}

/// The kinds of emulated op by calibrated cost, as indices of `Em::n`.
mod kind {
    /// FP32 add and subtract.
    pub const FADD: usize = 0;
    pub const FMUL: usize = 1;
    /// FP32 compare and max.
    pub const FCMP: usize = 2;
    pub const MUL32: usize = 3;
    pub const MUL64: usize = 4;
    pub const DIV64: usize = 5;
}

impl<const TALLY: bool> Em<'_, TALLY> {
    /// Charges an emulated integer op: one more of kind `k`, or its tally.
    #[inline(always)]
    fn int(&mut self, k: usize, tally: impl FnOnce() -> u64) {
        if TALLY {
            self.sum.int_emul_slots += tally();
        } else {
            self.n[k] += 1;
        }
    }

    /// Charges an emulated float op: one more of kind `k`, or its tally
    /// plus the call overhead.
    #[inline(always)]
    fn float(&mut self, k: usize, tally: impl FnOnce() -> u64) {
        if TALLY {
            self.sum.float_emul_slots += tally() + self.ops.fp_call_overhead_slots;
        } else {
            self.n[k] += 1;
        }
    }

    /// Deposits the aggregate charges into a tasklet's cycle counter.
    fn flush_into(&self, counter: &mut CycleCounter) {
        let [fadd, fmul, fcmp, mul32, mul64, div64] = self.n;
        let o = self.ops;
        counter.merge(&self.sum);
        counter.float_emul_slots += fadd * o.fadd_slots + fmul * o.fmul_slots + fcmp * o.fcmp_slots;
        counter.int_emul_slots += mul32 * o.mul32_slots + mul64 * o.mul64_slots + div64 * o.div64_slots;
    }
}

impl<const TALLY: bool> Ops for Em<'_, TALLY> {
    #[inline(always)]
    fn alu(&mut self, n: u64) {
        self.sum.alu_slots += n;
    }

    #[inline(always)]
    fn control(&mut self, n: u64) {
        self.sum.control_slots += n;
    }

    /// FP32 add. Unlike `fastpath::f32_add`, and like `fsub` and `fmul`,
    /// the result keeps the host's NaN encoding: within an update every
    /// such result feeds further adds and multiplies until the update
    /// stores it, and a NaN in is a NaN out, so only the stored value is
    /// canonicalized (`fstored`). The tallies classify a NaN operand
    /// whatever its encoding.
    #[inline(always)]
    fn fadd(&mut self, a: u32, b: u32) -> u32 {
        self.float(kind::FADD, || fastpath::f32_add_tally(a, b));
        (f32::from_bits(a) + f32::from_bits(b)).to_bits()
    }

    /// FP32 subtract, charged at the add cost like `DpuContext::fsub`.
    #[inline(always)]
    fn fsub(&mut self, a: u32, b: u32) -> u32 {
        self.float(kind::FADD, || fastpath::f32_sub_tally(a, b));
        (f32::from_bits(a) - f32::from_bits(b)).to_bits()
    }

    #[inline(always)]
    fn fmul(&mut self, a: u32, b: u32) -> u32 {
        self.float(kind::FMUL, || fastpath::f32_mul_tally(a, b));
        (f32::from_bits(a) * f32::from_bits(b)).to_bits()
    }

    #[inline(always)]
    fn fmax(&mut self, a: u32, b: u32) -> u32 {
        self.float(kind::FCMP, || fastpath::f32_max_tally(a, b));
        fastpath::f32_max(a, b)
    }

    #[inline(always)]
    fn fgt(&mut self, a: u32, b: u32) -> bool {
        self.float(kind::FCMP, || fastpath::f32_cmp_tally(a, b));
        fastpath::f32_gt(a, b)
    }

    #[inline(always)]
    fn fstored(&self, bits: u32) -> u32 {
        fastpath::f32_canonical(bits)
    }

    #[inline(always)]
    fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
        self.int(kind::MUL64, || fastpath::imul32_wide_tally(a, b));
        fastpath::imul32_wide(a, b)
    }

    #[inline(always)]
    fn descale(&mut self, n: i64) -> i64 {
        let d = self.scale;
        self.int(kind::DIV64, || fastpath::idiv64_tally(n, d.divisor()));
        d.idiv64(n)
    }

    /// LCG advance: one mul32-class emulated multiply + one native add,
    /// exactly like `DpuContext::lcg_next`.
    #[inline(always)]
    fn lcg_next(&mut self, state: &mut u32) -> u32 {
        let s = *state;
        self.int(kind::MUL32, || fastpath::umul32_wide_tally(s, Lcg32::MULTIPLIER));
        self.alu(1);
        *state = (fastpath::umul32_wide(s, Lcg32::MULTIPLIER) as u32).wrapping_add(Lcg32::INCREMENT);
        *state
    }

    /// Uniform draw in `[0, bound)`: `lcg_next` plus one mul64-class
    /// emulated wide multiply, exactly like `DpuContext::lcg_below`.
    #[inline(always)]
    fn lcg_below(&mut self, state: &mut u32, bound: u32) -> u32 {
        let raw = self.lcg_next(state);
        self.int(kind::MUL64, || fastpath::umul32_wide_tally(raw, bound));
        self.alu(1);
        (fastpath::umul32_wide(raw, bound) >> 32) as u32
    }
}

/// DMA cycle costs of one fused launch, hoisted per transfer length.
#[derive(Debug, Clone, Copy)]
struct DmaCycles {
    header: u64,
    table: u64,
    record: u64,
    batch: u64,
}

/// The fused sweep's [`Machine`]: one tasklet of a launch. It reads and
/// writes Q-table words where they lie in the bank, little-endian, with
/// no decode or encode pass, and walks a whole row behind one range check.
struct Sweep<'s, 'c, const TALLY: bool> {
    em: Em<'c, TALLY>,
    /// The Q-table image's words, pad bytes included.
    q: &'s mut [[u8; 4]],
    /// Words per Q-row (the action count).
    na: usize,
    /// The tasklet's records, validated and still encoded.
    records: &'s [[u8; RECORD_BYTES]],
    walk: Walk,
    cost: &'c CostModel,
    dma: DmaCycles,
}

impl<const TALLY: bool> Sweep<'_, '_, TALLY> {
    /// The record read: four WRAM words.
    #[inline(always)]
    fn read(&mut self, raw: &[u8; RECORD_BYTES]) -> Record {
        self.em.sum.wram_slots += 4;
        Record::decode(raw)
    }

    #[inline(always)]
    fn entry(&mut self, state: u32, action: u32) -> &mut [u8; 4] {
        &mut self.q[state as usize * self.na + action as usize]
    }
}

impl<'c, const TALLY: bool> Machine for Sweep<'_, 'c, TALLY> {
    type Err = Infallible;
    type Ops = Em<'c, TALLY>;

    #[inline(always)]
    fn ops(&mut self) -> &mut Self::Ops {
        &mut self.em
    }

    #[inline(always)]
    fn stage_table(&mut self) -> Result<(), Infallible> {
        self.em.sum.charge_dma(self.q.len() as u64 * 4, self.dma.table);
        Ok(())
    }

    #[inline(always)]
    fn publish_table(&mut self) -> Result<(), Infallible> {
        self.em.sum.charge_dma(self.q.len() as u64 * 4, self.dma.table);
        self.em.sum.charge_dma(HEADER_BYTES as u64, self.dma.header);
        Ok(())
    }

    #[inline(always)]
    fn walk(&mut self) -> Result<Walk, Infallible> {
        Ok(self.walk)
    }

    /// Every batch's DMA charge first, then one loop over the records:
    /// the charges sum the same.
    #[inline(always)]
    fn walk_seq(
        &mut self,
        n: usize,
        mut each: impl FnMut(&mut Self, &Record) -> Result<(), Infallible>,
    ) -> Result<(), Infallible> {
        for (_, count) in seq_batches(n) {
            let len = count * RECORD_BYTES;
            let cycles = if count == SEQ_BATCH {
                self.dma.batch
            } else {
                self.cost.dma_cycles(len)
            };
            self.em.sum.charge_dma(len as u64, cycles);
        }
        let records = self.records;
        for raw in records {
            let rec = self.read(raw);
            each(self, &rec)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn fetch(&mut self, i: usize) -> Result<Record, Infallible> {
        self.em.sum.charge_dma(RECORD_BYTES as u64, self.dma.record);
        let records = self.records;
        Ok(self.read(&records[i]))
    }

    #[inline(always)]
    fn fold_row<T>(
        &mut self,
        state: u32,
        first: impl FnOnce(u32) -> T,
        mut step: impl FnMut(&mut Self::Ops, T, u32, u32) -> T,
    ) -> Result<T, Infallible> {
        let start = state as usize * self.na;
        let row = &self.q[start..start + self.na];
        self.em.sum.wram_slots += row.len() as u64;
        let mut acc = first(u32::from_le_bytes(row[0]));
        for (a, v) in (1u32..).zip(&row[1..]) {
            acc = step(&mut self.em, acc, a, u32::from_le_bytes(*v));
        }
        Ok(acc)
    }

    #[inline(always)]
    fn load(&mut self, state: u32, action: u32) -> Result<u32, Infallible> {
        self.em.sum.wram_slots += 1;
        Ok(u32::from_le_bytes(*self.entry(state, action)))
    }

    #[inline(always)]
    fn update_entry(
        &mut self,
        state: u32,
        action: u32,
        f: impl FnOnce(&mut Self::Ops, u32) -> u32,
    ) -> Result<(), Infallible> {
        self.em.sum.wram_slots += 2;
        let entry = &mut self.q[state as usize * self.na + action as usize];
        *entry = f(&mut self.em, u32::from_le_bytes(*entry)).to_le_bytes();
        Ok(())
    }
}

impl SwiftRlKernel {
    /// Validates the replay chunk, then runs [`Self::fused_sweep`] for the
    /// kernel's update rule in the cost model's charging mode. `bytes`
    /// holds the Q-table DMA image (its first `q_dma_bytes`, pad bytes
    /// included) and the chunk's records right after it, as the layout
    /// places them in MRAM.
    /// Returns `false`, having written and charged nothing, when a record
    /// indexes outside the table: the interpreter may fault on it
    /// mid-sweep, so the launch is declined.
    fn sweep(
        &self,
        cost: &CostModel,
        counters: &mut [CycleCounter],
        hdr: &KernelHeader,
        walk: Walk,
        bytes: &mut [u8],
        q_dma_bytes: usize,
    ) -> bool {
        let (image, chunk) = bytes.split_at_mut(q_dma_bytes);
        let (records, _) = chunk.as_chunks::<RECORD_BYTES>();
        if !records.iter().all(|raw| Record::decode(raw).fits(hdr)) {
            return false;
        }
        let q = image.as_chunks_mut::<4>().0;
        let tally = cost.emulation_charging == EmulationCharging::Tally;
        let (c, h, w, r) = (counters, hdr, walk, records);
        // One instance per update rule and charging mode.
        match (self.spec.algorithm, self.spec.dtype, tally) {
            (Algorithm::QLearning, DataType::Fp32, false) => {
                self.fused_sweep::<false, Fp32, false>(cost, c, h, w, q, r)
            }
            (Algorithm::QLearning, DataType::Fp32, true) => {
                self.fused_sweep::<true, Fp32, false>(cost, c, h, w, q, r)
            }
            (Algorithm::QLearning, DataType::Int32, false) => {
                self.fused_sweep::<false, Int32, false>(cost, c, h, w, q, r)
            }
            (Algorithm::QLearning, DataType::Int32, true) => {
                self.fused_sweep::<true, Int32, false>(cost, c, h, w, q, r)
            }
            (Algorithm::Sarsa, DataType::Fp32, false) => {
                self.fused_sweep::<false, Fp32, true>(cost, c, h, w, q, r)
            }
            (Algorithm::Sarsa, DataType::Fp32, true) => {
                self.fused_sweep::<true, Fp32, true>(cost, c, h, w, q, r)
            }
            (Algorithm::Sarsa, DataType::Int32, false) => {
                self.fused_sweep::<false, Int32, true>(cost, c, h, w, q, r)
            }
            (Algorithm::Sarsa, DataType::Int32, true) => {
                self.fused_sweep::<true, Int32, true>(cost, c, h, w, q, r)
            }
        }
        true
    }

    /// The fused per-DPU sweep: every tasklet's episodes, in tasklet
    /// order (the per-intrinsic executor serializes tasklet bodies over
    /// the shared WRAM Q-table), charging per-tasklet aggregates.
    fn fused_sweep<const TALLY: bool, D: Dtype, const SARSA: bool>(
        &self,
        cost: &CostModel,
        counters: &mut [CycleCounter],
        hdr: &KernelHeader,
        walk: Walk,
        q: &mut [[u8; 4]],
        records: &[[u8; RECORD_BYTES]],
    ) {
        // The preflight declines an INT32 launch with scale 0, and FP32
        // never descales, so 1 only stands in for an unused scale.
        let scale = fastpath::Reciprocal::new(hdr.scale.max(1) as i32);
        let dma = DmaCycles {
            header: cost.dma_cycles(HEADER_BYTES),
            table: cost.dma_cycles(q.len() * 4),
            record: cost.dma_cycles(RECORD_BYTES),
            batch: cost.dma_cycles(SEQ_BATCH * RECORD_BYTES),
        };
        let n = hdr.n_transitions as usize;
        for (t, counter) in counters[..self.tasklets].iter_mut().enumerate() {
            let range = tasklet_range(n, self.tasklets, t);
            let rn = range.len();
            let mut m = Sweep {
                em: Em::<TALLY> {
                    ops: &cost.ops,
                    scale,
                    sum: CycleCounter::new(),
                    n: [0; 6],
                },
                q: &mut *q,
                na: hdr.num_actions as usize,
                records: &records[range],
                walk,
                cost,
                dma,
            };
            // Header load + field decodes.
            m.em.sum.charge_dma(HEADER_BYTES as u64, dma.header);
            m.em.alu(13);
            let Ok(()) = tasklet::<_, D, SARSA>(&mut m, *hdr, t, self.tasklets, rn);
            m.em.flush_into(counter);
        }
    }
}

impl BatchKernel for SwiftRlKernel {
    fn run_batched(&self, ctx: &mut BatchContext<'_>) -> Result<bool, KernelError> {
        // ---- preflight: decline (`Ok(false)`) on anything the fused
        // sweep cannot reproduce exactly, including every input the
        // per-intrinsic path would fault on — the fallback then raises
        // the canonical error with the canonical partial charges.
        if ctx.tasklets() != self.tasklets {
            // The platform clamped the tasklet count; the per-intrinsic
            // partition (which keys on the kernel's own count) is the
            // reference behaviour for that corner.
            return Ok(false);
        }
        // Every DMA this kernel issues is 8-byte aligned; coarser
        // granules would fault some of them mid-launch.
        let granule = ctx.cost().dma_granule_bytes.max(1);
        if 8 % granule != 0 {
            return Ok(false);
        }
        let mut hdr_buf = [0u8; HEADER_BYTES];
        if ctx.mram().read(0, &mut hdr_buf).is_err() {
            return Ok(false);
        }
        let Ok(hdr) = KernelHeader::from_bytes(&hdr_buf) else {
            return Ok(false);
        };
        if hdr.num_states == 0 || hdr.num_actions == 0 {
            return Ok(false);
        }
        let Ok(walk) = Walk::of(&hdr) else {
            return Ok(false);
        };
        if self.spec.dtype == DataType::Int32 && hdr.scale == 0 {
            return Ok(false);
        }
        let map = WramMap::new(&hdr);
        let q_dma_bytes = map.q_dma_bytes();
        // Modelled WRAM working set (Q-table image + every tasklet's
        // staging window) must fit the scratchpad, as it must for the
        // per-intrinsic path.
        if map.batch + self.tasklets * SEQ_BATCH * RECORD_BYTES > ctx.wram_capacity() {
            return Ok(false);
        }
        // The replay chunk starts right after the Q-table image, so one
        // MRAM span holds both; it must be in-bank.
        debug_assert_eq!(hdr.transitions_offset(), Q_TABLE_OFFSET + q_dma_bytes);
        let n = hdr.n_transitions as usize;
        let span = q_dma_bytes + n * RECORD_BYTES;
        if (Q_TABLE_OFFSET + span) as u64 > ctx.mram().capacity() as u64 {
            return Ok(false);
        }

        // ---- sweep. When the span lies in one materialized bank segment
        // the sweep runs on the bank bytes in place; otherwise it runs on
        // a staged copy of the span, and `Bank::write` puts the image
        // back, which materializes segments exactly as the interpreter's
        // WRAM write-back does. Either way every record is validated
        // before anything is written or charged.
        let (bank, cost, counters) = ctx.split_mut();
        match bank.slice_mut(Q_TABLE_OFFSET, span) {
            Some(bytes) => {
                if !self.sweep(cost, counters, &hdr, walk, bytes, q_dma_bytes) {
                    return Ok(false);
                }
            }
            None => {
                let mut staged = vec![0u8; span];
                if bank.read(Q_TABLE_OFFSET, &mut staged).is_err()
                    || !self.sweep(cost, counters, &hdr, walk, &mut staged, q_dma_bytes)
                {
                    return Ok(false);
                }
                if bank.write(Q_TABLE_OFFSET, &staged[..q_dma_bytes]).is_err() {
                    return Ok(false);
                }
            }
        }

        // Re-arm the header for the next launch's episode window.
        if bank.write(0, &next_header(&hdr)).is_err() {
            return Ok(false);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::dpu_seed;
    use swiftrl_env::{Action, State, Transition};
    use swiftrl_pim::config::{ExecTier, PimConfig};
    use swiftrl_pim::host::PimSystem;
    use swiftrl_rl::fixed::FixedScale;
    use swiftrl_rl::policy::epsilon_threshold;
    use swiftrl_rl::qtable::{FixedQTable, QTable};
    use swiftrl_rl::sampling::SamplingStrategy;

    fn tiny_transitions() -> Vec<Transition> {
        vec![
            Transition {
                state: State(0),
                action: Action(0),
                reward: 0.0,
                next_state: State(1),
                done: false,
            },
            Transition {
                state: State(1),
                action: Action(1),
                reward: 1.0,
                next_state: State(2),
                done: false,
            },
            Transition {
                state: State(2),
                action: Action(0),
                reward: -0.5,
                next_state: State(0),
                done: false,
            },
        ]
    }

    /// Loads a DPU with a header + zero Q-table + transitions, runs the
    /// kernel, returns the Q-table bytes.
    fn run_kernel_once(
        spec: WorkloadSpec,
        hdr: KernelHeader,
        transitions: &[Transition],
        int32_scale: Option<i32>,
    ) -> Vec<u8> {
        run_kernel_on(PimConfig::builder(), spec, hdr, transitions, int32_scale)
    }

    /// [`run_kernel_once`] on a platform built from `platform`.
    fn run_kernel_on(
        platform: swiftrl_pim::config::PimConfigBuilder,
        spec: WorkloadSpec,
        hdr: KernelHeader,
        transitions: &[Transition],
        int32_scale: Option<i32>,
    ) -> Vec<u8> {
        let mut sys = PimSystem::new(platform.dpus(1).mram_bytes(1 << 20).build());
        let mut set = sys.alloc(1).unwrap();
        set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
        let q_bytes = vec![0u8; hdr.q_table_bytes()];
        set.copy_to(0, Q_TABLE_OFFSET, &q_bytes).unwrap();
        let mut data = Vec::new();
        for t in transitions {
            match int32_scale {
                Some(scale) => t.encode_int32(scale, &mut data),
                None => t.encode_fp32(&mut data),
            }
        }
        set.copy_to(0, hdr.transitions_offset(), &data).unwrap();
        set.launch(&SwiftRlKernel::new(spec)).unwrap();
        set.copy_from(0, Q_TABLE_OFFSET, hdr.q_table_bytes()).unwrap()
    }

    fn header_for(
        spec: WorkloadSpec,
        n: usize,
        episodes: u32,
        seed: u32,
    ) -> KernelHeader {
        let scale = FixedScale::paper();
        let (alpha, gamma) = match spec.dtype {
            DataType::Fp32 => (0.1f32.to_bits(), 0.95f32.to_bits()),
            DataType::Int32 => (scale.to_fixed(0.1) as u32, scale.to_fixed(0.95) as u32),
        };
        let sampling = match spec.sampling {
            SamplingStrategy::Sequential => sampling_kind::SEQ,
            SamplingStrategy::Stride(_) => sampling_kind::STR,
            SamplingStrategy::Random => sampling_kind::RAN,
        };
        let stride = match spec.sampling {
            SamplingStrategy::Stride(k) => k as u32,
            _ => 0,
        };
        KernelHeader {
            n_transitions: n as u32,
            num_states: 3,
            num_actions: 2,
            episodes,
            episode_base: 0,
            sampling,
            stride,
            seed,
            alpha,
            gamma,
            epsilon_threshold: epsilon_threshold(0.1).min(u32::MAX as u64) as u32,
            scale: 10_000,
        }
    }

    #[test]
    fn q_fp32_seq_matches_host_reference_bitwise() {
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let data = tiny_transitions();
        let seed = dpu_seed(1, 0);
        let hdr = header_for(spec, data.len(), 7, seed);
        let bytes = run_kernel_once(spec, hdr, &data, None);
        let pim_q = QTable::from_bytes(3, 2, &bytes);

        let mut host_q = QTable::zeros(3, 2);
        let cfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 7,
        };
        swiftrl_rl::qlearning::train_offline_into(
            &mut host_q,
            &data,
            &cfg,
            SamplingStrategy::Sequential,
            seed,
        );
        assert_eq!(pim_q, host_q, "PIM and host FP32 Q-tables must be bit-identical");
        assert!(pim_q.values().iter().any(|&v| v != 0.0), "training happened");
    }

    #[test]
    fn q_fp32_ran_matches_host_reference_bitwise() {
        let spec = WorkloadSpec {
            sampling: SamplingStrategy::Random,
            ..WorkloadSpec::q_learning_seq_fp32()
        };
        let data = tiny_transitions();
        let seed = dpu_seed(3, 0);
        let hdr = header_for(spec, data.len(), 5, seed);
        let bytes = run_kernel_once(spec, hdr, &data, None);
        let pim_q = QTable::from_bytes(3, 2, &bytes);

        let mut host_q = QTable::zeros(3, 2);
        let cfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 5,
        };
        swiftrl_rl::qlearning::train_offline_into(
            &mut host_q,
            &data,
            &cfg,
            SamplingStrategy::Random,
            seed,
        );
        assert_eq!(pim_q, host_q);
    }

    #[test]
    fn q_int32_stride_matches_host_reference_exactly() {
        let spec = WorkloadSpec {
            sampling: SamplingStrategy::Stride(4),
            dtype: DataType::Int32,
            ..WorkloadSpec::q_learning_seq_int32()
        };
        let data = tiny_transitions();
        let seed = dpu_seed(5, 0);
        let hdr = header_for(spec, data.len(), 9, seed);
        let bytes = run_kernel_once(spec, hdr, &data, Some(10_000));
        let scale = FixedScale::paper();
        let pim_q = FixedQTable::from_bytes(3, 2, scale, &bytes);

        // Host fixed-point reference.
        let mut d = swiftrl_env::ExperienceDataset::new("tiny", 3, 2);
        d.extend(data.clone());
        let cfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 9,
        };
        let host_q = swiftrl_rl::qlearning::train_offline_fixed(
            &d,
            &cfg,
            SamplingStrategy::Stride(4),
            scale,
            seed,
        );
        assert_eq!(pim_q, host_q);
    }

    #[test]
    fn sarsa_fp32_seq_matches_host_reference_bitwise() {
        let spec = WorkloadSpec::sarsa_seq_fp32();
        let data = tiny_transitions();
        let seed = dpu_seed(11, 0);
        let hdr = header_for(spec, data.len(), 6, seed);
        let bytes = run_kernel_once(spec, hdr, &data, None);
        let pim_q = QTable::from_bytes(3, 2, &bytes);

        let mut d = swiftrl_env::ExperienceDataset::new("tiny", 3, 2);
        d.extend(data.clone());
        let cfg = swiftrl_rl::sarsa::SarsaConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 6,
            epsilon: 0.1,
        };
        let host_q =
            swiftrl_rl::sarsa::train_offline(&d, &cfg, SamplingStrategy::Sequential, seed);
        assert_eq!(pim_q, host_q);
    }

    #[test]
    fn sarsa_int32_seq_matches_host_reference_exactly() {
        let spec = WorkloadSpec::sarsa_seq_int32();
        let data = tiny_transitions();
        let seed = dpu_seed(13, 0);
        let hdr = header_for(spec, data.len(), 6, seed);
        let bytes = run_kernel_once(spec, hdr, &data, Some(10_000));
        let scale = FixedScale::paper();
        let pim_q = FixedQTable::from_bytes(3, 2, scale, &bytes);

        let mut d = swiftrl_env::ExperienceDataset::new("tiny", 3, 2);
        d.extend(data.clone());
        let cfg = swiftrl_rl::sarsa::SarsaConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 6,
            epsilon: 0.1,
        };
        let host_q = swiftrl_rl::sarsa::train_offline_fixed(
            &d,
            &cfg,
            SamplingStrategy::Sequential,
            scale,
            seed,
        );
        assert_eq!(pim_q, host_q);
    }

    /// Rows wider than the interpreter's [`ROW_CHUNK`]-word load take
    /// several loads per scan; every tier still trains the host
    /// reference's table.
    #[test]
    fn rows_wider_than_a_load_chunk_match_the_host_reference() {
        let (states, actions) = (3, 2 * ROW_CHUNK + 3);
        let data: Vec<Transition> = (0..40)
            .map(|i| Transition {
                state: State((i % states) as u32),
                action: Action(((i * 7) % actions) as u32),
                reward: (i % 5) as f32 - 1.5,
                next_state: State(((i + 1) % states) as u32),
                done: i % 11 == 10,
            })
            .collect();
        let mut d = swiftrl_env::ExperienceDataset::new("wide", states, actions);
        d.extend(data.clone());
        let (q_seed, sarsa_seed) = (dpu_seed(17, 0), dpu_seed(19, 0));
        let q_cfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 4,
        };
        let mut host_q = QTable::zeros(states, actions);
        swiftrl_rl::qlearning::train_offline_into(
            &mut host_q,
            &data,
            &q_cfg,
            SamplingStrategy::Sequential,
            q_seed,
        );
        let sarsa_cfg = swiftrl_rl::sarsa::SarsaConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 4,
            epsilon: 0.1,
        };
        let host_sarsa =
            swiftrl_rl::sarsa::train_offline(&d, &sarsa_cfg, SamplingStrategy::Sequential, sarsa_seed);
        for tier in [ExecTier::Reference, ExecTier::Fast, ExecTier::Batched] {
            for (spec, seed, host) in [
                (WorkloadSpec::q_learning_seq_fp32(), q_seed, &host_q),
                (WorkloadSpec::sarsa_seq_fp32(), sarsa_seed, &host_sarsa),
            ] {
                let hdr = KernelHeader {
                    num_states: states as u32,
                    num_actions: actions as u32,
                    ..header_for(spec, data.len(), 4, seed)
                };
                let platform = PimConfig::builder().exec_tier(tier);
                let bytes = run_kernel_on(platform, spec, hdr, &data, None);
                let pim_q = QTable::from_bytes(states, actions, &bytes);
                assert_eq!(&pim_q, host, "{spec} on the {tier:?} tier");
            }
        }
        assert!(host_q.values().iter().any(|&v| v != 0.0), "training happened");
    }

    #[test]
    fn fp32_kernel_costs_several_times_int32_kernel() {
        // The paper's headline INT32-vs-FP32 result at kernel granularity.
        let data = tiny_transitions();
        let mut cycles = std::collections::BTreeMap::new();
        for spec in [
            WorkloadSpec::q_learning_seq_fp32(),
            WorkloadSpec::q_learning_seq_int32(),
        ] {
            let hdr = header_for(spec, data.len(), 20, 1);
            let mut sys =
                PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
            let mut set = sys.alloc(1).unwrap();
            set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
            set.copy_to(0, Q_TABLE_OFFSET, &vec![0u8; hdr.q_table_bytes()])
                .unwrap();
            let mut bytes = Vec::new();
            for t in &data {
                match spec.dtype {
                    DataType::Fp32 => t.encode_fp32(&mut bytes),
                    DataType::Int32 => t.encode_int32(10_000, &mut bytes),
                }
            }
            set.copy_to(0, hdr.transitions_offset(), &bytes).unwrap();
            set.launch(&SwiftRlKernel::new(spec)).unwrap();
            cycles.insert(spec.dtype, set.last_launch().max_cycles);
        }
        let ratio = cycles[&DataType::Fp32] as f64 / cycles[&DataType::Int32] as f64;
        assert!(
            ratio > 2.0,
            "FP32 kernel should far out-cost INT32, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn multi_tasklet_kernel_fills_the_pipeline() {
        // Same work, more tasklets: DPU cycles should shrink roughly
        // linearly until the pipeline fills at 11 tasklets, then flatten
        // — the fine-grained-multithreading behaviour of the hardware.
        let data: Vec<Transition> = (0..240)
            .map(|i| Transition {
                state: State(i % 3),
                action: Action(i % 2),
                reward: 0.25,
                next_state: State((i + 1) % 3),
                done: false,
            })
            .collect();
        let spec = WorkloadSpec::q_learning_seq_int32();
        let mut cycles = Vec::new();
        for tasklets in [1usize, 2, 4, 11, 16] {
            let hdr = header_for(spec, data.len(), 10, 1);
            let mut sys =
                PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
            let mut set = sys.alloc(1).unwrap();
            set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
            set.copy_to(0, Q_TABLE_OFFSET, &vec![0u8; hdr.q_table_bytes()])
                .unwrap();
            let mut bytes = Vec::new();
            for t in &data {
                t.encode_int32(10_000, &mut bytes);
            }
            set.copy_to(0, hdr.transitions_offset(), &bytes).unwrap();
            set.launch(&SwiftRlKernel::with_tasklets(spec, tasklets))
                .unwrap();
            cycles.push(set.last_launch().max_cycles);
        }
        let [t1, t2, t4, t11, t16] = cycles[..] else {
            panic!("expected 5 samples")
        };
        assert!(t2 < t1 * 6 / 10, "2 tasklets: {t1} -> {t2}");
        assert!(t4 < t2 * 6 / 10, "4 tasklets: {t2} -> {t4}");
        assert!(t11 < t4, "11 tasklets: {t4} -> {t11}");
        // Past 11 the issue interval grows with the tasklet count, so the
        // time stops improving.
        assert!(
            t16 as f64 > t11 as f64 * 0.85,
            "beyond pipeline fill should flatten: {t11} -> {t16}"
        );
    }

    #[test]
    fn multi_tasklet_kernel_still_learns() {
        let data = tiny_transitions();
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let hdr = header_for(spec, data.len(), 10, 3);
        let mut sys = PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
        let mut set = sys.alloc(1).unwrap();
        set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
        set.copy_to(0, Q_TABLE_OFFSET, &vec![0u8; hdr.q_table_bytes()])
            .unwrap();
        let mut bytes = Vec::new();
        for t in &data {
            t.encode_fp32(&mut bytes);
        }
        set.copy_to(0, hdr.transitions_offset(), &bytes).unwrap();
        set.launch(&SwiftRlKernel::with_tasklets(spec, 3)).unwrap();
        let out = set.copy_from(0, Q_TABLE_OFFSET, hdr.q_table_bytes()).unwrap();
        let q = QTable::from_bytes(3, 2, &out);
        assert!(q.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn empty_chunk_is_a_no_op() {
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let hdr = header_for(spec, 0, 10, 1);
        let bytes = run_kernel_once(spec, hdr, &[], None);
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn corrupt_record_faults() {
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let bad = [Transition {
            state: State(0),
            action: Action(0),
            reward: 0.0,
            next_state: State(2),
            done: false,
        }];
        let mut hdr = header_for(spec, 1, 1, 1);
        hdr.num_states = 1; // record's next_state (2) now out of range
        hdr.num_actions = 1;
        let mut sys = PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
        let mut set = sys.alloc(1).unwrap();
        set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
        set.copy_to(0, Q_TABLE_OFFSET, &vec![0u8; hdr.q_table_bytes()])
            .unwrap();
        let mut data = Vec::new();
        bad[0].encode_fp32(&mut data);
        set.copy_to(0, hdr.transitions_offset(), &data).unwrap();
        assert!(set.launch(&SwiftRlKernel::new(spec)).is_err());
    }

    /// A SwiftRL MRAM image on a 3-state × 2-action table: the header,
    /// then `n` in-range FP32 records with one whose `next_state` (7) is
    /// out of range at index `bad`.
    fn image_with_bad_record(n: usize, bad: usize) -> (KernelHeader, Vec<u8>) {
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let hdr = header_for(spec, n, 2, 1);
        let mut records = Vec::with_capacity(n * RECORD_BYTES);
        for i in 0..n {
            Transition {
                state: State(i as u32 % 3),
                action: Action(i as u32 % 2),
                reward: 0.5,
                next_state: State(if i == bad { 7 } else { (i as u32 + 1) % 3 }),
                done: false,
            }
            .encode_fp32(&mut records);
        }
        (hdr, records)
    }

    /// A record outside the table is declined on both batched paths —
    /// in place, and staged when the chunk crosses a bank segment — with
    /// the bank byte-identical and nothing charged; the launch then
    /// raises the interpreter's error, the same under `Batched` as under
    /// `Fast`.
    #[test]
    fn out_of_range_record_is_declined_on_both_paths() {
        use swiftrl_pim::config::ExecTier;
        use swiftrl_pim::memory::{DpuMemory, BANK_SEGMENT_BYTES};

        let spec = WorkloadSpec::q_learning_seq_fp32();
        // 10 records fit the first segment; 4,200 cross its end.
        for (n, bad, in_place) in [(10, 4, true), (4_200, 4_150, false)] {
            let (hdr, records) = image_with_bad_record(n, bad);
            let span = hdr.transitions_offset() - Q_TABLE_OFFSET + records.len();
            let cfg = PimConfig::builder().dpus(1).mram_bytes(1 << 20).build();
            let mut memory = DpuMemory::new(cfg.mram_bytes, cfg.wram_bytes);
            memory.mram.write(0, &hdr.to_bytes()).unwrap();
            memory.mram.write(hdr.transitions_offset(), &records).unwrap();
            assert_eq!(memory.mram.slice(Q_TABLE_OFFSET, span).is_some(), in_place);
            let mut before = vec![0u8; 2 * BANK_SEGMENT_BYTES];
            memory.mram.read(0, &mut before).unwrap();

            let mut ctx = BatchContext::new(0, 1, &mut memory, &cfg.cost);
            assert_eq!(SwiftRlKernel::new(spec).run_batched(&mut ctx), Ok(false));
            let (charges, cycles) = ctx.finish(11);
            assert_eq!((charges.total_slots(), charges.dma_bytes, cycles), (0, 0, 0));
            let mut after = vec![0u8; 2 * BANK_SEGMENT_BYTES];
            memory.mram.read(0, &mut after).unwrap();
            assert!(before == after, "declined launch wrote the bank ({n} records)");

            let launch = |tier| {
                let platform = PimConfig::builder()
                    .dpus(1)
                    .mram_bytes(1 << 20)
                    .exec_tier(tier)
                    .build();
                let mut sys = PimSystem::new(platform);
                let mut set = sys.alloc(1).unwrap();
                set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
                set.copy_to(0, hdr.transitions_offset(), &records).unwrap();
                let err = set.launch(&SwiftRlKernel::new(spec)).unwrap_err();
                (err, set.copy_from(0, 0, 2 * BANK_SEGMENT_BYTES).unwrap())
            };
            let (batched_err, batched_bank) = launch(ExecTier::Batched);
            let (fast_err, fast_bank) = launch(ExecTier::Fast);
            assert_eq!(batched_err, fast_err);
            assert!(format!("{batched_err}").contains("record out of space: s=1 a=0 s'=7"));
            assert!(batched_bank == fast_bank);
        }
    }

    /// Infinite, NaN (non-canonical payloads included) and subnormal
    /// rewards drive the FP32 rules through invalid operations
    /// (`inf - inf`); the batched sweep, which canonicalizes NaNs only at
    /// the store, leaves the same Q-table bytes and charges as the
    /// reference tier in both charging modes.
    #[test]
    fn fp32_special_values_match_the_reference_tier() {
        use swiftrl_pim::config::{EmulationCharging, ExecTier};

        let rewards = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FA0_0001),
            f32::from_bits(0xFFC0_1234),
            1e38,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
        ];
        let data: Vec<Transition> = (0..60u32)
            .map(|i| Transition {
                state: State(i % 3),
                action: Action(i % 2),
                reward: rewards[i as usize % rewards.len()],
                next_state: State((i + 1) % 3),
                done: i % 11 == 0,
            })
            .collect();
        let mut records = Vec::new();
        for t in &data {
            t.encode_fp32(&mut records);
        }
        for spec in [WorkloadSpec::q_learning_seq_fp32(), WorkloadSpec::sarsa_seq_fp32()] {
            let hdr = header_for(spec, data.len(), 3, 5);
            for charging in [EmulationCharging::Calibrated, EmulationCharging::Tally] {
                let launch = |tier| {
                    let mut platform = PimConfig::builder()
                        .dpus(1)
                        .mram_bytes(1 << 20)
                        .exec_tier(tier)
                        .build();
                    platform.cost.emulation_charging = charging;
                    let mut sys = PimSystem::new(platform);
                    let mut set = sys.alloc(1).unwrap();
                    set.copy_to(0, 0, &hdr.to_bytes()).unwrap();
                    set.copy_to(0, hdr.transitions_offset(), &records).unwrap();
                    set.launch(&SwiftRlKernel::new(spec)).unwrap();
                    let q = set.copy_from(0, Q_TABLE_OFFSET, hdr.q_table_bytes()).unwrap();
                    (q, set.last_launch().clone())
                };
                let (ref_q, ref_stats) = launch(ExecTier::Reference);
                let (q, stats) = launch(ExecTier::Batched);
                assert_eq!(ref_q, q, "{spec}/{charging:?}: Q-table bytes diverged");
                assert_eq!(ref_stats, stats, "{spec}/{charging:?}: charges diverged");
                let words: Vec<u32> = q
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                    .collect();
                assert!(words.contains(&0x7FC0_0000), "{spec}: no NaN was stored");
            }
        }
    }

    #[test]
    fn missing_header_faults() {
        let spec = WorkloadSpec::q_learning_seq_fp32();
        let mut sys = PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
        let mut set = sys.alloc(1).unwrap();
        assert!(set.launch(&SwiftRlKernel::new(spec)).is_err());
    }
}
