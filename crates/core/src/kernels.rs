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
//! The arithmetic is bit-identical to the host reference in
//! `swiftrl_rl::{qlearning, sarsa}`: an integration test trains both ways
//! and compares Q-tables exactly.

use crate::config::{Algorithm, DataType, WorkloadSpec};
use crate::layout::{episode_seed, sampling_kind, KernelHeader, HEADER_BYTES, Q_TABLE_OFFSET};
use swiftrl_pim::kernel::{DpuContext, Kernel, KernelError, F32};
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

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
        // Header load: one DMA + field decodes (every tasklet reads it,
        // as UPMEM tasklets each execute main()). Stack buffer: kernels
        // must not heap-allocate (K002).
        let mut hdr_buf = [0u8; HEADER_BYTES];
        ctx.mram_read(0, &mut hdr_buf)?;
        ctx.charge_alu(13); // unpack the 13 header words into registers
        let hdr = KernelHeader::from_bytes(&hdr_buf)
            .map_err(|e| KernelError::Fault(format!("{e}")))?;

        let body = KernelBody::new(self.spec, hdr, ctx.tasklet_id(), self.tasklets);
        body.run(ctx)
    }

    /// Offers the fused whole-launch form to the executor under
    /// [`ExecTier::Batched`](swiftrl_pim::config::ExecTier::Batched).
    fn batch(&self) -> Option<&dyn BatchKernel> {
        Some(self)
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

// Both `Record` helpers are forced inline: `fits` runs once per record
// in the interpreter's record read and in the batched tier's validation
// pass, `decode` once per update of the fused sweep.
impl Record {
    /// Decodes one transition record as it lies in MRAM.
    #[inline(always)]
    fn decode(raw: &[u8; RECORD_BYTES]) -> Self {
        let [s0, s1, s2, s3, a0, a1, a2, a3, r0, r1, r2, r3, n0, n1, n2, n3] = *raw;
        let action_word = u32::from_le_bytes([a0, a1, a2, a3]);
        Self {
            state: u32::from_le_bytes([s0, s1, s2, s3]),
            action: action_word & !DONE_BIT,
            reward_raw: u32::from_le_bytes([r0, r1, r2, r3]),
            next_state: u32::from_le_bytes([n0, n1, n2, n3]),
            done: action_word & DONE_BIT != 0,
        }
    }

    /// Whether every index of the record lies inside the header's table.
    #[inline(always)]
    fn fits(&self, hdr: &KernelHeader) -> bool {
        self.state < hdr.num_states
            && self.next_state < hdr.num_states
            && self.action < hdr.num_actions
    }
}

struct KernelBody {
    spec: WorkloadSpec,
    hdr: KernelHeader,
    map: WramMap,
    /// This tasklet's contiguous sub-range of the DPU's chunk.
    range: std::ops::Range<usize>,
    tasklet_id: usize,
    tasklets: usize,
}

// Every `KernelBody` method is forced inline, so the whole interpreted
// launch (episode loop, record read, update dispatch and the four update
// rules) is one loop in `<SwiftRlKernel as Kernel>::run` with the
// per-record intrinsics inlined into it. Left to the heuristics, the
// record read and the update dispatch stay out of line (three call sites
// each), and every record then pays two calls plus the spills around them.
impl KernelBody {
    #[inline(always)]
    fn new(spec: WorkloadSpec, hdr: KernelHeader, tasklet_id: usize, tasklets: usize) -> Self {
        let map = WramMap::new(&hdr);
        // Contiguous sub-partition of the chunk, sizes within one.
        let n = hdr.n_transitions as usize;
        let base = n / tasklets;
        let extra = n % tasklets;
        let start = tasklet_id * base + tasklet_id.min(extra);
        let len = base + usize::from(tasklet_id < extra);
        Self {
            spec,
            hdr,
            map,
            range: start..start + len,
            tasklet_id,
            tasklets,
        }
    }

    #[inline(always)]
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
        let hdr = &self.hdr;
        if hdr.num_states == 0 || hdr.num_actions == 0 {
            return Err(KernelError::Fault("empty Q-table shape".into()));
        }

        // Tasklet 0 stages the shared Q-table into WRAM; the others
        // arrive at a barrier (charged as control slots).
        if self.tasklet_id == 0 {
            ctx.mram_to_wram(Q_TABLE_OFFSET, self.map.q, self.map.q_dma_bytes())?;
        } else {
            ctx.charge_control(2); // barrier wait
        }

        // SARSA's ε-greedy policy stream persists across the launch's
        // episodes, seeded like the host reference trainer (decorrelated
        // per tasklet beyond tasklet 0).
        let mut policy_state = (hdr.seed ^ 0x5A85_AA11)
            .wrapping_add((self.tasklet_id as u32).wrapping_mul(0x9E37_79B9));

        let n = self.range.len();
        for ep in 0..hdr.episodes {
            ctx.charge_control(2); // episode loop bookkeeping + barrier
            if n == 0 {
                continue;
            }
            let ep_seed = episode_seed(hdr.seed, hdr.episode_base + ep)
                .wrapping_add(self.tasklet_id as u32);
            self.run_episode(ctx, ep_seed, &mut policy_state)?;
        }

        // The last tasklet publishes the updated table for the host
        // gather and advances the header's episode window so the next
        // launch continues where this one stopped (no host-side header
        // re-arm between rounds).
        if self.tasklet_id + 1 == self.tasklets {
            ctx.wram_to_mram(self.map.q, Q_TABLE_OFFSET, self.map.q_dma_bytes())?;
            let mut next_hdr = *hdr;
            next_hdr.episode_base = hdr.episode_base.wrapping_add(hdr.episodes);
            let mut hdr_out = [0u8; HEADER_BYTES];
            next_hdr.encode_into(&mut hdr_out);
            ctx.mram_write(0, &hdr_out)?;
            ctx.charge_alu(2);
        }
        Ok(())
    }

    /// WRAM offset of this tasklet's private transition staging buffer.
    #[inline(always)]
    fn batch_off(&self) -> usize {
        self.map.batch + self.tasklet_id * SEQ_BATCH * RECORD_BYTES
    }

    /// MRAM offset of record `i` of this tasklet's sub-range.
    #[inline(always)]
    fn record_off(&self, i: usize) -> usize {
        self.hdr.transition_offset(self.range.start + i)
    }

    #[inline(always)]
    fn run_episode(
        &self,
        ctx: &mut DpuContext<'_>,
        ep_seed: u32,
        policy_state: &mut u32,
    ) -> Result<(), KernelError> {
        let n = self.range.len();
        let batch = self.batch_off();
        match self.hdr.sampling {
            sampling_kind::SEQ => {
                // Stream the chunk in batches.
                let mut fetched_base = usize::MAX;
                for i in 0..n {
                    let batch_base = i - (i % SEQ_BATCH);
                    if batch_base != fetched_base {
                        let count = SEQ_BATCH.min(n - batch_base);
                        ctx.mram_to_wram(
                            self.record_off(batch_base),
                            batch,
                            count * RECORD_BYTES,
                        )?;
                        fetched_base = batch_base;
                    }
                    let rec = self.read_record(ctx, batch + (i - batch_base) * RECORD_BYTES)?;
                    self.apply_update(ctx, &rec, policy_state)?;
                }
            }
            sampling_kind::STR => {
                // The stride walk of SamplingStrategy::Stride, index by
                // index; each record needs its own DMA.
                let k = self.hdr.stride as usize;
                if k == 0 {
                    return Err(KernelError::Fault("stride must be positive".into()));
                }
                let mut cursor = 0usize;
                let mut offset = 0usize;
                for _ in 0..n {
                    let i = cursor;
                    cursor += k;
                    if cursor >= n {
                        offset += 1;
                        cursor = offset;
                    }
                    ctx.charge_alu(3); // stride bookkeeping
                    ctx.mram_to_wram(self.record_off(i), batch, RECORD_BYTES)?;
                    let rec = self.read_record(ctx, batch)?;
                    self.apply_update(ctx, &rec, policy_state)?;
                }
            }
            sampling_kind::RAN => {
                // Uniform draws with the in-kernel LCG, matching the host
                // SampleIndices stream for the same seed.
                let mut sample_state = ep_seed;
                for _ in 0..n {
                    let i = ctx.lcg_below(&mut sample_state, n as u32) as usize;
                    ctx.mram_to_wram(self.record_off(i), batch, RECORD_BYTES)?;
                    let rec = self.read_record(ctx, batch)?;
                    self.apply_update(ctx, &rec, policy_state)?;
                }
            }
            other => {
                return Err(KernelError::Fault(format!(
                    "unknown sampling kind {other}"
                )));
            }
        }
        Ok(())
    }

    /// Reads and validates one staged record from WRAM.
    #[inline(always)]
    fn read_record(&self, ctx: &mut DpuContext<'_>, wram_off: usize) -> Result<Record, KernelError> {
        let mut words = [0u32; RECORD_BYTES / 4];
        ctx.wram_read_words(wram_off, &mut words)?;
        let [state, action_word, reward_raw, next_state] = words;
        // Unpack the terminal flag from bit 31 of the action word.
        let done = action_word & DONE_BIT != 0;
        let action = action_word & !DONE_BIT;
        ctx.charge_alu(2);
        let rec = Record {
            state,
            action,
            reward_raw,
            next_state,
            done,
        };
        if !rec.fits(&self.hdr) {
            return Err(KernelError::Fault(format!(
                "record out of space: s={state} a={action} s'={next_state}"
            )));
        }
        Ok(rec)
    }

    /// Loads Q-row `state` from WRAM in [`ROW_CHUNK`]-word stack chunks
    /// (one load per word) and calls `visit` with each action and its
    /// word, in action order.
    #[inline(always)]
    fn scan_row(
        &self,
        ctx: &mut DpuContext<'_>,
        state: u32,
        mut visit: impl FnMut(&mut DpuContext<'_>, u32, u32),
    ) -> Result<(), KernelError> {
        let na = self.hdr.num_actions;
        let row = self.map.q_entry(na, state, 0);
        let mut chunk = [0u32; ROW_CHUNK];
        let mut a = 0u32;
        while a < na {
            let words = &mut chunk[..(na - a).min(ROW_CHUNK as u32) as usize];
            ctx.wram_read_words(row + a as usize * 4, words)?;
            for &word in words.iter() {
                visit(ctx, a, word);
                a += 1;
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn apply_update(
        &self,
        ctx: &mut DpuContext<'_>,
        rec: &Record,
        policy_state: &mut u32,
    ) -> Result<(), KernelError> {
        ctx.charge_control(1); // update-call overhead
        match (self.spec.algorithm, self.spec.dtype) {
            (Algorithm::QLearning, DataType::Fp32) => self.q_update_fp32(ctx, rec),
            (Algorithm::QLearning, DataType::Int32) => self.q_update_int32(ctx, rec),
            (Algorithm::Sarsa, DataType::Fp32) => self.sarsa_update_fp32(ctx, rec, policy_state),
            (Algorithm::Sarsa, DataType::Int32) => self.sarsa_update_int32(ctx, rec, policy_state),
        }
    }

    // ---- FP32 updates ------------------------------------------------------

    /// `max_a' Q(s', a')` with emulated comparisons.
    #[inline(always)]
    fn max_next_fp32(&self, ctx: &mut DpuContext<'_>, next_state: u32) -> Result<F32, KernelError> {
        // Two for the row base address, one per further action.
        ctx.charge_alu(1 + u64::from(self.hdr.num_actions));
        let mut best = F32::ZERO;
        self.scan_row(ctx, next_state, |ctx, a, word| {
            best = if a == 0 { F32(word) } else { ctx.fmax(best, F32(word)) };
        })?;
        Ok(best)
    }

    #[inline(always)]
    fn q_update_fp32(&self, ctx: &mut DpuContext<'_>, rec: &Record) -> Result<(), KernelError> {
        let na = self.hdr.num_actions;
        let alpha = F32(self.hdr.alpha);
        let gamma = F32(self.hdr.gamma);
        let reward = F32(rec.reward_raw);

        ctx.charge_control(1); // terminal-flag branch
        let target = if rec.done {
            reward
        } else {
            let max_next = self.max_next_fp32(ctx, rec.next_state)?;
            let discounted = ctx.fmul(gamma, max_next);
            ctx.fadd(reward, discounted)
        };
        ctx.charge_alu(2);
        let entry = self.map.q_entry(na, rec.state, rec.action);
        let old = ctx.wram_read_f32(entry)?;
        let delta = ctx.fsub(target, old);
        let scaled = ctx.fmul(alpha, delta);
        let new = ctx.fadd(old, scaled);
        ctx.wram_write_f32(entry, new)?;
        Ok(())
    }

    /// ε-greedy a' over the WRAM Q-table, bit-identical to the host's
    /// `epsilon_greedy` (integer threshold draw, then either a uniform
    /// action or a first-max argmax).
    #[inline(always)]
    fn epsilon_greedy_fp32(
        &self,
        ctx: &mut DpuContext<'_>,
        state: u32,
        policy_state: &mut u32,
    ) -> Result<u32, KernelError> {
        let na = self.hdr.num_actions;
        let draw = ctx.lcg_next(policy_state);
        ctx.charge_alu(1);
        if draw < self.hdr.epsilon_threshold {
            return Ok(ctx.lcg_below(policy_state, na));
        }
        ctx.charge_alu(1 + u64::from(na));
        let (mut best_a, mut best_v) = (0u32, F32::ZERO);
        self.scan_row(ctx, state, |ctx, a, word| {
            if a == 0 || ctx.fgt(F32(word), best_v) {
                (best_a, best_v) = (a, F32(word));
            }
        })?;
        Ok(best_a)
    }

    #[inline(always)]
    fn sarsa_update_fp32(
        &self,
        ctx: &mut DpuContext<'_>,
        rec: &Record,
        policy_state: &mut u32,
    ) -> Result<(), KernelError> {
        let na = self.hdr.num_actions;
        let alpha = F32(self.hdr.alpha);
        let gamma = F32(self.hdr.gamma);
        let reward = F32(rec.reward_raw);

        ctx.charge_control(1); // terminal-flag branch
        let target = if rec.done {
            reward
        } else {
            let a_next = self.epsilon_greedy_fp32(ctx, rec.next_state, policy_state)?;
            ctx.charge_alu(2);
            let q_next = ctx.wram_read_f32(self.map.q_entry(na, rec.next_state, a_next))?;
            let discounted = ctx.fmul(gamma, q_next);
            ctx.fadd(reward, discounted)
        };
        ctx.charge_alu(2);
        let entry = self.map.q_entry(na, rec.state, rec.action);
        let old = ctx.wram_read_f32(entry)?;
        let delta = ctx.fsub(target, old);
        let scaled = ctx.fmul(alpha, delta);
        let new = ctx.fadd(old, scaled);
        ctx.wram_write_f32(entry, new)?;
        Ok(())
    }

    // ---- INT32 fixed-point updates -------------------------------------

    /// `max_a' Q(s', a')` with native integer comparisons (last max wins
    /// on value ties, which is value-identical to any tie choice).
    #[inline(always)]
    fn max_next_int32(&self, ctx: &mut DpuContext<'_>, next_state: u32) -> Result<i32, KernelError> {
        ctx.charge_alu(1 + u64::from(self.hdr.num_actions));
        let mut best = 0i32;
        self.scan_row(ctx, next_state, |ctx, a, word| {
            if a == 0 || ctx.igt(word as i32, best) {
                best = word as i32;
            }
        })?;
        Ok(best)
    }

    /// `(a * b) / scale` with the emulated wide multiply + divide, exactly
    /// like `FixedScale::mul`.
    #[inline(always)]
    fn fixed_mul(&self, ctx: &mut DpuContext<'_>, a: i32, b: i32) -> i32 {
        let wide = ctx.mul_wide(a, b);
        ctx.div_wide(wide, self.hdr.scale as i32) as i32
    }

    #[inline(always)]
    fn q_update_int32(&self, ctx: &mut DpuContext<'_>, rec: &Record) -> Result<(), KernelError> {
        let na = self.hdr.num_actions;
        let alpha_s = self.hdr.alpha as i32;
        let gamma_s = self.hdr.gamma as i32;
        let reward_s = rec.reward_raw as i32;

        ctx.charge_control(1); // terminal-flag branch
        let target = if rec.done {
            reward_s
        } else {
            let max_next = self.max_next_int32(ctx, rec.next_state)?;
            let discounted = self.fixed_mul(ctx, gamma_s, max_next);
            ctx.iadd(reward_s, discounted)
        };
        ctx.charge_alu(2);
        let entry = self.map.q_entry(na, rec.state, rec.action);
        let old = ctx.wram_read_i32(entry)?;
        let diff = ctx.isub(target, old);
        let delta = self.fixed_mul(ctx, alpha_s, diff);
        let new = ctx.iadd(old, delta);
        ctx.wram_write_i32(entry, new)?;
        Ok(())
    }

    #[inline(always)]
    fn epsilon_greedy_int32(
        &self,
        ctx: &mut DpuContext<'_>,
        state: u32,
        policy_state: &mut u32,
    ) -> Result<u32, KernelError> {
        let na = self.hdr.num_actions;
        let draw = ctx.lcg_next(policy_state);
        ctx.charge_alu(1);
        if draw < self.hdr.epsilon_threshold {
            return Ok(ctx.lcg_below(policy_state, na));
        }
        ctx.charge_alu(1 + u64::from(na));
        let (mut best_a, mut best_v) = (0u32, 0i32);
        self.scan_row(ctx, state, |ctx, a, word| {
            if a == 0 || ctx.igt(word as i32, best_v) {
                (best_a, best_v) = (a, word as i32);
            }
        })?;
        Ok(best_a)
    }

    #[inline(always)]
    fn sarsa_update_int32(
        &self,
        ctx: &mut DpuContext<'_>,
        rec: &Record,
        policy_state: &mut u32,
    ) -> Result<(), KernelError> {
        let na = self.hdr.num_actions;
        let alpha_s = self.hdr.alpha as i32;
        let gamma_s = self.hdr.gamma as i32;
        let reward_s = rec.reward_raw as i32;

        ctx.charge_control(1); // terminal-flag branch
        let target = if rec.done {
            reward_s
        } else {
            let a_next = self.epsilon_greedy_int32(ctx, rec.next_state, policy_state)?;
            ctx.charge_alu(2);
            let q_next = ctx.wram_read_i32(self.map.q_entry(na, rec.next_state, a_next))?;
            let discounted = self.fixed_mul(ctx, gamma_s, q_next);
            ctx.iadd(reward_s, discounted)
        };
        ctx.charge_alu(2);
        let entry = self.map.q_entry(na, rec.state, rec.action);
        let old = ctx.wram_read_i32(entry)?;
        let diff = ctx.isub(target, old);
        let delta = self.fixed_mul(ctx, alpha_s, diff);
        let new = ctx.iadd(old, delta);
        ctx.wram_write_i32(entry, new)?;
        Ok(())
    }
}

// ---- Batched (fused) execution -----------------------------------------
//
// Under `ExecTier::Batched` the executor offers the whole launch to the
// kernel as one host-native sweep per DPU instead of interpreting it one
// charged intrinsic at a time per tasklet. Values are computed with the
// same `swiftrl_pim::fastpath` bit-exact routines the fast tier uses
// (FP32 add, subtract and multiply as host ops whose NaNs are
// canonicalized at the store, see `Em::fadd`), so Q-tables stay
// bit-identical; charges are deposited per tasklet as
// *aggregates* — loop-trip counts multiplied by the pinned per-intrinsic
// slot costs under calibrated charging, or summed data-dependent tallies
// (plus the per-call FP overhead) under tally charging. The parity suite
// (`tests/fastpath_parity.rs`, `tests/engine_determinism.rs`) proves both
// the bytes and the cycle accounting identical to the per-intrinsic
// tiers; any launch this sweep cannot reproduce exactly is declined
// (`Ok(false)`), which falls back to the canonical interpreter.

use swiftrl_pim::config::{CostModel, EmulationCharging, OpCosts};
use swiftrl_pim::cost::CycleCounter;
use swiftrl_pim::emul::Lcg32;
use swiftrl_pim::fastpath;

/// Aggregate charge accumulator for one tasklet of a fused launch.
///
/// Mirrors every charging intrinsic of `DpuContext`, but instead of
/// touching a cycle counter per operation it counts operations by charge
/// class (`TALLY = false`, calibrated charging: the closed form is
/// `count × slots` per class) or sums the exact data-dependent fastpath
/// tallies (`TALLY = true`). `flush_into` deposits the totals.
struct Em<'a, const TALLY: bool> {
    ops: &'a OpCosts,
    alu: u64,
    control: u64,
    wram: u64,
    /// Calibrated-mode loop-trip counts per op kind.
    n_fadd: u64,
    n_fmul: u64,
    n_fcmp: u64,
    n_mul32: u64,
    n_mul64: u64,
    n_div64: u64,
    /// Tally-mode slot sums (FP sums include the per-call overhead).
    int_slots: u64,
    float_slots: u64,
}

impl<'a, const TALLY: bool> Em<'a, TALLY> {
    fn new(ops: &'a OpCosts) -> Self {
        Self {
            ops,
            alu: 0,
            control: 0,
            wram: 0,
            n_fadd: 0,
            n_fmul: 0,
            n_fcmp: 0,
            n_mul32: 0,
            n_mul64: 0,
            n_div64: 0,
            int_slots: 0,
            float_slots: 0,
        }
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.alu += n;
    }

    #[inline]
    fn control(&mut self, n: u64) {
        self.control += n;
    }

    #[inline]
    fn wram(&mut self, n: u64) {
        self.wram += n;
    }

    /// FP32 add. Unlike `fastpath::f32_add`, and like `fsub` and `fmul`,
    /// the result keeps the host's NaN encoding: within an update every
    /// such result feeds further adds and multiplies until the update
    /// stores it, and a NaN in is a NaN out, so only the stored value is
    /// canonicalized (`fastpath::f32_canonical`). The tallies classify a
    /// NaN operand whatever its encoding.
    #[inline]
    fn fadd(&mut self, a: u32, b: u32) -> u32 {
        if TALLY {
            self.float_slots += fastpath::f32_add_tally(a, b) + self.ops.fp_call_overhead_slots;
        } else {
            self.n_fadd += 1;
        }
        (f32::from_bits(a) + f32::from_bits(b)).to_bits()
    }

    #[inline]
    fn fsub(&mut self, a: u32, b: u32) -> u32 {
        if TALLY {
            self.float_slots += fastpath::f32_sub_tally(a, b) + self.ops.fp_call_overhead_slots;
        } else {
            // Charged at the add cost, exactly like `DpuContext::fsub`.
            self.n_fadd += 1;
        }
        (f32::from_bits(a) - f32::from_bits(b)).to_bits()
    }

    #[inline]
    fn fmul(&mut self, a: u32, b: u32) -> u32 {
        if TALLY {
            self.float_slots += fastpath::f32_mul_tally(a, b) + self.ops.fp_call_overhead_slots;
        } else {
            self.n_fmul += 1;
        }
        (f32::from_bits(a) * f32::from_bits(b)).to_bits()
    }

    #[inline]
    fn fmax(&mut self, a: u32, b: u32) -> u32 {
        if TALLY {
            self.float_slots += fastpath::f32_max_tally(a, b) + self.ops.fp_call_overhead_slots;
        } else {
            self.n_fcmp += 1;
        }
        fastpath::f32_max(a, b)
    }

    #[inline]
    fn fgt(&mut self, a: u32, b: u32) -> bool {
        if TALLY {
            self.float_slots += fastpath::f32_cmp_tally(a, b) + self.ops.fp_call_overhead_slots;
        } else {
            self.n_fcmp += 1;
        }
        fastpath::f32_gt(a, b)
    }

    #[inline]
    fn iadd(&mut self, a: i32, b: i32) -> i32 {
        self.alu += 1;
        a.wrapping_add(b)
    }

    #[inline]
    fn isub(&mut self, a: i32, b: i32) -> i32 {
        self.alu += 1;
        a.wrapping_sub(b)
    }

    #[inline]
    fn igt(&mut self, a: i32, b: i32) -> bool {
        self.alu += 1;
        a > b
    }

    #[inline]
    fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
        if TALLY {
            self.int_slots += fastpath::imul32_wide_tally(a, b);
        } else {
            self.n_mul64 += 1;
        }
        fastpath::imul32_wide(a, b)
    }

    #[inline]
    fn div_wide(&mut self, n: i64, d: &fastpath::Reciprocal) -> i64 {
        if TALLY {
            self.int_slots += fastpath::idiv64_tally(n, d.divisor());
        } else {
            self.n_div64 += 1;
        }
        d.idiv64(n)
    }

    /// LCG advance: one mul32-class emulated multiply + one native add,
    /// exactly like `DpuContext::lcg_next`.
    #[inline]
    fn lcg_next(&mut self, state: &mut u32) -> u32 {
        if TALLY {
            self.int_slots += fastpath::umul32_wide_tally(*state, Lcg32::MULTIPLIER);
        } else {
            self.n_mul32 += 1;
        }
        let m = fastpath::umul32_wide(*state, Lcg32::MULTIPLIER) as u32;
        self.alu += 1;
        *state = m.wrapping_add(Lcg32::INCREMENT);
        *state
    }

    /// Uniform draw in `[0, bound)`: `lcg_next` plus one mul64-class
    /// emulated wide multiply, exactly like `DpuContext::lcg_below`.
    #[inline]
    fn lcg_below(&mut self, state: &mut u32, bound: u32) -> u32 {
        let raw = self.lcg_next(state);
        if TALLY {
            self.int_slots += fastpath::umul32_wide_tally(raw, bound);
        } else {
            self.n_mul64 += 1;
        }
        self.alu += 1;
        let wide = fastpath::umul32_wide(raw, bound);
        (wide >> 32) as u32
    }

    /// Deposits the aggregate charges into a tasklet's cycle counter.
    fn flush_into(&self, counter: &mut CycleCounter) {
        counter.alu_slots += self.alu;
        counter.control_slots += self.control;
        counter.wram_slots += self.wram;
        if TALLY {
            counter.int_emul_slots += self.int_slots;
            counter.float_emul_slots += self.float_slots;
        } else {
            counter.int_emul_slots += self.n_mul32 * self.ops.mul32_slots
                + self.n_mul64 * self.ops.mul64_slots
                + self.n_div64 * self.ops.div64_slots;
            counter.float_emul_slots += self.n_fadd * self.ops.fadd_slots
                + self.n_fmul * self.ops.fmul_slots
                + self.n_fcmp * self.ops.fcmp_slots;
        }
    }
}

/// Little-endian `u32` word view of a Q-table image in bank bytes: the
/// fused sweep reads and writes table words where they lie, with no
/// decode or encode pass, and walks a whole row behind one range check.
struct LeWords<'a> {
    words: &'a mut [[u8; 4]],
    /// Words per row (the action count).
    na: usize,
}

impl LeWords<'_> {
    /// The row of `state`'s action values.
    #[inline(always)]
    fn row(&self, state: u32) -> &[[u8; 4]] {
        let start = state as usize * self.na;
        &self.words[start..start + self.na]
    }

    /// The word of `(state, action)`, for a read-modify-write.
    #[inline(always)]
    fn entry(&mut self, state: u32, action: u32) -> &mut [u8; 4] {
        &mut self.words[state as usize * self.na + action as usize]
    }
}

/// The four update rules, as the `RULE` const parameter of
/// `fused_sweep`: each rule gets its own sweep loop, with no per-record
/// dispatch and register allocation for that rule alone.
mod rule {
    pub const Q_FP32: u8 = 0;
    pub const Q_INT32: u8 = 1;
    pub const SARSA_FP32: u8 = 2;
    pub const SARSA_INT32: u8 = 3;
}

/// Header-derived parameters of one fused launch, shared by all tasklets.
struct FusedParams {
    na: u32,
    alpha: u32,
    gamma: u32,
    epsilon_threshold: u32,
    /// The launch-constant fixed-point scale, as a reciprocal.
    scale: fastpath::Reciprocal,
}

// Every `FusedParams` method is forced inline, so each `fused_sweep`
// instance (one per `TALLY` and `RULE`) is one loop over the records with
// the update rule and the `Em` charges in registers. `update` has three
// call sites per instance (SEQ, STR, RAN), which keeps it out of line
// under the heuristics, and a call per update spills the accumulators.
impl FusedParams {
    /// One Q-update on the shared table image: the record read, then
    /// `apply_update` and the per-variant update routines charge for
    /// charge. The record is decoded here, where it is used.
    #[inline(always)]
    fn update<const TALLY: bool, const RULE: u8>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &mut LeWords<'_>,
        raw: &[u8; RECORD_BYTES],
        policy_state: &mut u32,
    ) {
        // `read_record`: four WRAM words and the flag unpack.
        em.wram(4);
        em.alu(2);
        let rec = Record::decode(raw);
        em.control(1); // update-call overhead
        match RULE {
            rule::Q_FP32 => self.q_update_fp32(em, q, &rec),
            rule::Q_INT32 => self.q_update_int32(em, q, &rec),
            rule::SARSA_FP32 => self.sarsa_update_fp32(em, q, &rec, policy_state),
            _ => self.sarsa_update_int32(em, q, &rec, policy_state), // rule::SARSA_INT32
        }
    }

    #[inline(always)]
    fn q_update_fp32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &mut LeWords<'_>,
        rec: &Record,
    ) {
        em.control(1); // terminal-flag branch
        let target = if rec.done {
            rec.reward_raw
        } else {
            // max_next_fp32
            em.alu(2);
            em.wram(1);
            let row = q.row(rec.next_state);
            let mut best = u32::from_le_bytes(row[0]);
            for w in &row[1..] {
                em.alu(1);
                em.wram(1);
                best = em.fmax(best, u32::from_le_bytes(*w));
            }
            let discounted = em.fmul(self.gamma, best);
            em.fadd(rec.reward_raw, discounted)
        };
        em.alu(2);
        em.wram(2);
        let e = q.entry(rec.state, rec.action);
        let old = u32::from_le_bytes(*e);
        let delta = em.fsub(target, old);
        let scaled = em.fmul(self.alpha, delta);
        *e = fastpath::f32_canonical(em.fadd(old, scaled)).to_le_bytes();
    }

    #[inline(always)]
    fn epsilon_greedy_fp32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &LeWords<'_>,
        state: u32,
        policy_state: &mut u32,
    ) -> u32 {
        let draw = em.lcg_next(policy_state);
        em.alu(1);
        if draw < self.epsilon_threshold {
            return em.lcg_below(policy_state, self.na);
        }
        em.alu(2);
        em.wram(1);
        let row = q.row(state);
        let mut best_a = 0u32;
        let mut best_v = u32::from_le_bytes(row[0]);
        for (a, w) in (1u32..).zip(&row[1..]) {
            em.alu(1);
            em.wram(1);
            let v = u32::from_le_bytes(*w);
            if em.fgt(v, best_v) {
                best_v = v;
                best_a = a;
            }
        }
        best_a
    }

    #[inline(always)]
    fn sarsa_update_fp32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &mut LeWords<'_>,
        rec: &Record,
        policy_state: &mut u32,
    ) {
        em.control(1); // terminal-flag branch
        let target = if rec.done {
            rec.reward_raw
        } else {
            let a_next = self.epsilon_greedy_fp32(em, q, rec.next_state, policy_state);
            em.alu(2);
            em.wram(1);
            let q_next = u32::from_le_bytes(*q.entry(rec.next_state, a_next));
            let discounted = em.fmul(self.gamma, q_next);
            em.fadd(rec.reward_raw, discounted)
        };
        em.alu(2);
        em.wram(2);
        let e = q.entry(rec.state, rec.action);
        let old = u32::from_le_bytes(*e);
        let delta = em.fsub(target, old);
        let scaled = em.fmul(self.alpha, delta);
        *e = fastpath::f32_canonical(em.fadd(old, scaled)).to_le_bytes();
    }

    /// `(a * b) / scale` with the emulated wide multiply + divide,
    /// exactly like `KernelBody::fixed_mul`.
    #[inline(always)]
    fn fixed_mul<const TALLY: bool>(&self, em: &mut Em<'_, TALLY>, a: i32, b: i32) -> i32 {
        let wide = em.mul_wide(a, b);
        em.div_wide(wide, &self.scale) as i32
    }

    #[inline(always)]
    fn q_update_int32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &mut LeWords<'_>,
        rec: &Record,
    ) {
        em.control(1); // terminal-flag branch
        let target = if rec.done {
            rec.reward_raw as i32
        } else {
            // max_next_int32
            em.alu(2);
            em.wram(1);
            let row = q.row(rec.next_state);
            let mut best = i32::from_le_bytes(row[0]);
            for w in &row[1..] {
                em.alu(1);
                em.wram(1);
                let v = i32::from_le_bytes(*w);
                if em.igt(v, best) {
                    best = v;
                }
            }
            let discounted = self.fixed_mul(em, self.gamma as i32, best);
            em.iadd(rec.reward_raw as i32, discounted)
        };
        em.alu(2);
        em.wram(2);
        let e = q.entry(rec.state, rec.action);
        let old = i32::from_le_bytes(*e);
        let diff = em.isub(target, old);
        let delta = self.fixed_mul(em, self.alpha as i32, diff);
        *e = em.iadd(old, delta).to_le_bytes();
    }

    #[inline(always)]
    fn epsilon_greedy_int32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &LeWords<'_>,
        state: u32,
        policy_state: &mut u32,
    ) -> u32 {
        let draw = em.lcg_next(policy_state);
        em.alu(1);
        if draw < self.epsilon_threshold {
            return em.lcg_below(policy_state, self.na);
        }
        em.alu(2);
        em.wram(1);
        let row = q.row(state);
        let mut best_a = 0u32;
        let mut best_v = i32::from_le_bytes(row[0]);
        for (a, w) in (1u32..).zip(&row[1..]) {
            em.alu(1);
            em.wram(1);
            let v = i32::from_le_bytes(*w);
            if em.igt(v, best_v) {
                best_v = v;
                best_a = a;
            }
        }
        best_a
    }

    #[inline(always)]
    fn sarsa_update_int32<const TALLY: bool>(
        &self,
        em: &mut Em<'_, TALLY>,
        q: &mut LeWords<'_>,
        rec: &Record,
        policy_state: &mut u32,
    ) {
        em.control(1); // terminal-flag branch
        let target = if rec.done {
            rec.reward_raw as i32
        } else {
            let a_next = self.epsilon_greedy_int32(em, q, rec.next_state, policy_state);
            em.alu(2);
            em.wram(1);
            let q_next = i32::from_le_bytes(*q.entry(rec.next_state, a_next));
            let discounted = self.fixed_mul(em, self.gamma as i32, q_next);
            em.iadd(rec.reward_raw as i32, discounted)
        };
        em.alu(2);
        em.wram(2);
        let e = q.entry(rec.state, rec.action);
        let old = i32::from_le_bytes(*e);
        let diff = em.isub(target, old);
        let delta = self.fixed_mul(em, self.alpha as i32, diff);
        *e = em.iadd(old, delta).to_le_bytes();
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
        bytes: &mut [u8],
        q_dma_bytes: usize,
    ) -> bool {
        let (image, chunk) = bytes.split_at_mut(q_dma_bytes);
        let (records, _) = chunk.as_chunks::<RECORD_BYTES>();
        if !records.iter().all(|raw| Record::decode(raw).fits(hdr)) {
            return false;
        }
        let q = &mut LeWords {
            words: image.as_chunks_mut::<4>().0,
            na: hdr.num_actions as usize,
        };
        match (self.spec.algorithm, self.spec.dtype) {
            (Algorithm::QLearning, DataType::Fp32) => {
                self.sweep_rule::<{ rule::Q_FP32 }>(cost, counters, hdr, q, records)
            }
            (Algorithm::QLearning, DataType::Int32) => {
                self.sweep_rule::<{ rule::Q_INT32 }>(cost, counters, hdr, q, records)
            }
            (Algorithm::Sarsa, DataType::Fp32) => {
                self.sweep_rule::<{ rule::SARSA_FP32 }>(cost, counters, hdr, q, records)
            }
            (Algorithm::Sarsa, DataType::Int32) => {
                self.sweep_rule::<{ rule::SARSA_INT32 }>(cost, counters, hdr, q, records)
            }
        }
        true
    }

    /// [`Self::fused_sweep`] for one rule in the cost model's charging
    /// mode: the two instances of that rule's loop.
    fn sweep_rule<const RULE: u8>(
        &self,
        cost: &CostModel,
        counters: &mut [CycleCounter],
        hdr: &KernelHeader,
        q: &mut LeWords<'_>,
        records: &[[u8; RECORD_BYTES]],
    ) {
        match cost.emulation_charging {
            EmulationCharging::Tally => {
                self.fused_sweep::<true, RULE>(cost, counters, hdr, q, records)
            }
            EmulationCharging::Calibrated => {
                self.fused_sweep::<false, RULE>(cost, counters, hdr, q, records)
            }
        }
    }

    /// The fused per-DPU sweep: every tasklet's episodes, in tasklet
    /// order (the per-intrinsic executor serializes tasklet bodies over
    /// the shared WRAM Q-table), charging per-tasklet aggregates. `q`
    /// spans the whole Q-table DMA image, pad bytes included; `records`
    /// is the DPU's chunk, validated and still encoded.
    fn fused_sweep<const TALLY: bool, const RULE: u8>(
        &self,
        cost: &CostModel,
        counters: &mut [CycleCounter],
        hdr: &KernelHeader,
        q: &mut LeWords<'_>,
        records: &[[u8; RECORD_BYTES]],
    ) {
        let q_dma_bytes = q.words.len() * 4;
        let p = FusedParams {
            na: hdr.num_actions,
            alpha: hdr.alpha,
            gamma: hdr.gamma,
            epsilon_threshold: hdr.epsilon_threshold,
            // The preflight declines an INT32 launch with scale 0, and
            // FP32 never descales, so 1 only stands in for an unused scale.
            scale: fastpath::Reciprocal::new(hdr.scale.max(1) as i32),
        };
        // DMA cycle costs, hoisted per transfer length.
        let c_hdr = cost.dma_cycles(HEADER_BYTES);
        let c_rec = cost.dma_cycles(RECORD_BYTES);
        let c_batch = cost.dma_cycles(SEQ_BATCH * RECORD_BYTES);
        let c_q = cost.dma_cycles(q_dma_bytes);

        let n = hdr.n_transitions as usize;
        let tasklets = self.tasklets;
        for (t, counter) in counters[..tasklets].iter_mut().enumerate() {
            // This tasklet's contiguous sub-range (as in `KernelBody::new`).
            let base = n / tasklets;
            let extra = n % tasklets;
            let start = t * base + t.min(extra);
            let rn = base + usize::from(t < extra);

            let mut em = Em::<TALLY>::new(&cost.ops);
            let mut dma_bytes = 0u64;
            let mut dma_cycles = 0u64;

            // Header load + field decodes.
            dma_bytes += HEADER_BYTES as u64;
            dma_cycles += c_hdr;
            em.alu(13);

            // Tasklet 0 stages the Q-table; the others hit the barrier.
            if t == 0 {
                dma_bytes += q_dma_bytes as u64;
                dma_cycles += c_q;
            } else {
                em.control(2);
            }

            let mut policy_state = (hdr.seed ^ 0x5A85_AA11)
                .wrapping_add((t as u32).wrapping_mul(0x9E37_79B9));

            for ep in 0..hdr.episodes {
                em.control(2); // episode loop bookkeeping + barrier
                if rn == 0 {
                    continue;
                }
                let ep_seed = episode_seed(hdr.seed, hdr.episode_base + ep)
                    .wrapping_add(t as u32);
                match hdr.sampling {
                    sampling_kind::SEQ => {
                        // Batched streaming: one DMA per 32-record window.
                        let mut i = 0usize;
                        while i < rn {
                            let count = SEQ_BATCH.min(rn - i);
                            let len = count * RECORD_BYTES;
                            dma_bytes += len as u64;
                            dma_cycles += if count == SEQ_BATCH {
                                c_batch
                            } else {
                                cost.dma_cycles(len)
                            };
                            i += count;
                        }
                        for raw in &records[start..start + rn] {
                            p.update::<TALLY, RULE>(&mut em, q, raw, &mut policy_state);
                        }
                    }
                    sampling_kind::STR => {
                        let k = hdr.stride as usize;
                        let mut cursor = 0usize;
                        let mut offset = 0usize;
                        for _ in 0..rn {
                            let i = cursor;
                            cursor += k;
                            if cursor >= rn {
                                offset += 1;
                                cursor = offset;
                            }
                            em.alu(3); // stride bookkeeping
                            dma_bytes += RECORD_BYTES as u64;
                            dma_cycles += c_rec;
                            let raw = &records[start + i];
                            p.update::<TALLY, RULE>(&mut em, q, raw, &mut policy_state);
                        }
                    }
                    _ => {
                        // RAN (preflight rejected every other kind).
                        let mut sample_state = ep_seed;
                        for _ in 0..rn {
                            let i = em.lcg_below(&mut sample_state, rn as u32) as usize;
                            dma_bytes += RECORD_BYTES as u64;
                            dma_cycles += c_rec;
                            let raw = &records[start + i];
                            p.update::<TALLY, RULE>(&mut em, q, raw, &mut policy_state);
                        }
                    }
                }
            }

            // The last tasklet publishes the table and re-arms the header.
            if t + 1 == tasklets {
                dma_bytes += q_dma_bytes as u64;
                dma_cycles += c_q;
                dma_bytes += HEADER_BYTES as u64;
                dma_cycles += c_hdr;
                em.alu(2);
            }

            em.flush_into(counter);
            counter.charge_dma(dma_bytes, dma_cycles);
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
        match hdr.sampling {
            sampling_kind::SEQ | sampling_kind::RAN => {}
            sampling_kind::STR => {
                if hdr.stride == 0 {
                    return Ok(false);
                }
            }
            _ => return Ok(false),
        }
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
                if !self.sweep(cost, counters, &hdr, bytes, q_dma_bytes) {
                    return Ok(false);
                }
            }
            None => {
                let mut staged = vec![0u8; span];
                if bank.read(Q_TABLE_OFFSET, &mut staged).is_err()
                    || !self.sweep(cost, counters, &hdr, &mut staged, q_dma_bytes)
                {
                    return Ok(false);
                }
                if bank.write(Q_TABLE_OFFSET, &staged[..q_dma_bytes]).is_err() {
                    return Ok(false);
                }
            }
        }

        // Re-arm the header for the next launch's episode window.
        let mut next_hdr = hdr;
        next_hdr.episode_base = hdr.episode_base.wrapping_add(hdr.episodes);
        let mut hdr_out = [0u8; HEADER_BYTES];
        next_hdr.encode_into(&mut hdr_out);
        if bank.write(0, &hdr_out).is_err() {
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
    use swiftrl_pim::config::PimConfig;
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
        let mut sys = PimSystem::new(PimConfig::builder().dpus(1).mram_bytes(1 << 20).build());
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
