//! Differential proof of the tiered execution contract (DESIGN.md §10,
//! §14): neither the fast tier nor the batched tier may ever change a bit
//! or a cycle. Every fast-path value function must be bit-identical to the
//! instrumented soft reference, and every closed-form tally function must
//! equal the reference's executed-op count — exhaustively over the
//! special-value lattice, property-tested over random operands,
//! cycle-for-cycle through `DpuContext` launches in both charging modes,
//! and end-to-end over all 12 paper variants under every execution
//! engine. The batched tier (one fused host sweep per launch, aggregate
//! cycle tallies) is additionally pinned at the host level — `LaunchStats`
//! and `SystemStats` identical to the reference — and under active fault
//! plans, where touched (dpu, launch) pairs fall back to the
//! per-intrinsic path.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::runner::{PimRunner, RunOutcome};
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::rng::{for_each_case, Rng};
use swiftrl::env::ExperienceDataset;
use swiftrl::pim::config::{EmulationCharging, ExecTier, PimConfig};
use swiftrl::pim::cost::OpTally;
use swiftrl::pim::host::PimSystem;
use swiftrl::pim::kernel::{DpuContext, Kernel, KernelError, F32};
use swiftrl::pim::stats::{LaunchStats, SystemStats};
use swiftrl::pim::{emul, fastpath, softfloat, ExecutionEngine};

/// Special-value lattice: signed zeros, units, infinities, NaN payloads,
/// the subnormal range boundaries, `f32::MAX`, assorted normals, and the
/// exact `f32 → i32` saturation boundary in both directions.
const F32_LATTICE: &[u32] = &[
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x3F80_0000, // 1.0
    0xBF80_0000, // -1.0
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FC0_0000, // canonical quiet NaN
    0x7F80_0001, // signalling NaN payload
    0xFFC0_0001, // negative NaN with payload
    0x0000_0001, // smallest subnormal
    0x0020_0000, // mid subnormal
    0x007F_FFFF, // largest subnormal
    0x0080_0000, // smallest normal
    0x7F7F_FFFF, // f32::MAX
    0x3DCC_CCCD, // ~0.1 (inexact, exercises rounding)
    0x4048_F5C3, // ~3.14
    0xC2F6_E979, // ~-123.456
    0x3400_0000, // tiny normal (subnormal results under mul/div)
    0x4EFF_FFFF, // 2147483520.0, largest f32 below 2^31
    0x4F00_0000, // 2^31 exactly (saturates i32)
    0xCF00_0000, // -2^31 exactly (fits i32)
    0xCF00_0001, // first f32 below -2^31 (saturates)
];

const U32_LATTICE: &[u32] = &[
    0,
    1,
    2,
    3,
    7,
    255,
    256,
    9_500,
    65_535,
    0x0001_0000,
    0x7FFF_FFFF,
    0x8000_0000,
    0xFFFF_FFFE,
    u32::MAX,
];

const I32_LATTICE: &[i32] = &[
    0,
    1,
    -1,
    2,
    -7,
    255,
    -256,
    9_500,
    (1 << 26) - 1,
    1 << 26,
    (1 << 26) + 1,
    i32::MAX,
    i32::MIN,
    i32::MIN + 1,
];

/// Asserts every float op agrees between tiers — result bits AND tally —
/// for one operand pair.
#[allow(clippy::type_complexity)]
fn assert_float_pair(a: u32, b: u32) {
    let ops: &[(
        &str,
        fn(u32, u32, &mut OpTally) -> u32,
        fn(u32, u32) -> u32,
        fn(u32, u32) -> u64,
    )] = &[
        ("add", softfloat::f32_add, fastpath::f32_add, fastpath::f32_add_tally),
        ("sub", softfloat::f32_sub, fastpath::f32_sub, fastpath::f32_sub_tally),
        ("mul", softfloat::f32_mul, fastpath::f32_mul, fastpath::f32_mul_tally),
        ("div", softfloat::f32_div, fastpath::f32_div, fastpath::f32_div_tally),
        ("max", softfloat::f32_max, fastpath::f32_max, fastpath::f32_max_tally),
    ];
    for (name, soft, fast, fast_tally) in ops {
        let mut t = OpTally::new();
        let reference = soft(a, b, &mut t);
        assert_eq!(
            fast(a, b),
            reference,
            "{name}({a:#010x}, {b:#010x}): result bits diverged"
        );
        assert_eq!(
            fast_tally(a, b),
            t.count(),
            "{name}({a:#010x}, {b:#010x}): tally diverged"
        );
    }
    // Comparisons: gt and lt share one tally shape.
    let mut t = OpTally::new();
    let gt = softfloat::f32_gt(a, b, &mut t);
    assert_eq!(fastpath::f32_gt(a, b), gt, "gt({a:#010x}, {b:#010x})");
    assert_eq!(fastpath::f32_cmp_tally(a, b), t.count(), "gt tally({a:#010x}, {b:#010x})");
    let mut t = OpTally::new();
    let lt = softfloat::f32_lt(a, b, &mut t);
    assert_eq!(fastpath::f32_lt(a, b), lt, "lt({a:#010x}, {b:#010x})");
    assert_eq!(fastpath::f32_cmp_tally(a, b), t.count(), "lt tally({a:#010x}, {b:#010x})");
}

/// Asserts the unary float ops agree between tiers for one operand.
fn assert_float_unary(a: u32) {
    let mut t = OpTally::new();
    let neg = softfloat::f32_neg(a, &mut t);
    assert_eq!(fastpath::f32_neg(a), neg, "neg({a:#010x})");
    assert_eq!(fastpath::f32_neg_tally(a), t.count(), "neg tally({a:#010x})");
    let mut t = OpTally::new();
    let conv = softfloat::f32_to_i32(a, &mut t);
    assert_eq!(fastpath::f32_to_i32(a), conv, "f32_to_i32({a:#010x})");
    assert_eq!(
        fastpath::f32_to_i32_tally(a),
        t.count(),
        "f32_to_i32 tally({a:#010x})"
    );
}

/// Asserts every integer op agrees between tiers for one operand pair,
/// including the data-dependent early-exit divide costs (`n < d` returns
/// after the guard) and the leading-zeros-driven multiply costs.
fn assert_int_pair(a: u32, b: u32) {
    let mut t = OpTally::new();
    let wide = emul::umul32_wide(a, b, &mut t);
    assert_eq!(fastpath::umul32_wide(a, b), wide, "umul({a:#x}, {b:#x})");
    assert_eq!(fastpath::umul32_wide_tally(a, b), t.count(), "umul tally({a:#x}, {b:#x})");

    let (ia, ib) = (a as i32, b as i32);
    let mut t = OpTally::new();
    let iwide = emul::imul32_wide(ia, ib, &mut t);
    assert_eq!(fastpath::imul32_wide(ia, ib), iwide, "imul_wide({ia}, {ib})");
    assert_eq!(
        fastpath::imul32_wide_tally(ia, ib),
        t.count(),
        "imul_wide tally({ia}, {ib})"
    );

    let mut t = OpTally::new();
    let narrow = emul::imul32(ia, ib, &mut t);
    assert_eq!(fastpath::imul32(ia, ib), narrow, "imul32({ia}, {ib})");
    assert_eq!(fastpath::imul32_tally(ia, ib), t.count(), "imul32 tally({ia}, {ib})");

    if b != 0 {
        let mut t = OpTally::new();
        let qr = emul::udiv32(a, b, &mut t);
        assert_eq!(fastpath::udiv32(a, b), qr, "udiv32({a:#x}, {b:#x})");
        assert_eq!(fastpath::udiv32_tally(a, b), t.count(), "udiv32 tally({a:#x}, {b:#x})");

        let mut t = OpTally::new();
        let iqr = emul::idiv32(ia, ib, &mut t);
        assert_eq!(fastpath::idiv32(ia, ib), iqr, "idiv32({ia}, {ib})");
        assert_eq!(fastpath::idiv32_tally(ia, ib), t.count(), "idiv32 tally({ia}, {ib})");

        let n64 = ((a as u64) << 32) | b as u64;
        let mut t = OpTally::new();
        let qr64 = emul::udiv64(n64, b, &mut t);
        assert_eq!(fastpath::udiv64(n64, b), qr64, "udiv64({n64:#x}, {b:#x})");
        assert_eq!(
            fastpath::udiv64_tally(n64, b),
            t.count(),
            "udiv64 tally({n64:#x}, {b:#x})"
        );

        let i64n = n64 as i64;
        let mut t = OpTally::new();
        let q64 = emul::idiv64(i64n, ib, &mut t);
        assert_eq!(fastpath::idiv64(i64n, ib), q64, "idiv64({i64n}, {ib})");
        assert_eq!(
            fastpath::idiv64_tally(i64n, ib),
            t.count(),
            "idiv64 tally({i64n}, {ib})"
        );
    }
}

#[test]
fn float_ops_bit_and_tally_identical_on_the_lattice() {
    for &a in F32_LATTICE {
        assert_float_unary(a);
        for &b in F32_LATTICE {
            assert_float_pair(a, b);
        }
    }
}

#[test]
fn integer_ops_bit_and_tally_identical_on_the_lattice() {
    for &a in U32_LATTICE {
        for &b in U32_LATTICE {
            assert_int_pair(a, b);
        }
    }
    // The signed-divide overflow corner the hardware wraps through.
    let mut t = OpTally::new();
    assert_eq!(
        fastpath::idiv32(i32::MIN, -1),
        emul::idiv32(i32::MIN, -1, &mut t)
    );
    assert_eq!(fastpath::idiv32_tally(i32::MIN, -1), t.count());
}

#[test]
fn int_to_float_conversion_identical_on_the_lattice() {
    for &v in I32_LATTICE {
        let mut t = OpTally::new();
        let r = softfloat::i32_to_f32(v, &mut t);
        assert_eq!(fastpath::i32_to_f32(v), r, "i32_to_f32({v})");
        assert_eq!(fastpath::i32_to_f32_tally(v), t.count(), "i32_to_f32 tally({v})");
    }
}

/// Cases per random-operand property.
const CASES: u64 = 512;

/// Any pair of raw bit patterns — including NaNs, infinities, and
/// subnormals sampled by chance — agrees in bits and tally.
#[test]
fn random_float_operands_agree() {
    // The shared helpers name the operands; `for_each_case` prints the
    // case label of a failing draw.
    for_each_case(CASES, |rng, _| {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        assert_float_pair(a, b);
        assert_float_unary(a);
    });
}

/// Random integer operands agree, covering the data-dependent
/// early-exit divide costs and popcount-driven multiply costs.
#[test]
fn random_integer_operands_agree() {
    for_each_case(CASES, |rng, _| assert_int_pair(rng.next_u32(), rng.next_u32()));
}

/// Random conversions agree, including magnitudes beyond 2^26 where
/// the reference switches to its shift-right-sticky path.
#[test]
fn random_conversions_agree() {
    for_each_case(CASES, |rng, at| {
        let v = rng.next_u32() as i32;
        let mut t = OpTally::new();
        let r = softfloat::i32_to_f32(v, &mut t);
        assert_eq!(fastpath::i32_to_f32(v), r, "{at}: i32_to_f32({v})");
        assert_eq!(fastpath::i32_to_f32_tally(v), t.count(), "{at}: tally({v})");
    });
}

// ---------------------------------------------------------------------------
// Cycle parity through DpuContext: the charged intrinsics must produce
// identical CycleCounter values under either tier, in both charging modes.
// ---------------------------------------------------------------------------

/// Exercises every emulated intrinsic with LCG-generated operands plus
/// special-value constants, folding all results into an MRAM-visible
/// checksum so value divergence and charge divergence are both caught.
struct ArithStressKernel;
impl Kernel for ArithStressKernel {
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
        let mut state = 0x1234_5678u32 ^ ctx.dpu_id() as u32;
        let mut ichk = 0u32;
        let mut fchk = F32::ZERO;
        for _ in 0..64 {
            let a = ctx.lcg_next(&mut state);
            let b = ctx.lcg_next(&mut state);
            let d = (b | 1) as i32;
            ichk = ichk.wrapping_add(ctx.mul32(a as i32, b as i32) as u32);
            ichk = ichk.wrapping_add(ctx.mul_wide(a as i32, b as i32) as u32);
            ichk = ichk.wrapping_add(ctx.div32(a as i32, d) as u32);
            ichk = ichk.wrapping_add(ctx.div_wide(((a as u64) << 16) as i64, d) as u32);
            ichk = ichk.wrapping_add(ctx.lcg_below(&mut state, 1000));
            let fa = F32(a);
            let fb = F32(b);
            let prod = ctx.fmul(fa, fb);
            fchk = ctx.fadd(fchk, prod);
            let quot = ctx.fdiv(fa, F32(b | 1));
            fchk = ctx.fmax(fchk, quot);
            let diff = ctx.fsub(fa, fb);
            if ctx.fgt(diff, prod) {
                ichk = ichk.wrapping_add(1);
            }
            let conv = ctx.i32_to_f32(a as i32);
            ichk = ichk.wrapping_add(ctx.f32_to_i32(conv) as u32);
            // Special values: infinity and NaN propagation must charge
            // the same early-exit costs in both tiers.
            let inf_sum = ctx.fadd(F32(0x7F80_0000), fb);
            let nan_mul = ctx.fmul(F32(0x7FC0_0000), fa);
            ichk = ichk.wrapping_add(inf_sum.0).wrapping_add(nan_mul.0);
        }
        let word = ((ichk as u64) << 32) | fchk.0 as u64;
        ctx.mram_write(0, &word.to_le_bytes())?;
        Ok(())
    }
}

fn stress_outcome(
    tier: ExecTier,
    charging: EmulationCharging,
    engine: ExecutionEngine,
) -> (Vec<u8>, LaunchStats, SystemStats) {
    let mut platform = PimConfig::builder()
        .dpus(4)
        .mram_bytes(1 << 16)
        .engine(engine)
        .exec_tier(tier)
        .build();
    platform.cost.emulation_charging = charging;
    let mut sys = PimSystem::new(platform);
    let mut set = sys.alloc(4).unwrap();
    set.launch(&ArithStressKernel).unwrap();
    let mut checksums = vec![0u8; 8 * 4];
    set.gather_into(0, 8, &mut checksums).unwrap();
    (checksums, set.last_launch().clone(), set.stats().clone())
}

/// The tentpole guarantee at the platform level: for every charging mode
/// and engine, the fast tier's launch is indistinguishable from the
/// reference tier's — checksum bytes, per-class cycle counters,
/// max/min/mean cycles, and the full `SystemStats`.
#[test]
fn fast_tier_launches_are_bit_and_cycle_identical() {
    for charging in [EmulationCharging::Calibrated, EmulationCharging::Tally] {
        for engine in [
            ExecutionEngine::Serial,
            ExecutionEngine::Threaded { workers: 2 },
        ] {
            let (ref_bytes, ref_launch, ref_stats) =
                stress_outcome(ExecTier::Reference, charging, engine);
            let (fast_bytes, fast_launch, fast_stats) =
                stress_outcome(ExecTier::Fast, charging, engine);
            assert_eq!(
                ref_bytes, fast_bytes,
                "{charging:?}/{engine:?}: checksum bytes diverged between tiers"
            );
            assert_eq!(
                ref_launch, fast_launch,
                "{charging:?}/{engine:?}: launch statistics diverged between tiers"
            );
            assert_eq!(
                ref_stats, fast_stats,
                "{charging:?}/{engine:?}: system statistics diverged between tiers"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: all 12 paper variants, both tiers, both engines.
// ---------------------------------------------------------------------------

fn dataset() -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, 2_000, 42)
}

/// A replay set over 4,100 states × 4 actions. Its 65,600-byte Q-table
/// starts at MRAM byte 64, so it crosses the first 64 KiB bank segment
/// boundary and the batched sweep cannot update it in place; half the
/// records sit on the states whose entries lie past that boundary.
fn wide_dataset() -> ExperienceDataset {
    use swiftrl::env::{Action, State, Transition};
    let (ns, na) = (4_100u32, 4u32);
    let mut data = ExperienceDataset::new("wide", ns as usize, na as usize);
    for i in 0..600u32 {
        let state = if i % 2 == 0 {
            ns - 1 - (i / 2) % 16
        } else {
            (i * 2_741) % ns
        };
        data.push(Transition {
            state: State(state),
            action: Action(i % na),
            reward: (i % 7) as f32 * 0.25 - 0.75,
            next_state: State((state + 13 * i) % ns),
            done: i % 29 == 0,
        });
    }
    data
}

/// FrozenLake's 256-byte table with 4,150 records for each DPU of a
/// three-DPU set: the table fits the first 64 KiB bank segment, but every
/// DPU's replay chunk crosses its end, so the batched sweep cannot run
/// on the bank bytes in place.
fn straddling_dataset() -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, 3 * 4_150, 42)
}

/// A replay set over 30 states × 19 actions: the interpreter scans each
/// Q-row in chunks of 8 words, so a row here takes two full chunks and a
/// partial one.
fn many_actions_dataset() -> ExperienceDataset {
    use swiftrl::env::{Action, State, Transition};
    let (ns, na) = (30u32, 19u32);
    let mut data = ExperienceDataset::new("many-actions", ns as usize, na as usize);
    for i in 0..600u32 {
        let state = (i * 7) % ns;
        data.push(Transition {
            state: State(state),
            action: Action((i * 5) % na),
            reward: (i % 9) as f32 * 0.5 - 2.0,
            next_state: State((state + 11 * i + 1) % ns),
            done: i % 31 == 0,
        });
    }
    data
}

fn run_tiered(
    spec: WorkloadSpec,
    cfg: RunConfig,
    tier: ExecTier,
    charging: EmulationCharging,
    engine: ExecutionEngine,
    data: &ExperienceDataset,
) -> RunOutcome {
    let mut platform = PimConfig::builder()
        .dpus(cfg.dpus)
        .engine(engine)
        .exec_tier(tier)
        .build();
    platform.cost.emulation_charging = charging;
    PimRunner::with_platform(spec, cfg, platform)
        .unwrap()
        .run(data)
        .unwrap()
}

/// All 12 paper variants produce byte-identical Q-tables and identical
/// cycle-derived time breakdowns under either arithmetic tier and either
/// execution engine.
#[test]
fn all_paper_variants_identical_across_tiers_and_engines() {
    let cfg = RunConfig::paper_defaults()
        .with_dpus(2)
        .with_episodes(4)
        .with_tau(2);
    let data = dataset();
    let threaded = ExecutionEngine::Threaded { workers: 3 };
    for spec in WorkloadSpec::paper_variants() {
        let reference = run_tiered(
            spec,
            cfg,
            ExecTier::Reference,
            EmulationCharging::Calibrated,
            ExecutionEngine::Serial,
            &data,
        );
        for (tier, engine) in [
            (ExecTier::Fast, ExecutionEngine::Serial),
            (ExecTier::Reference, threaded),
            (ExecTier::Fast, threaded),
            (ExecTier::Batched, ExecutionEngine::Serial),
            (ExecTier::Batched, threaded),
        ] {
            let other = run_tiered(
                spec,
                cfg,
                tier,
                EmulationCharging::Calibrated,
                engine,
                &data,
            );
            assert_eq!(
                reference.q_table.to_bytes(),
                other.q_table.to_bytes(),
                "{spec}: Q-table bytes diverged under {tier:?}/{engine:?}"
            );
            assert_eq!(
                reference.breakdown, other.breakdown,
                "{spec}: time breakdown diverged under {tier:?}/{engine:?}"
            );
            assert_eq!(reference.comm_rounds, other.comm_rounds, "{spec}");
        }
    }
}

/// Same end-to-end identity under tally charging, where the fast tier's
/// closed-form formulas replace the reference's executed-op counts.
#[test]
fn tally_charging_identical_across_tiers_end_to_end() {
    let cfg = RunConfig::paper_defaults()
        .with_dpus(3)
        .with_episodes(4)
        .with_tau(2);
    let data = dataset();
    for spec in [
        WorkloadSpec::q_learning_seq_fp32(),
        WorkloadSpec::q_learning_seq_int32(),
    ] {
        let reference = run_tiered(
            spec,
            cfg,
            ExecTier::Reference,
            EmulationCharging::Tally,
            ExecutionEngine::Serial,
            &data,
        );
        for tier in [ExecTier::Fast, ExecTier::Batched] {
            let other = run_tiered(
                spec,
                cfg,
                tier,
                EmulationCharging::Tally,
                ExecutionEngine::Serial,
                &data,
            );
            assert_eq!(
                reference.q_table.to_bytes(),
                other.q_table.to_bytes(),
                "{spec}: Q-table bytes diverged under tally charging ({tier:?})"
            );
            assert_eq!(
                reference.breakdown, other.breakdown,
                "{spec}: time breakdown diverged under tally charging ({tier:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Batched tier: host-level LaunchStats/SystemStats identity, and identity
// under active fault plans (touched launches fall back per-intrinsic).
// ---------------------------------------------------------------------------

/// The MRAM image the runner stages on DPU `dpu` of a three-DPU set: its
/// kernel header (a four-episode window) and its third of `data`,
/// encoded in the variant's data type.
fn staged_image(
    spec: WorkloadSpec,
    data: &ExperienceDataset,
    dpu: usize,
) -> (swiftrl::core::layout::KernelHeader, Vec<u8>) {
    use swiftrl::core::config::DataType;
    use swiftrl::core::layout::{dpu_seed, encode_chunk, sampling_kind, KernelHeader};
    use swiftrl::rl::policy::epsilon_threshold;
    use swiftrl::rl::sampling::SamplingStrategy;

    let cfg = RunConfig::paper_defaults();
    let scale = cfg.scale();
    let (alpha, gamma) = match spec.dtype {
        DataType::Fp32 => (cfg.alpha.to_bits(), cfg.gamma.to_bits()),
        DataType::Int32 => (
            scale.to_fixed(cfg.alpha) as u32,
            scale.to_fixed(cfg.gamma) as u32,
        ),
    };
    let (sampling, stride) = match spec.sampling {
        SamplingStrategy::Sequential => (sampling_kind::SEQ, 0),
        SamplingStrategy::Stride(k) => (sampling_kind::STR, k as u32),
        SamplingStrategy::Random => (sampling_kind::RAN, 0),
    };
    let chunk = data.len() / 3;
    let header = KernelHeader {
        n_transitions: chunk as u32,
        num_states: data.num_states() as u32,
        num_actions: data.num_actions() as u32,
        episodes: 4,
        episode_base: 0,
        sampling,
        stride,
        seed: dpu_seed(cfg.seed, dpu),
        alpha,
        gamma,
        epsilon_threshold: epsilon_threshold(cfg.epsilon).min(u32::MAX as u64) as u32,
        scale: scale.factor() as u32,
    };
    let range = dpu * chunk..(dpu + 1) * chunk;
    let records = match spec.dtype {
        DataType::Fp32 => data.encode_range_fp32(range.clone()),
        DataType::Int32 => data.encode_range_int32(range.clone(), scale.factor()),
    };
    // The runner's own builders stage exactly these bytes.
    assert_eq!(
        KernelHeader::for_chunk(spec, &cfg, data, dpu, chunk, 4).to_bytes(),
        header.to_bytes()
    );
    assert_eq!(encode_chunk(spec, &cfg, data, range), records);
    (header, records)
}

/// WRAM for the Q-table image plus three tasklets' staging windows: the
/// UPMEM 64 KB scratchpad unless the table alone outgrows it.
fn wram_for(data: &ExperienceDataset) -> usize {
    let q_bytes = data.num_states() * data.num_actions() * 4;
    (q_bytes + 4_096)
        .next_power_of_two()
        .max(swiftrl::pim::config::WRAM_CAPACITY_BYTES)
}

/// Stages a SwiftRL MRAM image by hand (headers + encoded transitions, as
/// the runner does), launches the training kernel twice so the episode
/// window advances through a header rewrite, and returns everything a
/// launch observably produces.
fn swiftrl_host_outcome(
    spec: WorkloadSpec,
    tier: ExecTier,
    charging: EmulationCharging,
    data: &ExperienceDataset,
) -> (Vec<u8>, LaunchStats, SystemStats) {
    use swiftrl::core::kernels::SwiftRlKernel;
    use swiftrl::core::layout::Q_TABLE_OFFSET;

    let ndpus = 3usize;
    let mut platform = PimConfig::builder()
        .dpus(ndpus)
        .wram_bytes(wram_for(data))
        .exec_tier(tier)
        .build();
    platform.cost.emulation_charging = charging;
    let mut sys = PimSystem::new(platform);
    let mut set = sys.alloc(ndpus).unwrap();
    let (ns, na) = (data.num_states(), data.num_actions());
    for dpu in 0..ndpus {
        let (header, records) = staged_image(spec, data, dpu);
        set.copy_to(dpu, 0, &header.to_bytes()).unwrap();
        set.copy_to(dpu, header.transitions_offset(), &records)
            .unwrap();
    }
    // Three tasklets exercise the chunk partitioning and the shared
    // WRAM Q-table; two launches exercise the continued episode window.
    let kernel = SwiftRlKernel::with_tasklets(spec, 3);
    set.launch(&kernel).unwrap();
    set.launch(&kernel).unwrap();
    let mut q = vec![0u8; ns * na * 4 * ndpus];
    set.gather_into(Q_TABLE_OFFSET, ns * na * 4, &mut q).unwrap();
    (q, set.last_launch().clone(), set.stats().clone())
}

/// The batched tier's aggregate cycle tallies are indistinguishable from
/// interpreting every intrinsic: for all 12 paper variants, in both
/// charging modes, a host-level launch produces identical per-DPU
/// Q-table bytes, identical `LaunchStats` (merged per-class counters,
/// max/min/mean cycles, modelled seconds), and identical `SystemStats`.
/// FrozenLake's small table and chunk are swept in place in MRAM; the
/// wide table, and the straddling set's chunks, cross a bank segment
/// boundary and take the staged fallback; the many-actions set's rows are
/// longer than the interpreter's row chunk.
#[test]
fn batched_launch_stats_identical_at_host_level() {
    use swiftrl::core::layout::Q_TABLE_OFFSET;
    use swiftrl::pim::memory::BANK_SEGMENT_BYTES;

    let wide = wide_dataset();
    let q_end = Q_TABLE_OFFSET + wide.num_states() * wide.num_actions() * 4;
    assert!(q_end > BANK_SEGMENT_BYTES, "the wide table must cross a segment");
    let straddling = straddling_dataset();
    let q_end = Q_TABLE_OFFSET + straddling.num_states() * straddling.num_actions() * 4;
    let chunk_end = q_end + straddling.len() / 3 * 16;
    assert!(q_end < BANK_SEGMENT_BYTES && chunk_end > BANK_SEGMENT_BYTES);
    for data in [dataset(), wide, straddling, many_actions_dataset()] {
        for charging in [EmulationCharging::Calibrated, EmulationCharging::Tally] {
            for spec in WorkloadSpec::paper_variants() {
                let (ref_q, ref_launch, ref_stats) =
                    swiftrl_host_outcome(spec, ExecTier::Reference, charging, &data);
                for tier in [ExecTier::Fast, ExecTier::Batched] {
                    let (q, launch, stats) = swiftrl_host_outcome(spec, tier, charging, &data);
                    let at = format!("{}/{spec}/{charging:?} under {tier:?}", data.env_name());
                    assert_eq!(ref_q, q, "{at}: Q-table bytes diverged");
                    assert_eq!(ref_launch, launch, "{at}: LaunchStats diverged");
                    assert_eq!(ref_stats, stats, "{at}: SystemStats diverged");
                }
            }
        }
    }
}

/// Identity holds under an active fault plan: bitflips and stragglers
/// force the touched (dpu, launch) pairs back onto the per-intrinsic
/// path, transient aborts ride the retry loop, and the run remains
/// bit- and cycle-identical across all three tiers and both engines.
#[test]
fn batched_identical_under_fault_plans() {
    use swiftrl::core::layout::Q_TABLE_OFFSET;
    use swiftrl::core::resilience::ResilienceConfig;
    use swiftrl::pim::{FaultPlan, MramRegion};

    let cfg = RunConfig::paper_defaults()
        .with_dpus(6)
        .with_episodes(4)
        .with_tau(2);
    let data = dataset();
    let faults = || {
        FaultPlan::seeded(21)
            .with_dpu_fail_rate(0.15)
            .with_stragglers(0.4, 3.0)
            .with_bitflips(
                0.4,
                MramRegion {
                    offset: Q_TABLE_OFFSET,
                    len: 256,
                },
            )
    };
    let run = |spec, tier, engine| {
        let mut platform = PimConfig::builder()
            .dpus(cfg.dpus)
            .engine(engine)
            .exec_tier(tier)
            .faults(faults())
            .build();
        platform.cost.emulation_charging = EmulationCharging::Calibrated;
        PimRunner::with_platform(spec, cfg, platform)
            .unwrap()
            .with_resilience(ResilienceConfig::none().with_max_retries(4))
            .run(&data)
            .unwrap()
    };
    for spec in WorkloadSpec::paper_variants() {
        let reference = run(spec, ExecTier::Reference, ExecutionEngine::Serial);
        for tier in [ExecTier::Fast, ExecTier::Batched] {
            for engine in [
                ExecutionEngine::Serial,
                ExecutionEngine::Threaded { workers: 3 },
            ] {
                let other = run(spec, tier, engine);
                assert_eq!(
                    reference.q_table.to_bytes(),
                    other.q_table.to_bytes(),
                    "{spec}: Q-table bytes diverged under faults ({tier:?}/{engine:?})"
                );
                assert_eq!(
                    reference.breakdown, other.breakdown,
                    "{spec}: time breakdown diverged under faults ({tier:?}/{engine:?})"
                );
                assert_eq!(
                    reference.resilience, other.resilience,
                    "{spec}: resilience stats diverged under faults ({tier:?}/{engine:?})"
                );
                assert_eq!(reference.comm_rounds, other.comm_rounds, "{spec}");
            }
        }
    }
}
