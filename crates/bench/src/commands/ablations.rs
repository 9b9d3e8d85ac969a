//! Ablations of SwiftRL's design choices (§5 key takeaways):
//!
//! 1. **Synchronization period τ** — communication/quality trade-off of
//!    the τ-periodic inter-PIM aggregation;
//! 2. **Emulation charging mode** — calibrated per-op costs vs the
//!    data-dependent tally of the soft-float library (simulator
//!    methodology check);
//! 3. **Stride value** — STR sampling's DMA behaviour across strides;
//! 4. **Fixed-point scale factor** — quality sensitivity of the INT32
//!    optimization to the scale constant (the paper picked 10,000 to
//!    balance overflow and precision).
//!
//! Every configuration runs through the [`TrainingBackend`] trait.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- ablations
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{fmt_secs, print_table, HarnessArgs};
use swiftrl_core::backend::{BackendStats, TrainingBackend, TrainingReport};
use swiftrl_core::config::{DataType, RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::ExperienceDataset;
use swiftrl_pim::config::{EmulationCharging, PimConfig};
use swiftrl_rl::eval::evaluate_greedy;
use swiftrl_rl::sampling::SamplingStrategy;

/// Trains through the backend interface, panicking with the backend's
/// name on failure (acceptable in an experiment binary).
fn train(backend: &dyn TrainingBackend, dataset: &ExperienceDataset) -> TrainingReport {
    backend
        .train(dataset)
        .unwrap_or_else(|e| panic!("{} failed: {e}", backend.name()))
}

/// Synchronization rounds reported by a PIM backend.
fn comm_rounds(report: &TrainingReport) -> u32 {
    match &report.stats {
        BackendStats::Pim { comm_rounds, .. } => *comm_rounds,
        other => panic!("expected Pim stats, got {other:?}"),
    }
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.05)?;
    let transitions = args.scaled(1_000_000, 20_000);
    let episodes = args.scaled_episodes(2_000, 100);
    let dpus = 128;

    let mut env = FrozenLake::slippery_4x4();
    let dataset = collect_random(&mut env, transitions, 42);

    println!("# Ablations ({transitions} transitions, {episodes} episodes, {dpus} DPUs)\n");

    // ---- 1. τ sweep -----------------------------------------------------
    println!("## 1. Synchronization period τ (Q-learner-SEQ-INT32)\n");
    let mut rows = Vec::new();
    for tau in [10u32, 25, 50, 100] {
        if !episodes.is_multiple_of(tau) {
            continue;
        }
        let cfg = RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(episodes)
            .with_tau(tau);
        let backend = PimRunner::new(WorkloadSpec::q_learning_seq_int32(), cfg).expect("alloc");
        let report = train(&backend, &dataset);
        let quality = evaluate_greedy(&mut env, &report.q_table, 500, 1).mean_reward;
        rows.push(vec![
            tau.to_string(),
            comm_rounds(&report).to_string(),
            fmt_secs(report.breakdown.inter_pim_s),
            fmt_secs(report.breakdown.total_seconds()),
            format!("{quality:.3}"),
        ]);
    }
    print_table(
        &["τ", "Comm rounds", "Inter-PIM", "Total", "Mean reward"],
        &rows,
    );
    println!("\nSmaller τ buys more synchronization (higher inter-PIM cost).\n");

    // ---- 2. Emulation charging mode --------------------------------------
    println!("## 2. Emulation charging: calibrated constants vs executed-op tally\n");
    let mut rows = Vec::new();
    for spec in [
        WorkloadSpec::q_learning_seq_fp32(),
        WorkloadSpec::q_learning_seq_int32(),
    ] {
        let mut cells = vec![spec.name()];
        let mut times = Vec::new();
        for charging in [EmulationCharging::Calibrated, EmulationCharging::Tally] {
            let mut platform = PimConfig::builder().dpus(dpus).build();
            platform.cost.emulation_charging = charging;
            let cfg = RunConfig::paper_defaults()
                .with_dpus(dpus)
                .with_episodes(100)
                .with_tau(100);
            let backend = PimRunner::with_platform(spec, cfg, platform).expect("alloc");
            let report = train(&backend, &dataset);
            times.push(report.breakdown.pim_kernel_s);
            cells.push(fmt_secs(report.breakdown.pim_kernel_s));
        }
        cells.push(format!("{:.2}×", times[1] / times[0]));
        rows.push(cells);
    }
    print_table(
        &["Workload", "Calibrated kernel", "Tally kernel", "Tally/Calibrated"],
        &rows,
    );
    println!(
        "\nBoth charging modes must agree that FP32 ≫ INT32; the tally mode \
         is data-dependent like the real runtime library.\n"
    );

    // ---- 3. Stride sweep --------------------------------------------------
    println!("## 3. STR stride value (Q-learner-STR-INT32, paper uses 4)\n");
    let mut rows = Vec::new();
    for stride in [2usize, 4, 8, 16] {
        let spec = WorkloadSpec {
            sampling: SamplingStrategy::Stride(stride),
            dtype: DataType::Int32,
            ..WorkloadSpec::q_learning_seq_int32()
        };
        let cfg = RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(100)
            .with_tau(100);
        let backend = PimRunner::new(spec, cfg).expect("alloc");
        let report = train(&backend, &dataset);
        rows.push(vec![
            stride.to_string(),
            fmt_secs(report.breakdown.pim_kernel_s),
            fmt_secs(report.breakdown.total_seconds()),
        ]);
    }
    print_table(&["Stride", "PIM kernel", "Total"], &rows);
    println!(
        "\nOn PIM the MRAM latency is locality-insensitive, so stride barely \
         matters — unlike on the prefetching CPU (§5, takeaway 4).\n"
    );

    // ---- 4. Fixed-point scale factor ---------------------------------------
    println!("## 4. INT32 scale factor (paper: 10,000)\n");
    let mut rows = Vec::new();
    for scale in [1i32, 10, 100, 10_000, 1_000_000] {
        let mut cfg = RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(episodes.min(200))
            .with_tau(50);
        cfg.scale_factor = scale;
        let backend = PimRunner::new(WorkloadSpec::q_learning_seq_int32(), cfg).expect("alloc");
        let report = train(&backend, &dataset);
        let quality = evaluate_greedy(&mut env, &report.q_table, 500, 1).mean_reward;
        rows.push(vec![scale.to_string(), format!("{quality:.3}")]);
    }
    print_table(&["Scale factor", "Mean reward"], &rows);
    println!(
        "\nScale 1 encodes α = 0.1 as 0 (no learning); tiny scales quantize \
         the update away, and very large scales risk overflow on bigger \
         reward ranges — 10,000 balances both, matching the paper's choice.\n"
    );

    // ---- 5. Tasklet-level parallelism (the paper's future work) -----------
    println!("## 5. Tasklets per DPU (extension; paper uses 1 tasklet/DPU)\n");
    let mut rows = Vec::new();
    let mut baseline = None;
    for tasklets in [1usize, 2, 4, 8, 11, 16, 24] {
        let cfg = RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(100)
            .with_tau(100)
            .with_tasklets(tasklets);
        let backend = PimRunner::new(WorkloadSpec::q_learning_seq_int32(), cfg).expect("alloc");
        let report = train(&backend, &dataset);
        let t = report.breakdown.pim_kernel_s;
        let base = *baseline.get_or_insert(t);
        rows.push(vec![
            tasklets.to_string(),
            fmt_secs(t),
            format!("{:.2}×", base / t),
        ]);
    }
    print_table(&["Tasklets", "PIM kernel", "Speedup vs 1"], &rows);
    println!(
        "\nThe 14-stage pipeline issues one instruction per tasklet every 11 \
         cycles, so intra-DPU speedup saturates at ~11× — the headroom the \
         paper leaves on the table by using core-level parallelism only."
    );
    Ok(())
}
