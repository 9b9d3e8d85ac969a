//! Extension: weak scaling — per-DPU work held constant while cores
//! grow. Complements the paper's strong-scaling Figures 5–6: a
//! memory-centric system should sustain near-constant kernel time as the
//! problem grows with the machine.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- extension_weak_scaling
//! ```

use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{fmt_secs, print_table, HarnessArgs};
use swiftrl_core::backend::TrainingBackend;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;

const PER_DPU_TRANSITIONS: usize = 400;
const EPISODES: u32 = 100;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 1.0)?;
    let dpu_counts = args
        .dpus
        .clone()
        .unwrap_or_else(|| vec![125, 250, 500, 1_000, 2_000]);

    println!(
        "# Extension: weak scaling (Q-learner-SEQ-INT32, {PER_DPU_TRANSITIONS} \
         transitions per DPU, {EPISODES} episodes, τ=50)\n"
    );

    let mut env = FrozenLake::slippery_4x4();
    let mut rows = Vec::new();
    let mut baseline = None;
    for &dpus in &dpu_counts {
        let dataset = collect_random(
            &mut env,
            PER_DPU_TRANSITIONS * dpus,
            args.seed.unwrap_or(17) as u64,
        );
        let backend: Box<dyn TrainingBackend> = Box::new(
            PimRunner::new(
                WorkloadSpec::q_learning_seq_int32(),
                RunConfig::paper_defaults()
                    .with_dpus(dpus)
                    .with_episodes(EPISODES)
                    .with_tau(50),
            )
            .expect("alloc"),
        );
        let report = backend.train(&dataset).expect("run");
        let b = &report.breakdown;
        let base = *baseline.get_or_insert(b.pim_kernel_s);
        rows.push(vec![
            dpus.to_string(),
            dataset.len().to_string(),
            fmt_secs(b.pim_kernel_s),
            format!("{:.1}%", (b.pim_kernel_s / base - 1.0) * 100.0),
            fmt_secs(b.cpu_pim_s),
            fmt_secs(b.inter_pim_s),
            fmt_secs(b.total_seconds()),
        ]);
    }
    print_table(
        &[
            "PIM cores",
            "Transitions",
            "PIM kernel",
            "Kernel drift",
            "CPU-PIM",
            "Inter-PIM",
            "Total",
        ],
        &rows,
    );
    println!(
        "\nKernel time stays flat (perfect weak scaling); only the host-side \
         setup and synchronization grow with the machine."
    );
    Ok(())
}
