//! Figure 7: execution time of the RL training phase on CPU, GPU and PIM
//! for FrozenLake and Taxi — PIM at 2,000 cores (best-performing count),
//! FP32 vs INT32, against CPU-V1, CPU-V2 and the GPU.
//!
//! Every comparator runs through the [`TrainingBackend`] trait: PIM
//! times come from the cycle-level simulator (extrapolated from a
//! reduced-scale run); CPU and GPU times come from the analytical
//! Table-1 model backends (see DESIGN.md on the substitution). The
//! subcommand also reports the paper's headline ratios next to the measured
//! ones.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- fig7_cpu_gpu_pim
//! ```

use std::collections::HashMap;
use swiftrl_baselines::cpu_model::{CpuModel, CpuVersion};
use swiftrl_baselines::gpu_model::GpuModel;
use swiftrl_bench::cli::ArgError;
use swiftrl_bench::{
    fmt_ratio, fmt_secs, print_table, write_observability, Extrapolation, HarnessArgs,
};
use swiftrl_core::backend::{BackendStats, CpuModelBackend, GpuModelBackend, TrainingBackend};
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::taxi::Taxi;
use swiftrl_env::ExperienceDataset;
use swiftrl_telemetry::{Event, Telemetry};

const PAPER_EPISODES: u32 = 2_000;
const TAU: u32 = 50;
const PIM_CORES: usize = 2_000;

/// Backend names as produced by `TrainingBackend::name`, used as keys
/// into the collected time table by the headline/energy sections (which
/// only consult the PIM, CPU-V1, and GPU comparators).
const PIM_NAME: &str = "PIM (2000 DPUs)";
const V1_NAME: &str = "CPU-V1";
const GPU_NAME: &str = "GPU";

struct EnvCase {
    tag: &'static str,
    paper_transitions: usize,
    dataset: ExperienceDataset,
}

/// times[(env_tag, workload name, backend name)] = paper-scale seconds.
type TimeTable = HashMap<(&'static str, String, String), f64>;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let args = HarnessArgs::from_args(args, 0.01)?;

    let mut fl = FrozenLake::slippery_4x4();
    let mut taxi = Taxi::new();
    let cases = [
        EnvCase {
            tag: "FL",
            paper_transitions: 1_000_000,
            dataset: collect_random(&mut fl, args.scaled(1_000_000, 10_000), 42),
        },
        EnvCase {
            tag: "Taxi",
            paper_transitions: 5_000_000,
            dataset: collect_random(&mut taxi, args.scaled(5_000_000, 10_000), 42),
        },
    ];

    let cpu = CpuModel::xeon_4110();
    let gpu = GpuModel::rtx_3090();
    let episodes = args.scaled_episodes(PAPER_EPISODES, TAU);

    println!("# Figure 7: CPU vs GPU vs PIM (2,000 PIM cores)\n");

    let mut times: TimeTable = HashMap::new();
    // (label, events) per PIM run when --trace is set; the modelled
    // CPU/GPU backends have no simulated event stream to record.
    let mut traced: Vec<(String, Vec<Event>)> = Vec::new();

    for case in &cases {
        let extra = Extrapolation::new(
            case.paper_transitions,
            case.dataset.len(),
            PAPER_EPISODES,
            episodes,
            TAU,
        );
        // The CPU/GPU model backends are given the paper-scale schedule
        // directly (the V2 merge term is not linear in updates, so
        // extrapolating a reduced-scale model run would not reproduce
        // the paper-scale figure).
        let total_updates = case.paper_transitions as u64 * PAPER_EPISODES as u64;

        println!("## {} environment\n", case.tag);
        let mut rows = Vec::new();
        for spec in WorkloadSpec::paper_variants() {
            let cfg = RunConfig::paper_defaults()
                .with_dpus(PIM_CORES)
                .with_episodes(episodes)
                .with_tau(TAU)
                .with_seed(args.seed.unwrap_or(0xC0FFEE));
            let telemetry = if args.observability_on() {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            // The four comparators of the figure, behind one interface.
            let backends: Vec<Box<dyn TrainingBackend>> = vec![
                Box::new(
                    PimRunner::new(spec, cfg)
                        .expect("alloc failed")
                        .with_telemetry(telemetry.clone()),
                ),
                Box::new(
                    CpuModelBackend::new(CpuVersion::V1, cpu.clone(), spec, cfg)
                        .with_total_updates(total_updates),
                ),
                Box::new(
                    CpuModelBackend::new(CpuVersion::V2, cpu.clone(), spec, cfg)
                        .with_total_updates(total_updates),
                ),
                Box::new(GpuModelBackend::new(
                    gpu.clone(),
                    PAPER_EPISODES as u64,
                    case.paper_transitions as u64,
                )),
            ];

            let mut row_secs = Vec::new();
            for backend in &backends {
                let report = backend
                    .train(&case.dataset)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", backend.name()));
                // Simulator reports are reduced-scale and need the
                // extrapolation; modelled backends are paper-scale.
                let secs = match &report.stats {
                    BackendStats::Pim { .. } => extra.apply(&report.breakdown).total_seconds(),
                    _ => report.total_seconds(),
                };
                times.insert((case.tag, spec.name(), backend.name()), secs);
                row_secs.push(secs);
            }
            if args.observability_on() {
                traced.push((format!("{} {}", case.tag, spec.name()), telemetry.records()));
            }
            let [pim_s, v1, v2, gpu_s] = row_secs[..] else {
                unreachable!("four backends per workload");
            };
            rows.push(vec![
                spec.name(),
                fmt_secs(pim_s),
                fmt_secs(v1),
                fmt_secs(v2),
                fmt_secs(gpu_s),
                fmt_ratio(v1 / pim_s),
                fmt_ratio(gpu_s / pim_s),
            ]);
        }
        print_table(
            &[
                "Workload",
                "PIM (2000)",
                "CPU-V1",
                "CPU-V2",
                "GPU",
                "CPU-V1/PIM",
                "GPU/PIM",
            ],
            &rows,
        );
        println!();
    }

    headline_checks(&times);
    energy_extension(&times);

    write_observability(&args, "Figure 7", "PIM runs", &traced);
    Ok(())
}

/// Looks one (env, workload, backend) time up from the collected table.
fn t(times: &TimeTable, env: &'static str, workload: &str, backend: &str) -> f64 {
    times[&(env, workload.to_string(), backend.to_string())]
}

/// Extension: first-order energy comparison at Table-1 TDPs for the
/// FrozenLake Q-learner (the paper motivates PIM with energy but reports
/// no numbers). All times are read back from the backend runs above.
fn energy_extension(times: &TimeTable) {
    use swiftrl_baselines::energy;

    let pim_int32 = t(times, "FL", "Q-learner-SEQ-INT32", PIM_NAME);
    let cpu_v1 = t(times, "FL", "Q-learner-SEQ-FP32", V1_NAME);
    let gpu_s = t(times, "FL", "Q-learner-SEQ-FP32", GPU_NAME);

    println!("\n## Extension: energy estimate, FrozenLake Q-learner (TDP × utilization × time)\n");
    let rows: Vec<Vec<String>> = energy::table1_comparison(pim_int32, cpu_v1, gpu_s)
        .iter()
        .map(|e| {
            vec![
                e.system.clone(),
                fmt_secs(e.seconds),
                format!("{:.0} W", e.watts),
                format!("{:.0} J", e.joules),
            ]
        })
        .collect();
    print_table(&["System", "Time", "Avg power", "Energy"], &rows);
}

fn headline_checks(times: &TimeTable) {
    let q_seq_fp32 = t(times, "FL", "Q-learner-SEQ-FP32", PIM_NAME);
    let q_ran_fp32 = t(times, "FL", "Q-learner-RAN-FP32", PIM_NAME);
    let q_seq_int32 = t(times, "FL", "Q-learner-SEQ-INT32", PIM_NAME);
    let s_seq_fp32 = t(times, "FL", "SARSA-SEQ-FP32", PIM_NAME);
    let s_seq_int32 = t(times, "FL", "SARSA-SEQ-INT32", PIM_NAME);
    let cpu_v1_seq = t(times, "FL", "Q-learner-SEQ-FP32", V1_NAME);
    let cpu_v1_ran = t(times, "FL", "Q-learner-RAN-FP32", V1_NAME);
    let gpu_fl = t(times, "FL", "Q-learner-SEQ-FP32", GPU_NAME);

    let taxi_fp32_avg = ["SEQ", "RAN", "STR"]
        .iter()
        .map(|s| t(times, "Taxi", &format!("Q-learner-{s}-FP32"), PIM_NAME))
        .sum::<f64>()
        / 3.0;
    let taxi_cpu_v1_avg = ["SEQ", "RAN", "STR"]
        .iter()
        .map(|s| t(times, "Taxi", &format!("Q-learner-{s}-FP32"), V1_NAME))
        .sum::<f64>()
        / 3.0;

    println!("## Headline ratios (paper vs this reproduction)\n");
    let rows = vec![
        vec![
            "Q-SEQ-FP32-FL faster than CPU-V1".into(),
            "1.84×".into(),
            fmt_ratio(cpu_v1_seq / q_seq_fp32),
        ],
        vec![
            "SARSA-SEQ-FP32-FL faster than CPU-V1".into(),
            "2.08×".into(),
            fmt_ratio(cpu_v1_seq / s_seq_fp32),
        ],
        vec![
            "Q-RAN-FP32-FL faster than CPU-V1".into(),
            "1.96×".into(),
            fmt_ratio(cpu_v1_ran / q_ran_fp32),
        ],
        vec![
            "Q-SEQ-INT32 faster than Q-SEQ-FP32 (FL)".into(),
            "8.16×".into(),
            fmt_ratio(q_seq_fp32 / q_seq_int32),
        ],
        vec![
            "SARSA-SEQ-INT32 faster than SARSA-SEQ-FP32 (FL)".into(),
            "4.73×".into(),
            fmt_ratio(s_seq_fp32 / s_seq_int32),
        ],
        vec![
            "GPU faster than Q-SEQ-FP32-FL".into(),
            "1.68×".into(),
            fmt_ratio(q_seq_fp32 / gpu_fl),
        ],
        vec![
            "Q-SEQ-INT32-FL faster than GPU".into(),
            "4.84×".into(),
            fmt_ratio(gpu_fl / q_seq_int32),
        ],
        vec![
            "Taxi: PIM-FP32 speed relative to CPU-V1 (paper: 0.64×, slower)".into(),
            "0.64×".into(),
            fmt_ratio(taxi_cpu_v1_avg / taxi_fp32_avg),
        ],
    ];
    print_table(&["Claim", "Paper", "Measured"], &rows);
}
