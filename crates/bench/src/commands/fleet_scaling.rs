//! Fleet scaling: host-side cost of simulating the paper's full fleet.
//!
//! Sweeps the DPU count from the smallest figure point (125) through
//! the paper's 2,524-DPU fleet and one past-paper point (4,096),
//! recording for each point the host wall-clock of a fixed workload
//! under the fast and batched execution tiers (asserted bit- and
//! cycle-identical at every size), the simulated time breakdown, and
//! the *peak materialized bank bytes* — the number that lazy bank
//! segments keep small while an eager fleet would pin `dpus × 64 MiB`
//! up front. Results land in `BENCH_FLEET_SCALING.json` in the current
//! directory.
//!
//! The memory columns (`bank_peak_bytes`, `arena_peak_bytes`,
//! `lazy_fraction`) are the **Fast** run's. They depend on the tier:
//! the interpreted Fast launch stages through each DPU's 64 KiB WRAM
//! bank and so materializes one more segment per DPU than the Batched
//! run of the same workload, which never touches WRAM (DESIGN §8.3).
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- fleet_scaling
//! cargo run --release -p swiftrl-bench -- fleet_scaling --quick
//! ```

use std::time::Instant;
use swiftrl_bench::cli::{read_flags, ArgError};
use swiftrl_bench::scaling::FLEET_DPU_COUNTS;
use swiftrl_bench::write_artifact;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::taxi::Taxi;
use swiftrl_pim::config::{ExecTier, PimConfig, MRAM_BANK_CAPACITY_BYTES};
use swiftrl_pim::ExecutionEngine;
use swiftrl_telemetry::Json;

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let quick = read_flags(args, &["--quick (smaller workload and sweep for CI)"])?.has("--quick");

    // The quick sweep keeps the two points that matter for the lazy-bank
    // claim — the smallest figure point and the paper's full fleet — on
    // a workload small enough for CI. The full sweep adds the
    // intermediate figure counts and a past-paper 4,096-DPU point.
    let (transitions, episodes, tau, counts): (usize, u32, u32, Vec<usize>) = if quick {
        (4_000, 10, 5, vec![125, 2_524])
    } else {
        (20_000, 40, 20, FLEET_DPU_COUNTS.to_vec())
    };
    let spec = WorkloadSpec::q_learning_seq_int32();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    let mut taxi = Taxi::new();
    let dataset = collect_random(&mut taxi, transitions, 42);

    println!("# Fleet scaling: lazy banks and the threaded engine to the paper's 2,524 DPUs\n");
    println!(
        "{transitions} transitions, {episodes} episodes, tau {tau}, {spec}, \
         threaded engine with {workers} workers{}\n",
        if quick { " (--quick)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &dpus in &counts {
        let cfg = RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(episodes)
            .with_tau(tau);
        let run_tier = |tier| {
            let platform = PimConfig::builder()
                .dpus(dpus)
                .exec_tier(tier)
                .engine(ExecutionEngine::Threaded { workers })
                .build();
            let runner = PimRunner::with_platform(spec, cfg, platform).expect("runner");
            let start = Instant::now();
            let out = runner.run(&dataset).expect("run");
            (out, start.elapsed().as_secs_f64())
        };
        let (out, host_wall_s) = run_tier(ExecTier::Fast);
        let (batched_out, host_wall_batched_s) = run_tier(ExecTier::Batched);
        // The tier contract at every fleet size: same bits, same cycles.
        assert_eq!(
            out.q_table.to_bytes(),
            batched_out.q_table.to_bytes(),
            "{dpus} DPUs: Q-tables diverged between fast and batched tiers"
        );
        assert_eq!(
            out.breakdown, batched_out.breakdown,
            "{dpus} DPUs: breakdowns diverged between fast and batched tiers"
        );

        let platform = PimConfig::builder().dpus(dpus).build();
        let ranks = platform.ranks_for(dpus);
        let eager_bank_bytes = (dpus as u64) * (MRAM_BANK_CAPACITY_BYTES as u64);
        let lazy_fraction = out.memory.bank_peak_bytes as f64 / eager_bank_bytes as f64;
        rows.push(vec![
            dpus.to_string(),
            ranks.to_string(),
            swiftrl_bench::fmt_secs(host_wall_s),
            swiftrl_bench::fmt_secs(host_wall_batched_s),
            swiftrl_bench::fmt_ratio(host_wall_s / host_wall_batched_s),
            swiftrl_bench::fmt_secs(out.breakdown.pim_kernel_s),
            swiftrl_bench::fmt_secs(out.breakdown.total_seconds()),
            format!("{:.1} MiB", out.memory.bank_peak_bytes as f64 / (1u64 << 20) as f64),
            format!("{:.1} GiB", eager_bank_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.4}%", lazy_fraction * 100.0),
        ]);
        points.push(Json::obj([
            ("dpus", Json::UInt(dpus as u64)),
            ("ranks", Json::UInt(ranks as u64)),
            ("workload", Json::str(spec.to_string())),
            ("host_wall_s", Json::Num(host_wall_s)),
            ("host_wall_batched_s", Json::Num(host_wall_batched_s)),
            (
                "end_to_end_batched_over_fast",
                swiftrl_bench::ratio_json(host_wall_s, host_wall_batched_s),
            ),
            ("sim_kernel_s", Json::Num(out.breakdown.pim_kernel_s)),
            ("sim_total_s", Json::Num(out.breakdown.total_seconds())),
            ("bank_peak_bytes", Json::UInt(out.memory.bank_peak_bytes)),
            ("arena_peak_bytes", Json::UInt(out.memory.arena_peak_bytes)),
            ("eager_bank_bytes", Json::UInt(eager_bank_bytes)),
            // `null` rather than a non-finite number if the eager
            // denominator ever degenerates to zero.
            (
                "lazy_fraction",
                swiftrl_bench::ratio_json(out.memory.bank_peak_bytes as f64, eager_bank_bytes as f64),
            ),
        ]));
    }

    swiftrl_bench::print_table(
        &[
            "DPUs",
            "Ranks",
            "Fast wall",
            "Batched wall",
            "Batched/fast",
            "Sim kernel",
            "Sim total",
            "Peak bank",
            "Eager bank",
            "Peak/eager",
        ],
        &rows,
    );
    println!(
        "\nPeak bank bytes are what the lazily-materialized banks actually \
         held; eager is the dpus x 64 MiB an up-front fleet would pin.\n"
    );

    let doc = Json::obj([
        ("benchmark", Json::str("fleet_scaling")),
        ("quick", Json::Bool(quick)),
        ("transitions", Json::UInt(transitions as u64)),
        ("episodes", Json::UInt(u64::from(episodes))),
        ("tau", Json::UInt(u64::from(tau))),
        ("workload", Json::str(spec.to_string())),
        ("engine", Json::str("threaded")),
        ("points", Json::Arr(points)),
    ]);
    write_artifact(std::path::Path::new("BENCH_FLEET_SCALING.json"), &doc.render_pretty())
        .expect("write BENCH_FLEET_SCALING.json");
    println!("\nWrote BENCH_FLEET_SCALING.json");
    Ok(())
}
