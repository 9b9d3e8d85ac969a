//! Simulator throughput: host wall-clock cost per simulated kernel-second
//! under the reference (instrumented soft-float), fast (host-native
//! arithmetic, per-intrinsic charges) and batched (fused per-launch
//! sweep, aggregate charges) execution tiers, across FrozenLake and Taxi
//! workload variants.
//!
//! All tiers produce bit-identical Q-tables and cycle totals (enforced
//! here and proven in `tests/fastpath_parity.rs`); the only difference is
//! how fast the host gets there. A final fleet-scale sweep runs the
//! paper's 2,524-DPU configuration under the fast and batched tiers.
//! Results land in `BENCH_SIM_THROUGHPUT.json` in the current directory.
//!
//! ```text
//! cargo run --release -p swiftrl-bench --bin sim_throughput
//! cargo run --release -p swiftrl-bench --bin sim_throughput -- --quick
//! ```

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "benchmark binary: wall-clock timing is the measurement"
)]

use std::time::Instant;
use swiftrl_bench::write_json_artifact;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::{PimRunner, RunOutcome};
use swiftrl_env::cliff_walking::CliffWalking;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::taxi::Taxi;
use swiftrl_env::ExperienceDataset;
use swiftrl_pim::config::{ExecTier, PimConfig};
use swiftrl_telemetry::Json;

/// The paper platform's DPU count, for the fleet-scale sweep.
const FLEET_DPUS: usize = 2_524;

/// One (environment, workload) point of the sweep.
struct Case {
    env: &'static str,
    figure: &'static str,
    spec: WorkloadSpec,
    dataset: ExperienceDataset,
    cfg: RunConfig,
}

/// One tier's measurement for a case.
struct Measurement {
    tier: ExecTier,
    wall_s: f64,
    /// [`RunOutcome::host_kernel_s`]: the rounds' per-DPU passes, so it
    /// also times the deliveries and the fold, which every tier shares,
    /// and the tier ratios understate the kernel's own.
    kernel_wall_s: f64,
    sim_kernel_s: f64,
    sim_total_s: f64,
    q_bytes: Vec<u8>,
}

fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::Reference => "reference",
        ExecTier::Fast => "fast",
        ExecTier::Batched => "batched",
    }
}

fn run_tier(case: &Case, tier: ExecTier, repeats: usize) -> Measurement {
    let platform = PimConfig::builder()
        .dpus(case.cfg.dpus)
        .exec_tier(tier)
        .build();
    let runner = PimRunner::with_platform(case.spec, case.cfg, platform).expect("runner");
    let mut best_wall = f64::INFINITY;
    let mut best_kernel_wall = f64::INFINITY;
    let mut outcome: Option<RunOutcome> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = runner.run(&case.dataset).expect("run");
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        best_kernel_wall = best_kernel_wall.min(out.host_kernel_s);
        outcome = Some(out);
    }
    let out = outcome.expect("at least one repeat");
    Measurement {
        tier,
        wall_s: best_wall,
        kernel_wall_s: best_kernel_wall,
        sim_kernel_s: out.breakdown.pim_kernel_s,
        sim_total_s: out.breakdown.total_seconds(),
        q_bytes: out.q_table.to_bytes(),
    }
}

/// Asserts the tier-identity contract between a reference measurement and
/// a faster tier: same bytes, same simulated cycles.
fn assert_identical(case: &Case, want: &Measurement, got: &Measurement) {
    assert_eq!(
        want.q_bytes,
        got.q_bytes,
        "{} {}: Q-table bytes diverged between {} and {} tiers",
        case.env,
        case.spec,
        tier_name(want.tier),
        tier_name(got.tier)
    );
    assert_eq!(
        want.sim_kernel_s,
        got.sim_kernel_s,
        "{} {}: simulated kernel seconds diverged between {} and {} tiers",
        case.env,
        case.spec,
        tier_name(want.tier),
        tier_name(got.tier)
    );
    assert_eq!(
        want.sim_total_s,
        got.sim_total_s,
        "{} {}: simulated total seconds diverged between {} and {} tiers",
        case.env,
        case.spec,
        tier_name(want.tier),
        tier_name(got.tier)
    );
}

fn entry_json(case: &Case, dpus: usize, m: &Measurement) -> Json {
    Json::obj([
        ("env", Json::str(case.env)),
        ("figure", Json::str(case.figure)),
        ("workload", Json::str(case.spec.to_string())),
        ("tier", Json::str(tier_name(m.tier))),
        ("dpus", Json::UInt(dpus as u64)),
        ("host_kernel_wall_s", Json::Num(m.kernel_wall_s)),
        ("host_wall_s", Json::Num(m.wall_s)),
        ("sim_kernel_s", Json::Num(m.sim_kernel_s)),
        (
            "host_kernel_wall_per_sim_kernel_s",
            // `null` when the modelled kernel time is zero (a degenerate
            // run): the artifact must never carry a non-finite number.
            swiftrl_bench::ratio_json(m.kernel_wall_s, m.sim_kernel_s),
        ),
    ])
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("flags: --quick (smaller dataset/episodes for CI)");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    // Best-of-N wall clock per tier: on a busy host only the cleanest
    // run reflects the simulator's cost, and every tier gets the same
    // treatment. `--quick` covers the Q-learner SEQ variants only; the
    // full sweep runs every paper variant, because the fig5/fig7 kernel
    // phase is the sum over all twelve.
    let (transitions, episodes, tau, dpus, repeats) = if quick {
        (10_000, 20, 10, 8, 1)
    } else {
        (50_000, 100, 50, 16, 5)
    };
    let cfg = RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(tau);

    let mut fl = FrozenLake::slippery_4x4();
    let fl_data = collect_random(&mut fl, transitions, 42);
    let mut taxi = Taxi::new();
    let taxi_data = collect_random(&mut taxi, transitions, 42);
    let mut cliff = CliffWalking::new();
    let cliff_data = collect_random(&mut cliff, transitions, 42);

    let specs = if quick {
        vec![
            WorkloadSpec::q_learning_seq_fp32(),
            WorkloadSpec::q_learning_seq_int32(),
        ]
    } else {
        WorkloadSpec::paper_variants()
    };
    let mut cases = Vec::new();
    // CliffWalking is not one of the paper's figure environments; it
    // rides along under the "extra" label so the artifact keeps the
    // per-figure aggregation intact.
    for (env, figure, dataset) in [
        ("frozen_lake", "fig5", &fl_data),
        ("taxi", "fig7", &taxi_data),
        ("cliff_walking", "extra", &cliff_data),
    ] {
        for &spec in &specs {
            cases.push(Case {
                env,
                figure,
                spec,
                dataset: dataset.clone(),
                cfg,
            });
        }
    }

    println!("# Simulator throughput: reference vs fast vs batched execution tier\n");
    println!(
        "{} transitions, {episodes} episodes, tau {tau}, {dpus} DPUs{}\n",
        transitions,
        if quick { " (--quick)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    // figure -> (ref kernel, fast kernel, batched kernel,
    //            ref wall, fast wall, batched wall) sums.
    struct PhaseSum {
        env: &'static str,
        figure: &'static str,
        ref_kernel: f64,
        fast_kernel: f64,
        batched_kernel: f64,
        ref_wall: f64,
        fast_wall: f64,
        batched_wall: f64,
    }
    let mut phase_sums: Vec<PhaseSum> = Vec::new();
    for case in &cases {
        let reference = run_tier(case, ExecTier::Reference, repeats);
        let fast = run_tier(case, ExecTier::Fast, repeats);
        let batched = run_tier(case, ExecTier::Batched, repeats);
        // The contract the speedups rest on: same bits, same cycles.
        assert_identical(case, &reference, &fast);
        assert_identical(case, &reference, &batched);
        let kernel_speedup = reference.kernel_wall_s / fast.kernel_wall_s;
        let batched_over_fast = fast.kernel_wall_s / batched.kernel_wall_s;
        rows.push(vec![
            format!("{} ({})", case.env, case.figure),
            case.spec.to_string(),
            swiftrl_bench::fmt_secs(reference.kernel_wall_s),
            swiftrl_bench::fmt_secs(fast.kernel_wall_s),
            swiftrl_bench::fmt_secs(batched.kernel_wall_s),
            swiftrl_bench::fmt_ratio(kernel_speedup),
            swiftrl_bench::fmt_ratio(batched_over_fast),
        ]);
        for m in [&reference, &fast, &batched] {
            entries.push(entry_json(case, case.cfg.dpus, m));
        }
        speedups.push(Json::obj([
            ("env", Json::str(case.env)),
            ("figure", Json::str(case.figure)),
            ("workload", Json::str(case.spec.to_string())),
            (
                "kernel_phase_fast_over_reference",
                swiftrl_bench::ratio_json(reference.kernel_wall_s, fast.kernel_wall_s),
            ),
            (
                "kernel_phase_batched_over_fast",
                swiftrl_bench::ratio_json(fast.kernel_wall_s, batched.kernel_wall_s),
            ),
            (
                "kernel_phase_batched_over_reference",
                swiftrl_bench::ratio_json(reference.kernel_wall_s, batched.kernel_wall_s),
            ),
            (
                "end_to_end_fast_over_reference",
                swiftrl_bench::ratio_json(reference.wall_s, fast.wall_s),
            ),
            (
                "end_to_end_batched_over_fast",
                swiftrl_bench::ratio_json(fast.wall_s, batched.wall_s),
            ),
        ]));
        match phase_sums.iter_mut().find(|p| p.figure == case.figure) {
            Some(p) => {
                p.ref_kernel += reference.kernel_wall_s;
                p.fast_kernel += fast.kernel_wall_s;
                p.batched_kernel += batched.kernel_wall_s;
                p.ref_wall += reference.wall_s;
                p.fast_wall += fast.wall_s;
                p.batched_wall += batched.wall_s;
            }
            None => phase_sums.push(PhaseSum {
                env: case.env,
                figure: case.figure,
                ref_kernel: reference.kernel_wall_s,
                fast_kernel: fast.kernel_wall_s,
                batched_kernel: batched.kernel_wall_s,
                ref_wall: reference.wall_s,
                fast_wall: fast.wall_s,
                batched_wall: batched.wall_s,
            }),
        }
    }

    swiftrl_bench::print_table(
        &[
            "Environment",
            "Workload",
            "Ref kernel",
            "Fast kernel",
            "Batched kernel",
            "Fast/ref",
            "Batched/fast",
        ],
        &rows,
    );
    println!(
        "\nAll tiers produced byte-identical Q-tables and identical simulated \
         times in every case; the speedups are pure host wall-clock.\n"
    );

    // The figure-level kernel phase is the sum over its variants: this is
    // the number that answers "how much faster does the whole fig5/fig7
    // kernel phase run under each tier".
    let mut aggregates = Vec::new();
    for p in &phase_sums {
        println!(
            "{} ({}) kernel phase over {} variant(s): {} -> {} -> {} \
             ({} fast/ref, {} batched/fast)",
            p.figure,
            p.env,
            cases.iter().filter(|c| c.figure == p.figure).count(),
            swiftrl_bench::fmt_secs(p.ref_kernel),
            swiftrl_bench::fmt_secs(p.fast_kernel),
            swiftrl_bench::fmt_secs(p.batched_kernel),
            swiftrl_bench::fmt_ratio(p.ref_kernel / p.fast_kernel),
            swiftrl_bench::fmt_ratio(p.fast_kernel / p.batched_kernel),
        );
        aggregates.push(Json::obj([
            ("env", Json::str(p.env)),
            ("figure", Json::str(p.figure)),
            ("ref_kernel_wall_s", Json::Num(p.ref_kernel)),
            ("fast_kernel_wall_s", Json::Num(p.fast_kernel)),
            ("batched_kernel_wall_s", Json::Num(p.batched_kernel)),
            (
                "kernel_phase_fast_over_reference",
                swiftrl_bench::ratio_json(p.ref_kernel, p.fast_kernel),
            ),
            (
                "kernel_phase_batched_over_fast",
                swiftrl_bench::ratio_json(p.fast_kernel, p.batched_kernel),
            ),
            (
                "end_to_end_fast_over_reference",
                swiftrl_bench::ratio_json(p.ref_wall, p.fast_wall),
            ),
            (
                "end_to_end_batched_over_fast",
                swiftrl_bench::ratio_json(p.fast_wall, p.batched_wall),
            ),
        ]));
    }

    // Fleet-scale sweep: the paper platform's 2,524 DPUs, fast vs
    // batched (the reference tier is impractical at this scale — that is
    // the point of the faster tiers). One workload variant suffices: the
    // entry exists to pin host cost per simulated kernel-second at fleet
    // width.
    let fleet_cfg = RunConfig::paper_defaults()
        .with_dpus(FLEET_DPUS)
        .with_episodes(episodes)
        .with_tau(tau);
    let fleet_case = Case {
        env: "frozen_lake",
        figure: "fleet",
        spec: WorkloadSpec::q_learning_seq_fp32(),
        dataset: fl_data.clone(),
        cfg: fleet_cfg,
    };
    println!("\n# Fleet-scale sweep: {FLEET_DPUS} DPUs, fast vs batched\n");
    let fleet_fast = run_tier(&fleet_case, ExecTier::Fast, 1);
    let fleet_batched = run_tier(&fleet_case, ExecTier::Batched, 1);
    assert_identical(&fleet_case, &fleet_fast, &fleet_batched);
    println!(
        "{} {} @ {FLEET_DPUS} DPUs: fast kernel {} -> batched kernel {} ({})",
        fleet_case.env,
        fleet_case.spec,
        swiftrl_bench::fmt_secs(fleet_fast.kernel_wall_s),
        swiftrl_bench::fmt_secs(fleet_batched.kernel_wall_s),
        swiftrl_bench::fmt_ratio(fleet_fast.kernel_wall_s / fleet_batched.kernel_wall_s),
    );
    entries.push(entry_json(&fleet_case, FLEET_DPUS, &fleet_fast));
    entries.push(entry_json(&fleet_case, FLEET_DPUS, &fleet_batched));
    speedups.push(Json::obj([
        ("env", Json::str(fleet_case.env)),
        ("figure", Json::str(fleet_case.figure)),
        ("workload", Json::str(fleet_case.spec.to_string())),
        (
            "kernel_phase_batched_over_fast",
            swiftrl_bench::ratio_json(fleet_fast.kernel_wall_s, fleet_batched.kernel_wall_s),
        ),
        (
            "end_to_end_batched_over_fast",
            swiftrl_bench::ratio_json(fleet_fast.wall_s, fleet_batched.wall_s),
        ),
    ]));

    // Same schema/keys the hand-formatted writer produced before the
    // shared builder existed; pre-existing artifacts keep parsing.
    let doc = Json::obj([
        ("benchmark", Json::str("sim_throughput")),
        ("quick", Json::Bool(quick)),
        ("transitions", Json::UInt(transitions as u64)),
        ("episodes", Json::UInt(u64::from(episodes))),
        ("tau", Json::UInt(u64::from(tau))),
        ("dpus", Json::UInt(dpus as u64)),
        ("fleet_dpus", Json::UInt(FLEET_DPUS as u64)),
        ("entries", Json::Arr(entries)),
        ("speedups", Json::Arr(speedups)),
        ("aggregates", Json::Arr(aggregates)),
    ]);
    write_json_artifact(std::path::Path::new("BENCH_SIM_THROUGHPUT.json"), &doc)
        .expect("write BENCH_SIM_THROUGHPUT.json");
    println!("\nWrote BENCH_SIM_THROUGHPUT.json");
}
