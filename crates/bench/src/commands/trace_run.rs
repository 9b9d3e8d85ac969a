//! Observability driver: runs paper workload variants with telemetry
//! enabled and emits both observability artifacts per variant — a
//! Chrome/Perfetto `trace_event` JSON laying DPU lanes and host phases
//! on the simulated timeline, and a versioned metrics-snapshot bundle
//! per environment.
//!
//! Open a `trace_*.json` in <https://ui.perfetto.dev> (or
//! `chrome://tracing`) to see per-DPU kernel spans, transfer phases and
//! sync-round markers; feed the `metrics_*.json` bundle to anything that
//! reads the `swiftrl-metrics-bundle-v1` schema.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- trace_run
//! cargo run --release -p swiftrl-bench -- trace_run --quick --env frozen_lake
//! cargo run --release -p swiftrl-bench -- trace_run --variant INT32 --out-dir traces
//! ```

use std::path::PathBuf;
use swiftrl_bench::cli::{parse_value, read_flags, ArgError};
use swiftrl_bench::{fmt_secs, print_table, write_artifact};
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::taxi::Taxi;
use swiftrl_env::ExperienceDataset;
use swiftrl_telemetry::{chrome_trace, snapshot_bundle, MetricsSnapshot, Telemetry};

/// Lowercase filesystem slug for a workload name
/// (`Q-learner-SEQ-FP32` → `q_learner_seq_fp32`).
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let flags = read_flags(
        args,
        &[
            "--quick",
            "--env <frozen_lake|taxi>",
            "--variant <substring>",
            "--dpus <n>",
            "--out-dir <path (default traces)>",
        ],
    )?;
    let quick = flags.has("--quick");
    let env = flags.value("--env");
    if env.is_some_and(|e| e != "frozen_lake" && e != "taxi") {
        return Err(ArgError::Usage("--env must be frozen_lake or taxi".into()));
    }
    let dpus = flags.value("--dpus").map(|v| parse_value("--dpus", v, "an integer")).transpose()?;
    let out_dir = PathBuf::from(flags.value("--out-dir").unwrap_or("traces"));
    // Reduced-scale by default (this is an inspection tool, not a
    // benchmark); --quick shrinks further for CI.
    let (transitions, episodes, tau, default_dpus) = if quick {
        (5_000, 20, 10, 8)
    } else {
        (50_000, 100, 50, 32)
    };
    let dpus = dpus.unwrap_or(default_dpus);

    let mut fl = FrozenLake::slippery_4x4();
    let mut taxi = Taxi::new();
    let envs: Vec<(&str, ExperienceDataset)> = [
        ("frozen_lake", collect_random(&mut fl, transitions, 42)),
        ("taxi", collect_random(&mut taxi, transitions, 42)),
    ]
    .into_iter()
    .filter(|(tag, _)| env.is_none_or(|e| e == *tag))
    .collect();

    let variants: Vec<WorkloadSpec> = WorkloadSpec::paper_variants()
        .into_iter()
        .filter(|spec| {
            flags.value("--variant").is_none_or(|f| {
                spec.name().to_ascii_lowercase().contains(&f.to_ascii_lowercase())
            })
        })
        .collect();
    assert!(!variants.is_empty(), "--variant matched no workload");

    println!("# trace_run: telemetry artifacts for the paper variants\n");
    println!(
        "{transitions} transitions, {episodes} episodes, tau {tau}, {dpus} DPUs{}\n",
        if quick { " (--quick)" } else { "" }
    );

    let mut rows = Vec::new();
    for (tag, dataset) in &envs {
        let mut snapshots = Vec::new();
        for &spec in &variants {
            let cfg = RunConfig::paper_defaults()
                .with_dpus(dpus)
                .with_episodes(episodes)
                .with_tau(tau);
            let telemetry = Telemetry::enabled();
            let runner = PimRunner::new(spec, cfg)
                .expect("DPU allocation failed")
                .with_telemetry(telemetry.clone());
            runner
                .run(dataset)
                .unwrap_or_else(|e| panic!("{tag} {spec} failed: {e}"));

            let events = telemetry.records();
            let label = format!("{tag} {}", spec.name());
            let trace_path = out_dir.join(format!("trace_{tag}_{}.json", slug(&spec.name())));
            write_artifact(&trace_path, &chrome_trace(&[(0, &label, &events)]))
                .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));

            let snap = MetricsSnapshot::from_events(label, &events);
            rows.push(vec![
                (*tag).to_string(),
                spec.name(),
                events.len().to_string(),
                snap.launches.to_string(),
                snap.sync_rounds.to_string(),
                fmt_secs(snap.kernel_seconds),
                trace_path.display().to_string(),
            ]);
            snapshots.push(snap);
        }
        let metrics_path = out_dir.join(format!("metrics_{tag}.json"));
        write_artifact(&metrics_path, &snapshot_bundle("trace_run", &snapshots).render_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", metrics_path.display()));
        println!(
            "metrics bundle: {} ({} variants)\n",
            metrics_path.display(),
            snapshots.len()
        );
    }

    print_table(
        &["Env", "Workload", "Events", "Launches", "Syncs", "Sim kernel", "Trace"],
        &rows,
    );
    println!(
        "\nOpen a trace in https://ui.perfetto.dev — one process per run, \
         lane 0 is the host, lanes 1..N are DPUs on the simulated timeline."
    );
    Ok(())
}
