//! Shared driver for the strong-scaling figures (Figs. 5 and 6).

use crate::{
    fmt_secs, metrics_sibling, print_table, write_json_artifact, write_trace_artifact,
    Extrapolation, HarnessArgs,
};
use swiftrl_core::backend::TrainingBackend;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::runner::PimRunner;
use swiftrl_env::ExperienceDataset;
use swiftrl_telemetry::{chrome_trace, snapshot_bundle, Event, MetricsSnapshot, Telemetry};

/// The DPU counts swept by Figures 5 and 6.
pub const PAPER_DPU_COUNTS: [usize; 5] = [125, 250, 500, 1_000, 2_000];

/// The fleet-scaling sweep: the paper's figure counts extended through
/// the full 2,524-DPU fleet the paper evaluates on, plus one
/// past-paper point to show headroom.
pub const FLEET_DPU_COUNTS: [usize; 7] = [125, 250, 500, 1_000, 2_000, 2_524, 4_096];

/// Parameters of one strong-scaling figure.
#[derive(Debug, Clone)]
pub struct ScalingFigure {
    /// Figure label, e.g. `Figure 5`.
    pub figure: &'static str,
    /// Environment name for the headline.
    pub env: &'static str,
    /// The paper's dataset size for this environment.
    pub paper_transitions: usize,
    /// The paper's episode count (2,000).
    pub paper_episodes: u32,
    /// The paper's synchronization period (50).
    pub tau: u32,
}

/// Measured + extrapolated result of one (variant, DPU count) cell.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Workload variant.
    pub spec: WorkloadSpec,
    /// DPU count.
    pub dpus: usize,
    /// Breakdown extrapolated to paper scale.
    pub breakdown: swiftrl_core::breakdown::TimeBreakdown,
}

/// Runs the full sweep and prints the figure's tables. Returns every
/// cell for downstream analysis.
///
/// # Panics
///
/// Panics if a PIM run fails (kernel fault or misconfiguration).
pub fn run_scaling_figure(
    fig: &ScalingFigure,
    dataset: &ExperienceDataset,
    args: &HarnessArgs,
) -> Vec<ScalingCell> {
    // At least two rounds so the inter-PIM component is measurable (its
    // extrapolation scales with intermediate synchronizations).
    let episodes = args
        .scaled_episodes(fig.paper_episodes, fig.tau)
        .max(2 * fig.tau);
    let extra = Extrapolation::new(
        fig.paper_transitions,
        dataset.len(),
        fig.paper_episodes,
        episodes,
        fig.tau,
    );
    let dpu_counts: Vec<usize> = args
        .dpus
        .clone()
        .unwrap_or_else(|| PAPER_DPU_COUNTS.to_vec());

    println!(
        "# {}: strong scaling of RL workloads, {} environment\n",
        fig.figure, fig.env
    );
    println!(
        "run scale: {} transitions × {episodes} episodes (paper: {} × {}); \
         τ = {}; all times below are extrapolated to paper scale\n",
        dataset.len(),
        fig.paper_transitions,
        fig.paper_episodes,
        fig.tau
    );

    let mut cells = Vec::new();
    // One (label, event stream) pair per traced run; empty when tracing
    // is off, in which case every runner keeps the disabled sink and the
    // launch hot path stays allocation-free.
    let mut traced: Vec<(String, Vec<Event>)> = Vec::new();
    for spec in WorkloadSpec::paper_variants() {
        let mut rows = Vec::new();
        let mut first_total = None;
        let mut last_total = None;
        for &dpus in &dpu_counts {
            let cfg = RunConfig::paper_defaults()
                .with_dpus(dpus)
                .with_episodes(episodes)
                .with_tau(fig.tau)
                .with_seed(args.seed.unwrap_or(0xC0FFEE));
            let telemetry = if args.observability_on() {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let backend: Box<dyn TrainingBackend> = Box::new(
                PimRunner::new(spec, cfg)
                    .unwrap_or_else(|e| panic!("DPU allocation failed: {e}"))
                    .with_telemetry(telemetry.clone()),
            );
            let report = backend
                .train(dataset)
                .unwrap_or_else(|e| panic!("PIM run failed: {e}"));
            if args.observability_on() {
                traced.push((format!("{spec} @ {dpus} DPUs"), telemetry.records()));
            }
            let b = extra.apply(&report.breakdown);
            rows.push(vec![
                dpus.to_string(),
                fmt_secs(b.pim_kernel_s),
                fmt_secs(b.cpu_pim_s),
                fmt_secs(b.pim_cpu_s),
                fmt_secs(b.inter_pim_s),
                fmt_secs(b.total_seconds()),
            ]);
            if first_total.is_none() {
                first_total = Some(b.total_seconds());
            }
            last_total = Some(b.total_seconds());
            cells.push(ScalingCell {
                spec,
                dpus,
                breakdown: b,
            });
        }
        println!("## {spec}\n");
        print_table(
            &["PIM cores", "PIM kernel", "CPU-PIM", "PIM-CPU", "Inter-PIM", "Total"],
            &rows,
        );
        if let (Some(first), Some(last), [lo_dpus, .., hi_dpus]) =
            (first_total, last_total, dpu_counts.as_slice())
        {
            println!(
                "\nspeedup {lo_dpus}→{hi_dpus} cores: {:.2}×\n",
                first / last
            );
        }
    }

    summarize(&cells, &dpu_counts);
    if let Some(path) = &args.trace {
        write_trace_artifacts(fig, path, &traced);
    }
    if let Some(path) = &args.metrics {
        write_metrics_bundle(fig, path, &traced);
    }
    cells
}

/// Writes the Chrome trace (all runs, one process lane each) and the
/// metrics-snapshot bundle next to it.
fn write_trace_artifacts(fig: &ScalingFigure, path: &std::path::Path, traced: &[(String, Vec<Event>)]) {
    let runs: Vec<(u64, &str, &[Event])> = (0..)
        .zip(traced)
        .map(|(id, (label, events))| (id, label.as_str(), events.as_slice()))
        .collect();
    write_trace_artifact(path, &chrome_trace(&runs))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    let snapshots: Vec<MetricsSnapshot> = traced
        .iter()
        .map(|(label, events)| MetricsSnapshot::from_events(label.clone(), events))
        .collect();
    let metrics_path = metrics_sibling(path);
    write_json_artifact(&metrics_path, &snapshot_bundle(fig.figure, &snapshots))
        .unwrap_or_else(|e| panic!("writing {}: {e}", metrics_path.display()));
    println!(
        "\ntrace: {} ({} runs); metrics: {}",
        path.display(),
        runs.len(),
        metrics_path.display()
    );
}

/// Writes the metrics-snapshot bundle at an explicit `--metrics` path
/// (independent of `--trace`, which writes a sibling bundle of its own).
fn write_metrics_bundle(fig: &ScalingFigure, path: &std::path::Path, traced: &[(String, Vec<Event>)]) {
    let snapshots: Vec<MetricsSnapshot> = traced
        .iter()
        .map(|(label, events)| MetricsSnapshot::from_events(label.clone(), events))
        .collect();
    write_json_artifact(path, &snapshot_bundle(fig.figure, &snapshots))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nmetrics: {} ({} runs)", path.display(), snapshots.len());
}

fn summarize(cells: &[ScalingCell], dpu_counts: &[usize]) {
    let &[lo, .., hi] = dpu_counts else {
        return; // fewer than two counts: no speedup to report
    };
    let mut kernel_speedups = Vec::new();
    for spec in WorkloadSpec::paper_variants() {
        let t = |d: usize| {
            cells
                .iter()
                .find(|c| c.spec == spec && c.dpus == d)
                .map(|c| c.breakdown.pim_kernel_s)
        };
        if let (Some(a), Some(b)) = (t(lo), t(hi)) {
            if b > 0.0 {
                kernel_speedups.push(a / b);
            }
        }
    }
    if !kernel_speedups.is_empty() {
        let mean = kernel_speedups.iter().sum::<f64>() / kernel_speedups.len() as f64;
        println!(
            "## Summary: mean PIM-kernel speedup {lo}→{hi} cores across all 12 \
             workloads: {mean:.2}× (paper: >15× for 125→2,000, near-linear)"
        );
    }
}
