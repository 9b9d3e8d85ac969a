//! Shared harness utilities for the `swiftrl-bench` subcommands.
//!
//! Every subcommand regenerates one table or figure of the SwiftRL paper. By
//! default the experiments run at a *reduced scale* (smaller dataset,
//! fewer episodes) that finishes in seconds on a laptop; because the
//! simulated-time components scale linearly in the reduced dimensions,
//! each subcommand also reports the extrapolation to the paper's full
//! parameters. Pass `--paper-scale` to run the actual full-size
//! experiment (hours of host CPU time), or `--scale <f>` for anything in
//! between.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cli;
pub mod scaling;

use cli::{parse_value, read_flags, ArgError};
use swiftrl_core::breakdown::TimeBreakdown;
use swiftrl_telemetry::{chrome_trace, snapshot_bundle, Event, MetricsSnapshot};

/// Command-line options shared by the scaled-experiment subcommands.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scale factor applied to dataset size and episode count (1.0 =
    /// paper scale).
    pub scale: f64,
    /// DPU counts to sweep (defaults to the figure's own set).
    pub dpus: Option<Vec<usize>>,
    /// Override the RNG seed.
    pub seed: Option<u32>,
    /// Write a Chrome `trace_event` JSON of the sweep's PIM runs here
    /// (a metrics snapshot lands next to it with a `.metrics.json`
    /// extension). `None` leaves telemetry disabled — a true zero on the
    /// launch hot path.
    pub trace: Option<std::path::PathBuf>,
    /// Write the sweep's `MetricsSnapshot` bundle (schema
    /// `swiftrl-metrics-bundle-v1`, per-run `swiftrl-metrics-v3`
    /// snapshots) to this exact path, independent of `--trace`.
    /// Either flag enables telemetry; neither leaves it a true zero.
    pub metrics: Option<std::path::PathBuf>,
}

impl HarnessArgs {
    /// Whether any observability output was requested (telemetry must
    /// be recorded for the sweep).
    pub fn observability_on(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// The flags every scaled-experiment subcommand accepts.
    const FLAGS: [&'static str; 6] = [
        "--scale <f in (0,1]>",
        "--paper-scale",
        "--dpus <a,b,c>",
        "--seed <u32>",
        "--trace <path>",
        "--metrics <path>",
    ];

    /// Reads a scaled-experiment subcommand's argument list. Flags apply
    /// in order, so the last of `--scale` / `--paper-scale` wins.
    ///
    /// # Errors
    ///
    /// [`ArgError::Help`] at `--help`; [`ArgError::Usage`] on an unknown
    /// flag, a missing or malformed value, or a `--scale` outside
    /// `(0, 1]`.
    pub fn from_args(args: &[String], default_scale: f64) -> Result<Self, ArgError> {
        let mut out = Self {
            scale: default_scale,
            dpus: None,
            seed: None,
            trace: None,
            metrics: None,
        };
        for (flag, value) in read_flags(args, &Self::FLAGS)?.iter() {
            match flag {
                "--scale" => {
                    out.scale = parse_value(flag, value, "a float")?;
                    if !(out.scale > 0.0 && out.scale <= 1.0) {
                        return Err(ArgError::Usage("--scale must be in (0, 1]".into()));
                    }
                }
                "--paper-scale" => out.scale = 1.0,
                "--dpus" => {
                    out.dpus = Some(
                        value
                            .split(',')
                            .map(|s| parse_value(flag, s.trim(), "integers"))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--seed" => out.seed = Some(parse_value(flag, value, "a u32")?),
                "--trace" => out.trace = Some(std::path::PathBuf::from(value)),
                "--metrics" => out.metrics = Some(std::path::PathBuf::from(value)),
                other => unreachable!("read_flags accepted {other}, not in FLAGS"),
            }
        }
        Ok(out)
    }

    /// Scales an integer quantity, keeping at least `min`.
    pub fn scaled(&self, paper_value: usize, min: usize) -> usize {
        ((paper_value as f64 * self.scale).round() as usize).max(min)
    }

    /// Scales an episode count so it stays a positive multiple of `tau`.
    pub fn scaled_episodes(&self, paper_episodes: u32, tau: u32) -> u32 {
        let raw = (paper_episodes as f64 * self.scale).round() as u32;
        (raw.div_ceil(tau)).max(1) * tau
    }
}

/// Linear extrapolation factors from a reduced-scale run to paper scale.
///
/// The simulator's time components are exactly linear in the quantities
/// below, so the extrapolated breakdown equals what the full-size run
/// would report.
#[derive(Debug, Clone, Copy)]
pub struct Extrapolation {
    /// paper_updates / run_updates (kernel time factor).
    pub updates: f64,
    /// paper_rounds / run_rounds (inter-PIM sync factor).
    pub rounds: f64,
    /// paper_dataset_bytes / run_dataset_bytes (CPU→PIM factor).
    pub dataset: f64,
}

impl Extrapolation {
    /// Builds factors from paper-vs-run dataset sizes and episode counts
    /// at a fixed synchronization period `tau`.
    ///
    /// The inter-PIM component is dominated by the *intermediate*
    /// synchronizations (one fewer than the number of rounds), so its
    /// factor uses `rounds - 1` on both sides.
    pub fn new(
        paper_transitions: usize,
        run_transitions: usize,
        paper_episodes: u32,
        run_episodes: u32,
        tau: u32,
    ) -> Self {
        let updates = (paper_transitions as f64 * paper_episodes as f64)
            / (run_transitions as f64 * run_episodes as f64);
        let paper_syncs = (paper_episodes / tau).saturating_sub(1).max(1) as f64;
        let run_syncs = (run_episodes / tau).saturating_sub(1).max(1) as f64;
        Self {
            updates,
            rounds: paper_syncs / run_syncs,
            dataset: paper_transitions as f64 / run_transitions as f64,
        }
    }

    /// No-op extrapolation (already at paper scale).
    pub fn identity() -> Self {
        Self {
            updates: 1.0,
            rounds: 1.0,
            dataset: 1.0,
        }
    }

    /// Applies the factors to a measured breakdown. The one-time program
    /// load inside the CPU→PIM component is scale-invariant and is kept
    /// as-is; only the data-dependent remainder scales with the dataset.
    pub fn apply(&self, b: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            pim_kernel_s: b.pim_kernel_s * self.updates,
            cpu_pim_s: b.program_load_s + (b.cpu_pim_s - b.program_load_s) * self.dataset,
            pim_cpu_s: b.pim_cpu_s,
            inter_pim_s: b.inter_pim_s * self.rounds,
            program_load_s: b.program_load_s,
        }
    }
}

/// Writes a rendered JSON artifact (a `BENCH_*.json` document, a
/// metrics bundle, a Chrome `trace_event` trace): validates it with the
/// telemetry parser before anything touches disk, so a malformed
/// document can never be written, then creates parent directories as
/// needed. A [`Json`](swiftrl_telemetry::Json) document is rendered
/// with `render_pretty` (stable key order, trailing newline) first.
///
/// # Errors
///
/// I/O failures propagate; a render that fails to re-parse (a bug in
/// the builder or exporter, not the caller) surfaces as `InvalidData`.
pub fn write_artifact(path: &std::path::Path, rendered: &str) -> std::io::Result<()> {
    if let Err(e) = swiftrl_telemetry::json::parse(rendered) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("rendered artifact failed self-validation: {e}"),
        ));
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, rendered)
}

/// Writes a sweep's `--trace` / `--metrics` artifacts from its traced
/// PIM runs, one `(label, events)` pair per run, and prints where they
/// went (`noun` names the runs: `runs`, `PIM runs`). `--trace <path>`
/// writes the Chrome trace, one process lane per run, and a
/// metrics-snapshot bundle titled `title` next to it (the same path
/// with a `.metrics.json` extension); `--metrics <path>` writes the
/// bundle at exactly that path.
///
/// # Panics
///
/// Panics if an artifact cannot be written.
pub fn write_observability(args: &HarnessArgs, title: &str, noun: &str, traced: &[(String, Vec<Event>)]) {
    let write = |path: &std::path::Path, rendered: &str| {
        write_artifact(path, rendered).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    };
    let bundle = || {
        let snapshots: Vec<MetricsSnapshot> = traced
            .iter()
            .map(|(label, events)| MetricsSnapshot::from_events(label.clone(), events))
            .collect();
        snapshot_bundle(title, &snapshots).render_pretty()
    };
    if let Some(path) = &args.trace {
        let runs: Vec<(u64, &str, &[Event])> = (0..)
            .zip(traced)
            .map(|(id, (label, events))| (id, label.as_str(), events.as_slice()))
            .collect();
        write(path, &chrome_trace(&runs));
        let metrics_path = path.with_extension("metrics.json");
        write(&metrics_path, &bundle());
        println!(
            "\ntrace: {} ({} {noun}); metrics: {}",
            path.display(),
            runs.len(),
            metrics_path.display()
        );
    }
    if let Some(path) = &args.metrics {
        write(path, &bundle());
        println!("\nmetrics: {} ({} {noun})", path.display(), traced.len());
    }
}

/// Prints a GitHub-flavoured markdown table.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Formats seconds compactly (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s < 1.0e-3 {
        format!("{:.1}µs", s * 1.0e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1.0e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a ratio as `N.NN×`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}×")
}

/// A `num / den` ratio as a JSON value, with the division-by-zero and
/// NaN cases made explicit: any non-finite result (zero or non-finite
/// denominator, non-finite numerator) is emitted as `null` rather than
/// relying on the renderer's non-finite fallback. Benchmark artifacts
/// must never contain non-finite numbers — `tests/artifact_compat.rs`
/// rejects them.
pub fn ratio_json(num: f64, den: f64) -> swiftrl_telemetry::Json {
    let ratio = num / den;
    if ratio.is_finite() {
        swiftrl_telemetry::Json::Num(ratio)
    } else {
        swiftrl_telemetry::Json::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn harness_args_read_every_flag() {
        let a = HarnessArgs::from_args(&[], 0.05).unwrap();
        assert_eq!(a.scale, 0.05);
        assert!(a.dpus.is_none() && a.seed.is_none() && !a.observability_on());

        let a = HarnessArgs::from_args(
            &argv(&[
                "--scale", "0.25", "--dpus", "8, 16,32", "--seed", "7", "--trace", "t/x.json",
                "--metrics", "m.json",
            ]),
            0.05,
        )
        .unwrap();
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.dpus, Some(vec![8, 16, 32]));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.trace, Some(std::path::PathBuf::from("t/x.json")));
        assert_eq!(a.metrics, Some(std::path::PathBuf::from("m.json")));
        assert!(a.observability_on());

        // `--scale` and `--paper-scale` apply in order: the last wins.
        let paper = HarnessArgs::from_args(&argv(&["--scale", "0.1", "--paper-scale"]), 0.05);
        assert_eq!(paper.unwrap().scale, 1.0);
        let scaled = HarnessArgs::from_args(&argv(&["--paper-scale", "--scale", "0.1"]), 0.05);
        assert_eq!(scaled.unwrap().scale, 0.1);
    }

    #[test]
    fn harness_args_reject_malformed_lists() {
        let usage = |args: &[&str]| match HarnessArgs::from_args(&argv(args), 0.05) {
            Err(ArgError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        };
        assert_eq!(usage(&["--scale", "0"]), "--scale must be in (0, 1]");
        assert_eq!(usage(&["--scale", "1.5"]), "--scale must be in (0, 1]");
        assert_eq!(usage(&["--scale", "NaN"]), "--scale must be in (0, 1]");
        assert_eq!(usage(&["--scale", "x"]), "--scale must be a float");
        assert_eq!(usage(&["--scale"]), "--scale needs <f in (0,1]>");
        assert_eq!(usage(&["--dpus", "8,x"]), "--dpus must be integers");
        assert_eq!(usage(&["--seed", "-1"]), "--seed must be a u32");
        assert_eq!(usage(&["--trace"]), "--trace needs <path>");
        assert_eq!(usage(&["--quick"]), "unknown flag --quick");
        assert_eq!(
            HarnessArgs::from_args(&argv(&["--seed", "1", "-h"]), 0.05).unwrap_err(),
            ArgError::Help(
                "flags: --scale <f in (0,1]> | --paper-scale | --dpus <a,b,c> | --seed <u32> | \
                 --trace <path> | --metrics <path>"
                    .into()
            )
        );
    }

    #[test]
    fn scaled_keeps_minimum() {
        let a = HarnessArgs::from_args(&[], 0.001).unwrap();
        assert_eq!(a.scaled(1_000, 50), 50);
        assert_eq!(a.scaled(1_000_000, 50), 1_000);
    }

    #[test]
    fn scaled_episodes_stay_tau_multiples() {
        let a = HarnessArgs::from_args(&[], 0.03).unwrap();
        let e = a.scaled_episodes(2_000, 50);
        assert_eq!(e % 50, 0);
        assert!(e >= 50);
    }

    #[test]
    fn extrapolation_factors() {
        let e = Extrapolation::new(1_000_000, 20_000, 2_000, 100, 50);
        assert!((e.updates - 1_000.0).abs() < 1e-9);
        // 40 rounds → 39 intermediate syncs vs 2 rounds → 1.
        assert!((e.rounds - 39.0).abs() < 1e-9);
        assert!((e.dataset - 50.0).abs() < 1e-9);
        let b = TimeBreakdown {
            pim_kernel_s: 1.0,
            cpu_pim_s: 1.5,
            pim_cpu_s: 1.0,
            inter_pim_s: 1.0,
            program_load_s: 0.5,
        };
        let x = e.apply(&b);
        assert_eq!(x.pim_kernel_s, 1_000.0);
        // Program load (0.5s) stays; the 1.0s data part scales by 50×.
        assert_eq!(x.cpu_pim_s, 0.5 + 50.0);
        assert_eq!(x.pim_cpu_s, 1.0);
        assert_eq!(x.inter_pim_s, 39.0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.0), "0");
        assert_eq!(fmt_secs(2.5e-6), "2.5µs");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(3.25), "3.25s");
        assert_eq!(fmt_ratio(8.16), "8.16×");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_table_rejected() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
