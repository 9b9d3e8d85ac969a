//! [`MetricsSnapshot`]: an aggregate view of one run's event stream,
//! with a versioned JSON rendering shared by every bench binary.
//!
//! The snapshot folds the typed stream into the numbers Figs. 5–7 are
//! argued from — cycle-class totals (the histogram over `CycleCounter`
//! classes), the per-launch load-imbalance distribution, transfer
//! byte/latency totals per kind, and the fault/resilience counters —
//! so experiments read one schema instead of re-deriving them ad hoc.

use crate::event::{CycleClassTotals, Event, TransferFaultKind, TransferKind};
use crate::json::Json;

/// Nearest-rank percentile of a sample set: the smallest sample such
/// that at least `q · n` samples are ≤ it (`q` in `(0, 1]`). Returns
/// 0.0 for an empty set. Deterministic: ties and NaN-free inputs sort
/// totally via `f64::total_cmp`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An exact-sample histogram: records every observation and answers
/// count/sum/min/mean/max plus nearest-rank p50/p95/p99.
///
/// The simulator's distributions are small (one sample per launch or
/// per job), so exact samples beat bucketed approximations: percentiles
/// are reproducible to the bit, which is what lets rendered metrics
/// artifacts be compared with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`; 0.0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.samples, q)
    }

    /// The median (nearest-rank p50).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// Nearest-rank p95.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// Nearest-rank p99.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Renders the summary statistics as a JSON object with fixed key
    /// order (`count`, `sum`, `min`, `mean`, `max`, `p50`, `p95`,
    /// `p99`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count())),
            ("sum", Json::Num(self.sum())),
            ("min", Json::Num(self.min())),
            ("mean", Json::Num(self.mean())),
            ("max", Json::Num(self.max())),
            ("p50", Json::Num(self.p50())),
            ("p95", Json::Num(self.p95())),
            ("p99", Json::Num(self.p99())),
        ])
    }
}

/// Count/bytes/seconds totals for one transfer kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferTotals {
    /// Number of transfers.
    pub count: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total simulated seconds.
    pub seconds: f64,
}

impl TransferTotals {
    fn add(&mut self, bytes: u64, seconds: f64) {
        self.count += 1;
        self.bytes += bytes;
        self.seconds += seconds;
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("bytes", Json::UInt(self.bytes)),
            ("seconds", Json::Num(self.seconds)),
        ])
    }
}

/// Aggregate metrics derived from one run's telemetry stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Caller-chosen run label (workload/environment description).
    pub label: String,
    /// Kernel launches observed (including retried subsets).
    pub launches: u64,
    /// Launches in which at least one DPU was aborted by the fault plan.
    pub faulted_launches: u64,
    /// Simulated seconds across all launches (sum of critical paths).
    pub kernel_seconds: f64,
    /// Cycle-class totals merged over every launch — the histogram over
    /// `CycleCounter` classes.
    pub classes: CycleClassTotals,
    /// Per-launch load imbalance (`max_cycles / mean_cycles`), in
    /// launch order. Empty if no launch had survivors.
    pub imbalance: Vec<f64>,
    /// Per-launch critical-path cycles (`max_cycles`), in launch order.
    pub launch_cycles: Vec<f64>,
    /// Program-load totals (bytes pushed × simulated load time).
    pub program_load: TransferTotals,
    /// Per-kind transfer totals, in `TransferKind` declaration order.
    pub transfers: Vec<(TransferKind, TransferTotals)>,
    /// Synchronization rounds completed.
    pub sync_rounds: u64,
    /// Host-side Q-table aggregations and their simulated seconds.
    pub aggregates: TransferTotals,
    /// Injected transfer faults that dropped the payload.
    pub faults_dropped: u64,
    /// Injected transfer faults that corrupted one byte.
    pub faults_corrupted: u64,
    /// Total DPU-abort events across faulted launches.
    pub faulted_dpu_events: u64,
    /// Resilience retries issued.
    pub retries: u64,
    /// Resilience rollbacks to a checkpoint.
    pub rollbacks: u64,
    /// DPUs dropped by graceful degradation.
    pub degraded_dpus: u64,
    /// Bank bytes materialized across the fleet when the run's last
    /// [`Event::MemoryCeilings`] was emitted.
    pub bank_bytes: u64,
    /// Peak bank bytes materialized at any point in the run (max over
    /// all `MemoryCeilings` events).
    pub bank_peak_bytes: u64,
    /// Segment-arena footprint (live + pooled) at the last ceiling.
    pub arena_bytes: u64,
    /// Peak segment-arena footprint (max over all ceilings).
    pub arena_peak_bytes: u64,
    /// Sanitizer findings attributed to launches.
    pub sanitizer_findings: u64,
}

impl MetricsSnapshot {
    /// Folds an event stream into a snapshot.
    pub fn from_events(label: impl Into<String>, events: &[Event]) -> Self {
        let mut snap = MetricsSnapshot {
            label: label.into(),
            ..MetricsSnapshot::default()
        };
        for event in events {
            match event {
                Event::ProgramLoad { bytes, seconds, .. } => {
                    snap.program_load.add(*bytes, *seconds);
                }
                Event::Transfer {
                    kind,
                    bytes,
                    seconds,
                    ..
                } => {
                    match snap.transfers.iter_mut().find(|(k, _)| k == kind) {
                        Some((_, totals)) => totals.add(*bytes, *seconds),
                        None => {
                            let mut totals = TransferTotals::default();
                            totals.add(*bytes, *seconds);
                            snap.transfers.push((*kind, totals));
                        }
                    }
                }
                Event::TransferFault { kind, .. } => match kind {
                    TransferFaultKind::Dropped => snap.faults_dropped += 1,
                    TransferFaultKind::Corrupted => snap.faults_corrupted += 1,
                },
                Event::KernelLaunch {
                    max_cycles,
                    mean_cycles,
                    seconds,
                    faulted_dpus,
                    classes,
                    sanitizer_findings,
                    ..
                } => {
                    snap.launches += 1;
                    snap.kernel_seconds += *seconds;
                    snap.classes.merge(classes);
                    snap.sanitizer_findings += *sanitizer_findings;
                    snap.launch_cycles.push(*max_cycles as f64);
                    if *mean_cycles > 0.0 {
                        snap.imbalance.push(*max_cycles as f64 / *mean_cycles);
                    }
                    if !faulted_dpus.is_empty() {
                        snap.faulted_launches += 1;
                        snap.faulted_dpu_events += faulted_dpus.len() as u64;
                    }
                }
                Event::SyncRound { .. } => snap.sync_rounds += 1,
                Event::HostAggregate { bytes, seconds, .. } => {
                    snap.aggregates.add(*bytes, *seconds);
                }
                Event::Retry { .. } => snap.retries += 1,
                Event::Rollback { .. } => snap.rollbacks += 1,
                Event::Degradation { dead_dpus, .. } => {
                    snap.degraded_dpus += dead_dpus.len() as u64;
                }
                Event::MemoryCeilings {
                    bank_bytes,
                    bank_peak_bytes,
                    arena_bytes,
                    arena_peak_bytes,
                } => {
                    snap.bank_bytes = *bank_bytes;
                    snap.arena_bytes = *arena_bytes;
                    snap.bank_peak_bytes = snap.bank_peak_bytes.max(*bank_peak_bytes);
                    snap.arena_peak_bytes = snap.arena_peak_bytes.max(*arena_peak_bytes);
                }
            }
        }
        snap
    }

    /// Renders the snapshot as a versioned JSON object (schema
    /// `swiftrl-metrics-v3`; v2 added the `memory` ceilings object, v3
    /// adds nearest-rank p50/p95/p99 to `imbalance` and the
    /// `launch_cycles` summary over per-launch critical paths).
    /// Key order is fixed; rendering is byte-deterministic.
    pub fn to_json(&self) -> Json {
        let (imb_min, imb_mean, imb_max) = distribution(&self.imbalance);
        let (lc_min, lc_mean, lc_max) = distribution(&self.launch_cycles);
        Json::obj([
            ("schema", Json::str("swiftrl-metrics-v3")),
            ("label", Json::str(self.label.clone())),
            ("launches", Json::UInt(self.launches)),
            ("faulted_launches", Json::UInt(self.faulted_launches)),
            ("kernel_seconds", Json::Num(self.kernel_seconds)),
            (
                "cycle_classes",
                Json::obj([
                    ("alu_slots", Json::UInt(self.classes.alu_slots)),
                    ("wram_slots", Json::UInt(self.classes.wram_slots)),
                    ("control_slots", Json::UInt(self.classes.control_slots)),
                    ("int_emul_slots", Json::UInt(self.classes.int_emul_slots)),
                    ("float_emul_slots", Json::UInt(self.classes.float_emul_slots)),
                    ("dma_cycles", Json::UInt(self.classes.dma_cycles)),
                    ("dma_bytes", Json::UInt(self.classes.dma_bytes)),
                ]),
            ),
            (
                "imbalance",
                Json::obj([
                    ("min", Json::Num(imb_min)),
                    ("mean", Json::Num(imb_mean)),
                    ("max", Json::Num(imb_max)),
                    ("p50", Json::Num(percentile(&self.imbalance, 0.50))),
                    ("p95", Json::Num(percentile(&self.imbalance, 0.95))),
                    ("p99", Json::Num(percentile(&self.imbalance, 0.99))),
                    (
                        "per_launch",
                        Json::Arr(self.imbalance.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ]),
            ),
            (
                "launch_cycles",
                Json::obj([
                    ("count", Json::UInt(self.launch_cycles.len() as u64)),
                    ("min", Json::Num(lc_min)),
                    ("mean", Json::Num(lc_mean)),
                    ("max", Json::Num(lc_max)),
                    ("p50", Json::Num(percentile(&self.launch_cycles, 0.50))),
                    ("p95", Json::Num(percentile(&self.launch_cycles, 0.95))),
                    ("p99", Json::Num(percentile(&self.launch_cycles, 0.99))),
                ]),
            ),
            ("program_load", self.program_load.to_json()),
            (
                "transfers",
                Json::Obj(
                    self.transfers
                        .iter()
                        .map(|(kind, totals)| (kind.name().to_string(), totals.to_json()))
                        .collect(),
                ),
            ),
            ("sync_rounds", Json::UInt(self.sync_rounds)),
            ("host_aggregate", self.aggregates.to_json()),
            (
                "faults",
                Json::obj([
                    ("transfer_dropped", Json::UInt(self.faults_dropped)),
                    ("transfer_corrupted", Json::UInt(self.faults_corrupted)),
                    ("dpu_aborts", Json::UInt(self.faulted_dpu_events)),
                    ("retries", Json::UInt(self.retries)),
                    ("rollbacks", Json::UInt(self.rollbacks)),
                    ("degraded_dpus", Json::UInt(self.degraded_dpus)),
                ]),
            ),
            (
                "memory",
                Json::obj([
                    ("bank_bytes", Json::UInt(self.bank_bytes)),
                    ("bank_peak_bytes", Json::UInt(self.bank_peak_bytes)),
                    ("arena_bytes", Json::UInt(self.arena_bytes)),
                    ("arena_peak_bytes", Json::UInt(self.arena_peak_bytes)),
                ]),
            ),
            ("sanitizer_findings", Json::UInt(self.sanitizer_findings)),
        ])
    }
}

/// `(min, mean, max)` of a sample set; all zeros when empty.
fn distribution(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in samples {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    (min, sum / samples.len() as f64, max)
}

/// Wraps per-run snapshots in the envelope used by multi-run artifacts
/// (`trace_run`, the `--trace` flag on figure binaries): schema
/// `swiftrl-metrics-bundle-v1` with a `runs` array.
pub fn snapshot_bundle(benchmark: &str, runs: &[MetricsSnapshot]) -> Json {
    Json::obj([
        ("schema", Json::str("swiftrl-metrics-bundle-v1")),
        ("benchmark", Json::str(benchmark)),
        (
            "runs",
            Json::Arr(runs.iter().map(MetricsSnapshot::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ProgramLoad {
                dpus: 2,
                bytes: 128,
                seconds: 0.25,
            },
            Event::Transfer {
                kind: TransferKind::Scatter,
                bytes: 1000,
                dpus: 2,
                seconds: 0.5,
            },
            Event::KernelLaunch {
                dpus: 2,
                max_cycles: 200,
                min_cycles: 100,
                mean_cycles: 150.0,
                seconds: 1.0,
                dpu_cycles: vec![(0, 200), (1, 100)],
                faulted_dpus: vec![],
                classes: CycleClassTotals {
                    alu_slots: 10,
                    ..CycleClassTotals::default()
                },
                sanitizer_findings: 0,
            },
            Event::KernelLaunch {
                dpus: 1,
                max_cycles: 300,
                min_cycles: 300,
                mean_cycles: 300.0,
                seconds: 1.5,
                dpu_cycles: vec![(1, 300)],
                faulted_dpus: vec![0],
                classes: CycleClassTotals::default(),
                sanitizer_findings: 2,
            },
            Event::TransferFault {
                kind: TransferFaultKind::Dropped,
                seq: 5,
                dpu: 1,
            },
            Event::SyncRound {
                round: 0,
                live_dpus: 2,
            },
            Event::HostAggregate {
                tables: 2,
                bytes: 256,
                seconds: 0.125,
            },
            Event::Retry {
                attempt: 1,
                dpus: vec![0],
            },
            Event::Rollback { to_round: 0 },
            Event::Degradation {
                dead_dpus: vec![0],
                survivors: 1,
            },
            Event::MemoryCeilings {
                bank_bytes: 4096,
                bank_peak_bytes: 8192,
                arena_bytes: 8192,
                arena_peak_bytes: 8192,
            },
        ]
    }

    #[test]
    fn snapshot_folds_the_stream() {
        let snap = MetricsSnapshot::from_events("test", &sample_events());
        assert_eq!(snap.launches, 2);
        assert_eq!(snap.faulted_launches, 1);
        assert_eq!(snap.kernel_seconds, 2.5);
        assert_eq!(snap.classes.alu_slots, 10);
        assert_eq!(snap.imbalance, vec![200.0 / 150.0, 1.0]);
        assert_eq!(snap.launch_cycles, vec![200.0, 300.0]);
        assert_eq!(snap.program_load.bytes, 128);
        assert_eq!(snap.transfers.len(), 1);
        assert_eq!(snap.transfers[0].0, TransferKind::Scatter);
        assert_eq!(snap.sync_rounds, 1);
        assert_eq!(snap.faults_dropped, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.rollbacks, 1);
        assert_eq!(snap.degraded_dpus, 1);
        assert_eq!(snap.bank_bytes, 4096);
        assert_eq!(snap.bank_peak_bytes, 8192);
        assert_eq!(snap.arena_peak_bytes, 8192);
        assert_eq!(snap.sanitizer_findings, 2);
    }

    #[test]
    fn json_rendering_is_deterministic_and_parses() {
        let snap = MetricsSnapshot::from_events("run A", &sample_events());
        let rendered = snap.to_json().render_pretty();
        assert_eq!(rendered, snap.to_json().render_pretty());
        let doc = crate::json::parse(&rendered).expect("self-parse");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("swiftrl-metrics-v3")
        );
        assert_eq!(doc.get("launches").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("imbalance")
                .and_then(|i| i.get("p99"))
                .and_then(Json::as_f64),
            Some(200.0 / 150.0)
        );
        assert_eq!(
            doc.get("launch_cycles")
                .and_then(|l| l.get("p50"))
                .and_then(Json::as_f64),
            Some(200.0)
        );
        assert_eq!(
            doc.get("launch_cycles")
                .and_then(|l| l.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            doc.get("memory")
                .and_then(|m| m.get("bank_peak_bytes"))
                .and_then(Json::as_u64),
            Some(8192)
        );
        let bundle = snapshot_bundle("trace_run", &[snap]);
        let parsed = crate::json::parse(&bundle.render_pretty()).expect("bundle parses");
        assert_eq!(
            parsed
                .get("runs")
                .and_then(Json::as_array)
                .map(|r| r.len()),
            Some(1)
        );
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computation() {
        // 1..=100: nearest-rank pQ of n=100 is exactly the Q-th value.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        // Small sets: p50 of [3,1] is the 1st sorted sample, p95/p99 the 2nd.
        assert_eq!(percentile(&[3.0, 1.0], 0.50), 1.0);
        assert_eq!(percentile(&[3.0, 1.0], 0.95), 3.0);
        assert_eq!(percentile(&[3.0, 1.0], 0.99), 3.0);
        // Singleton: every percentile is the sample.
        for q in [0.50, 0.95, 0.99] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
        // Empty: zeros, no panic.
        for q in [0.50, 0.95, 0.99] {
            assert_eq!(percentile(&[], q), 0.0);
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0.0);
        for v in [4.0, 2.0, 8.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 20.0);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 8.0);
        assert_eq!(h.mean(), 5.0);
        assert_eq!(h.p50(), 4.0);
        assert_eq!(h.p95(), 8.0);
        assert_eq!(h.p99(), 8.0);
        assert_eq!(h.samples(), &[4.0, 2.0, 8.0, 6.0]);
        let doc = crate::json::parse(&h.to_json().render()).expect("parse");
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("p50").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("sum").and_then(Json::as_f64), Some(20.0));
    }

    #[test]
    fn empty_stream_yields_zeroed_snapshot() {
        let snap = MetricsSnapshot::from_events("empty", &[]);
        assert_eq!(snap.launches, 0);
        assert!(snap.imbalance.is_empty());
        let doc = crate::json::parse(&snap.to_json().render()).expect("parse");
        assert_eq!(
            doc.get("imbalance")
                .and_then(|i| i.get("mean"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
