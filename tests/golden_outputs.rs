//! Golden pin of the simulated outputs.
//!
//! Every other parity suite compares one path against another (tier
//! against tier, engine against engine, the round pass against the
//! stepwise `DpuSet` calls). A change to code that every path shares —
//! the cost model, softfloat rounding, the transfer model, the dataset
//! RNG, partitioning, the host average — moves all paths together and
//! passes them all. This test compares each case against the checked-in
//! `tests/golden_outputs.txt` instead.
//!
//! Each case is one line: a label, then `key=value` fields. Most values
//! are FNV-1a-64 digests (of the dataset bytes, Q-table bytes,
//! `TimeBreakdown` bits, `SystemStats`, the last `LaunchStats`,
//! `MemoryStats`, `ResilienceStats` and the rendered deterministic event
//! stream); a few headline `f64`s are written as their bit patterns so a
//! diff shows which number moved.
//!
//! The file changes only through the ignored writer test:
//!
//! ```text
//! cargo test --test golden_outputs -- --ignored write_golden_outputs
//! ```
//!
//! A change that rewrites it changes test data and must say which
//! output moved and why.

use swiftrl::baselines::cpu_model::{CpuModel, CpuVersion};
use swiftrl::baselines::gpu_model::GpuModel;
use swiftrl::core::backend::{CpuModelBackend, GpuModelBackend, TrainingBackend};
use swiftrl::core::config::{Algorithm, DataType, RunConfig, WorkloadSpec};
use swiftrl::core::layout::Q_TABLE_OFFSET;
use swiftrl::core::multi_agent::train_multi_agent;
use swiftrl::core::resilience::ResilienceConfig;
use swiftrl::core::runner::PimRunner;
use swiftrl::core::service::{JobRequest, TrainingService};
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::taxi::Taxi;
use swiftrl::env::ExperienceDataset;
use swiftrl::pim::config::{EmulationCharging, ExecTier, PimConfig};
use swiftrl::pim::faults::{FaultPlan, MramRegion};
use swiftrl::pim::host::PimSystem;
use swiftrl::pim::sanitize::SanitizeLevel;
use swiftrl::pim::ExecutionEngine;
use swiftrl::rl::sampling::SamplingStrategy;
use swiftrl::telemetry::{chrome_trace, render_deterministic, ServiceTelemetry, Telemetry};
use swiftrl_bench::Extrapolation;

const GOLDEN: &str = include_str!("golden_outputs.txt");

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv(bytes))
}

fn bits(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

fn frozen(n: usize) -> ExperienceDataset {
    collect_random(&mut FrozenLake::slippery_4x4(), n, 11)
}

fn taxi(n: usize) -> ExperienceDataset {
    collect_random(&mut Taxi::new(), n, 11)
}

fn cfg(dpus: usize, episodes: u32, tau: u32) -> RunConfig {
    RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(tau)
}

/// One `PimRunner` case and the platform it runs on.
struct Case<'a> {
    spec: WorkloadSpec,
    cfg: RunConfig,
    data: &'a ExperienceDataset,
    tier: ExecTier,
    charging: EmulationCharging,
    engine: ExecutionEngine,
    faults: FaultPlan,
    sanitize: SanitizeLevel,
    resilience: ResilienceConfig,
}

impl<'a> Case<'a> {
    fn new(spec: WorkloadSpec, cfg: RunConfig, data: &'a ExperienceDataset) -> Self {
        Self {
            spec,
            cfg,
            data,
            tier: ExecTier::Batched,
            charging: EmulationCharging::Calibrated,
            engine: ExecutionEngine::Serial,
            faults: FaultPlan::none(),
            sanitize: SanitizeLevel::Off,
            resilience: ResilienceConfig::none(),
        }
    }

    /// The case's line: every deterministic observable of the run.
    fn line(&self, label: &str) -> String {
        let telemetry = Telemetry::enabled();
        let mut platform = PimConfig::builder()
            .dpus(self.cfg.dpus)
            .exec_tier(self.tier)
            .engine(self.engine)
            .faults(self.faults.clone())
            .sanitize(self.sanitize)
            .telemetry(telemetry.clone())
            .build();
        platform.cost.emulation_charging = self.charging;
        let runner = PimRunner::with_platform(self.spec, self.cfg, platform.clone())
            .unwrap()
            .with_resilience(self.resilience);
        let mut set = PimSystem::new(platform).alloc(self.cfg.dpus).unwrap();
        let out = runner
            .run_on(&mut set, self.data, None)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = out.breakdown;
        let breakdown = [b.pim_kernel_s, b.cpu_pim_s, b.pim_cpu_s, b.inter_pim_s, b.program_load_s];
        let events = telemetry.records();
        let mut fields = vec![
            ("data", hex(&self.data.encode_range_fp32(0..self.data.len()))),
            ("q", hex(&out.q_table.to_bytes())),
            ("breakdown", hex(&bits(&breakdown))),
            ("stats", hex(format!("{:?}", set.stats()).as_bytes())),
            ("launch", hex(format!("{:?}", set.last_launch()).as_bytes())),
            ("ledger", hex(format!("{:?}", set.ledger().records()).as_bytes())),
            ("memory", hex(format!("{:?}", out.memory).as_bytes())),
            ("resilience", hex(format!("{:?}", out.resilience).as_bytes())),
            ("events", hex(chrome_trace(&[(0, label, &events)]).as_bytes())),
            ("total_s", format!("{:016x}", b.total_seconds().to_bits())),
            ("kernel_s", format!("{:016x}", b.pim_kernel_s.to_bits())),
        ];
        if self.sanitize.enabled() {
            fields.push(("sanitizer", hex(format!("{:?}", out.sanitizer).as_bytes())));
        }
        render(label, &fields)
    }

    /// [`Self::line`] for a faulted case, checking first that the fault
    /// plan fired: the faultless twin differs in its Q-table or stats.
    fn faulted_line(&self, label: &str) -> String {
        let line = self.line(label);
        let clean = Case {
            faults: FaultPlan::none(),
            resilience: ResilienceConfig::none(),
            ..*self
        }
        .line(label);
        let field = |line: &str, key: &str| {
            line.split(' ')
                .find(|f| f.starts_with(&format!("{key}=")))
                .map(str::to_string)
        };
        assert!(
            ["q", "stats"].iter().any(|k| field(&line, k) != field(&clean, k)),
            "{label}: the fault plan never fired"
        );
        line
    }
}

fn render(label: &str, fields: &[(&str, String)]) -> String {
    let mut line = label.to_string();
    for (key, value) in fields {
        line.push_str(&format!(" {key}={value}"));
    }
    line
}

/// Every golden line, in file order.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let fl = frozen(600);
    let tx = taxi(600);

    // All 12 variants × FrozenLake/Taxi, Batched + Serial.
    for (env, data) in [("FrozenLake", &fl), ("Taxi", &tx)] {
        for spec in WorkloadSpec::paper_variants() {
            lines.push(Case::new(spec, cfg(4, 6, 2), data).line(&format!("{env}/{spec}")));
        }
    }

    let small = frozen(120);
    let int32 = WorkloadSpec::q_learning_seq_int32();
    let fp32 = WorkloadSpec::q_learning_seq_fp32();
    // Taxi's rewards make the FP32 updates round; FrozenLake's mostly
    // zero Q-values would leave the Reference tier's softfloat idle.
    let tx_small = taxi(200);
    lines.push(
        Case {
            tier: ExecTier::Reference,
            ..Case::new(WorkloadSpec::sarsa_seq_fp32(), cfg(2, 2, 1), &tx_small)
        }
        .line("reference/Taxi/SARSA-SEQ-FP32"),
    );
    lines.push(
        Case {
            engine: ExecutionEngine::Threaded { workers: 2 },
            ..Case::new(fp32, cfg(5, 6, 2), &fl)
        }
        .line("fp32/threaded2"),
    );

    // One case per fault kind.
    let retry = ResilienceConfig::none().with_max_retries(8);
    for spec in [int32, fp32] {
        lines.push(
            Case {
                faults: FaultPlan::seeded(7).with_dpu_fail_rate(0.3),
                resilience: retry,
                ..Case::new(spec, cfg(4, 8, 2), &fl)
            }
            .faulted_line(&format!("fault/retry/{spec}")),
        );
    }
    lines.push(
        Case {
            faults: FaultPlan::seeded(1).with_dead_dpus(vec![2], 2),
            resilience: ResilienceConfig::none()
                .with_max_retries(1)
                .with_degrade(true)
                .with_checkpoint_every(1),
            ..Case::new(int32, cfg(4, 8, 2), &fl)
        }
        .faulted_line("fault/degrade-rollback"),
    );
    let q_region = MramRegion {
        offset: Q_TABLE_OFFSET,
        len: fl.num_states() * fl.num_actions() * 4,
    };
    lines.push(
        Case {
            faults: FaultPlan::seeded(3).with_bitflips(0.5, q_region),
            ..Case::new(int32, cfg(4, 8, 2), &fl)
        }
        .faulted_line("fault/mram-bitflip"),
    );
    lines.push(
        Case {
            faults: FaultPlan::seeded(5).with_stragglers(0.5, 3.0),
            ..Case::new(fp32, cfg(4, 8, 2), &fl)
        }
        .faulted_line("fault/straggler"),
    );
    lines.push(
        Case {
            faults: FaultPlan::seeded(10).with_transfer_faults(0.2, 0.2),
            ..Case::new(int32, cfg(4, 8, 2).with_initial_q(0.5), &fl)
        }
        .faulted_line("fault/transfer-corrupt-drop"),
    );
    lines.push(
        Case {
            sanitize: SanitizeLevel::Full,
            ..Case::new(WorkloadSpec::sarsa_seq_int32(), cfg(3, 4, 2), &small)
        }
        .line("sanitizer/full"),
    );

    lines.push(multi_agent_line());
    lines.push(service_line());
    lines.extend(figure_lines());
    lines.extend(tally_lines(&tx));
    lines
}

fn multi_agent_line() -> String {
    let agents: Vec<ExperienceDataset> = (0..3)
        .map(|seed| collect_random(&mut FrozenLake::slippery_4x4(), 200, 20 + seed))
        .collect();
    let out = train_multi_agent(WorkloadSpec::q_learning_seq_int32(), &cfg(3, 4, 4), &agents)
        .expect("multi-agent run");
    let tables: Vec<u8> = out.q_tables.iter().flat_map(|q| q.to_bytes()).collect();
    let b = out.breakdown;
    render(
        "multi-agent",
        &[
            ("q", hex(&tables)),
            (
                "breakdown",
                hex(&bits(&[b.pim_kernel_s, b.cpu_pim_s, b.pim_cpu_s, b.inter_pim_s, b.program_load_s])),
            ),
        ],
    )
}

/// A 4-tenant service drain: its deterministic stream and each
/// tenant's Q-table, in submission order.
fn service_line() -> String {
    let fleet = PimConfig::builder().dpus(16).dpus_per_rank(4).build();
    let mut service = TrainingService::with_observability(fleet, 2, ServiceTelemetry::enabled());
    let requests = [
        JobRequest::new("a", WorkloadSpec::q_learning_seq_int32(), cfg(4, 4, 2), frozen(300)),
        JobRequest::new("b", WorkloadSpec::sarsa_seq_fp32(), cfg(2, 4, 2), taxi(300)),
        JobRequest::new("c", WorkloadSpec::q_learning_seq_fp32(), cfg(3, 4, 1), frozen(200))
            .with_faults(FaultPlan::seeded(4).with_dpu_fail_rate(0.3))
            .with_resilience(ResilienceConfig::none().with_max_retries(8)),
        JobRequest::new("d", WorkloadSpec::sarsa_seq_int32(), cfg(4, 4, 2), frozen(300))
            .with_faults(FaultPlan::seeded(2).with_dead_dpus(vec![1], 1))
            .with_resilience(ResilienceConfig::none().with_max_retries(1).with_degrade(true)),
    ];
    let handles: Vec<_> = requests
        .into_iter()
        .map(|r| service.submit(r).expect("admission"))
        .collect();
    let mut tables = Vec::new();
    for handle in &handles {
        let outcome = handle.wait();
        let run = outcome.completed().expect("job completes");
        tables.extend(run.q_table.to_bytes());
    }
    service.shutdown();
    let stream = render_deterministic(&service.service_telemetry().records());
    render("service/4-tenant", &[("stream", hex(stream.as_bytes())), ("q", hex(&tables))])
}

/// Small-scale Fig. 5/6 rows (extrapolated breakdowns) and the Fig. 7
/// model numbers.
fn figure_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (fig, data, paper_transitions) in [("fig5", frozen(400), 1_000_000), ("fig6", taxi(400), 5_000_000)] {
        let extra = Extrapolation::new(paper_transitions, data.len(), 2_000, 4, 2);
        for spec in [WorkloadSpec::q_learning_seq_int32(), WorkloadSpec::sarsa_seq_fp32()] {
            for dpus in [4, 8] {
                let report = PimRunner::new(spec, cfg(dpus, 4, 2))
                    .unwrap()
                    .train(&data)
                    .unwrap();
                let b = extra.apply(&report.breakdown);
                let row = [b.pim_kernel_s, b.cpu_pim_s, b.pim_cpu_s, b.inter_pim_s, b.total_seconds()];
                lines.push(render(
                    &format!("{fig}/{spec}/{dpus}"),
                    &[("row", hex(&bits(&row))), ("total_s", format!("{:016x}", row[4].to_bits()))],
                ));
            }
        }
    }
    let data = frozen(400);
    let spec = WorkloadSpec::q_learning_seq_fp32();
    let run = cfg(2_000, 2_000, 50);
    let updates = 1_000_000u64 * 2_000;
    let backends: [(&str, Box<dyn TrainingBackend>); 3] = [
        (
            "cpu-v1",
            Box::new(CpuModelBackend::new(CpuVersion::V1, CpuModel::xeon_4110(), spec, run).with_total_updates(updates)),
        ),
        (
            "cpu-v2",
            Box::new(CpuModelBackend::new(CpuVersion::V2, CpuModel::xeon_4110(), spec, run).with_total_updates(updates)),
        ),
        ("gpu", Box::new(GpuModelBackend::new(GpuModel::rtx_3090(), 2_000, 1_000_000))),
    ];
    for (name, backend) in backends {
        let report = backend.train(&data).unwrap();
        lines.push(render(
            &format!("fig7/{name}"),
            &[("total_s", format!("{:016x}", report.total_seconds().to_bits()))],
        ));
    }
    lines
}

/// Tally charging, which no case above runs: its per-op charges are
/// data-dependent, and `OpCosts::fp_call_overhead_slots` is read only
/// here. Each variant runs on the fused Batched tier and on the Fast
/// interpreter with 3 tasklets.
fn tally_lines(data: &ExperienceDataset) -> Vec<String> {
    let sarsa_ran_fp32 = WorkloadSpec {
        algorithm: Algorithm::Sarsa,
        sampling: SamplingStrategy::Random,
        dtype: DataType::Fp32,
    };
    let mut lines = Vec::new();
    for spec in [sarsa_ran_fp32, WorkloadSpec::q_learning_seq_int32()] {
        let tiers = [
            (ExecTier::Batched, "batched", 1),
            (ExecTier::Fast, "fast3", 3),
        ];
        for (tier, name, tasklets) in tiers {
            let case = Case {
                tier,
                charging: EmulationCharging::Tally,
                ..Case::new(spec, cfg(4, 6, 2).with_tasklets(tasklets), data)
            };
            lines.push(case.line(&format!("tally/{name}/Taxi/{spec}")));
        }
    }
    lines
}

#[test]
fn simulated_outputs_match_the_golden_file() {
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got = golden_lines();
    let mut moved = Vec::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).map(String::as_str));
        if w != g {
            moved.push(format!("line {}:\n  golden: {w:?}\n  now:    {g:?}", i + 1));
        }
    }
    assert!(
        moved.is_empty(),
        "{} golden line(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden_outputs.txt"]
fn write_golden_outputs() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_outputs.txt");
    let mut text = golden_lines().join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap();
}
