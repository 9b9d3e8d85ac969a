//! One training run on one simulated DPU, on the `Serial` engine and in a
//! single launch (τ equal to the episode count): the smallest run that
//! executes the SwiftRL kernel. Two such runs that differ only in the
//! episode count differ by `100 × Δepisodes` updates, which is how
//! `tools/insn_count` measures the host instructions of one update.
//!
//! ```text
//! cargo run --release --example single_dpu_run -- <variant> <env> <tier> <episodes>
//! cargo run --release --example single_dpu_run -- SARSA-RAN-FP32 frozen_lake fast 6
//! ```
//!
//! `<variant>` is a paper variant name (`Q-learner-SEQ-INT32`, ...),
//! `<env>` is `taxi` or `frozen_lake`, and `<tier>` is `reference`,
//! `fast` or `batched`. The dataset is 100 transitions of the
//! uniform-random policy.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::runner::PimRunner;
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::taxi::Taxi;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::ExecutionEngine;

#[expect(
    clippy::disallowed_methods,
    reason = "an example is a binary: it parses its own command line"
)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [variant, env, tier, episodes] = &args[..] else {
        return Err("usage: single_dpu_run <variant> <env> <tier> <episodes>".into());
    };
    let spec = WorkloadSpec::paper_variants()
        .into_iter()
        .find(|s| s.name() == *variant)
        .ok_or_else(|| format!("unknown variant {variant}"))?;
    let dataset = match env.as_str() {
        "taxi" => collect_random(&mut Taxi::new(), 100, 1),
        "frozen_lake" => collect_random(&mut FrozenLake::slippery_4x4(), 100, 1),
        _ => return Err(format!("unknown env {env}").into()),
    };
    let tier = match tier.as_str() {
        "reference" => ExecTier::Reference,
        "fast" => ExecTier::Fast,
        "batched" => ExecTier::Batched,
        _ => return Err(format!("unknown tier {tier}").into()),
    };
    let episodes: u32 = episodes.parse()?;
    let cfg = RunConfig::paper_defaults()
        .with_dpus(1)
        .with_episodes(episodes)
        .with_tau(episodes);
    let mut platform = PimConfig::builder().dpus(1).exec_tier(tier).build();
    platform.engine = ExecutionEngine::Serial;
    let outcome = PimRunner::with_platform(spec, cfg, platform)?.run(&dataset)?;
    println!("{spec} on {env}, {tier:?} tier, {episodes} episode(s): {}", outcome.breakdown);
    Ok(())
}
