#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::disallowed_types, reason = "host tooling; its output is not a simulated observable")]

//! `swiftrl-analysis` — a rustc-tidy-style static analyzer for the SwiftRL
//! workspace, enforcing the *charged-intrinsics contract* that the whole
//! cycle-accounting argument of the paper rests on.
//!
//! The analyzer is dependency-free beyond the workspace's own zero-dep
//! `swiftrl-telemetry` JSON layer (DESIGN.md §5): it lexes Rust source with
//! a hand-rolled [`scanner`], recovers items and call sites with a
//! lightweight [`parse`] pass, builds a workspace [`callgraph`], and applies
//! [`rules`] over the set of functions transitively reachable from kernel
//! entry points. It is not a full Rust parser — resolution is deliberately
//! conservative, and the `tests/analysis_clean.rs` integration test keeps
//! the approximation free of false positives on this codebase.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p swiftrl-analysis                    # lint the workspace
//! cargo run -p swiftrl-analysis -- --explain K001  # rule docs + example
//! cargo run -p swiftrl-analysis -- --json findings.json --sarif out.sarif
//! ```
//!
//! Rules: **K001** no host floats in kernel-reachable code, **K002** no
//! nondeterminism/free work, **K003** every `DpuContext` intrinsic charges
//! a cost (and every `OpCosts` field has a consumer), **K004** layout
//! constants are 8-byte aligned, **K005** no host threading, **K006** no
//! fault-plan access, **K007** no direct `softfloat`/`emul`/`fastpath`
//! calls, **K008** no telemetry emission (K005–K008 all over the
//! kernel-reachable set), **K009/K010** declared WRAM/MRAM regions fit
//! their capacities and never overlap, **K011** no batched-tier access
//! (`batch::`, `BatchContext`, `run_batched`) from kernel-reachable code —
//! the fused sweep is host-side and kernels may only advertise it via
//! `Kernel::batch`. Every finding is an error. The host-side hygiene rules
//! (no hashed containers, ambient time or environment reads in library
//! code; no `unwrap`/`expect` outside tests) are clippy's job, configured
//! in the workspace `clippy.toml` and on each library crate root.

pub mod budget;
pub mod callgraph;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scanner;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use parse::{SourceFile, Workspace};

pub use report::{findings_json, sarif_json};
pub use rules::{check_charge_coverage, check_file, rule_info, Finding, RuleInfo, RULES};

/// Result of analyzing a workspace tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

/// Directories never descended into when collecting sources.
const SKIP_DIRS: &[&str] = &["target", ".git", "related"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over all `.rs` files under `root` (the workspace root).
///
/// The sources are parsed into a single [`Workspace`] so that kernel rules
/// see the cross-file call graph and budget rules see workspace-global
/// constants; K003 runs when `crates/pim/src/{kernel,config}.rs` are both
/// present.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let src = fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        sources.push(SourceFile { rel, src });
    }
    let ws = Workspace::build(&sources);
    Ok(Analysis {
        files_scanned: sources.len(),
        findings: rules::check_workspace(&ws),
    })
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`. Used by the CLI to locate the repo root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_walks_upward() {
        // The analysis crate lives two levels below the workspace root.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/analysis").is_dir());
    }

    #[test]
    fn workspace_scan_covers_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let analysis = analyze_workspace(&root).expect("scan");
        assert!(analysis.files_scanned > 10);
    }
}
