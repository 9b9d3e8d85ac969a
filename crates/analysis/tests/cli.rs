//! End-to-end tests of the `swiftrl-analysis` binary: exit codes, the
//! `--json` / `--sarif` documents (round-tripped through the shared
//! hand-rolled JSON parser), the repository's own clean run, and
//! `--explain` parity.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test harness: builds scratch trees under the temp directory"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use swiftrl_analysis::RULES;
use swiftrl_telemetry::json::{parse, Json};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swiftrl-analysis"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn swiftrl-analysis")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// Creates a throwaway workspace tree with the given lib source.
fn scratch_workspace(name: &str, lib_src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swiftrl-analysis-cli-{name}-{}", std::process::id()));
    let src_dir = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(src_dir.join("lib.rs"), lib_src).expect("lib.rs");
    dir
}

/// The enclosing workspace root of this crate.
fn repo_root() -> PathBuf {
    swiftrl_analysis::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root")
}

#[test]
fn clean_tree_exits_zero() {
    let dir = scratch_workspace("clean", "pub fn ok(v: u32) -> u32 { v + 1 }\n");
    let out = run(&["--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn findings_exit_one_and_name_the_rule() {
    let dir = scratch_workspace(
        "dirty",
        r#"
        impl Kernel for K {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                let x = 0.5f32;
                Ok(())
            }
        }
        "#,
    );
    let out = run(&["--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("K001"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(code(&run(&["--frobnicate"])), 2);
    assert_eq!(code(&run(&["--explain"])), 2);
    assert_eq!(code(&run(&["--explain", "K999"])), 2);
    assert_eq!(code(&run(&["--root"])), 2);
    assert_eq!(code(&run(&["--sarif"])), 2);
    assert_eq!(code(&run(&["--root", "/nonexistent/definitely-not-here"])), 2);
}

#[test]
fn explain_covers_every_rule() {
    for rule in RULES {
        let out = run(&["--explain", rule.id]);
        assert_eq!(code(&out), 0, "--explain {}", rule.id);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(rule.id), "{text}");
        assert!(text.contains("example:"), "--explain {} lacks an example", rule.id);
        assert!(text.contains("fix:"), "--explain {} lacks a fix hint", rule.id);
    }
    // Case-insensitive lookup.
    assert_eq!(code(&run(&["--explain", "k001"])), 0);
}

#[test]
fn list_names_exactly_the_kernel_rules() {
    let out = run(&["--list"]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = text.lines().filter_map(|l| l.split_whitespace().next()).collect();
    let want: Vec<String> = (1..=11).map(|n| format!("K{n:03}")).collect();
    assert_eq!(ids, want, "{text}");
    assert_eq!(RULES.len(), want.len());
}

#[test]
fn json_document_round_trips_through_shared_parser() {
    let dir = scratch_workspace(
        "json",
        r#"
        fn kernel_helper(ctx: &mut DpuContext<'_>) -> f32 { 1.5 }
        "#,
    );
    let out = run(&["--root", dir.to_str().expect("utf8 path"), "--json"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON on stdout");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("swiftrl-findings-v2")
    );
    assert!(doc.get("baselined").is_none());
    assert_eq!(doc.get("files_scanned").and_then(Json::as_u64), Some(1));
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings array");
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(f.get("rule").and_then(Json::as_str), Some("K001"));
        assert_eq!(
            f.get("file").and_then(Json::as_str),
            Some("crates/demo/src/lib.rs")
        );
        assert!(f.get("line").and_then(Json::as_u64).is_some());
        assert!(f.get("message").and_then(Json::as_str).is_some());
    }
}

#[test]
fn sarif_document_round_trips_through_shared_parser() {
    let dir = scratch_workspace(
        "sarif",
        r#"
        fn kernel_helper(ctx: &mut DpuContext<'_>) -> f64 { 0.25 }
        "#,
    );
    let sarif_path = dir.join("out.sarif");
    let out = run(&[
        "--root",
        dir.to_str().expect("utf8 path"),
        "--sarif",
        sarif_path.to_str().expect("utf8 path"),
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
    let text = std::fs::read_to_string(&sarif_path).expect("SARIF file written");
    let doc = parse(&text).expect("valid SARIF JSON");
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
    let driver = runs[0].get("tool").and_then(|t| t.get("driver")).expect("driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("swiftrl-analysis")
    );
    let rules = driver.get("rules").and_then(Json::as_array).expect("rules");
    assert_eq!(rules.len(), RULES.len());
    let results = runs[0].get("results").and_then(Json::as_array).expect("results");
    assert!(!results.is_empty());
    for r in results {
        assert_eq!(r.get("level").and_then(Json::as_str), Some("error"));
    }
    let loc = &results[0].get("locations").and_then(Json::as_array).expect("locations")[0];
    let uri = loc
        .get("physicalLocation")
        .and_then(|p| p.get("artifactLocation"))
        .and_then(|a| a.get("uri"))
        .and_then(Json::as_str);
    assert_eq!(uri, Some("crates/demo/src/lib.rs"));
}

#[test]
fn repository_is_clean() {
    // The analyzer is self-clean on the real repository; the root-level
    // `tests/analysis_clean.rs` suite enforces the same invariant.
    let root = repo_root();
    let out = run(&["--root", root.to_str().expect("utf8 path"), "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("findings").and_then(Json::as_array).map(|a| a.len()),
        Some(0)
    );
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains(" files scanned, 0 finding(s)"), "{summary}");
}
