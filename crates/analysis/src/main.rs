//! CLI for the SwiftRL kernel-discipline analyzer.
//!
//! ```text
//! cargo run -p swiftrl-analysis                 # lint the workspace
//! cargo run -p swiftrl-analysis -- --list       # list all rules
//! cargo run -p swiftrl-analysis -- --explain K003
//! cargo run -p swiftrl-analysis -- --fix-hints  # findings with fix suggestions
//! cargo run -p swiftrl-analysis -- --root PATH  # lint a different tree
//! cargo run -p swiftrl-analysis -- --json [PATH] --sarif PATH
//! ```
//!
//! Exit codes: **0** clean, **1** findings, **2** usage or I/O error.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "CLI entry point: reads its arguments and working directory"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use swiftrl_analysis::{
    analyze_workspace, find_workspace_root, findings_json, rule_info, sarif_json, RULES,
};

fn usage() -> &'static str {
    "usage: swiftrl-analysis [--root PATH] [--fix-hints] [--list] [--explain RULE]\n\
     \x20                       [--json [PATH]] [--sarif PATH]"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut fix_hints = false;
    let mut json_out: Option<Option<PathBuf>> = None; // None=off, Some(None)=stdout
    let mut sarif_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("--explain needs a rule ID (e.g. K001)\n{}", usage());
                    return ExitCode::from(2);
                };
                let Some(info) = rule_info(&id) else {
                    eprintln!("unknown rule `{id}`; known rules:");
                    for r in RULES {
                        eprintln!("  {} — {}", r.id, r.title);
                    }
                    return ExitCode::from(2);
                };
                println!(
                    "{} — {}\nscope: {}\n\n{}\n\nexample:\n{}\n\nfix: {}",
                    info.id,
                    info.title,
                    info.scope,
                    info.explain,
                    info.example,
                    info.fix_hint
                );
                return ExitCode::SUCCESS;
            }
            "--list" => {
                for r in RULES {
                    println!("{} — {}", r.id, r.title);
                }
                return ExitCode::SUCCESS;
            }
            "--fix-hints" => fix_hints = true,
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("--root needs a path\n{}", usage());
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(p));
            }
            "--json" => {
                // Optional path operand: `--json out.json` writes a file,
                // bare `--json` prints the document to stdout.
                let path = args
                    .peek()
                    .filter(|a| !a.starts_with("--"))
                    .map(PathBuf::from);
                if path.is_some() {
                    args.next();
                }
                json_out = Some(path);
            }
            "--sarif" => {
                let Some(p) = args.next() else {
                    eprintln!("--sarif needs a path\n{}", usage());
                    return ExitCode::from(2);
                };
                sarif_out = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot determine current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above {}; pass --root", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &sarif_out {
        let doc = sarif_json(&analysis.findings);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("cannot write SARIF {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(dest) = &json_out {
        let doc = findings_json(analysis.files_scanned, &analysis.findings);
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(path, doc.render_pretty()) {
                    eprintln!("cannot write JSON {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            None => println!("{}", doc.render_pretty()),
        }
    }

    // Human-readable findings go to stdout unless it is carrying the JSON
    // document.
    if !matches!(json_out, Some(None)) {
        for f in &analysis.findings {
            println!("{f}");
            if fix_hints {
                if let Some(info) = rule_info(f.rule) {
                    println!("    hint: {}", info.fix_hint);
                }
            }
        }
    }
    eprintln!(
        "swiftrl-analysis: {} files scanned, {} finding(s)",
        analysis.files_scanned,
        analysis.findings.len()
    );
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
