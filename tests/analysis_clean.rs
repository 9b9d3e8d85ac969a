//! The kernel-discipline analyzer must be self-clean: zero findings on the
//! workspace's own sources — the same gate `cargo run -p swiftrl-analysis`
//! enforces from the command line — plus fixture pins for the rule
//! families, a pin on the host-hygiene policy that clippy enforces, and a
//! fuzz harness for the lexer.

use std::path::{Path, PathBuf};

use swiftrl::env::rng::{for_each_case, Rng, SplitMix64};
use swiftrl_analysis::parse::{SourceFile, Workspace};
use swiftrl_analysis::{analyze_workspace, callgraph, check_file, find_workspace_root, scanner};

fn repo_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml")
}

fn rules_of(file: &str, src: &str) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = check_file(Path::new(file), src)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    r.dedup();
    r
}

#[test]
fn workspace_has_no_new_kernel_discipline_findings() {
    let analysis = analyze_workspace(&repo_root()).expect("workspace scan");
    assert!(
        analysis.files_scanned > 50,
        "suspiciously small scan: {} files",
        analysis.files_scanned
    );
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        analysis.findings.is_empty(),
        "kernel-discipline violations:\n{}",
        rendered.join("\n")
    );
}

/// The body of a top-level `key = [ ... ]` array in a TOML file.
fn toml_array<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .lines()
        .position(|l| l.trim_start().starts_with(key) && l.contains('='))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let from: usize = text.lines().take(start).map(|l| l.len() + 1).sum();
    let rest = &text[from..];
    let end = rest.find("\n]").unwrap_or_else(|| panic!("`{key}` list is not closed"));
    &rest[..end]
}

/// The host-hygiene rules live in clippy, which tier-1 does not run, so
/// this pins the policy itself: the root `clippy.toml` disallows hashed
/// containers, ambient time and the `std::env` reads, and every library
/// crate root warns on `unwrap`/`expect`. Deleting any of it fails here.
#[test]
fn clippy_policy_carries_the_host_hygiene_rules() {
    let root = repo_root();
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    let types = toml_array(&config, "disallowed-types");
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(types.contains(&format!("\"{ty}\"")), "disallowed-types lacks {ty}");
    }
    let methods = toml_array(&config, "disallowed-methods");
    for f in [
        "var", "var_os", "vars", "vars_os", "args", "args_os", "current_dir", "current_exe",
        "temp_dir", "home_dir",
    ] {
        assert!(
            methods.contains(&format!("\"std::env::{f}\"")),
            "disallowed-methods lacks std::env::{f}"
        );
    }

    let mut libs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(|e| e.ok().map(|e| e.path().join("src/lib.rs")))
        .filter(|p| p.is_file())
        .collect();
    libs.sort();
    assert!(libs.len() >= 8, "expected every library crate, found {libs:?}");
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("read lib.rs");
        let warned: Vec<&str> = src
            .match_indices("#![warn(")
            .filter_map(|(at, _)| src[at..].find(")]").map(|end| &src[at..at + end]))
            .collect();
        for lint in ["clippy::unwrap_used", "clippy::expect_used"] {
            assert!(
                warned.iter().any(|attr| attr.contains(lint)),
                "{} does not warn on {lint}",
                lib.display()
            );
        }
    }
}

/// K008 fixture: a kernel that emits telemetry is flagged; the identical
/// emission on the host side of the same file is not. Pins the rule the
/// workspace-clean gate above relies on to keep the event stream a
/// host-side-only observer.
#[test]
fn k008_fixture_flags_kernel_side_telemetry() {
    let src = r#"
        impl Kernel for Instrumented {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                self.sink.emit(|| Event::SyncRound { round: 0, live_dpus: 1 });
                Ok(())
            }
        }
        fn host_side(telemetry: &Telemetry) {
            telemetry.emit(|| Event::SyncRound { round: 0, live_dpus: 1 });
        }
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
    let k008: Vec<_> = findings.iter().filter(|f| f.rule == "K008").collect();
    assert_eq!(k008.len(), 1, "exactly the kernel-side emit: {findings:?}");
    assert!(k008[0].message.contains("emit"), "{k008:?}");
    assert_eq!(k008[0].line, 4, "{k008:?}");
}

/// The acceptance pin for the call-graph tentpole: a host float hidden in
/// a helper the kernel reaches through a plain call — no `DpuContext`
/// parameter, outside the impl block, invisible to the old region
/// heuristic — is flagged with a call-chain witness.
#[test]
fn transitive_violation_is_caught_through_a_helper() {
    let src = r#"
        impl Kernel for Sneaky {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                let bits = decay_bits(3);
                Ok(())
            }
        }
        fn decay_bits(round: u32) -> u32 {
            (0.99f32).to_bits() >> round
        }
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
    let k001: Vec<_> = findings.iter().filter(|f| f.rule == "K001").collect();
    assert_eq!(k001.len(), 1, "{findings:?}");
    assert!(
        k001[0]
            .message
            .contains("kernel-reachable via Sneaky::run → decay_bits"),
        "finding lacks its witness chain: {k001:?}"
    );
}

/// The shared kernel body is kernel code: the interpreter's machine
/// (`Interp`, which holds the `DpuContext`) and the generic functions the
/// launch reaches through turbofish calls are scanned, so a heap
/// allocation in `update` and a host float in `Interp::fetch` are flagged,
/// while the batched tier's `Sweep`, which holds no context, is not.
#[test]
fn generic_kernel_body_and_context_holder_are_scanned() {
    let src = r#"
        impl Kernel for SwiftRlKernel {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                self.interpret_rule::<arith::Reference, Fp32, false>(ctx, hdr)
            }
        }
        impl SwiftRlKernel {
            fn interpret_rule<A: Arith, D: Dtype, const SARSA: bool>(
                &self,
                ctx: &mut DpuContext<'_>,
                hdr: KernelHeader,
            ) -> Result<(), Stop> {
                tasklet::<_, D, SARSA>(&mut m, &hdr)
            }
        }
        fn tasklet<M: Machine, D: Dtype, const SARSA: bool>(m: &mut M, hdr: &KernelHeader) {
            update::<M, D, SARSA>(m, hdr, &rec);
        }
        fn update<M: Machine, D: Dtype, const SARSA: bool>(m: &mut M, hdr: &KernelHeader) {
            let scratch: Vec<u32> = Vec::new();
        }
        struct Interp<'c, 'a, A> { ctx: &'c mut DpuContext<'a>, mode: PhantomData<A> }
        impl<A: Arith> Machine for Interp<'_, '_, A> {
            fn fetch(&mut self, i: usize) -> Result<Record, Stop> {
                let r = self.ctx.wram_read_u32(i)? as f32;
            }
        }
        struct Sweep<'s> { q: &'s mut [[u8; 4]] }
        impl Machine for Sweep<'_> {
            fn fetch(&mut self, i: usize) -> Result<Record, Infallible> {
                let r = f32::from_bits(self.q[i]);
            }
        }
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
    let lines = |rule: &str| -> Vec<u32> {
        findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
    };
    assert_eq!(lines("K002"), [20, 20], "`Vec` twice in `update`: {findings:?}");
    assert_eq!(lines("K001"), [25], "the host float in `Interp::fetch` only: {findings:?}");
    assert!(
        findings[0]
            .message
            .contains("via SwiftRlKernel::interpret_rule → tasklet → update"),
        "{findings:?}"
    );
}

/// The data-type arithmetic the shared body calls through its type
/// parameter (`D::mul(..)` with `D: Dtype`) is kernel code: a host float
/// in `Int32::mul` is flagged with the chain through `update`, while the
/// batched tier's `Em`, which `Int32::mul` reaches only through a value
/// of its `O: Ops` parameter, is not scanned.
#[test]
fn dtype_implementations_are_scanned() {
    let src = r#"
        impl Kernel for SwiftRlKernel {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                tasklet::<_, Int32, false>(&mut m, hdr)
            }
        }
        fn tasklet<M: Machine, D: Dtype, const SARSA: bool>(m: &mut M, hdr: KernelHeader) {
            update::<M, D, SARSA>(m, &hdr);
        }
        fn update<M: Machine, D: Dtype, const SARSA: bool>(m: &mut M, hdr: &KernelHeader) {
            let discounted = D::mul(m.ops(), hdr.gamma, q_next);
        }
        impl Dtype for Int32 {
            fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 {
                let wide = o.mul_wide(a as i32, b as i32);
                (wide as f32 * 0.5) as u32
            }
        }
        struct Em { tally: u64 }
        impl Ops for Em {
            fn mul_wide(&mut self, a: i32, b: i32) -> i64 {
                (a as f32 * b as f32) as i64
            }
        }
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
    let k001: Vec<_> = findings.iter().filter(|f| f.rule == "K001").collect();
    let lines: Vec<u32> = k001.iter().map(|f| f.line).collect();
    assert_eq!(lines, [16, 16], "the `f32` and the `0.5` in `Int32::mul` only: {findings:?}");
    assert!(
        k001[0]
            .message
            .contains("via SwiftRlKernel::run → tasklet → update → Int32::mul"),
        "{k001:?}"
    );
}

/// The workspace's own kernel body is in the kernel-reachable set, so the
/// clean gate above covers the per-update path.
#[test]
fn swiftrl_kernel_body_is_kernel_reachable() {
    let root = repo_root();
    let sources: Vec<SourceFile> = ["crates/core/src/kernels.rs", "crates/core/src/layout.rs"]
        .iter()
        .map(|rel| SourceFile {
            rel: PathBuf::from(rel),
            src: std::fs::read_to_string(root.join(rel)).expect("kernel source"),
        })
        .collect();
    let ws = Workspace::build(&sources);
    let graph = callgraph::build(&ws);
    let reached: Vec<String> = graph
        .reachable
        .values()
        .map(|r| r.chain.last().expect("non-empty chain").clone())
        .collect();
    for f in [
        "tasklet",
        "update",
        "epsilon_greedy",
        "Interp::fetch",
        "Interp::fold_row",
        "Interp::walk_seq",
        "Interp::update_entry",
        "Interp::fadd",
        "Interp::lcg_below",
        "Fp32::add",
        "Fp32::stored",
        "Int32::mul",
        "Int32::max",
        "Int32::gt",
    ] {
        assert!(reached.iter().any(|r| r == f), "{f} is not kernel-reachable: {reached:?}");
    }
    for f in ["Sweep::fetch", "Em::fadd", "Em::mul_wide", "Em::fstored"] {
        assert!(!reached.iter().any(|r| r == f), "{f} is kernel-reachable");
    }
}

/// K011 fixture: a kernel reaching into the batched tier is flagged; the
/// advertising `Kernel::batch` method and host-side batch code are not.
/// Pins the seam the three-tier contract (DESIGN.md §14) rests on: the
/// fused sweep runs host-side from `Dpu::execute`, never from kernel code.
#[test]
fn k011_fixture_flags_kernel_side_batch_access() {
    let src = r#"
        impl Kernel for Fused {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                self.run_batched(ctx);
                Ok(())
            }
            fn batch(&self) -> Option<&dyn BatchKernel> { Some(self) }
        }
        fn host_side(b: &mut BatchContext<'_>) -> u32 {
            batch::granule_plan(8)
        }
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
    let k011: Vec<_> = findings.iter().filter(|f| f.rule == "K011").collect();
    assert_eq!(k011.len(), 1, "exactly the kernel-side call: {findings:?}");
    assert!(k011[0].message.contains("run_batched"), "{k011:?}");
    assert_eq!(k011[0].line, 4, "{k011:?}");
}

/// K009: WRAM region constants beyond capacity or overlapping (violating
/// and clean variants).
#[test]
fn k009_fixture() {
    let bad = r#"
        pub const WRAM_Q_OFFSET: usize = 0;
        pub const WRAM_Q_BYTES: usize = 60 * 1024;
        pub const WRAM_BATCH_OFFSET: usize = 32 * 1024;
        pub const WRAM_BATCH_BYTES: usize = 64 * 1024;
    "#;
    let findings = check_file(Path::new("crates/core/src/kernels.rs"), bad);
    let k009: Vec<_> = findings.iter().filter(|f| f.rule == "K009").collect();
    // BATCH exceeds the 64-KB capacity and overlaps Q.
    assert_eq!(k009.len(), 2, "{findings:?}");
    assert!(k009.iter().any(|f| f.message.contains("exceeds")), "{k009:?}");
    assert!(k009.iter().any(|f| f.message.contains("overlap")), "{k009:?}");

    let clean = r#"
        pub const WRAM_Q_OFFSET: usize = 0;
        pub const WRAM_Q_BYTES: usize = 12_000;
        pub const WRAM_BATCH_OFFSET: usize = WRAM_Q_OFFSET + WRAM_Q_BYTES;
        pub const WRAM_BATCH_BYTES: usize = 8192;
    "#;
    assert!(rules_of("crates/core/src/kernels.rs", clean).is_empty());
}

/// K010: MRAM region constants overlapping (violating and clean variants).
#[test]
fn k010_fixture() {
    let bad = r#"
        pub const MRAM_HEADER_OFFSET: usize = 0;
        pub const MRAM_HEADER_BYTES: usize = 64;
        pub const MRAM_Q_TABLE_OFFSET: usize = 32;
        pub const MRAM_Q_TABLE_BYTES: usize = 12_000;
    "#;
    let findings = check_file(Path::new("crates/core/src/layout.rs"), bad);
    let k010: Vec<_> = findings.iter().filter(|f| f.rule == "K010").collect();
    assert_eq!(k010.len(), 1, "{findings:?}");
    assert!(k010[0].message.contains("overlap"), "{k010:?}");

    let clean = r#"
        pub const MRAM_HEADER_OFFSET: usize = 0;
        pub const MRAM_HEADER_BYTES: usize = 64;
        pub const MRAM_Q_TABLE_OFFSET: usize = MRAM_HEADER_BYTES;
        pub const MRAM_Q_TABLE_BYTES: usize = 12_000;
    "#;
    assert!(rules_of("crates/core/src/layout.rs", clean).is_empty());
}

/// Cases per property.
const CASES: u64 = 256;

/// A string of up to `max` chars, none of them a newline (what the regex
/// `.{0,max}` matches): half printable ASCII, where the lexer's string,
/// comment and raw-string delimiters live, half any Unicode scalar.
fn any_line(rng: &mut SplitMix64, max: u64) -> String {
    let len = rng.next_u64() % (max + 1);
    let mut line = String::new();
    while (line.chars().count() as u64) < len {
        let code = if rng.next_u32() < 1 << 31 {
            0x20 + rng.next_u32() % 0x5F
        } else {
            rng.next_u32() % 0x11_0000
        };
        line.extend(char::from_u32(code).filter(|&c| c != '\n'));
    }
    line
}

/// The lexer never panics, whatever bytes arrive.
#[test]
fn tokenize_never_panics_on_arbitrary_strings() {
    for_each_case(CASES, |rng, _| {
        let _ = scanner::tokenize(&any_line(rng, 400));
    });
}

/// ... including invalid-UTF-8-derived byte soup with lots of string /
/// comment / raw-string delimiters.
#[test]
fn tokenize_never_panics_on_byte_soup() {
    for_each_case(CASES, |rng, _| {
        let len = rng.next_u64() % 400;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let _ = scanner::tokenize(&String::from_utf8_lossy(&bytes));
    });
}

/// Token line numbers are monotonically non-decreasing and 1-based.
#[test]
fn token_lines_are_monotonic() {
    for_each_case(CASES, |rng, at| {
        let src = any_line(rng, 400);
        let tokens = scanner::tokenize(&src);
        let mut last = 1u32;
        for t in &tokens {
            assert!(
                t.line >= last,
                "{at}: line went backwards: {} < {last}",
                t.line
            );
            last = t.line;
        }
    });
}

/// check_file terminates without panicking on arbitrary input (the
/// parser and call-graph layers inherit the lexer's robustness).
#[test]
fn check_file_never_panics() {
    for_each_case(CASES, |rng, _| {
        let _ = check_file(Path::new("crates/core/src/fuzz.rs"), &any_line(rng, 200));
    });
}
