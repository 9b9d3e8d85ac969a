//! The lint rule registry and rule implementations.
//!
//! Every rule has a stable kernel-discipline ID (`K0xx`), a one-paragraph
//! explanation and a worked example available via `--explain`, and a fix
//! hint available via `--fix-hints`; every finding is an error. Rules
//! operate on the token streams and item index produced by
//! [`crate::scanner`] / [`crate::parse`]; literal contents are opaque, so
//! violations quoted inside strings (e.g. in this file's own tests) never
//! trip the analyzer.
//!
//! Kernel rules (K001/K002/K005–K008/K011) are enforced over the set of
//! functions *transitively reachable* from kernel entry points
//! ([`crate::callgraph`]), not over syntactic regions: a helper three calls
//! away from `SwiftRlKernel::run` is held to the same discipline as the
//! kernel body itself, and each finding carries a call-chain witness.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::budget;
use crate::callgraph;
use crate::parse::{opens_call, SourceFile, Workspace};
use crate::scanner::{matching_brace, matching_delim, tokenize, Token, TokenKind};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule ID (`K001`..`K011`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// Static metadata for one rule, surfaced by `--explain` / `--fix-hints`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule ID.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Multi-line explanation of what the rule enforces and why.
    pub explain: &'static str,
    /// A short worked example of a violation (and what is clean).
    pub example: &'static str,
    /// Short suggestion for fixing a violation.
    pub fix_hint: &'static str,
}

/// All registered rules, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "K001",
        title: "no host floats in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Code reachable from a kernel entry point (any method of an \
`impl Kernel for ...` block, or any function taking a `DpuContext` \
parameter, plus everything they transitively call) must not use host \
`f32`/`f64` types or float literals. The DPU has no FPU: every float op \
must be an emulated, *charged* intrinsic (`DpuContext::fadd`, `fmul`, ...) \
operating on the `swiftrl_pim::kernel::F32` bit-pattern newtype. Host-float \
leaks silently skip the soft-float cycle charges that SwiftRL's \
FP32-vs-INT32 comparison (ISPASS'24 Fig. 7) is built on, making reported \
cycle counts too fast.",
        example: "violation (caught through the call graph, with a witness):\n\
    impl Kernel for K {\n\
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {\n\
            let x = helper(1); // K::run -> helper\n\
            Ok(())\n\
        }\n\
    }\n\
    fn helper(v: u32) -> u32 { (v as f32) as u32 } // <- K001\n\
clean: route through `ctx.i32_to_f32(...)` / `F32` bits.",
        fix_hint: "wrap the bits in `F32` and route arithmetic through \
`DpuContext::{fadd,fsub,fmul,fdiv,fgt,fmax,i32_to_f32,f32_to_i32}`",
    },
    RuleInfo {
        id: "K002",
        title: "no nondeterminism or free work in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must be deterministic and fully \
charged. Heap allocation (`vec!`, `Vec`, `Box`, `String`, `to_vec`, \
`to_bytes`, ...), host I/O (`println!`, `dbg!`), wall-clock time \
(`std::time`, `Instant`), and `rand::` are all host-runtime services a real \
DPU tasklet does not have; using them either costs zero charged cycles \
(free work) or makes runs non-reproducible. Use fixed-size stack buffers, \
the charged `lcg_next` intrinsic for randomness, and `DpuContext` DMA for \
data movement. (`format!` on fault paths is exempt: faults abort cycle \
accounting anyway. Host threading has its own rule, K005.)",
        example: "violation:\n\
    fn kernel_helper(ctx: &mut DpuContext<'_>) {\n\
        let buf = vec![0u8; 64];          // <- K002 heap allocation\n\
        let t = std::time::Instant::now(); // <- K002 wall-clock\n\
    }\n\
clean: a fixed `[u8; 64]` buffer and the charged `ctx.lcg_next()`.",
        fix_hint: "replace heap buffers with fixed-size arrays, encode into \
caller-provided `&mut [u8]`, and delete host I/O from kernel bodies",
    },
    RuleInfo {
        id: "K003",
        title: "every DpuContext intrinsic charges a cost",
        scope: "crates/pim/src/kernel.rs + config.rs",
        explain: "Every public `&mut self` method on `DpuContext` is an \
intrinsic kernels can call, so it must charge at least one `OpClass` — \
directly (`charge_alu`, `charge_dma`, ...) or by delegating to a charged \
intrinsic. Additionally every field of `pim::config::OpCosts` must be \
referenced by some intrinsic, so a calibrated cost can never silently go \
unused. Adding an intrinsic without a charge (or a cost without a consumer) \
is exactly the bug class that would quietly corrupt the paper's cycle model.",
        example: "violation:\n\
    impl<'a> DpuContext<'a> {\n\
        pub fn sneaky(&mut self, a: u32) -> u32 { a ^ 1 } // <- K003, no charge\n\
    }\n\
clean: `pub fn double(&mut self, a: u32) -> u32 { self.add32(a, a) }` \
(delegates to a charged intrinsic).",
        fix_hint: "add the appropriate `self.charge_*(...)` call to the new \
intrinsic, or wire the new `OpCosts` field into the intrinsic that consumes it",
    },
    RuleInfo {
        id: "K004",
        title: "MRAM layout constants are 8-byte aligned",
        scope: "constants named *_OFFSET / *_BYTES, workspace-wide",
        explain: "The UPMEM DMA engine moves MRAM<->WRAM data in 8-byte \
granules, and the simulator (like the hardware) rejects misaligned \
transfers. Any constant named `*_OFFSET` or `*_BYTES` that describes MRAM \
layout must therefore be a multiple of 8. The rule evaluates simple constant \
expressions (literals, references to other constants, `+`, `-`, `*`, `<<`) \
and flags any resolvable value not divisible by 8.",
        example: "violation:\n\
    pub const HEADER_BYTES: usize = 64;\n\
    pub const BAD_OFFSET: usize = HEADER_BYTES + 4; // <- K004, 68 % 8 != 0\n\
clean: `pub const Q_TABLE_OFFSET: usize = HEADER_BYTES;`",
        fix_hint: "round the offset/record size up to the next multiple of 8 \
and pad the on-MRAM layout accordingly",
    },
    RuleInfo {
        id: "K005",
        title: "no host threading in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must not use host threading \
primitives — `std::thread`, `spawn`, `crossbeam`, `rayon`. Host-level \
parallelism belongs to the execution engine \
(`pim::engine::ExecutionEngine`), which already fans DPU execution out over \
worker threads and guarantees bit-identical results via its ordered merge. \
A kernel that spawns its own OS threads does work the cycle model never \
charges, races the engine's disjoint-chunk ownership of DPU state, and \
destroys the Serial/Threaded determinism contract. Intra-DPU parallelism \
must instead go through the charged tasklet model.",
        example: "violation:\n\
    impl Kernel for K {\n\
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {\n\
            std::thread::spawn(|| {}); // <- K005\n\
            Ok(())\n\
        }\n\
    }\n\
clean: `PimConfig::builder().engine(ExecutionEngine::Threaded { workers })`.",
        fix_hint: "delete the threading; parallelism across DPUs comes from \
`PimConfig::engine`, parallelism within a DPU from tasklets",
    },
    RuleInfo {
        id: "K006",
        title: "no fault-plan access in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must not read or mention the \
fault-injection plan (`FaultPlan`, the `faults` field of `PimConfig`). \
Fault injection is a *platform* behaviour: the simulated DPU aborts, \
straggles, or corrupts memory from the outside, exactly as real hardware \
fails underneath an oblivious kernel. A kernel that branches on the fault \
plan simulates a program that knows when it will crash — its cycle \
accounting and its Serial/Threaded determinism contract both stop meaning \
anything, and the resilience layer's retry-replay argument (a faulted \
launch left MRAM untouched) silently breaks.",
        example: "violation:\n\
    fn kernel_helper(ctx: &mut DpuContext<'_>, cfg: &PimConfig) -> bool {\n\
        cfg.faults.kernel_fault(0, 0) // <- K006, kernel peeking at its fate\n\
    }\n\
clean: kernels never see `PimConfig`; faults arrive from the platform.",
        fix_hint: "delete the fault-plan access; inject faults only through \
`PimConfig::faults`, and keep kernels oblivious to them",
    },
    RuleInfo {
        id: "K007",
        title: "no direct arithmetic-library calls in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must not call the arithmetic \
libraries (`softfloat`, `emul`, `fastpath`) directly: those modules compute \
values without charging DPU cycles, so a direct call does work the cycle \
model never sees. Worse, it bypasses the two-tier dispatch — the \
`DpuContext` intrinsics are the only place where the configured `ExecTier` \
selects between the instrumented reference implementation and the fast \
host-native one, and both tiers are proven bit- and cycle-identical only \
through that dispatch. A kernel calling `softfloat::f32_add` directly pins \
one tier, charges nothing, and silently breaks the parity contract.",
        example: "violation:\n\
    fn kernel_helper(ctx: &mut DpuContext<'_>, a: u32, b: u32) -> u32 {\n\
        softfloat::f32_add(a, b, &mut OpTally::new()) // <- K007\n\
    }\n\
clean: `ctx.fadd(F32(a), F32(b))` — charged and tier-dispatched.",
        fix_hint: "go through the charged `DpuContext` intrinsics (`fadd`, \
`fmul`, `mul32`, `lcg_next`, ...); they charge cycles and dispatch to the \
configured arithmetic tier",
    },
    RuleInfo {
        id: "K008",
        title: "no telemetry emission in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must not touch the telemetry layer \
(the `telemetry` module, the `Telemetry` sink, or its `emit` method). \
Telemetry is a *host-side* observer: events are recorded after \
`DpuSet::launch_on` has merged per-DPU results in DPU-index order, which is \
what makes the event stream byte-identical between the Serial and Threaded \
engines. A kernel that emits events would observe execution from inside a \
worker thread — ordering would depend on the engine's scheduling, breaking \
the determinism contract — and the sink's mutex and event allocation would \
do host work the cycle model never charges.",
        example: "violation:\n\
    impl Kernel for K {\n\
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {\n\
            self.sink.emit(|| Event::SyncRound { .. }); // <- K008\n\
            Ok(())\n\
        }\n\
    }\n\
clean: the host `DpuSet` emits launch/transfer/sync events after the merge.",
        fix_hint: "delete the telemetry call; instrument at the host layer \
instead — `DpuSet` and the runner already emit transfer, launch, and sync \
events for every kernel execution",
    },
    RuleInfo {
        id: "K009",
        title: "declared WRAM regions fit and do not overlap",
        scope: "WRAM_<X>_OFFSET / WRAM_<X>_BYTES constant pairs, per file",
        explain: "A file that declares its WRAM layout as constant pairs \
`WRAM_<X>_OFFSET` / `WRAM_<X>_BYTES` gets a static proof that the regions \
are pairwise non-overlapping and fit the per-DPU WRAM capacity \
(`pim::config::WRAM_CAPACITY_BYTES`, 64 KB on UPMEM). The constants are \
evaluated with the same evaluator as K004 (which separately enforces their \
8-byte alignment); unresolvable expressions are skipped, never guessed. \
This turns the kernel's WRAM budget — Q-table slab plus per-tasklet batch \
windows — from a comment into a checked invariant.",
        example: "violation:\n\
    pub const WRAM_Q_OFFSET: usize = 0;\n\
    pub const WRAM_Q_BYTES: usize = 1024;\n\
    pub const WRAM_BATCH_OFFSET: usize = 512; // <- K009, overlaps Q\n\
    pub const WRAM_BATCH_BYTES: usize = 256;\n\
clean: `WRAM_BATCH_OFFSET = WRAM_Q_BYTES` (regions tile the 64 KB).",
        fix_hint: "re-tile the WRAM map so regions are disjoint and the last \
region ends at or below WRAM_CAPACITY_BYTES",
    },
    RuleInfo {
        id: "K010",
        title: "declared MRAM regions fit and do not overlap",
        scope: "MRAM_<X>_OFFSET / MRAM_<X>_BYTES constant pairs, per file",
        explain: "The MRAM counterpart of K009: constant pairs \
`MRAM_<X>_OFFSET` / `MRAM_<X>_BYTES` (header, Q-table slab, transition \
store) are proven pairwise non-overlapping and within the per-bank MRAM \
capacity (`pim::config::MRAM_BANK_CAPACITY_BYTES`, 64 MB on UPMEM). The \
kernel header's replay protocol relies on the header region never being \
clobbered by the Q-table or transition writes; this rule pins that layout \
statically instead of trusting the runtime bounds checks alone.",
        example: "violation:\n\
    pub const MRAM_HEADER_OFFSET: usize = 0;\n\
    pub const MRAM_HEADER_BYTES: usize = 64;\n\
    pub const MRAM_Q_TABLE_OFFSET: usize = 32; // <- K010, inside the header\n\
    pub const MRAM_Q_TABLE_BYTES: usize = 12_000;\n\
clean: `MRAM_Q_TABLE_OFFSET = MRAM_HEADER_BYTES`.",
        fix_hint: "re-tile the MRAM bank layout so regions are disjoint and \
end at or below MRAM_BANK_CAPACITY_BYTES",
    },
    RuleInfo {
        id: "K011",
        title: "no batched-tier access in kernel-reachable code",
        scope: "functions reachable from kernel entry points",
        explain: "Kernel-reachable code must not reach into the batched \
execution tier (`pim::batch`, `BatchContext`, `run_batched`). The batched \
tier is a *host-side* fusion of the per-transition update loop: the host \
proves preflight eligibility, runs the fused sweep, and charges a \
closed-form aggregate cycle tally. A per-transition kernel that calls into \
the batch layer would nest host-aggregate charging inside per-intrinsic \
charging — double-counting cycles — and would let the interpreted path \
observe host buffers the real DPU never sees. The only legal seam is \
`Kernel::batch()` *advertising* a `BatchKernel` implementation for the \
platform to invoke; the fused sweep itself runs from `Dpu::execute`, never \
from kernel code.",
        example: "violation:\n\
    impl Kernel for Fused {\n\
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {\n\
            let plan = batch::plan(ctx);     // <- K011\n\
            self.run_batched(&mut bctx);     // <- K011\n\
            Ok(())\n\
        }\n\
    }\n\
clean: `fn batch(&self) -> Option<&dyn BatchKernel> { Some(self) }` — \
advertising eligibility only; the platform invokes the fused sweep.",
        fix_hint: "keep the fused sweep host-side: implement `BatchKernel` \
in a separate impl block and advertise it via `Kernel::batch`; the \
per-transition `run` path must stay pure charged-intrinsic code",
    },
];

/// Looks up rule metadata by ID (case-insensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(id.trim()))
}

// ---------------------------------------------------------------------------
// Kernel-reachable token discipline (K001, K002, K005–K008, K011)
// ---------------------------------------------------------------------------

const K002_ALLOC: &[&str] = &[
    "vec", "Vec", "Box", "String", "to_vec", "to_string", "to_owned", "to_bytes", "HashMap",
    "BTreeMap", "VecDeque",
];
const K002_IO: &[&str] = &["println", "print", "eprintln", "eprint", "dbg", "write", "writeln"];
const K002_NONDET: &[&str] = &["rand", "Instant", "SystemTime", "sleep"];
const K005_THREADING: &[&str] = &["thread", "spawn", "crossbeam", "rayon"];
const K006_FAULTS: &[&str] = &["FaultPlan", "faults"];
const K007_ARITH: &[&str] = &["softfloat", "emul", "fastpath"];
const K008_TELEMETRY: &[&str] = &["telemetry", "Telemetry", "emit"];
// `BatchKernel` is deliberately absent: `Kernel::batch` must *name* the
// trait in its `Option<&dyn BatchKernel>` signature to advertise the fused
// path, and that advertisement is the one legal seam. The bare ident
// `batch` is gated on a following `::` so the advertising method's own
// name never trips the rule.
const K011_BATCH: &[&str] = &["BatchContext", "run_batched"];

/// Scans one kernel-reachable function (signature + body tokens) and emits
/// K001/K002/K005–K008/K011 findings, each suffixed with the call-chain
/// witness when the function is not itself an entry point.
fn scan_kernel_fn(
    file: &Path,
    tokens: &[Token<'_>],
    range: (usize, usize),
    witness: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let (start, end) = range;
    let suffix = witness.map_or(String::new(), |w| format!(" [kernel-reachable via {w}]"));
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding {
            file: file.to_path_buf(),
            line,
            rule,
            message: format!("{message}{suffix}"),
        });
    };
    for k in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[k];
        match t.kind {
            TokenKind::FloatLit => push(
                t.line,
                "K001",
                format!(
                    "host float literal `{}` in kernel code; use `F32` bits and \
                     charged `DpuContext` intrinsics",
                    t.text
                ),
            ),
            TokenKind::Ident if t.text == "f32" || t.text == "f64" => push(
                t.line,
                "K001",
                format!(
                    "host `{}` type in kernel code; the DPU has no FPU — use \
                     `F32` and the soft-float intrinsics",
                    t.text
                ),
            ),
            TokenKind::Ident if K005_THREADING.contains(&t.text) => push(
                t.line,
                "K005",
                format!(
                    "`{}` in kernel body (host threading); parallelism \
                     belongs to the execution engine and the tasklet model",
                    t.text
                ),
            ),
            TokenKind::Ident if K006_FAULTS.contains(&t.text) => push(
                t.line,
                "K006",
                format!(
                    "`{}` in kernel body (fault-plan access); faults are \
                     a platform behaviour and kernels must stay oblivious \
                     to them",
                    t.text
                ),
            ),
            TokenKind::Ident if K007_ARITH.contains(&t.text) => push(
                t.line,
                "K007",
                format!(
                    "`{}` in kernel body (uncharged arithmetic-library \
                     call); go through the charged `DpuContext` \
                     intrinsics, which also dispatch the configured \
                     arithmetic tier",
                    t.text
                ),
            ),
            TokenKind::Ident if K008_TELEMETRY.contains(&t.text) => push(
                t.line,
                "K008",
                format!(
                    "`{}` in kernel body (telemetry emission); the \
                     event stream is a host-side observer recorded \
                     after the engine's ordered merge — kernels must \
                     not emit into it",
                    t.text
                ),
            ),
            TokenKind::Ident if K011_BATCH.contains(&t.text) => push(
                t.line,
                "K011",
                format!(
                    "`{}` in kernel body (batched-tier access); the fused \
                     sweep is host-side — kernels may only advertise a \
                     `BatchKernel` impl via `Kernel::batch`",
                    t.text
                ),
            ),
            TokenKind::Ident
                if t.text == "batch"
                    && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(k + 2).is_some_and(|n| n.is_punct(':')) =>
            {
                push(
                    t.line,
                    "K011",
                    "`batch::` path in kernel body (batched-tier access); \
                     the fused sweep is host-side — kernels may only \
                     advertise a `BatchKernel` impl via `Kernel::batch`"
                        .to_string(),
                )
            }
            TokenKind::Ident => {
                let reason = if K002_ALLOC.contains(&t.text) {
                    Some("heap allocation")
                } else if K002_IO.contains(&t.text) {
                    // `write`/`writeln` only matter as macros; a plain
                    // method call `x.write(...)` is fine, so gate the io
                    // set on a following `!`.
                    if tokens.get(k + 1).is_some_and(|n| n.is_punct('!')) {
                        Some("host I/O")
                    } else {
                        None
                    }
                } else if K002_NONDET.contains(&t.text) {
                    Some("nondeterministic host service")
                } else if t.text == "time"
                    && k >= 3
                    && tokens[k - 1].is_punct(':')
                    && tokens[k - 2].is_punct(':')
                    && tokens[k - 3].is_ident("std")
                {
                    Some("wall-clock time")
                } else {
                    None
                };
                if let Some(reason) = reason {
                    push(
                        t.line,
                        "K002",
                        format!(
                            "`{}` in kernel body ({reason}); kernels must be \
                             deterministic and fully cycle-charged",
                            t.text
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// K003: charge coverage of DpuContext intrinsics and OpCosts fields
// ---------------------------------------------------------------------------

struct Method<'s> {
    name: &'s str,
    line: u32,
    is_pub: bool,
    takes_mut_self: bool,
    body: (usize, usize),
}

/// Extracts methods from every inherent `impl ... DpuContext ...` block
/// (trait impls — headers containing `for` — are exempt).
fn dpu_context_methods<'s>(tokens: &'s [Token<'s>]) -> Vec<Method<'s>> {
    let mut methods = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let (mut saw_ctx, mut saw_for) = (false, false);
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            saw_ctx |= tokens[j].is_ident("DpuContext");
            saw_for |= tokens[j].is_ident("for");
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('{') || !saw_ctx || saw_for {
            i = j + 1;
            continue;
        }
        let block_end = matching_brace(tokens, j);
        let mut k = j + 1;
        let mut last_item_boundary = j; // `{`, `}`, or `;` before the item
        while k < block_end {
            if tokens[k].is_punct('{') {
                // A nested block that is not a method body we recognized —
                // skip it wholesale (e.g. const items with blocks).
                k = matching_brace(tokens, k) + 1;
                last_item_boundary = k.saturating_sub(1);
                continue;
            }
            if tokens[k].is_punct(';') {
                last_item_boundary = k;
                k += 1;
                continue;
            }
            if tokens[k].is_ident("fn") {
                let is_pub = tokens[last_item_boundary..k]
                    .iter()
                    .any(|t| t.is_ident("pub"));
                let name_idx = k + 1;
                let name = match tokens.get(name_idx) {
                    Some(t) if t.kind == TokenKind::Ident => t.text,
                    _ => {
                        k += 1;
                        continue;
                    }
                };
                let line = tokens[name_idx].line;
                let mut p = name_idx + 1;
                while p < block_end && !tokens[p].is_punct('(') {
                    p += 1;
                }
                let params_end = matching_delim(tokens, p, '(', ')');
                let takes_mut_self = {
                    let ps = &tokens[p + 1..params_end.min(tokens.len())];
                    ps.first().is_some_and(|t| t.is_punct('&'))
                        && ps.iter().take(4).any(|t| t.is_ident("mut"))
                        && ps.iter().take(4).any(|t| t.is_ident("self"))
                };
                let mut b = params_end + 1;
                while b < block_end && !tokens[b].is_punct('{') && !tokens[b].is_punct(';') {
                    b += 1;
                }
                if b < block_end && tokens[b].is_punct('{') {
                    let body_end = matching_brace(tokens, b);
                    methods.push(Method {
                        name,
                        line,
                        is_pub,
                        takes_mut_self,
                        body: (b, body_end),
                    });
                    k = body_end + 1;
                    last_item_boundary = body_end;
                    continue;
                }
                k = b + 1;
                last_item_boundary = b;
                continue;
            }
            k += 1;
        }
        i = block_end + 1;
    }
    methods
}

/// Token-stream core of the K003 check (see [`check_charge_coverage`]).
fn charge_coverage_tokens(
    kernel_file: &Path,
    tokens: &[Token<'_>],
    config_file: &Path,
    cfg_tokens: &[Token<'_>],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let methods = dpu_context_methods(tokens);

    // Direct charges: any identifier starting with `charge` in the body.
    let mut charged: BTreeSet<&str> = methods
        .iter()
        .filter(|m| {
            tokens[m.body.0..=m.body.1.min(tokens.len() - 1)]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text.starts_with("charge"))
        })
        .map(|m| m.name)
        .collect();

    // Transitive: a method that calls `self.<charged>(...)` (or
    // `self.<charged>::<..>(...)`) is charged too.
    loop {
        let mut grew = false;
        for m in &methods {
            if charged.contains(m.name) {
                continue;
            }
            let (open, close) = (m.body.0, m.body.1.min(tokens.len() - 1));
            let delegates = (open..close.saturating_sub(2)).any(|k| {
                tokens[k].is_ident("self")
                    && tokens[k + 1].is_punct('.')
                    && tokens[k + 2].kind == TokenKind::Ident
                    && charged.contains(tokens[k + 2].text)
                    && opens_call(tokens, k + 3, close)
            });
            if delegates {
                charged.insert(m.name);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for m in &methods {
        if m.is_pub && m.takes_mut_self && !charged.contains(m.name) {
            findings.push(Finding {
                file: kernel_file.to_path_buf(),
                line: m.line,
                rule: "K003",
                message: format!(
                    "intrinsic `DpuContext::{}` never charges an OpClass; every \
                     public `&mut self` intrinsic must cost cycles",
                    m.name
                ),
            });
        }
    }

    // OpCosts fields must all be consumed by kernel.rs.
    let mut fields: Vec<(&str, u32)> = Vec::new();
    let mut i = 0usize;
    while i + 1 < cfg_tokens.len() {
        if cfg_tokens[i].is_ident("struct") && cfg_tokens[i + 1].is_ident("OpCosts") {
            let mut j = i + 2;
            while j < cfg_tokens.len() && !cfg_tokens[j].is_punct('{') {
                j += 1;
            }
            let end = matching_brace(cfg_tokens, j);
            let mut k = j + 1;
            while k + 1 < end {
                if cfg_tokens[k].kind == TokenKind::Ident
                    && cfg_tokens[k + 1].is_punct(':')
                    && !cfg_tokens[k].is_ident("pub")
                {
                    fields.push((cfg_tokens[k].text, cfg_tokens[k].line));
                    // Skip the field's type up to the comma at depth 0.
                    let mut depth = 0i32;
                    while k < end {
                        if cfg_tokens[k].is_punct('<') || cfg_tokens[k].is_punct('(') {
                            depth += 1;
                        } else if cfg_tokens[k].is_punct('>') || cfg_tokens[k].is_punct(')') {
                            depth -= 1;
                        } else if cfg_tokens[k].is_punct(',') && depth <= 0 {
                            break;
                        }
                        k += 1;
                    }
                }
                k += 1;
            }
            break;
        }
        i += 1;
    }
    for (field, line) in fields {
        let used = tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == field);
        if !used {
            findings.push(Finding {
                file: config_file.to_path_buf(),
                line,
                rule: "K003",
                message: format!(
                    "`OpCosts::{field}` is never referenced by any DpuContext \
                     intrinsic; a calibrated cost must have a consumer"
                ),
            });
        }
    }
    findings
}

/// Checks that every public `&mut self` intrinsic on `DpuContext` charges an
/// `OpClass`, and that every `OpCosts` field is consumed by some intrinsic.
pub fn check_charge_coverage(
    kernel_file: &Path,
    kernel_src: &str,
    config_file: &Path,
    config_src: &str,
) -> Vec<Finding> {
    let tokens = tokenize(kernel_src);
    let cfg_tokens = tokenize(config_src);
    charge_coverage_tokens(kernel_file, &tokens, config_file, &cfg_tokens)
}

// ---------------------------------------------------------------------------
// Workspace entry point
// ---------------------------------------------------------------------------

/// Runs every rule over a parsed workspace: kernel rules on the
/// call-graph-reachable set, budget rules with workspace-global constants,
/// and K003 when the pim kernel / config pair is present. Findings are
/// sorted by (file, line, rule).
pub fn check_workspace(ws: &Workspace<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Kernel discipline over the reachable set.
    let graph = callgraph::build(ws);
    for (&(fi, ni), reached) in &graph.reachable {
        let file = &ws.files[fi];
        let f = &file.fns[ni];
        let end = f.body.map_or(f.sig.1, |(_, e)| e);
        let witness = (reached.chain.len() > 1).then(|| reached.witness());
        scan_kernel_fn(
            file.rel,
            &file.tokens,
            (f.sig.0, end),
            witness.as_deref(),
            &mut findings,
        );
    }

    // Workspace-global constant values (for cross-file capacity lookups).
    // A name defined with conflicting values in different files is dropped.
    let mut globals: HashMap<String, u64> = HashMap::new();
    let mut conflicted: BTreeSet<String> = BTreeSet::new();
    for file in &ws.files {
        for (name, value) in budget::resolvable_consts(&file.tokens) {
            match globals.get(&name) {
                Some(&v) if v != value => {
                    conflicted.insert(name);
                }
                _ => {
                    globals.insert(name, value);
                }
            }
        }
    }
    for name in &conflicted {
        globals.remove(name);
    }

    for file in &ws.files {
        budget::check_alignment(file.rel, &file.tokens, &globals, &mut findings);
        budget::check_budget(file.rel, &file.tokens, &globals, &mut findings);
    }

    // K003 on the pim kernel/config pair when both are in the workspace.
    let find = |suffix: &str| {
        ws.files
            .iter()
            .find(|f| f.rel.ends_with(suffix))
    };
    if let (Some(kernel), Some(config)) =
        (find("crates/pim/src/kernel.rs"), find("crates/pim/src/config.rs"))
    {
        findings.extend(charge_coverage_tokens(
            kernel.rel,
            &kernel.tokens,
            config.rel,
            &config.tokens,
        ));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Runs the workspace rules over a single file: kernel reachability is
/// computed within the file, and capacity constants fall back to the UPMEM
/// defaults. (K003 needs the kernel/config pair and does not run here.)
pub fn check_file(file: &Path, src: &str) -> Vec<Finding> {
    let sources = [SourceFile { rel: file.to_path_buf(), src: src.to_string() }];
    let ws = Workspace::build(&sources);
    check_workspace(&ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(file: &str, src: &str) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = check_file(Path::new(file), src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        r.dedup();
        r
    }

    #[test]
    fn k001_flags_host_float_kernel() {
        let src = r#"
            impl Kernel for Bad {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let x = 0.5f32;
                    let y = 2.0 * x as f64;
                    Ok(())
                }
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k001: Vec<_> = findings.iter().filter(|f| f.rule == "K001").collect();
        assert_eq!(k001.len(), 3, "{findings:?}"); // 0.5f32, 2.0, f64
        assert_eq!(k001[0].line, 4);
    }

    #[test]
    fn k001_flags_fn_taking_context_outside_impl() {
        let src = r#"
            fn helper(ctx: &mut DpuContext<'_>, v: u32) -> u32 {
                (v as f32) as u32
            }
        "#;
        assert_eq!(rules_hit("crates/core/src/kernels.rs", src), ["K001"]);
    }

    #[test]
    fn k001_flags_transitive_helper_with_witness() {
        // The old region heuristic missed this: `helper` takes no
        // DpuContext and sits outside the impl block, but the kernel
        // reaches it through a plain call.
        let src = r#"
            impl Kernel for Sneaky {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let v = helper(1);
                    Ok(())
                }
            }
            fn helper(v: u32) -> u32 {
                (v as f32) as u32
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k001: Vec<_> = findings.iter().filter(|f| f.rule == "K001").collect();
        assert_eq!(k001.len(), 1, "{findings:?}");
        assert!(
            k001[0].message.contains("kernel-reachable via Sneaky::run → helper"),
            "{k001:?}"
        );
    }

    #[test]
    fn k001_ignores_host_code_and_strings() {
        let src = r##"
            fn host_side(x: f32) -> f32 { x * 0.5 }
            const MSG: &str = "kernel uses 0.5f32 internally";
            impl Kernel for Good {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let s = r#"fake 1.5f32 in a raw string"#;
                    let _ = ctx.fadd(F32::ZERO, F32::ONE);
                    Ok(())
                }
            }
        "##;
        assert!(rules_hit("crates/core/src/kernels.rs", src).is_empty());
    }

    #[test]
    fn k002_flags_heap_io_and_nondeterminism() {
        let src = r#"
            impl Kernel for Sloppy {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let buf = vec![0u8; 64];
                    let t = std::time::Instant::now();
                    println!("free work");
                    Ok(())
                }
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k002: Vec<_> = findings.iter().filter(|f| f.rule == "K002").collect();
        assert!(k002.len() >= 3, "{findings:?}");
    }

    #[test]
    fn k002_exempts_format_on_fault_paths() {
        let src = r#"
            impl Kernel for Faulting {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    Err(KernelError::Fault(format!("bad header {}", 1)))
                }
            }
        "#;
        assert!(rules_hit("crates/core/src/kernels.rs", src).is_empty());
    }

    #[test]
    fn k005_flags_host_threading_in_kernels_only() {
        let src = r#"
            impl Kernel for Bad {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    std::thread::spawn(|| {});
                    crossbeam::scope(|s| {});
                    Ok(())
                }
            }
            fn host_engine(n: usize) {
                crossbeam::scope(|s| { s.spawn(|_| {}); });
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k005: Vec<_> = findings.iter().filter(|f| f.rule == "K005").collect();
        // thread, spawn, crossbeam — all inside the kernel body only.
        assert_eq!(k005.len(), 3, "{findings:?}");
        assert!(k005.iter().all(|f| f.line <= 7), "{k005:?}");
    }

    #[test]
    fn k006_flags_fault_plan_access_in_kernels_only() {
        let src = r#"
            impl Kernel for Cheating {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    if self.config.faults.kernel_fault(0, 0) { return Ok(()); }
                    Ok(())
                }
            }
            fn host_side(config: &PimConfig) -> bool {
                let plan: &FaultPlan = &config.faults;
                plan.is_none()
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k006: Vec<_> = findings.iter().filter(|f| f.rule == "K006").collect();
        // Only the access inside the kernel body is flagged.
        assert_eq!(k006.len(), 1, "{findings:?}");
        assert!(k006[0].message.contains("faults"), "{k006:?}");
    }

    #[test]
    fn k007_flags_direct_arith_library_calls_in_kernels_only() {
        let src = r#"
            impl Kernel for Bypassing {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let mut t = OpTally::new();
                    let r = softfloat::f32_add(a, b, &mut t);
                    let w = emul::umul32_wide(x, y, &mut t);
                    let q = fastpath::f32_mul(a, b);
                    Ok(())
                }
            }
            fn host_side(a: u32, b: u32) -> u32 {
                softfloat::f32_add(a, b, &mut OpTally::new())
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k007: Vec<_> = findings.iter().filter(|f| f.rule == "K007").collect();
        // Only the three calls inside the kernel body are flagged.
        assert_eq!(k007.len(), 3, "{findings:?}");
        assert!(k007[0].message.contains("softfloat"), "{k007:?}");
        assert!(k007[1].message.contains("emul"), "{k007:?}");
        assert!(k007[2].message.contains("fastpath"), "{k007:?}");
    }

    #[test]
    fn k008_flags_telemetry_emission_in_kernels_only() {
        let src = r#"
            impl Kernel for Chatty {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    self.config.telemetry.emit(|| Event::SyncRound { round: 0, live_dpus: 1 });
                    Ok(())
                }
            }
            fn host_side(sink: &Telemetry) {
                sink.emit(|| Event::SyncRound { round: 0, live_dpus: 1 });
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k008: Vec<_> = findings.iter().filter(|f| f.rule == "K008").collect();
        // Flags `telemetry` and `emit` inside the kernel body; the
        // host-side emission below the impl block is untouched.
        assert_eq!(k008.len(), 2, "{findings:?}");
        assert!(k008[0].message.contains("telemetry"), "{k008:?}");
        assert!(k008[1].message.contains("emit"), "{k008:?}");
    }

    #[test]
    fn k011_flags_batched_tier_access_in_kernels_only() {
        let src = r#"
            impl Kernel for Fusing {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    let plan = batch::granule_plan(8);
                    let w = BatchContext::wram_len(plan);
                    self.run_batched(w);
                    Ok(())
                }
                fn batch(&self) -> Option<&dyn BatchKernel> {
                    Some(self)
                }
            }
            fn host_side(b: &mut BatchContext<'_>) -> bool {
                batch::granule_plan(8) == b.run_batched_granule()
            }
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k011: Vec<_> = findings.iter().filter(|f| f.rule == "K011").collect();
        // batch::, BatchContext, run_batched — inside `run` only; the
        // advertising `Kernel::batch` method and the host-side helper
        // below the impl are clean.
        assert_eq!(k011.len(), 3, "{findings:?}");
        assert!(k011.iter().all(|f| f.line <= 7), "{k011:?}");
        assert!(k011[0].message.contains("batch::"), "{k011:?}");
    }

    #[test]
    fn k004_flags_misaligned_layout_constant() {
        let src = r#"
            pub const HEADER_BYTES: usize = 64;
            pub const BAD_OFFSET: usize = HEADER_BYTES + 4;
            pub const RECORD_BYTES: usize = 2 * 6;
            pub const FINE_OFFSET: usize = (1 << 10) + 8 * 3;
            const NOT_LAYOUT: usize = 3;
        "#;
        let findings = check_file(Path::new("crates/core/src/layout.rs"), src);
        let k004: Vec<_> = findings.iter().filter(|f| f.rule == "K004").collect();
        let names: Vec<_> = k004.iter().map(|f| f.message.clone()).collect();
        assert_eq!(k004.len(), 2, "{names:?}");
        assert!(names.iter().any(|m| m.contains("BAD_OFFSET")));
        assert!(names.iter().any(|m| m.contains("RECORD_BYTES")));
    }

    #[test]
    fn k004_skips_unevaluable_expressions() {
        let src = r#"
            pub const DYNAMIC_BYTES: usize = core::mem::size_of::<Header>();
        "#;
        assert!(rules_hit("crates/core/src/layout.rs", src).is_empty());
    }

    #[test]
    fn k009_and_k010_flag_bad_regions() {
        let src = r#"
            pub const WRAM_Q_OFFSET: usize = 0;
            pub const WRAM_Q_BYTES: usize = 64 * 1024;
            pub const WRAM_BATCH_OFFSET: usize = 1024;
            pub const WRAM_BATCH_BYTES: usize = 2048;
            pub const MRAM_HEADER_OFFSET: usize = 0;
            pub const MRAM_HEADER_BYTES: usize = 64;
            pub const MRAM_Q_OFFSET: usize = 32;
            pub const MRAM_Q_BYTES: usize = 128;
        "#;
        let findings = check_file(Path::new("crates/core/src/kernels.rs"), src);
        let k009: Vec<_> = findings.iter().filter(|f| f.rule == "K009").collect();
        let k010: Vec<_> = findings.iter().filter(|f| f.rule == "K010").collect();
        // WRAM: Q fills the whole 64 KB, so BATCH both overlaps it and
        // (offset 1024 + 2048 ≤ cap) stays in capacity → exactly one
        // overlap finding. MRAM: Q starts inside the header.
        assert_eq!(k009.len(), 1, "{findings:?}");
        assert!(k009[0].message.contains("overlap"), "{k009:?}");
        assert_eq!(k010.len(), 1, "{findings:?}");
        assert!(k010[0].message.contains("overlap"), "{k010:?}");
    }

    #[test]
    fn k003_flags_uncharged_intrinsic() {
        let kernel_src = r#"
            impl<'a> DpuContext<'a> {
                pub fn charge_alu(&mut self, n: u64) { self.counter.charge(OpClass::Alu, n); }
                pub fn add32(&mut self, a: u32, b: u32) -> u32 {
                    self.charge_alu(1);
                    a.wrapping_add(b)
                }
                pub fn double(&mut self, a: u32) -> u32 { self.add32(a, a) }
                pub fn sneaky(&mut self, a: u32) -> u32 { a ^ 1 }
                pub fn tasklet_id(&self) -> usize { self.tasklet_id }
                fn internal(&mut self) {}
            }
        "#;
        let config_src = r#"
            pub struct OpCosts { pub mul32_slots: u64, pub unused_slots: u64 }
        "#;
        let findings = check_charge_coverage(
            Path::new("crates/pim/src/kernel.rs"),
            kernel_src,
            Path::new("crates/pim/src/config.rs"),
            config_src,
        );
        let msgs: Vec<_> = findings.iter().map(|f| f.message.as_str()).collect();
        // `sneaky` is uncharged; `double` delegates to add32 (charged);
        // accessors and private helpers are exempt. `unused_slots` has no
        // consumer; `mul32_slots` is absent from this synthetic kernel too.
        assert!(msgs.iter().any(|m| m.contains("sneaky")), "{msgs:?}");
        assert!(!msgs.iter().any(|m| m.contains("double")), "{msgs:?}");
        assert!(!msgs.iter().any(|m| m.contains("tasklet_id")), "{msgs:?}");
        assert!(!msgs.iter().any(|m| m.contains("internal")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("unused_slots")), "{msgs:?}");
    }

    #[test]
    fn k003_sees_a_turbofish_delegation() {
        let kernel_src = r#"
            impl<'a> DpuContext<'a> {
                fn fadd_in<A: Arith>(&mut self, a: F32, b: F32) -> F32 {
                    self.counter.charge(OpClass::FloatEmul, 1);
                    a
                }
                pub fn fadd(&mut self, a: F32, b: F32) -> F32 { self.fadd_in::<Fast>(a, b) }
                pub fn fsub(&mut self, a: F32, b: F32) -> F32 { self.fadd_in::<Fast>; a }
            }
        "#;
        let findings = check_charge_coverage(
            Path::new("k.rs"),
            kernel_src,
            Path::new("c.rs"),
            "pub struct OpCosts {}",
        );
        let msgs: Vec<_> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(!msgs.iter().any(|m| m.contains("fadd")), "{msgs:?}");
        // A turbofish path that is not called charges nothing.
        assert!(msgs.iter().any(|m| m.contains("fsub")), "{msgs:?}");
    }

    #[test]
    fn k003_transitive_delegation_wave() {
        // c -> b -> a -> charge: requires more than one fixed-point pass.
        let kernel_src = r#"
            impl<'a> DpuContext<'a> {
                pub fn a(&mut self) { self.counter.charge(OpClass::Alu, 1); }
                pub fn b(&mut self) { self.a(); }
                pub fn c(&mut self) { self.b(); }
            }
        "#;
        let findings = check_charge_coverage(
            Path::new("k.rs"),
            kernel_src,
            Path::new("c.rs"),
            "pub struct OpCosts {}",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn platform_intrinsics_are_not_kernel_scanned() {
        // DpuContext/F32 inherent impls legitimately mention f32 and the
        // arithmetic libraries; they are the charged boundary (K003's
        // jurisdiction), not kernel code.
        let src = r#"
            impl<'a> DpuContext<'a> {
                pub fn fadd(&mut self, a: F32, b: F32) -> F32 {
                    self.charge_float_slots(1);
                    F32(softfloat::f32_add(a.0, b.0, &mut self.tally))
                }
            }
            impl F32 {
                pub fn from_f32(v: f32) -> F32 { F32(v.to_bits()) }
            }
        "#;
        assert!(rules_hit("crates/pim/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn rule_registry_is_complete() {
        let ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            [
                "K001", "K002", "K003", "K004", "K005", "K006", "K007", "K008", "K009", "K010",
                "K011"
            ]
        );
        for r in RULES {
            assert!(!r.explain.is_empty() && !r.fix_hint.is_empty(), "{}", r.id);
            assert!(!r.example.is_empty() && !r.scope.is_empty(), "{}", r.id);
        }
        assert!(rule_info("k002").is_some());
        assert!(rule_info("K999").is_none());
    }
}
