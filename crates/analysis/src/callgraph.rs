//! Workspace call-graph construction and kernel reachability.
//!
//! Builds a function index over a parsed [`Workspace`],
//! resolves each call site into edges, and computes the set of functions
//! transitively reachable from *kernel entry points*:
//!
//! * every method of an `impl Kernel for ...` block,
//! * every function taking a `DpuContext` parameter, and
//! * every method of a type with a `DpuContext` field (a kernel-side
//!   wrapper that reaches the context through `self`).
//!
//! Inherent methods of the platform types (`DpuContext`, `F32`) are the
//! charged simulator substrate itself — they are covered by K003, may
//! legitimately mention `f32`/`softfloat`/`fastpath`, and are therefore
//! excluded from traversal (the *boundary* of kernel code, not part of it).
//!
//! Resolution is deliberately conservative (an under-approximation):
//!
//! * typed receivers resolve to methods of that owner type;
//! * a path call on a type parameter bounded by a trait (`D::mul(..)` in
//!   a fn generic over `D: Dtype`) resolves to that method of every
//!   `impl Trait for ...` block; a method call on a *value* of a type
//!   parameter (`o.fadd(..)` with `o: &mut O`, `O: Ops`) does not, since
//!   `Ops` is also implemented by the batched tier's host-side emulator;
//! * bare calls resolve to free functions — same file first, then a unique
//!   workspace-wide match;
//! * untyped method receivers resolve only when the method name is unique
//!   across the workspace *and* not a common `std` method name;
//! * anything else adds no edge.
//!
//! Every reachable function carries a witness chain (entry → ... → fn) that
//! the kernel rules append to their findings.

use std::collections::{BTreeMap, VecDeque};

use crate::parse::{Recv, Workspace};

/// Identifies a function as (file index, fn index) into the workspace.
pub type FnId = (usize, usize);

/// Owner types that form the charged platform boundary: reachability stops
/// at (and kernel rules skip) their inherent impls.
pub const PLATFORM_OWNERS: &[&str] = &["DpuContext", "F32"];

/// Method names too generic for the unique-name fallback: they collide
/// with `std` inherent methods, so an untyped `x.get(...)` must not edge
/// into some workspace type's `get`.
const COMMON_METHOD_NAMES: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "get", "get_mut", "push", "pop", "insert",
    "remove", "iter", "iter_mut", "next", "min", "max", "abs", "into", "from", "as_ref", "as_mut",
    "as_str", "as_bytes", "to_le_bytes", "to_be_bytes", "map", "and_then", "unwrap_or", "take",
    "contains", "extend", "clear", "fmt", "eq", "cmp", "hash", "drop", "write", "read", "run",
    "reset", "step", "emit", "flush", "count", "sum", "last", "first", "split", "join", "start",
    "end", "name", "id", "kind", "value",
];

/// One reachable function with its call-chain witness from an entry point.
#[derive(Debug, Clone)]
pub struct Reached {
    /// Qualified names (`Owner::fn` / `fn`) from the entry point to this
    /// function, inclusive. Length 1 for entry points themselves.
    pub chain: Vec<String>,
}

impl Reached {
    /// Renders the witness chain as `a → b → c`.
    pub fn witness(&self) -> String {
        self.chain.join(" → ")
    }
}

/// The resolved call graph plus the kernel-reachable set.
pub struct CallGraph {
    /// Forward edges, caller → callees (deduplicated, in call order).
    pub edges: BTreeMap<FnId, Vec<FnId>>,
    /// Kernel entry points in (file, fn) order.
    pub entries: Vec<FnId>,
    /// Every function reachable from an entry, with a shortest witness
    /// chain (BTreeMap for deterministic iteration order).
    pub reachable: BTreeMap<FnId, Reached>,
}

/// True if `id` names an inherent method of a platform type.
fn is_platform(ws: &Workspace<'_>, id: FnId) -> bool {
    let f = &ws.files[id.0].fns[id.1];
    f.trait_name.is_none() && f.owner.is_some_and(|o| PLATFORM_OWNERS.contains(&o))
}

/// Builds the call graph and computes kernel reachability.
pub fn build(ws: &Workspace<'_>) -> CallGraph {
    // Name indexes over every function in the workspace.
    let mut methods: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new(); // (owner, name)
    let mut by_method_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut impls: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new(); // (trait, name)
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            let id = (fi, ni);
            if let Some(trait_name) = f.trait_name {
                impls.entry((trait_name, f.name)).or_default().push(id);
            }
            match f.owner {
                Some(owner) => {
                    methods.entry((owner, f.name)).or_default().push(id);
                    by_method_name.entry(f.name).or_default().push(id);
                }
                None => free_by_name.entry(f.name).or_default().push(id),
            }
        }
    }

    let mut edges: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            let id = (fi, ni);
            let mut out: Vec<FnId> = Vec::new();
            for call in &f.calls {
                let targets: Vec<FnId> = match call.recv {
                    Recv::Typed(ty) => methods
                        .get(&(ty, call.name))
                        .cloned()
                        .unwrap_or_default(),
                    Recv::Bound(trait_name) => impls
                        .get(&(trait_name, call.name))
                        .cloned()
                        .unwrap_or_default(),
                    Recv::Free => {
                        let candidates = free_by_name.get(call.name);
                        match candidates {
                            Some(c) => {
                                let same_file: Vec<FnId> =
                                    c.iter().copied().filter(|t| t.0 == fi).collect();
                                if !same_file.is_empty() {
                                    same_file
                                } else if c.len() == 1 {
                                    c.clone()
                                } else {
                                    Vec::new()
                                }
                            }
                            None => Vec::new(),
                        }
                    }
                    Recv::Unknown => {
                        if COMMON_METHOD_NAMES.contains(&call.name) {
                            Vec::new()
                        } else {
                            match by_method_name.get(call.name) {
                                Some(c) if c.len() == 1 => c.clone(),
                                _ => Vec::new(),
                            }
                        }
                    }
                };
                for t in targets {
                    if t != id && !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
            if !out.is_empty() {
                edges.insert(id, out);
            }
        }
    }

    // Entry points: impl-Kernel methods, DpuContext-taking functions and
    // methods of types holding a DpuContext, excluding the platform
    // boundary itself.
    let holds_ctx: Vec<&str> = ws
        .files
        .iter()
        .flat_map(|file| &file.structs)
        .filter(|s| s.fields.iter().any(|(_, ty)| *ty == "DpuContext"))
        .map(|s| s.name)
        .collect();
    let mut entries: Vec<FnId> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            let id = (fi, ni);
            if is_platform(ws, id) {
                continue;
            }
            if f.trait_name == Some("Kernel")
                || f.takes_ctx
                || f.owner.is_some_and(|o| holds_ctx.contains(&o))
            {
                entries.push(id);
            }
        }
    }

    // BFS with parent pointers for shortest witness chains.
    let mut reachable: BTreeMap<FnId, Reached> = BTreeMap::new();
    let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &e in &entries {
        if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(e) {
            slot.insert(None);
            queue.push_back(e);
        }
    }
    while let Some(id) = queue.pop_front() {
        if let Some(out) = edges.get(&id) {
            for &t in out {
                if is_platform(ws, t) || parent.contains_key(&t) {
                    continue;
                }
                parent.insert(t, Some(id));
                queue.push_back(t);
            }
        }
    }
    for &id in parent.keys() {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(ws.files[c.0].fns[c.1].qualified());
            cur = parent[&c];
        }
        chain.reverse();
        reachable.insert(id, Reached { chain });
    }

    CallGraph { edges, entries, reachable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{SourceFile, Workspace};
    use std::path::PathBuf;

    fn ws_of(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(p, s)| SourceFile { rel: PathBuf::from(p), src: (*s).to_string() })
            .collect()
    }

    #[test]
    fn transitive_helpers_are_reachable_with_witness() {
        let sources = ws_of(&[(
            "crates/core/src/kernels.rs",
            r#"
            impl Kernel for K {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    helper(1);
                    Ok(())
                }
            }
            fn helper(v: u32) -> u32 { deeper(v) }
            fn deeper(v: u32) -> u32 { v }
            fn unrelated(v: u32) -> u32 { v }
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        let names: Vec<String> = g
            .reachable
            .values()
            .map(|r| r.chain.last().unwrap().clone())
            .collect();
        assert!(names.contains(&"K::run".to_string()), "{names:?}");
        assert!(names.contains(&"helper".to_string()), "{names:?}");
        assert!(names.contains(&"deeper".to_string()), "{names:?}");
        assert!(!names.contains(&"unrelated".to_string()), "{names:?}");
        let deeper = g
            .reachable
            .values()
            .find(|r| r.chain.last().unwrap() == "deeper")
            .unwrap();
        assert_eq!(deeper.witness(), "K::run → helper → deeper");
    }

    #[test]
    fn platform_impls_bound_the_traversal() {
        let sources = ws_of(&[(
            "crates/pim/src/kernel.rs",
            r#"
            impl Kernel for K {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    ctx.fadd(a, b);
                    Ok(())
                }
            }
            impl<'a> DpuContext<'a> {
                pub fn fadd(&mut self, a: F32, b: F32) -> F32 { softfloat::f32_add(a.0, b.0) }
            }
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        assert!(g
            .reachable
            .values()
            .all(|r| r.chain.last().unwrap() != "DpuContext::fadd"));
    }

    #[test]
    fn methods_of_context_holders_and_turbofish_callees_are_reachable() {
        let sources = ws_of(&[(
            "crates/core/src/kernels.rs",
            r#"
            struct Interp<'c, 'a, A> { ctx: &'c mut DpuContext<'a>, hdr: KernelHeader }
            impl<A: Arith> Machine for Interp<'_, '_, A> {
                fn fetch(&mut self, i: usize) -> Record { self.ctx.wram_read_u32(i) }
            }
            struct Sweep { q: Vec<u32> }
            impl Machine for Sweep {
                fn fetch(&mut self, i: usize) -> Record { self.q[i] }
            }
            fn interpret(ctx: &mut DpuContext<'_>) { tasklet::<_, Fp32, true>(m); }
            fn tasklet<M: Machine, D, const SARSA: bool>(m: &mut M) { update::<M, D, SARSA>(m); }
            fn update<M: Machine, D, const SARSA: bool>(m: &mut M) {}
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        let names: Vec<String> = g
            .reachable
            .values()
            .map(|r| r.chain.last().unwrap().clone())
            .collect();
        for reached in ["Interp::fetch", "tasklet", "update"] {
            assert!(names.contains(&reached.to_string()), "{reached}: {names:?}");
        }
        assert!(!names.contains(&"Sweep::fetch".to_string()), "{names:?}");
        let update = g.reachable.values().find(|r| r.chain.last().unwrap() == "update");
        assert_eq!(update.unwrap().witness(), "interpret → tasklet → update");
    }

    #[test]
    fn bounded_type_parameter_calls_reach_every_implementation() {
        let sources = ws_of(&[(
            "crates/core/src/kernels.rs",
            r#"
            fn update<D: Dtype>(ctx: &mut DpuContext<'_>, o: &mut Interp) { D::mul(o, 1, 2); }
            impl Dtype for Fp32 { fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 { o.fmul(a, b) } }
            impl Dtype for Int32 { fn mul<O: Ops>(o: &mut O, a: u32, b: u32) -> u32 { o.mul_wide(a, b) } }
            impl Ops for Em { fn fmul(&mut self, a: u32, b: u32) -> u32 { a } }
            impl Int32 { fn mul(&self) -> u32 { 0 } }
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        let names: Vec<String> = g
            .reachable
            .values()
            .map(|r| r.chain.last().unwrap().clone())
            .collect();
        // Both `Dtype` implementations, neither the inherent `Int32::mul`
        // (the second `Int32::mul` listed would be it) nor `Em`.
        assert_eq!(names, ["update", "Fp32::mul", "Int32::mul"], "{names:?}");
    }

    #[test]
    fn cross_file_unique_free_fns_resolve() {
        let sources = ws_of(&[
            (
                "crates/core/src/kernels.rs",
                r#"
                fn kernel_helper(ctx: &mut DpuContext<'_>) { seed_for(3); }
                "#,
            ),
            (
                "crates/core/src/layout.rs",
                r#"
                pub fn seed_for(x: u64) -> u64 { x }
                "#,
            ),
        ]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        assert!(g
            .reachable
            .values()
            .any(|r| r.chain.last().unwrap() == "seed_for"));
    }

    #[test]
    fn ambiguous_and_common_names_add_no_edges() {
        let sources = ws_of(&[(
            "crates/core/src/a.rs",
            r#"
            impl Kernel for K {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    mystery().helper_method(1); // untyped receiver
                    opaque().get(2);            // common std name
                    Ok(())
                }
            }
            struct A;
            impl A { fn helper_method(&self) {} fn get(&self) {} }
            struct B;
            impl B { fn helper_method(&self) {} }
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        // `helper_method` is ambiguous (A and B), `get` is a common name:
        // neither resolves, so only the entry itself is reachable.
        let names: Vec<String> = g
            .reachable
            .values()
            .map(|r| r.chain.last().unwrap().clone())
            .collect();
        assert_eq!(names, ["K::run"], "{names:?}");
    }

    #[test]
    fn unique_uncommon_method_resolves_via_fallback() {
        let sources = ws_of(&[(
            "crates/core/src/a.rs",
            r#"
            impl Kernel for K {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                    mystery().apply_update_rule(1);
                    Ok(())
                }
            }
            struct A;
            impl A { fn apply_update_rule(&self) {} }
            "#,
        )]);
        let ws = Workspace::build(&sources);
        let g = build(&ws);
        assert!(g
            .reachable
            .values()
            .any(|r| r.chain.last().unwrap() == "A::apply_update_rule"));
    }
}
