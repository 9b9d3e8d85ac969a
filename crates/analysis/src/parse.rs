//! A lightweight item parser on top of [`crate::scanner`].
//!
//! This is deliberately *not* a Rust parser: it recognizes exactly the item
//! shapes the workspace analyzer needs — `impl` / `trait` blocks, `fn`
//! definitions with their parameter types and bodies, and `struct` field
//! types — and extracts, per function, the outgoing
//! call sites (`name(` or a turbofish `name::<...>(`) with a best-effort
//! receiver type. Everything borrows from the
//! source buffer; the [`crate::callgraph`] module resolves the calls into a
//! workspace-wide graph.
//!
//! The approximations are chosen so resolution *under*-approximates
//! reachability rather than over-approximating it (DESIGN.md §12): an edge
//! is only added when the receiver type is known, or when a method name is
//! unique in the workspace and not a common `std` name. The
//! `tests/analysis_clean.rs` gate plus per-rule fixtures keep both error
//! directions visible.

use std::path::Path;

use crate::scanner::{matching_brace, matching_delim, tokenize, Token, TokenKind};

/// Identifiers that look like calls (`if (`, `match (`, ...) but are not.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "loop", "for", "return", "as", "in", "let", "mut", "ref", "move",
    "break", "continue", "else", "unsafe", "dyn", "impl", "fn", "pub", "use", "where", "struct",
    "enum", "const", "static", "type", "trait", "await", "box",
];

/// Keywords and modifiers never taken as a type identifier.
const TYPE_KEYWORDS: &[&str] = &["mut", "dyn", "impl", "ref", "const", "self", "as"];

/// How a call site names its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv<'s> {
    /// Bare `name(...)` — a free function (or tuple-struct constructor).
    Free,
    /// The receiver type is known: `Type::name(...)`, `self.name(...)`
    /// (enclosing impl type), a single-level `self.field.name(...)` with a
    /// known field type, or `local.name(...)` with an inferred local type.
    Typed(&'s str),
    /// `Param::name(...)` on a type parameter of the enclosing fn bounded
    /// by this trait (`D::mul(..)` with `D: Dtype`).
    Bound(&'s str),
    /// A method call whose receiver could not be typed.
    Unknown,
}

/// One outgoing call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call<'s> {
    /// Callee name (method or free-function identifier).
    pub name: &'s str,
    /// Best-effort receiver classification.
    pub recv: Recv<'s>,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One `fn` definition (free function, inherent/trait-impl method, or
/// trait-declaration method).
#[derive(Debug, Clone)]
pub struct FnDef<'s> {
    /// Function name.
    pub name: &'s str,
    /// 1-based line of the name token.
    pub line: u32,
    /// Owner type: the `impl` self-type, or the trait name for methods
    /// declared inside a `trait` block. `None` for free functions.
    pub owner: Option<&'s str>,
    /// Trait being implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<&'s str>,
    /// Token range `[params_open, body_start)` covering the signature from
    /// the parameter list through the return type.
    pub sig: (usize, usize),
    /// Brace-inclusive token range of the body, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// True if some parameter's type mentions `DpuContext`.
    pub takes_ctx: bool,
    /// `(type parameter, trait)` for each type parameter of the fn's own
    /// generic list bounded inline by a trait (`<D: Dtype>` →
    /// `("D", "Dtype")`, the first trait of a `+` list).
    pub bounds: Vec<(&'s str, &'s str)>,
    /// Outgoing call sites extracted from the body.
    pub calls: Vec<Call<'s>>,
}

impl FnDef<'_> {
    /// `Owner::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// One `struct` definition with its named fields' types.
#[derive(Debug, Clone)]
pub struct StructDef<'s> {
    /// Struct name.
    pub name: &'s str,
    /// `(field, last depth-0 type identifier)` pairs.
    pub fields: Vec<(&'s str, &'s str)>,
}

/// Parsed view of one source file.
pub struct FileIndex<'s> {
    /// Repo-relative path.
    pub rel: &'s Path,
    /// The file's token stream (all item ranges index into this).
    pub tokens: Vec<Token<'s>>,
    /// Every function definition found.
    pub fns: Vec<FnDef<'s>>,
    /// Every struct definition found.
    pub structs: Vec<StructDef<'s>>,
}

/// A source file handed to the parser (owned by the caller).
pub struct SourceFile {
    /// Repo-relative path.
    pub rel: std::path::PathBuf,
    /// Full source text.
    pub src: String,
}

/// Parsed view of the whole workspace.
pub struct Workspace<'s> {
    /// One index per parsed file, in input order.
    pub files: Vec<FileIndex<'s>>,
}

impl<'s> Workspace<'s> {
    /// Parses every source file into a workspace index.
    pub fn build(sources: &'s [SourceFile]) -> Self {
        Workspace {
            files: sources
                .iter()
                .map(|f| parse_file(&f.rel, &f.src))
                .collect(),
        }
    }
}

/// An `impl`/`trait` block: brace range plus the owner / trait names.
struct OwnerBlock<'s> {
    open: usize,
    close: usize,
    owner: Option<&'s str>,
    trait_name: Option<&'s str>,
}

/// True for the `>` of a `->` arrow (tokens are single punctuation chars).
fn is_arrow_close(tokens: &[Token<'_>], i: usize) -> bool {
    i > 0 && tokens[i].is_punct('>') && tokens[i - 1].is_punct('-')
}

/// Collects `impl`/`trait` block headers. For `impl Trait for Type` the
/// owner is the first depth-0 identifier after `for`; for inherent impls it
/// is the first depth-0 identifier after `impl`; for `trait Name` blocks
/// the owner is the trait name itself (so default-method bodies resolve).
fn owner_blocks<'s>(tokens: &[Token<'s>]) -> Vec<OwnerBlock<'s>> {
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_impl = tokens[i].is_ident("impl");
        let is_trait = tokens[i].is_ident("trait");
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        // `impl Trait for Type {` headers never contain `{`/`;` except at
        // the end; scan to it, tracking angle depth for generics.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut for_at: Option<usize> = None;
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            if tokens[j].is_punct('<') {
                angle += 1;
            } else if tokens[j].is_punct('>') && !is_arrow_close(tokens, j) {
                angle -= 1;
            } else if angle == 0 && tokens[j].is_ident("for") {
                for_at = Some(j);
            }
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('{') {
            i = j + 1;
            continue;
        }
        let close = matching_brace(tokens, j);
        let first_type_ident = |range: std::ops::Range<usize>| -> Option<&'s str> {
            let mut depth = 0i32;
            for k in range {
                if tokens[k].is_punct('<') {
                    depth += 1;
                } else if tokens[k].is_punct('>') && !is_arrow_close(tokens, k) {
                    depth -= 1;
                } else if depth == 0
                    && tokens[k].kind == TokenKind::Ident
                    && !TYPE_KEYWORDS.contains(&tokens[k].text)
                    && !tokens[k].is_ident("for")
                    && !tokens[k].is_ident("where")
                {
                    return Some(tokens[k].text);
                }
            }
            None
        };
        let (owner, trait_name) = if is_trait {
            (first_type_ident(i + 1..j), None)
        } else {
            match for_at {
                Some(f) => (first_type_ident(f + 1..j), first_type_ident(i + 1..f)),
                None => (first_type_ident(i + 1..j), None),
            }
        };
        blocks.push(OwnerBlock { open: j, close, owner, trait_name });
        // Descend into the block body (nested impls are rare but legal), so
        // do NOT jump past `close` here.
        i = j + 1;
    }
    blocks
}

/// The last depth-0 identifier of a type token range, skipping modifiers —
/// `&mut DpuContext<'_>` → `DpuContext`, `&dyn rand::RngCore` → `RngCore`,
/// `Vec<u8>` → `Vec`.
fn last_type_ident<'s>(tokens: &[Token<'s>], range: std::ops::Range<usize>) -> Option<&'s str> {
    let mut depth = 0i32;
    let mut last = None;
    for k in range {
        if tokens[k].is_punct('<') {
            depth += 1;
        } else if tokens[k].is_punct('>') && !is_arrow_close(tokens, k) {
            depth -= 1;
        } else if depth == 0
            && tokens[k].kind == TokenKind::Ident
            && !TYPE_KEYWORDS.contains(&tokens[k].text)
        {
            last = Some(tokens[k].text);
        }
    }
    last
}

/// Splits a parameter list `[open+1, close)` on top-level commas and
/// returns `(pattern name, type identifier)` pairs.
fn param_types<'s>(
    tokens: &[Token<'s>],
    open: usize,
    close: usize,
) -> Vec<(Option<&'s str>, Option<&'s str>)> {
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    let mut k = start;
    while k <= close && k < tokens.len() {
        let at_end = k == close;
        let t = &tokens[k];
        if !at_end {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !is_arrow_close(tokens, k))
            {
                depth -= 1;
            }
        }
        if (at_end || (t.is_punct(',') && depth == 0)) && k > start {
            let colon = (start..k).find(|&p| {
                tokens[p].is_punct(':') && !tokens.get(p + 1).is_some_and(|n| n.is_punct(':'))
            });
            match colon {
                Some(c) => {
                    let name = (start..c)
                        .filter(|&p| tokens[p].kind == TokenKind::Ident)
                        .map(|p| tokens[p].text)
                        .find(|t| !TYPE_KEYWORDS.contains(t));
                    out.push((name, last_type_ident(tokens, c + 1..k)));
                }
                None => {
                    // `&self`, `&mut self`, `self`
                    if (start..k).any(|p| tokens[p].is_ident("self")) {
                        out.push((Some("self"), None));
                    }
                }
            }
            start = k + 1;
        }
        if at_end {
            break;
        }
        k += 1;
    }
    out
}

/// Infers local-variable types from parameters and `let` bindings:
/// `let x: Type = ...`, `let x = Type::ctor(...)` (uppercase-start type).
fn local_types<'s>(
    tokens: &[Token<'s>],
    body: (usize, usize),
    params: &[(Option<&'s str>, Option<&'s str>)],
) -> std::collections::HashMap<&'s str, &'s str> {
    let mut map = std::collections::HashMap::new();
    for (name, ty) in params {
        if let (Some(n), Some(t)) = (name, ty) {
            map.insert(*n, *t);
        }
    }
    let (open, close) = body;
    let mut k = open + 1;
    while k + 2 < close {
        if !tokens[k].is_ident("let") {
            k += 1;
            continue;
        }
        let mut n = k + 1;
        while n < close && (tokens[n].is_ident("mut") || tokens[n].is_ident("ref")) {
            n += 1;
        }
        if tokens[n].kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        let var = tokens[n].text;
        if tokens.get(n + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(n + 2).is_some_and(|t| t.is_punct(':'))
        {
            // `let x: Type = ...` — type runs to the `=` or `;`.
            let mut e = n + 2;
            while e < close && !tokens[e].is_punct('=') && !tokens[e].is_punct(';') {
                e += 1;
            }
            if let Some(ty) = last_type_ident(tokens, n + 2..e) {
                map.insert(var, ty);
            }
            k = e;
            continue;
        }
        if tokens.get(n + 1).is_some_and(|t| t.is_punct('=')) {
            // `let x = path::Type::ctor(...)` — take the path segment just
            // before the final `::method`, when it starts uppercase.
            let mut segs: Vec<&str> = Vec::new();
            let mut p = n + 2;
            while p < close && tokens[p].kind == TokenKind::Ident {
                segs.push(tokens[p].text);
                if tokens.get(p + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(p + 2).is_some_and(|t| t.is_punct(':'))
                {
                    p += 3;
                } else {
                    break;
                }
            }
            if segs.len() >= 2 && tokens.get(p + 1).is_some_and(|t| t.is_punct('(')) {
                let ty = segs[segs.len() - 2];
                if ty.starts_with(char::is_uppercase) {
                    map.insert(var, ty);
                }
            }
            k = p + 1;
            continue;
        }
        k += 1;
    }
    map
}

/// True if the tokens from `at` open a call's argument list: `(`, or a
/// turbofish `::<...>` followed by `(` (`tasklet::<_, D, SARSA>(`).
pub(crate) fn opens_call(tokens: &[Token<'_>], at: usize, close: usize) -> bool {
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.is_punct(c));
    if punct(at, '(') {
        return true;
    }
    if !(punct(at, ':') && punct(at + 1, ':') && punct(at + 2, '<')) {
        return false;
    }
    let mut depth = 0i32;
    for k in at + 2..close {
        if tokens[k].is_punct('<') {
            depth += 1;
        } else if tokens[k].is_punct('>') && !is_arrow_close(tokens, k) {
            depth -= 1;
            if depth == 0 {
                return punct(k + 1, '(');
            }
        } else if tokens[k].is_punct(';') || tokens[k].is_punct('{') {
            return false;
        }
    }
    false
}

/// The inline trait bounds of a fn's generic list, the tokens strictly
/// between `open` (its `<`) and `close` (its `>`): each parameter that
/// starts `Name: Trait`, so lifetimes and `const` generics are skipped.
fn generic_bounds<'s>(tokens: &[Token<'s>], open: usize, close: usize) -> Vec<(&'s str, &'s str)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut param_start = true;
    for k in open + 1..close {
        let t = &tokens[k];
        let ident = |at: usize| tokens.get(at).filter(|x| x.kind == TokenKind::Ident);
        if depth == 0 && param_start && !t.is_ident("const") && ident(k).is_some() {
            if let (true, Some(bound)) = (tokens[k + 1].is_punct(':'), ident(k + 2)) {
                out.push((t.text, bound.text));
            }
        }
        if t.is_punct('<') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') || (t.is_punct('>') && !is_arrow_close(tokens, k)) {
            depth -= 1;
        }
        param_start = depth == 0 && t.is_punct(',');
    }
    out
}

/// Extracts the outgoing call sites of one function body.
fn extract_calls<'s>(
    tokens: &[Token<'s>],
    body: (usize, usize),
    owner: Option<&'s str>,
    bounds: &[(&'s str, &'s str)],
    locals: &std::collections::HashMap<&'s str, &'s str>,
    structs: &[StructDef<'s>],
) -> Vec<Call<'s>> {
    let mut calls = Vec::new();
    let (open, close) = body;
    let field_type = |st: Option<&'s str>, field: &str| -> Option<&'s str> {
        let st = st?;
        structs
            .iter()
            .find(|s| s.name == st)?
            .fields
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, t)| *t)
    };
    for k in open + 1..close {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident
            || !opens_call(tokens, k + 1, close)
            || CALL_KEYWORDS.contains(&t.text)
        {
            continue;
        }
        let name = t.text;
        let line = t.line;
        let prev = &tokens[k - 1];
        let recv = if prev.is_punct('.') {
            // Method call: classify the receiver expression.
            match tokens.get(k - 2) {
                Some(b) if b.is_ident("self") => match owner {
                    Some(o) => Recv::Typed(o),
                    None => Recv::Unknown,
                },
                Some(b) if b.kind == TokenKind::Ident => {
                    let before = tokens.get(k.wrapping_sub(3));
                    if before.is_some_and(|x| x.is_punct('.')) {
                        // `a.b.method(` — resolve `self.field.method(` via
                        // the owner struct's field types; deeper chains stay
                        // unresolved.
                        if tokens.get(k.wrapping_sub(4)).is_some_and(|x| x.is_ident("self")) {
                            match field_type(owner, b.text) {
                                Some(ty) => Recv::Typed(ty),
                                None => Recv::Unknown,
                            }
                        } else {
                            Recv::Unknown
                        }
                    } else {
                        match locals.get(b.text) {
                            Some(ty) => Recv::Typed(ty),
                            None => Recv::Unknown,
                        }
                    }
                }
                _ => Recv::Unknown,
            }
        } else if prev.is_punct(':') && tokens.get(k.wrapping_sub(2)).is_some_and(|b| b.is_punct(':'))
        {
            // `Seg::name(` — a bounded type parameter, or a type receiver
            // when the segment starts uppercase; a module path otherwise
            // (treated as a free call).
            match tokens.get(k.wrapping_sub(3)) {
                Some(seg) if seg.kind == TokenKind::Ident => {
                    let bound = bounds.iter().find(|(param, _)| *param == seg.text);
                    if seg.is_ident("Self") {
                        match owner {
                            Some(o) => Recv::Typed(o),
                            None => Recv::Unknown,
                        }
                    } else if let Some((_, trait_name)) = bound {
                        Recv::Bound(trait_name)
                    } else if seg.text.starts_with(char::is_uppercase) {
                        Recv::Typed(seg.text)
                    } else {
                        Recv::Free
                    }
                }
                _ => Recv::Unknown,
            }
        } else if prev.is_ident("fn") {
            continue; // a definition, not a call
        } else {
            Recv::Free
        };
        calls.push(Call { name, recv, line });
    }
    calls
}

/// Collects `struct Name { field: Type, ... }` definitions.
fn struct_defs<'s>(tokens: &[Token<'s>]) -> Vec<StructDef<'s>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !tokens[i].is_ident("struct") || tokens[i + 1].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text;
        // Scan the header to `{` (named fields), `(` (tuple struct — no
        // named fields to record), or `;` (unit struct).
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !is_arrow_close(tokens, j) {
                angle -= 1;
            } else if angle == 0 && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('{') {
            i = j + 1;
            continue;
        }
        let close = matching_brace(tokens, j);
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k + 1 < close {
            if tokens[k].kind == TokenKind::Ident
                && !tokens[k].is_ident("pub")
                && tokens[k + 1].is_punct(':')
                && !tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                let fname = tokens[k].text;
                // The type runs to the comma (or close) at depth 0.
                let mut depth = 0i32;
                let mut e = k + 2;
                while e < close {
                    let t = &tokens[e];
                    if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || (t.is_punct('>') && !is_arrow_close(tokens, e))
                    {
                        depth -= 1;
                    } else if t.is_punct(',') && depth <= 0 {
                        break;
                    }
                    e += 1;
                }
                if let Some(ty) = last_type_ident(tokens, k + 2..e) {
                    fields.push((fname, ty));
                }
                k = e + 1;
                continue;
            }
            k += 1;
        }
        out.push(StructDef { name, fields });
        i = close + 1;
    }
    out
}

/// Parses one file into its index.
pub fn parse_file<'s>(rel: &'s Path, src: &'s str) -> FileIndex<'s> {
    let tokens = tokenize(src);
    let structs = struct_defs(&tokens);
    let blocks = owner_blocks(&tokens);

    let enclosing = |idx: usize| -> Option<&OwnerBlock<'s>> {
        blocks
            .iter()
            .filter(|b| b.open < idx && idx <= b.close)
            .min_by_key(|b| b.close - b.open)
    };

    let mut fns = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !tokens[i].is_ident("fn") || tokens[i + 1].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text;
        let line = tokens[i + 1].line;
        // Find the parameter list: the first `(` at angle-depth 0 after the
        // name (generic bounds like `F: Fn(u32)` sit at depth > 0).
        let mut p = i + 2;
        let mut angle = 0i32;
        while p < tokens.len() {
            let t = &tokens[p];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !is_arrow_close(&tokens, p) {
                angle -= 1;
            } else if (t.is_punct('(') && angle <= 0) || t.is_punct('{') || t.is_punct(';') {
                break;
            }
            p += 1;
        }
        if p >= tokens.len() || !tokens[p].is_punct('(') {
            i = p;
            continue;
        }
        let params_end = matching_delim(&tokens, p, '(', ')');
        // Signature runs to the body `{` or a `;` (trait method decl).
        let mut b = params_end + 1;
        while b < tokens.len() && !tokens[b].is_punct('{') && !tokens[b].is_punct(';') {
            b += 1;
        }
        let body = (b < tokens.len() && tokens[b].is_punct('{'))
            .then(|| (b, matching_brace(&tokens, b)));
        let block = enclosing(i);
        let owner = block.and_then(|bl| bl.owner);
        let trait_name = block.and_then(|bl| bl.trait_name);
        let params = param_types(&tokens, p, params_end.min(tokens.len()));
        let takes_ctx = params.iter().any(|(_, t)| *t == Some("DpuContext"));
        // The generic list, if any, runs from the `<` after the name to
        // the token before the parameter list.
        let bounds = if tokens[i + 2].is_punct('<') {
            generic_bounds(&tokens, i + 2, p - 1)
        } else {
            Vec::new()
        };
        let calls = match body {
            Some(range) => {
                let locals = local_types(&tokens, range, &params);
                extract_calls(&tokens, range, owner, &bounds, &locals, &structs)
            }
            None => Vec::new(),
        };
        fns.push(FnDef {
            name,
            line,
            owner,
            trait_name,
            sig: (p, body.map_or(b, |(open, _)| open)),
            body,
            takes_ctx,
            bounds,
            calls,
        });
        i = body.map_or(b + 1, |(_, end)| end + 1);
    }

    FileIndex { rel, tokens, fns, structs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileIndex<'_> {
        parse_file(Path::new("crates/core/src/kernels.rs"), src)
    }

    #[test]
    fn impl_and_trait_owners_are_recorded() {
        let src = r#"
            trait Kernel { fn tasklets(&self) -> usize { 1 } }
            impl Kernel for SwiftRlKernel {
                fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> { Ok(()) }
            }
            impl<'a> DpuContext<'a> { pub fn fadd(&mut self, a: F32, b: F32) -> F32 { a } }
            fn free_helper(v: u32) -> u32 { v }
        "#;
        let idx = parse(src);
        let by_name = |n: &str| idx.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("tasklets").owner, Some("Kernel"));
        let run = by_name("run");
        assert_eq!(run.owner, Some("SwiftRlKernel"));
        assert_eq!(run.trait_name, Some("Kernel"));
        assert!(run.takes_ctx);
        assert_eq!(by_name("fadd").owner, Some("DpuContext"));
        assert_eq!(by_name("free_helper").owner, None);
        assert!(!by_name("free_helper").takes_ctx);
    }

    #[test]
    fn calls_resolve_receivers() {
        let src = r#"
            struct Body { map: WramMap }
            impl Body {
                fn go(&self, ctx: &mut DpuContext<'_>) {
                    self.step();
                    self.map.q_entry(1);
                    let w = WramMap::new();
                    w.lookup(2);
                    helper(3);
                    layout::seed(4);
                    ctx.charge_alu(1);
                    opaque().chain(5);
                }
            }
        "#;
        let idx = parse(src);
        let go = idx.fns.iter().find(|f| f.name == "go").unwrap();
        let call = |n: &str| go.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("step").recv, Recv::Typed("Body"));
        assert_eq!(call("q_entry").recv, Recv::Typed("WramMap"));
        assert_eq!(call("new").recv, Recv::Typed("WramMap"));
        assert_eq!(call("lookup").recv, Recv::Typed("WramMap"));
        assert_eq!(call("helper").recv, Recv::Free);
        assert_eq!(call("seed").recv, Recv::Free);
        assert_eq!(call("charge_alu").recv, Recv::Typed("DpuContext"));
        assert_eq!(call("chain").recv, Recv::Unknown);
        assert_eq!(call("opaque").recv, Recv::Free);
    }

    #[test]
    fn turbofish_calls_are_recorded() {
        let src = r#"
            struct Interp<'c, 'a, A> { ctx: &'c mut DpuContext<'a>, mode: PhantomData<A> }
            impl<A: Arith> Interp<'_, '_, A> {
                fn go(&mut self, m: &mut M) {
                    tasklet::<_, D, SARSA>(m, 1);
                    self.ctx.fadd_in::<A>(a, b);
                    Self::walk::<Vec<u8>>(2);
                    let n = xs.iter().collect::<Vec<_>>;
                }
            }
        "#;
        let idx = parse(src);
        let go = idx.fns.iter().find(|f| f.name == "go").unwrap();
        let call = |n: &str| go.calls.iter().find(|c| c.name == n);
        assert_eq!(call("tasklet").unwrap().recv, Recv::Free);
        assert_eq!(call("fadd_in").unwrap().recv, Recv::Typed("DpuContext"));
        assert_eq!(call("walk").unwrap().recv, Recv::Typed("Interp"));
        // A turbofish path that is not called is no call.
        assert!(call("collect").is_none());
    }

    #[test]
    fn path_calls_on_bounded_type_parameters_name_the_trait() {
        let src = r#"
            fn update<'a, M: Machine + Send, D: Dtype, const SARSA: bool, F: Fn(u32) -> u32>(
                m: &mut M,
                o: &mut D,
            ) {
                D::mul(o, 1, 2);
                o.add(3);
                M::Err::from(4);
                Int32::gt(o, 5, 6);
            }
        "#;
        let idx = parse(src);
        let update = &idx.fns[0];
        assert_eq!(update.bounds, [("M", "Machine"), ("D", "Dtype"), ("F", "Fn")]);
        let call = |n: &str| update.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("mul").recv, Recv::Bound("Dtype"));
        // A value of a type parameter is typed by the parameter only.
        assert_eq!(call("add").recv, Recv::Typed("D"));
        assert_eq!(call("from").recv, Recv::Typed("Err"));
        assert_eq!(call("gt").recv, Recv::Typed("Int32"));
    }

    #[test]
    fn let_type_annotations_and_generics_are_tolerated() {
        let src = r#"
            fn f<F: Fn(u32) -> u32>(cb: F, hdr: &KernelHeader) -> Vec<u8> {
                let x: core::layout::KernelHeader = make();
                x.encode(0);
                let y = crate::layout::KernelHeader::from_bytes(buf);
                y.decode(1);
            }
        "#;
        let idx = parse(src);
        let f = idx.fns.iter().find(|f| f.name == "f").unwrap();
        let call = |n: &str| f.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("encode").recv, Recv::Typed("KernelHeader"));
        assert_eq!(call("decode").recv, Recv::Typed("KernelHeader"));
        assert_eq!(call("from_bytes").recv, Recv::Typed("KernelHeader"));
    }
}
