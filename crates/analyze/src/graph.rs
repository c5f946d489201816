//! Item parsing and conservative call-graph construction.
//!
//! A brace-depth walk over the masked lines extracts every `fn` item
//! (with its impl-block type and whether it takes `self`), then a second
//! walk over each body extracts call sites. Resolution is *name-based
//! and conservative*:
//!
//! * `Type::name(..)` resolves to fns named `name` inside `impl Type`
//!   blocks (`Self::` maps to the enclosing impl's type);
//! * `recv.name(..)` resolves to **every** workspace method named `name`
//!   that takes `self` — we have no type inference, so all candidates
//!   are edges;
//! * bare `name(..)` (and `module::name(..)`) resolves to free fns named
//!   `name`.
//!
//! Callees that resolve to nothing (std, vendored shims) fall out of the
//! graph; their effects are still caught because the purity pass scans
//! the *call-site line* against the effect deny-lists. Over-approximated
//! edges are the price of soundness — per-edge
//! `// analyze: allow(call:<name>): reason` suppressions (consumed by
//! the purity pass) prune the ones a human has argued away.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Line};

/// Index of a [`FnItem`] in [`Workspace::fns`].
pub type FnId = usize;

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Masked lines (1-based `no`).
    pub lines: Vec<Line>,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// The fn's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// Whether the parameter list contains `self`.
    pub has_self: bool,
    /// Inside a `#[cfg(test)]` item or carrying `#[test]`.
    pub is_test: bool,
    /// Body line range (inclusive, 1-based); `None` for bodyless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name`-style display label.
    pub fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site was written, which drives resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)` or `module::name(..)` — resolves to free fns.
    Free,
    /// `recv.name(..)` — resolves to any method taking `self`.
    Method,
    /// `Type::name(..)` — resolves within `impl Type`.
    Qualified(String),
}

/// One call site inside a fn body.
#[derive(Debug)]
pub struct CallSite {
    /// The calling fn.
    pub caller: FnId,
    /// 1-based line of the call.
    pub line: usize,
    /// Callee name as written.
    pub name: String,
    /// Syntactic form.
    pub kind: CallKind,
    /// Workspace fns this call may reach (empty = external/std).
    pub resolved: Vec<FnId>,
}

/// The parsed workspace: files, fn items, call sites, adjacency.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnItem>,
    pub calls: Vec<CallSite>,
    /// Call-site indices grouped by caller.
    pub calls_by_fn: Vec<Vec<usize>>,
}

/// Rust keywords (and primitives) that look like `name(` call sites but
/// are not.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "as", "move",
    "unsafe", "where", "impl", "use", "pub", "mut", "ref", "break", "continue", "dyn", "crate",
    "super", "self", "Self", "true", "false", "const", "static", "type", "trait", "mod", "enum",
    "struct", "union", "extern", "box", "await", "async", "yield",
];

/// Directories (workspace-relative) swept by [`parse_workspace`] —
/// the same shipped-code roots the lint pass covers, plus `examples/`
/// so demo configs stay inside the graph.
pub const ANALYZE_ROOTS: &[&str] = &[
    "src",
    "examples",
    "crates/core/src",
    "crates/lte-phy/src",
    "crates/runtime/src",
    "crates/transport/src",
    "crates/transport-net/src",
    "crates/distrib/src",
    "crates/workload/src",
    "crates/model/src",
    "crates/sim/src",
    "crates/experiments/src",
];

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parses the standard shipped-code roots below `workspace_root`.
pub fn parse_workspace(workspace_root: &Path) -> Workspace {
    let roots: Vec<PathBuf> = ANALYZE_ROOTS
        .iter()
        .map(|r| workspace_root.join(r))
        .collect();
    parse_roots(workspace_root, &roots)
}

/// Parses an explicit list of root directories (used by fixture tests).
pub fn parse_roots(workspace_root: &Path, roots: &[PathBuf]) -> Workspace {
    let mut ws = Workspace::default();
    let mut paths = Vec::new();
    for root in roots {
        rs_files(root, &mut paths);
    }
    for path in paths {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(workspace_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        parse_file(&mut ws, rel, &src);
    }
    resolve_calls(&mut ws);
    ws
}

/// Parses one file from an in-memory string (used by unit tests).
pub fn parse_source(ws: &mut Workspace, path: &str, src: &str) {
    parse_file(ws, path.to_string(), src);
}

/// Finishes construction after all files are parsed.
/// Method names that collide with the std prelude's ubiquitous
/// combinators (`Iterator::map`, `Option::take`, …). A `.name(` call
/// with one of these names is overwhelmingly a std call, and resolving
/// it to a same-named workspace method would wire an edge from every
/// iterator chain into that method (e.g. `opt.map(..)` →
/// `Modulation::map`). These stay unresolved; their call-site lines are
/// still effect-scanned, and *qualified* calls (`Modulation::map(..)`)
/// still resolve. Trade-off documented in DESIGN.md §8.
const STD_COMBINATOR_METHODS: &[&str] = &[
    "map", "and_then", "or_else", "filter", "fold", "for_each", "zip", "chain", "rev", "take",
    "skip", "find", "position", "sum", "count", "last", "next", "clone", "cmp", "eq", "fmt", "len",
    "is_empty", "iter", "get",
];

pub fn resolve_calls(ws: &mut Workspace) {
    // Name → candidate fns, split by form.
    let mut free: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut methods: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut assoc: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        match (&f.impl_type, f.has_self) {
            (None, _) => free.entry(&f.name).or_default().push(id),
            (Some(t), with_self) => {
                assoc.entry((t.as_str(), &f.name)).or_default().push(id);
                if with_self && !STD_COMBINATOR_METHODS.contains(&f.name.as_str()) {
                    methods.entry(&f.name).or_default().push(id);
                }
            }
        }
    }
    for call in &mut ws.calls {
        call.resolved = match &call.kind {
            CallKind::Free => free.get(call.name.as_str()).cloned().unwrap_or_default(),
            CallKind::Method => methods.get(call.name.as_str()).cloned().unwrap_or_default(),
            CallKind::Qualified(t) => assoc
                .get(&(t.as_str(), call.name.as_str()))
                .cloned()
                .unwrap_or_default(),
        };
    }
    ws.calls_by_fn = vec![Vec::new(); ws.fns.len()];
    for (i, call) in ws.calls.iter().enumerate() {
        ws.calls_by_fn[call.caller].push(i);
    }
}

/// Parser context-stack entry: what opened the brace at `depth`.
#[derive(Debug, Clone)]
enum Scope {
    /// `impl Type` / `trait Type` block.
    Impl { type_name: String, depth: i32 },
    /// A fn body (indexes [`Workspace::fns`]).
    Fn { id: FnId, depth: i32, is_test: bool },
    /// A `#[cfg(test)]` mod (or any mod under one).
    TestMod { depth: i32 },
}

fn parse_file(ws: &mut Workspace, rel: String, src: &str) {
    let lines = lexer::mask(src);
    let file_idx = ws.files.len();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: i32 = 0;
    // Pending attribute state: did a `#[cfg(test)]` / `#[test]` attribute
    // immediately precede the current item?
    let mut pending_test_attr = false;
    // Multi-line signature accumulation: a `fn` whose `{` has not been
    // seen yet.
    let mut open_sig: Option<(FnId, String)> = None;

    for line in &lines {
        let code = line.code.trim().to_string();
        let code = code.as_str();

        let in_test_scope = pending_test_attr
            || scopes.iter().any(|s| {
                matches!(s, Scope::TestMod { .. }) || matches!(s, Scope::Fn { is_test: true, .. })
            });

        // Attribute lines set/keep pending state but open no scopes.
        if code.starts_with("#[") || code.starts_with("#![") {
            if code.contains("cfg(test") || code.contains("cfg(all(test") || code == "#[test]" {
                pending_test_attr = true;
            }
            continue;
        }

        // Accumulate a still-open multi-line fn signature.
        if let Some((id, sig)) = open_sig.take() {
            let mut sig = sig;
            sig.push(' ');
            sig.push_str(code);
            match sig_status(&sig) {
                SigStatus::Open => {
                    open_sig = Some((id, sig));
                    continue;
                }
                SigStatus::Declaration => {
                    ws.fns[id].has_self = sig_has_self(&sig);
                    // No body: trait method declaration. Fall through so
                    // the line's braces (there are none) keep depth sane.
                }
                SigStatus::BodyOpens => {
                    ws.fns[id].has_self = sig_has_self(&sig);
                    let brace_depth = depth + opens_before_body(&sig, code);
                    ws.fns[id].body = Some((line.no, line.no));
                    scopes.push(Scope::Fn {
                        id,
                        depth: brace_depth,
                        is_test: ws.fns[id].is_test,
                    });
                    if let Some(pos) = code.find('{') {
                        extract_calls(ws, id, line.no, &code[pos + 1..]);
                    }
                }
            }
            depth += brace_delta(code);
            close_scopes(ws, &mut scopes, depth, line.no);
            continue;
        }

        // New items: impl/trait, fn.
        if let Some(type_name) = impl_or_trait_type(code) {
            if code.contains('{') {
                scopes.push(Scope::Impl {
                    type_name,
                    depth: depth + 1,
                });
            }
            pending_test_attr = false;
            depth += brace_delta(code);
            close_scopes(ws, &mut scopes, depth, line.no);
            continue;
        }

        if let Some(name) = fn_name(code) {
            let impl_type = scopes.iter().rev().find_map(|s| match s {
                Scope::Impl { type_name, .. } => Some(type_name.clone()),
                _ => None,
            });
            let is_test = in_test_scope;
            let id = ws.fns.len();
            ws.fns.push(FnItem {
                file: file_idx,
                line: line.no,
                name,
                impl_type,
                has_self: false,
                is_test,
                body: None,
            });
            pending_test_attr = false;
            match sig_status(code) {
                SigStatus::Open => {
                    open_sig = Some((id, code.to_string()));
                    continue;
                }
                SigStatus::Declaration => {
                    ws.fns[id].has_self = sig_has_self(code);
                }
                SigStatus::BodyOpens => {
                    ws.fns[id].has_self = sig_has_self(code);
                    ws.fns[id].body = Some((line.no, line.no));
                    scopes.push(Scope::Fn {
                        id,
                        depth: depth + opens_before_body(code, code),
                        is_test,
                    });
                    // One-line bodies (`fn f() { g() }`) and trailing
                    // code after the body-opening brace still hold calls.
                    if let Some(pos) = code.find('{') {
                        extract_calls(ws, id, line.no, &code[pos + 1..]);
                    }
                }
            }
            depth += brace_delta(code);
            close_scopes(ws, &mut scopes, depth, line.no);
            continue;
        }

        // `mod name {` under a pending #[cfg(test)].
        if pending_test_attr && code.starts_with("mod ") && code.contains('{') {
            scopes.push(Scope::TestMod { depth: depth + 1 });
            pending_test_attr = false;
            depth += brace_delta(code);
            close_scopes(ws, &mut scopes, depth, line.no);
            continue;
        }

        if !code.is_empty() {
            pending_test_attr = false;
        }

        // Ordinary body line: extract call sites for the innermost fn.
        if let Some(Scope::Fn { id, .. }) =
            scopes.iter().rev().find(|s| matches!(s, Scope::Fn { .. }))
        {
            let caller = *id;
            extract_calls(ws, caller, line.no, code);
            if let Some((_, end)) = &mut ws.fns[caller].body {
                *end = line.no;
            }
        }

        depth += brace_delta(code);
        close_scopes(ws, &mut scopes, depth, line.no);
    }

    ws.files.push(SourceFile { path: rel, lines });
}

/// Pops every scope whose opening depth is now closed.
fn close_scopes(ws: &mut Workspace, scopes: &mut Vec<Scope>, depth: i32, line_no: usize) {
    while let Some(top) = scopes.last() {
        let open_depth = match top {
            Scope::Impl { depth, .. } | Scope::TestMod { depth } => *depth,
            Scope::Fn { depth, .. } => *depth,
        };
        if depth < open_depth {
            if let Scope::Fn { id, .. } = top {
                if let Some((_, end)) = &mut ws.fns[*id].body {
                    *end = line_no;
                }
            }
            scopes.pop();
        } else {
            break;
        }
    }
}

fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for b in code.bytes() {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Whether a (possibly accumulated) fn signature has ended, and how.
enum SigStatus {
    /// Neither `{` nor `;` seen yet outside generics.
    Open,
    /// Ends in `;` — a bodyless trait declaration.
    Declaration,
    /// A `{` opens the body.
    BodyOpens,
}

fn sig_status(sig: &str) -> SigStatus {
    // The first `{` at angle-bracket level 0 opens the body; a `;` before
    // it makes this a declaration. `where` clauses contain no braces.
    let mut angle = 0i32;
    for b in sig.bytes() {
        match b {
            b'<' => angle += 1,
            b'>' => angle = (angle - 1).max(0),
            b'{' if angle == 0 => return SigStatus::BodyOpens,
            b';' if angle == 0 => return SigStatus::Declaration,
            _ => {}
        }
    }
    SigStatus::Open
}

/// Brace-depth contribution of the signature portion *before* the body
/// opens on its final line: the fn scope starts at `depth + 1` for the
/// body's `{` (earlier signature lines contain no braces).
fn opens_before_body(_sig: &str, _last_line: &str) -> i32 {
    1
}

/// `self` appearing inside the parameter list (before the closing paren
/// of the first top-level parenthesis group).
fn sig_has_self(sig: &str) -> bool {
    let Some(open) = sig.find('(') else {
        return false;
    };
    let mut depth = 0i32;
    let bytes = sig.as_bytes();
    let mut end = sig.len();
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
    }
    lexer::has_token(&sig[open..end], "self")
}

/// If this line opens an `impl`/`trait` item, the subject type name.
fn impl_or_trait_type(code: &str) -> Option<String> {
    let rest = code
        .strip_prefix("impl")
        .or_else(|| code.strip_prefix("pub trait"))
        .or_else(|| code.strip_prefix("trait"))
        .or_else(|| code.strip_prefix("unsafe impl"))?;
    if !rest.starts_with([' ', '<']) {
        return None;
    }
    // `impl<T> Foo<T> for Bar<T>` → type after `for`; otherwise the first
    // type segment after generics.
    let rest = skip_generics(rest.trim_start());
    let subject = match lexer::find_token(rest, "for", 0) {
        Some(pos) => &rest[pos + 3..],
        None => rest,
    };
    let subject = subject.trim_start();
    let name: String = subject
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || !name.starts_with(|c: char| c.is_uppercase()) {
        None
    } else {
        Some(name)
    }
}

fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i32;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

/// If this line begins a fn item, the fn's name.
fn fn_name(code: &str) -> Option<String> {
    let pos = lexer::find_token(code, "fn", 0)?;
    // Only item position: line starts with (pub/const/unsafe/async/extern
    // qualifiers +) `fn`. Closures and `fn(..)` types never start a line
    // with these.
    let prefix = code[..pos].trim();
    const QUALS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];
    let prefix_ok = prefix.is_empty()
        || prefix.split_whitespace().all(|w| {
            QUALS.contains(&w) || (w.starts_with("pub(") && w.ends_with(')')) || w == "\"C\""
        });
    if !prefix_ok {
        return None;
    }
    let rest = code[pos + 2..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Extracts call sites from one masked body line.
fn extract_calls(ws: &mut Workspace, caller: FnId, line_no: usize, code: &str) {
    for (start, name) in lexer::idents(code) {
        let end = start + name.len();
        // Must be directly followed by `(` (allow `::<T>(` turbofish).
        let after = &code[end..];
        let after_trim = after.trim_start();
        let is_call = after_trim.starts_with('(')
            || (after_trim.starts_with("::<") && turbofish_then_paren(after_trim));
        if !is_call || NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        let before = code[..start].trim_end();
        let (kind, callee) = if let Some(recv) = before.strip_suffix('.') {
            // A receiver that is literally `self` pins the call to the
            // enclosing impl type — every workspace method callable as
            // `self.x()` is indexed under that type, so this narrowing
            // loses no workspace edges while dropping every same-named
            // method on unrelated types.
            let recv = recv.trim_end();
            let self_recv = recv.strip_suffix("self").is_some_and(|p| {
                !p.ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '.')
            });
            match (self_recv, ws.fns[caller].impl_type.clone()) {
                (true, Some(t)) => (CallKind::Qualified(t), name.to_string()),
                _ => (CallKind::Method, name.to_string()),
            }
        } else if before.ends_with("::") {
            let qual = path_segment_before(before);
            match qual {
                Some(q) if q == "Self" => {
                    // Resolved against the enclosing impl type by the
                    // caller's own impl_type at resolution time — store
                    // it now since resolution is name-table based.
                    match ws.fns[caller].impl_type.clone() {
                        Some(t) => (CallKind::Qualified(t), name.to_string()),
                        None => (CallKind::Free, name.to_string()),
                    }
                }
                Some(q) if q.starts_with(|c: char| c.is_uppercase()) => {
                    (CallKind::Qualified(q), name.to_string())
                }
                // `module::name(` — treated as a free-fn call by name.
                _ => (CallKind::Free, name.to_string()),
            }
        } else if before == "fn" || before.ends_with(" fn") {
            continue; // the definition line itself (nested fn / fn-ptr type)
        } else if name.starts_with(|c: char| c.is_uppercase()) {
            // Bare `Type(..)` is a tuple-struct/enum constructor, not a
            // workspace fn.
            continue;
        } else {
            (CallKind::Free, name.to_string())
        };
        ws.calls.push(CallSite {
            caller,
            line: line_no,
            name: callee,
            kind,
            resolved: Vec::new(),
        });
    }
}

/// Whether a `::<..>` turbofish is followed by `(`.
fn turbofish_then_paren(s: &str) -> bool {
    let mut depth = 0i32;
    for (i, b) in s.bytes().enumerate().skip(2) {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start().starts_with('(');
                }
            }
            _ => {}
        }
    }
    false
}

/// The path segment immediately before a trailing `::`.
fn path_segment_before(before: &str) -> Option<String> {
    let stripped = before.strip_suffix("::")?;
    // Drop a trailing generic args group: `Foo::<T>::` → `Foo`.
    let stripped = if stripped.ends_with('>') {
        let mut depth = 0i32;
        let mut cut = None;
        for (i, b) in stripped.bytes().enumerate().rev() {
            match b {
                b'>' => depth += 1,
                b'<' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        match cut {
            Some(i) => stripped[..i].strip_suffix("::").unwrap_or(&stripped[..i]),
            None => stripped,
        }
    } else {
        stripped
    };
    let seg: String = stripped
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if seg.is_empty() {
        None
    } else {
        Some(seg)
    }
}

impl Workspace {
    /// Fns matching a `Type::name` or bare-name pattern, tests excluded.
    pub fn find_fns(&self, type_qual: Option<&str>, name: &str) -> Vec<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && f.name == name
                    && match type_qual {
                        Some(t) => f.impl_type.as_deref() == Some(t),
                        None => true,
                    }
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The masked lines of a fn's body (defensively clamped).
    pub fn body_lines(&self, id: FnId) -> &[Line] {
        let f = &self.fns[id];
        let Some((start, end)) = f.body else {
            return &[];
        };
        let lines = &self.files[f.file].lines;
        let s = start.saturating_sub(1).min(lines.len());
        let e = end.min(lines.len());
        &lines[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        parse_source(&mut ws, "test.rs", src);
        resolve_calls(&mut ws);
        ws
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let ws = parse(
            "pub fn alpha(x: u32) -> u32 {\n    beta(x)\n}\n\nfn beta(x: u32) -> u32 { x }\n\nstruct S;\nimpl S {\n    pub fn make() -> S { S }\n    fn run(&self) -> u32 { alpha(1) }\n}\n",
        );
        let names: Vec<String> = ws.fns.iter().map(|f| f.label()).collect();
        assert_eq!(names, vec!["alpha", "beta", "S::make", "S::run"]);
        assert!(ws.fns[3].has_self);
        assert!(!ws.fns[2].has_self);
    }

    #[test]
    fn resolves_calls_conservatively() {
        let ws = parse(
            "fn top() {\n    helper();\n    let s = S::make();\n    s.run();\n}\nfn helper() {}\nstruct S;\nimpl S {\n    fn make() -> S { S }\n    fn run(&self) {}\n}\n",
        );
        let top_calls: Vec<(&str, usize)> = ws
            .calls
            .iter()
            .filter(|c| c.caller == 0)
            .map(|c| (c.name.as_str(), c.resolved.len()))
            .collect();
        assert_eq!(top_calls, vec![("helper", 1), ("make", 1), ("run", 1)]);
    }

    #[test]
    fn self_calls_resolve_to_impl_type() {
        let ws = parse(
            "struct S;\nimpl S {\n    fn a(&self) {\n        Self::b();\n    }\n    fn b() {}\n}\n",
        );
        let call = &ws.calls[0];
        assert_eq!(call.kind, CallKind::Qualified("S".into()));
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(ws.fns[call.resolved[0]].label(), "S::b");
    }

    #[test]
    fn self_receiver_narrows_to_enclosing_impl_type() {
        let ws = parse(
            "struct A;\nstruct B;\nimpl A {\n    fn go(&self) {\n        self.step();\n    }\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\n",
        );
        let call = ws.calls.iter().find(|c| c.name == "step").unwrap();
        assert_eq!(call.kind, CallKind::Qualified("A".into()));
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(ws.fns[call.resolved[0]].label(), "A::step");
    }

    #[test]
    fn non_self_receiver_stays_a_method_call() {
        let ws = parse(
            "struct A;\nstruct B;\nimpl A {\n    fn go(&self, other: &B) {\n        other.step();\n    }\n}\nimpl B {\n    fn step(&self) {}\n}\n",
        );
        let call = ws.calls.iter().find(|c| c.name == "step").unwrap();
        assert_eq!(call.kind, CallKind::Method);
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(ws.fns[call.resolved[0]].label(), "B::step");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let ws = parse(
            "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() { helper(); }\n}\n",
        );
        assert!(!ws.fns[0].is_test);
        assert!(ws.fns[1].is_test);
        assert!(ws.fns[2].is_test);
        assert!(ws.find_fns(None, "helper").is_empty());
    }

    #[test]
    fn multiline_signatures_and_impl_for() {
        let ws = parse(
            "struct W;\ntrait T {\n    fn decl(&self);\n}\nimpl T for W {\n    fn decl(\n        &self,\n    ) {\n        work();\n    }\n}\nfn work() {}\n",
        );
        let decl_impl = ws
            .fns
            .iter()
            .find(|f| f.name == "decl" && f.body.is_some())
            .unwrap();
        assert_eq!(decl_impl.impl_type.as_deref(), Some("W"));
        assert!(decl_impl.has_self);
        let calls: Vec<&str> = ws.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["work"]);
    }

    #[test]
    fn tuple_constructors_and_keywords_skipped() {
        let ws =
            parse("fn f(x: u32) -> Option<u32> {\n    if x > 1 { Some(x) } else { None }\n}\n");
        assert!(ws.calls.is_empty());
    }

    #[test]
    fn body_ranges_cover_calls() {
        let ws = parse("fn f() {\n    g();\n    g();\n}\nfn g() {}\n");
        let (s, e) = ws.fns[0].body.unwrap();
        assert!(s <= 2 && e >= 3, "body range {s}..{e}");
    }
}
