//! The annotation invariant linter behind `cargo xtask lint`.
//!
//! Two families of line-level lints over the shipped crates (vendored
//! deps, the model checker's shim internals, and this tool are excluded):
//!
//! * **safety-comment** — every `unsafe { .. }` block and `unsafe impl`
//!   in any linted file must carry a `// SAFETY:` comment on the same
//!   line or in the comment run directly above it.
//! * **ordering-justification** — every `Ordering::SeqCst` must carry an
//!   `// ORDERING:` comment on the same line or directly above. SeqCst
//!   is the strongest (and slowest) ordering; each use must say which
//!   StoreLoad pattern or total-order argument needs it, so downgrades
//!   stay auditable against the `rtopex-check` model suites.
//!
//! The lexical `hot-alloc`/`hot-panic`/`hot-clock` lints that lived here
//! through PR 4 were retired in favour of the transitive purity pass in
//! `rtopex-analyze` (`cargo xtask analyze`): a per-file deny list could
//! not see an allocation two calls below a module boundary, while the
//! call-graph pass follows the reachable set from the declared hot entry
//! points. Their `// lint: allow(hot-*)` suppressions migrated to the
//! analyzer's `// analyze: allow(<class>): <reason>` syntax.
//!
//! Suppression syntax, one line at a time, with a mandatory reason:
//!
//! ```text
//! // lint: allow(ordering-justification): covered by the module note
//! top.store(t, Ordering::SeqCst);
//! ```
//!
//! `#[cfg(test)]` blocks are skipped entirely: the lints guard shipped
//! code, not test scaffolding.

use std::fmt;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) swept by [`lint_workspace`].
const LINT_ROOTS: &[&str] = &[
    "src",
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

/// One lint hit, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name, usable in `// lint: allow(<name>): <reason>`.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )
    }
}

/// Splits a source line into its code part and its `//` comment part,
/// masking string/char literal contents so brace counting and pattern
/// matching cannot be fooled by literals. Tracks `/* .. */` state across
/// lines via `in_block_comment`.
fn split_line(line: &str, in_block_comment: &mut bool) -> (String, String) {
    let bytes = line.as_bytes();
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
            } else {
                comment.push(bytes[i] as char);
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                comment.push_str(&line[i..]);
                break;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                // Mask the string literal body (escapes included).
                code.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            code.push('"');
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with a quote
                // one-or-two chars later ('x' or '\n'); lifetimes do not.
                let lit_len = if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    // '\x' escapes span at least 4 bytes: '\ x '
                    bytes[i + 2..]
                        .iter()
                        .position(|&b| b == b'\'')
                        .map(|p| p + 3)
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    Some(3)
                } else {
                    None
                };
                match lit_len {
                    Some(n) => {
                        code.push_str("' '");
                        i += n;
                    }
                    None => {
                        code.push('\'');
                        i += 1;
                    }
                }
            }
            b => {
                code.push(b as char);
                i += 1;
            }
        }
    }
    (code, comment)
}

/// True when `code` contains `word` as a standalone token (not a prefix
/// or suffix of a longer identifier).
fn has_token(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident(code[..start].chars().next_back().unwrap());
        let post_ok = end == code.len() || !is_ident(code[end..].chars().next().unwrap());
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Is this `unsafe` occurrence one that needs a `// SAFETY:` comment?
/// `unsafe {` and `unsafe impl` do; `unsafe fn`/`unsafe extern`/
/// `unsafe(...)` attribute forms do not (the fn *body's* blocks are
/// linted instead, per `unsafe_op_in_unsafe_fn`).
fn unsafe_needs_comment(code: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let pre_ok = start == 0 || !is_ident(code[..start].chars().next_back().unwrap());
        let post_ok = end == code.len() || !is_ident(code[end..].chars().next().unwrap());
        let rest = code[end..].trim_start();
        if pre_ok
            && post_ok
            && !rest.starts_with("fn")
            && !rest.starts_with("extern")
            && !rest.starts_with('(')
        {
            return true;
        }
        from = end;
    }
    false
}

/// Lints one file's source. `rel` is the workspace-relative path used
/// for reporting.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    let mut depth: i64 = 0;
    // Depth at which a `#[cfg(test)]` block opened; lines inside are
    // exempt from every lint.
    let mut skip_above: Option<i64> = None;
    let mut pending_test_attr = false;
    // The comment run directly above the current line, plus each line's
    // own trailing comment — where SAFETY:/ORDERING:/allow() live.
    let mut comment_run = String::new();
    let mut prev_full_line = String::new();

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let (code, comment) = split_line(raw, &mut in_block_comment);
        let trimmed = code.trim();

        if pending_test_attr && skip_above.is_none() && code.contains('{') {
            skip_above = Some(depth);
            pending_test_attr = false;
        }
        if trimmed.contains("#[cfg(test)]") || trimmed.contains("#[cfg(all(test") {
            pending_test_attr = true;
        }
        let in_test_block = skip_above.is_some() || pending_test_attr;

        if !in_test_block && !trimmed.is_empty() {
            let allow = |name: &str| {
                let tag = format!("lint: allow({name})");
                comment.contains(&tag) || prev_full_line.contains(&tag)
            };
            let mut report = |lint: &'static str, msg: String| {
                if !allow(lint) {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: line_no,
                        lint,
                        msg,
                    });
                }
            };

            if unsafe_needs_comment(&code)
                && !comment.contains("SAFETY:")
                && !comment_run.contains("SAFETY:")
            {
                report(
                    "safety-comment",
                    "`unsafe` block/impl without a `// SAFETY:` justification".to_string(),
                );
            }
            if has_token(&code, "SeqCst")
                && !comment.contains("ORDERING:")
                && !comment_run.contains("ORDERING:")
            {
                report(
                    "ordering-justification",
                    "`Ordering::SeqCst` without an `// ORDERING:` justification".to_string(),
                );
            }
        }

        // Maintain brace depth and close out a finished test block.
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_above {
            if depth <= d {
                skip_above = None;
            }
        }

        // A comment-only line extends the run above the next code line.
        // Attribute lines keep the run alive (`// SAFETY:` above
        // `#[inline] unsafe {..}` counts), and so do the middle lines of
        // a multi-line statement — a justification above `match self`
        // still covers the `.compare_exchange(.., SeqCst, ..)` four
        // lines down. The run dies at statement/block boundaries.
        if trimmed.is_empty() && !comment.is_empty() {
            comment_run.push_str(&comment);
            comment_run.push('\n');
        } else if !(trimmed.starts_with("#[") && trimmed.ends_with(']'))
            && (trimmed.ends_with(';')
                || trimmed.ends_with('{')
                || trimmed.ends_with('}')
                || trimmed.ends_with(','))
        {
            comment_run.clear();
        }
        prev_full_line = raw.to_string();
    }
    out
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every file under [`LINT_ROOTS`], rooted at `workspace_root`.
pub fn lint_workspace(workspace_root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for root in LINT_ROOTS {
        let mut files = Vec::new();
        rust_files(&workspace_root.join(root), &mut files);
        for path in files {
            let rel = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(&path) {
                Ok(src) => violations.extend(lint_source(&rel, &src)),
                Err(e) => violations.push(Violation {
                    file: rel,
                    line: 0,
                    lint: "io",
                    msg: format!("unreadable: {e}"),
                }),
            }
        }
    }
    violations
}

/// CLI entry: prints violations, returns the process exit code.
pub fn run(workspace_root: &Path) -> i32 {
    let violations = lint_workspace(workspace_root);
    for v in &violations {
        eprintln!("{v}");
    }
    if violations.is_empty() {
        eprintln!("xtask lint: clean");
        0
    } else {
        eprintln!("xtask lint: {} violation(s)", violations.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLD: &str = "crates/runtime/src/node.rs";

    fn lints(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|v| v.lint).collect()
    }

    #[test]
    fn unannotated_unsafe_block_fails_everywhere() {
        let src = "fn load(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
        assert_eq!(lints(COLD, src), vec!["safety-comment"]);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let above = "fn load(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lints(COLD, above).is_empty());
        let inline = "fn load(p: *const u32) -> u32 {\n    unsafe { *p } // SAFETY: caller guarantees p is valid.\n}\n";
        assert!(lints(COLD, inline).is_empty());
        let with_attr = "// SAFETY: table is 'static.\n#[inline]\nunsafe impl Sync for T {}\n";
        assert!(lints(COLD, with_attr).is_empty());
    }

    #[test]
    fn unsafe_fn_declaration_needs_no_block_comment() {
        // The body's unsafe *blocks* carry the comments instead.
        let src = "pub unsafe fn raw(p: *const u32) -> u32 {\n    // SAFETY: contract forwarded.\n    unsafe { *p }\n}\n";
        assert!(lints(COLD, src).is_empty());
    }

    #[test]
    fn seqcst_requires_ordering_comment() {
        let bare = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(lints(COLD, bare), vec!["ordering-justification"]);
        let justified = "fn f(a: &AtomicU64) {\n    // ORDERING: StoreLoad barrier against the stealer's top load.\n    a.store(1, Ordering::SeqCst);\n}\n";
        assert!(lints(COLD, justified).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn helper(a: &AtomicU64) {\n        a.store(1, Ordering::SeqCst);\n        unsafe { core::hint::unreachable_unchecked() }\n    }\n}\n";
        assert!(lints(COLD, src).is_empty(), "{:?}", lint_source(COLD, src));
    }

    #[test]
    fn suppression_with_reason_is_honoured_per_line() {
        let same_line = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst); // lint: allow(ordering-justification): module-level note covers it\n}\n";
        assert!(lints(COLD, same_line).is_empty());
        let line_above = "fn f(a: &AtomicU64) {\n    // lint: allow(ordering-justification): module-level note covers it\n    a.store(1, Ordering::SeqCst);\n}\n";
        assert!(lints(COLD, line_above).is_empty());
        // Suppressing one lint does not blanket the line for others.
        let wrong_name = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst); // lint: allow(safety-comment): wrong lint\n}\n";
        assert_eq!(lints(COLD, wrong_name), vec!["ordering-justification"]);
    }

    #[test]
    fn unsafe_code_lint_attributes_are_not_unsafe_blocks() {
        let src = "#![forbid(unsafe_code)]\n#![allow(unsafe_code)]\nfn f() {}\n";
        assert!(lints(COLD, src).is_empty());
    }

    #[test]
    fn justification_covers_a_multi_line_statement() {
        let src = "fn f(&self) {\n    // ORDERING: decisive CAS, totally ordered with pop's barrier.\n    match self\n        .top\n        .compare_exchange(1, 2, Ordering::SeqCst, Ordering::Relaxed)\n    {\n        _ => {}\n    }\n}\n";
        assert!(lints(COLD, src).is_empty(), "{:?}", lint_source(COLD, src));
    }

    #[test]
    fn string_literals_cannot_fool_the_linter() {
        let src = "fn f() {\n    let s = \"unsafe { SeqCst\";\n}\n";
        assert!(lints(COLD, src).is_empty());
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        // CARGO_MANIFEST_DIR = <root>/crates/xtask.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let violations = lint_workspace(&root);
        assert!(
            violations.is_empty(),
            "workspace must pass `cargo xtask lint`:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
