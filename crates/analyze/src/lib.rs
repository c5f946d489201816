//! `rtopex-analyze` — the whole-workspace static analyzer behind
//! `cargo xtask analyze`.
//!
//! Three passes over a conservative, name-resolved call graph of the
//! shipped crates (see DESIGN.md §8 for the construction and its
//! soundness caveats):
//!
//! 1. **Transitive hot-path purity** ([`purity`]) — from the declared
//!    hot entry points (the `SlabJob` decode's, the deque operations,
//!    the `SlotBoard` stage transitions, the cluster loops), every
//!    reachable allocation, lock, panic source, blocking syscall, or
//!    clock read is flagged against the seed's per-class deny mask.
//!    This subsumes (and retires) the PR 4 lexical `hot-*` lints, which
//!    could not see two hops below a module boundary.
//! 2. **Lock-order and blocking audit** ([`locks`]) — the mutex/rwlock
//!    acquisition graph, cycles (potential deadlock), and any lock
//!    taken while a `SlotBoard` stage guard or `DeltaGuard` is held.
//! 3. **Adversarial-input taint audit** ([`taint`]) — from the declared
//!    untrusted-byte sources (the wire codecs, `RxSession::ingest_frame`,
//!    the TCP/UDP recv paths), everything reachable is proven panic-free
//!    (including unchecked indexing and length/seq arithmetic),
//!    allocation-free, and free of input-driven unbounded loops (see
//!    DESIGN.md §9).
//!
//! Like `rtopex-check`, the crate has **zero dependencies**: it lexes
//! source text and reads no other file. The paper's Eq. 3 deadline is not
//! certified here; `rtopex-node` checks it at start-up from the host's
//! own calibration (`CranCluster::check_eq3`).

use std::fmt;
use std::path::Path;

pub mod graph;
pub mod lexer;
pub mod locks;
pub mod purity;
pub mod taint;

/// One analyzer finding, pointing at a workspace-relative file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (may be empty for config-level findings).
    pub file: String,
    /// 1-based line, or 0 when the finding is not line-anchored.
    pub line: usize,
    /// Pass that produced it: `purity`, `locks`, or `taint`.
    pub pass: &'static str,
    /// Finding class, usable in `// analyze: allow(<class>): <reason>`
    /// where a suppression applies.
    pub class: &'static str,
    /// Human-readable explanation with the witness chain.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "[{}/{}] {}", self.pass, self.class, self.msg)
        } else {
            write!(
                f,
                "{}:{}: [{}/{}] {}",
                self.file, self.line, self.pass, self.class, self.msg
            )
        }
    }
}

/// Runs the three passes over the workspace rooted at `root` and
/// returns every gating finding.
pub fn analyze_workspace(root: &Path) -> Vec<Violation> {
    let ws = graph::parse_workspace(root);
    let mut violations = purity::run(&ws);
    violations.extend(locks::run(&ws));
    violations.extend(taint::run(&ws));
    violations
}
