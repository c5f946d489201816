//! `rtopex-analyze` — the whole-workspace static analyzer behind
//! `cargo xtask analyze`.
//!
//! Four passes over a conservative, name-resolved call graph of the
//! shipped crates (see DESIGN.md §8 for the construction and its
//! soundness caveats):
//!
//! 1. **Transitive hot-path purity** ([`purity`]) — from the declared
//!    hot entry points (`decode_subframe_with`, the deque operations,
//!    the `SlotBoard` stage transitions, the cluster loops), every
//!    reachable allocation, lock, panic source, blocking syscall, or
//!    clock read is flagged against the seed's per-class deny mask.
//!    This subsumes (and retires) the PR 4 lexical `hot-*` lints, which
//!    could not see two hops below a module boundary.
//! 2. **Lock-order and blocking audit** ([`locks`]) — the mutex/rwlock
//!    acquisition graph, cycles (potential deadlock), and any lock
//!    taken while a `SlotBoard` stage guard or `DeltaGuard` is held.
//! 3. **Static Eq. 3 schedulability** ([`sched`]) — the paper's
//!    deadline arithmetic evaluated from the one tracked baseline,
//!    `BENCH_kernels.json`, against every shipped scheduler config, plus
//!    δ admission sanity against its measured hand-off; a baseline
//!    recorded on fewer than two cores is refused.
//! 4. **Adversarial-input taint audit** ([`taint`]) — from the declared
//!    untrusted-byte sources (the wire codecs, `RxSession::ingest_frame`,
//!    the TCP/UDP recv paths), everything reachable is proven panic-free
//!    (including unchecked indexing and length/seq arithmetic),
//!    allocation-free, and free of input-driven unbounded loops (see
//!    DESIGN.md §9).
//!
//! Like `rtopex-check`, the crate has **zero dependencies** — it lexes
//! source text and re-derives timing from mirrored tables, with
//! dev-dependency cross-check tests pinning the mirrors to the shipped
//! constructors.

use std::fmt;
use std::path::Path;

pub mod graph;
pub mod json;
pub mod lexer;
pub mod locks;
pub mod purity;
pub mod sched;
pub mod taint;

/// One analyzer finding, pointing at a workspace-relative file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (may be empty for config-level findings).
    pub file: String,
    /// 1-based line, or 0 when the finding is not line-anchored.
    pub line: usize,
    /// Pass that produced it: `purity`, `locks`, `sched`, or `taint`.
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

/// Full-workspace analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// All gating findings across the three passes.
    pub violations: Vec<Violation>,
    /// The schedulability report body (JSON), for the CI artifact.
    pub sched_report: String,
}

/// Runs all three passes over the workspace rooted at `root`.
///
/// Every pass is lexical/arithmetic and completes in well under a
/// second; `quick` exists so the CI smoke invocation shares the full
/// job's interface and only skips emitting the schedulability report
/// artifact (the checks themselves always run).
pub fn analyze_workspace(root: &Path, quick: bool) -> Analysis {
    let ws = graph::parse_workspace(root);
    let mut violations = purity::run(&ws);
    violations.extend(locks::run(&ws));
    violations.extend(taint::run(&ws));
    let audit = sched::audit_workspace(root);
    violations.extend(audit.violations);
    Analysis {
        violations,
        sched_report: if quick { String::new() } else { audit.report },
    }
}
