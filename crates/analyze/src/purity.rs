//! Pass 1 — transitive hot-path purity.
//!
//! Seeds the call graph at the declared hot entry points (the PHY
//! decode path, the steal/run loops, the `SlotBoard` stage transitions)
//! and walks every reachable workspace fn, flagging lines that match an
//! effect deny-list the seed forbids: heap allocation, locking,
//! panicking (`unwrap`/`expect`/`assert!`/`panic!`-family), blocking
//! syscalls (sleep/park/join/channel/IO), and clock reads.
//!
//! Each seed carries its own deny *mask*: the PHY kernels and deque
//! operations must be free of all five effect classes, while e.g.
//! `SlotBoard::publish`/`enter` legitimately take the stage `RwLock`
//! (the lock IS the publication protocol) and `SlotBoard::wait`
//! legitimately reads the clock (its spin is deadline-bounded). A BFS
//! from one seed does not descend into another seed's root — that fn is
//! audited under its own, possibly different, mask (seed shadowing).
//!
//! Suppressions (reason mandatory, same line or the comment run
//! directly above):
//!
//! ```text
//! // analyze: allow(alloc): one-time ring construction at node setup
//! // analyze: allow(call:prepare): warm path proven allocation-free by tests/alloc_regression.rs
//! ```
//!
//! Effects on *call-site lines* are scanned even when the callee is
//! external (std/vendored), which is what keeps the unresolved part of
//! the graph sound: `v.to_vec()` is flagged by the line scan whether or
//! not `to_vec` resolves.

use std::collections::{HashMap, VecDeque};

use crate::graph::{FnId, Workspace};
use crate::lexer::Line;
use crate::Violation;

/// Effect classes as a bitmask.
pub mod class {
    pub const ALLOC: u8 = 1 << 0;
    pub const PANIC: u8 = 1 << 1;
    pub const LOCK: u8 = 1 << 2;
    pub const BLOCK: u8 = 1 << 3;
    pub const CLOCK: u8 = 1 << 4;
    pub const ALL: u8 = ALLOC | PANIC | LOCK | BLOCK | CLOCK;
}

/// Suppression/display name of each class bit.
pub fn class_name(bit: u8) -> &'static str {
    match bit {
        class::ALLOC => "alloc",
        class::PANIC => "panic",
        class::LOCK => "lock",
        class::BLOCK => "block",
        class::CLOCK => "clock",
        _ => "effect",
    }
}

/// One hot entry point and the effect classes denied along every path
/// reachable from it.
#[derive(Debug, Clone, Copy)]
pub struct Seed {
    /// `impl` type qualifier, if the seed is a method/associated fn.
    pub type_qual: Option<&'static str>,
    /// Fn name.
    pub name: &'static str,
    /// Denied effect classes ([`class`] bits).
    pub deny: u8,
    /// Why this seed has this mask — printed in reports.
    pub why: &'static str,
}

/// A PHY decode entry point: every effect class is denied.
const fn phy_seed(type_qual: &'static str, name: &'static str) -> Seed {
    Seed {
        type_qual: Some(type_qual),
        name,
        deny: class::ALL,
        why: "per-subframe PHY decode inside the Eq. 3 budget; tests/alloc_regression.rs proves 0 steady-state allocs",
    }
}

/// The declared hot entry points of the workspace.
///
/// Masks encode each seed's *contract*, not a wish: subframe decode and
/// the deque operations run inside the Eq. 3 budget on every subframe
/// and must be pure; the cluster's orchestration fns legitimately lock
/// slot mutexes and read the per-subframe clock but must never allocate
/// or panic; the worker loop and the measurement probes only promise not
/// to panic.
pub const SEEDS: &[Seed] = &[
    // — PHY decode path (the slab job's entry points): everything is
    //   denied. —
    phy_seed("UplinkRx", "start_job_in"),
    phy_seed("SlabJob", "run_local"),
    phy_seed("SlabJob", "run_fft_batch_local"),
    phy_seed("SlabJob", "run_demod_subtask_local"),
    phy_seed("SlabJob", "run_decode_subtask_local"),
    phy_seed("SlabJob", "run_decode_batch_local"),
    phy_seed("SlabJob", "finish"),
    phy_seed("UplinkRx", "run_fft_batch_into"),
    phy_seed("UplinkRx", "run_decode_subtask_into"),
    // — Work-stealing deque: everything is denied. —
    Seed {
        type_qual: Some("Worker"),
        name: "push",
        deny: class::ALL,
        why: "owner-side deque op on the per-subframe fanout path",
    },
    Seed {
        type_qual: Some("Worker"),
        name: "pop",
        deny: class::ALL,
        why: "owner-side deque op on the per-subframe acquire path",
    },
    Seed {
        type_qual: Some("Stealer"),
        name: "steal",
        deny: class::ALL,
        why: "thief-side deque op on idle cores' steal path",
    },
    Seed {
        type_qual: Some("DeltaGuard"),
        name: "admit",
        deny: class::ALL,
        why: "Alg. 1 delta admission decided at steal time",
    },
    // — SlotBoard stage transitions: per-method contracts. —
    Seed {
        type_qual: Some("SlotBoard"),
        name: "publish",
        deny: class::ALL & !class::LOCK,
        why: "stage transition; the stage RwLock IS the publication protocol",
    },
    Seed {
        type_qual: Some("SlotBoard"),
        name: "enter",
        deny: class::ALL & !class::LOCK,
        why: "epoch-validated stage entry; takes the stage read lock by design",
    },
    Seed {
        type_qual: Some("SlotBoard"),
        name: "poll",
        deny: class::ALL,
        why: "lock-free readiness probe used from the steal loop",
    },
    Seed {
        type_qual: Some("SlotBoard"),
        name: "wait",
        deny: class::ALL & !class::CLOCK,
        why: "deadline-bounded spin; the clock read enforces the 50 ms cap",
    },
    Seed {
        type_qual: Some("StageGuard"),
        name: "complete",
        deny: class::ALL,
        why: "release-store stage completion on the hot path",
    },
    Seed {
        type_qual: Some("StageGuard"),
        name: "decline",
        deny: class::ALL,
        why: "release-store stage decline on the hot path",
    },
    // — Cluster runtime orchestration: slot locks and per-subframe clock
    //   reads are the design; allocation and panicking are not. —
    Seed {
        type_qual: None,
        name: "process_subframe",
        deny: class::ALLOC | class::PANIC,
        why: "per-subframe staged decode orchestration; slot locks and deadline clock reads are part of the protocol",
    },
    Seed {
        type_qual: None,
        name: "try_steal",
        deny: class::ALLOC | class::PANIC,
        why: "idle-core steal path; takes slot mutexes under the stage guard by design",
    },
    Seed {
        type_qual: None,
        name: "fanout",
        deny: class::ALLOC | class::PANIC,
        why: "both RT-OPEX modes' ticket hand-out (deque push or inbox send) and the absorb/recover tail over preallocated slot arenas",
    },
    Seed {
        type_qual: None,
        name: "run_stage",
        deny: class::ALLOC | class::PANIC,
        why: "one migratable stage of process_subframe (gate, publication, fan-out choice); carved from it, same contract",
    },
    Seed {
        type_qual: None,
        name: "execute_stolen",
        deny: class::ALLOC | class::PANIC,
        why: "helper-side execution into the victim's slot, run by try_steal's thieves and by mutex-mode hosts (run_migrated); takes the slot mutex under the stage guard by design",
    },
    // — Network fronthaul rx hot path: one frame from the io thread into
    //   the preallocated assembly slots / swap ring. Allocation and
    //   panicking are denied (tests/alloc_regression.rs proves the
    //   steady state); the parking_lot slot locks are the handoff
    //   protocol and the io thread owns no deadline, so locks and clock
    //   reads stay legal. —
    Seed {
        type_qual: Some("RxSession"),
        name: "ingest_frame",
        deny: class::ALLOC | class::PANIC,
        why: "per-frame rx ingest on the io thread; transport-net/tests/alloc_regression.rs proves 0 steady-state allocs",
    },
    // — Simulator per-event hot loop (`Engine::on_event`, the only one):
    //   it promises an allocation-free, lock-free, clock-free steady
    //   state (fleet throughput and determinism both depend on it);
    //   panics are allowed — the engine asserts invariants with
    //   expect/unreachable. —
    Seed {
        type_qual: None,
        name: "on_event",
        deny: class::ALLOC | class::LOCK | class::CLOCK,
        why: "discrete-event hot loop; tests/alloc_regression.rs proves 0 steady-state allocs per subframe",
    },
    // — Run loops and the migration-overhead probes: must not panic. —
    Seed {
        type_qual: None,
        name: "worker_loop",
        deny: class::PANIC,
        why: "long-running per-core loop; a panic kills the core silently",
    },
    Seed {
        type_qual: None,
        name: "measure_migration_overhead",
        deny: class::PANIC,
        why: "timed probe; a panic poisons the calibration",
    },
    Seed {
        type_qual: None,
        name: "measure_steal_overhead",
        deny: class::PANIC,
        why: "timed probe; a panic poisons the calibration",
    },
];

/// Heap-allocation constructors and allocating adapters.
pub(crate) const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    "Box::new",
    "String::new",
    "String::from",
    "format!",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    "with_capacity(",
    ".collect(",
];

/// Panic sources (`debug_assert!` stays legal: it compiles out of
/// release builds; bounds-checked indexing is deliberately NOT pattern-
/// matched — see DESIGN.md §8 caveats).
pub(crate) const PANIC_PATTERNS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Lock acquisitions (mutex/rwlock guards, condvars).
const LOCK_PATTERNS: &[&str] = &[".lock(", ".read(", ".write(", "Condvar::"];

/// Blocking syscalls / IO / channel ops.
const BLOCK_PATTERNS: &[&str] = &[
    "thread::sleep",
    "sleep(",
    ".park(",
    "park_timeout",
    ".join(",
    ".recv(",
    ".recv_timeout(",
    ".send(",
    "File::",
    "read_to_string",
    "read_to_end",
    "stdin(",
    "stdout(",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
];

/// Syscall-backed clock reads.
const CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

fn patterns_for(bit: u8) -> &'static [&'static str] {
    match bit {
        class::ALLOC => ALLOC_PATTERNS,
        class::PANIC => PANIC_PATTERNS,
        class::LOCK => LOCK_PATTERNS,
        class::BLOCK => BLOCK_PATTERNS,
        class::CLOCK => CLOCK_PATTERNS,
        _ => &[],
    }
}

/// Pattern match with a token-start guard for identifier-leading
/// patterns, so `debug_assert!` never trips the `assert!` pattern
/// (patterns starting with `.` need no guard — `x.unwrap(` is a hit).
pub(crate) fn hit(code: &str, pat: &str) -> bool {
    let needs_guard = pat.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let pre = code[..start].chars().next_back();
        let pre_ident = pre.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !needs_guard || !pre_ident {
            return true;
        }
        from = start + pat.len();
    }
    false
}

/// Looks for `analyze: allow(<what>): <reason>` covering `line_no`
/// (same-line comment or the comment run directly above). Returns the
/// reason if present and nonempty.
pub fn suppression(lines: &[Line], line_no: usize, what: &str) -> Option<String> {
    let needle = format!("analyze: allow({what}):");
    let check = |l: &Line| -> Option<String> {
        let pos = l.comment.find(&needle)?;
        let reason = l.comment[pos + needle.len()..].trim();
        if reason.is_empty() {
            None
        } else {
            Some(reason.to_string())
        }
    };
    let idx = line_no.checked_sub(1)?;
    let line = lines.get(idx)?;
    if let Some(r) = check(line) {
        return Some(r);
    }
    // Comment run directly above: lines whose code part is empty.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let above = &lines[i];
        if !above.code.trim().is_empty() {
            break;
        }
        if above.comment.trim().is_empty() {
            break;
        }
        if let Some(r) = check(above) {
            return Some(r);
        }
    }
    None
}

/// Runs the purity pass with the default [`SEEDS`].
pub fn run(ws: &Workspace) -> Vec<Violation> {
    run_with_seeds(ws, SEEDS)
}

/// Runs the purity pass with an explicit seed list (fixture tests).
pub fn run_with_seeds(ws: &Workspace, seeds: &[Seed]) -> Vec<Violation> {
    let mut out = Vec::new();

    // Fns that are themselves seed roots: BFS from one seed stops at
    // another seed's root (it is audited under its own mask).
    let mut seed_roots: HashMap<FnId, usize> = HashMap::new();
    let mut roots_of: Vec<Vec<FnId>> = Vec::with_capacity(seeds.len());
    for (si, seed) in seeds.iter().enumerate() {
        let ids = ws.find_fns(seed.type_qual, seed.name);
        if ids.is_empty() {
            out.push(Violation {
                file: String::new(),
                line: 0,
                pass: "purity",
                class: "seed-missing",
                msg: format!(
                    "hot-path seed `{}` not found in the workspace — update the seed table in crates/analyze/src/purity.rs",
                    seed_label(seed)
                ),
            });
        }
        for &id in &ids {
            seed_roots.entry(id).or_insert(si);
        }
        roots_of.push(ids);
    }

    for (si, seed) in seeds.iter().enumerate() {
        for &root in &roots_of[si] {
            audit_seed(ws, seed, root, &seed_roots, si, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.msg).cmp(&(&b.file, b.line, &b.msg)));
    // One finding per (file, line, class) — the first witness chain is
    // enough. Line-0 findings (e.g. seed-missing) have no anchor, so
    // they dedup on the message instead.
    out.dedup_by(|a, b| {
        a.file == b.file
            && a.line == b.line
            && a.class == b.class
            && (a.line != 0 || a.msg == b.msg)
    });
    out
}

fn seed_label(seed: &Seed) -> String {
    match seed.type_qual {
        Some(t) => format!("{}::{}", t, seed.name),
        None => seed.name.to_string(),
    }
}

fn audit_seed(
    ws: &Workspace,
    seed: &Seed,
    root: FnId,
    seed_roots: &HashMap<FnId, usize>,
    seed_idx: usize,
    out: &mut Vec<Violation>,
) {
    // BFS with parent tracking for witness chains.
    let mut parent: HashMap<FnId, FnId> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    parent.insert(root, root);
    queue.push_back(root);

    while let Some(id) = queue.pop_front() {
        scan_fn(ws, seed, root, id, &parent, out);
        for &ci in &ws.calls_by_fn[id] {
            let call = &ws.calls[ci];
            let file_lines = &ws.files[ws.fns[id].file].lines;
            // Per-edge suppression prunes the edge for every class.
            if suppression(file_lines, call.line, &format!("call:{}", call.name)).is_some() {
                continue;
            }
            for &callee in &call.resolved {
                if ws.fns[callee].is_test || parent.contains_key(&callee) {
                    continue;
                }
                // Seed shadowing: another seed's root is audited under
                // its own mask.
                if let Some(&other) = seed_roots.get(&callee) {
                    if other != seed_idx {
                        continue;
                    }
                }
                parent.insert(callee, id);
                queue.push_back(callee);
            }
        }
    }
}

fn scan_fn(
    ws: &Workspace,
    seed: &Seed,
    root: FnId,
    id: FnId,
    parent: &HashMap<FnId, FnId>,
    out: &mut Vec<Violation>,
) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    for line in ws.body_lines(id) {
        for bit in [
            class::ALLOC,
            class::PANIC,
            class::LOCK,
            class::BLOCK,
            class::CLOCK,
        ] {
            if seed.deny & bit == 0 {
                continue;
            }
            let Some(pat) = patterns_for(bit).iter().find(|p| hit(&line.code, p)) else {
                continue;
            };
            if suppression(&file.lines, line.no, class_name(bit)).is_some() {
                continue;
            }
            let chain = witness_chain(ws, root, id, parent);
            out.push(Violation {
                file: file.path.clone(),
                line: line.no,
                pass: "purity",
                class: class_name(bit),
                msg: format!(
                    "`{pat}` on a hot path: reachable from seed `{}` via {chain} (seed contract: {}); fix it or annotate `// analyze: allow({}): <reason>`",
                    seed_label(seed),
                    seed.why,
                    class_name(bit),
                ),
            });
        }
    }
}

fn witness_chain(ws: &Workspace, root: FnId, id: FnId, parent: &HashMap<FnId, FnId>) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while cur != root {
        let Some(&p) = parent.get(&cur) else { break };
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&f| ws.fns[f].label())
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{parse_source, resolve_calls, Workspace};

    fn ws(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        parse_source(&mut ws, "t.rs", src);
        resolve_calls(&mut ws);
        ws
    }

    const SEED: &[Seed] = &[Seed {
        type_qual: None,
        name: "hot",
        deny: class::ALL,
        why: "test seed",
    }];

    #[test]
    fn transitive_alloc_is_flagged() {
        let w = ws("fn hot() {\n    mid();\n}\nfn mid() {\n    leaf();\n}\nfn leaf() {\n    let v = Vec::new();\n    drop(v);\n}\n");
        let v = run_with_seeds(&w, SEED);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, "alloc");
        assert!(v[0].msg.contains("hot -> mid -> leaf"), "{}", v[0].msg);
    }

    #[test]
    fn line_suppression_with_reason_clears_it() {
        let w = ws("fn hot() {\n    // analyze: allow(alloc): one-time setup\n    let v = Vec::new();\n    drop(v);\n}\n");
        assert!(run_with_seeds(&w, SEED).is_empty());
    }

    #[test]
    fn suppression_without_reason_does_not_count() {
        let w =
            ws("fn hot() {\n    let v = Vec::new(); // analyze: allow(alloc):\n    drop(v);\n}\n");
        assert_eq!(run_with_seeds(&w, SEED).len(), 1);
    }

    #[test]
    fn edge_suppression_prunes_the_callee() {
        let w = ws("fn hot() {\n    // analyze: allow(call:cold): setup-only branch proven unreachable per subframe\n    cold();\n}\nfn cold() {\n    let v = Vec::new();\n    drop(v);\n}\n");
        assert!(run_with_seeds(&w, SEED).is_empty());
    }

    #[test]
    fn seed_shadowing_stops_descent() {
        let seeds: &[Seed] = &[
            Seed {
                type_qual: None,
                name: "hot",
                deny: class::ALL,
                why: "strict",
            },
            Seed {
                type_qual: None,
                name: "relaxed",
                deny: class::PANIC,
                why: "relaxed",
            },
        ];
        // `relaxed` allocates, which its own mask allows; `hot` calling
        // `relaxed` must not re-audit it under the strict mask.
        let w = ws("fn hot() {\n    relaxed();\n}\nfn relaxed() {\n    let v = Vec::new();\n    drop(v);\n}\n");
        assert!(run_with_seeds(&w, seeds).is_empty());
    }

    #[test]
    fn missing_seed_is_reported() {
        let w = ws("fn other() {}\n");
        let v = run_with_seeds(&w, SEED);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, "seed-missing");
    }

    #[test]
    fn debug_assert_is_legal() {
        let w = ws("fn hot() {\n    debug_assert!(true);\n}\n");
        assert!(run_with_seeds(&w, SEED).is_empty());
    }

    #[test]
    fn mask_gates_classes() {
        let seeds: &[Seed] = &[Seed {
            type_qual: None,
            name: "hot",
            deny: class::PANIC,
            why: "panic only",
        }];
        let w = ws("fn hot() {\n    let v = Vec::new();\n    v.first().unwrap();\n}\n");
        let v = run_with_seeds(&w, seeds);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, "panic");
    }
}
