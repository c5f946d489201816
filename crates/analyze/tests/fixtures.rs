//! Fixture self-tests: every analyzer pass must catch the one violation
//! its fixture seeds, and the real workspace must stay clean.
//!
//! The fixture sources under `tests/fixtures/` are never compiled — the
//! analyzer is lexical, so the `.rs` files are plain inputs. The
//! baselines under `fixtures/unsched/` trip one pass-3 gate each: kernel
//! costs ×100 (`unschedulable`) and the parent's one-core recording
//! (`invalid-baseline`).

use std::path::{Path, PathBuf};

use rtopex_analyze::purity::{class, Seed};
use rtopex_analyze::taint::{self, tclass};
use rtopex_analyze::{graph, locks, purity, sched};

fn fixture_ws(name: &str) -> graph::Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    graph::parse_roots(&root, &[root.join(name)])
}

#[test]
fn transitive_alloc_fixture_is_caught() {
    let ws = fixture_ws("transitive_alloc");
    let seeds = [Seed {
        type_qual: Some("Rx"),
        name: "hot_decode",
        deny: class::ALL,
        why: "fixture seed",
    }];
    let v = purity::run_with_seeds(&ws, &seeds);
    let hit = v
        .iter()
        .find(|v| v.class == "alloc")
        .unwrap_or_else(|| panic!("no alloc finding: {v:#?}"));
    assert!(hit.file.ends_with("transitive_alloc/src/lib.rs"), "{hit}");
    // The witness chain must name both intermediate hops — this is
    // exactly what the retired lexical lint could not see.
    assert!(hit.msg.contains("stage_one"), "{hit}");
    assert!(hit.msg.contains("stage_two"), "{hit}");
}

#[test]
fn lock_cycle_fixture_is_caught() {
    let ws = fixture_ws("lock_cycle");
    let v = locks::run(&ws);
    assert!(
        v.iter()
            .any(|v| v.class == "lock-cycle" && v.file.ends_with("lock_cycle/src/lib.rs")),
        "{v:#?}"
    );
}

#[test]
fn guard_held_lock_fixture_is_caught() {
    let ws = fixture_ws("guard_held_lock");
    let v = locks::run(&ws);
    assert!(
        v.iter().any(|v| v.class == "guard-held-lock"
            && v.file.ends_with("guard_held_lock/src/lib.rs")),
        "{v:#?}"
    );
}

#[test]
fn sim_hot_alloc_fixture_is_caught() {
    // The shipped `on_event` seed mask: alloc/lock/clock denied, panics
    // allowed. The fixture's engine asserts (legal) and then buffers
    // per-event state on the heap (illegal) one call down.
    let ws = fixture_ws("sim_hot_alloc");
    let seeds = [Seed {
        type_qual: None,
        name: "on_event",
        deny: class::ALLOC | class::LOCK | class::CLOCK,
        why: "fixture seed",
    }];
    let v = purity::run_with_seeds(&ws, &seeds);
    let hit = v
        .iter()
        .find(|v| v.class == "alloc")
        .unwrap_or_else(|| panic!("no alloc finding: {v:#?}"));
    assert!(hit.file.ends_with("sim_hot_alloc/src/lib.rs"), "{hit}");
    assert!(hit.msg.contains("buffer_event"), "{hit}");
    // The assert! inside on_event stays legal under this mask.
    assert!(!v.iter().any(|v| v.class == "panic"), "{v:#?}");
}

#[test]
fn taint_fixture_seeds_every_class() {
    // One fixture, five sins: every taint finding class must fire on
    // the seeded decoder, proving none of the detectors is vacuous.
    let ws = fixture_ws("taint_decode");
    let sources = [taint::Source {
        type_qual: Some("Decoder"),
        name: "decode_frame",
        deny: tclass::ALL,
        why: "fixture source",
    }];
    let v = taint::run_with(&ws, &sources, &[]);
    for class in [
        "taint-panic",
        "taint-index",
        "taint-arith",
        "taint-alloc",
        "taint-loop",
    ] {
        assert!(
            v.iter()
                .any(|f| f.class == class && f.file.ends_with("taint_decode/src/lib.rs")),
            "no {class} finding: {v:#?}"
        );
    }
    // The unwrap sits one call below the source; the finding must carry
    // the witness hop, not just the source name.
    let p = v.iter().find(|f| f.class == "taint-panic").unwrap();
    assert!(p.msg.contains("finish"), "{p}");
}

const FIXTURE_KERNELS: &str = include_str!("fixtures/unsched/BENCH_kernels.json");
/// The parent's tracked baseline as recorded at `e82fe3a`: one core, no
/// hand-off block.
const ONE_CORE_KERNELS: &str = include_str!("fixtures/unsched/BENCH_kernels_e82fe3a.json");
const REAL_KERNELS: &str = include_str!("../../../BENCH_kernels.json");

#[test]
fn unschedulable_fixture_is_caught() {
    // Kernel costs x100: every shipped config's T-hat blows through its
    // Eq. 3 budget, and the audit must say so for each shipped mode.
    let a = sched::audit(FIXTURE_KERNELS, &sched::shipped_configs());
    assert!(
        a.violations.iter().any(|v| v.class == "unschedulable"),
        "{:#?}",
        a.violations
    );
}

#[test]
fn one_core_baseline_is_refused() {
    // The hand-off is a two-thread measurement: a file recorded with
    // `"cores": 1` certifies nothing, and says so once.
    let a = sched::audit(ONE_CORE_KERNELS, &sched::shipped_configs());
    assert_eq!(a.violations.len(), 1, "{:#?}", a.violations);
    assert_eq!(a.violations[0].class, "invalid-baseline");
    assert!(
        a.violations[0].msg.contains("1 core"),
        "{}",
        a.violations[0]
    );
}

/// The tracked baseline with the decode stage's mailbox hand-off set to
/// `us`, every other byte kept.
fn with_mailbox_decode_delta(us: f64) -> String {
    const KEY: &str = "\"mailbox_delta_us\": ";
    let handoff = REAL_KERNELS.find("\"handoff\"").unwrap();
    let decode = handoff + REAL_KERNELS[handoff..].find("\"decode\"").unwrap();
    let start = decode + REAL_KERNELS[decode..].find(KEY).unwrap() + KEY.len();
    let end = start + REAL_KERNELS[start..].find(' ').unwrap();
    format!("{}{us:.3}{}", &REAL_KERNELS[..start], &REAL_KERNELS[end..])
}

#[test]
fn slow_handoff_fixture_is_caught() {
    // A mailbox hand-off above the shipped δ of 60 µs: the mutex mode of
    // the cluster sweep would admit migrations that cost more than they
    // save. The steal path is untouched and must stay clean.
    let a = sched::audit(&with_mailbox_decode_delta(75.0), &sched::shipped_configs());
    let slow: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.class == "delta-too-small")
        .collect();
    assert_eq!(slow.len(), 1, "{:#?}", a.violations);
    assert!(slow[0].msg.contains("rtopex_mutex"), "{}", slow[0]);
    assert!(slow[0].msg.contains("75.0"), "{}", slow[0]);
}

/// The regression that keeps every suppression honest: the shipped
/// workspace must analyze clean, exactly as the CI gate runs it.
#[test]
fn workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    let analysis = rtopex_analyze::analyze_workspace(&root, false);
    assert!(
        analysis.violations.is_empty(),
        "workspace no longer analyzes clean:\n{}",
        analysis
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The Eq. 3 report certifies every shipped config from the tracked
    // baseline's kernel table and hand-off.
    let report = rtopex_analyze::json::Json::parse(&analysis.sched_report).unwrap();
    let configs = report.get("configs").and_then(|c| c.as_arr()).unwrap();
    assert_eq!(configs.len(), sched::shipped_configs().len());
    assert!(report.path(&["handoff", "mailbox_delta_us"]).is_some());
}
