//! Fixture self-tests: every analyzer pass must catch the one violation
//! its fixture seeds, and the real workspace must stay clean.
//!
//! The fixture sources under `tests/fixtures/` are never compiled — the
//! analyzer is lexical, so the `.rs` files are plain inputs.

use std::path::{Path, PathBuf};

use rtopex_analyze::purity::{class, Seed};
use rtopex_analyze::taint::{self, tclass};
use rtopex_analyze::{graph, locks, purity};

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
    let violations = rtopex_analyze::analyze_workspace(&root);
    assert!(
        violations.is_empty(),
        "workspace no longer analyzes clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
