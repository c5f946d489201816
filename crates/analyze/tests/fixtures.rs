//! Fixture self-tests: every analyzer pass must catch the one violation
//! its fixture seeds, and the real workspace must stay clean.
//!
//! The fixture sources under `tests/fixtures/` are never compiled — the
//! analyzer is lexical, so the `.rs` files are plain inputs. The bench
//! JSONs under `fixtures/unsched/` are the tracked baselines doctored
//! just enough to trip one gate each.

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
const FIXTURE_NODE: &str = include_str!("fixtures/unsched/BENCH_node.json");
const FIXTURE_SIM: &str = include_str!("fixtures/unsched/BENCH_sim.json");
const REAL_KERNELS: &str = include_str!("../../../BENCH_kernels.json");
const REAL_NODE: &str = include_str!("../../../BENCH_node.json");

#[test]
fn unschedulable_fixture_is_caught() {
    // Kernel costs x100: every shipped config's T-hat blows through its
    // Eq. 3 budget, and the audit must say so for each shipped mode.
    let a = sched::audit(FIXTURE_KERNELS, REAL_NODE, &sched::shipped_configs());
    assert!(
        a.violations.iter().any(|v| v.class == "unschedulable"),
        "{:#?}",
        a.violations
    );
}

#[test]
fn capacity_order_fixture_is_caught() {
    // Doctored miss arrays: steal sustains 1 cell, mutex 3 — the
    // paper's steal >= mutex >= global ordering is violated and the
    // gate must fire on that exact class (the fixture keeps the
    // recorded counts consistent so no capacity-drift noise appears).
    let a = sched::audit(REAL_KERNELS, FIXTURE_NODE, &sched::shipped_configs());
    assert!(
        a.violations.iter().any(|v| v.class == "capacity-order"),
        "{:#?}",
        a.violations
    );
    assert!(
        !a.violations.iter().any(|v| v.class == "capacity-drift"),
        "{:#?}",
        a.violations
    );
}

#[test]
fn fleet_gate_fixture_is_caught() {
    // Doctored sim baseline: the rtopex-steal pooling curve collapsed
    // to 0.25 cells/core (2 cells per 8-core host). The gate must flag
    // both shipped steal deployments — and nothing else (the fixture
    // keeps every fit consistent with its sweep arrays, so no drift
    // noise appears).
    let a = sched::audit_sim(FIXTURE_SIM, &sched::shipped_fleet_configs());
    let fleet: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.class == "fleet-unschedulable")
        .collect();
    assert_eq!(fleet.len(), 2, "{:#?}", a.violations);
    assert!(fleet.iter().any(|v| v.msg.contains("edge-4")));
    assert!(fleet.iter().any(|v| v.msg.contains("metro-16")));
    assert_eq!(a.violations.len(), fleet.len(), "{:#?}", a.violations);
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
    assert!(analysis.sched_report.contains("capacity_ordering"));
    // The composed report carries both halves: the node-level Eq. 3
    // audit and the fleet-level pooling gate.
    assert!(analysis.sched_report.contains("\"eq3\""));
    assert!(analysis.sched_report.contains("deployments"));
}
