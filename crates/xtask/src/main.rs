//! Repo automation. Four subcommands:
//!
//! * `cargo xtask lint` — annotation invariant linter (see [`lint`]).
//! * `cargo xtask analyze` — whole-workspace call-graph analyzer:
//!   transitive hot-path purity, lock-order/blocking audit and
//!   adversarial-input taint audit (see `rtopex-analyze`).
//! * `cargo xtask layering` — crate-layering gate: the core runtime
//!   must stay free of network-transport dependencies (see [`layering`]).
//! * `cargo xtask fuzz [--smoke]` — fuzzer automation: corpus replay
//!   gate (`--smoke`, CI) or a budgeted nightly sweep (see [`fuzz`]).

mod fuzz;
mod layering;
mod lint;

use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // CARGO_MANIFEST_DIR = <workspace>/crates/xtask at compile time; the
    // binary only ever runs from this repo via the cargo alias.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    match args.first().map(String::as_str) {
        Some("lint") => std::process::exit(lint::run(root)),
        Some("layering") => std::process::exit(layering::run(root)),
        Some("analyze") => std::process::exit(analyze(root)),
        Some("fuzz") => std::process::exit(fuzz::run(root, &args[1..])),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint, analyze, layering, fuzz");
            std::process::exit(2);
        }
        None => {
            eprintln!(
                "usage: cargo xtask <lint | analyze | layering | \
                 fuzz [--smoke | --seed N --iters N --budget-ms N]>"
            );
            std::process::exit(2);
        }
    }
}

/// Runs the three analyzer passes and prints findings. Returns the exit
/// code.
fn analyze(root: &Path) -> i32 {
    let violations = rtopex_analyze::analyze_workspace(root);
    for v in &violations {
        eprintln!("{v}");
    }
    if violations.is_empty() {
        eprintln!("xtask analyze: clean");
        0
    } else {
        eprintln!("xtask analyze: {} violation(s)", violations.len());
        1
    }
}
