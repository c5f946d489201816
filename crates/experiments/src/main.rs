//! `rtopex-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! rtopex-experiments <experiment> [--quick] [--seed N]
//! rtopex-experiments all [--quick]
//! ```

use rtopex_experiments::*;

/// An experiment's entry point.
type Run = fn(&Opts);

/// Every experiment, in `all`'s order: name, description, entry point.
/// The usage text, the dispatch and `all` read this table.
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("fig1",       "load-trace variations                 (Fig. 1)", fig01::run),
    ("table1",     "processing-time model fit             (Table 1)", table1::run),
    ("fig3",       "processing-time variations, 4 panels  (Fig. 3a-d)", fig03::run),
    ("fig4",       "task times on 1 vs 2 cores, real PHY  (Fig. 4)", fig04::run),
    ("fig6",       "cloud network delay distribution      (Fig. 6)", fig06::run),
    ("fig7",       "transport latency vs antennas         (Fig. 7)", fig07::run),
    ("fig14",      "basestation load CDFs                 (Fig. 14)", fig14::run),
    ("fig15",      "deadline-miss vs RTT/2  [HEADLINE]    (Fig. 15)", fig15::run),
    ("fig16",      "schedule gaps and migrations          (Fig. 16)", fig16::run),
    ("fig17",      "deadline-miss vs offered load         (Fig. 17)", fig17::run),
    ("fig18",      "local vs migrated subtask times       (Fig. 18)", fig18::run),
    ("fig19",      "global scheduler vs core count        (Fig. 19)", fig19::run),
    ("table2",     "qualitative comparison matrix         (Table 2)", table2::run),
    ("discussion", "§5 claims: spare cores, core failure, load surges", discussion::run),
    ("ablations",  "delta / policy / recovery / cache ablations", ablations::run),
];

/// One panel of an experiment above, runnable on its own; `all` runs
/// each through its experiment.
const PANELS: &[(&str, Run)] = &[
    ("fig3a", fig03::run_a),
    ("fig3b", fig03::run_b),
    ("fig3c", fig03::run_c),
    ("fig3d", fig03::run_d),
    ("ablate-delta", ablations::run_delta),
    ("ablate-policy", ablations::run_policy),
    ("ablate-recovery", ablations::run_recovery),
    ("ablate-cache", ablations::run_cache),
    ("ablate-prb", ablations::run_prb),
    ("ablate-granularity", ablations::run_granularity),
];

const USAGE_HEAD: &str = "\
rtopex-experiments — regenerate RT-OPEX (CoNEXT'16) tables and figures

USAGE: rtopex-experiments <experiment> [--quick] [--seed N]

EXPERIMENTS:
";

const USAGE_TAIL: &str = "  all       everything above, in order
  (fig3a-fig3d and ablate-{delta,policy,recovery,cache,prb,granularity}
   run one panel of fig3 or ablations)

OPTIONS:
  --quick   smaller runs (CI-scale)
  --seed N  RNG seed (default 0xC0DE)
";

fn usage() -> String {
    let rows: String = EXPERIMENTS
        .iter()
        .map(|(name, about, _)| format!("  {name:<9} {about}\n"))
        .collect();
    format!("{USAGE_HEAD}{rows}{USAGE_TAIL}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let opts = Opts::parse(&args[1..]);
    if which == "all" {
        for (_, _, run) in EXPERIMENTS {
            run(&opts);
        }
        return;
    }
    let entry = EXPERIMENTS
        .iter()
        .map(|&(name, _, run)| (name, run))
        .chain(PANELS.iter().copied())
        .find(|&(name, _)| name == which);
    match entry {
        Some((_, run)) => run(&opts),
        None => {
            eprintln!("unknown experiment: {which}\n");
            eprint!("{}", usage());
            std::process::exit(2);
        }
    }
}
