//! `rtopex-benchmark`: drives the shipped crates through their public APIs
//! only, from fronthaul send to deadline verdict, and reports what a user
//! would see (end to end) and what each crate contributes (per layer).
//! See README.md for the metric glossary and the design's reasons.

pub mod aa;
pub mod inputs;
pub mod layers;
pub mod live;
pub mod probe;
mod report;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod trace;

use spec::Values;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Trials per run: each builds its connection and cluster afresh, each
/// metric is the median over trials of the per-trial statistic.
pub const TRIALS: usize = 5;
/// Operations per trial in `--quick` mode (schema and correctness only):
/// p95 needs 200 of them to arrive.
pub const QUICK_OPS: usize = 250;
/// The generator may run this late (p95, µs) before scheduled-send numbers
/// stop meaning what they say.
pub const MAX_LATE_P95_US: f64 = 500.0;

#[derive(Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measured live time of the whole run; the trials share it.
    pub seconds: f64,
    pub trace: bool,
    /// One short trial: checks schema and correctness, not speed.
    pub quick: bool,
}

pub struct Machine {
    pub nproc: usize,
    pub simd: &'static str,
    pub git_rev: String,
}

pub struct TrialSummary {
    pub sf_p50_us: f64,
    pub sf_cpu_us: f64,
    pub setup_s: f64,
    pub traced: bool,
}

pub struct Outcome {
    pub end_to_end: Values,
    /// Every per-layer metric (a traced run), or empty.
    pub per_layer: Values,
    /// Every trial on its own, for the account: the spread between trials
    /// is the first thing to look at when two runs disagree.
    pub per_trial: Vec<TrialSummary>,
    pub attempted: u64,
    pub failed: u64,
    /// What became of the failed operations, per trial that had any.
    pub failures: Vec<String>,
    /// Correctness violations: outputs or accounting that are wrong.
    pub wrong: Vec<String>,
    /// Validity preconditions this run missed: its numbers do not measure
    /// what they are credited to.
    pub invalid: Vec<String>,
    pub machine: Machine,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn valid(&self) -> bool {
        self.invalid.is_empty()
    }

    /// Outputs and accounting are right and the run measured what it is
    /// credited with. Failed operations are counted, not judged: the
    /// workloads are built so that none fails, and the limit on their
    /// share ([`spec::MAX_FAILED_SHARE`]) is for comparing commits.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.valid()
    }
}

/// Where span files go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub(crate) fn machine() -> Machine {
    let git_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git_rev = read(git_dir.join("HEAD"))
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(r) => read(git_dir.join(r)),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".to_string());
    Machine {
        nproc: rtopex_runtime::affinity::num_cpus(),
        simd: rtopex_phy::simd::active_tier().name(),
        git_rev,
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    probe::keep_freed_memory();
    let mut out = match live::spec(&opts.workload) {
        Some(spec) => report::run_live(opts, &spec)?,
        None if opts.workload == "sim_rtopex" => report::run_sim(opts)?,
        None => return Err(format!("unknown workload {}", opts.workload)),
    };
    if out.machine.nproc < 2 {
        out.invalid.push(format!(
            "nproc = {}: sender, receiver and workers need at least 2",
            out.machine.nproc
        ));
    }
    Ok(out)
}

/// A human-readable account of the run, for stderr.
pub fn describe(opts: &Opts, out: &Outcome) -> String {
    let mut s = String::new();
    let m = &out.machine;
    writeln!(
        s,
        "workload {} seed {} seconds {} trace {} | nproc {} simd {} git {}",
        opts.workload, opts.seed, opts.seconds, opts.trace, m.nproc, m.simd, m.git_rev
    )
    .unwrap();
    let unit = |name: &str| {
        spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    for (name, v) in out.end_to_end.iter().chain(&out.per_layer) {
        writeln!(s, "  {name:<40} {v:>16.4} {}", unit(name)).unwrap();
    }
    for (i, t) in out.per_trial.iter().enumerate() {
        writeln!(
            s,
            "  trial {i}: sf_p50_us {:.4} sf_cpu_us {:.4} setup_s {:.5}{}",
            t.sf_p50_us,
            t.sf_cpu_us,
            t.setup_s,
            if t.traced { " traced" } else { "" }
        )
        .unwrap();
    }
    writeln!(
        s,
        "  attempted {} failed {} ({:.4} %) valid {} correct {}",
        out.attempted,
        out.failed,
        100.0 * out.failed_share(),
        out.valid(),
        out.correct()
    )
    .unwrap();
    for w in &out.failures {
        writeln!(s, "  FAILED: {w}").unwrap();
    }
    for w in &out.wrong {
        writeln!(s, "  WRONG: {w}").unwrap();
    }
    for w in &out.invalid {
        writeln!(s, "  INVALID: {w}").unwrap();
    }
    s
}
