//! A/A mode: the same build measured against itself, the way the driver
//! judges steadiness. Two sets of `n` runs per workload, every run with
//! another seed; per end-to-end metric × workload it reports each set's
//! quartile spread (share of the median) and how far the second set's
//! median is worse than the first's, against the metric's bound.

use crate::spec::{self, Better};
use crate::stats::{median, spread};
use crate::{run, Opts};
use std::fmt::Write as _;

struct Row {
    workload: &'static str,
    metric: &'static str,
    bound: f64,
    spreads: [f64; 2],
    medians: [f64; 2],
    /// Share by which set 2's median is worse than set 1's (negative: better).
    worse: f64,
}

impl Row {
    fn within(&self) -> bool {
        let steady = self.metric == "setup_s" || self.spreads.iter().all(|&s| s <= self.bound);
        steady && self.worse <= self.bound
    }
}

/// Runs both sets, prints the table, writes `AA.json` beside the manifest.
/// `Ok(true)` when every pairing is within its bound and every run was
/// correct.
pub fn run_sets(n: usize, seconds: f64) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut all_correct = true;
    let mut worst_failed_share: f64 = 0.0;
    for w in spec::WORKLOADS {
        // values[set][metric] = one value per run
        let mut values = [
            vec![Vec::new(); spec::END_TO_END.len()],
            vec![Vec::new(); spec::END_TO_END.len()],
        ];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for i in 0..n {
                let opts = Opts {
                    workload: w.name.to_string(),
                    seed: (set * n + i + 1) as u64,
                    seconds,
                    trace: false,
                    quick: false,
                };
                let out = run(&opts)?;
                eprint!("{}", crate::describe(&opts, &out));
                all_correct &= out.correct();
                worst_failed_share = worst_failed_share.max(out.failed_share());
                for (slot, (_, v)) in per_metric.iter_mut().zip(&out.end_to_end) {
                    slot.push(*v);
                }
            }
        }
        for (k, m) in spec::END_TO_END.iter().enumerate() {
            let medians = [median(&values[0][k]), median(&values[1][k])];
            let shift = (medians[1] - medians[0]) / medians[0];
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                bound: m.bound.expect("end-to-end metrics are bounded"),
                spreads: [spread(&values[0][k]), spread(&values[1][k])],
                medians,
                worse: match m.better {
                    Better::Lower => shift,
                    Better::Higher => -shift,
                },
            });
        }
    }

    println!(
        "{:<24} {:<10} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median A'", "spr A", "spr A'", "worse", "bound"
    );
    for r in &rows {
        println!(
            "{:<24} {:<10} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
            r.workload,
            r.metric,
            r.medians[0],
            r.medians[1],
            r.spreads[0],
            r.spreads[1],
            r.worse,
            r.bound,
            if r.within() { "within" } else { "OUTSIDE" }
        );
    }
    println!(
        "worst failed share {:.5} (limit {}), every run correct: {all_correct}",
        worst_failed_share,
        spec::MAX_FAILED_SHARE
    );

    let mut json = String::from("{\n");
    let machine = crate::machine();
    writeln!(
        json,
        "  \"machine\": {{\"nproc\": {}, \"simd\": \"{}\", \"git_rev\": \"{}\"}},",
        machine.nproc, machine.simd, machine.git_rev
    )
    .unwrap();
    writeln!(json, "  \"runs_per_set\": {n},\n  \"seconds\": {seconds},").unwrap();
    writeln!(json, "  \"worst_failed_share\": {worst_failed_share},").unwrap();
    writeln!(json, "  \"rows\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"bound\": {}, \
             \"median\": [{}, {}], \"spread\": [{:.5}, {:.5}], \"worse\": {:.5}, \
             \"within\": {}}}{comma}",
            r.workload,
            r.metric,
            r.bound,
            r.medians[0],
            r.medians[1],
            r.spreads[0],
            r.spreads[1],
            r.worse,
            r.within()
        )
        .unwrap();
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/AA.json");
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;

    Ok(all_correct && rows.iter().all(Row::within))
}
