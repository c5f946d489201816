//! Command line of the benchmark.
//!
//! ```text
//! rtopex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rtopex-benchmark --quick            every workload, one short trial, both modes
//! rtopex-benchmark --aa <N>           two sets of N runs per workload; writes AA.json
//! rtopex-benchmark --emit-spec        the text of BENCHMARK.json
//! ```
//!
//! A workload run prints its account on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! It exits non-zero when a correctness or validity check failed.

use rtopex_benchmark::{aa, describe, run, spec, Opts};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: rtopex-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         rtopex-benchmark --quick | --aa N [--seconds S] | --emit-spec",
        names.join("|")
    );
    ExitCode::from(2)
}

fn one(opts: &Opts) -> ExitCode {
    let out = match run(opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", describe(opts, &out));
    let (table, values) = if opts.trace {
        (spec::PER_LAYER, &out.per_layer)
    } else {
        (spec::END_TO_END, &out.end_to_end)
    };
    println!(
        "{}",
        spec::render_result(table, values, out.correct(), out.attempted, out.failed)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--emit-spec"] {
        print!("{}", spec::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut aa_runs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let parsed = (|| {
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--workload" => opts.workload = value()?.to_string(),
                "--seed" => opts.seed = value()?.parse().ok()?,
                "--seconds" => {
                    opts.seconds = value()?.parse().ok().filter(|s| *s > 0.0 && *s <= 60.0)?
                }
                "--trace" => {
                    opts.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    }
                }
                "--aa" => aa_runs = Some(value()?.parse().ok().filter(|n| *n >= 2)?),
                _ => return None,
            }
            Some(())
        })();
        if parsed.is_none() {
            return usage();
        }
    }

    if let Some(runs) = aa_runs {
        return match aa::run_sets(runs, opts.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("aa: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.quick && opts.workload.is_empty() {
        // Smoke mode: every workload, untraced and traced.
        let mut ok = true;
        for w in spec::WORKLOADS {
            for trace in [false, true] {
                let o = Opts {
                    workload: w.name.to_string(),
                    trace,
                    ..opts.clone()
                };
                ok &= one(&o) == ExitCode::SUCCESS;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if spec::workload(&opts.workload).is_none() {
        return usage();
    }
    one(&opts)
}
