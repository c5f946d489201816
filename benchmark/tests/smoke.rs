//! Every workload, quick mode, untraced and traced: the run is correct,
//! and what it prints is exactly what `BENCHMARK.json` names (which
//! `spec::tests` holds equal to the tables used here).

use rtopex_benchmark::spec::{self, Metric, Values};
use rtopex_benchmark::{run, Opts};

/// The workloads pin threads, open sockets and time themselves: two at
/// once on two cores would measure each other.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn names(table: &[Metric]) -> Vec<&'static str> {
    table.iter().map(|m| m.name).collect()
}

fn measured(values: &Values) -> Vec<&'static str> {
    values.iter().map(|(n, _)| *n).collect()
}

#[test]
fn every_workload_prints_its_contract_and_checks_out() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for w in spec::WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: w.name.to_string(),
                seed: 11,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let out = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            let tag = format!("{} trace {trace}", w.name);
            assert!(out.wrong.is_empty(), "{tag}: {:?}", out.wrong);
            assert!(
                out.attempted >= 1 && out.failed_share() <= spec::MAX_FAILED_SHARE,
                "{tag}"
            );

            let mut sorted = measured(&out.end_to_end);
            sorted.sort_unstable();
            let mut want = names(spec::END_TO_END);
            want.sort_unstable();
            assert_eq!(sorted, want, "{tag}");
            assert!(
                out.end_to_end
                    .iter()
                    .all(|(_, v)| v.is_finite() && *v > 0.0),
                "{tag}: end-to-end metrics are never 0: {:?}",
                out.end_to_end
            );
            if trace {
                assert_eq!(measured(&out.per_layer), names(spec::PER_LAYER), "{tag}");
                assert!(out.per_layer.iter().all(|(_, v)| v.is_finite()), "{tag}");
                let spans = rtopex_benchmark::out_dir().join(format!("trace-{}.jsonl", w.name));
                let text = std::fs::read_to_string(&spans).expect("span file written");
                assert!(
                    text.lines().count() > 100,
                    "{tag}: {} spans",
                    text.lines().count()
                );
            } else {
                assert!(out.per_layer.is_empty(), "{tag}");
            }
            let (table, values) = if trace {
                (spec::PER_LAYER, &out.per_layer)
            } else {
                (spec::END_TO_END, &out.end_to_end)
            };
            let line = spec::render_result(table, values, out.correct(), out.attempted, out.failed);
            assert!(
                line.starts_with("{\"correct\": ") && !line.contains('\n'),
                "{tag}"
            );
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let counts = |workload: &str| -> Vec<(&'static str, f64)> {
        let opts = Opts {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace: true,
            quick: true,
        };
        let exact = [
            "sim.missed",
            "sim.dropped",
            "sim.migrated",
            "transport-net.frames_per_sf",
            "transport-net.wire_bytes_per_sf",
            "lte-phy.code_blocks_per_sf",
            "lte-phy.turbo_iters_per_block",
            "workload.mean_mcs",
        ];
        run(&opts)
            .expect("quick run")
            .per_layer
            .into_iter()
            .filter(|(n, _)| exact.contains(n))
            .collect()
    };
    for w in ["sim_rtopex", "node_udp_steal_mix"] {
        let (a, b) = (counts(w), counts(w));
        assert_eq!(a, b, "{w}");
        assert!(a.iter().any(|(_, v)| *v > 0.0), "{w}: {a:?}");
    }
}
