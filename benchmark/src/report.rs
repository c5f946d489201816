//! Turns a run's trials into its metrics: the end-to-end table from the
//! untraced trials, the validity and correctness findings, and — for a
//! traced run — the per-layer table from live spans, replay and loops.

use crate::inputs::{self, trial_seed, CADENCE};
use crate::live::{self, LiveSpec, LiveTrial, Transport};
use crate::spec::{self, Values};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{
    layers, machine, out_dir, sim, Opts, Outcome, TrialSummary, MAX_LATE_P95_US, QUICK_OPS, TRIALS,
};
use rtopex_runtime::affinity::pin_current_thread;
use rtopex_runtime::{FedReport, SchedulerMode};
use rtopex_sim::{SchedulerKind, SimReport};
use std::time::{Duration, Instant};

/// What any trial contributes to the end-to-end table.
struct TrialStats {
    traced: bool,
    /// Samples of the workload's own interval, µs.
    sf_us: Vec<f64>,
    cpu_us_per_sf: f64,
    setup_s: f64,
}

/// Median over trials of a per-trial percentile.
fn over_trials<'a>(per_trial: impl IntoIterator<Item = &'a [f64]>, p: f64) -> Result<f64, String> {
    let each: Result<Vec<f64>, String> = per_trial
        .into_iter()
        .map(|s| percentile(s, p).map(|v| v.value))
        .collect();
    Ok(median(&each?))
}

/// The end-to-end table, from the untraced trials — or from all of them
/// when every trial was traced (a quick traced run has only one).
fn end_to_end(trials: &[TrialStats]) -> Result<Values, String> {
    let all_traced = trials.iter().all(|t| t.traced);
    let plain: Vec<&TrialStats> = trials.iter().filter(|t| all_traced || !t.traced).collect();
    let sf = || plain.iter().map(|t| t.sf_us.as_slice());
    let over = |f: fn(&TrialStats) -> f64| median(&plain.iter().map(|t| f(t)).collect::<Vec<_>>());
    Ok(vec![
        ("sf_p50_us", over_trials(sf(), 0.50)?),
        ("sf_cpu_us", over(|t| t.cpu_us_per_sf)),
        ("setup_s", over(|t| t.setup_s)),
    ])
}

fn per_trial(trials: &[TrialStats]) -> Result<Vec<TrialSummary>, String> {
    trials
        .iter()
        .map(|t| {
            Ok(TrialSummary {
                sf_p50_us: percentile(&t.sf_us, 0.50)?.value,
                sf_cpu_us: t.cpu_us_per_sf,
                setup_s: t.setup_s,
                traced: t.traced,
            })
        })
        .collect()
}

/// The per-layer table of a traced run. Starts at 0 everywhere: a layer
/// the workload never enters did no work on it.
struct Layers(Values);

impl Layers {
    fn new() -> Self {
        Layers(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, v: f64) {
        let slot = self.0.iter_mut().find(|(n, _)| *n == name);
        slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1 = v;
    }

    /// The tail of the workload's own interval, the tracing overhead, the
    /// span count, and the span file.
    fn finish(
        mut self,
        trials: &[TrialStats],
        untraced_p50: f64,
        tracer: &Tracer,
        workload: &str,
    ) -> Result<Values, String> {
        let all = trials.iter().map(|t| t.sf_us.as_slice());
        self.set("sf_p95_us", over_trials(all, 0.95)?);
        let traced = trials.iter().filter(|t| t.traced);
        let traced_p50 = over_trials(traced.map(|t| t.sf_us.as_slice()), 0.50)?;
        self.set("trace.sf_p50_us", traced_p50);
        if trials.iter().any(|t| !t.traced) {
            self.set("trace.overhead_us", traced_p50 - untraced_p50);
        }
        self.set("trace.spans", tracer.len() as f64);
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(self.0)
    }
}

fn trial_count(opts: &Opts) -> usize {
    if opts.quick {
        1
    } else {
        TRIALS
    }
}

pub fn run_live(opts: &Opts, spec: &LiveSpec) -> Result<Outcome, String> {
    let n_trials = trial_count(opts);
    let subframes = if opts.quick {
        QUICK_OPS
    } else {
        (opts.seconds / n_trials as f64 / CADENCE.as_secs_f64()) as usize
    };
    let origin = Instant::now();
    let mut trials = Vec::with_capacity(n_trials);
    for t in 0..n_trials {
        let traced = opts.trace && t % 2 == 0;
        trials.push(live::trial(
            spec,
            trial_seed(opts.seed, t),
            subframes,
            traced,
        )?);
    }
    let cells = spec.cells();
    // A node's own interval is its processing time; the fronthaul's is the
    // handoff.
    let stats: Vec<TrialStats> = trials
        .iter()
        .map(|t| TrialStats {
            traced: t.traced,
            sf_us: match &t.fed {
                Some(fed) => fed.cluster.proc_us.as_slice().to_vec(),
                None => t.handoff_us(cells),
            },
            cpu_us_per_sf: t.cpu_us_per_sf,
            setup_s: t.setup_s,
        })
        .collect();

    let mut wrong = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, t) in trials.iter().enumerate() {
        let (f, became, w) = t.account(spec);
        attempted += t.sends.len() as u64;
        failed += f;
        if f > 0 {
            failures.push(format!("trial {i}: {became}"));
        }
        wrong.extend(w.into_iter().map(|w| format!("trial {i}: {w}")));
    }

    let mut invalid = Vec::new();
    let late: Vec<Vec<f64>> = trials.iter().map(LiveTrial::late_us).collect();
    let late_p95 = over_trials(late.iter().map(Vec::as_slice), 0.95)?;
    // One short trial cannot tell a late generator from one host stall,
    // and a quick run's times are not for reading anyway.
    if late_p95 >= MAX_LATE_P95_US && !opts.quick {
        invalid.push(format!(
            "generator ran {late_p95:.0} us late at p95 (limit {MAX_LATE_P95_US} us)"
        ));
    }
    let feds: Vec<&FedReport> = trials.iter().filter_map(|t| t.fed.as_ref()).collect();
    let steals: u64 = feds.iter().map(|f| f.cluster.steals).sum();
    if let Some(mode) = spec.node {
        if !feds.iter().all(|f| f.cluster.pinned) {
            invalid.push("worker threads could not be pinned".to_string());
        }
        match mode {
            SchedulerMode::RtOpexSteal if steals == 0 => {
                invalid.push("steal mode ran without a single steal".to_string());
            }
            SchedulerMode::Partitioned if steals != 0 => {
                invalid.push(format!("partitioned mode stole {steals} subtasks"));
            }
            _ => {}
        }
    }

    let end_to_end = end_to_end(&stats)?;
    let per_layer = if opts.trace {
        let mut tracer = Tracer::new(origin, n_trials * subframes * 8);
        for (i, t) in trials.iter().enumerate().filter(|(_, t)| t.traced) {
            t.link_spans(&mut tracer, cells, (i * subframes) as u32);
        }
        let layers = live_layers(opts, spec, &trials, &stats, &mut tracer, &mut wrong)?;
        layers.finish(&stats, end_to_end[0].1, &tracer, &opts.workload)?
    } else {
        Values::new()
    };
    Ok(Outcome {
        end_to_end,
        per_layer,
        per_trial: per_trial(&stats)?,
        attempted,
        failed,
        failures,
        wrong,
        invalid,
        machine: machine(),
    })
}

/// Everything per layer that a live workload touches: what the live spans
/// and counters say, then the replay of trial 0 (always traced, so its
/// replay shares subframe ids with its live spans), then the loops.
fn live_layers(
    opts: &Opts,
    spec: &LiveSpec,
    trials: &[LiveTrial],
    stats: &[TrialStats],
    tracer: &mut Tracer,
    wrong: &mut Vec<String>,
) -> Result<Layers, String> {
    pin_current_thread(live::RECEIVER_CPU);
    let mut l = Layers::new();
    let cells = spec.cells();
    let first = &trials[0];
    let params = inputs::stream_params(cells, spec.mcs_pool, CADENCE);

    let late: Vec<Vec<f64>> = trials.iter().map(LiveTrial::late_us).collect();
    let late_p50 = over_trials(late.iter().map(Vec::as_slice), 0.50)?;
    l.set("gen.late_p50_us", late_p50);
    l.set(
        "gen.late_p95_us",
        over_trials(late.iter().map(Vec::as_slice), 0.95)?,
    );

    let handoff: Vec<Vec<f64>> = trials.iter().map(|t| t.handoff_us(cells)).collect();
    let handoff_p50 = over_trials(handoff.iter().map(Vec::as_slice), 0.50)?;
    let handoff_p95 = over_trials(handoff.iter().map(Vec::as_slice), 0.95)?;
    let send: Vec<f64> = trials
        .iter()
        .filter(|t| t.traced)
        .map(|t| median(&t.span_us("tx.send")))
        .collect();
    let mut bad_frames: u64 = trials.iter().map(|t| t.rx.bad_frames).sum();
    match spec.transport {
        Transport::Inproc => {
            l.set("transport.inproc.send_us", median(&send));
            l.set("transport.inproc.handoff_p50_us", handoff_p50);
            layers::replay_quantize(tracer, &params, &first.pool, &first.plan);
            l.set(
                "transport.quantize_us",
                tracer.layer_us(&["transport.quantize"]),
            );
        }
        Transport::Udp | Transport::Tcp => {
            let name = if spec.transport == Transport::Udp {
                let lost = |t: &LiveTrial| t.sends.len().saturating_sub(t.recvs.len());
                l.set(
                    "transport-net.udp.lost",
                    trials.iter().map(lost).sum::<usize>() as f64,
                );
                "udp"
            } else {
                "tcp"
            };
            l.set(&format!("transport-net.{name}.send_us"), median(&send));
            l.set(&format!("transport-net.{name}.handoff_p50_us"), handoff_p50);
            l.set(&format!("transport-net.{name}.handoff_p95_us"), handoff_p95);
            let wire = layers::replay_wire(tracer, &params, &first.pool, &first.plan);
            if wire.wrong > 0 {
                wrong.push(format!(
                    "{} replayed subframes left the ring altered",
                    wire.wrong
                ));
            }
            bad_frames += wire.bad_frames;
            let (write, ingest, pop) = (
                tracer.layer_us(&["wire.write"]),
                tracer.layer_us(&["session.ingest"]),
                tracer.layer_us(&["ring.pop"]),
            );
            l.set("transport-net.wire.write_us", write);
            l.set(
                "transport-net.wire.parse_us",
                tracer.layer_us(&["wire.parse"]),
            );
            l.set("transport-net.session.ingest_us", ingest);
            l.set("transport-net.ring.pop_us", pop);
            let per_sf = |v: u64| v as f64 / wire.subframes as f64;
            l.set("transport-net.frames_per_sf", per_sf(wire.frames));
            l.set("transport-net.wire_bytes_per_sf", per_sf(wire.bytes));
            l.set(
                "transport-net.unattributed_us",
                handoff_p50 - late_p50 - (write + ingest + pop),
            );
        }
    }
    l.set("transport-net.rx.bad_frames", bad_frames as f64);
    l.set("transport.seq_observe_ns", layers::seq_observe_ns());

    let Some(mode) = spec.node else {
        return Ok(l);
    };
    let phy = layers::replay_phy(tracer, &first.pool, &first.plan);
    if phy.crc_fail + phy.wrong_payload > 0 {
        wrong.push(format!(
            "replayed decodes: {} CRC failures, {} wrong payloads",
            phy.crc_fail, phy.wrong_payload
        ));
    }
    let decode = ["phy.decode", "phy.decode.block"];
    let whole = [
        "phy.subframe",
        "phy.start_job",
        "phy.fft",
        "phy.demod",
        "phy.decode",
        "phy.decode.block",
        "phy.finish",
    ];
    let phy_sf = tracer.layer_us(&whole);
    l.set("lte-phy.subframe_us", phy_sf);
    l.set("lte-phy.fft_us", tracer.layer_us(&["phy.fft"]));
    l.set("lte-phy.demod_us", tracer.layer_us(&["phy.demod"]));
    l.set("lte-phy.decode_us", tracer.layer_us(&decode));
    l.set(
        "lte-phy.decode_batch_us",
        tracer.layer_us(&["phy.decode_batch"]),
    );
    l.set(
        "lte-phy.turbo_iters_per_block",
        phy.turbo_iters as f64 / phy.code_blocks as f64,
    );
    l.set(
        "lte-phy.code_blocks_per_sf",
        phy.code_blocks as f64 / phy.subframes as f64,
    );
    l.set("lte-phy.crc_fail", phy.crc_fail as f64);

    let feds: Vec<&FedReport> = trials.iter().filter_map(|t| t.fed.as_ref()).collect();
    let sum = |f: fn(&FedReport) -> u64| feds.iter().map(|r| f(r)).sum::<u64>() as f64;
    let verdicts = sum(|r| r.cluster.proc_us.len() as u64);
    l.set(
        "runtime.steals_per_sf",
        sum(|r| r.cluster.steals) / verdicts.max(1.0),
    );
    l.set(
        "runtime.declined_steals",
        sum(|r| r.cluster.declined_steals),
    );
    l.set(
        "runtime.missed",
        sum(|r| r.cluster.deadline.overall().missed),
    );
    l.set("runtime.dropped", sum(|r| r.cluster.dropped));
    l.set("runtime.shed", sum(|r| r.shed));
    let pinned = feds.iter().all(|r| r.cluster.pinned);
    l.set("runtime.pinned", f64::from(u8::from(pinned)));
    let proc = || stats.iter().map(|t| t.sf_us.as_slice());
    // p99 needs 1000 samples a trial; a quick run has too few.
    l.set(
        "runtime.proc_p99_us",
        over_trials(proc(), 0.99).unwrap_or(0.0),
    );
    let over = proc().flatten().filter(|&&v| v > 1_500.0).count();
    l.set(
        "runtime.proc_over_1500us_share",
        100.0 * over as f64 / verdicts.max(1.0),
    );
    let proc_p50 = over_trials(proc(), 0.50)?;
    l.set("runtime.sched_overhead_us", proc_p50 - phy_sf);
    l.set("runtime.migration_gain", phy_sf / proc_p50);
    let calibrate: Vec<f64> = trials.iter().map(|t| t.calibrate_s).collect();
    l.set("runtime.calibrate_s", median(&calibrate));

    let mcs = first.plan.iter().map(|p| f64::from(spec.mcs_pool[p.pool]));
    l.set(
        "workload.mean_mcs",
        mcs.sum::<f64>() / first.plan.len() as f64,
    );
    l.set(
        "workload.trace_ns_per_sf",
        layers::trace_ns_per_sf(opts.seed),
    );
    if mode == SchedulerMode::RtOpexSteal {
        let (push_pop, steal) = layers::steal_ns();
        l.set("core.steal.push_pop_ns", push_pop);
        l.set("core.steal.steal_ns", steal);
        let (fft, decode, mailbox) = layers::migration_deltas_us();
        l.set("runtime.steal.fft_delta_us", fft);
        l.set("runtime.steal.decode_delta_us", decode);
        l.set("runtime.mailbox.decode_delta_us", mailbox);
    }
    Ok(l)
}

pub fn run_sim(opts: &Opts) -> Result<Outcome, String> {
    let n_trials = trial_count(opts);
    let measure = Duration::from_secs_f64(opts.seconds / n_trials as f64);
    let runs = opts.quick.then_some(QUICK_OPS);
    pin_current_thread(live::RECEIVER_CPU);
    let origin = Instant::now();
    // Every trial simulates the same seed: their reports must be identical.
    let trials: Vec<sim::SimTrial> = (0..n_trials)
        .map(|t| sim::trial(opts.seed, measure, runs, opts.trace && t % 2 == 0))
        .collect();
    let stats: Vec<TrialStats> = trials
        .iter()
        .map(|t| TrialStats {
            traced: t.traced,
            sf_us: t.run_us_per_sf.clone(),
            cpu_us_per_sf: t.cpu_us_per_sf,
            setup_s: t.setup_s,
        })
        .collect();

    let mut wrong = Vec::new();
    let attempted: u64 = trials.iter().map(|t| t.run_us_per_sf.len() as u64).sum();
    let mut failed: u64 = trials.iter().map(|t| t.diverged).sum();
    for (i, t) in trials.iter().enumerate().skip(1) {
        let mut pairs = t.reports.iter().zip(&trials[0].reports);
        if !pairs.all(|(a, b)| sim::same_report(a, b)) {
            wrong.push(format!(
                "trial {i} simulated a different outcome than trial 0"
            ));
            failed += t.run_us_per_sf.len() as u64;
        }
    }
    if !sim::fleet_check(opts.seed, sim::RUN_SUBFRAMES).1 {
        wrong.push("run_fleet merges differently on 1 and on 2 threads".to_string());
    }

    let end_to_end = end_to_end(&stats)?;
    let per_layer = if opts.trace {
        let mut tracer = Tracer::new(origin, attempted as usize + 16);
        let mut run_id = 0;
        for t in trials.iter().filter(|t| t.traced) {
            let end = t.runs.last().map_or(t.started, |r| r.1);
            let root = tracer.record("trial", None, None, t.started, end);
            let setup_end = t.started + Duration::from_secs_f64(t.setup_s);
            tracer.record("trial.setup", Some(root), None, t.started, setup_end);
            for &(start, end) in &t.runs {
                tracer.record("sim.run", Some(root), Some(run_id), start, end);
                run_id += 1;
            }
        }
        let sf_p50 = end_to_end[0].1;
        let layers = sim_layers(opts, &trials[0].reports, sf_p50);
        layers.finish(&stats, sf_p50, &tracer, &opts.workload)?
    } else {
        Values::new()
    };
    Ok(Outcome {
        end_to_end,
        per_layer,
        per_trial: per_trial(&stats)?,
        attempted,
        failed,
        failures: Vec::new(),
        wrong,
        invalid: Vec::new(),
        machine: machine(),
    })
}

fn sim_layers(opts: &Opts, reports: &[SimReport], sf_p50: f64) -> Layers {
    let mut l = Layers::new();
    // The other engines on the same scenario, long enough to be steady.
    let long = if opts.quick { 2_000 } else { 100_000 };
    l.set("sim.rtopex_sf_per_s", 1e6 / sf_p50);
    l.set(
        "sim.partitioned_sf_per_s",
        sim::engine_sf_per_s(opts.seed, long, SchedulerKind::Partitioned),
    );
    let global = SchedulerKind::Global {
        cores: 2 * inputs::SIM_CELLS,
        policy: rtopex_core::global::QueuePolicy::Edf,
    };
    l.set(
        "sim.global_sf_per_s",
        sim::engine_sf_per_s(opts.seed, long, global),
    );
    l.set(
        "sim.fleet_t2_sf_per_s",
        sim::fleet_check(opts.seed, long / 4).0,
    );
    let total = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    l.set("sim.missed", total(|r| r.deadline.overall().missed));
    l.set("sim.dropped", total(|r| r.dropped));
    l.set(
        "sim.migrated",
        total(|r| r.migration.fft_migrated + r.migration.decode_migrated),
    );
    l.set("sim.wheel.push_pop_ns", layers::wheel_push_pop_ns());
    l.set(
        "sim.gen.task_ns",
        layers::gen_task_ns(&sim::variants(opts.seed)[0]),
    );
    l.set("core.migration.plan_ns", layers::plan_migration_ns());
    l.set(
        "workload.trace_ns_per_sf",
        layers::trace_ns_per_sf(opts.seed),
    );
    l.set("model.task_time_ns", layers::task_time_ns());
    l
}
