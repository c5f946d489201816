//! Shard-count- and seed-reproducibility guarantees of the fleet engine.
//!
//! The pooling experiment and the benchmark's fleet metric are only
//! trustworthy if the merged fleet report is a pure function of
//! (config, seed): independent of how many worker threads sharded the
//! hosts, and the same on every rerun. These tests pin both properties,
//! plus a proptest sweeping seeds so the guarantee is not an artifact of
//! one lucky seed. (What the numbers *are* is pinned by
//! `golden_report.rs`.)

use proptest::prelude::*;
use rtopex_core::global::QueuePolicy;
use rtopex_sim::{run, run_fleet, FleetConfig, SchedulerKind, SimConfig, SimReport};
use rtopex_workload::Scenario;

fn base(seed: u64) -> SimConfig {
    let mut s = Scenario::smoke_test();
    s.subframes = 400;
    let mut cfg = SimConfig::from_scenario(&s, 500);
    cfg.seed = seed;
    cfg.record_samples = false;
    cfg
}

/// Field-by-field bit equality of two reports (SimReport carries
/// sample vectors and histograms, so it does not derive PartialEq).
fn assert_reports_identical(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(a.deadline.per_bs(), b.deadline.per_bs(), "deadline: {ctx}");
    assert_eq!(a.proc_hist, b.proc_hist, "proc_hist: {ctx}");
    assert_eq!(a.dropped, b.dropped, "dropped: {ctx}");
    assert_eq!(a.crc_failures, b.crc_failures, "crc_failures: {ctx}");
    assert_eq!(
        a.migration.decode_migrated, b.migration.decode_migrated,
        "decode_migrated: {ctx}"
    );
    assert_eq!(
        a.migration.fft_migrated, b.migration.fft_migrated,
        "fft_migrated: {ctx}"
    );
    assert_eq!(
        a.migration.recoveries, b.migration.recoveries,
        "recoveries: {ctx}"
    );
}

fn all_modes() -> [SchedulerKind; 3] {
    [
        SchedulerKind::Partitioned,
        SchedulerKind::RtOpex { delta_us: 20 },
        SchedulerKind::Global {
            cores: 8,
            policy: QueuePolicy::Edf,
        },
    ]
}

/// The merged fleet report is bit-identical whether the 8 hosts are run
/// on 1, 2, or 8 worker threads — the shard layout is a pure throughput
/// knob (ISSUE 6 tentpole: "deterministic merge of SimReports so results
/// are bit-identical for any shard count").
#[test]
fn merged_report_is_identical_across_shard_counts() {
    for sched in all_modes() {
        let mut b = base(7);
        b.scheduler = sched;
        let fleet = |threads| {
            run_fleet(&FleetConfig {
                base: b.clone(),
                hosts: 8,
                threads,
            })
        };
        let r1 = fleet(1);
        for threads in [2usize, 8] {
            let rn = fleet(threads);
            assert_reports_identical(
                &r1.merged,
                &rn.merged,
                &format!("{sched:?}, {threads} threads"),
            );
        }
    }
}

/// Same seed, same report — twice through the engine.
#[test]
fn rerun_with_same_seed_is_bit_identical() {
    for sched in all_modes() {
        let mut cfg = base(13);
        cfg.scheduler = sched;
        assert_reports_identical(&run(&cfg), &run(&cfg), &format!("rerun, {sched:?}"));
    }
}

proptest! {
    // Integration proptests rerun whole simulations, so keep the case
    // count modest; 16 seeds across the full u64 range is plenty to
    // rule out seed-dependent divergence.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seed-parametric version of the two guarantees, under the
    /// migrating scheduler (the mode with the most event interleaving):
    /// rerun == run, and the 1-thread fleet == the 4-thread fleet.
    #[test]
    fn determinism_holds_for_arbitrary_seeds(seed in any::<u64>()) {
        let mut cfg = base(seed);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
        cfg.subframes = 150;

        let (first, again) = (run(&cfg), run(&cfg));
        prop_assert_eq!(first.deadline.per_bs(), again.deadline.per_bs());
        prop_assert_eq!(&first.proc_hist, &again.proc_hist);
        prop_assert_eq!(first.dropped, again.dropped);

        let fleet = |threads| run_fleet(&FleetConfig { base: cfg.clone(), hosts: 4, threads });
        let r1 = fleet(1);
        let r4 = fleet(4);
        prop_assert_eq!(r1.merged.deadline.per_bs(), r4.merged.deadline.per_bs());
        prop_assert_eq!(&r1.merged.proc_hist, &r4.merged.proc_hist);
        prop_assert_eq!(r1.merged.dropped, r4.merged.dropped);
    }
}
