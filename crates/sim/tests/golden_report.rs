//! Golden `SimReport`s: the numbers `rtopex_sim::run` produced at commit
//! `730fbc0` (two engines, two timelines), pinned so the single-engine
//! simulator is held to them counter for counter and bin for bin.
//!
//! Public API only. RTT/2 = 600 µs on `Scenario::smoke_test()` puts every
//! scheduler in the regime where it misses, drops, migrates and recovers,
//! so no pinned column is trivially zero for the mode that owns it.

use rtopex_core::global::QueuePolicy;
use rtopex_sim::{run, SchedulerKind, SimConfig};
use rtopex_workload::Scenario;

/// What one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    missed: [u64; 2],
    dropped: u64,
    crc_failures: u64,
    fft_migrated: u64,
    decode_migrated: u64,
    recoveries: u64,
    whole_tasks: u64,
    /// `(count, FNV-1a over the bins then the two out-of-range counters)`.
    proc_hist: (u64, u64),
}

fn observe(sched: SchedulerKind, seed: u64, stressed: bool) -> Golden {
    let mut cfg = SimConfig::from_scenario(&Scenario::smoke_test(), 600);
    cfg.scheduler = sched;
    cfg.seed = seed;
    if stressed {
        // One core per cell plus one spare, noisy hosts, a weak channel:
        // backlog (whole-task moves), recoveries and NACKs all occur.
        cfg.cores_per_bs = Some(1);
        cfg.spare_cores = 1;
        cfg.overrun_prob = 0.5;
        cfg.overrun_factor = 4.0;
        cfg.snr_db -= 6.0;
    }
    let r = run(&cfg);
    let per_bs = r.deadline.per_bs();
    let (below, above) = r.proc_hist.out_of_range();
    let fnv = r
        .proc_hist
        .bins()
        .iter()
        .chain([&below, &above])
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
    Golden {
        missed: [per_bs[0].missed, per_bs[1].missed],
        dropped: r.dropped,
        crc_failures: r.crc_failures,
        fft_migrated: r.migration.fft_migrated,
        decode_migrated: r.migration.decode_migrated,
        recoveries: r.migration.recoveries,
        whole_tasks: r.migration.whole_tasks,
        proc_hist: (r.proc_hist.count(), fnv),
    }
}

/// Shorthand for one table row's expectation, in field order.
#[allow(clippy::too_many_arguments)]
fn g(
    missed: [u64; 2],
    dropped: u64,
    crc_failures: u64,
    fft_migrated: u64,
    decode_migrated: u64,
    recoveries: u64,
    whole_tasks: u64,
    proc_hist: (u64, u64),
) -> Golden {
    Golden {
        missed,
        dropped,
        crc_failures,
        fft_migrated,
        decode_migrated,
        recoveries,
        whole_tasks,
        proc_hist,
    }
}

#[test]
fn reports_match_the_values_recorded_at_730fbc0() {
    let part = SchedulerKind::Partitioned;
    let semi = SchedulerKind::SemiPartitioned;
    let rtopex = SchedulerKind::RtOpex { delta_us: 20 };
    let global = SchedulerKind::Global {
        cores: 8,
        policy: QueuePolicy::Edf,
    };
    #[rustfmt::skip]
    let table = [
        // (scheduler, seed, stressed) → missed/BS, dropped, crc, fft, decode, recoveries, whole, hist
        (part, 1, false, g([11, 2], 13, 0, 0, 0, 0, 0, (3987, 11_447_509_867_275_616_522))),
        (part, 7, false, g([14, 4], 18, 0, 0, 0, 0, 0, (3982, 8_903_768_899_053_139_463))),
        (semi, 1, false, g([11, 2], 13, 0, 0, 0, 0, 0, (3987, 11_447_509_867_275_616_522))),
        (semi, 7, false, g([14, 4], 18, 0, 0, 0, 0, 0, (3982, 8_903_768_899_053_139_463))),
        (rtopex, 1, false, g([1, 0], 1, 0, 3962, 4547, 0, 0, (3999, 14_702_947_631_890_013_887))),
        (rtopex, 7, false, g([2, 1], 3, 0, 3958, 4506, 0, 0, (3997, 8_857_152_618_652_523_219))),
        (global, 1, false, g([17, 2], 0, 0, 0, 0, 0, 0, (4000, 13_542_182_756_967_468_787))),
        (global, 7, false, g([21, 6], 0, 0, 0, 0, 0, 0, (4000, 15_502_386_592_316_565_683))),
        (part, 1, true, g([41, 15], 56, 0, 0, 0, 0, 0, (3944, 7_301_386_723_388_707_091))),
        (part, 7, true, g([41, 16], 57, 0, 0, 0, 0, 0, (3943, 11_674_724_146_854_538_828))),
        (semi, 1, true, g([20, 6], 18, 0, 0, 0, 0, 172, (3982, 11_954_217_869_240_760_753))),
        (semi, 7, true, g([25, 6], 17, 1, 0, 0, 0, 161, (3983, 11_327_536_027_209_030_650))),
        (rtopex, 1, true, g([27, 5], 32, 1, 1727, 2577, 61, 0, (3968, 1_958_675_533_441_642_030))),
        (rtopex, 7, true, g([23, 10], 33, 0, 1732, 2529, 48, 0, (3967, 3_182_695_285_869_887_542))),
        (global, 1, true, g([25, 6], 0, 0, 0, 0, 0, 0, (4000, 12_315_159_053_373_025_653))),
        (global, 7, true, g([31, 8], 0, 0, 0, 0, 0, 0, (4000, 3_380_453_546_861_223_391))),
    ];
    for (sched, seed, stressed, want) in table {
        let ctx = format!("{sched:?}, seed {seed}, stressed {stressed}");
        assert_eq!(observe(sched, seed, stressed), want, "{ctx}");
    }
}
