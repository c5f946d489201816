//! RT-OPEX's migration decision — Algorithm 1 of the paper.
//!
//! Given `P` subtasks of deterministic time `tp`, a set of idle cores with
//! known free-time budgets `fck`, and the per-subtask migration cost `δ`,
//! decide how many subtasks to offload to each idle core. Greedy, under
//! three requirements:
//!
//! * **R1** — a core receives no more subtasks than its free time can
//!   absorb: `noff ≤ ⌊fck / (tp + δ)⌋`;
//! * **R2** — the subtasks kept local must outnumber the largest batch
//!   already sent to any core: `S − noff ≥ maxoff`;
//! * **R3** — never offload more than half of what remains:
//!   `noff ≤ ⌊S/2⌋`.
//!
//! Together these keep the local share the critical path in the ideal
//! case: by the time the owner finishes its local subtasks, migrated ones
//! are (expected to be) done. Mispredictions are handled by the recovery
//! state (§3.2.1-B), not here.

use crate::steal::DeltaGuard;
use crate::time::Nanos;

/// The idle-window survey Algorithm 1 plans over: from `(core, fck)`
/// pairs for the cores that are idle right now, keep every core other
/// than the requester `me` whose free window is non-empty, widest window
/// first (core index breaks ties, so the order is a pure function of the
/// input). Each substrate supplies its own notion of "idle" and its own
/// clock; what a usable window is and the order Algorithm 1 sees them in
/// is said here. `out` is cleared first and its capacity reused — no
/// allocation once warm.
pub fn survey_idle_windows(
    me: usize,
    idle: impl IntoIterator<Item = (usize, Nanos)>,
    out: &mut Vec<(usize, Nanos)>,
) {
    out.clear();
    out.extend(
        idle.into_iter()
            .filter(|&(core, fck)| core != me && fck > Nanos::ZERO),
    );
    out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// The scalar outcome of [`plan_migration_into`]; the batch assignments
/// land in the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanStats {
    /// Subtasks kept on the owning core.
    pub local: usize,
    /// Largest batch assigned to any single core (`maxoff`).
    pub max_off: usize,
}

/// Runs Algorithm 1.
///
/// * `p_subtasks` — `P`, the stage's subtask count;
/// * `tp` — per-subtask execution time;
/// * `delta` — per-subtask migration cost `δ` (the paper measures
///   ≈ 20 µs for both FFT and decode subtasks, Fig. 18);
/// * `free` — `(core, fck)` pairs for each currently idle core, in the
///   order [`survey_idle_windows`] left them.
///
/// The `(core, count)` assignments are written into `assignments`
/// (cleared first, capacity reused; cores assigned nothing are omitted),
/// so neither the simulator's per-event loop nor a runtime worker touches
/// the heap once the buffer is warm. Migrating can only help, never
/// hurt, because the plan never makes the local share smaller than any
/// migrated batch.
pub fn plan_migration_into(
    p_subtasks: usize,
    tp: Nanos,
    delta: Nanos,
    free: &[(usize, Nanos)],
    assignments: &mut Vec<(usize, usize)>,
) -> PlanStats {
    assignments.clear();
    let mut s = p_subtasks; // S: subtasks not yet migrated
    let mut max_off = 0usize;
    if tp == Nanos::ZERO {
        // Degenerate profile: nothing worth migrating.
        return PlanStats {
            local: p_subtasks,
            max_off: 0,
        };
    }
    let guard = DeltaGuard { delta };
    // The §3.2.1 caveat ("performance must be equal to or strictly better
    // than the case without migration"): a helper's batch, migration cost
    // included, must never outlast the serial baseline `P·tp`.
    let lim_serial = guard.capacity(tp, Nanos(p_subtasks as u64 * tp.0));
    for &(core, fck) in free {
        if s <= 1 {
            break;
        }
        if fck == Nanos::ZERO {
            continue;
        }
        // R1: what the core's free time can absorb, including δ.
        let lim_off = guard.capacity(tp, fck);
        // R2 ∧ R3 with R1 and the serial-baseline cap.
        let n_off = (s.saturating_sub(max_off))
            .min(lim_off)
            .min(s / 2)
            .min(lim_serial);
        if n_off == 0 {
            continue;
        }
        max_off = max_off.max(n_off);
        assignments.push((core, n_off));
        s -= n_off;
    }
    PlanStats { local: s, max_off }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_us(v)
    }

    /// One Algorithm 1 run with its assignments collected.
    struct Plan {
        assignments: Vec<(usize, usize)>,
        local: usize,
        max_off: usize,
    }

    impl Plan {
        fn migrated(&self) -> usize {
            self.assignments.iter().map(|(_, n)| n).sum()
        }

        /// Ideal-case stage completion time: the owner runs `local`
        /// subtasks; each helper runs its batch, paying `δ` per migrated
        /// subtask; the stage ends when the slowest party finishes.
        fn critical_path(&self, tp: Nanos, delta: Nanos) -> Nanos {
            let helper = self.assignments.iter().map(|&(_, n)| n).max().unwrap_or(0);
            Nanos(tp.0 * self.local as u64).max(Nanos((tp.0 + delta.0) * helper as u64))
        }
    }

    fn plan_migration(p: usize, tp: Nanos, delta: Nanos, free: &[(usize, Nanos)]) -> Plan {
        let mut assignments = Vec::new();
        let stats = plan_migration_into(p, tp, delta, free, &mut assignments);
        Plan {
            assignments,
            local: stats.local,
            max_off: stats.max_off,
        }
    }

    #[test]
    fn no_idle_cores_no_migration() {
        let plan = plan_migration(6, us(117), us(20), &[]);
        assert_eq!((plan.migrated(), plan.local, plan.max_off), (0, 6, 0));
    }

    #[test]
    fn single_subtask_never_migrates() {
        let plan = plan_migration(1, us(500), us(20), &[(1, us(10_000))]);
        assert_eq!(plan.migrated(), 0);
        assert_eq!(plan.local, 1);
    }

    #[test]
    fn r3_offloads_at_most_half() {
        // One enormous idle core: still keep at least half locally.
        let plan = plan_migration(6, us(117), us(20), &[(1, us(100_000))]);
        assert_eq!(plan.migrated(), 3);
        assert_eq!(plan.local, 3);
    }

    #[test]
    fn r1_respects_free_time() {
        // Core 1 can absorb exactly two subtasks: 2·(117+20) = 274 ≤ 280.
        let plan = plan_migration(6, us(117), us(20), &[(1, us(280))]);
        assert_eq!(plan.assignments, vec![(1, 2)]);
        assert_eq!(plan.local, 4);
    }

    #[test]
    fn r1_counts_migration_cost() {
        // 130 µs of free time fits one bare subtask (117) but not one
        // migrated subtask (117+20) — so nothing is sent.
        let plan = plan_migration(6, us(117), us(20), &[(1, us(130))]);
        assert_eq!(plan.migrated(), 0);
    }

    #[test]
    fn r2_keeps_local_at_least_maxoff() {
        // Two big cores, P = 6: greedy sends 3 to the first; then
        // S − maxoff = 0 forbids the second from receiving anything.
        let plan = plan_migration(6, us(117), us(20), &[(1, us(100_000)), (2, us(100_000))]);
        assert_eq!(plan.assignments, vec![(1, 3)]);
        assert_eq!(plan.local, 3);
        assert!(plan.local >= plan.max_off);
    }

    #[test]
    fn small_batches_spread_across_cores() {
        // Cores that each fit one subtask: 6 → 1+1 migrated, 4 local
        // (R2 allows the second core: S=5, maxoff=1 → min(4, 1, 2) = 1).
        let plan = plan_migration(
            6,
            us(117),
            us(20),
            &[(1, us(140)), (2, us(140)), (3, us(140))],
        );
        assert_eq!(plan.migrated(), 3);
        assert_eq!(plan.local, 3);
        assert!(plan.assignments.iter().all(|&(_, n)| n == 1));
    }

    #[test]
    fn paper_fft_example() {
        // N = 2 antennas → P = 2 FFT subtasks of ≈ 108 µs; one idle core
        // with a comfortable gap takes exactly one (Fig. 11's scenario).
        let plan = plan_migration(2, us(108), us(20), &[(0, us(500))]);
        assert_eq!(plan.assignments, vec![(0, 1)]);
        assert_eq!(plan.local, 1);
    }

    #[test]
    fn critical_path_ideal_case() {
        let plan = plan_migration(6, us(100), us(20), &[(1, us(1000))]);
        // 3 local × 100 = 300 vs 3 migrated × 120 = 360.
        assert_eq!(plan.critical_path(us(100), us(20)), us(360));
        // Serial baseline would be 600: migration wins even with δ.
        assert!(plan.critical_path(us(100), us(20)) < us(600));
    }

    #[test]
    fn zero_tp_degenerates_safely() {
        let plan = plan_migration(5, Nanos::ZERO, us(20), &[(1, us(1000))]);
        assert_eq!(plan.migrated(), 0);
    }

    #[test]
    fn survey_orders_widest_first_and_skips_me_and_empty_windows() {
        let mut out = vec![(9, us(9))]; // stale content must not survive
        let idle = [
            (0, us(300)),
            (1, us(0)),
            (2, us(500)),
            (3, us(300)),
            (4, us(900)),
        ];
        survey_idle_windows(4, idle, &mut out);
        assert_eq!(out, vec![(2, us(500)), (0, us(300)), (3, us(300))]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The survey's order is a pure function of its input set: any
        /// presentation order gives the same list, ties fall to the lower
        /// core index, and `me` and zero windows never appear.
        #[test]
        fn prop_survey_is_a_pure_function_of_its_input(
            windows in proptest::collection::vec(0u64..4, 0..10),
            me in 0usize..10,
            rot in 0usize..10,
        ) {
            let idle: Vec<(usize, Nanos)> =
                windows.iter().enumerate().map(|(c, &w)| (c, us(w * 100))).collect();
            let mut rotated = idle.clone();
            rotated.rotate_left(rot % idle.len().max(1));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            survey_idle_windows(me, idle.iter().copied(), &mut a);
            survey_idle_windows(me, rotated, &mut b);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.iter().all(|&(c, w)| c != me && w > Nanos::ZERO));
            prop_assert!(a.windows(2).all(|p| p[0].1 > p[1].1 || (p[0].1 == p[1].1 && p[0].0 < p[1].0)));
            let kept = idle.iter().filter(|&&(c, w)| c != me && w > Nanos::ZERO).count();
            prop_assert_eq!(a.len(), kept);
        }

        #[test]
        fn prop_invariants(
            p in 0usize..40,
            tp_us in 1u64..500,
            delta_us in 0u64..100,
            frees in proptest::collection::vec(0u64..5_000, 0..8),
        ) {
            let tp = us(tp_us);
            let delta = us(delta_us);
            // Core ids are unique by construction (index-based).
            let free: Vec<(usize, Nanos)> =
                frees.iter().enumerate().map(|(c, &f)| (c, us(f))).collect();
            let plan = plan_migration(p, tp, delta, &free);

            // Conservation: local + migrated = P.
            prop_assert_eq!(plan.local + plan.migrated(), p);
            // R2: local share at least the largest migrated batch.
            prop_assert!(plan.local >= plan.max_off);
            // maxoff is really the max batch.
            let batch_max = plan.assignments.iter().map(|&(_, n)| n).max().unwrap_or(0);
            prop_assert_eq!(plan.max_off, batch_max);
            // R1 per assignment: the batch fits the core's free time.
            for &(core, n) in &plan.assignments {
                let fck = free.iter().find(|&&(c, _)| c == core).unwrap().1;
                prop_assert!(Nanos((tp.0 + delta.0) * n as u64) <= fck);
                prop_assert!(n > 0);
            }
            // Never migrate the only subtask.
            if p <= 1 {
                prop_assert_eq!(plan.migrated(), 0);
            }
            // Performance guarantee: the planned critical path never
            // exceeds the serial baseline (the paper's "equal to or
            // strictly better" requirement, ideal case).
            let serial = Nanos(tp.0 * p as u64);
            prop_assert!(plan.critical_path(tp, delta) <= serial);
        }
    }
}
