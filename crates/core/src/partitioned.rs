//! The partitioned scheduler (§3.1.1).
//!
//! Offline, deterministic: basestation `i`'s subframe `j` is processed on
//! core `i·⌈T_max⌉ + (j mod ⌈T_max⌉)`. Each basestation owns `⌈T_max⌉`
//! cores, and consecutive subframes round-robin across them, so every
//! subframe gets a full `⌈T_max⌉` ms of exclusive core time — at least its
//! `T_max` budget (Fig. 9).

use crate::budget::Budget;
use serde::{Deserialize, Serialize};

/// A partitioned (static) subframe-to-core mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionedSchedule {
    /// Number of basestations `M`.
    pub num_bs: usize,
    /// Cores per basestation, `⌈T_max⌉`.
    pub cores_per_bs: usize,
}

impl PartitionedSchedule {
    /// Builds the schedule for `num_bs` basestations under `budget`.
    ///
    /// # Panics
    /// Panics if `num_bs == 0`.
    pub fn new(num_bs: usize, budget: &Budget) -> Self {
        assert!(num_bs > 0, "at least one basestation");
        PartitionedSchedule {
            num_bs,
            cores_per_bs: budget.ceil_tmax_ms(),
        }
    }

    /// Builds a schedule with an explicit per-basestation core count.
    pub fn with_cores_per_bs(num_bs: usize, cores_per_bs: usize) -> Self {
        assert!(num_bs > 0 && cores_per_bs > 0, "non-empty schedule");
        PartitionedSchedule {
            num_bs,
            cores_per_bs,
        }
    }

    /// Total processing cores the schedule occupies.
    pub fn total_cores(&self) -> usize {
        self.num_bs * self.cores_per_bs
    }

    /// The core that processes subframe `j` of basestation `i`
    /// (the paper's `i·⌈T_max⌉ + (j mod ⌈T_max⌉)`).
    ///
    /// # Panics
    /// Panics if `bs >= num_bs`.
    pub fn core_for(&self, bs: usize, subframe: u64) -> usize {
        // analyze: allow(panic): schedule-table indexing contract; an out-of-range id is a construction bug, not a runtime condition
        assert!(bs < self.num_bs, "basestation {bs} out of range");
        bs * self.cores_per_bs + (subframe % self.cores_per_bs as u64) as usize
    }

    /// The basestation a core is dedicated to.
    ///
    /// # Panics
    /// Panics if `core >= total_cores()`.
    pub fn bs_for_core(&self, core: usize) -> usize {
        // analyze: allow(panic): schedule-table indexing contract; an out-of-range id is a construction bug, not a runtime condition
        assert!(core < self.total_cores(), "core {core} out of range");
        core / self.cores_per_bs
    }

    /// Subframe period of one core, in subframes: a core sees every
    /// `⌈T_max⌉`-th subframe of its basestation.
    pub fn core_period(&self) -> u64 {
        self.cores_per_bs as u64
    }

    /// The smallest subframe index `j ≥ from` of `core`'s basestation that
    /// `core` itself processes (`core_for(bs_for_core(core), j) == core`).
    /// This is what makes an idle core's free window `fck` predictable
    /// (§3.2): its next own release is one clock conversion away from
    /// this index. Closed form — both substrates call it per idle-core
    /// probe, so it must not scan.
    pub fn next_own_index(&self, core: usize, from: u64) -> u64 {
        let period = self.core_period();
        let phase = core as u64 % period;
        from + (phase + period - from % period) % period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use proptest::prelude::*;

    fn paper_schedule() -> PartitionedSchedule {
        PartitionedSchedule::new(4, &Budget::from_rtt_half_us(500))
    }

    #[test]
    fn paper_config_uses_8_cores() {
        let s = paper_schedule();
        assert_eq!(s.cores_per_bs, 2);
        assert_eq!(s.total_cores(), 8);
    }

    #[test]
    fn fig9_round_robin() {
        // Fig. 9: (0,0) → core 0, (0,1) → core 1, (0,2) → core 0, …
        let s = PartitionedSchedule::with_cores_per_bs(1, 2);
        assert_eq!(s.core_for(0, 0), 0);
        assert_eq!(s.core_for(0, 1), 1);
        assert_eq!(s.core_for(0, 2), 0);
        assert_eq!(s.core_for(0, 3), 1);
    }

    #[test]
    fn basestations_get_disjoint_cores() {
        let s = paper_schedule();
        for bs_a in 0..4 {
            for bs_b in 0..4 {
                if bs_a == bs_b {
                    continue;
                }
                for j in 0..10u64 {
                    for k in 0..10u64 {
                        assert_ne!(s.core_for(bs_a, j), s.core_for(bs_b, k));
                    }
                }
            }
        }
    }

    #[test]
    fn core_sees_every_other_subframe() {
        let s = paper_schedule();
        let core = s.core_for(2, 4);
        // Same core again exactly core_period later.
        assert_eq!(s.core_for(2, 4 + s.core_period()), core);
        assert_ne!(s.core_for(2, 5), core);
    }

    #[test]
    fn bs_for_core_inverts_mapping() {
        let s = paper_schedule();
        for bs in 0..4 {
            for j in 0..4u64 {
                assert_eq!(s.bs_for_core(s.core_for(bs, j)), bs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bs_panics() {
        paper_schedule().core_for(4, 0);
    }

    proptest! {
        /// The closed form equals the linear scan both substrates used
        /// to run (kept here as the oracle), and lands on `core`.
        #[test]
        fn prop_next_own_index_matches_linear_scan(num_bs in 1usize..16, cpb in 1usize..4,
                                                   core_sel in 0usize..64, from in 0u64..(1 << 62)) {
            let s = PartitionedSchedule::with_cores_per_bs(num_bs, cpb);
            let core = core_sel % s.total_cores();
            let mut scan = from;
            while scan % cpb as u64 != (core % cpb) as u64 {
                scan += 1;
            }
            let j = s.next_own_index(core, from);
            prop_assert_eq!(j, scan);
            prop_assert_eq!(s.core_for(s.bs_for_core(core), j), core);
        }

        #[test]
        fn prop_mapping_in_range(num_bs in 1usize..16, cpb in 1usize..4,
                                 bs_sel in 0usize..16, j in 0u64..1000) {
            let s = PartitionedSchedule::with_cores_per_bs(num_bs, cpb);
            let bs = bs_sel % num_bs;
            let core = s.core_for(bs, j);
            prop_assert!(core < s.total_cores());
            prop_assert_eq!(s.bs_for_core(core), bs);
        }
    }
}
