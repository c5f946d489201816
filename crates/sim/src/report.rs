//! Aggregated results of one simulation run.

use rtopex_core::metrics::{DeadlineMetrics, GapTracker, MigrationStats};
use rtopex_model::stats::{Histogram, Samples};

/// Bounds and resolution of the always-on processing-time histogram:
/// 0–8 ms in 256 bins (31.25 µs/bin). 8 ms comfortably covers the
/// worst modeled subframe (MCS 27, recovery path included); anything
/// beyond lands in the overflow counter and still merges exactly.
const PROC_HIST_LO_US: f64 = 0.0;
const PROC_HIST_HI_US: f64 = 8_000.0;
const PROC_HIST_BINS: usize = 256;

/// Everything an experiment needs from one run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-basestation deadline outcomes (Fig. 15/17 material).
    pub deadline: DeadlineMetrics,
    /// Migration accounting (Fig. 16 right; zero under non-RT-OPEX).
    pub migration: MigrationStats,
    /// Idle-gap durations on processing cores (Fig. 16 left). Empty when
    /// `record_samples` is off.
    pub gaps: GapTracker,
    /// Per-subframe processing times, µs (Fig. 19 right), for subframes
    /// that ran to completion (drops excluded). Empty when
    /// `record_samples` is off.
    pub proc_times_us: Samples,
    /// Fixed-memory processing-time histogram (µs), recorded for every
    /// completed subframe regardless of `record_samples` — the
    /// latency distribution with O(1) memory per run, and
    /// the payload the determinism test compares bin for bin.
    pub proc_hist: Histogram,
    /// Subframes dropped by the slack check / queue (subset of misses).
    pub dropped: u64,
    /// Subframes whose (modeled) decode failed its CRC — NACKs that are
    /// *not* deadline misses.
    pub crc_failures: u64,
}

impl SimReport {
    /// Creates an empty report for `num_bs` basestations.
    pub fn new(num_bs: usize) -> Self {
        SimReport {
            deadline: DeadlineMetrics::new(num_bs),
            migration: MigrationStats::default(),
            gaps: GapTracker::new(),
            proc_times_us: Samples::new(),
            proc_hist: Histogram::new(PROC_HIST_LO_US, PROC_HIST_HI_US, PROC_HIST_BINS),
            dropped: 0,
            crc_failures: 0,
        }
    }

    /// Convenience: the aggregate deadline-miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.deadline.overall().rate()
    }

    /// Merges another run's report into this one (per-host reports
    /// combined by the fleet layer). Counter and histogram merges are
    /// associative and commutative; sample merges append in call order —
    /// the fleet merges in ascending host order regardless of shard
    /// count, which is what makes the merged report bit-identical for
    /// any shard/thread configuration.
    ///
    /// # Panics
    /// Panics if the reports cover different basestation counts.
    pub fn merge(&mut self, other: &SimReport) {
        self.deadline.merge(&other.deadline);
        self.migration.merge(&other.migration);
        self.gaps.merge(&other.gaps);
        self.proc_times_us.merge(&other.proc_times_us);
        self.proc_hist.merge(&other.proc_hist);
        self.dropped += other.dropped;
        self.crc_failures += other.crc_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report() {
        let r = SimReport::new(4);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.proc_hist.count(), 0);
    }

    #[test]
    fn merge_adds_counters_and_bins() {
        let mut a = SimReport::new(2);
        a.deadline.record(0, true);
        a.proc_hist.record(100.0);
        a.dropped = 1;
        let mut b = SimReport::new(2);
        b.deadline.record(1, false);
        b.proc_hist.record(100.0);
        b.crc_failures = 3;
        a.merge(&b);
        assert_eq!(a.deadline.total_subframes(), 2);
        assert_eq!(a.proc_hist.count(), 2);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.crc_failures, 3);
    }
}
