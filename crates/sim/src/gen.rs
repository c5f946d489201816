//! Task generation: turns the workload scenario into concrete
//! [`SubframeTask`]s with sampled execution profiles.
//!
//! Generation is independent of the scheduler under test and fully
//! determined by the seed, so different schedulers can be compared on the
//! *identical* sequence of subframes — a paired comparison, as the paper's
//! trace-replay methodology provides.
//!
//! The generator is a *stream*: [`TaskStream`] derives subframe `j`'s
//! parameters from `(cell, j, seed)` on demand, holding only two RNG
//! states, the load-trace state, and a 29-entry code-block table. A
//! 10⁷-subframe run therefore needs constant memory — materializing the
//! entire `Vec<Vec<SubframeTask>>` up front is gigabytes at fleet scale
//! (64 hosts × dozens of cells × 10⁵ subframes).

use crate::config::SimConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rtopex_core::task::{SubframeTask, TaskProfile};
use rtopex_core::time::Nanos;
use rtopex_phy::mcs::Mcs;
use rtopex_phy::segmentation::Segmentation;
use rtopex_workload::{load_to_mcs, LoadTrace};

/// Number of code blocks per MCS at the configured bandwidth.
fn code_block_table(cfg: &SimConfig) -> Vec<usize> {
    Mcs::all()
        .map(|m| {
            let tbs = m.transport_block_bits(cfg.bandwidth.num_prbs());
            Segmentation::compute(tbs + 24)
                .expect("all standard TBS values segment")
                .num_blocks
        })
        .collect()
}

/// Code-block count for an arbitrary (MCS, PRB) pair. Pure arithmetic —
/// safe in the allocation-free hot loop.
fn blocks_for(mcs: Mcs, nprb: usize) -> usize {
    Segmentation::compute(mcs.transport_block_bits(nprb) + 24)
        .expect("all scaled TBS values segment")
        .num_blocks
}

/// A lazy, constant-memory generator of one basestation's subframes.
///
/// Subframe `j`'s parameters depend only on `(bs, j, cfg.seed)` and are
/// produced in ascending `j` — exactly the order the engines consume
/// releases in. The RNG streams are per-cell (`trace` and `outcome`
/// streams seeded independently), so cells are statistically independent
/// and a fleet shard can run any subset of hosts without perturbing the
/// others' draws.
#[derive(Debug)]
pub struct TaskStream<'a> {
    cfg: &'a SimConfig,
    bs: usize,
    next_j: u64,
    rtt: Nanos,
    tmax: Nanos,
    trace_rng: StdRng,
    outcome_rng: StdRng,
    trace: LoadTrace,
    /// Per-MCS code-block counts at full PRB allocation.
    blocks: Vec<usize>,
}

impl<'a> TaskStream<'a> {
    /// Creates the stream for basestation `bs`, positioned at subframe 0.
    pub fn new(cfg: &'a SimConfig, bs: usize) -> Self {
        let budget = cfg.budget();
        // The trace RNG stream matches Scenario::load_traces so the
        // simulator replays exactly the workload the scenario defines.
        let trace_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(bs as u64 * 7919));
        let outcome_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5_0000 ^ (bs as u64) << 32);
        let params = cfg.traces[bs % cfg.traces.len()];
        TaskStream {
            cfg,
            bs,
            next_j: 0,
            rtt: Nanos::from_us(cfg.rtt_half_us),
            tmax: budget.tmax(),
            trace_rng,
            outcome_rng,
            trace: LoadTrace::new(params),
            blocks: code_block_table(cfg),
        }
    }

    /// The basestation this stream generates for.
    pub fn bs(&self) -> usize {
        self.bs
    }

    /// Generates the next subframe, or `None` past `cfg.subframes`.
    /// Allocation-free: every draw lands in plain scalars and the
    /// profile is a fixed-size value.
    pub fn next_task(&mut self) -> Option<SubframeTask> {
        if self.next_j >= self.cfg.subframes as u64 {
            return None;
        }
        let j = self.next_j;
        self.next_j += 1;
        let cfg = self.cfg;
        let bs = self.bs;

        let trace_mcs = load_to_mcs(self.trace.next_load(&mut self.trace_rng));
        let mcs = match (cfg.fixed_mcs, cfg.bs0_mcs) {
            (Some(idx), _) => Mcs::new(idx).expect("fixed MCS valid"),
            (None, Some(idx)) if bs == 0 => Mcs::new(idx).expect("fixed MCS valid"),
            _ => trace_mcs,
        };
        // Varying PRB utilization shrinks the transport block (and its
        // code-block count) while the antenna-level FFT cost stays
        // full-bandwidth.
        let total_prbs = cfg.bandwidth.num_prbs();
        let (d, c) = match cfg.prb_util_range {
            Some((lo, hi)) => {
                let util = self.outcome_rng.gen_range(lo..=hi);
                let nprb = ((total_prbs as f64 * util).ceil() as usize).clamp(1, total_prbs);
                let d = mcs.transport_block_bits(nprb) as f64 / cfg.bandwidth.total_res() as f64;
                (d, blocks_for(mcs, nprb))
            }
            None => (
                mcs.subcarrier_load(cfg.bandwidth),
                self.blocks[mcs.index() as usize],
            ),
        };
        let qm = mcs.modulation_order();
        let outcome = cfg
            .iter_model
            .sample(mcs.index(), d, cfg.snr_db, &mut self.outcome_rng);
        let extra = cfg.jitter.sample(&mut self.outcome_rng);
        let release = Nanos::from_ms(j) + self.rtt;
        Some(SubframeTask {
            bs_id: bs,
            subframe_index: j,
            release,
            deadline: release + self.tmax,
            mcs: mcs.index(),
            crc_ok: outcome.crc_ok,
            profile: TaskProfile::from_model(
                &cfg.time_model,
                cfg.num_antennas,
                qm,
                d,
                outcome.iterations as f64,
                c,
                extra,
            ),
        })
    }
}

impl Iterator for TaskStream<'_> {
    type Item = SubframeTask;

    fn next(&mut self) -> Option<SubframeTask> {
        self.next_task()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_workload::Scenario;

    /// Every basestation's stream collected: `result[bs][j]`.
    fn generate_tasks(cfg: &SimConfig) -> Vec<Vec<SubframeTask>> {
        (0..cfg.num_bs)
            .map(|bs| TaskStream::new(cfg, bs).collect())
            .collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::from_scenario(&Scenario::smoke_test(), 500)
    }

    #[test]
    fn shape_and_timing() {
        let c = cfg();
        let tasks = generate_tasks(&c);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].len(), 2000);
        let t = &tasks[1][3];
        assert_eq!(t.bs_id, 1);
        assert_eq!(t.subframe_index, 3);
        assert_eq!(t.release, Nanos::from_ms(3) + Nanos::from_us(500));
        // Deadline = over-the-air arrival + 2 ms, regardless of transport.
        assert_eq!(t.deadline, Nanos::from_ms(3) + Nanos::from_ms(2));
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        assert_eq!(generate_tasks(&c), generate_tasks(&c));
    }

    #[test]
    fn stream_is_lazy_and_constant_memory() {
        // 10⁷ subframes would be gigabytes if materialized; taking the
        // first few from the stream must be instant.
        let mut c = cfg();
        c.subframes = 10_000_000;
        let head: Vec<SubframeTask> = TaskStream::new(&c, 0).take(5).collect();
        assert_eq!(head.len(), 5);
        assert_eq!(head[4].subframe_index, 4);
    }

    #[test]
    fn stream_matches_materialized_schedule() {
        // The collecting wrapper and a manually-driven stream agree
        // task for task — including under the PRB-utilization path,
        // which draws from the outcome RNG before the iteration model.
        let mut c = cfg();
        c.prb_util_range = Some((0.3, 1.0));
        let tasks = generate_tasks(&c);
        for (bs, cell_tasks) in tasks.iter().enumerate() {
            let mut s = TaskStream::new(&c, bs);
            for want in cell_tasks {
                assert_eq!(s.next_task().as_ref(), Some(want));
            }
            assert!(s.next_task().is_none());
        }
    }

    #[test]
    fn code_blocks_match_mcs() {
        let c = cfg();
        let blocks = code_block_table(&c);
        assert_eq!(blocks[0], 1); // MCS 0: single block
        assert_eq!(blocks[27], 6); // MCS 27: six blocks (paper §2.2)
        let tasks = generate_tasks(&c);
        for t in tasks.iter().flatten() {
            assert_eq!(t.profile.decode.subtasks, blocks[t.mcs as usize]);
        }
    }

    #[test]
    fn fixed_mcs_override() {
        let mut c = cfg();
        c.fixed_mcs = Some(27);
        let tasks = generate_tasks(&c);
        assert!(tasks.iter().flatten().all(|t| t.mcs == 27));
        // MCS 27 at 30 dB: heavy subframes, mostly 3-4 iterations, so the
        // serial total is well above 1.5 ms on average.
        let mean_us: f64 = tasks
            .iter()
            .flatten()
            .map(|t| t.profile.total().as_us_f64())
            .sum::<f64>()
            / (2.0 * 2000.0);
        assert!(mean_us > 1500.0, "mean MCS-27 time {mean_us} µs");
    }

    #[test]
    fn trace_driven_has_mcs_diversity() {
        let tasks = generate_tasks(&cfg());
        let distinct: std::collections::HashSet<u8> =
            tasks.iter().flatten().map(|t| t.mcs).collect();
        assert!(distinct.len() > 10, "only {} MCS values", distinct.len());
    }

    #[test]
    fn profiles_scale_with_antennas() {
        let mut c2 = cfg();
        c2.num_antennas = 2;
        let mut c4 = cfg();
        c4.num_antennas = 4;
        let t2 = generate_tasks(&c2);
        let t4 = generate_tasks(&c4);
        assert_eq!(t4[0][0].profile.fft.subtasks, 4);
        assert!(t4[0][0].profile.fft.total() > t2[0][0].profile.fft.total());
    }
}
