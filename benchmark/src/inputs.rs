//! Everything a run feeds the system, derived from `--seed` alone: the
//! encoded subframe pool with the payloads that went into it, the MCS
//! plan, the cluster and simulator configurations. The program under test
//! receives only these generated inputs, never the seed's meaning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::params::Bandwidth;
use rtopex_phy::uplink::{UplinkConfig, UplinkRx, UplinkTx};
use rtopex_phy::Cf32;
use rtopex_runtime::{ClusterConfig, CranCluster, SchedulerMode};
use rtopex_sim::{SchedulerKind, SimConfig};
use rtopex_transport::packet::{dequantize, quantize};
use rtopex_transport::StreamParams;
use rtopex_workload::Scenario;
use std::time::Duration;

pub const BANDWIDTH: Bandwidth = Bandwidth::Mhz5;
pub const ANTENNAS: usize = 2;
pub const SNR_DB: f64 = 30.0;

/// Sender cadence. Slower than the node's deadline period on purpose:
/// cadence is the benchmark's, the Eq. 3 budget is `ClusterConfig`'s.
pub const CADENCE: Duration = Duration::from_micros(2_000);
/// Deadline period and transport latency of the node workloads: Eq. 3
/// budget `2·50 − 1 = 99 ms`. This host stalls a CPU for 3–8 ms ten times a
/// second and for tens of ms a few times an hour; under a budget of 11 ms
/// one subframe in some ten thousand missed for that alone. The workloads
/// measure processing time, and no operation of theirs is to fail for the
/// host's reasons, so the deadline is out of the host's reach.
pub const NODE_PERIOD: Duration = Duration::from_micros(50_000);
pub const NODE_RTT_HALF: Duration = Duration::from_micros(1_000);

/// MCS classes of the mixed workload. Trace loads snap to the nearest
/// entry; the tower trace then puts 21 % of subframes at or below MCS 10,
/// 64 % on 15 and 14 % on 18, so neither the median nor p95 sits on a
/// boundary between classes, where a few bursts more or less in a trial
/// would move it from one cluster of processing times to the next.
pub const MIX_POOL: &[u8] = &[5, 10, 15, 18, 27];
pub const QPSK_POOL: &[u8] = &[5];

/// One pre-encoded, channel-impaired subframe and what must come back.
pub struct PoolEntry {
    pub mcs: u8,
    pub rx: UplinkRx,
    pub payload: Vec<u8>,
    /// What the sender hands to `FronthaulTx::send`.
    pub samples: Vec<Vec<Cf32>>,
    /// `dequantize(quantize(samples))`: what every transport must deliver,
    /// bit for bit.
    pub delivered: Vec<Vec<Cf32>>,
}

/// What the wire's 16-bit quantization turns `samples` into.
pub fn wire_image(samples: &[Vec<Cf32>]) -> Vec<Vec<Cf32>> {
    samples
        .iter()
        .map(|ant| {
            ant.iter()
                .map(|s| Cf32::new(dequantize(quantize(s.re)), dequantize(quantize(s.im))))
                .collect()
        })
        .collect()
}

/// Encodes one subframe per MCS with a seed-derived payload and noise.
pub fn build_pool(seed: u64, mcs_pool: &[u8]) -> Vec<PoolEntry> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    mcs_pool
        .iter()
        .map(|&mcs| {
            let cfg = UplinkConfig::new(BANDWIDTH, ANTENNAS, mcs).expect("valid 5 MHz config");
            let payload: Vec<u8> = (0..cfg.transport_block_bytes())
                .map(|_| rng.gen())
                .collect();
            let sf = UplinkTx::new(cfg.clone())
                .encode_subframe(&payload)
                .expect("payload sized from the config");
            let samples = AwgnChannel::new(SNR_DB).apply(&sf.samples, ANTENNAS, &mut rng);
            let delivered = wire_image(&samples);
            PoolEntry {
                mcs,
                rx: UplinkRx::new(cfg),
                payload,
                samples,
                delivered,
            }
        })
        .collect()
}

pub fn node_config(
    seed: u64,
    mode: SchedulerMode,
    mcs_pool: &[u8],
    subframes: usize,
) -> ClusterConfig {
    ClusterConfig {
        bandwidth: BANDWIDTH,
        num_antennas: ANTENNAS,
        num_cells: 1,
        subframes,
        period: NODE_PERIOD,
        rtt_half: NODE_RTT_HALF,
        mode,
        snr_db: SNR_DB,
        mcs_pool: mcs_pool.to_vec(),
        seed,
        ..ClusterConfig::demo()
    }
}

/// Pool index per subframe for cell 0, from the tower trace.
pub fn mcs_plan(cfg: &ClusterConfig) -> Vec<usize> {
    CranCluster::mcs_plan(cfg).swap_remove(0)
}

/// A stream carrying cells `0..cells`.
pub fn stream_params(cells: usize, mcs_pool: &[u8], budget: Duration) -> StreamParams {
    StreamParams {
        samples_per_subframe: BANDWIDTH.samples_per_subframe() as u32,
        antennas: ANTENNAS as u8,
        cells: (0..cells as u16).collect(),
        period_us: CADENCE.as_micros() as u32,
        budget_us: budget.as_micros() as u32,
        mcs_pool: mcs_pool.to_vec(),
        subframes: 0, // open-ended; finish() closes the stream
    }
}

pub const SIM_CELLS: usize = 8;
pub const SIM_RTT_HALF_US: u64 = 500;

/// The paper's §4.2 scenario widened to 8 cells, `subframes` per cell.
pub fn sim_config(seed: u64, subframes: usize, scheduler: SchedulerKind) -> SimConfig {
    let mut s = Scenario::paper_default();
    s.num_bs = SIM_CELLS;
    s.subframes = subframes;
    s.seed = seed;
    let mut cfg = SimConfig::from_scenario(&s, SIM_RTT_HALF_US);
    cfg.scheduler = scheduler;
    cfg.record_samples = false;
    cfg
}

/// Sub-seed of trial `t`: trials of one run see different traces, runs
/// with one seed see the same ones.
pub fn trial_seed(seed: u64, trial: usize) -> u64 {
    seed.wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(trial as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<usize> {
        mcs_plan(&node_config(
            seed,
            SchedulerMode::RtOpexSteal,
            MIX_POOL,
            400,
        ))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        assert_ne!(trial_seed(7, 0), trial_seed(7, 1));
        assert_ne!(trial_seed(7, 0), trial_seed(8, 0));

        let (a, b, c) = (
            build_pool(7, QPSK_POOL),
            build_pool(7, QPSK_POOL),
            build_pool(8, QPSK_POOL),
        );
        assert_eq!(a[0].payload, b[0].payload);
        assert_eq!(a[0].samples, b[0].samples);
        assert_ne!(a[0].payload, c[0].payload);
        assert_ne!(a[0].samples, c[0].samples);

        let sim = |seed| sim_config(seed, 500, SchedulerKind::RtOpex { delta_us: 20 });
        assert_eq!(sim(7).seed, sim(7).seed);
        assert_ne!(sim(7).seed, sim(8).seed);
        assert_eq!((sim(7).num_bs, sim(7).subframes), (SIM_CELLS, 500));
    }

    #[test]
    fn plan_indexes_the_pool_and_uses_more_than_one_mcs() {
        let p = plan(3);
        assert_eq!(p.len(), 400);
        assert!(p.iter().all(|&i| i < MIX_POOL.len()));
        assert!(p.iter().any(|&i| i != p[0]), "a mix, not a constant");
    }
}
