//! Micro-measurement harnesses behind Fig. 4 and Fig. 18.
//!
//! These run the **real** PHY kernels on **real** pinned threads and time
//! them with the monotonic clock:
//!
//! * [`measure_stage_parallelism`] — a task's serial time vs. its time
//!   when its subtasks are split across two cores (Fig. 4);
//! * [`measure_migration_overhead`] — per-subtask execution time locally
//!   vs. end-to-end through a migration mailbox on another core, whose
//!   difference is the machine's real migration cost δ (Fig. 18 reports
//!   ≈ 18–20 µs on the paper's Xeon);
//! * [`measure_steal_overhead`] — the same comparison through the
//!   lock-free work-stealing path, where the handoff is a ticket in a
//!   bounded Chase–Lev deque instead of a boxed closure in a channel.
//!   The gap between the two deltas is what the cluster's steal mode
//!   saves per migration.

use crate::affinity::pin_current_thread;
use crate::migrate::{host_loop, mailbox, Envelope};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_core::steal::{self, Steal};
use rtopex_model::stats::Samples;
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::uplink::{SubframeJob, UplinkConfig, UplinkRx, UplinkTx};
use rtopex_phy::Cf32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Serial vs. two-core timings of one task (µs).
#[derive(Clone, Debug)]
pub struct StageMeasurement {
    /// The task measured.
    pub task: TaskKind,
    /// Serial execution times.
    pub serial_us: Samples,
    /// Execution times with the subtasks split across two cores.
    pub two_core_us: Samples,
}

/// Local vs. migrated per-subtask timings (µs) — Fig. 18's comparison.
#[derive(Clone, Debug)]
pub struct MigrationMeasurement {
    /// The task whose subtasks were measured.
    pub task: TaskKind,
    /// Per-subtask time when executed by the owning thread.
    pub local_us: Samples,
    /// Per-subtask time when shipped to another core (includes handoff).
    pub migrated_us: Samples,
    /// Median overhead `migrated − local` (the measured δ), µs.
    pub delta_us: f64,
}

/// A ready-to-decode subframe: receiver + received samples.
struct Workbench {
    rx: UplinkRx,
    samples: Vec<Vec<Cf32>>,
}

impl Workbench {
    fn new(bw: Bandwidth, antennas: usize, mcs: u8, seed: u64) -> Self {
        let cfg = UplinkConfig::new(bw, antennas, mcs).expect("valid config");
        let tx = UplinkTx::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<u8> = (0..cfg.transport_block_bytes())
            .map(|_| rng.gen())
            .collect();
        let sf = tx.encode_subframe(&payload).expect("encode");
        let mut chan = AwgnChannel::new(30.0);
        let samples = chan.apply(&sf.samples, antennas, &mut rng);
        Workbench {
            rx: UplinkRx::new(cfg),
            samples,
        }
    }

    /// Starts a job and advances it so the requested stage is runnable.
    fn job_at(&self, task: TaskKind) -> SubframeJob<'_> {
        // analyze: allow(panic): bench setup of the job under test; the prepared subframe cannot fail to start once the config was validated
        let mut job = self.rx.start_job(&self.samples).expect("job");
        if task == TaskKind::Fft {
            return job;
        }
        for i in 0..job.fft_subtask_count() {
            let out = job.run_fft_subtask(i);
            job.absorb_fft(out);
        }
        job.finish_fft();
        if task == TaskKind::Demod {
            return job;
        }
        for i in 0..job.demod_subtask_count() {
            let out = job.run_demod_subtask(i);
            job.absorb_demod(out);
        }
        job
    }

    fn subtask_count(&self, job: &SubframeJob<'_>, task: TaskKind) -> usize {
        match task {
            TaskKind::Fft => job.fft_subtask_count(),
            TaskKind::Demod => job.demod_subtask_count(),
            TaskKind::Decode => job.decode_subtask_count(),
        }
    }

    /// Runs subtask `i` of `task`, discarding the output (timing only).
    fn run_subtask(&self, job: &SubframeJob<'_>, task: TaskKind, i: usize) {
        match task {
            TaskKind::Fft => {
                std::hint::black_box(job.run_fft_subtask(i));
            }
            TaskKind::Demod => {
                std::hint::black_box(job.run_demod_subtask(i));
            }
            TaskKind::Decode => {
                std::hint::black_box(job.run_decode_subtask(i));
            }
        }
    }
}

fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Measures one task's serial vs. two-core execution time (Fig. 4).
///
/// The two-core run splits the subtask indices in half; the second half
/// executes on a helper thread pinned to another core.
pub fn measure_stage_parallelism(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> StageMeasurement {
    let bench = Workbench::new(bw, antennas, mcs, 0x0F16_4000);
    let mut serial_us = Samples::new();
    let mut two_core_us = Samples::new();

    // Serial timings.
    pin_current_thread(0);
    for _ in 0..trials {
        let job = bench.job_at(task);
        let n = bench.subtask_count(&job, task);
        let t0 = Instant::now();
        for i in 0..n {
            bench.run_subtask(&job, task, i);
        }
        serial_us.push(as_us(t0.elapsed()));
    }

    // Two-core timings: helper runs the second half of the subtasks.
    // Jobs are prepared up front so the envelopes' borrows outlive the
    // mailbox channel.
    let jobs: Vec<SubframeJob<'_>> = (0..trials).map(|_| bench.job_at(task)).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mailbox();
        s.spawn(move || {
            pin_current_thread(1);
            host_loop(rx);
        });
        for job in &jobs {
            let n = bench.subtask_count(job, task);
            let split = n / 2;
            let bench_ref = &bench;
            let t0 = Instant::now();
            let (env, flag) = Envelope::new(move || {
                for i in split..n {
                    bench_ref.run_subtask(job, task, i);
                }
            });
            tx.send(env).expect("host alive");
            for i in 0..split {
                bench.run_subtask(job, task, i);
            }
            assert!(flag.wait(Duration::from_secs(30)), "helper hung");
            two_core_us.push(as_us(t0.elapsed()));
        }
        drop(tx);
    });

    StageMeasurement {
        task,
        serial_us,
        two_core_us,
    }
}

/// Measures a subtask locally vs. migrated to a second core (Fig. 18).
pub fn measure_migration_overhead(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> MigrationMeasurement {
    // analyze: allow(call:new): one-time bench construction before the timed loops; failing fast on a bad config is intended
    let bench = Workbench::new(bw, antennas, mcs, 0x0F18_0000);
    let mut local_us = Samples::new();
    let mut migrated_us = Samples::new();

    pin_current_thread(0);
    let job = bench.job_at(task);
    let count = bench.subtask_count(&job, task);

    std::thread::scope(|s| {
        let (tx, rx) = mailbox();
        s.spawn(move || {
            pin_current_thread(1);
            host_loop(rx);
        });
        // Warm both paths before timing: the channel/thread wake-up
        // machinery, plus each thread's workspace and caches (one untimed
        // pass over every subtask locally and on the host).
        let (warm, wflag) = Envelope::new(|| {});
        // analyze: allow(panic): the host thread holds rx open for the scope's lifetime; a dead host must abort the probe loudly
        tx.send(warm).unwrap();
        wflag.wait(Duration::from_secs(5));
        for i in 0..count {
            bench.run_subtask(&job, task, i);
            let job_ref = &job;
            let bench_ref = &bench;
            let (env, flag) = Envelope::new(move || {
                bench_ref.run_subtask(job_ref, task, i);
            });
            // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
            tx.send(env).expect("host alive");
            // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
            assert!(flag.wait(Duration::from_secs(30)), "host hung");
        }
        // Interleave local and migrated trials so ambient load (other
        // tests, frequency scaling) perturbs both series equally.
        for t in 0..trials {
            let i = t % count;
            let t0 = Instant::now();
            bench.run_subtask(&job, task, i);
            local_us.push(as_us(t0.elapsed()));

            let job_ref = &job;
            let bench_ref = &bench;
            let t1 = Instant::now();
            let (env, flag) = Envelope::new(move || {
                bench_ref.run_subtask(job_ref, task, i);
            });
            // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
            tx.send(env).expect("host alive");
            // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
            assert!(flag.wait(Duration::from_secs(30)), "host hung");
            migrated_us.push(as_us(t1.elapsed()));
        }
        drop(tx);
    });

    let delta_us = {
        let mut l = local_us.clone();
        let mut m = migrated_us.clone();
        m.median() - l.median()
    };
    MigrationMeasurement {
        task,
        local_us,
        migrated_us,
        delta_us,
    }
}

/// Local vs. stolen per-subtask timings (µs): the lock-free counterpart
/// of [`MigrationMeasurement`].
#[derive(Clone, Debug)]
pub struct StealMeasurement {
    /// The task whose subtasks were measured.
    pub task: TaskKind,
    /// Per-subtask time when executed by the owning thread.
    pub local_us: Samples,
    /// Per-subtask time when stolen by another core (push → steal →
    /// execute → ready-flag round trip).
    pub stolen_us: Samples,
    /// Median overhead `stolen − local` (the steal-path δ), µs.
    pub delta_us: f64,
}

/// Spin-then-yield until `done` reads `epoch` (pure spinning would starve
/// the thief on machines with few CPUs).
fn wait_done(done: &AtomicU64, epoch: u64) {
    let mut spins = 0u32;
    while done.load(Ordering::Acquire) != epoch {
        if spins < 128 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Measures a subtask locally vs. stolen by a second core through the
/// Chase–Lev deque — the steal-path analogue of
/// [`measure_migration_overhead`]. No allocation happens at handoff: the
/// owner pushes a `(epoch, index)` ticket, the thief steals it, runs the
/// subtask, and publishes completion through an atomic.
pub fn measure_steal_overhead(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> StealMeasurement {
    // analyze: allow(call:new): one-time bench construction before the timed loops; failing fast on a bad config is intended
    let bench = Workbench::new(bw, antennas, mcs, 0x057E_A100);
    let mut local_us = Samples::new();
    let mut stolen_us = Samples::new();

    pin_current_thread(0);
    let job = bench.job_at(task);
    let count = bench.subtask_count(&job, task);
    let (mut w, s) = steal::steal_pair(64);
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|sc| {
        let job_ref = &job;
        let bench_ref = &bench;
        let done = &done;
        let stop = &stop;
        sc.spawn(move || {
            pin_current_thread(1);
            loop {
                match s.steal() {
                    Steal::Taken(t) => {
                        let (epoch, i) = steal::decode_ticket(t);
                        bench_ref.run_subtask(job_ref, task, i);
                        done.store(epoch, Ordering::Release);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        });
        // Warm both paths untimed: caches and workspaces on each thread.
        let mut epoch = 0u64;
        for i in 0..count {
            bench.run_subtask(&job, task, i);
            epoch += 1;
            // analyze: allow(panic): capacity proof — at most one outstanding ticket in a 64-slot deque
            w.push(steal::encode_ticket(epoch, i)).expect("deque room");
            wait_done(done, epoch);
        }
        // Interleave local and stolen trials so ambient load perturbs
        // both series equally.
        for t in 0..trials {
            let i = t % count;
            let t0 = Instant::now();
            bench.run_subtask(&job, task, i);
            local_us.push(as_us(t0.elapsed()));

            epoch += 1;
            let t1 = Instant::now();
            // analyze: allow(panic): capacity proof — at most one outstanding ticket in a 64-slot deque
            w.push(steal::encode_ticket(epoch, i)).expect("deque room");
            wait_done(done, epoch);
            stolen_us.push(as_us(t1.elapsed()));
        }
        stop.store(true, Ordering::Release);
    });

    let delta_us = {
        let mut l = local_us.clone();
        let mut m = stolen_us.clone();
        m.median() - l.median()
    };
    StealMeasurement {
        task,
        local_us,
        stolen_us,
        delta_us,
    }
}

/// Measures the serial wall time of one full subframe decode (µs) —
/// handy for calibrating node periods on the current machine.
pub fn measure_subframe_decode(bw: Bandwidth, antennas: usize, mcs: u8, trials: usize) -> Samples {
    let bench = Workbench::new(bw, antennas, mcs, 0xDEC0);
    let mut out = Samples::new();
    let guard = Mutex::new(());
    let _g = guard.lock();
    for _ in 0..trials {
        let t0 = Instant::now();
        let result = bench.rx.decode_subframe(&bench.samples).expect("decode");
        std::hint::black_box(result);
        out.push(as_us(t0.elapsed()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Structural checks only: the probes complete, return one sample per
    // trial, and every median is a finite positive time. Which side is
    // faster is a property of a pinned, otherwise idle host, not of a test
    // binary whose neighbours are the cluster tests' yield-spinning
    // workers; the ordering is reported from validated runs by
    // `benchmark/` (`runtime.steal.fft_delta_us`,
    // `runtime.steal.decode_delta_us`, `runtime.mailbox.decode_delta_us`).
    fn assert_sane(name: &str, samples: &Samples, trials: usize) {
        assert_eq!(samples.len(), trials, "{name}");
        let median = samples.clone().median();
        assert!(
            median.is_finite() && median > 0.0,
            "{name}: median {median}"
        );
    }

    #[test]
    fn fig4_parallelism_probe_is_sane() {
        // Narrow band keeps the test quick; MCS 16 at 5 MHz has ≥ 2 code
        // blocks, so there is something to split across cores.
        let m = measure_stage_parallelism(Bandwidth::Mhz5, 1, 16, TaskKind::Decode, 5);
        assert_sane("serial", &m.serial_us, 5);
        assert_sane("two-core", &m.two_core_us, 5);
    }

    #[test]
    fn fig18_migration_probe_is_sane() {
        let m = measure_migration_overhead(Bandwidth::Mhz5, 1, 16, TaskKind::Fft, 12);
        assert_sane("local", &m.local_us, 12);
        assert_sane("migrated", &m.migrated_us, 12);
    }

    #[test]
    fn steal_overhead_measurement_is_sane() {
        let m = measure_steal_overhead(Bandwidth::Mhz5, 1, 16, TaskKind::Fft, 12);
        assert_sane("local", &m.local_us, 12);
        assert_sane("stolen", &m.stolen_us, 12);
    }

    #[test]
    fn subframe_decode_measurement_is_sane() {
        assert_sane(
            "decode",
            &measure_subframe_decode(Bandwidth::Mhz1_4, 1, 10, 3),
            3,
        );
    }
}
