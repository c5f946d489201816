//! Micro-measurement harnesses behind Fig. 4 and Fig. 18.
//!
//! These run the staged decode the runtime ships, on **real** pinned
//! threads, timed with the monotonic clock. The owner side runs
//! [`SlabJob`]'s local subtasks straight into its slab; the migrated side
//! runs what the cluster's `execute_stolen` runs for a stolen ticket or a
//! mailbox envelope — [`UplinkRx::run_fft_batch_into`] or
//! [`UplinkRx::run_decode_subtask_into`], against a copy of the coded
//! LLRs, into result slots allocated before timing starts:
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
//!
//! The subtasks are the runtime's migration units: an FFT subtask is one
//! antenna's 14-symbol batch (the unit `DeltaGuard` admits), a decode
//! subtask is one code block. Demod is not a migratable stage — the
//! runtime runs it owner-local — so every probe refuses
//! [`TaskKind::Demod`].
//!
//! Every probe pins threads it spawns and owns (the owner on core 0, the
//! helper on core 1) and leaves the calling thread's affinity alone:
//! threads inherit the affinity of the thread that creates them.

use crate::affinity::pin_current_thread;
use crate::migrate::{host_loop, mailbox, Envelope};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_core::steal::{self, Steal};
use rtopex_model::stats::Samples;
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::params::{Bandwidth, SYMBOLS_PER_SUBFRAME};
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::uplink::{BlockBuf, JobSlab, SlabJob, UplinkConfig, UplinkRx, UplinkTx};
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

/// A migratable stage: the probes measure nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Fft,
    Decode,
}

impl Stage {
    /// # Panics
    /// Panics on [`TaskKind::Demod`], which the runtime never migrates.
    fn of(task: TaskKind) -> Self {
        match task {
            TaskKind::Fft => Stage::Fft,
            TaskKind::Decode => Stage::Decode,
            // analyze: allow(panic): caller contract, checked before any thread starts — demod runs owner-local in the runtime, so it has no migrated path to time; every caller passes Fft or Decode
            TaskKind::Demod => panic!("demod is not a migratable stage; probe Fft or Decode"),
        }
    }

    /// Runs subtask `i` of this stage on the owning thread, in `job`.
    fn run_local(self, job: &mut SlabJob<'_>, i: usize) {
        match self {
            Stage::Fft => job.run_fft_batch_local(i),
            Stage::Decode => job.run_decode_subtask_local(i),
        }
    }
}

/// A ready-to-decode subframe: receiver, received samples, the owner's
/// slab, and the coded LLRs and result slots of the migrated side.
struct Workbench {
    stage: Stage,
    rx: UplinkRx,
    samples: Vec<Vec<Cf32>>,
    slab: JobSlab,
    llrs: Vec<f32>,
    fft_slots: Vec<Mutex<Vec<Cf32>>>,
    dec_slots: Vec<Mutex<BlockBuf>>,
}

impl Workbench {
    /// # Panics
    /// Panics if `task` is [`TaskKind::Demod`] or the configuration is
    /// invalid.
    fn new(bw: Bandwidth, antennas: usize, mcs: u8, task: TaskKind, seed: u64) -> Self {
        let stage = Stage::of(task);
        let cfg = UplinkConfig::new(bw, antennas, mcs).expect("valid config");
        let tx = UplinkTx::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<u8> = (0..cfg.transport_block_bytes())
            .map(|_| rng.gen())
            .collect();
        let sf = tx.encode_subframe(&payload).expect("encode");
        let mut chan = AwgnChannel::new(30.0);
        let samples = chan.apply(&sf.samples, antennas, &mut rng);
        let mut slab = JobSlab::new();
        slab.warm(&cfg);
        let batch_len = SYMBOLS_PER_SUBFRAME * cfg.bandwidth.num_subcarriers();
        let fft_slots = (0..antennas)
            .map(|_| Mutex::new(Vec::with_capacity(batch_len)))
            .collect();
        let dec_slots = (0..cfg.segmentation().num_blocks)
            .map(|_| {
                let mut buf = BlockBuf::new();
                buf.warm(&cfg);
                Mutex::new(buf)
            })
            .collect();
        Workbench {
            stage,
            rx: UplinkRx::new(cfg),
            samples,
            slab,
            llrs: Vec::new(),
            fft_slots,
            dec_slots,
        }
    }

    /// Splits the bench into the owner's side and the helper's view; for
    /// the decode stage, the helper's coded LLRs come from one owner job.
    fn split(&mut self) -> (Owner<'_>, Helper<'_>) {
        let Workbench {
            stage,
            rx,
            samples,
            slab,
            llrs,
            fft_slots,
            dec_slots,
        } = self;
        let mut owner = Owner {
            stage: *stage,
            rx,
            samples,
            slab,
        };
        let count = match stage {
            Stage::Fft => samples.len(),
            Stage::Decode => {
                let job = owner.job();
                llrs.clear();
                llrs.extend_from_slice(job.coded_llrs());
                job.decode_subtask_count()
            }
        };
        let helper = Helper {
            stage: *stage,
            count,
            rx,
            samples,
            llrs,
            fft_slots,
            dec_slots,
        };
        (owner, helper)
    }
}

/// The owner side: subtasks of the probed stage on the owning thread,
/// straight into the slab.
struct Owner<'a> {
    stage: Stage,
    rx: &'a UplinkRx,
    samples: &'a [Vec<Cf32>],
    slab: &'a mut JobSlab,
}

impl Owner<'_> {
    /// A fresh job, advanced until the probed stage is runnable. A job
    /// runs each subtask once, as one subframe does in the runtime, so
    /// the probes start one per pass, untimed (nothing is allocated).
    fn job(&mut self) -> SlabJob<'_> {
        let mut job = self
            .rx
            .start_job_in(self.samples, self.slab)
            // analyze: allow(panic): bench setup of the job under test; the prepared subframe cannot fail to start once the config was validated
            .expect("job");
        if self.stage == Stage::Decode {
            for a in 0..self.samples.len() {
                job.run_fft_batch_local(a);
            }
            job.finish_fft();
            for i in 0..job.demod_subtask_count() {
                job.run_demod_subtask_local(i);
            }
        }
        job
    }
}

/// The migrated side: what `execute_stolen` runs — the `_into` kernel
/// into the subtask's result slot, under the slot's lock.
#[derive(Clone, Copy)]
struct Helper<'a> {
    stage: Stage,
    /// Subtasks in the probed stage: antennas or code blocks.
    count: usize,
    rx: &'a UplinkRx,
    samples: &'a [Vec<Cf32>],
    llrs: &'a [f32],
    fft_slots: &'a [Mutex<Vec<Cf32>>],
    dec_slots: &'a [Mutex<BlockBuf>],
}

impl Helper<'_> {
    fn migrated_subtask(&self, i: usize) {
        match self.stage {
            Stage::Fft => {
                let mut slot = self.fft_slots[i].lock();
                self.rx.run_fft_batch_into(self.samples, i, &mut slot);
            }
            Stage::Decode => {
                let mut slot = self.dec_slots[i].lock();
                let (iterations, crc_ok) =
                    self.rx
                        .run_decode_subtask_into(self.llrs, i, &mut slot.bits);
                slot.iterations = iterations;
                slot.crc_ok = crc_ok;
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
///
/// # Panics
/// Panics if `task` is [`TaskKind::Demod`].
pub fn measure_stage_parallelism(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> StageMeasurement {
    let mut bench = Workbench::new(bw, antennas, mcs, task, 0x0F16_4000);
    let (mut owner, helper) = bench.split();
    let (stage, n, split) = (owner.stage, helper.count, helper.count / 2);
    let mut serial_us = Samples::new();
    let mut two_core_us = Samples::new();

    std::thread::scope(|s| {
        let (tx, rx) = mailbox();
        s.spawn(move || {
            pin_current_thread(1);
            host_loop(rx);
        });
        let (serial_us, two_core_us) = (&mut serial_us, &mut two_core_us);
        s.spawn(move || {
            pin_current_thread(0);
            for _ in 0..trials {
                let mut job = owner.job();
                let t0 = Instant::now();
                for i in 0..n {
                    stage.run_local(&mut job, i);
                }
                serial_us.push(as_us(t0.elapsed()));
            }
            // Two-core timings: the helper runs the second half.
            for _ in 0..trials {
                let mut job = owner.job();
                let t0 = Instant::now();
                let (env, flag) = Envelope::new(move || {
                    for i in split..n {
                        helper.migrated_subtask(i);
                    }
                });
                tx.send(env).expect("host alive");
                for i in 0..split {
                    stage.run_local(&mut job, i);
                }
                assert!(flag.wait(Duration::from_secs(30)), "helper hung");
                two_core_us.push(as_us(t0.elapsed()));
            }
            // Dropping `tx` here ends the host loop.
        });
    });

    StageMeasurement {
        task,
        serial_us,
        two_core_us,
    }
}

/// Measures a subtask locally vs. migrated to a second core (Fig. 18).
///
/// # Panics
/// Panics if `task` is [`TaskKind::Demod`].
pub fn measure_migration_overhead(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> MigrationMeasurement {
    // analyze: allow(call:new): one-time bench construction before the timed loops; failing fast on a bad config is intended
    let mut bench = Workbench::new(bw, antennas, mcs, task, 0x0F18_0000);
    let (mut owner, helper) = bench.split();
    let (stage, count) = (owner.stage, helper.count);
    let mut local_us = Samples::new();
    let mut migrated_us = Samples::new();

    std::thread::scope(|s| {
        let (tx, rx) = mailbox();
        s.spawn(move || {
            pin_current_thread(1);
            host_loop(rx);
        });
        let (local_us, migrated_us) = (&mut local_us, &mut migrated_us);
        s.spawn(move || {
            pin_current_thread(0);
            // Ships subtask `i` to the host and waits for it.
            let migrate = |i: usize| {
                let (env, flag) = Envelope::new(move || helper.migrated_subtask(i));
                // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
                tx.send(env).expect("host alive");
                // analyze: allow(panic): a wedged or dead host invalidates the measurement; abort loudly rather than record garbage
                assert!(flag.wait(Duration::from_secs(30)), "host hung");
            };
            // Warm both paths before timing: the channel/thread wake-up
            // machinery, plus each thread's workspace and caches (one
            // untimed pass over every subtask locally and on the host).
            let (warm, wflag) = Envelope::new(|| {});
            // analyze: allow(panic): the host thread holds rx open for the scope's lifetime; a dead host must abort the probe loudly
            tx.send(warm).unwrap();
            wflag.wait(Duration::from_secs(5));
            let mut job = owner.job();
            for i in 0..count {
                stage.run_local(&mut job, i);
                migrate(i);
            }
            // Interleave local and migrated trials so ambient load (other
            // tests, frequency scaling) perturbs both series equally.
            for t in 0..trials {
                let i = t % count;
                let mut job = owner.job();
                let t0 = Instant::now();
                stage.run_local(&mut job, i);
                local_us.push(as_us(t0.elapsed()));

                let t1 = Instant::now();
                migrate(i);
                migrated_us.push(as_us(t1.elapsed()));
            }
            // Dropping `tx` here ends the host loop.
        });
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
///
/// # Panics
/// Panics if `task` is [`TaskKind::Demod`].
pub fn measure_steal_overhead(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> StealMeasurement {
    // analyze: allow(call:new): one-time bench construction before the timed loops; failing fast on a bad config is intended
    let mut bench = Workbench::new(bw, antennas, mcs, task, 0x057E_A100);
    let (mut owner, helper) = bench.split();
    let (stage, count) = (owner.stage, helper.count);
    let mut local_us = Samples::new();
    let mut stolen_us = Samples::new();
    let (mut w, s) = steal::steal_pair(64);
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|sc| {
        let (done, stop) = (&done, &stop);
        sc.spawn(move || {
            pin_current_thread(1);
            loop {
                match s.steal() {
                    Steal::Taken(t) => {
                        let (epoch, i) = steal::decode_ticket(t);
                        helper.migrated_subtask(i);
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
        let (local_us, stolen_us) = (&mut local_us, &mut stolen_us);
        sc.spawn(move || {
            pin_current_thread(0);
            // Publishes subtask `i` and waits until the thief ran it.
            let mut epoch = 0u64;
            let mut steal_round_trip = |i: usize| {
                epoch += 1;
                // analyze: allow(panic): capacity proof — at most one outstanding ticket in a 64-slot deque
                w.push(steal::encode_ticket(epoch, i)).expect("deque room");
                wait_done(done, epoch);
            };
            // Warm both paths untimed: caches and workspaces on each thread.
            let mut job = owner.job();
            for i in 0..count {
                stage.run_local(&mut job, i);
                steal_round_trip(i);
            }
            // Interleave local and stolen trials so ambient load perturbs
            // both series equally.
            for t in 0..trials {
                let i = t % count;
                let mut job = owner.job();
                let t0 = Instant::now();
                stage.run_local(&mut job, i);
                local_us.push(as_us(t0.elapsed()));

                let t1 = Instant::now();
                steal_round_trip(i);
                stolen_us.push(as_us(t1.elapsed()));
            }
            stop.store(true, Ordering::Release);
        });
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
    #[should_panic(expected = "demod is not a migratable stage")]
    fn fig4_probe_refuses_demod() {
        measure_stage_parallelism(Bandwidth::Mhz1_4, 1, 5, TaskKind::Demod, 1);
    }

    #[test]
    #[should_panic(expected = "demod is not a migratable stage")]
    fn fig18_probe_refuses_demod() {
        measure_migration_overhead(Bandwidth::Mhz1_4, 1, 5, TaskKind::Demod, 1);
    }

    #[test]
    #[should_panic(expected = "demod is not a migratable stage")]
    fn steal_probe_refuses_demod() {
        measure_steal_overhead(Bandwidth::Mhz1_4, 1, 5, TaskKind::Demod, 1);
    }

    /// The calling thread's `Cpus_allowed_list`, where the kernel has one.
    fn allowed_cpus() -> Option<String> {
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|v| v.trim().to_string())
    }

    #[test]
    fn probes_leave_the_callers_affinity_alone() {
        let Some(before) = allowed_cpus() else {
            return;
        };
        if crate::affinity::num_cpus() < 2 {
            return;
        }
        measure_stage_parallelism(Bandwidth::Mhz1_4, 1, 5, TaskKind::Fft, 2);
        assert_eq!(allowed_cpus(), Some(before.clone()), "Fig. 4 probe");
        measure_migration_overhead(Bandwidth::Mhz1_4, 1, 5, TaskKind::Decode, 2);
        assert_eq!(allowed_cpus(), Some(before.clone()), "Fig. 18 probe");
        measure_steal_overhead(Bandwidth::Mhz1_4, 1, 5, TaskKind::Fft, 2);
        assert_eq!(allowed_cpus(), Some(before), "steal probe");
    }
}
