//! Micro-measurement harnesses behind Fig. 4 and Fig. 18.
//!
//! These time the staged decode the runtime ships, on **real** pinned
//! threads, with the monotonic clock. The owner side runs [`SlabJob`]'s
//! local subtasks straight into its slab. The migrated side is the
//! cluster's own hand-off, on a cluster subframe (`prepare_pool`, 30 dB)
//! landed in a delivery slot: the owner publishes the stage on a
//! `CoreArena`'s board (epoch bump, plus the LLR snapshot for decode), a
//! helper takes an `(epoch, index)` ticket and runs the cluster's
//! `execute_stolen` into the arena's result slot (an FFT batch reads the
//! delivery slot), and the owner waits on the slot's ready flag with
//! `SlotBoard::wait`. Every migrated time therefore includes the
//! publication and board entry the node pays:
//!
//! * [`measure_stage_parallelism`] — a task's serial time vs. its time
//!   when half its subtasks are sent to a host on another core (Fig. 4);
//! * [`measure_migration_overhead`] — per-subtask execution time locally
//!   vs. end-to-end through a host parked on its inbox, as an idle
//!   mutex-mode core is; the difference is the machine's real migration
//!   cost δ (Fig. 18 reports ≈ 18–20 µs on the paper's Xeon);
//! * [`measure_steal_overhead`] — the same comparison with the ticket
//!   stolen from a bounded Chase–Lev deque by a spinning thief, as in
//!   steal mode. The two deltas differ only in the hand-off.
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
use crate::cluster::{
    execute_stolen, publish_stage, run_migrated, ClusterConfig, CoreArena, CranCluster, FedShared,
    Inbox, OwnJob, Prepared,
};
use rtopex_core::slots::SlotState;
use rtopex_core::steal::{self, Steal};
use rtopex_model::stats::Samples;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::uplink::{JobSlab, SlabJob};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Runs subtask `i` of the migratable stage `kind` on the owning thread,
/// in `job`.
fn run_local(kind: TaskKind, job: &mut SlabJob<'_>, i: usize) {
    match kind {
        TaskKind::Fft => job.run_fft_batch_local(i),
        _ => job.run_decode_subtask_local(i),
    }
}

/// One cluster subframe and the cluster state a migrated subtask of it
/// crosses: the pool entry it was encoded from, the owner's slab, core
/// 0's arena, and the delivery slot it landed in.
struct Workbench {
    kind: TaskKind,
    pool: Vec<Prepared>,
    slab: JobSlab,
    arenas: [CoreArena; 1],
    fed: FedShared,
    own: OwnJob,
}

impl Workbench {
    /// # Panics
    /// Panics if `task` is [`TaskKind::Demod`] or the configuration is
    /// invalid.
    fn new(bw: Bandwidth, antennas: usize, mcs: u8, task: TaskKind, seed: u64) -> Self {
        // analyze: allow(panic): caller contract, checked before any thread starts — demod runs owner-local in the runtime, so it has no migrated path to time; every caller passes Fft or Decode
        assert!(
            task != TaskKind::Demod,
            "demod is not a migratable stage; probe Fft or Decode"
        );
        let cfg = ClusterConfig {
            bandwidth: bw,
            num_antennas: antennas,
            num_cells: 1,
            snr_db: 30.0,
            mcs_pool: vec![mcs],
            seed,
            ..ClusterConfig::demo()
        };
        let pool = CranCluster::prepare_pool(&cfg);
        let mut slab = JobSlab::new();
        slab.warm(pool[0].rx.config());
        let fed = FedShared::new(&cfg, bw.samples_per_subframe());
        let slot = fed.cells[0]
            .land(&mut pool[0].samples.clone())
            .expect("an empty cell has a free slot");
        Workbench {
            kind: task,
            arenas: [CoreArena::new(&pool, &cfg)],
            pool,
            slab,
            fed,
            own: OwnJob {
                cell: 0,
                pool_idx: 0,
                slot,
                deadline: Instant::now() + Duration::from_secs(3600),
            },
        }
    }

    /// Splits the bench into the owner's side and the board both threads
    /// share.
    fn split(&mut self) -> (Owner<'_>, Board<'_>) {
        let Workbench {
            kind,
            pool,
            slab,
            arenas,
            fed,
            own,
        } = self;
        let (prepared, pool) = (&pool[0], &pool[..]);
        let mut owner = Owner {
            kind: *kind,
            prepared,
            slab,
        };
        let count = match kind {
            TaskKind::Fft => prepared.samples.len(),
            _ => owner.job().decode_subtask_count(),
        };
        let board = Board {
            kind: *kind,
            count,
            own: *own,
            arenas,
            fed,
            pool,
        };
        (owner, board)
    }
}

/// The owner side: subtasks of the probed stage on the owning thread,
/// straight into the slab.
struct Owner<'a> {
    kind: TaskKind,
    prepared: &'a Prepared,
    slab: &'a mut JobSlab,
}

impl Owner<'_> {
    /// A fresh job, advanced until the probed stage is runnable. A job
    /// runs each subtask once, as one subframe does in the runtime, so
    /// the probes start one per pass, untimed (nothing is allocated).
    fn job(&mut self) -> SlabJob<'_> {
        let samples = &self.prepared.samples;
        let mut job = self
            .prepared
            .rx
            .start_job_in(samples, self.slab)
            // analyze: allow(panic): bench setup of the job under test; the prepared subframe cannot fail to start once the config was validated
            .expect("job");
        if self.kind == TaskKind::Decode {
            for a in 0..samples.len() {
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

/// The hand-off both threads share: publication and ready flags on the
/// owner's (core 0's) arena, and what a helper needs to execute a ticket.
#[derive(Clone, Copy)]
struct Board<'a> {
    kind: TaskKind,
    /// Subtasks in the probed stage: antennas or code blocks.
    count: usize,
    own: OwnJob,
    arenas: &'a [CoreArena],
    fed: &'a FedShared,
    pool: &'a [Prepared],
}

impl Board<'_> {
    /// Publishes `job`'s probed stage as `run_stage` does and returns the
    /// epoch its tickets carry.
    fn publish(&self, job: &SlabJob<'_>) -> u64 {
        let llrs = (self.kind == TaskKind::Decode).then(|| job.coded_llrs());
        publish_stage(&self.arenas[0], self.kind, &self.own, self.count, 0.0, llrs)
    }

    /// Waits for subtask `i`'s result on the board, as the owner's
    /// fan-out does; a helper that has not delivered in 30 s is hung.
    fn wait(&self, i: usize) {
        let hung = Instant::now() + Duration::from_secs(30);
        loop {
            match self.arenas[0].board.wait(i, self.own.deadline) {
                SlotState::Done => return,
                SlotState::Pending if Instant::now() < hung => {}
                // analyze: allow(panic): a wedged or dead helper invalidates the measurement; abort loudly rather than record garbage
                state => panic!("helper hung on subtask {i}: {state:?}"),
            }
        }
    }

    /// A host parked on `inbox`, as an idle mutex-mode core is: runs each
    /// ticket sent to it until the inbox shuts down.
    fn serve(&self, inbox: &Inbox) {
        loop {
            let mut st = inbox.state.lock();
            while st.migrated.is_empty() && !st.shutdown {
                inbox.cv.wait(&mut st);
            }
            let Some(ticket) = st.migrated.pop_front() else {
                return;
            };
            drop(st);
            run_migrated(self.arenas, self.fed, self.pool, ticket);
        }
    }

    /// Runs `owner` on core 0 beside a host on core 1 that [`Self::serve`]s
    /// the inbox `owner` sends tickets to; the host exits once `owner`
    /// returns or panics.
    fn beside_host(&self, owner: impl FnOnce(&Inbox) + Send) {
        /// Shuts the host's inbox down when the owner thread ends.
        struct Release<'i>(&'i Inbox);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.shut_down();
            }
        }
        let inbox = Inbox::with_capacity(0, self.count);
        std::thread::scope(|s| {
            let inbox = &inbox;
            s.spawn(move || {
                pin_current_thread(1);
                self.serve(inbox);
            });
            s.spawn(move || {
                pin_current_thread(0);
                let _release = Release(inbox);
                owner(inbox);
            });
        });
    }
}

fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Measures one task's serial vs. two-core execution time (Fig. 4).
///
/// The two-core run publishes the stage and sends the second half of its
/// subtasks to a host pinned to another core, as mutex mode sends
/// Algorithm 1's batches; the owner runs the first half, then waits for
/// each sent subtask's ready flag.
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
    let (mut owner, board) = bench.split();
    let (kind, n, split) = (owner.kind, board.count, board.count / 2);
    let mut serial_us = Samples::new();
    let mut two_core_us = Samples::new();

    let (serial, two_core) = (&mut serial_us, &mut two_core_us);
    board.beside_host(move |inbox| {
        for _ in 0..trials {
            let mut job = owner.job();
            let t0 = Instant::now();
            for i in 0..n {
                run_local(kind, &mut job, i);
            }
            serial.push(as_us(t0.elapsed()));
        }
        for _ in 0..trials {
            let mut job = owner.job();
            let t0 = Instant::now();
            let epoch = board.publish(&job);
            for i in split..n {
                inbox.push_migrated(0, steal::encode_ticket(epoch, i));
            }
            for i in 0..split {
                run_local(kind, &mut job, i);
            }
            for i in split..n {
                board.wait(i);
            }
            two_core.push(as_us(t0.elapsed()));
        }
    });

    StageMeasurement {
        task,
        serial_us,
        two_core_us,
    }
}

/// Fills `m` with Fig. 18's comparison: subtask `i % count` of the
/// owner's stage run locally, then through `hand_off`, which publishes
/// the job's stage, hands subtask `i` to the helper and waits until it
/// ran. One untimed pass over every subtask warms both paths first.
fn time_hand_off(
    m: &mut MigrationMeasurement,
    owner: &mut Owner<'_>,
    count: usize,
    trials: usize,
    mut hand_off: impl FnMut(&SlabJob<'_>, usize),
) {
    let kind = owner.kind;
    // Warm both paths before timing: the helper's wake-up, plus each
    // thread's workspace and caches.
    let mut job = owner.job();
    for i in 0..count {
        run_local(kind, &mut job, i);
        hand_off(&job, i);
    }
    // Interleave local and handed-off trials so ambient load (other
    // tests, frequency scaling) perturbs both series equally.
    for t in 0..trials {
        let i = t % count;
        let mut job = owner.job();
        let t0 = Instant::now();
        run_local(kind, &mut job, i);
        m.local_us.push(as_us(t0.elapsed()));

        let t1 = Instant::now();
        hand_off(&job, i);
        m.migrated_us.push(as_us(t1.elapsed()));
    }
    m.delta_us = m.migrated_us.clone().median() - m.local_us.clone().median();
}

/// An empty measurement of `task`, for [`time_hand_off`] to fill.
fn unmeasured(task: TaskKind) -> MigrationMeasurement {
    MigrationMeasurement {
        task,
        local_us: Samples::new(),
        migrated_us: Samples::new(),
        delta_us: 0.0,
    }
}

/// Measures a subtask locally vs. migrated to a second core (Fig. 18):
/// the migrated time runs from publication to the owner seeing the
/// subtask's ready flag, through a host parked on its inbox.
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
    let (mut owner, board) = bench.split();
    let mut m = unmeasured(task);
    let out = &mut m;
    board.beside_host(move |inbox| {
        time_hand_off(out, &mut owner, board.count, trials, |job, i| {
            let epoch = board.publish(job);
            inbox.push_migrated(0, steal::encode_ticket(epoch, i));
            board.wait(i);
        });
    });
    m
}

/// Measures a subtask locally vs. stolen by a second core through the
/// Chase–Lev deque — the steal-path analogue of
/// [`measure_migration_overhead`]: the owner publishes the stage and
/// pushes an `(epoch, index)` ticket, a spinning thief steals it and runs
/// `execute_stolen`, and the owner waits on the ready flag. Nothing is
/// allocated at hand-off. The result's `migrated_us` are the stolen
/// round trips (publish → push → steal → execute → ready flag).
///
/// # Panics
/// Panics if `task` is [`TaskKind::Demod`].
pub fn measure_steal_overhead(
    bw: Bandwidth,
    antennas: usize,
    mcs: u8,
    task: TaskKind,
    trials: usize,
) -> MigrationMeasurement {
    // analyze: allow(call:new): one-time bench construction before the timed loops; failing fast on a bad config is intended
    let mut bench = Workbench::new(bw, antennas, mcs, task, 0x057E_A100);
    let (mut owner, board) = bench.split();
    let mut m = unmeasured(task);
    let (mut w, s) = steal::steal_pair(64);
    let stop = AtomicBool::new(false);

    std::thread::scope(|sc| {
        let stop = &stop;
        sc.spawn(move || {
            pin_current_thread(1);
            loop {
                match s.steal() {
                    Steal::Taken(t) => {
                        let (epoch, i) = steal::decode_ticket(t);
                        execute_stolen(&board.arenas[0], board.fed, board.pool, epoch, i, |_| true);
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
        let out = &mut m;
        sc.spawn(move || {
            pin_current_thread(0);
            time_hand_off(out, &mut owner, board.count, trials, |job, i| {
                let epoch = board.publish(job);
                // analyze: allow(panic): capacity proof — at most one outstanding ticket in a 64-slot deque
                w.push(steal::encode_ticket(epoch, i)).expect("deque room");
                board.wait(i);
            });
            stop.store(true, Ordering::Release);
        });
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    // Structural checks only: the probes complete, return one sample per
    // trial, and every median is a finite positive time. Which side is
    // faster is a property of a pinned, otherwise idle host, not of a test
    // binary whose neighbours are the cluster tests' worker threads
    // (steal-mode thieves spin while a subframe is live); the ordering is
    // reported from validated runs by
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
        assert_sane("stolen", &m.migrated_us, 12);
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
