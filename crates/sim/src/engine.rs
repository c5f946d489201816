//! The simulation engine: one event loop on one timeline, with the
//! scheduler under test as its policy.
//!
//! [`Engine`] owns what every scheduler shares — the [`TimingWheel`], the
//! per-cell [`TaskStream`]s, release chaining, the run loops and the
//! report — and hands each event to one of two policies, picked once
//! from [`SchedulerKind`] and matched statically per event:
//!
//! * `Partitioned` — the offline core mapping of §3.1.1, which also
//!   carries the semi-partitioned baseline (whole-task moves) and
//!   RT-OPEX (§3.2: the same mapping with runtime subtask migration).
//!   Subframe releases and per-task stage boundaries are the events, so
//!   every migration decision observes the core states exactly as of its
//!   stage-start instant;
//! * `Global` — the shared-queue dispatcher of §3.1.2 (Figs. 15, 19).
//!
//! Faithful details of the partitioned family:
//!
//! * slack check before each task stage ("we check on the slack time
//!   before we execute each task; … else we drop the task and the
//!   subframe", §4.1) — a dropped subframe is a deadline miss;
//! * gaps left by drops are **not** offered for migration ("the resulting
//!   gaps are, however, not used for migration");
//! * hosts are preempted by their own next subframe release — which is
//!   deterministic under the partitioned base schedule, so Algorithm 1
//!   knows every idle core's free-time budget `fck`. The three decisions
//!   involved (next own subframe, idle-window survey, R1) are
//!   `rtopex-core` functions the threaded runtime calls too;
//! * migrated batches may overrun their estimate (background/kernel
//!   noise); subtasks whose results are not ready when the owner finishes
//!   its local share are recomputed locally — the recovery state (Fig. 12),
//!   guaranteeing RT-OPEX is never worse than no migration.
//!
//! What keeps the global scheduler from matching partitioned performance
//! — the paper's "surprising behavior" — is modeled explicitly:
//!
//! * a fixed dispatch overhead per assignment (locking, wake-up);
//! * a **cache-affinity penalty**: a worker that last served a different
//!   basestation pays to refill its cache, and a basestation whose context
//!   last lived on a different core pays coherence traffic to move it.
//!   More workers ⇒ a basestation's subframes scatter more ⇒ both
//!   penalties fire more often — why 16 cores is no better than 8
//!   (Fig. 19);
//! * a task still running at its deadline is terminated on the spot
//!   ("the processing thread terminates the ongoing task and goes to an
//!   idle state").
//!
//! ## Mechanics
//!
//! One release event per basestation is in flight at a time: handling
//! `Release{bs, j}` draws subframe `j` from the basestation's stream and
//! schedules `Release{bs, j+1}`. Memory is O(cells + cores), independent
//! of run length. Release times are deterministic (`j·1 ms + RTT/2`) and
//! same-time releases chain in basestation order, so the event sequence
//! is the one pushing every release up front would give.
//!
//! The steady-state loop is allocation-free: the idle-core survey, the
//! Algorithm 1 assignment list, and host reservations live in reusable
//! scratch buffers; the global dispatcher counts free workers and walks
//! to the `k`-th instead of collecting them; and per-sample recording
//! (`Samples` growth) can be switched off via
//! [`SimConfig::record_samples`] while the fixed-size processing-time
//! histogram keeps recording.

use crate::config::{SchedulerKind, SimConfig};
use crate::event::EventKind;
use crate::gen::TaskStream;
use crate::report::SimReport;
use crate::wheel::TimingWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_core::global::{GlobalQueue, QueuePolicy};
use rtopex_core::migration::{plan_migration_into, survey_idle_windows};
use rtopex_core::partitioned::PartitionedSchedule;
use rtopex_core::task::{StageProfile, SubframeTask};
use rtopex_core::time::Nanos;
use rtopex_phy::tasks::TaskKind;
use std::collections::VecDeque;

/// What every scheduler shares: the timeline, the workload and the
/// report. Policies receive it by `&mut` next to their own state.
struct Sim<'a> {
    cfg: &'a SimConfig,
    rtt: Nanos,
    streams: Vec<TaskStream<'a>>,
    events: TimingWheel,
    report: SimReport,
}

impl Sim<'_> {
    /// True once `core` has failed at time `t`.
    fn core_failed(&self, core: usize, t: Nanos) -> bool {
        matches!(self.cfg.failed_core, Some((c, at)) if c == core && t >= Nanos::from_us(at))
    }

    fn record_proc_time(&mut self, us: f64) {
        self.report.proc_hist.record(us);
        if self.cfg.record_samples {
            self.report.proc_times_us.push(us);
        }
    }
}

/// The scheduler under test.
enum Policy {
    Partitioned(Partitioned),
    Global(Global),
}

/// The simulation engine (see the module docs).
pub struct Engine<'a> {
    sim: Sim<'a>,
    policy: Policy,
}

impl<'a> Engine<'a> {
    /// Builds the engine for `cfg.scheduler` with the first release of
    /// every basestation scheduled, ready for [`Self::run`] or
    /// incremental [`Self::run_until`] calls.
    pub fn new(cfg: &'a SimConfig) -> Self {
        let policy = match cfg.scheduler {
            SchedulerKind::Global { cores, policy } => {
                Policy::Global(Global::new(cfg, cores, policy))
            }
            _ => Policy::Partitioned(Partitioned::new(cfg)),
        };
        let mut engine = Engine {
            sim: Sim {
                cfg,
                rtt: Nanos::from_us(cfg.rtt_half_us),
                streams: (0..cfg.num_bs).map(|bs| TaskStream::new(cfg, bs)).collect(),
                events: TimingWheel::new(),
                report: SimReport::new(cfg.num_bs),
            },
            policy,
        };
        engine.prime();
        engine
    }

    /// Schedules every basestation's first release; each release chains
    /// the next (see [`Self::on_event`]).
    fn prime(&mut self) {
        if self.sim.cfg.subframes == 0 {
            return;
        }
        for bs in 0..self.sim.cfg.num_bs {
            self.sim
                .events
                .push(self.sim.rtt, EventKind::Release { bs, index: 0 });
        }
    }

    /// Runs to completion and returns the report.
    pub fn run(self) -> SimReport {
        self.into_report()
    }

    /// Processes every event with timestamp ≤ `until`, then stops. The
    /// allocation-regression harness uses this to split a run into a
    /// warm-up phase and a counted steady-state phase.
    pub fn run_until(&mut self, until: Nanos) {
        while let Some(tn) = self.sim.events.peek_time() {
            if tn > until {
                return;
            }
            let (t, kind) = self.sim.events.pop().expect("event peeked above");
            self.on_event(t, kind);
        }
    }

    /// Finishes an incrementally-driven run (see [`Self::run_until`]).
    pub fn into_report(mut self) -> SimReport {
        while let Some((t, kind)) = self.sim.events.pop() {
            self.on_event(t, kind);
        }
        self.sim.report
    }

    /// Dispatches one event — the simulator's hot loop. Allocation-,
    /// lock-, and clock-free (enforced by the static purity pass and the
    /// counting-allocator regression test).
    fn on_event(&mut self, t: Nanos, kind: EventKind) {
        let sim = &mut self.sim;
        match (kind, &mut self.policy) {
            (EventKind::Release { bs, index }, policy) => {
                let task = sim.streams[bs]
                    .next_task()
                    .expect("release events never outrun the task stream");
                debug_assert_eq!(task.subframe_index, index);
                // Chain the basestation's next release. Same-time releases
                // are handled in basestation order, so the chained pushes
                // for release j+1 happen in basestation order too — the
                // FIFO tie-break is identical to pushing everything up
                // front.
                if index + 1 < sim.cfg.subframes as u64 {
                    sim.events.push(
                        Nanos::from_ms(index + 1) + sim.rtt,
                        EventKind::Release {
                            bs,
                            index: index + 1,
                        },
                    );
                }
                match policy {
                    Policy::Partitioned(p) => p.on_release(sim, t, task),
                    Policy::Global(g) => g.on_release(sim, t, task),
                }
            }
            (EventKind::StageBoundary { core }, Policy::Partitioned(p)) => p.on_stage(sim, t, core),
            (EventKind::TaskDone { core }, Policy::Global(g)) => g.on_done(sim, t, core),
            (kind, _) => unreachable!("{kind:?} is not an event of this scheduler"),
        }
    }
}

/// "No further own release": far enough out that every window fits, far
/// enough from `u64::MAX` that adding to it cannot wrap.
const NEVER: Nanos = Nanos(u64::MAX / 2);

/// Which stage an in-flight task executes next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Fft,
    Demod,
    Decode,
    Finish,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    task: SubframeTask,
    next: Stage,
    start: Nanos,
}

/// A planned (not yet committed) parallelizable stage execution. The
/// host-core reservations it implies live in the policy's reusable
/// `host_updates` buffer, so the plan itself is a plain value.
#[derive(Clone, Copy, Debug)]
struct StagePlan {
    /// When the stage (including any recovery) completes.
    end: Nanos,
    kind: TaskKind,
    subtasks: usize,
    migrated: usize,
    recover: usize,
}

#[derive(Clone, Debug)]
struct CoreSim {
    queue: VecDeque<SubframeTask>,
    current: Option<InFlight>,
    /// Busy hosting a migrated batch until this instant.
    host_busy_until: Nanos,
    /// Post-drop gap: hosting disabled until the core's next own release.
    no_host_until: Nanos,
    /// When the previous own task ended (for gap accounting).
    last_end: Option<Nanos>,
}

impl CoreSim {
    fn new() -> Self {
        CoreSim {
            // Prewarmed: backlog depth is small (a core clears its queue
            // within a few subframe periods or starts dropping).
            queue: VecDeque::with_capacity(16),
            current: None,
            host_busy_until: Nanos::ZERO,
            no_host_until: Nanos::ZERO,
            last_end: None,
        }
    }
}

/// The partitioned family: plain partitioned, semi-partitioned, RT-OPEX.
struct Partitioned {
    /// RT-OPEX: migrate subtasks at runtime.
    migrate: bool,
    /// Semi-partitioned: move whole tasks off a busy home core.
    semi: bool,
    delta: Nanos,
    schedule: PartitionedSchedule,
    cores: Vec<CoreSim>,
    /// Host-side noise (batch overruns), a stream of its own.
    rng: StdRng,
    /// Scratch: idle cores and their free windows, for Algorithm 1.
    idle_scratch: Vec<(usize, Nanos)>,
    /// Scratch: Algorithm 1's `(core, batch)` assignments.
    mig_scratch: Vec<(usize, usize)>,
    /// Scratch: host reservations of the stage plan under consideration.
    host_updates: Vec<(usize, Nanos)>,
}

impl Partitioned {
    fn new(cfg: &SimConfig) -> Self {
        let schedule = match cfg.cores_per_bs {
            Some(n) => PartitionedSchedule::with_cores_per_bs(cfg.num_bs, n),
            None => PartitionedSchedule::new(cfg.num_bs, &cfg.budget()),
        };
        // Scheduled cores plus any spare cores (§5-B): spares never
        // receive releases, so they are permanently idle hosts that only
        // RT-OPEX's migration can exploit.
        let num_cores = schedule.total_cores() + cfg.spare_cores;
        let (migrate, delta) = match cfg.scheduler {
            SchedulerKind::RtOpex { delta_us } => (true, Nanos::from_us(delta_us)),
            _ => (false, Nanos::from_us(20)),
        };
        Partitioned {
            migrate,
            semi: cfg.scheduler == SchedulerKind::SemiPartitioned,
            delta,
            cores: (0..num_cores).map(|_| CoreSim::new()).collect(),
            schedule,
            rng: StdRng::seed_from_u64(cfg.seed ^ HOST_NOISE_SEED_MIX),
            idle_scratch: Vec::with_capacity(num_cores),
            mig_scratch: Vec::with_capacity(num_cores),
            host_updates: Vec::with_capacity(num_cores),
        }
    }

    /// Semi-partitioned whole-task placement: when the home core is busy,
    /// move the *entire* task into another core's idle window (task
    /// granularity — the paper's [14] baseline). Returns true if placed.
    fn try_whole_task_migration(&mut self, sim: &mut Sim, t: Nanos, task: SubframeTask) -> bool {
        let total = task.profile.total();
        let target = (0..self.cores.len()).find(|&c| {
            let core = &self.cores[c];
            core.current.is_none()
                && core.host_busy_until <= t
                && !sim.core_failed(c, t)
                && self.next_release(sim, c, t).saturating_sub(t) >= total
        });
        let Some(c) = target else {
            return false;
        };
        let end = t + total;
        self.cores[c].host_busy_until = end;
        sim.report.deadline.record(task.bs_id, end > task.deadline);
        if !task.crc_ok {
            sim.report.crc_failures += 1;
        }
        sim.record_proc_time(total.as_us_f64());
        sim.report.migration.record_whole_task();
        true
    }

    fn on_release(&mut self, sim: &mut Sim, t: Nanos, task: SubframeTask) {
        let core = self.schedule.core_for(task.bs_id, task.subframe_index);
        if sim.core_failed(core, t) {
            // The partitioned mapping is static: a dead core's subframes
            // are simply lost (§5-B's "significant performance
            // degradation" under resource changes).
            sim.report.deadline.record(task.bs_id, true);
            sim.report.dropped += 1;
            return;
        }
        if self.semi
            && self.cores[core].current.is_some()
            && self.try_whole_task_migration(sim, t, task)
        {
            return;
        }
        self.cores[core].queue.push_back(task);
        // A release preempts any hosted batch on this core (the batch's
        // useful-results accounting already capped at this instant).
        self.cores[core].host_busy_until = self.cores[core].host_busy_until.min(t);
        self.try_start(sim, t, core);
    }

    fn try_start(&mut self, sim: &mut Sim, t: Nanos, core: usize) {
        if self.cores[core].current.is_some() {
            return;
        }
        let Some(task) = self.cores[core].queue.pop_front() else {
            return;
        };
        if let Some(prev_end) = self.cores[core].last_end {
            if sim.cfg.record_samples {
                sim.report.gaps.record(t.saturating_sub(prev_end));
            }
        }
        self.cores[core].current = Some(InFlight {
            task,
            next: Stage::Fft,
            start: t,
        });
        sim.events.push(t, EventKind::StageBoundary { core });
    }

    /// The core's next own subframe release strictly after `t` —
    /// deterministic under the partitioned schedule. Spare cores have no
    /// releases at all.
    fn next_release(&self, sim: &Sim, core: usize, t: Nanos) -> Nanos {
        if core >= self.schedule.total_cores() {
            return NEVER;
        }
        // The first subframe released strictly after `t` (`j·1 ms + RTT/2
        // > t`), then the schedule's first own index from there.
        let from =
            t.0.checked_sub(sim.rtt.0)
                .map_or(0, |e| e / Nanos::MS.0 + 1);
        let j = self.schedule.next_own_index(core, from);
        if j >= sim.cfg.subframes as u64 {
            // No more releases for this core: effectively unbounded window.
            return NEVER;
        }
        Nanos::from_ms(j) + sim.rtt
    }

    /// Surveys idle cores and their free-time budgets at `t` into
    /// `idle_scratch`, in Algorithm 1's order.
    fn fill_idle_cores(&mut self, sim: &Sim, t: Nanos, requester: usize) {
        let mut idle = std::mem::take(&mut self.idle_scratch);
        let windows = self.cores.iter().enumerate().filter_map(|(c, core)| {
            let hosting = core.current.is_none()
                && core.host_busy_until <= t
                && core.no_host_until <= t
                && !sim.core_failed(c, t);
            hosting.then(|| (c, self.next_release(sim, c, t).saturating_sub(t)))
        });
        survey_idle_windows(requester, windows, &mut idle);
        self.idle_scratch = idle;
    }

    fn drop_task(&mut self, sim: &mut Sim, t: Nanos, core: usize) {
        let inf = self.cores[core].current.take().expect("task in flight");
        sim.report.deadline.record(inf.task.bs_id, true);
        sim.report.dropped += 1;
        // The gap a drop leaves is not offered to migration (§4.1).
        self.cores[core].no_host_until = self.next_release(sim, core, t);
        self.cores[core].last_end = Some(t);
        self.try_start(sim, t, core);
    }

    /// Plans a parallelizable stage starting at `t` **without** mutating
    /// core state, so the slack check can veto it first. Returns the
    /// stage end time; host reservations to apply on commit are left in
    /// `host_updates`.
    fn plan_parallel_stage(
        &mut self,
        sim: &Sim,
        t: Nanos,
        core: usize,
        kind: TaskKind,
        stage: StageProfile,
    ) -> StagePlan {
        let p = stage.subtasks;
        let tp = stage.subtask;
        let serial_end = t + stage.total();
        self.host_updates.clear();
        let mut plan_out = StagePlan {
            end: serial_end,
            kind,
            subtasks: p,
            migrated: 0,
            recover: 0,
        };
        if !self.migrate || p <= 1 {
            return plan_out;
        }
        self.fill_idle_cores(sim, t, core);
        let stats =
            plan_migration_into(p, tp, self.delta, &self.idle_scratch, &mut self.mig_scratch);
        if stats.local == p {
            return plan_out;
        }
        let local_end = t + Nanos(tp.0 * stats.local as u64);
        let mut recover = 0usize;
        let mut results_ready_at = local_end;
        let mut migrated = 0usize;
        for i in 0..self.mig_scratch.len() {
            let (host, n) = self.mig_scratch[i];
            migrated += n;
            // Host-side noise: a batch occasionally overruns its estimate.
            let tp_actual = if self.rng.gen_bool(sim.cfg.overrun_prob) {
                Nanos((tp.0 as f64 * sim.cfg.overrun_factor) as u64)
            } else {
                tp
            };
            let per = tp_actual + self.delta;
            // The host runs the batch until done or until its own next
            // subframe preempts it (result-not-ready flag, Fig. 12).
            let preempt = self.next_release(sim, host, t);
            let mut completed = 0usize;
            for i in 1..=n {
                if t + Nanos(per.0 * i as u64) <= preempt {
                    completed = i;
                } else {
                    break;
                }
            }
            recover += n - completed;
            let effective_end = (t + Nanos(per.0 * n as u64)).min(preempt);
            self.host_updates.push((host, effective_end));
            if completed > 0 {
                // The owner waits for results still being computed.
                results_ready_at = results_ready_at.max(t + Nanos(per.0 * completed as u64));
            }
        }
        plan_out.migrated = migrated;
        plan_out.recover = recover;
        // Owner: local share, wait for in-flight results, then serially
        // recover the subtasks cut off by host preemption. If a badly
        // overrunning batch would make waiting slower than the serial
        // baseline, the owner recomputes instead (recovery), so the stage
        // can never end later than serial execution — the paper's "equal
        // to or strictly better" guarantee.
        let end = results_ready_at.max(local_end) + Nanos(tp.0 * recover as u64);
        plan_out.end = end.min(serial_end);
        plan_out
    }

    /// Applies a stage plan's side effects (host reservations from
    /// `host_updates`, migration accounting).
    fn commit_stage(&mut self, sim: &mut Sim, plan: &StagePlan) {
        for i in 0..self.host_updates.len() {
            let (host, until) = self.host_updates[i];
            self.cores[host].host_busy_until = until;
        }
        if self.migrate {
            sim.report
                .migration
                .record_stage(plan.kind, plan.subtasks, plan.migrated);
            if plan.recover > 0 {
                sim.report.migration.record_recovery(plan.recover);
            }
        }
    }

    fn on_stage(&mut self, sim: &mut Sim, t: Nanos, core: usize) {
        let Some(inf) = self.cores[core].current else {
            return;
        };
        let task = inf.task;
        let deadline = task.deadline;
        match inf.next {
            Stage::Fft => {
                // Slack check against the stage's *achievable* end: under
                // RT-OPEX the migration plan is drawn up first, so a task
                // that only fits thanks to migration is not dropped.
                let plan = self.plan_parallel_stage(sim, t, core, TaskKind::Fft, task.profile.fft);
                if plan.end > deadline {
                    self.drop_task(sim, t, core);
                    return;
                }
                self.commit_stage(sim, &plan);
                self.advance(sim, core, Stage::Demod, plan.end);
            }
            Stage::Demod => {
                if t + task.profile.demod > deadline {
                    self.drop_task(sim, t, core);
                    return;
                }
                self.advance(sim, core, Stage::Decode, t + task.profile.demod);
            }
            Stage::Decode => {
                let plan =
                    self.plan_parallel_stage(sim, t, core, TaskKind::Decode, task.profile.decode);
                let end = plan.end + task.profile.platform_extra;
                if end > deadline {
                    self.drop_task(sim, t, core);
                    return;
                }
                self.commit_stage(sim, &plan);
                self.advance(sim, core, Stage::Finish, end);
            }
            Stage::Finish => {
                let missed = t > deadline;
                sim.report.deadline.record(task.bs_id, missed);
                if !task.crc_ok {
                    sim.report.crc_failures += 1;
                }
                sim.record_proc_time((t - inf.start).as_us_f64());
                self.cores[core].current = None;
                self.cores[core].last_end = Some(t);
                self.try_start(sim, t, core);
            }
        }
    }

    fn advance(&mut self, sim: &mut Sim, core: usize, next: Stage, at: Nanos) {
        if let Some(inf) = self.cores[core].current.as_mut() {
            inf.next = next;
        }
        sim.events.push(at, EventKind::StageBoundary { core });
    }
}

/// Seed-mixing constant separating the host-noise RNG stream from the
/// task-generation streams.
const HOST_NOISE_SEED_MIX: u64 = 0x0517_09E8_7709_0EC5;

#[derive(Clone, Copy, Debug, Default)]
struct Worker {
    busy: bool,
    /// Whether the in-flight task will complete (vs. be cut at deadline).
    completes: bool,
    current_bs: usize,
    crc_ok: bool,
    /// Full execution time (penalties included, not deadline-truncated).
    exec_us: f64,
}

/// The global scheduler: a dispatcher holds the shared ring-buffer
/// queue; any free worker core takes the next subframe (EDF or FIFO) and
/// processes it serially.
struct Global {
    workers: Vec<Worker>,
    /// When each (core, basestation) pairing last executed — the cache
    /// recency the penalty model decays over.
    last_served: Vec<Vec<Option<Nanos>>>,
    /// Dispatch nondeterminism: a real "next available core" choice
    /// depends on wake-up races, so the engine picks uniformly among the
    /// free workers. (A deterministic round-robin resonates with the
    /// 4-basestation release cycle whenever the pool size is a multiple
    /// of 4, accidentally giving every core a fixed basestation.)
    pick: StdRng,
    queue: GlobalQueue,
}

impl Global {
    fn new(cfg: &SimConfig, cores: usize, policy: QueuePolicy) -> Self {
        assert!(cores > 0, "at least one worker core");
        Global {
            workers: vec![Worker::default(); cores],
            last_served: vec![vec![None; cfg.num_bs]; cores],
            pick: StdRng::seed_from_u64(cfg.seed ^ 0x61_0BA1),
            queue: GlobalQueue::new(policy, cfg.queue_capacity),
        }
    }

    fn on_release(&mut self, sim: &mut Sim, t: Nanos, task: SubframeTask) {
        if let Some(evicted) = self.queue.push(task) {
            sim.report.deadline.record(evicted.bs_id, true);
            sim.report.dropped += 1;
        }
        self.dispatch(sim, t);
    }

    fn on_done(&mut self, sim: &mut Sim, t: Nanos, core: usize) {
        let w = self.workers[core];
        self.workers[core].busy = false;
        sim.report.deadline.record(w.current_bs, !w.completes);
        if w.completes && !w.crc_ok {
            sim.report.crc_failures += 1;
        }
        // Fig. 19 (right) plots the *execution-time* distribution, so
        // deadline-cut tasks report their full would-be time rather than
        // vanishing.
        sim.record_proc_time(w.exec_us);
        self.dispatch(sim, t);
    }

    fn dispatch(&mut self, sim: &mut Sim, t: Nanos) {
        // No pre-dispatch feasibility filtering: per §3.1.2 a hopeless
        // task still occupies its core until the deadline terminates it —
        // one of the reasons global lags partitioned in Fig. 15.
        loop {
            // Uniform choice among free workers without collecting them:
            // same count ⇒ same gen_range draw ⇒ same worker as a
            // Vec-based selection, with zero allocation.
            let free_count = self.workers.iter().filter(|w| !w.busy).count();
            if free_count == 0 {
                return;
            }
            let k = self.pick.gen_range(0..free_count);
            let core = (0..self.workers.len())
                .filter(|&c| !self.workers[c].busy)
                .nth(k)
                .expect("k drawn below the free-worker count");
            let Some(task) = self.queue.pop() else {
                return;
            };
            self.exec(sim, t, core, task);
        }
    }

    fn exec(&mut self, sim: &mut Sim, t: Nanos, core: usize, task: SubframeTask) {
        let cache = &sim.cfg.cache;
        // Cache-recency penalty: decays toward the cold maximum with the
        // time since this core last processed this basestation.
        let warmth = match self.last_served[core][task.bs_id] {
            Some(last) => {
                let dt_ms = (t - last).as_ms_f64();
                (-dt_ms / cache.reuse_tau_ms).exp()
            }
            None => 0.0,
        };
        let penalty_us = cache.dispatch_overhead_us + cache.cold_penalty_us * (1.0 - warmth);
        self.last_served[core][task.bs_id] = Some(t);

        let exec = task.profile.total() + Nanos::from_us_f64(penalty_us);
        let exec_end = t + exec;
        // A task hitting its deadline is terminated there (§3.1.2); a
        // task dispatched after its deadline is terminated immediately.
        let occupied_until = exec_end.min(task.deadline).max(t);
        self.workers[core] = Worker {
            busy: true,
            completes: exec_end <= task.deadline,
            current_bs: task.bs_id,
            crc_ok: task.crc_ok,
            exec_us: exec.as_us_f64(),
        };
        sim.events
            .push(occupied_until, EventKind::TaskDone { core });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_core::global::QueuePolicy;
    use rtopex_workload::Scenario;

    fn cfg(rtt: u64, sched: SchedulerKind) -> SimConfig {
        let mut c = SimConfig::from_scenario(&Scenario::smoke_test(), rtt);
        c.scheduler = sched;
        c
    }

    #[test]
    fn partitioned_counts_every_subframe() {
        let c = cfg(500, SchedulerKind::Partitioned);
        let r = Engine::new(&c).run();
        assert_eq!(r.deadline.total_subframes(), 2 * 2000);
        // Completed + dropped = total.
        assert_eq!(
            r.proc_times_us.len() as u64 + r.dropped,
            2 * 2000,
            "drops {} + completions {}",
            r.dropped,
            r.proc_times_us.len()
        );
        // The histogram mirrors the sample stream.
        assert_eq!(r.proc_hist.count(), r.proc_times_us.len() as u64);
    }

    #[test]
    fn no_completion_after_deadline() {
        // The stage-granular slack check makes every miss a drop.
        let c = cfg(700, SchedulerKind::Partitioned);
        let r = Engine::new(&c).run();
        assert_eq!(r.deadline.overall().missed, r.dropped);
    }

    #[test]
    fn rtopex_reduces_misses_at_moderate_latency() {
        let cp = cfg(550, SchedulerKind::Partitioned);
        let cr = cfg(550, SchedulerKind::RtOpex { delta_us: 20 });
        let part = Engine::new(&cp).run();
        let rto = Engine::new(&cr).run();
        assert!(
            rto.deadline.overall().missed <= part.deadline.overall().missed,
            "rtopex {} vs partitioned {}",
            rto.deadline.overall().missed,
            part.deadline.overall().missed
        );
    }

    #[test]
    fn gaps_are_recorded() {
        let c = cfg(500, SchedulerKind::Partitioned);
        let r = Engine::new(&c).run();
        assert!(r.gaps.count() > 1000, "gaps {}", r.gaps.count());
    }

    #[test]
    fn record_samples_off_keeps_counters_only() {
        let mut c = cfg(500, SchedulerKind::Partitioned);
        c.record_samples = false;
        let r = Engine::new(&c).run();
        assert_eq!(r.gaps.count(), 0);
        assert!(r.proc_times_us.is_empty());
        // Counters and the histogram still cover every subframe.
        assert_eq!(r.deadline.total_subframes(), 2 * 2000);
        assert_eq!(r.proc_hist.count() + r.dropped, 2 * 2000);
    }

    #[test]
    fn run_until_splits_a_run_without_changing_it() {
        let c = cfg(500, SchedulerKind::RtOpex { delta_us: 20 });
        let whole = Engine::new(&c).run();
        let mut engine = Engine::new(&c);
        engine.run_until(Nanos::from_ms(700));
        let split = engine.into_report();
        assert_eq!(whole.deadline.per_bs(), split.deadline.per_bs());
        assert_eq!(whole.proc_hist, split.proc_hist);
    }

    #[test]
    fn fig16_many_gaps_exceed_500us() {
        // Fig. 16: at low transport latency, ≥ 60 % of gaps exceed 500 µs
        // (the partitioned schedule leaves large idle windows).
        let c = cfg(400, SchedulerKind::Partitioned);
        let mut r = Engine::new(&c).run();
        let frac = r.gaps.fraction_at_least(Nanos::from_us(500));
        assert!(frac > 0.5, "fraction of gaps ≥ 500µs: {frac}");
    }

    #[test]
    fn overruns_trigger_recovery() {
        let mut c = cfg(500, SchedulerKind::RtOpex { delta_us: 20 });
        c.overrun_prob = 0.5;
        c.overrun_factor = 4.0;
        let r = Engine::new(&c).run();
        assert!(r.migration.recoveries > 0, "no recoveries observed");
    }

    #[test]
    fn zero_overrun_zero_recovery_mostly() {
        let mut c = cfg(500, SchedulerKind::RtOpex { delta_us: 20 });
        c.overrun_prob = 0.0;
        let r = Engine::new(&c).run();
        // Without host noise, recoveries only from genuine window misfits,
        // which Algorithm 1's R1 rules out.
        assert_eq!(r.migration.recoveries, 0);
    }

    #[test]
    fn huge_delta_suppresses_migration() {
        let c = cfg(500, SchedulerKind::RtOpex { delta_us: 5000 });
        let r = Engine::new(&c).run();
        assert_eq!(r.migration.decode_migrated + r.migration.fft_migrated, 0);
    }

    #[test]
    fn cores_per_bs_override_shrinks_the_schedule() {
        let mut c = cfg(500, SchedulerKind::Partitioned);
        c.cores_per_bs = Some(1);
        let r = Engine::new(&c).run();
        let full = cfg(500, SchedulerKind::Partitioned);
        let rf = Engine::new(&full).run();
        // One core per BS (vs. the Eq. 3 allocation) leaves no pipeline
        // slack, so misses rise; every subframe stays accounted for.
        assert_eq!(r.deadline.total_subframes(), 2 * 2000);
        assert!(
            r.miss_rate() > rf.miss_rate(),
            "{} vs {}",
            r.miss_rate(),
            rf.miss_rate()
        );
        assert!(r.miss_rate() > 0.01, "rate {}", r.miss_rate());
    }

    fn global_cfg(rtt: u64, cores: usize) -> SimConfig {
        let mut c = SimConfig::from_scenario(&Scenario::smoke_test(), rtt);
        c.scheduler = SchedulerKind::Global {
            cores,
            policy: QueuePolicy::Edf,
        };
        c
    }

    #[test]
    fn global_processes_every_subframe() {
        let c = global_cfg(500, 8);
        let r = Engine::new(&c).run();
        assert_eq!(r.deadline.total_subframes(), 2 * 2000);
    }

    #[test]
    fn single_core_overloads_and_misses() {
        // Two basestations at ~1 ms average processing per 1 ms arrival
        // cannot fit on one core: massive misses expected.
        let c = global_cfg(500, 1);
        let r = Engine::new(&c).run();
        assert!(
            r.deadline.overall().rate() > 0.3,
            "rate {}",
            r.deadline.overall().rate()
        );
    }

    #[test]
    fn global_has_nonzero_floor_even_at_low_latency() {
        // Fig. 15: global "does not exhibit a zero deadline-miss rate even
        // at the lowest RTT value".
        let c = global_cfg(400, 8);
        let r = Engine::new(&c).run();
        assert!(r.deadline.overall().missed > 0);
    }

    #[test]
    fn more_cores_do_not_fix_global() {
        // Fig. 19: beyond 8 cores the miss rate saturates/worsens.
        let c8 = global_cfg(500, 8);
        let c16 = global_cfg(500, 16);
        let r8 = Engine::new(&c8).run();
        let r16 = Engine::new(&c16).run();
        let m8 = r8.deadline.overall().rate();
        let m16 = r16.deadline.overall().rate();
        assert!(
            m16 >= m8 * 0.7,
            "16 cores should not beat 8 by much: {m8} vs {m16}"
        );
    }

    #[test]
    fn cache_penalties_inflate_processing_times() {
        let mut quiet = global_cfg(500, 8);
        quiet.cache = crate::config::CacheModel::free();
        let noisy = global_cfg(500, 8);
        let rq = Engine::new(&quiet).run();
        let rn = Engine::new(&noisy).run();
        assert!(rn.proc_times_us.mean() > rq.proc_times_us.mean());
    }
}
