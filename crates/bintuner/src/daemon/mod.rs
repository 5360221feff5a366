//! `tuned`: a multi-tenant tuning daemon over the shared evaluation farm
//! (the paper's §5 deployment, long-lived).
//!
//! One process owns one client farm ([`ServiceHandle`]), one persistent
//! [`FitnessStore`](crate::FitnessStore)/[`ArtifactStore`] pair, and a
//! versioned job-control wire ([`wire`]). Tenants submit tuning jobs over
//! Unix or TCP stream transports (the same `evald::transport` stack the
//! farm itself uses); the daemon multiplexes every job onto the shared
//! farm with fair-share batch interleaving, serves duplicate work from
//! the shared stores (a resubmitted module is a pure cache hit: zero
//! compiles, bit-identical result), and counts every daemon event once,
//! in one always-live btel registry ([`metrics`]).
//!
//! ## Fault containment — the contract this module exists to prove
//!
//! A farm loss (every worker dead mid-batch) aborts *the job*, never the
//! daemon: the abort travels [`genetic::EvalAbort`] →
//! [`TuneError::Service`] → a Failed job with the transport error in its
//! result frame, the dead farm is torn down, and the next job relaunches
//! a fresh one. The pre-daemon code panicked on this path — a single
//! lost batch would have taken every tenant down with it.
//!
//! ## Scheduling
//!
//! Admission control is a bounded queue with a typed reject
//! ([`wire::RejectCode::QueueFull`]) — back-pressure is explicit, not an
//! unbounded memory obligation. Admitted jobs run on a small pool of
//! runner threads; their evaluation batches interleave on the farm in
//! round-robin rotation order (fair share at batch granularity — one
//! giant job cannot starve a small one for longer than a single batch).

pub mod metrics;
pub mod wire;

use crate::service::{ServiceExecutor, ServiceHandle, SharedEvaldError};
use crate::store::ArtifactStore;
use crate::tuner::{Backend, TuneError, TuneResult, Tuner, TunerConfig};
use crate::{MissExecutor, MissResult};
use evald::transport::{
    tcp_connect, tcp_listener, unix_connect, unix_listener, BoundUnixListener, Duplex,
};
use evald::{
    EvaldError, FaultPlan, ServiceConfig, TransportKind, WireAstArtifact, WireLowerArtifact,
};
use genetic::{EvalAbort, Termination};
use metrics::{DaemonTelemetry, MetricsSnapshot};
use minicc::ast::Module;
use minicc::codec::decode_module;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use wire::{
    decode_daemon_frame, encode_daemon_frame, DaemonFrame, JobState, RejectCode, WireTuneOutcome,
};

/// How often blocked waits (queue pop, result fetch, accept fallback)
/// re-check the shutdown flag.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// Submit-time deadlines beyond this are rejected with
/// [`RejectCode::BadDeadline`] — a week covers any sane batch job and
/// keeps `Instant + Duration` arithmetic far from overflow.
const MAX_DEADLINE_MS: u64 = 7 * 24 * 60 * 60 * 1000;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Client-facing transport. Must be a stream transport
    /// ([`TransportKind::Unix`] or [`TransportKind::Tcp`]) — a channel
    /// cannot outlive the call that created it, so there is nothing for
    /// a later tenant to connect to.
    pub transport: TransportKind,
    /// Socket path for [`TransportKind::Unix`] (`None`: a fresh path
    /// under the system temp dir). Ignored for TCP.
    pub unix_path: Option<PathBuf>,
    /// Template tuner configuration for every job. Per-job fields
    /// (seed, evaluation budget, dedup) come from the Submit frame;
    /// `backend` and `cache_path` are owned by the daemon and
    /// overridden.
    pub base: TunerConfig,
    /// The shared persistent store directory (fitness + artifacts)
    /// every job loads before and saves after its run — the
    /// multi-tenant payoff: one tenant's compiles warm-start every
    /// other tenant's. `None` disables cross-job caching.
    pub store_path: Option<PathBuf>,
    /// The shared farm's shape (client count, farm-side transport,
    /// thread vs process workers). Its `fault` field is ignored — use
    /// [`DaemonConfig::farm_fault_once`].
    pub farm: ServiceConfig,
    /// Admission-control bound: jobs waiting in the queue beyond this
    /// are rejected with [`RejectCode::QueueFull`].
    pub queue_limit: usize,
    /// Runner threads (jobs executing concurrently). Their batches
    /// interleave on the one shared farm.
    pub runners: usize,
    /// Chaos hook: inject this [`FaultPlan`] into the first
    /// [`DaemonConfig::farm_fault_launches`] farm launches (consumed
    /// thereafter), so a test can kill the farm under one job and watch
    /// the next job's relaunch succeed — or, with a repeat count at the
    /// quarantine threshold, prove a poison module is quarantined.
    pub farm_fault_once: Option<FaultPlan>,
    /// How many consecutive farm launches [`DaemonConfig::farm_fault_once`]
    /// poisons (clamped to at least 1 when a plan is set).
    pub farm_fault_launches: u32,
    /// Poison-job quarantine threshold: a module whose farm launches or
    /// batches fail this many *consecutive* times stops being allowed
    /// near fresh workers — its jobs fail fast with
    /// [`TuneError::Quarantined`] while other tenants' modules keep
    /// running. `0` disables quarantine.
    pub quarantine_strikes: u32,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            transport: TransportKind::Unix,
            unix_path: None,
            base: TunerConfig::default(),
            store_path: None,
            farm: ServiceConfig::default(),
            queue_limit: 16,
            runners: 2,
            farm_fault_once: None,
            farm_fault_launches: 1,
            quarantine_strikes: 3,
        }
    }
}

/// Where a running daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP loopback address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for DaemonAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            DaemonAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

// ---------------------------------------------------------------- farm

struct FarmSlot {
    module_hash: u64,
    handle: ServiceHandle,
}

#[derive(Default)]
struct FarmState {
    /// Round-robin rotation of attached job ids; the front owns the
    /// next batch.
    rotation: VecDeque<u64>,
    /// The live farm, keyed by the module it was launched for.
    slot: Option<FarmSlot>,
}

/// The one farm every job's batches multiplex onto.
struct SharedFarm {
    cfg: ServiceConfig,
    base: TunerConfig,
    /// Remaining chaos-injected launches: the plan plus how many more
    /// launches it poisons.
    fault: Mutex<(Option<FaultPlan>, u32)>,
    /// The daemon's registry: farm launches and failures count here,
    /// and each launched farm's `bintuner_farm_*` families resolve into
    /// it, so evictions, heartbeat misses and respawns under *any*
    /// tenant's job show up in `bintuner metrics`.
    tel: Arc<DaemonTelemetry>,
    state: Mutex<FarmState>,
    turn: Condvar,
    /// Consecutive farm failures per module hash — the poison-job
    /// score. Reset by any successful batch of that module; at
    /// `quarantine_strikes` the module is barred from fresh workers.
    strikes: Mutex<HashMap<u64, u32>>,
    /// `DaemonConfig::quarantine_strikes` (0 = disabled).
    quarantine_strikes: u32,
    /// Stage artifacts drained from farms torn down mid-daemon (module
    /// switches, failures), awaiting the next persist.
    pending: Mutex<(Vec<WireAstArtifact>, Vec<WireLowerArtifact>)>,
}

impl SharedFarm {
    /// Enter `job` into the batch rotation.
    fn attach(&self, job: u64) {
        self.state.lock().unwrap().rotation.push_back(job);
        self.turn.notify_all();
    }

    /// Remove `job` from the rotation (idempotent).
    fn detach(&self, job: u64) {
        let mut state = self.state.lock().unwrap();
        state.rotation.retain(|&j| j != job);
        drop(state);
        self.turn.notify_all();
    }

    fn rotate(&self, state: &mut FarmState) {
        if let Some(front) = state.rotation.pop_front() {
            state.rotation.push_back(front);
        }
        self.turn.notify_all();
    }

    /// Tear the live farm down, parking its merged artifacts for the
    /// next persist. Returns whether a farm was live.
    fn teardown_slot(&self, state: &mut FarmState) -> bool {
        let Some(slot) = state.slot.take() else {
            return false;
        };
        let (ast, lower) = slot.handle.take_artifacts();
        let mut pending = self.pending.lock().unwrap();
        pending.0.extend(ast);
        pending.1.extend(lower);
        drop(pending);
        let _ = slot.handle.finish();
        true
    }

    /// Count one farm failure and record it as a strike against
    /// `module_hash`.
    fn note_failure(&self, module_hash: u64) {
        self.tel.farm_failures.inc();
        *self.strikes.lock().unwrap().entry(module_hash).or_insert(0) += 1;
    }

    /// Run one batch of `job`'s misses on the shared farm, waiting for
    /// the job's rotation turn, (re)launching the farm for `module` if
    /// needed. On a farm loss the recorded cause lands in `failure`
    /// (for [`ServiceExecutor::take_failure`]) and the dead farm is
    /// torn down so the next batch — this job's or another's —
    /// relaunches fresh. A module whose launches/batches have failed
    /// `quarantine_strikes` consecutive times is refused up front
    /// (poison-job quarantine): its abort is typed via `control`, it
    /// never waits for a rotation turn, and the live farm — some other
    /// tenant's — is untouched.
    fn execute(
        &self,
        job: u64,
        module: &Module,
        misses: &[Vec<bool>],
        failure: &Mutex<Option<Arc<EvaldError>>>,
        control: &JobControl,
    ) -> Result<Vec<MissResult>, EvalAbort> {
        let module_hash = module.content_hash();
        if self.quarantine_strikes > 0 {
            let strikes = self
                .strikes
                .lock()
                .unwrap()
                .get(&module_hash)
                .copied()
                .unwrap_or(0);
            if strikes >= self.quarantine_strikes {
                control.latch_abort(AbortKind::Quarantined { strikes });
                return Err(EvalAbort::new(format!(
                    "module quarantined as poison after {strikes} consecutive farm failures"
                )));
            }
        }
        let mut state = self.state.lock().unwrap();
        while state.rotation.front() != Some(&job) {
            state = self.turn.wait(state).unwrap();
        }
        if state
            .slot
            .as_ref()
            .is_none_or(|s| s.module_hash != module_hash)
        {
            self.teardown_slot(&mut state);
            let mut cfg = self.cfg.clone();
            {
                let mut fault = self.fault.lock().unwrap();
                cfg.fault = if fault.1 > 0 {
                    fault.1 -= 1;
                    fault.0
                } else {
                    None
                };
            }
            match ServiceHandle::launch_with(
                &cfg,
                self.base.compiler,
                module,
                self.base.arch,
                self.base.artifact_cache,
                Some(self.tel.farm_telemetry()),
            ) {
                Ok(handle) => {
                    self.tel.farm_launches.inc();
                    state.slot = Some(FarmSlot {
                        module_hash,
                        handle,
                    });
                }
                Err(e) => {
                    self.note_failure(module_hash);
                    let cause = Arc::new(e);
                    *failure.lock().unwrap() = Some(cause.clone());
                    self.rotate(&mut state);
                    return Err(EvalAbort::with_source(
                        format!("shared farm failed to launch: {cause}"),
                        SharedEvaldError(cause),
                    ));
                }
            }
        }
        let result = state
            .slot
            .as_ref()
            .expect("slot just ensured")
            .handle
            .execute(misses);
        match &result {
            Ok(_) => {
                // A healthy batch clears the module's strike streak —
                // only *consecutive* failures spell poison.
                self.strikes.lock().unwrap().remove(&module_hash);
            }
            Err(_) => {
                // The farm is gone (every worker lost mid-batch). Record
                // the transport-level cause for the job's TuneError, bury
                // the corpse, and let the rotation move on — the daemon
                // itself never dies here.
                if let Some(slot) = &state.slot {
                    *failure.lock().unwrap() = slot.handle.take_failure();
                }
                self.teardown_slot(&mut state);
                self.note_failure(module_hash);
            }
        }
        self.rotate(&mut state);
        result
    }

    /// Fold every farm-produced stage artifact (live farm + parked
    /// pending) into the persistent [`ArtifactStore`] — the daemon-side
    /// analog of the tuner's own service-artifact fold: farm workers
    /// compile in their own address spaces, so without this fold a
    /// process-worker daemon would persist no artifacts.
    fn persist_artifacts(&self, store_path: &Option<PathBuf>) {
        let Some(path) = store_path else { return };
        let state = self.state.lock().unwrap();
        let (mut ast, mut lower) = std::mem::take(&mut *self.pending.lock().unwrap());
        if let Some(slot) = &state.slot {
            let (a, l) = slot.handle.take_artifacts();
            ast.extend(a);
            lower.extend(l);
        }
        drop(state);
        if ast.is_empty() && lower.is_empty() {
            return;
        }
        let mut store = ArtifactStore::load(path);
        store.insert_wire(ast, lower);
        // A skipped save (lock contended) only costs future warm
        // starts, never correctness — same contract as the tuner's.
        let _ = store.save();
    }
}

/// Why a job was aborted at a batch checkpoint, latched into its
/// [`JobControl`] so the runner can map the abort to the right terminal
/// [`JobState`] (and the right typed [`TuneError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    /// A Cancel frame reached it while running.
    Cancelled,
    /// Its submit-time wall-clock deadline passed.
    DeadlineExceeded,
    /// Its module hit the poison-job quarantine threshold.
    Quarantined { strikes: u32 },
}

/// The daemon's handle into a *running* job: the cancellation latch and
/// the wall-clock deadline, observed between evaluation batches (the
/// natural checkpoints — a batch in flight is never torn mid-way, so
/// trajectories stay deterministic up to the abort).
struct JobControl {
    cancel: AtomicBool,
    /// Absolute deadline computed at admission (`None`: no deadline).
    deadline: Option<Instant>,
    abort: Mutex<Option<AbortKind>>,
}

impl JobControl {
    fn new(deadline: Option<Instant>) -> Arc<JobControl> {
        Arc::new(JobControl {
            cancel: AtomicBool::new(false),
            deadline,
            abort: Mutex::new(None),
        })
    }

    /// Record the first abort cause; later causes lose the race and are
    /// dropped (one job, one terminal reason).
    fn latch_abort(&self, kind: AbortKind) {
        let mut abort = self.abort.lock().unwrap();
        if abort.is_none() {
            *abort = Some(kind);
        }
    }

    fn take_abort(&self) -> Option<AbortKind> {
        self.abort.lock().unwrap().take()
    }
}

/// One job's view of the shared farm: a [`MissExecutor`] the tuner
/// drives exactly as it would a private [`ServiceHandle`].
struct FarmExecutor {
    farm: Arc<SharedFarm>,
    job: u64,
    module: Module,
    failure: Mutex<Option<Arc<EvaldError>>>,
    control: Arc<JobControl>,
}

impl MissExecutor for FarmExecutor {
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort> {
        // Batch checkpoint: cancellation and the deadline are observed
        // here, *between* generations — never mid-batch.
        if self.control.cancel.load(Ordering::Relaxed) {
            self.control.latch_abort(AbortKind::Cancelled);
            return Err(EvalAbort::new("job cancelled while running"));
        }
        if self.control.deadline.is_some_and(|d| Instant::now() >= d) {
            self.control.latch_abort(AbortKind::DeadlineExceeded);
            return Err(EvalAbort::new("job deadline exceeded"));
        }
        self.farm
            .execute(self.job, &self.module, misses, &self.failure, &self.control)
    }
}

impl ServiceExecutor for FarmExecutor {
    fn take_failure(&self) -> Option<Arc<EvaldError>> {
        self.failure.lock().unwrap().take()
    }
}

// ---------------------------------------------------------------- jobs

struct JobSpec {
    module: Module,
    seed: u64,
    max_evaluations: u64,
    dedup: bool,
}

struct JobEntry {
    tenant: String,
    state: JobState,
    spec: Option<JobSpec>,
    outcome: Option<Result<WireTuneOutcome, String>>,
    /// Cancellation latch + deadline, shared with the runner executing
    /// the job (if any) — how a Cancel frame reaches a *running* job.
    control: Arc<JobControl>,
}

struct DaemonShared {
    config: DaemonConfig,
    tel: Arc<DaemonTelemetry>,
    farm: Arc<SharedFarm>,
    /// Job table. Lock order where both are needed: `queue` before
    /// `jobs` (admission and cancel take them in that order).
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// Signals job state transitions to blocked FetchResult handlers.
    done: Condvar,
    /// Admitted-but-unclaimed job ids, bounded by `config.queue_limit`.
    queue: Mutex<VecDeque<u64>>,
    /// Signals queue pushes to idle runners.
    queue_cv: Condvar,
    stop: AtomicBool,
    next_job: AtomicU64,
}

fn outcome_of(r: &TuneResult) -> WireTuneOutcome {
    WireTuneOutcome {
        best_flags: r.best_flags.clone(),
        best_ncd_bits: r.best_ncd.to_bits(),
        iterations: r.iterations as u64,
        stopped_by: r.stopped_by,
        compiles: r.engine_stats.compiles as u64,
        persistent_hits: r.engine_stats.persistent_hits as u64,
        store_ast_hits: r.engine_stats.store_ast_hits as u64,
        store_lower_hits: r.engine_stats.store_lower_hits as u64,
    }
}

/// Move `job` to terminal `state` with `outcome` and count it. This is
/// the one place a job leaves Queued or Running — the runner, a queued
/// cancel and the shutdown drain all settle through it — so each job
/// lands in exactly one terminal counter.
fn settle(
    shared: &DaemonShared,
    job: u64,
    state: JobState,
    outcome: Result<WireTuneOutcome, String>,
) {
    let mut jobs = shared.jobs.lock().unwrap();
    if let Some(entry) = jobs.get_mut(&job) {
        shared.tel.on_settled(&entry.tenant, state, &outcome);
        entry.state = state;
        entry.spec = None;
        entry.outcome = Some(outcome);
    }
    drop(jobs);
    shared.done.notify_all();
}

fn run_job(
    shared: &DaemonShared,
    job: u64,
    spec: &JobSpec,
    control: &Arc<JobControl>,
) -> Result<TuneResult, TuneError> {
    let config = TunerConfig {
        seed: spec.seed,
        termination: Termination {
            max_evaluations: spec.max_evaluations as usize,
            ..shared.config.base.termination.clone()
        },
        dedup: spec.dedup,
        cache_path: shared.config.store_path.clone(),
        // The farm is injected as an executor below; the job's own
        // backend stays in-process so the tuner launches nothing.
        backend: Backend::InProcess,
        ..shared.config.base.clone()
    };
    let executor = FarmExecutor {
        farm: shared.farm.clone(),
        job,
        module: spec.module.clone(),
        failure: Mutex::new(None),
        control: control.clone(),
    };
    shared.farm.attach(job);
    let result = Tuner::new(config).tune_with_executor(&spec.module, &executor);
    shared.farm.detach(job);
    shared.farm.persist_artifacts(&shared.config.store_path);
    result
}

fn runner_loop(shared: Arc<DaemonShared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.queue_cv.wait_timeout(queue, WAIT_TICK).unwrap().0;
            }
        };
        shared.tel.queue_depth.add(-1);
        let Some((spec, control)) = ({
            let mut jobs = shared.jobs.lock().unwrap();
            jobs.get_mut(&job).and_then(|entry| {
                entry.state = JobState::Running;
                entry.spec.take().map(|s| (s, entry.control.clone()))
            })
        }) else {
            continue;
        };
        shared.tel.running.add(1);
        let start = Instant::now();
        let result = run_job(&shared, job, &spec, &control);
        let wall = start.elapsed().as_secs_f64();
        shared.tel.running.add(-1);
        // An abort latched at a batch checkpoint overrides the generic
        // service error with the typed terminal state the client asked
        // for (Cancelled / DeadlineExceeded) or the typed poison error.
        let (state, outcome) = match control.take_abort().filter(|_| result.is_err()) {
            Some(AbortKind::Cancelled) => (
                JobState::Cancelled,
                Err("job cancelled while running".to_string()),
            ),
            Some(AbortKind::DeadlineExceeded) => (
                JobState::DeadlineExceeded,
                Err("job deadline exceeded while running".to_string()),
            ),
            Some(AbortKind::Quarantined { strikes }) => {
                shared.tel.quarantined.inc();
                let error = TuneError::Quarantined { strikes };
                (JobState::Failed, Err(error.to_string()))
            }
            None => match &result {
                Ok(r) => (JobState::Done, Ok(outcome_of(r))),
                Err(e) => (JobState::Failed, Err(e.to_string())),
            },
        };
        shared.tel.job_seconds.observe_seconds(wall);
        shared.tel.tracer.record("job", 0, start);
        settle(&shared, job, state, outcome);
    }
}

// ---------------------------------------------------------------- serve

fn handle_submit(
    shared: &DaemonShared,
    tenant: String,
    module: Vec<u8>,
    seed: u64,
    max_evaluations: u64,
    dedup: bool,
    deadline_ms: u64,
) -> DaemonFrame {
    shared.tel.on_submit(&tenant);
    let reject = |code, detail: String| {
        shared.tel.on_reject(&tenant);
        DaemonFrame::Rejected { code, detail }
    };
    if shared.stop.load(Ordering::Relaxed) {
        return reject(RejectCode::ShuttingDown, "daemon is shutting down".into());
    }
    if deadline_ms > MAX_DEADLINE_MS {
        return reject(
            RejectCode::BadDeadline,
            format!("deadline {deadline_ms}ms exceeds the {MAX_DEADLINE_MS}ms cap"),
        );
    }
    let module = match decode_module(&module) {
        Ok(m) => m,
        Err(e) => return reject(RejectCode::BadModule, format!("module decode failed: {e}")),
    };
    // The deadline clock starts at admission — queue time counts
    // against it, so an overloaded daemon fails a tight-deadline job
    // fast instead of running it late.
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.config.queue_limit {
        return reject(
            RejectCode::QueueFull,
            format!("admission queue full ({} waiting)", queue.len()),
        );
    }
    let job = shared.next_job.fetch_add(1, Ordering::Relaxed);
    shared.jobs.lock().unwrap().insert(
        job,
        JobEntry {
            tenant,
            state: JobState::Queued,
            spec: Some(JobSpec {
                module,
                seed,
                max_evaluations,
                dedup,
            }),
            outcome: None,
            control: JobControl::new(deadline),
        },
    );
    queue.push_back(job);
    shared.tel.queue_depth.add(1);
    drop(queue);
    shared.queue_cv.notify_one();
    DaemonFrame::Accepted { job }
}

fn handle_cancel(shared: &DaemonShared, job: u64) -> DaemonFrame {
    let mut queue = shared.queue.lock().unwrap();
    if let Some(pos) = queue.iter().position(|&j| j == job) {
        // Still queued: dequeue and settle it right here.
        queue.remove(pos);
        shared.tel.queue_depth.add(-1);
        settle(
            shared,
            job,
            JobState::Cancelled,
            Err("job cancelled while queued".into()),
        );
        drop(queue);
        return DaemonFrame::CancelReply {
            job,
            cancelled: true,
        };
    }
    drop(queue);
    // Already claimed: latch the cancel flag for a *running* job; its
    // runner observes it at the next batch checkpoint and settles the
    // job as Cancelled.
    let jobs = shared.jobs.lock().unwrap();
    let cancelled = jobs.get(&job).is_some_and(|entry| {
        entry.state == JobState::Running && {
            entry.control.cancel.store(true, Ordering::Relaxed);
            true
        }
    });
    DaemonFrame::CancelReply { job, cancelled }
}

fn handle_fetch(shared: &DaemonShared, job: u64) -> DaemonFrame {
    let mut jobs = shared.jobs.lock().unwrap();
    loop {
        match jobs.get(&job) {
            None => {
                return DaemonFrame::ResultReply {
                    job,
                    outcome: Err("unknown job id".into()),
                }
            }
            Some(entry) => {
                if let Some(outcome) = &entry.outcome {
                    return DaemonFrame::ResultReply {
                        job,
                        outcome: outcome.clone(),
                    };
                }
            }
        }
        if shared.stop.load(Ordering::Relaxed) {
            return DaemonFrame::ResultReply {
                job,
                outcome: Err("daemon is shutting down".into()),
            };
        }
        jobs = shared.done.wait_timeout(jobs, WAIT_TICK).unwrap().0;
    }
}

/// One reply per request; `None` means the client spoke a server-only
/// frame and the connection is dropped.
fn handle_frame(shared: &DaemonShared, frame: DaemonFrame) -> Option<DaemonFrame> {
    Some(match frame {
        DaemonFrame::Submit {
            tenant,
            module,
            seed,
            max_evaluations,
            dedup,
            deadline_ms,
        } => handle_submit(
            shared,
            tenant,
            module,
            seed,
            max_evaluations,
            dedup,
            deadline_ms,
        ),
        DaemonFrame::Status { job } => {
            let state = shared
                .jobs
                .lock()
                .unwrap()
                .get(&job)
                .map_or(JobState::Unknown, |e| e.state);
            DaemonFrame::StatusReply {
                job,
                state,
                queue_depth: shared.tel.queue_depth.get().max(0) as u64,
                running: shared.tel.running.get().max(0) as u64,
            }
        }
        DaemonFrame::Cancel { job } => handle_cancel(shared, job),
        DaemonFrame::FetchResult { job } => handle_fetch(shared, job),
        DaemonFrame::MetricsText => DaemonFrame::MetricsTextReply {
            text: shared.tel.registry.render_text(),
        },
        DaemonFrame::TraceDump => DaemonFrame::TraceDumpReply {
            jsonl: btel::spans_to_jsonl(&shared.tel.tracer.snapshot()),
        },
        _ => return None,
    })
}

fn connection_loop(shared: Arc<DaemonShared>, mut duplex: Duplex) {
    loop {
        let Ok(bytes) = duplex.rx.recv_frame() else {
            return;
        };
        let Ok((frame, _)) = decode_daemon_frame(&bytes) else {
            return; // a client speaking another protocol is dropped
        };
        let Some(reply) = handle_frame(&shared, frame) else {
            return;
        };
        if duplex.tx.send_frame(&encode_daemon_frame(&reply)).is_err() {
            return;
        }
    }
}

enum Listener {
    Unix(BoundUnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> Result<Duplex, EvaldError> {
        match self {
            Listener::Unix(l) => evald::transport::unix_accept(l),
            Listener::Tcp(l) => evald::transport::tcp_accept(l),
        }
    }
}

fn acceptor_loop(shared: Arc<DaemonShared>, listener: Listener) {
    loop {
        let Ok(duplex) = listener.accept() else {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Connection threads are detached: they exit when their client
        // disconnects (or on the next WAIT_TICK after shutdown), and
        // hold only `Arc`s — joining them would let one silent client
        // block shutdown.
        let shared = shared.clone();
        thread::spawn(move || connection_loop(shared, duplex));
    }
}

// --------------------------------------------------------------- handle

/// The daemon entry point.
pub struct Daemon;

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

impl Daemon {
    /// Bind the client-facing listener and start the acceptor and
    /// runner threads.
    ///
    /// # Errors
    ///
    /// [`EvaldError::Protocol`] for [`TransportKind::Channel`] (no
    /// stream to listen on), otherwise transport bind failures.
    pub fn launch(config: DaemonConfig) -> Result<DaemonHandle, EvaldError> {
        let (listener, addr) = match config.transport {
            TransportKind::Channel => {
                return Err(EvaldError::Protocol(
                    "the daemon requires a stream transport (unix or tcp)",
                ))
            }
            TransportKind::Unix => {
                let path = config.unix_path.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join(format!(
                        "bintuner-daemon-{}-{}.sock",
                        std::process::id(),
                        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                    ))
                });
                let bound = unix_listener(&path)?;
                let addr = DaemonAddr::Unix(bound.path().to_path_buf());
                (Listener::Unix(bound), addr)
            }
            TransportKind::Tcp => {
                let (listener, addr) = tcp_listener()?;
                (Listener::Tcp(listener), addr.into())
            }
        };
        let tel = Arc::new(DaemonTelemetry::new());
        let mut farm_cfg = config.farm.clone();
        farm_cfg.fault = None;
        let fault_launches = if config.farm_fault_once.is_some() {
            config.farm_fault_launches.max(1)
        } else {
            0
        };
        let farm = Arc::new(SharedFarm {
            cfg: farm_cfg,
            base: config.base.clone(),
            fault: Mutex::new((config.farm_fault_once, fault_launches)),
            tel: tel.clone(),
            state: Mutex::new(FarmState::default()),
            turn: Condvar::new(),
            strikes: Mutex::new(HashMap::new()),
            quarantine_strikes: config.quarantine_strikes,
            pending: Mutex::new(Default::default()),
        });
        let runners = config.runners.max(1);
        let shared = Arc::new(DaemonShared {
            config,
            tel,
            farm,
            jobs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
        });
        let acceptor = {
            let shared = shared.clone();
            thread::spawn(move || acceptor_loop(shared, listener))
        };
        let runner_threads = (0..runners)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || runner_loop(shared))
            })
            .collect();
        Ok(DaemonHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            runners: runner_threads,
        })
    }
}

impl From<SocketAddr> for DaemonAddr {
    fn from(addr: SocketAddr) -> DaemonAddr {
        DaemonAddr::Tcp(addr)
    }
}

/// A running daemon. Dropping it shuts it down.
pub struct DaemonHandle {
    addr: DaemonAddr,
    shared: Arc<DaemonShared>,
    acceptor: Option<thread::JoinHandle<()>>,
    runners: Vec<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// Where clients connect.
    pub fn addr(&self) -> &DaemonAddr {
        &self.addr
    }

    /// A local (wire-free) typed read of the daemon's registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.tel.snapshot()
    }

    /// The daemon's always-on btel registry — the one store of every
    /// daemon counter, and what the MetricsText frame and `bintuner
    /// metrics` render.
    pub fn registry(&self) -> Arc<btel::Registry> {
        self.shared.tel.registry.clone()
    }

    /// Stop accepting, finish running jobs, cancel queued ones, tear
    /// the farm down, join every owned thread. Idempotent (also runs on
    /// drop).
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue_cv.notify_all();
        self.shared.done.notify_all();
        // Unblock the acceptor with a throwaway connection.
        match &self.addr {
            DaemonAddr::Unix(path) => drop(unix_connect(path)),
            DaemonAddr::Tcp(addr) => drop(tcp_connect(*addr)),
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
        // Every job still queued dies Cancelled, visibly.
        let drained: Vec<u64> = self.shared.queue.lock().unwrap().drain(..).collect();
        for job in drained {
            self.shared.tel.queue_depth.add(-1);
            settle(
                &self.shared,
                job,
                JobState::Cancelled,
                Err("daemon shut down".into()),
            );
        }
        self.shared
            .farm
            .persist_artifacts(&self.shared.config.store_path);
        let mut state = self.shared.farm.state.lock().unwrap();
        self.shared.farm.teardown_slot(&mut state);
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

// --------------------------------------------------------------- client

/// A blocking daemon client: one connection, request-reply.
///
/// Calls serialize on the connection, and a [`DaemonClient::fetch_result`]
/// blocks it until the job is terminal — open one client per concurrent
/// job (connections are cheap; the daemon spawns one thread each).
pub struct DaemonClient {
    duplex: Duplex,
}

impl DaemonClient {
    /// Connect to a daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Transport connect failures.
    pub fn connect(addr: &DaemonAddr) -> Result<DaemonClient, EvaldError> {
        let duplex = match addr {
            DaemonAddr::Unix(path) => unix_connect(path)?,
            DaemonAddr::Tcp(addr) => tcp_connect(*addr)?,
        };
        Ok(DaemonClient { duplex })
    }

    fn call(&mut self, frame: &DaemonFrame) -> Result<DaemonFrame, EvaldError> {
        self.duplex.tx.send_frame(&encode_daemon_frame(frame))?;
        let bytes = self.duplex.rx.recv_frame()?;
        Ok(decode_daemon_frame(&bytes)?.0)
    }

    /// Submit a tuning job: `Ok(Ok(job_id))` when admitted,
    /// `Ok(Err((code, detail)))` when rejected. `deadline_ms` is a
    /// wall-clock budget from submission (`0`: none); a job that blows
    /// it is aborted between evaluation batches with
    /// [`JobState::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures only — an admission reject is a
    /// value, not an error.
    pub fn submit(
        &mut self,
        tenant: &str,
        module: &Module,
        seed: u64,
        max_evaluations: u64,
        dedup: bool,
        deadline_ms: u64,
    ) -> Result<Result<u64, (RejectCode, String)>, EvaldError> {
        let reply = self.call(&DaemonFrame::Submit {
            tenant: tenant.to_string(),
            module: minicc::codec::encode_module(module),
            seed,
            max_evaluations,
            dedup,
            deadline_ms,
        })?;
        match reply {
            DaemonFrame::Accepted { job } => Ok(Ok(job)),
            DaemonFrame::Rejected { code, detail } => Ok(Err((code, detail))),
            _ => Err(EvaldError::Protocol("unexpected reply to Submit")),
        }
    }

    /// Query a job's state; also returns `(queue_depth, running)`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn status(&mut self, job: u64) -> Result<(JobState, u64, u64), EvaldError> {
        match self.call(&DaemonFrame::Status { job })? {
            DaemonFrame::StatusReply {
                state,
                queue_depth,
                running,
                ..
            } => Ok((state, queue_depth, running)),
            _ => Err(EvaldError::Protocol("unexpected reply to Status")),
        }
    }

    /// Cancel a job. A queued job is dequeued and settled immediately;
    /// a *running* job has its cancel flag latched and aborts at the
    /// next batch checkpoint. `false` when the job is already terminal
    /// or unknown.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn cancel(&mut self, job: u64) -> Result<bool, EvaldError> {
        match self.call(&DaemonFrame::Cancel { job })? {
            DaemonFrame::CancelReply { cancelled, .. } => Ok(cancelled),
            _ => Err(EvaldError::Protocol("unexpected reply to Cancel")),
        }
    }

    /// Block until `job` is terminal and return its outcome.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures; a *failed job* is `Ok(Err(message))`.
    pub fn fetch_result(
        &mut self,
        job: u64,
    ) -> Result<Result<WireTuneOutcome, String>, EvaldError> {
        match self.call(&DaemonFrame::FetchResult { job })? {
            DaemonFrame::ResultReply { outcome, .. } => Ok(outcome),
            _ => Err(EvaldError::Protocol("unexpected reply to FetchResult")),
        }
    }

    /// Fetch the Prometheus-style text exposition of the daemon's btel
    /// registry (what `bintuner metrics` prints).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn metrics_text(&mut self) -> Result<String, EvaldError> {
        match self.call(&DaemonFrame::MetricsText)? {
            DaemonFrame::MetricsTextReply { text } => Ok(text),
            _ => Err(EvaldError::Protocol("unexpected reply to MetricsText")),
        }
    }

    /// Fetch the daemon's recent job spans as JSONL.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn trace_dump(&mut self) -> Result<String, EvaldError> {
        match self.call(&DaemonFrame::TraceDump)? {
            DaemonFrame::TraceDumpReply { jsonl } => Ok(jsonl),
            _ => Err(EvaldError::Protocol("unexpected reply to TraceDump")),
        }
    }
}
