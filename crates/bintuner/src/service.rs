//! The evaluation-service launcher: `evald` wired beneath the tuner —
//! the parent side of the farm.
//!
//! This is the glue between the generic client–server machinery in the
//! `evald` crate and BinTuner's fitness evaluation — the paper's actual
//! deployment shape (§5 "Implementation": the GA on a server, compile +
//! diff on a farm of clients), runnable entirely offline:
//!
//! * [`ServiceHandle::launch`] binds the farm's transport once, starts N
//!   workers — threads of this process or pre-forked worker processes
//!   ([`WorkerMode`]) — and ships the module under test to every worker
//!   as the server's job description. Threads and processes run the same
//!   worker body ([`crate::farm`]): **each worker is a full
//!   [`FitnessEngine`](crate::FitnessEngine)** built from that job,
//!   with its own compiler, its own `-O0` baseline, its own in-run
//!   caches, and an *in-memory* [`FitnessStore`](crate::FitnessStore)
//!   that accumulates the shard results it computes. This module builds
//!   no worker engine itself.
//! * The server side is the tuner's own engine: partition, the three
//!   cache tiers, the single writable store and the stats all stay where
//!   they were, and only the deduplicated miss list travels — the handle
//!   implements [`MissExecutor`] by pushing each miss batch through
//!   [`evald::EvalServer::evaluate`] (work-stealing shards, straggler
//!   re-dispatch, first result wins).
//! * At batch end every client drains its local store into
//!   [`evald::MergeRecord`]s; the server accumulates them and the tuner
//!   folds them into the persistent store before saving — appends are
//!   serialized through that single writer, which is what resolves the
//!   concurrent-store-writers problem for the service case (the advisory
//!   file lock covers the separate-processes case). Note that in *this*
//!   integration the fold is belt-and-braces, not the consistency
//!   mechanism: the server engine already records every dispatched miss
//!   result itself, so each folded record hits the identical-value
//!   dedup of [`FitnessStore::insert`](crate::FitnessStore::insert)
//!   (that redundancy is what keeps the store complete even when a
//!   client dies before its merge). The merge path is load-bearing for embedders whose
//!   clients evaluate work the server did not dispatch;
//!   `merged_records` telemetry proves it ran.
//!
//! Every fitness an engine computes is a pure function of the genome, so
//! client count, transport, scheduling and even mid-run client death
//! change *nothing* about the run's trajectory — `tests/service_vs_local.rs`
//! pins bit-identity against the in-process engine.

use crate::engine::{MissExecutor, MissResult};
use crate::farm::{
    resolve_worker_binary, run_worker, BackoffSchedule, Endpoint, Supervisor, SupervisorVerdict,
    WorkerArgs, WorkerOptions, WorkerSpec,
};
use binrep::Arch;
use evald::transport::{tcp_accept, unix_accept};
use evald::{
    channel_duplex, tcp_listener, unix_listener, BoundUnixListener, ClientInjector, CostModel,
    Duplex, EvalServer, EvaldError, MergeRecord, ServerCounters, ServerTelemetry, WireAstArtifact,
    WireLowerArtifact,
};
use genetic::EvalAbort;
use minicc::ast::Module;
use minicc::{CompilerKind, CompilerProfile};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use evald::{
    FaultKind, FaultPlan, LivenessConfig, ProcessFarm, ServiceConfig, ServiceStats, TransportKind,
    WorkerMode,
};

/// Telemetry wiring for one service launch
/// ([`ServiceHandle::launch_with`]). The registry receives the farm's
/// counters and its dispatch-latency histogram; the tracer receives
/// server-side dispatch spans and the worker stage spans stitched in
/// off `Result` frames. Workers (threads or processes) trace into
/// per-client id ranges when the tracer is enabled, so a stitched trace
/// never has colliding span ids.
#[derive(Debug, Clone)]
pub struct FarmTelemetry {
    /// Metric families for the farm (`bintuner_farm_*`).
    pub registry: Arc<btel::Registry>,
    /// Server-side span recorder.
    pub tracer: btel::Tracer,
}

/// Resolve the farm's counter handles from `registry` — the one place
/// the `bintuner_farm_*` counter families are named. The server's go to
/// [`EvalServer::new`], so handshake events count; the handle keeps the
/// supervision counters, so respawns and kills after launch count.
fn farm_counters(registry: &btel::Registry) -> (ServerCounters, SupervisionCounters) {
    let counter = |name, help| registry.counter(name, help);
    let stage = |reuse| {
        registry.counter_with(
            "bintuner_farm_client_stage_compiles_total",
            "client compiles by stage-reuse class",
            "reuse",
            reuse,
        )
    };
    (
        ServerCounters {
            shards: counter(
                "bintuner_farm_shards_total",
                "shards dispatched (first assignments)",
            ),
            redispatched_shards: counter(
                "bintuner_farm_redispatched_total",
                "shard copies re-issued to idle clients (straggler steals)",
            ),
            duplicate_results: counter(
                "bintuner_farm_duplicate_results_total",
                "evaluations discarded because another client answered first",
            ),
            merged_records: counter(
                "bintuner_farm_merged_records_total",
                "client-cache records received at the merge barrier",
            ),
            merged_artifacts: counter(
                "bintuner_farm_merged_artifacts_total",
                "client stage artifacts received at the merge barrier",
            ),
            client_compiles: counter(
                "bintuner_farm_client_compiles_total",
                "compiles the clients ran (straggler copies included)",
            ),
            client_cache_hits: counter(
                "bintuner_farm_client_cache_hits_total",
                "evaluations the clients served from their own caches",
            ),
            client_full_compiles: stage("full"),
            client_ast_reuse: stage("ast"),
            client_lower_reuse: stage("lower"),
            clients_lost: counter(
                "bintuner_farm_clients_lost_total",
                "clients lost, launch handshake included",
            ),
            clients_joined: counter(
                "bintuner_farm_clients_joined_total",
                "clients absorbed after launch (reconnects/respawns)",
            ),
            heartbeat_misses: counter(
                "bintuner_farm_heartbeat_misses_total",
                "heartbeat probes unanswered past one interval",
            ),
            evicted_clients: counter(
                "bintuner_farm_evictions_total",
                "clients evicted by the liveness plane (hung or late)",
            ),
        },
        SupervisionCounters {
            respawns: counter(
                "bintuner_farm_respawns_total",
                "worker processes respawned under supervision",
            ),
            backoff_ms: counter(
                "bintuner_farm_backoff_ms_total",
                "milliseconds spent in supervised respawn backoff",
            ),
            workers_killed: counter(
                "bintuner_farm_workers_killed_total",
                "worker processes killed (drain timeout or the kill hook)",
            ),
        },
    )
}

/// The handle's counter handles (`bintuner_farm_{respawns,backoff_ms,
/// workers_killed}_total`).
struct SupervisionCounters {
    respawns: Arc<btel::Counter>,
    backoff_ms: Arc<btel::Counter>,
    workers_killed: Arc<btel::Counter>,
}

/// Monotonic suffix for unix socket paths, so parallel tests (or
/// parallel tuners in one process) never collide.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-process, per-launch unix socket path in the temp dir.
fn farm_socket_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "evald_{}_{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A launched evaluation service: the dispatch server plus its workers
/// (threads or processes). Implements [`MissExecutor`], so the tuner
/// installs it beneath its fitness engine with
/// [`set_executor`](crate::FitnessEngine::set_executor).
///
/// Tear it down with [`ServiceHandle::finish`]; a handle dropped on an
/// error path (e.g. the engine's baseline compile failing after launch)
/// still severs every connection and joins every thread via `Drop`, so
/// no client or reader outlives the run.
pub struct ServiceHandle {
    /// `None` once [`ServiceHandle::finish`] has torn the server down.
    server: Mutex<Option<EvalServer>>,
    /// The service failure behind the most recent batch abort (set when
    /// [`MissExecutor::execute`] returns `Err`; the tuner drains it via
    /// [`ServiceHandle::take_failure`] to build `TuneError::Service`).
    failure: Mutex<Option<Arc<EvaldError>>>,
    /// Thread-mode workers.
    clients: Vec<JoinHandle<()>>,
    /// Process-mode workers (`None` slots are workers already reaped,
    /// e.g. by [`ServiceHandle::kill_worker`]).
    children: Mutex<Vec<Option<Child>>>,
    /// Everything needed to respawn a worker ([`ServiceHandle::spawn_worker`]).
    spec: Option<WorkerSpec>,
    /// Client ids continue past the initial farm (matches the server's
    /// injector numbering).
    next_worker_id: AtomicU32,
    /// The reconnect path: keeps accepting on the farm's listener and
    /// injects late connections into the running server.
    acceptor: Option<Acceptor>,
    drain_grace_ms: u64,
    supervision: SupervisionCounters,
    transport: TransportKind,
}

/// The acceptor thread and its stop flag. The thread owns the farm's
/// listener, so stopping it also closes the listening socket (and, for
/// unix transports, unlinks the socket file via [`BoundUnixListener`]'s
/// `Drop`).
struct Acceptor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Keep accepting on `listener` and inject every connection into the
    /// running server, until stopped.
    fn start(listener: FarmListener, injector: ClientInjector) -> Acceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(duplex) => {
                        injector.inject(duplex);
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(15)),
                }
            }
            // `listener` drops here: socket closed, unix file unlinked.
        });
        Acceptor { stop, thread }
    }
}

/// The farm's listening socket, either flavor. A process farm switches
/// it to nonblocking mode (the launch deadline loop and the acceptor's
/// stop flag both need accept to return instead of parking); a thread
/// farm accepts connections it has just made, so blocking is fine.
enum FarmListener {
    Unix(BoundUnixListener),
    Tcp(std::net::TcpListener),
}

impl FarmListener {
    /// Bind a fresh listener for `transport`, with the endpoint workers
    /// connect to; `None` for the in-process channel, which has no
    /// socket.
    fn bind(transport: TransportKind) -> Result<Option<(FarmListener, Endpoint)>, EvaldError> {
        Ok(match transport {
            TransportKind::Channel => None,
            TransportKind::Unix => {
                let l = unix_listener(&farm_socket_path())?;
                let path = l.path().to_path_buf();
                Some((FarmListener::Unix(l), Endpoint::Unix(path)))
            }
            TransportKind::Tcp => {
                let (l, addr) = tcp_listener()?;
                Some((FarmListener::Tcp(l), Endpoint::Tcp(addr)))
            }
        })
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            FarmListener::Unix(l) => l.listener().set_nonblocking(true),
            FarmListener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> Result<Duplex, EvaldError> {
        match self {
            FarmListener::Unix(l) => unix_accept(l),
            FarmListener::Tcp(l) => tcp_accept(l),
        }
    }

    /// Whether an accept error is just "nothing pending yet".
    fn would_block(err: &EvaldError) -> bool {
        matches!(err, EvaldError::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock)
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

/// Spawn one worker process, retrying through the deterministic backoff
/// schedule: one bad fork (transient EAGAIN, racing resource limits)
/// must not fail the whole launch. Gives up — returning the *last*
/// spawn error — after `attempts` consecutive failures.
fn spawn_with_retry(
    spec: &WorkerSpec,
    client_id: u32,
    fault: Option<FaultPlan>,
    attempts: u32,
    supervision: &SupervisionCounters,
) -> std::io::Result<Child> {
    let mut supervisor = Supervisor::new(BackoffSchedule::default(), attempts.max(1));
    loop {
        match spec.spawn(client_id, fault) {
            Ok(child) => return Ok(child),
            Err(e) => match supervisor.on_failure() {
                SupervisorVerdict::Retry { delay_ms } => {
                    supervision.respawns.inc();
                    supervision.backoff_ms.add(delay_ms);
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                SupervisorVerdict::GiveUp => return Err(e),
            },
        }
    }
}

/// Accept the connections of freshly spawned worker processes, up to
/// `deadline_ms`. A worker that dies before connecting is never coming:
/// once every child has exited, stragglers get a short grace for
/// connections already in the backlog, and then the handshake decides
/// with what arrived.
fn accept_workers(
    listener: &FarmListener,
    n_clients: usize,
    deadline_ms: u64,
    children: &mut [Option<Child>],
) -> Result<Vec<Duplex>, EvaldError> {
    listener.set_nonblocking()?;
    let mut server_side: Vec<Duplex> = Vec::with_capacity(n_clients);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let mut all_dead_since: Option<Instant> = None;
    while server_side.len() < n_clients {
        match listener.accept() {
            Ok(duplex) => server_side.push(duplex),
            Err(e) if FarmListener::would_block(&e) => {
                let mut alive = 0;
                for child in children.iter_mut().flatten() {
                    if matches!(child.try_wait(), Ok(None)) {
                        alive += 1;
                    }
                }
                if alive == 0 {
                    let t = *all_dead_since.get_or_insert_with(Instant::now);
                    if t.elapsed() > Duration::from_millis(250) {
                        break;
                    }
                } else {
                    all_dead_since = None;
                }
                if Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(server_side)
}

impl ServiceHandle {
    /// Launch the service for one tuning run: spawn the client farm,
    /// connect it over the configured transport, complete the handshake
    /// and ship every worker the module as its job.
    ///
    /// # Errors
    ///
    /// Transport setup failures, [`EvaldError::Protocol`] for process
    /// workers over the in-process channel, or [`EvaldError::NoClients`]
    /// when no client survives the handshake.
    pub fn launch(
        cfg: &ServiceConfig,
        kind: CompilerKind,
        module: &Module,
        arch: Arch,
        artifact_cache: bool,
    ) -> Result<ServiceHandle, EvaldError> {
        ServiceHandle::launch_with(cfg, kind, module, arch, artifact_cache, None)
    }

    /// [`ServiceHandle::launch`] with telemetry wiring: the farm's
    /// counters, dispatch histogram and stitched spans land in `tel`'s
    /// registry and tracer, and — when the tracer is enabled — every
    /// client traces its compile stages back over the wire. `None` is
    /// the Off-mode purity contract: no telemetry clock reads and no
    /// spans; the counters count in a private registry.
    ///
    /// One path for both worker modes: bind the transport once, start
    /// the workers (threads get a connected end each; processes connect
    /// back to the listener), build the server, ship the job. Only a
    /// process farm keeps its listener, for the reconnect acceptor.
    ///
    /// # Errors
    ///
    /// See [`ServiceHandle::launch`].
    pub fn launch_with(
        cfg: &ServiceConfig,
        kind: CompilerKind,
        module: &Module,
        arch: Arch,
        artifact_cache: bool,
        tel: Option<FarmTelemetry>,
    ) -> Result<ServiceHandle, EvaldError> {
        let n_clients = cfg.clients.max(1);
        let n_flags = CompilerProfile::new(kind).n_flags() as u16;
        let fault_for = |i: usize| cfg.fault.filter(|f| f.client == i);
        let options = WorkerOptions {
            client_id: 0,
            kind,
            arch,
            artifact_cache,
            trace: tel.as_ref().is_some_and(|t| t.tracer.is_enabled()),
            fail_after: None,
            fault_kind: FaultKind::default(),
        };
        let farm = match &cfg.workers {
            WorkerMode::Threads => None,
            WorkerMode::Processes(farm) => Some(farm),
        };
        // Counters count in every telemetry mode: without a registry to
        // export to, they live in a private one.
        let (counters, supervision) =
            farm_counters(tel.as_ref().map_or(&btel::Registry::new(), |t| &t.registry));
        let listener = FarmListener::bind(cfg.transport)?;
        let mut clients = Vec::new();
        let mut children: Vec<Option<Child>> = Vec::new();
        let mut spec = None;
        // Everything after the first process spawn must reap the
        // children on failure — a launch error must not leak workers.
        let launched = (|| {
            let server_side = match (farm, &listener) {
                (None, _) => {
                    let mut server_side = Vec::with_capacity(n_clients);
                    for i in 0..n_clients {
                        // Connect on *this* thread, then accept: both
                        // steps fail fast through `?`, and no accept can
                        // wait on a thread that died before connecting.
                        let (server_end, client_end) = match &listener {
                            None => channel_duplex(),
                            Some((listener, endpoint)) => {
                                let client_end = endpoint.connect()?;
                                (listener.accept()?, client_end)
                            }
                        };
                        server_side.push(server_end);
                        let opts = options.for_client(i as u32, fault_for(i));
                        clients.push(std::thread::spawn(move || {
                            // A disconnect is the server going away —
                            // the normal end of service.
                            let _ = run_worker(client_end, &opts);
                        }));
                    }
                    server_side
                }
                (Some(_), None) => {
                    return Err(EvaldError::Protocol(
                        "process workers require a stream transport (unix or tcp) \
                         — there is no channel across an exec",
                    ))
                }
                (Some(farm), Some((listener, endpoint))) => {
                    let spec = spec.insert(WorkerSpec {
                        binary: resolve_worker_binary(farm.worker_binary.as_ref())?,
                        template: WorkerArgs {
                            endpoint: endpoint.clone(),
                            options: options.clone(),
                        },
                    });
                    for i in 0..n_clients {
                        children.push(Some(spawn_with_retry(
                            spec,
                            i as u32,
                            fault_for(i),
                            farm.spawn_attempts,
                            &supervision,
                        )?));
                    }
                    accept_workers(listener, n_clients, farm.accept_deadline_ms, &mut children)?
                }
            };
            let cost = CostModel::from_features(&module.features());
            let mut server = EvalServer::new(server_side, cost, n_flags, counters)?;
            server.set_liveness(cfg.liveness);
            if let Some(t) = &tel {
                server.set_telemetry(ServerTelemetry {
                    tracer: t.tracer.clone(),
                    dispatch_seconds: t.registry.histogram(
                        "bintuner_farm_dispatch_seconds",
                        "shard dispatch-to-first-result wall clock",
                    ),
                });
            }
            // Every worker builds its engine from the job description;
            // ship it before any Work frame can be dispatched.
            server.set_job(minicc::codec::encode_module(module));
            Ok(server)
        })();
        let server = match launched {
            Ok(server) => server,
            Err(e) => {
                for child in children.iter_mut().flatten() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                // Their connections died with the failed launch, so every
                // worker thread has returned or is about to.
                for h in clients {
                    let _ = h.join();
                }
                return Err(e);
            }
        };
        // The reconnect path: a worker process that dies is absorbed on
        // return (or replacement via spawn_worker) by injecting the
        // accepted connection into the running server. A thread farm's
        // listener drops here instead (closing the socket and unlinking
        // its file) — every thread is connected by now.
        let acceptor = match (farm, listener) {
            (Some(_), Some((listener, _))) => Some(Acceptor::start(listener, server.injector())),
            _ => None,
        };
        Ok(ServiceHandle {
            server: Mutex::new(Some(server)),
            failure: Mutex::new(None),
            clients,
            children: Mutex::new(children),
            spec,
            next_worker_id: AtomicU32::new(n_clients as u32),
            acceptor,
            drain_grace_ms: farm.map_or(0, |f| f.drain_grace_ms),
            supervision,
            transport: cfg.transport,
        })
    }

    /// Chaos hook: SIGKILL worker process `idx` (zero-based launch
    /// order). Returns `false` when there is no live worker at that
    /// index (thread mode, out of range, or already killed). The
    /// running batch recovers via straggler re-dispatch.
    pub fn kill_worker(&self, idx: usize) -> bool {
        let mut children = self.children.lock().unwrap();
        let Some(slot) = children.get_mut(idx) else {
            return false;
        };
        let Some(mut child) = slot.take() else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        self.supervision.workers_killed.inc();
        true
    }

    /// Spawn one additional worker process connecting to the running
    /// farm (the replacement half of the reconnect story). Returns the
    /// client id the worker announces.
    ///
    /// # Errors
    ///
    /// Unsupported in thread mode; otherwise whatever the OS reports
    /// for the spawn.
    pub fn spawn_worker(&self) -> std::io::Result<u32> {
        let spec = self.spec.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "spawn_worker requires process-mode workers",
            )
        })?;
        let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
        let child = spec.spawn(id, None)?;
        self.supervision.respawns.inc();
        self.children.lock().unwrap().push(Some(child));
        Ok(id)
    }

    /// A live read of the service's counters (`None` once
    /// [`ServiceHandle::finish`] has consumed the server). Lets chaos
    /// tests watch a respawned worker get absorbed mid-run.
    pub fn stats(&self) -> Option<ServiceStats> {
        let server = self.server.lock().unwrap();
        server.as_ref().map(|s| self.with_handle_facts(s.stats()))
    }

    /// `stats` completed with the facts only the handle knows.
    fn with_handle_facts(&self, stats: ServiceStats) -> ServiceStats {
        ServiceStats {
            transport: self.transport,
            process_workers: self.spec.is_some(),
            workers_killed: self.supervision.workers_killed.get() as usize,
            ..stats
        }
    }

    /// Take the service failure behind the most recent batch abort, if
    /// one was recorded ([`MissExecutor::execute`] returning `Err`).
    /// The tuner maps it into [`crate::TuneError::Service`] so the
    /// caller — notably the daemon — sees *which* transport-level
    /// failure killed the job, not just that the GA stopped.
    pub fn take_failure(&self) -> Option<Arc<EvaldError>> {
        self.failure.lock().unwrap().take()
    }

    /// Drain the client-produced stage artifacts accumulated on the
    /// merge barrier (the tuner folds them into its persistent
    /// [`ArtifactStore`](crate::ArtifactStore) before saving — the single-writer rule, same
    /// as the fitness-record fold). Call before
    /// [`ServiceHandle::finish`].
    pub fn take_artifacts(&self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        let mut guard = self.server.lock().unwrap();
        guard
            .as_mut()
            .map(EvalServer::take_merged_artifacts)
            .unwrap_or_default()
    }

    /// Sever connections, join every thread, drain (or kill) every
    /// worker process. Idempotent; shared by [`ServiceHandle::finish`]
    /// and `Drop`.
    ///
    /// Order matters: the acceptor stops first (no new connections can
    /// enter a dying server; dropping its listener unlinks the unix
    /// socket file), then the server shuts down (Shutdown frames let
    /// workers exit cleanly), then threads are joined and processes
    /// drained within the configured grace before being killed.
    fn teardown(&mut self) -> Option<ServiceStats> {
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.stop.store(true, Ordering::Relaxed);
            let _ = acceptor.thread.join();
        }
        let stats = self.server.lock().unwrap().take().map(EvalServer::shutdown);
        for h in self.clients.drain(..) {
            let _ = h.join();
        }
        self.drain_children();
        stats
    }

    /// Wait up to the drain grace for worker processes to exit after
    /// their Shutdown frame; kill whatever is still running.
    fn drain_children(&self) {
        let mut children = self.children.lock().unwrap();
        if children.is_empty() {
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(self.drain_grace_ms);
        loop {
            let mut still_running = 0;
            for child in children.iter_mut().flatten() {
                if matches!(child.try_wait(), Ok(None)) {
                    still_running += 1;
                }
            }
            if still_running == 0 {
                break;
            }
            if Instant::now() >= deadline {
                for child in children.iter_mut().flatten() {
                    if matches!(child.try_wait(), Ok(None)) {
                        let _ = child.kill();
                        self.supervision.workers_killed.inc();
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Reap every child so no zombies outlive the service.
        for child in children.iter_mut().flatten() {
            let _ = child.wait();
        }
        children.clear();
    }

    /// Shut the service down: stop the clients, join their threads /
    /// drain their processes, and return the final counter read plus the
    /// accumulated merge records for the tuner's single-writer store
    /// fold.
    pub fn finish(mut self) -> (ServiceStats, Vec<MergeRecord>) {
        let merged = self
            .server
            .lock()
            .unwrap()
            .as_mut()
            .map(EvalServer::take_merged)
            .unwrap_or_default();
        let stats = self.teardown().expect("finish tears down once");
        (self.with_handle_facts(stats), merged)
    }
}

impl Drop for ServiceHandle {
    /// Error paths between launch and [`ServiceHandle::finish`] (e.g.
    /// [`crate::TuneError::Baseline`] from the engine build) must not
    /// leak blocked client/reader threads or the socket file.
    fn drop(&mut self) {
        self.teardown();
    }
}

/// `Arc<EvaldError>` adapted into the abort's source chain (std has no
/// blanket `Error for Arc<T>`): the same allocation is shared with
/// [`ServiceHandle::take_failure`], so the tuner's typed error and the
/// abort's `source()` report one and the same failure.
#[derive(Debug)]
pub(crate) struct SharedEvaldError(pub(crate) Arc<EvaldError>);

impl std::fmt::Display for SharedEvaldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SharedEvaldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.0.source()
    }
}

impl MissExecutor for ServiceHandle {
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort> {
        let mut guard = self.server.lock().unwrap();
        let Some(server) = guard.as_mut() else {
            return Err(EvalAbort::new(
                "evaluation service already finished — no substrate left to evaluate on",
            ));
        };
        let evals = match server.evaluate(misses) {
            Ok(evals) => evals,
            // Losing *every* client mid-run leaves nothing to evaluate
            // on, and there is no degraded answer that keeps the GA
            // honest — so the *batch* aborts: the error unwinds through
            // `Ga::run_batched` to the tuner, which surfaces it as
            // `TuneError::Service`. The process hosting the service — a
            // CLI run or a multi-tenant daemon — keeps running and
            // decides whether to relaunch the farm. (Losing any proper
            // subset of clients is handled by re-dispatch and never
            // gets here.)
            Err(e) => {
                let message = format!(
                    "evaluation service failed with work outstanding: {e}{}",
                    server
                        .last_loss()
                        .map(|l| format!(" (last client loss: {l})"))
                        .unwrap_or_default()
                );
                let cause = Arc::new(e);
                *self.failure.lock().unwrap() = Some(Arc::clone(&cause));
                return Err(EvalAbort::with_source(message, SharedEvaldError(cause)));
            }
        };
        Ok(evals
            .into_iter()
            .map(|e| MissResult {
                fitness: e.fitness(),
                failed: e.failed,
                wall_seconds: e.wall_seconds(),
            })
            .collect())
    }
}

/// A [`MissExecutor`] that can also report the typed service failure
/// behind its most recent batch abort.
///
/// [`Tuner::tune_with_executor`](crate::Tuner::tune_with_executor)
/// accepts any implementor, so an embedder that multiplexes several
/// tuning runs onto shared evaluation substrate — the `bintuner daemon`
/// — plugs its farm proxy into the unchanged tuning pipeline and still
/// gets a fully chained [`crate::TuneError::Service`] when the
/// substrate dies.
pub trait ServiceExecutor: MissExecutor {
    /// Take the failure recorded by the most recent aborted
    /// [`MissExecutor::execute`] call, if any.
    fn take_failure(&self) -> Option<Arc<EvaldError>>;
}

impl ServiceExecutor for ServiceHandle {
    fn take_failure(&self) -> Option<Arc<EvaldError>> {
        ServiceHandle::take_failure(self)
    }
}
