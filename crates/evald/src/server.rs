//! The server side: dispatch loop, result assembly, merge sink.
//!
//! [`EvalServer`] owns one sender per client connection plus a single
//! event queue fed by per-connection reader threads. One call to
//! [`EvalServer::evaluate`] is one batch:
//!
//! 1. the batch is chunked into shards ([`crate::Scheduler`]),
//! 2. every live client is primed with a shard and re-fed as results
//!    arrive (work stealing + straggler re-dispatch),
//! 3. results are committed at their shard's batch offset — first result
//!    wins, duplicates are counted,
//! 4. after the last shard, every live client is asked to flush its
//!    local cache ([`crate::wire::Frame::EndBatch`]); the returned
//!    [`MergeRecord`]s accumulate in the server (the *single writer* of
//!    the embedder's persistent store — the answer to the "concurrent
//!    store writers" roadmap item is that nobody else ever writes).
//!
//! A dead client (closed connection, failed send, undecodable frame) is
//! dropped from the rotation and its outstanding shards are re-queued;
//! the batch completes as long as one client survives.
//!
//! A *hung* client — one that neither answers nor disconnects — is
//! handled by the liveness plane ([`crate::LivenessConfig`]): the event
//! loop waits in bounded ticks, probes idle clients with
//! [`crate::wire::Frame::Ping`] heartbeats, and holds every outstanding
//! dispatch to a wall-clock deadline derived from the adaptive cost
//! model. A client that misses its heartbeat budget or blows a dispatch
//! deadline is *evicted* exactly like a dead client. Eviction only
//! changes scheduling; because evaluation is a pure function of the
//! genome, results stay bit-identical to an unfaulted run.

use crate::scheduler::{CostModel, Scheduler};
use crate::transport::{Duplex, FrameReceiver, FrameSender};
use crate::wire::{
    decode_frame, encode_frame, Frame, MergeRecord, ShardStats, WireAstArtifact, WireEval,
    WireLowerArtifact, WireSpan,
};
use crate::{EvaldError, LivenessConfig, TransportKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the evaluation service did: a typed read of the server's
/// counters plus the facts it owns ([`EvalServer::stats`]). Fields set
/// by the embedder stay at their defaults in the server's own read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Transport the service ran on (set by the embedder).
    pub transport: TransportKind,
    /// Whether clients were worker processes (set by the embedder).
    pub process_workers: bool,
    /// Client connections the server was built over.
    pub clients: usize,
    /// Batches evaluated (one shard size each).
    pub batches: usize,
    /// Shards dispatched (first assignments).
    pub shards: usize,
    /// Shard copies handed to idle clients beyond the first assignment
    /// (straggler re-dispatch).
    pub redispatched_shards: usize,
    /// Individual evaluations discarded because another client answered
    /// the shard first (first result wins; duplicates are bit-identical).
    pub duplicate_results: usize,
    /// Client-cache records received in merge frames.
    pub merged_records: usize,
    /// Client-produced stage artifacts received in merge frames (v4).
    pub merged_artifacts: usize,
    /// Real compiles reported by clients (includes duplicated straggler
    /// work — the farm's actual effort, unlike the embedder's logical
    /// compile count).
    pub client_compiles: u64,
    /// Client-side cache hits reported by clients.
    pub client_cache_hits: u64,
    /// Client compiles that ran the full pipeline (no stage artifact
    /// reused; same farm-effort caveat as `client_compiles`).
    pub client_full_compiles: u64,
    /// Client compiles that reused a cached stage-1 artifact.
    pub client_ast_reuse: u64,
    /// Client compiles that reused a cached stage-2 artifact.
    pub client_lower_reuse: u64,
    /// Clients lost over the service's lifetime, handshake included.
    pub clients_lost: usize,
    /// Clients that joined *after* launch (reconnecting or respawned
    /// worker processes absorbed mid-run via [`ClientInjector`]).
    pub clients_joined: usize,
    /// Shard wall-time measurements folded into the adaptive cost model.
    pub cost_observations: u64,
    /// Heartbeat probes that were still unanswered when the next probe
    /// came due (the liveness plane's early-warning signal).
    pub heartbeat_misses: u64,
    /// Clients the liveness plane condemned — too many missed
    /// heartbeats or a blown dispatch deadline. A subset of
    /// [`ServiceStats::clients_lost`].
    pub evicted_clients: usize,
    /// Worker processes the embedder had to kill (set by the embedder).
    pub workers_killed: usize,
    /// The adaptive cost model's converged farm-wide estimate (seconds
    /// per genome), once it has seen enough shards; `None` while the
    /// static prior still rules.
    pub observed_secs_per_genome: Option<f64>,
    /// Shard size chosen for each batch, in batch order — the trace of
    /// the cost model converging away from its static prior.
    pub shard_sizes: Vec<usize>,
}

/// The dispatch server's counter handles, the only store of its event
/// counts: each stores the [`ServiceStats`] count of the same name. They
/// are always live (one relaxed atomic add per event, no clock read) and
/// handed to [`EvalServer::new`], so handshake events count too.
/// `ServerCounters::default()` is a detached set.
#[allow(missing_docs)] // documented on the same-named ServiceStats fields
#[derive(Debug, Default)]
pub struct ServerCounters {
    pub shards: Arc<btel::Counter>,
    pub redispatched_shards: Arc<btel::Counter>,
    pub duplicate_results: Arc<btel::Counter>,
    pub merged_records: Arc<btel::Counter>,
    pub merged_artifacts: Arc<btel::Counter>,
    pub client_compiles: Arc<btel::Counter>,
    pub client_cache_hits: Arc<btel::Counter>,
    pub client_full_compiles: Arc<btel::Counter>,
    pub client_ast_reuse: Arc<btel::Counter>,
    pub client_lower_reuse: Arc<btel::Counter>,
    pub clients_lost: Arc<btel::Counter>,
    pub clients_joined: Arc<btel::Counter>,
    pub heartbeat_misses: Arc<btel::Counter>,
    pub evicted_clients: Arc<btel::Counter>,
}

/// The embedder's timing handles for the dispatch server, installed via
/// [`EvalServer::set_telemetry`]. Absent (the default), the server
/// takes no telemetry clock readings and sends span id `0` on every
/// `Work` frame — bit-identical to pre-telemetry behavior.
pub struct ServerTelemetry {
    /// Records shard-dispatch spans and stitches in worker spans.
    pub tracer: btel::Tracer,
    /// Dispatch latency: `Work` sent → first `Result` received.
    pub dispatch_seconds: Arc<btel::Histogram>,
}

enum Event {
    Frame(u32, Frame),
    Gone(u32, EvaldError),
    /// A connection injected after launch (see [`ClientInjector`]): the
    /// server must complete the Hello handshake before handing it work.
    Joined(u32, Box<dyn FrameSender>),
}

/// Spawn the per-connection reader thread: decode frames off `rx` and
/// forward them as events until the connection or the server goes away.
fn spawn_reader(
    id: u32,
    mut frame_rx: Box<dyn FrameReceiver>,
    tx: mpsc::Sender<Event>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match frame_rx.recv_frame() {
            Ok(bytes) => match decode_frame(&bytes) {
                Ok((frame, _)) => {
                    if tx.send(Event::Frame(id, frame)).is_err() {
                        return; // server gone
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Gone(id, e));
                    return;
                }
            },
            Err(e) => {
                let _ = tx.send(Event::Gone(id, e));
                return;
            }
        }
    })
}

/// A handle for feeding new client connections into a running
/// [`EvalServer`] — the reconnect path of the process farm: an acceptor
/// thread keeps `accept()`ing on the farm's listener and injects every
/// late connection here. The server handshakes the newcomer (Hello,
/// width check), re-sends the current job description, and folds it into
/// the dispatch rotation; a client that died earlier simply comes back
/// under a fresh id.
///
/// Cloneable and `Send`: the acceptor owns a clone while the server
/// keeps running.
#[derive(Clone)]
pub struct ClientInjector {
    events: mpsc::Sender<Event>,
    next_id: Arc<AtomicU32>,
}

impl ClientInjector {
    /// Hand a freshly accepted connection to the server, returning the
    /// client id it will serve under. The injection is ordered before
    /// anything the connection's reader produces, so the newcomer's
    /// `Hello` always finds the server expecting it.
    pub fn inject(&self, duplex: Duplex) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Joined must enter the queue before the reader's first frame;
        // sending it *before* the reader thread exists guarantees that.
        // (A send after server teardown is simply dropped — the
        // connection is severed when `duplex` goes out of scope.)
        let _ = self.events.send(Event::Joined(id, duplex.tx));
        // The reader is not joined at teardown (the server never learns
        // its handle); it exits on its own once the sender half is
        // closed and the severed connection surfaces as Disconnected.
        let _ = spawn_reader(id, duplex.rx, self.events.clone());
        id
    }
}

/// The dispatch server (see module docs).
pub struct EvalServer {
    senders: Vec<Option<Box<dyn crate::transport::FrameSender>>>,
    events: mpsc::Receiver<Event>,
    /// Kept for [`EvalServer::injector`] clones; the server itself never
    /// sends on it.
    events_tx: mpsc::Sender<Event>,
    /// Next id for injected clients (initial clients take 0..n).
    next_client_id: Arc<AtomicU32>,
    readers: Vec<JoinHandle<()>>,
    cost: CostModel,
    /// Chromosome width every client must announce.
    expect_n_flags: u16,
    /// The embedder's job description, re-sent to every late joiner.
    job: Option<Vec<u8>>,
    /// Injected clients that have not completed their Hello yet — not
    /// eligible for work until they do.
    pending_hello: HashSet<u32>,
    next_shard_id: u64,
    next_batch: u64,
    /// Client connections the server was built over.
    launched: usize,
    /// The only store of the server's event counts.
    counters: ServerCounters,
    merged: Vec<MergeRecord>,
    merged_ast: Vec<WireAstArtifact>,
    merged_lower: Vec<WireLowerArtifact>,
    /// Shard size chosen for each batch, in batch order (convergence
    /// telemetry for the adaptive cost model).
    shard_sizes: Vec<usize>,
    /// Why the most recently lost client went away (diagnostics).
    last_loss: Option<String>,
    /// Clients with no useful work at last dispatch — re-poked when a
    /// client death re-queues shards.
    idle: HashSet<u32>,
    /// Timing handles; `None` (the default) is the Off-mode purity
    /// contract: no telemetry clocks, no spans. (The liveness plane
    /// keeps its own clock regardless — it steers scheduling, which
    /// never changes results, not telemetry.)
    tel: Option<ServerTelemetry>,
    /// Heartbeat cadence and dispatch-deadline policy (see
    /// [`LivenessConfig`]); installed via [`EvalServer::set_liveness`].
    liveness: LivenessConfig,
    /// Pings sent to a client since its last frame (any frame counts as
    /// proof of life). Reset to zero on receive; eviction when it
    /// exceeds [`LivenessConfig::max_missed_heartbeats`].
    unanswered_pings: HashMap<u32, u32>,
    /// Wall-clock deadline for each client's outstanding dispatch
    /// (a client holds at most one `Work` frame at a time). Set on
    /// dispatch, cleared on its `Result`; blowing it is an eviction.
    dispatch_deadlines: HashMap<u32, Instant>,
    /// When the last round of heartbeat probes went out.
    last_ping: Option<Instant>,
    /// Monotonically increasing ping nonce (diagnostics only — any
    /// inbound frame proves liveness, not just the matching Pong).
    next_nonce: u64,
    /// Send time per outstanding dispatch span, keyed by span id
    /// (telemetry only). Keyed by span — not shard — so each straggler
    /// copy of a re-dispatched shard closes its *own* dispatch span (the
    /// one its worker parented stage spans under, echoed back in
    /// [`crate::wire::ShardStats::span`]).
    inflight_spans: HashMap<u64, Instant>,
}

impl EvalServer {
    /// Build a server over established connections and complete the
    /// handshake: every client must send [`Frame::Hello`] with a
    /// matching chromosome width. Clients that fail the handshake are
    /// dropped (counted in `counters.clients_lost`, like every later
    /// loss).
    ///
    /// # Errors
    ///
    /// [`EvaldError::NoClients`] when no client survives the handshake.
    pub fn new(
        connections: Vec<Duplex>,
        cost: CostModel,
        expect_n_flags: u16,
        counters: ServerCounters,
    ) -> Result<EvalServer, EvaldError> {
        let (tx, rx) = mpsc::channel();
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (id, duplex) in connections.into_iter().enumerate() {
            senders.push(Some(duplex.tx));
            readers.push(spawn_reader(id as u32, duplex.rx, tx.clone()));
        }
        let launched = senders.len();
        let next_client_id = Arc::new(AtomicU32::new(launched as u32));
        let mut server = EvalServer {
            senders,
            events: rx,
            events_tx: tx,
            next_client_id,
            readers,
            cost,
            expect_n_flags,
            job: None,
            pending_hello: HashSet::new(),
            next_shard_id: 0,
            next_batch: 0,
            launched,
            counters,
            merged: Vec::new(),
            merged_ast: Vec::new(),
            merged_lower: Vec::new(),
            shard_sizes: Vec::new(),
            last_loss: None,
            idle: HashSet::new(),
            tel: None,
            liveness: LivenessConfig::default(),
            unanswered_pings: HashMap::new(),
            dispatch_deadlines: HashMap::new(),
            last_ping: None,
            next_nonce: 0,
            inflight_spans: HashMap::new(),
        };
        server.handshake()?;
        Ok(server)
    }

    /// Install timing handles. Dispatches from here on carry real span
    /// ids on their `Work` frames, dispatch latency lands in the
    /// histogram, and worker-recorded spans are stitched into the
    /// tracer as results arrive. Counts need no installation: they go
    /// to the counters given to [`EvalServer::new`].
    pub fn set_telemetry(&mut self, tel: ServerTelemetry) {
        self.tel = Some(tel);
    }

    /// Install the liveness policy: heartbeat cadence, miss budget, and
    /// dispatch-deadline scaling. The default ([`LivenessConfig`]) is
    /// deliberately generous — tune it down only in chaos tests.
    pub fn set_liveness(&mut self, liveness: LivenessConfig) {
        self.liveness = liveness;
    }

    /// A handle for injecting client connections accepted *after*
    /// launch (the farm's reconnect path).
    pub fn injector(&self) -> ClientInjector {
        ClientInjector {
            events: self.events_tx.clone(),
            next_id: Arc::clone(&self.next_client_id),
        }
    }

    /// Install the embedder's job description and broadcast it to every
    /// live client. Late joiners receive it again right after their
    /// handshake, so a worker process can always build its engine before
    /// its first `Work` frame.
    pub fn set_job(&mut self, payload: Vec<u8>) {
        for c in self.ready_ids() {
            self.send_to(
                c,
                &Frame::Job {
                    payload: payload.clone(),
                },
            );
        }
        self.job = Some(payload);
    }

    fn alive(&self) -> usize {
        self.senders.iter().filter(|s| s.is_some()).count()
    }

    fn alive_ids(&self) -> Vec<u32> {
        self.senders
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Clients eligible for work: connected *and* past their handshake.
    fn ready_ids(&self) -> Vec<u32> {
        self.alive_ids()
            .into_iter()
            .filter(|c| !self.pending_hello.contains(c))
            .collect()
    }

    /// Grow the sender table to cover an injected client id.
    fn ensure_slot(&mut self, client: u32) {
        let need = client as usize + 1;
        if self.senders.len() < need {
            self.senders.resize_with(need, || None);
        }
    }

    /// Register an injected connection: it owes us a Hello before it can
    /// take work.
    fn register_joined(&mut self, client: u32, sender: Box<dyn FrameSender>) {
        self.ensure_slot(client);
        self.senders[client as usize] = Some(sender);
        self.pending_hello.insert(client);
    }

    /// Handle a Hello from an injected client: width-check it, replay
    /// the job description, and admit it to the rotation. Returns
    /// `false` when the Hello was *not* a valid admission (repeated
    /// Hello from an established client, or width mismatch) — the
    /// caller treats that as a protocol violation / lost client.
    fn admit_joined(&mut self, client: u32, n_flags: u16) -> bool {
        if !self.pending_hello.remove(&client) {
            return false;
        }
        if n_flags != self.expect_n_flags {
            self.drop_client(client);
            return false;
        }
        self.counters.clients_joined.inc();
        if let Some(job) = self.job.clone() {
            if !self.send_to(client, &Frame::Job { payload: job }) {
                return false;
            }
        }
        true
    }

    fn drop_client(&mut self, client: u32) {
        self.ensure_slot(client);
        if let Some(mut sender) = self.senders[client as usize].take() {
            // Sever the connection: a still-alive client (protocol
            // violation, handshake mismatch) and our own reader thread
            // must both observe EOF instead of blocking forever.
            sender.close();
            self.counters.clients_lost.inc();
        }
        self.pending_hello.remove(&client);
        self.idle.remove(&client);
        self.unanswered_pings.remove(&client);
        self.dispatch_deadlines.remove(&client);
    }

    /// How long one event wait may block before the liveness plane gets
    /// a turn. Derived from the heartbeat cadence; bounded so even a
    /// heartbeat-free configuration keeps checking dispatch deadlines.
    fn liveness_tick(&self) -> Duration {
        let ms = if self.liveness.heartbeat_interval_ms == 0 {
            500
        } else {
            (self.liveness.heartbeat_interval_ms / 2).clamp(25, 500)
        };
        Duration::from_millis(ms)
    }

    /// The wall-clock budget for a dispatch of `genomes` genomes: the
    /// cost model's converged estimate scaled by the configured
    /// multiplier, floored generously while the model is still cold.
    fn dispatch_deadline(&self, genomes: usize) -> Option<Instant> {
        if self.liveness.min_dispatch_deadline_ms == 0 {
            return None; // dispatch deadlines disabled
        }
        let floor = Duration::from_millis(self.liveness.min_dispatch_deadline_ms);
        let budget = match self.cost.observed_secs_per_genome() {
            Some(secs) if secs > 0.0 => {
                let scaled = secs * genomes as f64 * self.liveness.deadline_multiplier;
                floor.max(Duration::from_secs_f64(scaled))
            }
            _ => floor,
        };
        Some(Instant::now() + budget)
    }

    /// One turn of the liveness plane, run whenever an event wait times
    /// out: evict dispatches past their deadline, fire due heartbeat
    /// probes, and condemn clients whose miss budget is spent. Returns
    /// the condemned client ids; the caller evicts them through the
    /// same path as a dead client.
    fn liveness_sweep(&mut self) -> Vec<u32> {
        let now = Instant::now();
        let mut condemned: Vec<u32> = self
            .dispatch_deadlines
            .iter()
            .filter(|&(_, deadline)| now >= *deadline)
            .map(|(&c, _)| c)
            .collect();
        let due = self.liveness.heartbeat_interval_ms > 0
            && !self.last_ping.is_some_and(|t| {
                now.duration_since(t) < Duration::from_millis(self.liveness.heartbeat_interval_ms)
            });
        if due {
            self.last_ping = Some(now);
            for c in self.ready_ids() {
                if self.dispatch_deadlines.contains_key(&c) {
                    // Busy on a shard: the client loop cannot answer a
                    // probe mid-evaluation, so the dispatch deadline —
                    // not the heartbeat — governs it.
                    continue;
                }
                let missed = self.unanswered_pings.get(&c).copied().unwrap_or(0);
                if missed > 0 {
                    self.counters.heartbeat_misses.inc();
                }
                if missed >= self.liveness.max_missed_heartbeats {
                    condemned.push(c);
                    continue;
                }
                self.unanswered_pings.insert(c, missed + 1);
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                self.send_to(c, &Frame::Ping { nonce });
            }
        }
        condemned.sort_unstable();
        condemned.dedup();
        condemned
    }

    /// Book-keeping shared by every liveness eviction (the severance
    /// itself goes through [`EvalServer::drop_client`] as usual).
    fn note_eviction(&mut self, client: u32) {
        self.last_loss = Some(format!(
            "client {client} evicted: missed heartbeats or blew its dispatch deadline"
        ));
        self.counters.evicted_clients.inc();
    }

    /// Send a frame to `client`; on failure the client is dropped and
    /// `false` returned.
    fn send_to(&mut self, client: u32, frame: &Frame) -> bool {
        let Some(sender) = self
            .senders
            .get_mut(client as usize)
            .and_then(Option::as_mut)
        else {
            return false;
        };
        if sender.send_frame(&encode_frame(frame)).is_err() {
            self.drop_client(client);
            return false;
        }
        true
    }

    fn handshake(&mut self) -> Result<(), EvaldError> {
        let mut pending: HashSet<u32> = self.alive_ids().into_iter().collect();
        while !pending.is_empty() {
            // deadline: the launch handshake is bounded by the embedder
            // (thread clients Hello before their first recv; process
            // farms gate admission behind their own accept deadline).
            match self.events.recv() {
                Ok(Event::Frame(c, Frame::Hello { n_flags, .. })) => {
                    if self.pending_hello.contains(&c) {
                        // An injected client racing the launch
                        // handshake; admit it on the side.
                        self.admit_joined(c, n_flags);
                    } else {
                        if n_flags != self.expect_n_flags {
                            self.drop_client(c);
                        }
                        pending.remove(&c);
                    }
                }
                Ok(Event::Frame(c, _)) => {
                    // Anything before Hello is a protocol violation.
                    self.drop_client(c);
                    pending.remove(&c);
                }
                Ok(Event::Gone(c, e)) => {
                    self.last_loss = Some(e.to_string());
                    self.drop_client(c);
                    pending.remove(&c);
                }
                Ok(Event::Joined(c, sender)) => self.register_joined(c, sender),
                Err(_) => break, // all readers gone
            }
        }
        if self.alive() == 0 {
            return Err(EvaldError::NoClients);
        }
        Ok(())
    }

    /// Give `client` its next shard if the scheduler has one; otherwise
    /// mark it idle.
    fn dispatch_next(&mut self, sched: &mut Scheduler, client: u32) {
        let connected = self
            .senders
            .get(client as usize)
            .is_some_and(Option::is_some);
        if !connected || self.pending_hello.contains(&client) {
            return;
        }
        let Some((shard, genomes)) = sched.next_for(client) else {
            self.idle.insert(client);
            return;
        };
        let span = match &self.tel {
            Some(t) if t.tracer.is_enabled() => {
                let id = t.tracer.alloc_id();
                self.inflight_spans.insert(id, Instant::now());
                id
            }
            _ => 0,
        };
        let deadline = self.dispatch_deadline(genomes.len());
        if self.send_to(
            client,
            &Frame::Work {
                shard,
                span,
                genomes,
            },
        ) {
            self.idle.remove(&client);
            // The dispatch deadline takes over liveness duty from the
            // heartbeat until the shard's Result comes back.
            self.unanswered_pings.insert(client, 0);
            if let Some(deadline) = deadline {
                self.dispatch_deadlines.insert(client, deadline);
            }
        } else {
            // Send failed: the client was dropped mid-dispatch. Release
            // its shards; the reader's Gone event (a closed connection
            // always produces one) re-pokes idle clients.
            sched.client_dead(client);
        }
    }

    /// Fold one `Result` frame's shard report, whichever copy of the
    /// shard it answers: count the client's reported work, feed its
    /// measured wall time to the adaptive cost model, and — with timing
    /// installed — close the dispatch span the worker echoed back
    /// ([`crate::wire::ShardStats::span`], `0` when the Work frame
    /// carried none) and stitch the worker's spans into the trace.
    fn fold_result(
        &mut self,
        client: u32,
        genomes: usize,
        stats: &ShardStats,
        spans: Vec<WireSpan>,
    ) {
        let c = &self.counters;
        c.client_compiles.add(u64::from(stats.compiles));
        c.client_cache_hits.add(u64::from(stats.cache_hits));
        c.client_full_compiles.add(u64::from(stats.full_compiles));
        c.client_ast_reuse.add(u64::from(stats.ast_reuse));
        c.client_lower_reuse.add(u64::from(stats.lower_reuse));
        self.cost.observe(client, genomes, stats.wall_seconds);
        let Some(t) = &self.tel else { return };
        if let Some(sent) = self.inflight_spans.remove(&stats.span) {
            t.tracer.record_with_id(stats.span, "dispatch", 0, sent);
            t.dispatch_seconds
                .observe_seconds(sent.elapsed().as_secs_f64());
        }
        t.tracer.import(spans.into_iter().map(|s| btel::SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_us: s.start_us,
            dur_us: s.dur_us,
            client,
        }));
    }

    /// Re-poke idle clients (after a death re-queued shards).
    fn wake_idle(&mut self, sched: &mut Scheduler) {
        let idle: Vec<u32> = self.idle.iter().copied().collect();
        for c in idle {
            self.dispatch_next(sched, c);
        }
    }

    /// Evaluate one batch of genomes across the client farm, returning
    /// one [`WireEval`] per genome in input order.
    ///
    /// # Errors
    ///
    /// [`EvaldError::NoClients`] when every client is dead with shards
    /// still outstanding; [`EvaldError::Protocol`] when a client returns
    /// a result of the wrong length (a broken worker build).
    pub fn evaluate(&mut self, genomes: &[Vec<bool>]) -> Result<Vec<WireEval>, EvaldError> {
        if genomes.is_empty() {
            return Ok(Vec::new());
        }
        if self.alive() == 0 {
            return Err(EvaldError::NoClients);
        }
        let shard_size = self.cost.shard_size(genomes.len(), self.alive());
        self.shard_sizes.push(shard_size);
        let mut sched = Scheduler::new(self.next_shard_id, genomes, shard_size);
        self.next_shard_id += sched.shard_count() as u64;
        self.counters.shards.add(sched.shard_count() as u64);
        let mut out: Vec<Option<WireEval>> = vec![None; genomes.len()];

        self.idle.clear();
        for c in self.ready_ids() {
            self.dispatch_next(&mut sched, c);
        }
        while !sched.all_done() {
            if self.alive() == 0 {
                return Err(EvaldError::NoClients);
            }
            // deadline: bounded wait — every timeout tick runs the
            // liveness sweep, so a hung client is evicted (shards
            // requeued) instead of stalling the batch forever.
            let event = match self.events.recv_timeout(self.liveness_tick()) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for c in self.liveness_sweep() {
                        self.note_eviction(c);
                        self.drop_client(c);
                        sched.client_dead(c);
                        self.wake_idle(&mut sched);
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(EvaldError::NoClients),
            };
            if let Event::Frame(c, _) = &event {
                // Any frame is proof of life.
                self.unanswered_pings.insert(*c, 0);
            }
            match event {
                Event::Frame(
                    c,
                    Frame::Result {
                        shard,
                        evals,
                        stats,
                        spans,
                        ..
                    },
                ) => {
                    self.dispatch_deadlines.remove(&c);
                    self.fold_result(c, evals.len(), &stats, spans);
                    match sched.complete(shard) {
                        Some(start) if sched.shard_len(shard) == Some(evals.len()) => {
                            for (k, e) in evals.into_iter().enumerate() {
                                out[start + k] = Some(e);
                            }
                        }
                        Some(_) => {
                            // Malformed result length: treat the client as
                            // broken, re-queue the shard for someone else.
                            // (complete() already marked it done — undo by
                            // treating this as fatal for the client and
                            // failing loudly instead of silently zeroing.)
                            return Err(EvaldError::Protocol(
                                "result length does not match its shard",
                            ));
                        }
                        None => self.counters.duplicate_results.add(evals.len() as u64),
                    }
                    self.dispatch_next(&mut sched, c);
                }
                Event::Frame(
                    _,
                    Frame::Merge {
                        records,
                        ast_artifacts,
                        lower_artifacts,
                        ..
                    },
                ) => self.apply_merge(records, ast_artifacts, lower_artifacts),
                Event::Frame(c, Frame::Hello { n_flags, .. }) => {
                    if self.admit_joined(c, n_flags) {
                        // A reconnecting worker joins the running batch:
                        // the straggler/steal machinery absorbs it.
                        self.dispatch_next(&mut sched, c);
                    } else {
                        // Repeated Hello from an established client:
                        // protocol violation.
                        self.drop_client(c);
                        sched.client_dead(c);
                        self.wake_idle(&mut sched);
                    }
                }
                Event::Frame(_, Frame::Pong { .. }) => {
                    // Heartbeat answer: the proof-of-life reset above
                    // already did the work.
                }
                Event::Frame(c, _) => {
                    // Work/EndBatch/Shutdown/Job from a client: protocol
                    // violation — drop it.
                    self.drop_client(c);
                    sched.client_dead(c);
                    self.wake_idle(&mut sched);
                }
                Event::Gone(c, e) => {
                    self.last_loss = Some(e.to_string());
                    self.drop_client(c);
                    sched.client_dead(c);
                    self.wake_idle(&mut sched);
                }
                Event::Joined(c, sender) => self.register_joined(c, sender),
            }
        }

        self.counters
            .redispatched_shards
            .add(sched.redispatched as u64);
        self.flush_merges()?;
        // Dispatch spans whose results never arrived (copies sent to
        // clients that died mid-shard) would otherwise leak across
        // batches. Cleared *after* the merge barrier: stragglers
        // finishing re-dispatched copies during the barrier still close
        // their own dispatch spans.
        self.inflight_spans.clear();
        Ok(out
            .into_iter()
            .map(|e| e.expect("every shard completed"))
            .collect())
    }

    /// End-of-batch barrier: ask every live client to flush its local
    /// cache and wait for the merge frames (results of still-running
    /// straggler copies arriving meanwhile are counted as duplicates).
    fn flush_merges(&mut self) -> Result<(), EvaldError> {
        let batch = self.next_batch;
        self.next_batch += 1;
        let mut waiting: HashSet<u32> = HashSet::new();
        for c in self.ready_ids() {
            if self.send_to(c, &Frame::EndBatch { batch }) {
                waiting.insert(c);
            }
        }
        while !waiting.is_empty() {
            // deadline: bounded wait — the liveness sweep on timeout
            // ticks evicts hung clients out of `waiting`, so the merge
            // barrier cannot wedge on a worker that never answers.
            let event = match self.events.recv_timeout(self.liveness_tick()) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for c in self.liveness_sweep() {
                        self.note_eviction(c);
                        self.drop_client(c);
                        waiting.remove(&c);
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            if let Event::Frame(c, _) = &event {
                // Any frame is proof of life.
                self.unanswered_pings.insert(*c, 0);
            }
            match event {
                Event::Frame(
                    c,
                    Frame::Merge {
                        records,
                        ast_artifacts,
                        lower_artifacts,
                        ..
                    },
                ) => {
                    self.apply_merge(records, ast_artifacts, lower_artifacts);
                    waiting.remove(&c);
                }
                Event::Frame(
                    c,
                    Frame::Result {
                        evals,
                        stats,
                        spans,
                        ..
                    },
                ) => {
                    self.dispatch_deadlines.remove(&c);
                    // A straggler finishing a re-dispatched copy after the
                    // batch completed: pure duplicate — but still a real
                    // wall-time measurement for the cost model, and its
                    // trace spans still stitch under their own dispatch.
                    self.fold_result(c, evals.len(), &stats, spans);
                    self.counters.duplicate_results.add(evals.len() as u64);
                }
                Event::Frame(c, Frame::Hello { n_flags, .. }) => {
                    // A worker reconnecting between batches: admit it —
                    // the next batch's dispatch will pick it up. A bad
                    // Hello is a protocol violation as usual.
                    if !self.admit_joined(c, n_flags) {
                        self.drop_client(c);
                        waiting.remove(&c);
                    }
                }
                Event::Frame(_, Frame::Pong { .. }) => {
                    // Heartbeat answer: the proof-of-life reset above
                    // already did the work.
                }
                Event::Frame(c, _) => {
                    self.drop_client(c);
                    waiting.remove(&c);
                }
                Event::Gone(c, e) => {
                    self.last_loss = Some(e.to_string());
                    self.drop_client(c);
                    waiting.remove(&c);
                }
                Event::Joined(c, sender) => self.register_joined(c, sender),
            }
        }
        Ok(())
    }

    fn apply_merge(
        &mut self,
        records: Vec<MergeRecord>,
        ast: Vec<WireAstArtifact>,
        lower: Vec<WireLowerArtifact>,
    ) {
        self.counters.merged_records.add(records.len() as u64);
        self.counters
            .merged_artifacts
            .add((ast.len() + lower.len()) as u64);
        self.merged.extend(records);
        self.merged_ast.extend(ast);
        self.merged_lower.extend(lower);
    }

    /// Drain the accumulated client-cache records (the embedder folds
    /// them into its store — the single write path).
    pub fn take_merged(&mut self) -> Vec<MergeRecord> {
        std::mem::take(&mut self.merged)
    }

    /// Drain the accumulated client-produced stage artifacts (the
    /// embedder folds them into its artifact store — same single-writer
    /// rule as [`EvalServer::take_merged`]).
    pub fn take_merged_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        (
            std::mem::take(&mut self.merged_ast),
            std::mem::take(&mut self.merged_lower),
        )
    }

    /// A typed read of the server's counters and the facts it owns.
    /// Servers built over counters shared with another server read the
    /// shared totals.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let n = |c: &btel::Counter| c.get() as usize;
        ServiceStats {
            clients: self.launched,
            batches: self.shard_sizes.len(),
            shards: n(&c.shards),
            redispatched_shards: n(&c.redispatched_shards),
            duplicate_results: n(&c.duplicate_results),
            merged_records: n(&c.merged_records),
            merged_artifacts: n(&c.merged_artifacts),
            client_compiles: c.client_compiles.get(),
            client_cache_hits: c.client_cache_hits.get(),
            client_full_compiles: c.client_full_compiles.get(),
            client_ast_reuse: c.client_ast_reuse.get(),
            client_lower_reuse: c.client_lower_reuse.get(),
            clients_lost: n(&c.clients_lost),
            clients_joined: n(&c.clients_joined),
            cost_observations: self.cost.observations(),
            heartbeat_misses: c.heartbeat_misses.get(),
            evicted_clients: n(&c.evicted_clients),
            observed_secs_per_genome: self.cost.observed_secs_per_genome(),
            shard_sizes: self.shard_sizes.clone(),
            ..ServiceStats::default()
        }
    }

    /// Why the most recently lost client disconnected, if any did
    /// (clean shard-drop deaths read as "peer closed the connection").
    pub fn last_loss(&self) -> Option<&str> {
        self.last_loss.as_deref()
    }

    /// Shut the service down: tell every live client to exit, then join
    /// the reader threads. Returns the final [`EvalServer::stats`] read.
    pub fn shutdown(mut self) -> ServiceStats {
        self.teardown();
        self.stats()
    }

    /// Idempotent teardown shared by [`EvalServer::shutdown`] and `Drop`.
    fn teardown(&mut self) {
        for c in self.alive_ids() {
            self.send_to(c, &Frame::Shutdown);
        }
        // Sever every connection (queued frames drain first): channel
        // transports close when the sender drops, stream transports need
        // the explicit shutdown so clients and readers see EOF even if a
        // client never processes the Shutdown frame.
        for sender in self.senders.iter_mut().flatten() {
            sender.close();
        }
        self.senders.clear();
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for EvalServer {
    /// A server dropped without [`EvalServer::shutdown`] — an embedder
    /// error path between launch and teardown — must still sever every
    /// connection and join its readers: on stream transports, merely
    /// dropping the write halves would leave clients *and* readers
    /// blocked forever (each holds its own clone of the stream).
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{run_client, ClientOptions, ShardWorker};
    use crate::transport::channel_duplex;
    use crate::wire::ShardStats;
    use crate::FaultKind;

    /// Toy worker: fitness = popcount; remembers seen genomes to report
    /// cache hits; merges one record per shard for sink coverage.
    struct Popcount {
        seen: std::collections::BTreeSet<Vec<bool>>,
        pending: Vec<MergeRecord>,
    }

    impl Popcount {
        fn new() -> Popcount {
            Popcount {
                seen: Default::default(),
                pending: Vec::new(),
            }
        }
    }

    impl ShardWorker for Popcount {
        fn evaluate(&mut self, genomes: &[Vec<bool>], _span: u64) -> (Vec<WireEval>, ShardStats) {
            let mut stats = ShardStats::default();
            let evals = genomes
                .iter()
                .map(|g| {
                    if self.seen.insert(g.clone()) {
                        stats.compiles += 1;
                    } else {
                        stats.cache_hits += 1;
                    }
                    WireEval {
                        fitness_bits: (g.iter().filter(|&&b| b).count() as f64).to_bits(),
                        failed: false,
                        wall_seconds_bits: 0,
                    }
                })
                .collect();
            self.pending.push(MergeRecord {
                module_hash: 1,
                compiler: 0,
                arch: 0,
                effect_digest: self.seen.len() as u128,
                fitness_bits: 0,
                failed: false,
                flags: vec![],
            });
            (evals, stats)
        }

        fn drain_merge(&mut self) -> Vec<MergeRecord> {
            std::mem::take(&mut self.pending)
        }
    }

    fn launch(n_clients: usize, fail: Option<(usize, usize)>) -> (EvalServer, Vec<JoinHandle<()>>) {
        launch_faulty(n_clients, fail, FaultKind::Crash)
    }

    fn launch_faulty(
        n_clients: usize,
        fail: Option<(usize, usize)>,
        fault_kind: FaultKind,
    ) -> (EvalServer, Vec<JoinHandle<()>>) {
        let mut server_side = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n_clients {
            let (s, c) = channel_duplex();
            server_side.push(s);
            let opts = ClientOptions {
                client_id: i as u32,
                n_flags: 4,
                fail_after_shards: fail.and_then(|(who, after)| (who == i).then_some(after)),
                fault_kind,
            };
            handles.push(std::thread::spawn(move || {
                let mut w = Popcount::new();
                let _ = run_client(&mut w, c, &opts);
            }));
        }
        let server = EvalServer::new(
            server_side,
            CostModel::uniform(),
            4,
            ServerCounters::default(),
        )
        .unwrap();
        (server, handles)
    }

    fn batch(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| (0..4).map(|b| (i >> b) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn batch_results_are_ordered_and_correct() {
        let (mut server, handles) = launch(3, None);
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        assert_eq!(evals.len(), 16);
        for (g, e) in genomes.iter().zip(&evals) {
            assert_eq!(e.fitness(), g.iter().filter(|&&b| b).count() as f64);
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1);
        assert!(stats.shards >= 3);
        assert!(stats.merged_records > 0, "clients flushed their caches");
        assert!(!server.take_merged().is_empty());
        let final_stats = server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(final_stats.clients_lost, 0);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let (mut server, handles) = launch(1, None);
        assert!(server.evaluate(&[]).unwrap().is_empty());
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn repeated_batches_reuse_the_farm() {
        let (mut server, handles) = launch(2, None);
        for round in 0..3 {
            let evals = server.evaluate(&batch(12)).unwrap();
            assert_eq!(evals.len(), 12, "round {round}");
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 3);
        // Rounds 2 and 3 are pure client-cache hits.
        assert!(stats.client_cache_hits > 0);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn client_death_mid_run_is_survived_with_identical_results() {
        // The victim dies after two shards; the batch must still complete
        // with results identical to a healthy farm's.
        let (mut healthy_server, healthy_handles) = launch(3, None);
        let reference = healthy_server.evaluate(&batch(16)).unwrap();
        healthy_server.shutdown();
        for h in healthy_handles {
            h.join().unwrap();
        }

        let (mut server, handles) = launch(3, Some((1, 2)));
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        assert_eq!(evals, reference, "results are scheduling-independent");
        // A second batch still works on the surviving clients.
        let again = server.evaluate(&genomes).unwrap();
        assert_eq!(again, reference);
        let stats = server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.clients_lost, 1);
    }

    #[test]
    fn hung_client_is_evicted_with_identical_results() {
        // Reference trajectory from a healthy farm.
        let (mut healthy, healthy_handles) = launch(3, None);
        let reference = healthy.evaluate(&batch(16)).unwrap();
        healthy.shutdown();
        for h in healthy_handles {
            h.join().unwrap();
        }

        // Client 1 wedges after two shards — keeps its connection open,
        // answers nothing. Tuned-down liveness so the eviction fires
        // inside the test budget.
        let (mut server, handles) = launch_faulty(3, Some((1, 2)), FaultKind::Hang);
        server.set_liveness(LivenessConfig {
            heartbeat_interval_ms: 50,
            max_missed_heartbeats: 4,
            deadline_multiplier: 4.0,
            min_dispatch_deadline_ms: 250,
        });
        let evals = server.evaluate(&batch(16)).unwrap();
        assert_eq!(evals, reference, "eviction is scheduling-only");
        // A second batch still works on the survivors.
        let again = server.evaluate(&batch(16)).unwrap();
        assert_eq!(again, reference);
        let stats = server.shutdown();
        // Joining IS the no-hang assertion: the wedged client's thread
        // unblocks when its severed connection surfaces.
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.clients_lost, 1, "only the wedged client fell");
        assert_eq!(stats.evicted_clients, 1, "and it fell by eviction");
    }

    #[test]
    fn losing_every_client_is_an_error_not_a_hang() {
        let (mut server, handles) = launch(2, Some((0, 1)));
        // Kill the second client too (fail plans only cover one, so use a
        // batch large enough that the survivor carries it, then drop the
        // server to tear everything down — here we only assert the
        // one-client-dead path still completes, and that a server with
        // zero clients errors).
        let evals = server.evaluate(&batch(16)).unwrap();
        assert_eq!(evals.len(), 16);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }

        // All clients dead from the start: handshake fails.
        let (s, c) = channel_duplex();
        drop(c);
        assert!(matches!(
            EvalServer::new(vec![s], CostModel::uniform(), 4, ServerCounters::default()),
            Err(EvaldError::NoClients)
        ));
    }

    #[test]
    fn dropping_a_live_unix_client_severs_the_socket() {
        // A client that fails the handshake over a *stream* transport
        // must be actively disconnected (socket shutdown), or it would
        // block in recv forever and joining its thread would deadlock —
        // dropping the server's write-half clone alone is not enough.
        let path = std::env::temp_dir().join(format!("evald_{}_width.sock", std::process::id()));
        let listener = crate::transport::unix_listener(&path).unwrap();
        let client_path = path.clone();
        let handle = std::thread::spawn(move || {
            let duplex = crate::transport::unix_connect(&client_path).unwrap();
            let mut w = Popcount::new();
            // Wrong width: the server drops us; run_client must return
            // (Disconnected) instead of blocking.
            let _ = run_client(
                &mut w,
                duplex,
                &ClientOptions {
                    client_id: 0,
                    n_flags: 9,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        let server_end = crate::transport::unix_accept(&listener).unwrap();
        assert!(matches!(
            EvalServer::new(
                vec![server_end],
                CostModel::uniform(),
                4,
                ServerCounters::default()
            ),
            Err(EvaldError::NoClients)
        ));
        // The join completing IS the assertion.
        handle.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_the_server_without_shutdown_releases_unix_clients() {
        // An embedder error path may drop the server between launch and
        // shutdown(); Drop must still sever connections so clients and
        // readers unblock (join completing is the assertion).
        let path = std::env::temp_dir().join(format!("evald_{}_drop.sock", std::process::id()));
        let listener = crate::transport::unix_listener(&path).unwrap();
        let client_path = path.clone();
        let handle = std::thread::spawn(move || {
            let duplex = crate::transport::unix_connect(&client_path).unwrap();
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                duplex,
                &ClientOptions {
                    client_id: 0,
                    n_flags: 4,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        let server_end = crate::transport::unix_accept(&listener).unwrap();
        let server = EvalServer::new(
            vec![server_end],
            CostModel::uniform(),
            4,
            ServerCounters::default(),
        )
        .unwrap();
        drop(server);
        handle.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_clients_join_the_rotation_mid_run() {
        let (mut server, mut handles) = launch(1, None);
        server.set_job(vec![1, 2, 3]);
        let injector = server.injector();
        let (s, c) = channel_duplex();
        handles.push(std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    client_id: 99,
                    n_flags: 4,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        }));
        // Ids continue past the initial farm.
        assert_eq!(injector.inject(s), 1);
        // The joiner's Hello races the batch; keep evaluating until the
        // admission lands (each batch drains the event queue).
        let mut rounds = 0;
        while server.stats().clients_joined == 0 {
            rounds += 1;
            assert!(rounds < 100, "joiner never admitted");
            let evals = server.evaluate(&batch(16)).unwrap();
            assert_eq!(evals.len(), 16);
        }
        let stats = server.stats();
        assert_eq!(stats.clients_joined, 1);
        assert_eq!(stats.clients_lost, 0);
        assert!(stats.cost_observations > 0, "wall times fed the cost model");
        assert!(!stats.shard_sizes.is_empty());
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn injected_client_with_wrong_width_is_rejected() {
        let (mut server, mut handles) = launch(1, None);
        let injector = server.injector();
        let (s, c) = channel_duplex();
        handles.push(std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    client_id: 0,
                    n_flags: 9, // farm speaks 4
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        }));
        injector.inject(s);
        let mut rounds = 0;
        while server.stats().clients_lost == 0 {
            rounds += 1;
            assert!(rounds < 100, "mismatched joiner never rejected");
            server.evaluate(&batch(8)).unwrap();
        }
        assert_eq!(server.stats().clients_joined, 0);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_client_lost_in_the_handshake_is_counted_in_the_registry() {
        // The counters are live before the handshake runs, so a client
        // dropped there reaches the registry the embedder reads.
        let registry = btel::Registry::new();
        let counters = ServerCounters {
            clients_lost: registry.counter("evald_clients_lost_total", "clients lost"),
            ..ServerCounters::default()
        };
        let mut server_side = Vec::new();
        let mut handles = Vec::new();
        for (i, n_flags) in [4u16, 9].into_iter().enumerate() {
            let (s, c) = channel_duplex();
            server_side.push(s);
            handles.push(std::thread::spawn(move || {
                let mut w = Popcount::new();
                let opts = ClientOptions {
                    client_id: i as u32,
                    n_flags, // the farm speaks 4; client 1 announces 9
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                };
                let _ = run_client(&mut w, c, &opts);
            }));
        }
        let server = EvalServer::new(server_side, CostModel::uniform(), 4, counters).unwrap();
        assert_eq!(
            registry.counter_value("evald_clients_lost_total", None),
            Some(1)
        );
        assert_eq!(server.stats().clients_lost, 1);
        assert_eq!(server.stats().clients, 2);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn width_mismatch_fails_the_handshake() {
        let (s, c) = channel_duplex();
        let handle = std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    client_id: 0,
                    n_flags: 9, // server expects 4
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        assert!(matches!(
            EvalServer::new(vec![s], CostModel::uniform(), 4, ServerCounters::default()),
            Err(EvaldError::NoClients)
        ));
        // The dropped client unblocks once its channel closes.
        handle.join().unwrap();
    }
}
