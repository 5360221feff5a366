//! # evald — the sharded client–server evaluation service
//!
//! BinTuner's real deployment (paper §5 "Implementation") is
//! client–server: the server runs the genetic algorithm while a farm of
//! clients compiles candidate configurations and scores binary
//! difference. This crate is that deployment's machinery, kept fully
//! runnable offline: a "remote" client is a thread in the same process
//! or a pre-forked worker *process* connecting back over a Unix or TCP
//! loopback socket, but all traffic flows through the same versioned
//! wire format and transport abstraction either way, so changing the
//! deployment topology changes nothing above the transport layer.
//!
//! The crate is deliberately *generic*: it moves genome batches out and
//! evaluation results back, but knows nothing about compilers or NCD.
//! The embedder (the `bintuner` crate) supplies a [`ShardWorker`] per
//! client — there, a full fitness engine — and receives ordered results
//! plus the clients' [`MergeRecord`]s to fold into the single writable
//! fitness store it owns. That single-writer rule is the point: clients
//! only ever *send* results; the server serializes every store append.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — versioned, length-prefixed, checksummed frames with
//!   canonical little-endian encodings (round-trip property-tested;
//!   truncated or version-mismatched frames are rejected, never
//!   misread).
//! * [`transport`] — [`FrameSender`]/[`FrameReceiver`] halves with
//!   three implementations: an in-process duplex channel, a Unix-domain
//!   socket, and TCP loopback (`TCP_NODELAY` on both ends).
//! * [`scheduler`] — the work-stealing shard queue: a batch's genomes
//!   are chunked by a [`CostModel`] seeded from the module's shape
//!   features and refined online from the wall times clients measure
//!   (per-client EWMA), idle clients steal outstanding shards from
//!   stragglers, and the first result for a shard wins (duplicates are
//!   counted, not errors).
//! * [`server`] / [`client`] — the dispatch loop ([`EvalServer`]) and
//!   the worker loop ([`run_client`]).
//!
//! Determinism: results are assembled by shard offset, and duplicate
//! results of a re-dispatched shard are bit-identical (evaluation is a
//! pure function of the genome), so the *batch result* is independent of
//! scheduling, client count, transport, and even mid-batch client death
//! — the property the embedder's differential tests pin.

#![warn(missing_docs)]

pub mod client;
pub mod scheduler;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{run_client, serve, ClientOptions, ShardWorker};
pub use scheduler::{CostModel, Scheduler};
pub use server::{ClientInjector, EvalServer, ServerCounters, ServerTelemetry, ServiceStats};
pub use transport::{
    channel_duplex, tcp_connect, tcp_listener, unix_connect, unix_listener, BoundUnixListener,
    Duplex, FrameReceiver, FrameSender,
};
pub use wire::{
    Frame, MergeRecord, ShardStats, WireAstArtifact, WireEval, WireLowerArtifact, WireSpan,
    WIRE_VERSION,
};

use std::fmt;
use std::path::PathBuf;

/// Which transport carries frames between server and clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process duplex channel (no filesystem footprint; the fastest
    /// option when clients are threads of the tuning process).
    #[default]
    Channel,
    /// Unix-domain socket: clients connect to a socket file, exercising
    /// real stream framing.
    Unix,
    /// TCP over `127.0.0.1` loopback with `TCP_NODELAY`: the paper's
    /// networked deployment transport, required for worker processes
    /// that should one day live on other hosts.
    Tcp,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Channel => "channel",
            TransportKind::Unix => "unix-socket",
            TransportKind::Tcp => "tcp",
        })
    }
}

/// How the farm's clients are realized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum WorkerMode {
    /// Clients are threads of the tuning process (the offline default:
    /// no second binary needed, works on every transport).
    #[default]
    Threads,
    /// Clients are pre-forked OS processes re-exec'd from a worker
    /// binary, connecting back over a stream transport — real address
    /// spaces, real allocators, real crash isolation (the paper's farm).
    Processes(ProcessFarm),
}

/// Configuration of a pre-forked worker-process farm
/// ([`WorkerMode::Processes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessFarm {
    /// The worker binary to re-exec (must understand the embedder's
    /// hidden worker entry point). `None` means "the current
    /// executable", which is the common re-exec-yourself deployment.
    pub worker_binary: Option<PathBuf>,
    /// Grace period in milliseconds to wait for a worker process to exit
    /// after shutdown before it is killed outright.
    pub drain_grace_ms: u64,
    /// How long (milliseconds) launch waits for workers to connect back
    /// before giving up on the stragglers. Previously a hard-coded 30s
    /// inside the launcher; lifted here so slow CI hosts can widen it
    /// and chaos tests can shrink it.
    pub accept_deadline_ms: u64,
    /// Spawn attempts per worker slot at launch: one bad fork retries
    /// through the supervisor's deterministic backoff schedule instead
    /// of failing the whole run. `1` means no retry.
    pub spawn_attempts: u32,
}

impl Default for ProcessFarm {
    fn default() -> ProcessFarm {
        ProcessFarm {
            worker_binary: None,
            drain_grace_ms: 5_000,
            accept_deadline_ms: 30_000,
            spawn_attempts: 3,
        }
    }
}

/// What a deliberately faulted client does when its trigger shard count
/// is reached (see [`FaultPlan`]). Every kind must leave the batch
/// either bit-identical to the clean run (the server re-dispatches and
/// first-result-wins) or failed with a typed error — never hung.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop the connection (the original `fail_after_shards` behavior):
    /// a crashed worker.
    #[default]
    Crash,
    /// Stop answering entirely — no results, no heartbeat Pongs — while
    /// keeping the connection open: a wedged compile. Only the server's
    /// liveness plane (missed heartbeats / dispatch deadline) can
    /// recover the shard. The client drains frames silently until the
    /// server severs it or sends Shutdown, so teardown never hangs.
    Hang,
    /// Delay each subsequent Result frame by this many milliseconds: a
    /// straggler that is slow but alive.
    SlowFrame(u64),
    /// Silently drop the next Result frame after the trigger, then
    /// behave normally: a lost message. The server's dispatch deadline
    /// re-dispatches the shard elsewhere.
    DropFrame,
}

/// A deliberate mid-run client failure, for resilience tests (chaos
/// engineering): the chosen client misbehaves per [`FaultKind`] after
/// completing a number of shards, and the service must finish the batch
/// via re-dispatch with an identical result (or a typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Zero-based index of the client that dies.
    pub client: usize,
    /// Shards the client completes before the fault triggers.
    pub after_shards: usize,
    /// What the fault does when it triggers.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// The classic crash fault: `client` drops its connection after
    /// `after_shards` completed shards.
    pub fn crash(client: usize, after_shards: usize) -> FaultPlan {
        FaultPlan {
            client,
            after_shards,
            kind: FaultKind::Crash,
        }
    }
}

/// The server's liveness plane: heartbeat cadence and dispatch
/// deadlines. Defaults are deliberately generous — production runs
/// should never trip them on a healthy farm; chaos tests shrink them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessConfig {
    /// Milliseconds between heartbeat Pings to each connected client.
    /// `0` disables the heartbeat plane entirely (dispatch deadlines
    /// stay active).
    pub heartbeat_interval_ms: u64,
    /// Consecutive unanswered heartbeats before a client is evicted.
    pub max_missed_heartbeats: u32,
    /// Dispatch deadline = cost-model estimate for the shard × this
    /// multiplier (then floored at `min_dispatch_deadline_ms`). A client
    /// that blows the deadline is evicted and its shards re-dispatched.
    pub deadline_multiplier: f64,
    /// Floor on any dispatch deadline, milliseconds — also the deadline
    /// used before the cost model has enough observations. `0` disables
    /// dispatch deadlines entirely (heartbeats stay active).
    pub min_dispatch_deadline_ms: u64,
}

impl Default for LivenessConfig {
    fn default() -> LivenessConfig {
        LivenessConfig {
            heartbeat_interval_ms: 2_000,
            max_missed_heartbeats: 5,
            deadline_multiplier: 8.0,
            min_dispatch_deadline_ms: 10_000,
        }
    }
}

/// Configuration of one evaluation service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker clients to launch (`0` is treated as `1`).
    pub clients: usize,
    /// Transport between server and clients.
    pub transport: TransportKind,
    /// Whether clients are threads or pre-forked worker processes.
    /// Processes require a stream transport ([`TransportKind::Unix`] or
    /// [`TransportKind::Tcp`]) — there is no channel across an exec.
    pub workers: WorkerMode,
    /// Chaos hook: fault one client mid-run (see [`FaultPlan`]). `None`
    /// in production.
    pub fault: Option<FaultPlan>,
    /// Heartbeat and dispatch-deadline tuning (see [`LivenessConfig`]).
    pub liveness: LivenessConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            clients: 2,
            transport: TransportKind::Channel,
            workers: WorkerMode::Threads,
            fault: None,
            liveness: LivenessConfig::default(),
        }
    }
}

/// Errors of the evaluation service.
///
/// Implements [`std::error::Error`] with source chaining (an I/O failure
/// underneath a transport error stays inspectable through
/// [`std::error::Error::source`]), so embedders can wrap it in their own
/// error types and `?` uniformly.
#[derive(Debug)]
pub enum EvaldError {
    /// An underlying I/O failure (socket create/read/write).
    Io(std::io::Error),
    /// A frame was shorter than its declared (or minimum) length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame carried a different wire-format version.
    VersionMismatch {
        /// Version found in the frame header.
        got: u32,
        /// The version this build speaks ([`WIRE_VERSION`]).
        want: u32,
    },
    /// The frame did not start with the `EVLD` magic.
    BadMagic,
    /// A structurally invalid frame (bad checksum, unknown tag,
    /// malformed payload).
    Corrupt(&'static str),
    /// The peer closed the connection.
    Disconnected,
    /// No clients survived the handshake (or all died mid-batch with
    /// work outstanding).
    NoClients,
    /// A client sent a frame the protocol does not allow in its current
    /// state.
    Protocol(&'static str),
}

impl fmt::Display for EvaldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaldError::Io(e) => write!(f, "evaluation-service I/O error: {e}"),
            EvaldError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            EvaldError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "wire version mismatch: frame is v{got}, this build speaks v{want}"
                )
            }
            EvaldError::BadMagic => write!(f, "frame does not start with the EVLD magic"),
            EvaldError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            EvaldError::Disconnected => write!(f, "peer closed the connection"),
            EvaldError::NoClients => write!(f, "no live worker clients"),
            EvaldError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for EvaldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvaldError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EvaldError {
    fn from(e: std::io::Error) -> EvaldError {
        EvaldError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source_chain() {
        let io = EvaldError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            "socket busy",
        ));
        assert!(io.to_string().contains("socket busy"));
        // Source chaining: the io::Error stays reachable.
        let src = std::error::Error::source(&io).expect("chained source");
        assert!(src.to_string().contains("socket busy"));
        assert!(std::error::Error::source(&EvaldError::Disconnected).is_none());

        let vm = EvaldError::VersionMismatch { got: 9, want: 1 };
        assert!(vm.to_string().contains("v9"));
        // `?` compatibility with Box<dyn Error>.
        fn takes_boxed() -> Result<(), Box<dyn std::error::Error>> {
            Err(EvaldError::NoClients)?
        }
        assert!(takes_boxed().is_err());
    }

    #[test]
    fn config_defaults() {
        let cfg = ServiceConfig::default();
        assert_eq!(cfg.clients, 2);
        assert_eq!(cfg.transport, TransportKind::Channel);
        assert_eq!(cfg.workers, WorkerMode::Threads);
        assert!(cfg.fault.is_none());
        assert_eq!(TransportKind::Unix.to_string(), "unix-socket");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        let farm = ProcessFarm::default();
        assert!(farm.worker_binary.is_none());
        assert!(farm.drain_grace_ms > 0);
        assert!(farm.accept_deadline_ms >= 1_000);
        assert!(farm.spawn_attempts >= 1);
        // Liveness defaults must be generous enough that a healthy farm
        // under CI load never trips them by accident.
        let live = cfg.liveness;
        assert!(live.heartbeat_interval_ms >= 1_000);
        assert!(live.max_missed_heartbeats >= 3);
        assert!(live.deadline_multiplier >= 4.0);
        assert!(live.min_dispatch_deadline_ms >= 5_000);
        assert_eq!(FaultPlan::crash(1, 2).kind, FaultKind::Crash);
    }
}
