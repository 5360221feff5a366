//! The farm worker: the compile client of the evaluation service (paper
//! §5 "Implementation"), one body for every deployment shape.
//!
//! [`crate::service::ServiceHandle`] starts its clients as threads or as
//! OS *processes* ([`evald::WorkerMode`]), and both run the same worker
//! body over a connected [`Duplex`]: send [`Frame::Hello`], wait for the
//! module under test as a [`Frame::Job`] (encoded with
//! [`minicc::codec`]), build a private [`FitnessEngine`] from it, and
//! serve shards with [`evald::serve`] until the server shuts the
//! connection down. A thread client gets its `Duplex` from the launcher;
//! a worker process is the current binary re-execed with the hidden
//! `--evald-worker` entry point ([`worker_main`]), which parses
//! [`WorkerArgs`] and connects back to the farm's [`Endpoint`] first.
//!
//! The module also holds the crate-private spawning half used by the
//! launcher — binary resolution and `WorkerSpec`, which renders a
//! [`WorkerArgs`] into the worker command line — and the deterministic
//! respawn policy ([`BackoffSchedule`], [`Supervisor`]).

use crate::engine::{EngineConfig, EngineStats, EngineTelemetry, FAILED_COMPILE_PENALTY};
use crate::store::{ArtifactStore, FitnessStore};
use crate::FitnessEngine;
use binrep::Arch;
use evald::wire::{decode_frame, encode_frame, Frame, ShardStats};
use evald::{
    tcp_connect, unix_connect, ClientOptions, Duplex, EvaldError, FaultKind, FaultPlan,
    MergeRecord, ShardWorker, WireAstArtifact, WireEval, WireLowerArtifact, WireSpan,
};
use minicc::{Compiler, CompilerKind, CompilerProfile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Where a worker process connects back to its server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP loopback address (`127.0.0.1:port`).
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Open a client connection to this endpoint.
    ///
    /// # Errors
    ///
    /// Whatever the transport reports for the connect.
    pub fn connect(&self) -> Result<Duplex, EvaldError> {
        match self {
            Endpoint::Tcp(addr) => tcp_connect(*addr),
            Endpoint::Unix(path) => unix_connect(path),
        }
    }
}

/// Everything one farm worker needs besides its connection: the same
/// for a thread client and a worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Client id to announce in the Hello handshake and result frames.
    pub client_id: u32,
    /// Which compiler profile to build.
    pub kind: CompilerKind,
    /// Target architecture.
    pub arch: Arch,
    /// Whether the worker's engine keeps its staged artifact cache.
    pub artifact_cache: bool,
    /// Whether the worker records trace spans (stage timings parented
    /// to the server's dispatch spans, shipped back on Result frames).
    pub trace: bool,
    /// Chaos hook: trigger `fault_kind` after this many shards.
    pub fail_after: Option<usize>,
    /// What the chaos hook does when it triggers (crash, hang, slow
    /// frames, dropped frame). Inert while `fail_after` is `None`.
    pub fault_kind: FaultKind,
}

impl WorkerOptions {
    /// These options for client `client_id`, armed with `fault` when one
    /// is planned for it.
    pub(crate) fn for_client(&self, client_id: u32, fault: Option<FaultPlan>) -> WorkerOptions {
        WorkerOptions {
            client_id,
            fail_after: fault.map(|f| f.after_shards),
            fault_kind: fault.map_or_else(FaultKind::default, |f| f.kind),
            ..self.clone()
        }
    }
}

/// Parsed `--evald-worker` command line: where to connect, and the
/// worker's options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// Server endpoint to connect back to.
    pub endpoint: Endpoint,
    /// Everything else the worker needs.
    pub options: WorkerOptions,
}

/// Parse a `--fault-kind` value: `crash`, `hang`, `drop`, `slow:<ms>`.
fn fault_kind_from_arg(arg: &str) -> Result<FaultKind, String> {
    match arg {
        "crash" => Ok(FaultKind::Crash),
        "hang" => Ok(FaultKind::Hang),
        "drop" => Ok(FaultKind::DropFrame),
        other => match other.strip_prefix("slow:") {
            Some(ms) => ms
                .parse::<u64>()
                .map(FaultKind::SlowFrame)
                .map_err(|e| format!("--fault-kind slow: {e}")),
            None => Err(format!(
                "--fault-kind expects crash|hang|drop|slow:<ms>, got {other}"
            )),
        },
    }
}

/// Inverse of [`fault_kind_from_arg`].
fn fault_kind_to_arg(kind: FaultKind) -> String {
    match kind {
        FaultKind::Crash => "crash".to_string(),
        FaultKind::Hang => "hang".to_string(),
        FaultKind::DropFrame => "drop".to_string(),
        FaultKind::SlowFrame(ms) => format!("slow:{ms}"),
    }
}

/// Stable one-byte tag → [`CompilerKind`] (inverse of
/// [`CompilerKind::stable_id`]).
fn compiler_from_tag(tag: u8) -> Option<CompilerKind> {
    match tag {
        0 => Some(CompilerKind::Gcc),
        1 => Some(CompilerKind::Llvm),
        _ => None,
    }
}

/// Stable one-byte tag → [`Arch`] (inverse of [`crate::store::arch_tag`]).
fn arch_from_tag(tag: u8) -> Option<Arch> {
    match tag {
        0 => Some(Arch::X86),
        1 => Some(Arch::X8664),
        2 => Some(Arch::Arm),
        3 => Some(Arch::Mips),
        _ => None,
    }
}

impl WorkerArgs {
    /// Parse the arguments following `--evald-worker`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed or missing
    /// argument (the worker prints it to stderr and exits non-zero —
    /// the parent only ever sees a connection that never arrived).
    pub fn parse(args: &[String]) -> Result<WorkerArgs, String> {
        let mut client_id = None;
        let mut kind = None;
        let mut arch = None;
        let mut artifact_cache = None;
        let mut endpoint = None;
        let mut trace = false;
        let mut fail_after = None;
        let mut fault_kind = FaultKind::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} expects a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--client-id" => {
                    client_id = Some(
                        value()?
                            .parse::<u32>()
                            .map_err(|e| format!("--client-id: {e}"))?,
                    );
                }
                "--compiler-tag" => {
                    let tag = value()?
                        .parse::<u8>()
                        .map_err(|e| format!("--compiler-tag: {e}"))?;
                    kind = Some(
                        compiler_from_tag(tag)
                            .ok_or_else(|| format!("unknown compiler tag {tag}"))?,
                    );
                }
                "--arch-tag" => {
                    let tag = value()?
                        .parse::<u8>()
                        .map_err(|e| format!("--arch-tag: {e}"))?;
                    arch =
                        Some(arch_from_tag(tag).ok_or_else(|| format!("unknown arch tag {tag}"))?);
                }
                "--artifact-cache" => {
                    artifact_cache = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--artifact-cache expects 0|1, got {other}")),
                    });
                }
                "--tcp" => {
                    endpoint = Some(Endpoint::Tcp(
                        value()?
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("--tcp: {e}"))?,
                    ));
                }
                "--unix" => endpoint = Some(Endpoint::Unix(PathBuf::from(value()?))),
                "--trace" => trace = true,
                "--fail-after" => {
                    fail_after = Some(
                        value()?
                            .parse::<usize>()
                            .map_err(|e| format!("--fail-after: {e}"))?,
                    );
                }
                "--fault-kind" => fault_kind = fault_kind_from_arg(&value()?)?,
                other => return Err(format!("unknown worker argument {other}")),
            }
        }
        let options = WorkerOptions {
            client_id: client_id.ok_or("--client-id is required")?,
            kind: kind.ok_or("--compiler-tag is required")?,
            arch: arch.ok_or("--arch-tag is required")?,
            artifact_cache: artifact_cache.ok_or("--artifact-cache is required")?,
            trace,
            fail_after,
            fault_kind,
        };
        Ok(WorkerArgs {
            endpoint: endpoint.ok_or("--tcp or --unix is required")?,
            options,
        })
    }

    /// Render the arguments that follow `--evald-worker` (the inverse of
    /// [`WorkerArgs::parse`]: `parse(&a.to_args()) == Ok(a)`).
    pub fn to_args(&self) -> Vec<String> {
        let o = &self.options;
        let mut args = vec![
            "--client-id".to_string(),
            o.client_id.to_string(),
            "--compiler-tag".to_string(),
            o.kind.stable_id().to_string(),
            "--arch-tag".to_string(),
            crate::store::arch_tag(o.arch).to_string(),
            "--artifact-cache".to_string(),
            u8::from(o.artifact_cache).to_string(),
        ];
        match &self.endpoint {
            Endpoint::Tcp(addr) => args.extend(["--tcp".to_string(), addr.to_string()]),
            Endpoint::Unix(path) => {
                args.extend(["--unix".to_string(), path.to_string_lossy().into_owned()])
            }
        }
        if o.trace {
            args.push("--trace".to_string());
        }
        if let Some(k) = o.fail_after {
            args.extend(["--fail-after".to_string(), k.to_string()]);
        }
        if o.fault_kind != FaultKind::default() {
            args.extend(["--fault-kind".to_string(), fault_kind_to_arg(o.fault_kind)]);
        }
        args
    }
}

/// A deterministic, jitter-free exponential backoff schedule: attempt
/// `k` waits `base_ms × factor^k`, capped at `max_ms`. Determinism is a
/// feature here — the chaos differentials replay supervision decisions
/// exactly, so respawn timing must be a pure function of the attempt
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    /// Delay before the first retry, milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per subsequent attempt.
    pub factor: u64,
    /// Ceiling on any single delay, milliseconds.
    pub max_ms: u64,
}

impl Default for BackoffSchedule {
    fn default() -> BackoffSchedule {
        BackoffSchedule {
            base_ms: 50,
            factor: 2,
            max_ms: 2_000,
        }
    }
}

impl BackoffSchedule {
    /// The delay before retry number `attempt` (zero-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let mut delay = self.base_ms;
        for _ in 0..attempt {
            delay = delay.saturating_mul(self.factor);
            if delay >= self.max_ms {
                return self.max_ms;
            }
        }
        delay.min(self.max_ms)
    }
}

/// What the supervisor says after a failure: try again after the
/// scheduled backoff, or stop burning the farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// Respawn after this many milliseconds.
    Retry {
        /// Backoff delay from the deterministic schedule.
        delay_ms: u64,
    },
    /// The crash-loop budget is spent: K consecutive failures without a
    /// success in between. The caller fails the job (quarantine) rather
    /// than respawning again.
    GiveUp,
}

/// Worker-lifecycle supervisor: consecutive-failure accounting over a
/// [`BackoffSchedule`]. One success resets the streak; `strikes`
/// consecutive failures is a crash loop and turns into
/// [`SupervisorVerdict::GiveUp`] — the signal the daemon converts into
/// poison-job quarantine. Deliberately clock-free (a failure *count*,
/// not a failure *rate*): the schedule already spaces attempts out, and
/// clock-free decisions replay deterministically in the chaos suite.
#[derive(Debug, Clone)]
pub struct Supervisor {
    schedule: BackoffSchedule,
    strikes: u32,
    consecutive_failures: u32,
}

impl Supervisor {
    /// A supervisor that gives up after `strikes` consecutive failures
    /// (minimum 1).
    pub fn new(schedule: BackoffSchedule, strikes: u32) -> Supervisor {
        Supervisor {
            schedule,
            strikes: strikes.max(1),
            consecutive_failures: 0,
        }
    }

    /// Record a worker that came up healthy: the failure streak resets.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Record a spawn failure / dead-on-arrival worker and rule on what
    /// happens next.
    pub fn on_failure(&mut self) -> SupervisorVerdict {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.strikes {
            SupervisorVerdict::GiveUp
        } else {
            SupervisorVerdict::Retry {
                delay_ms: self.schedule.delay_ms(self.consecutive_failures - 1),
            }
        }
    }

    /// The current consecutive-failure streak.
    pub fn failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// The `--evald-worker` entry point: parse `args` (everything after the
/// `--evald-worker` sentinel), connect to the farm, run the worker, and
/// return the process exit code. The `bintuner` binary calls this from
/// `main`.
pub fn worker_main(args: &[String]) -> i32 {
    let parsed = match WorkerArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("evald worker: {e}");
            return 2;
        }
    };
    let served = parsed
        .endpoint
        .connect()
        .and_then(|duplex| run_worker(duplex, &parsed.options));
    match served {
        // A server that simply goes away is a normal end of service.
        Ok(()) | Err(EvaldError::Disconnected) => 0,
        Err(e) => {
            eprintln!("evald worker {}: {e}", parsed.options.client_id);
            1
        }
    }
}

/// The farm worker body, shared by thread clients and worker processes:
/// announce over `duplex`, wait for the job, build the engine from the
/// module it carries, and serve shards until shutdown.
///
/// Before the [`Frame::Job`] arrives the worker answers `Ping` (a worker
/// waiting for its job is alive, not hung) and `EndBatch` (with an empty
/// merge); `Shutdown` is a clean exit.
///
/// # Errors
///
/// Transport and decode errors; [`EvaldError::Protocol`] for a `Work`
/// frame before the job (the server re-queues the shard on a healthy
/// client) or a module whose baseline does not compile;
/// [`EvaldError::Corrupt`] for a job payload that is not an encoded
/// module.
pub(crate) fn run_worker(mut duplex: Duplex, opts: &WorkerOptions) -> Result<(), EvaldError> {
    let client = ClientOptions {
        client_id: opts.client_id,
        n_flags: CompilerProfile::new(opts.kind).n_flags() as u16,
        fail_after_shards: opts.fail_after,
        fault_kind: opts.fault_kind,
    };
    let mut send = |frame: Frame| duplex.tx.send_frame(&encode_frame(&frame));
    send(Frame::Hello {
        client: client.client_id,
        n_flags: client.n_flags,
    })?;
    let payload = loop {
        let (frame, _) = decode_frame(&duplex.rx.recv_frame()?)?;
        match frame {
            Frame::Job { payload } => break payload,
            Frame::Shutdown => return Ok(()),
            Frame::Ping { nonce } => send(Frame::Pong { nonce })?,
            Frame::EndBatch { .. } => send(Frame::Merge {
                client: client.client_id,
                records: Vec::new(),
                ast_artifacts: Vec::new(),
                lower_artifacts: Vec::new(),
            })?,
            Frame::Work { .. } => return Err(EvaldError::Protocol("Work frame before Job")),
            Frame::Hello { .. }
            | Frame::Result { .. }
            | Frame::Merge { .. }
            | Frame::Pong { .. } => {}
        }
    };
    let module = minicc::codec::decode_module(&payload)
        .map_err(|_| EvaldError::Corrupt("job payload is not an encoded module"))?;
    let compiler = Compiler::new(opts.kind);
    let mut engine = FitnessEngine::with_store(
        &compiler,
        &module,
        opts.arch,
        EngineConfig {
            workers: 1,
            artifact_cache: opts.artifact_cache,
            ..EngineConfig::default()
        },
        FitnessStore::in_memory(),
    )
    .map_err(|_| EvaldError::Protocol("worker engine failed its baseline compile"))?;
    if opts.artifact_cache {
        // An in-memory artifact store is a pure *producer* seam: it is
        // never saved, so it never answers membership queries — the
        // engine's compile classification (and thus the differential
        // bit-identity guarantee) is untouched. Its only job is to
        // capture freshly built stage artifacts for the merge barrier,
        // where the server folds them into the persistent store.
        engine.set_artifact_store(ArtifactStore::in_memory());
    }
    if opts.trace {
        // The worker keeps a private registry (only spans travel back;
        // the handles hold their metrics alive without it) and an id
        // base partitioning span ids per client so stitched traces
        // never collide with the server's — or each other's — ids.
        let registry = btel::Registry::new();
        let tracer = btel::Tracer::with_id_base(4096, (u64::from(opts.client_id) + 1) << 48);
        engine.set_telemetry(EngineTelemetry::from_registry(&registry, tracer));
    }
    let mut worker = EngineWorker {
        engine: &engine,
        last: EngineStats::default(),
    };
    evald::serve(&mut worker, &mut duplex, &client)
}

/// [`ShardWorker`] over a worker-local [`FitnessEngine`].
struct EngineWorker<'e, 'a> {
    engine: &'e FitnessEngine<'a>,
    /// Stats snapshot at the last shard (per-shard deltas go on the
    /// wire).
    last: EngineStats,
}

impl ShardWorker for EngineWorker<'_, '_> {
    fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> (Vec<WireEval>, ShardStats) {
        use genetic::Evaluator;
        // Re-parent this shard's stage spans to the server's dispatch
        // span (`0` = tracing off upstream; a disabled local tracer
        // ignores the parent anyway).
        if let Some(tel) = self.engine.telemetry() {
            tel.set_trace_parent(span);
        }
        // A worker-local engine has no executor installed, and an
        // executor-less engine is infallible by construction (the
        // `Evaluator` contract: compile failures are scored, not
        // errors) — so this expect can never fire. The wall time feeds
        // the server's cost model in every telemetry mode.
        let start = std::time::Instant::now();
        let evals = self
            .engine
            .evaluate_batch(genomes)
            .expect("executor-less worker engine cannot abort");
        let wall_seconds = start.elapsed().as_secs_f64();
        let now = self.engine.stats();
        let stats = ShardStats {
            compiles: (now.compiles - self.last.compiles) as u32,
            cache_hits: (now.cache_hits + now.persistent_hits
                - self.last.cache_hits
                - self.last.persistent_hits) as u32,
            full_compiles: (now.full_compiles - self.last.full_compiles) as u32,
            ast_reuse: (now.ast_reuse - self.last.ast_reuse) as u32,
            lower_reuse: (now.lower_reuse - self.last.lower_reuse) as u32,
            wall_seconds,
            span,
        };
        self.last = now;
        let wire = evals
            .into_iter()
            .map(|e| WireEval {
                fitness_bits: e.fitness.to_bits(),
                // NCD is non-negative, so the penalty value is unambiguous.
                failed: e.fitness.to_bits() == FAILED_COMPILE_PENALTY.to_bits(),
                // The frame carries one wall figure per eval, so the
                // worker's shared stage-1 production folds back in here:
                // the server charges the farm's physical time, not the
                // local attribution split.
                wall_seconds_bits: (e.wall_seconds + e.ast_produce_seconds).to_bits(),
            })
            .collect();
        (wire, stats)
    }

    fn drain_spans(&mut self) -> Vec<WireSpan> {
        self.engine.telemetry().map_or_else(Vec::new, |tel| {
            tel.tracer
                .drain()
                .into_iter()
                .map(|s| WireSpan {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect()
        })
    }

    fn drain_merge(&mut self) -> Vec<MergeRecord> {
        self.engine
            .drain_pending_store()
            .into_iter()
            .map(|(key, value)| MergeRecord {
                module_hash: key.module_hash,
                compiler: key.compiler,
                arch: key.arch,
                effect_digest: key.effect_digest,
                fitness_bits: value.fitness.to_bits(),
                failed: value.failed,
                flags: value.flags.to_bools(),
            })
            .collect()
    }

    fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        self.engine.drain_pending_artifacts()
    }
}

/// Everything the parent needs to (re)spawn one worker process: the
/// binary to re-exec and the command line every worker shares.
#[derive(Debug, Clone)]
pub(crate) struct WorkerSpec {
    pub binary: PathBuf,
    /// Rendered per worker with its own client id and fault plan
    /// ([`WorkerOptions::for_client`]).
    pub template: WorkerArgs,
}

impl WorkerSpec {
    /// Spawn worker `client_id`, armed with `fault` if one is planned
    /// for it. Stdin is null; stderr is inherited so a worker's own
    /// diagnostics surface in the parent's stream.
    pub fn spawn(&self, client_id: u32, fault: Option<FaultPlan>) -> std::io::Result<Child> {
        let args = WorkerArgs {
            endpoint: self.template.endpoint.clone(),
            options: self.template.options.for_client(client_id, fault),
        };
        Command::new(&self.binary)
            .arg("--evald-worker")
            .args(args.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

/// Resolve the worker binary to re-exec: the configured path, or — the
/// common deployment — the current executable itself. When the current
/// executable is *not* the `bintuner` binary (a test or bench harness),
/// look for a sibling `bintuner` next to it and in the parent directory
/// (cargo places test binaries in `target/<profile>/deps/`, one level
/// below the real binary).
pub(crate) fn resolve_worker_binary(configured: Option<&PathBuf>) -> std::io::Result<PathBuf> {
    if let Some(path) = configured {
        return Ok(path.clone());
    }
    let exe = std::env::current_exe()?;
    if exe
        .file_stem()
        .is_some_and(|s| s.to_string_lossy() == "bintuner")
    {
        return Ok(exe);
    }
    let candidates = [
        exe.parent().map(|d| d.join("bintuner")),
        exe.parent()
            .and_then(Path::parent)
            .map(|d| d.join("bintuner")),
    ];
    for c in candidates.into_iter().flatten() {
        if c.is_file() {
            return Ok(c);
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        "no worker binary: current exe is not bintuner and no sibling bintuner binary was found \
         (set ProcessFarm::worker_binary explicitly)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evald::channel_duplex;

    fn base_args() -> Vec<String> {
        [
            "--client-id",
            "7",
            "--compiler-tag",
            "1",
            "--arch-tag",
            "2",
            "--artifact-cache",
            "1",
            "--tcp",
            "127.0.0.1:4455",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn base_worker_args() -> WorkerArgs {
        WorkerArgs {
            endpoint: Endpoint::Tcp("127.0.0.1:4455".parse().unwrap()),
            options: WorkerOptions {
                client_id: 7,
                kind: CompilerKind::Llvm,
                arch: Arch::Arm,
                artifact_cache: true,
                trace: false,
                fail_after: None,
                fault_kind: FaultKind::Crash,
            },
        }
    }

    fn round_trip(args: &WorkerArgs) {
        assert_eq!(
            WorkerArgs::parse(&args.to_args()).as_ref(),
            Ok(args),
            "via {:?}",
            args.to_args()
        );
    }

    #[test]
    fn worker_args_parse_round_trips_the_spawn_command() {
        let base = base_worker_args();
        assert_eq!(WorkerArgs::parse(&base_args()), Ok(base.clone()));
        round_trip(&base);
        let mut x = base.clone();
        x.options.trace = true;
        x.options.fail_after = Some(3);
        x.options.artifact_cache = false;
        x.options.kind = CompilerKind::Gcc;
        x.options.arch = Arch::X8664;
        round_trip(&x);
        x.endpoint = Endpoint::Unix(PathBuf::from("/tmp/evald_1_2.sock"));
        x.options.client_id = u32::MAX;
        round_trip(&x);
    }

    #[test]
    fn worker_args_reject_malformed_input() {
        for (mangle, needle) in [
            (vec!["--client-id".to_string()], "expects a value"),
            (
                vec!["--compiler-tag".to_string(), "9".into()],
                "compiler tag",
            ),
            (vec!["--arch-tag".to_string(), "9".into()], "arch tag"),
            (vec!["--artifact-cache".to_string(), "2".into()], "0|1"),
            (vec!["--tcp".to_string(), "nonsense".into()], "--tcp"),
            (vec!["--what".to_string()], "unknown worker argument"),
        ] {
            let err = WorkerArgs::parse(&mangle).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // Missing required pieces are named.
        let err = WorkerArgs::parse(&[]).unwrap_err();
        assert!(err.contains("--client-id"));
    }

    #[test]
    fn tag_inverses_match_the_stable_ids() {
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            assert_eq!(compiler_from_tag(kind.stable_id()), Some(kind));
        }
        for arch in [Arch::X86, Arch::X8664, Arch::Arm, Arch::Mips] {
            assert_eq!(arch_from_tag(crate::store::arch_tag(arch)), Some(arch));
        }
        assert_eq!(compiler_from_tag(7), None);
        assert_eq!(arch_from_tag(9), None);
    }

    #[test]
    fn explicit_worker_binary_wins_resolution() {
        let configured = PathBuf::from("/custom/worker");
        assert_eq!(
            resolve_worker_binary(Some(&configured)).unwrap(),
            configured
        );
    }

    #[test]
    fn fault_kind_args_round_trip_the_spawn_command() {
        // Every kind must survive the CLI hop parent → worker process,
        // armed or not.
        for kind in [
            FaultKind::Crash,
            FaultKind::Hang,
            FaultKind::DropFrame,
            FaultKind::SlowFrame(75),
        ] {
            let mut x = base_worker_args();
            x.options.fault_kind = kind;
            round_trip(&x);
            let armed = WorkerArgs {
                options: x.options.for_client(
                    2,
                    Some(FaultPlan {
                        client: 2,
                        after_shards: 2,
                        kind,
                    }),
                ),
                ..x
            };
            assert_eq!(armed.options.fail_after, Some(2));
            assert_eq!(armed.options.fault_kind, kind);
            round_trip(&armed);
        }
        assert!(fault_kind_from_arg("slow").is_err());
        assert!(fault_kind_from_arg("slow:abc").is_err());
        assert!(fault_kind_from_arg("wedge").is_err());
    }

    /// A worker running on a thread over an in-process channel, past its
    /// Hello: the server end and the worker's eventual outcome.
    fn worker_on_a_channel() -> (Duplex, std::thread::JoinHandle<Result<(), EvaldError>>) {
        let (mut server, client) = channel_duplex();
        let opts = base_worker_args().options;
        let handle = std::thread::spawn(move || run_worker(client, &opts));
        let (hello, _) = decode_frame(&server.rx.recv_frame().unwrap()).unwrap();
        assert_eq!(
            hello,
            Frame::Hello {
                client: 7,
                n_flags: CompilerProfile::new(CompilerKind::Llvm).n_flags() as u16,
            }
        );
        (server, handle)
    }

    fn send(server: &mut Duplex, frame: &Frame) {
        server.tx.send_frame(&encode_frame(frame)).unwrap();
    }

    fn recv(server: &mut Duplex) -> Frame {
        decode_frame(&server.rx.recv_frame().unwrap()).unwrap().0
    }

    #[test]
    fn a_worker_waiting_for_its_job_answers_pings() {
        let (mut server, worker) = worker_on_a_channel();
        send(&mut server, &Frame::Ping { nonce: 41 });
        assert_eq!(recv(&mut server), Frame::Pong { nonce: 41 });
        send(&mut server, &Frame::Shutdown);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn a_worker_waiting_for_its_job_merges_nothing_at_batch_end() {
        let (mut server, worker) = worker_on_a_channel();
        send(&mut server, &Frame::EndBatch { batch: 0 });
        assert_eq!(
            recv(&mut server),
            Frame::Merge {
                client: 7,
                records: vec![],
                ast_artifacts: vec![],
                lower_artifacts: vec![],
            }
        );
        send(&mut server, &Frame::Shutdown);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_before_the_job_is_a_clean_exit() {
        let (mut server, worker) = worker_on_a_channel();
        send(&mut server, &Frame::Shutdown);
        assert!(worker.join().unwrap().is_ok());
    }

    #[test]
    fn work_before_the_job_is_a_protocol_error() {
        let (mut server, worker) = worker_on_a_channel();
        send(
            &mut server,
            &Frame::Work {
                shard: 0,
                span: 0,
                genomes: vec![vec![false; 4]],
            },
        );
        assert!(matches!(
            worker.join().unwrap(),
            Err(EvaldError::Protocol(_))
        ));
    }

    #[test]
    fn a_job_that_is_not_an_encoded_module_is_corrupt() {
        let (mut server, worker) = worker_on_a_channel();
        send(
            &mut server,
            &Frame::Job {
                payload: b"not a module".to_vec(),
            },
        );
        assert!(matches!(
            worker.join().unwrap(),
            Err(EvaldError::Corrupt(_))
        ));
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let schedule = BackoffSchedule {
            base_ms: 50,
            factor: 2,
            max_ms: 500,
        };
        let delays: Vec<u64> = (0..6).map(|k| schedule.delay_ms(k)).collect();
        assert_eq!(delays, vec![50, 100, 200, 400, 500, 500]);
        // Jitter-free: the same attempt always gets the same delay.
        assert_eq!(schedule.delay_ms(3), schedule.delay_ms(3));
        // Overflow-safe far past the cap.
        assert_eq!(schedule.delay_ms(u32::MAX), 500);
    }

    #[test]
    fn supervisor_gives_up_after_k_consecutive_failures() {
        let mut sup = Supervisor::new(BackoffSchedule::default(), 3);
        assert_eq!(
            sup.on_failure(),
            SupervisorVerdict::Retry { delay_ms: 50 },
            "first failure retries at the base delay"
        );
        assert_eq!(
            sup.on_failure(),
            SupervisorVerdict::Retry { delay_ms: 100 },
            "second failure backs off exponentially"
        );
        assert_eq!(sup.failures(), 2);
        assert_eq!(sup.on_failure(), SupervisorVerdict::GiveUp, "third strike");

        // A success in between resets the streak — only *consecutive*
        // failures are a crash loop.
        let mut sup = Supervisor::new(BackoffSchedule::default(), 3);
        sup.on_failure();
        sup.on_failure();
        sup.on_success();
        assert_eq!(sup.failures(), 0);
        assert_eq!(sup.on_failure(), SupervisorVerdict::Retry { delay_ms: 50 });

        // strikes=1: no retries at all.
        let mut sup = Supervisor::new(BackoffSchedule::default(), 1);
        assert_eq!(sup.on_failure(), SupervisorVerdict::GiveUp);
    }
}
