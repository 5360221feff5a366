//! The batch fitness engine — paper Figure 4's client side, built to
//! scale.
//!
//! BinTuner's architecture is client–server: the GA (server) fans
//! compile-and-measure work out to clients, because fitness evaluation
//! (compile + NCD) dominates wall-clock (the paper's Table 3 is entirely
//! about iteration cost). [`FitnessEngine`] is that client side as an
//! in-process worker pool:
//!
//! * **Batching** — it implements [`genetic::Evaluator`], so the GA hands
//!   it whole generations at once instead of one individual at a time.
//! * **Parallelism** — unique genomes in a batch are compiled and scored
//!   across a configurable pool of scoped threads ([`std::thread::scope`];
//!   no runtime dependency).
//! * **Caching** — results are memoized at three tiers: behind the exact
//!   repaired flag vector, behind the vector's resolved
//!   [`minicc::EffectConfig`], and — when the engine is built with
//!   [`FitnessEngine::with_store`] — behind a *persistent* cross-run
//!   [`FitnessStore`] keyed by `(module content hash, compiler profile,
//!   arch, effect digest)`. The emitted binary is a pure function of
//!   `(module, effect config, arch)`, so two *different* flag vectors
//!   that resolve to the same effects (common: most of the >100 flags are
//!   no-ops for any given module) share one compile + NCD score, and a
//!   re-tuned module starts warm from prior runs' compiles. Cache hits of
//!   any tier still *charge* the modelled compile cost, keeping the GA's
//!   time-budget accounting identical to a cache-free run — only measured
//!   wall-clock shrinks, which is what makes a warm run converge to the
//!   same best genome as a cold one.
//! * **Artifact reuse (tier 0)** — even a genuine miss rarely needs the
//!   *whole* pipeline. The compile is staged
//!   ([`Compiler::stage_ast`] → [`Compiler::stage_lower`] →
//!   [`Compiler::stage_mir`]) and the expensive early artifacts are
//!   cached under their [`minicc::StageKeys`] projections: optimized
//!   ASTs by `AstStageKey` digest, lowered-but-unoptimized binaries by
//!   the `(AstStageKey, LowerStageKey)` digest pair. A generation whose
//!   genomes differ only in late-stage flags (most mutations — paper
//!   Figure 7's long tail) shares the early stages and reruns only the
//!   cheap tail; [`EngineStats::full_compiles`] counts the misses that
//!   truly ran everything. Artifact cache contents and telemetry are
//!   governed by a *deterministic membership model* updated only in the
//!   single-threaded partition/commit phases, so reuse classification is
//!   identical at any worker count and on either evaluation backend
//!   (in-process or service) — worker threads only fill in artifact
//!   *values*, which are pure functions of their keys.
//! * **Shared baseline** — the `-O0` baseline is compiled exactly once and
//!   its compressed length is reused for every NCD score.
//! * **Hoisted validation** — `Module::validate` runs once per engine
//!   (the baseline compile) and constraint checking once per genome
//!   during partition; the miss execution path drives the pipeline
//!   stages directly instead of re-validating module and flags inside
//!   every compile.
//!
//! Failed compiles (flag vectors that defeat repair) are not fatal: they
//! score a fixed penalty fitness and are counted as constraint violations
//! in [`EngineStats`], so one bad genome can't abort a long tuning run.
//!
//! The *other* deployment shape — the paper's actual client–server farm
//! — plugs in underneath via [`MissExecutor`]: the engine still owns
//! partition, caches, store and stats, but ships the deduplicated miss
//! list to the `evald` service instead of its local pool (see
//! `bintuner::service`). Because everything except the raw
//! compile+score moves with the engine, the two shapes are bit-identical
//! by construction — including the stage-reuse telemetry, which is
//! classified at partition time from the membership model and never
//! depends on where the compiles physically ran.

use crate::store::{
    arch_tag, ArtifactStore, AstArtifactKey, FitnessStore, FlagBits, LowerArtifactKey, StoreKey,
    StoredFitness,
};
use binrep::{Arch, Binary};
use evald::{WireAstArtifact, WireLowerArtifact};
use genetic::{Eval, EvalAbort, Evaluator};
use lzc::NcdBaseline;
use minicc::ast::Module;
use minicc::{Compiler, EffectConfig, StageKeys};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fitness assigned to a genome whose compile fails constraint checking.
/// NCD is non-negative, so any successfully compiled genome outranks it.
pub const FAILED_COMPILE_PENALTY: f64 = -1.0;

/// Worker-pool and artifact-cache configuration for [`FitnessEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads per batch. `0` means auto (available parallelism,
    /// capped at 8). `1` evaluates sequentially on the calling thread.
    /// Ignored when a [`MissExecutor`] is installed — the executor's farm
    /// is the parallelism then.
    pub workers: usize,
    /// Tier-0 stage-artifact cache (see module docs). `true` (the
    /// default) shares optimized-AST and lowered-binary artifacts across
    /// misses whose early-stage projections agree; `false` runs every
    /// miss through the full pipeline. Fitness results are bit-identical
    /// either way — only wall-clock and the stage-reuse telemetry
    /// change.
    pub artifact_cache: bool,
    /// Eviction bound on cached optimized-AST artifacts (stage 1).
    /// Oldest-reserved entries are evicted first, deterministically, at
    /// batch commit.
    pub max_ast_artifacts: usize,
    /// Eviction bound on cached lowered-binary artifacts (stage 2).
    pub max_lower_artifacts: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 0,
            artifact_cache: true,
            max_ast_artifacts: 512,
            max_lower_artifacts: 2048,
        }
    }
}

/// The computed outcome of one dispatched miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissResult {
    /// Fitness, bit-exact as the worker computed it.
    pub fitness: f64,
    /// Whether the compile failed constraint checking (scored
    /// [`FAILED_COMPILE_PENALTY`]).
    pub failed: bool,
    /// Measured wall-clock seconds on the worker (telemetry).
    pub wall_seconds: f64,
}

/// A pluggable backend for a batch's deduplicated miss list — the seam
/// the evaluation service plugs into.
///
/// The engine keeps everything that makes runs reproducible and cheap —
/// constraint pre-screening, all cache tiers, store recording,
/// stats — and hands an executor only the genomes that genuinely need a
/// compile. An executor must return exactly one [`MissResult`] per miss,
/// in order, and must be a pure function of each genome (bit-identical
/// fitness wherever it runs): that is what makes a service-backed run
/// replay the in-process trajectory exactly.
///
/// An executor that loses its entire substrate mid-batch (e.g. every
/// farm worker dies) returns [`EvalAbort`] instead of panicking: the
/// engine propagates it out of [`Evaluator::evaluate_batch`] so the GA
/// run fails cleanly and the hosting process (a one-shot CLI or the
/// tuning daemon) decides what dies. A failed *compile* is never an
/// abort — it scores [`FAILED_COMPILE_PENALTY`] like any other result.
pub trait MissExecutor: Sync {
    /// Compile + score every miss, preserving order.
    ///
    /// # Errors
    ///
    /// [`EvalAbort`] when the executor can never produce this batch's
    /// results (the evaluation substrate itself is gone).
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort>;
}

impl EngineConfig {
    /// The concrete worker count (resolving `0` to auto).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Cumulative engine counts: a typed read of the engine's counter
/// handles ([`FitnessEngine::stats`]; drives the engine-scaling and
/// staged-compile benches and the cache-hit columns of the iteration
/// database).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Total genome evaluations requested (including cache hits).
    pub evaluations: usize,
    /// Evaluations served from the *in-run* memoization cache (within-
    /// and across-batch duplicates first computed by this engine).
    pub cache_hits: usize,
    /// Evaluations whose result was first served from the persistent
    /// cross-run store — each one a real compile some earlier run paid
    /// for. Repeat accesses to the same entry count as in-run
    /// `cache_hits`, so this is exactly the number of compiles
    /// warm-starting saved.
    pub persistent_hits: usize,
    /// Real compiles this engine performed (misses of every cache tier):
    /// `full_compiles + ast_reuse + lower_reuse`. Logical: on a service
    /// backend these compiles physically ran on the client farm.
    pub compiles: usize,
    /// Misses that ran the entire pipeline — no stage artifact could be
    /// reused. This is the number the tier-0 cache exists to shrink: a
    /// pre-artifact-cache engine would report `full_compiles ==
    /// compiles`.
    pub full_compiles: usize,
    /// Misses that reused a cached optimized-AST artifact (stage 1
    /// skipped; lowering and machine-level optimization ran).
    pub ast_reuse: usize,
    /// Misses that reused a cached lowered-binary artifact (stages 1–2
    /// skipped; only the cheap machine-level tail ran). Disjoint from
    /// `ast_reuse`.
    pub lower_reuse: usize,
    /// Of `ast_reuse`, misses whose optimized-AST artifact came from the
    /// *persistent* [`ArtifactStore`] rather than this run's in-memory
    /// tier — each one a stage-1 pass some earlier run paid for, served
    /// across runs even when every fitness key is cold (the store is
    /// keyed by module *body* hash, so a renamed module still hits).
    pub store_ast_hits: usize,
    /// Of `lower_reuse`, misses served from the persistent
    /// [`ArtifactStore`] (stage 1–2 both skipped across runs).
    pub store_lower_hits: usize,
    /// Evaluations whose compile failed constraint checking and scored
    /// [`FAILED_COMPILE_PENALTY`], counted once per distinct
    /// configuration per run — including failures first served from the
    /// persistent store, so a warm run reports the same count as the
    /// cold run it replays.
    pub failed_compiles: usize,
}

impl EngineStats {
    /// Fraction of evaluations served from the in-run cache.
    pub fn cache_hit_rate(&self) -> f64 {
        btel::ratio(self.cache_hits as f64, self.evaluations as f64)
    }

    /// Fraction of evaluations served from the persistent store.
    pub fn persistent_hit_rate(&self) -> f64 {
        btel::ratio(self.persistent_hits as f64, self.evaluations as f64)
    }

    /// Fraction of real compiles that reused at least one stage
    /// artifact (ran less than the full pipeline).
    pub fn stage_reuse_rate(&self) -> f64 {
        btel::ratio(
            (self.ast_reuse + self.lower_reuse) as f64,
            self.compiles as f64,
        )
    }
}

/// The engine's counter handles: the only store of its counts. They
/// are always live — one relaxed atomic add per event, no clock read —
/// and [`FitnessEngine::stats`] is a typed read over them.
struct EngineCounters {
    evaluations: Arc<btel::Counter>,
    hits_memo: Arc<btel::Counter>,
    hits_persistent: Arc<btel::Counter>,
    /// `bintuner_engine_compiles_total`, indexed by [`StageReuse`].
    compiles: [Arc<btel::Counter>; 3],
    store_ast_hits: Arc<btel::Counter>,
    store_lower_hits: Arc<btel::Counter>,
    failed_compiles: Arc<btel::Counter>,
}

impl EngineCounters {
    /// Resolve the engine's counter families from `registry` — the one
    /// place the `bintuner_engine_*` counters are named.
    fn from_registry(registry: &btel::Registry) -> EngineCounters {
        let hits = |tier| {
            registry.counter_with(
                "bintuner_engine_cache_hits_total",
                "evaluations served from a cache tier",
                "tier",
                tier,
            )
        };
        let compiles = |reuse| {
            registry.counter_with(
                "bintuner_engine_compiles_total",
                "real compiles by stage-reuse class",
                "reuse",
                reuse,
            )
        };
        let store_hits = |stage| {
            registry.counter_with(
                "bintuner_engine_store_artifact_hits_total",
                "stage-reuse compiles served by the persistent artifact store",
                "stage",
                stage,
            )
        };
        EngineCounters {
            evaluations: registry.counter(
                "bintuner_engine_evaluations_total",
                "genome evaluations requested (cache hits included)",
            ),
            hits_memo: hits("memo"),
            hits_persistent: hits("persistent"),
            compiles: StageReuse::NAMES.map(compiles),
            store_ast_hits: store_hits("ast"),
            store_lower_hits: store_hits("lower"),
            failed_compiles: registry.counter(
                "bintuner_engine_failed_compiles_total",
                "distinct configurations scored the failed-compile penalty",
            ),
        }
    }

    fn read(&self) -> EngineStats {
        let n = |c: &Arc<btel::Counter>| c.get() as usize;
        let [full_compiles, ast_reuse, lower_reuse] = self.compiles.each_ref().map(n);
        EngineStats {
            evaluations: n(&self.evaluations),
            cache_hits: n(&self.hits_memo),
            persistent_hits: n(&self.hits_persistent),
            compiles: full_compiles + ast_reuse + lower_reuse,
            full_compiles,
            ast_reuse,
            lower_reuse,
            store_ast_hits: n(&self.store_ast_hits),
            store_lower_hits: n(&self.store_lower_hits),
            failed_compiles: n(&self.failed_compiles),
        }
    }
}

/// Telemetry handles for one [`FitnessEngine`], resolved once from a
/// [`btel::Registry`] and installed with
/// [`FitnessEngine::set_telemetry`]. Without one installed the engine
/// honors the Off-mode purity contract: no telemetry clock readings and
/// no spans (its counters still count, in a private registry).
pub struct EngineTelemetry {
    /// Span recorder. Stage spans (`ast`/`lower`/`mir`) parent to the
    /// id set with [`EngineTelemetry::set_trace_parent`] when one is
    /// set (a farm worker sets it to the server's dispatch-span id
    /// carried on the wire), else to the enclosing `batch` span.
    pub tracer: btel::Tracer,
    trace_parent: AtomicU64,
    /// `bintuner_engine_stage_seconds`, indexed by [`Stage`].
    stages: [Arc<btel::Histogram>; 4],
    miss_seconds: Arc<btel::Histogram>,
    batch_seconds: Arc<btel::Histogram>,
    /// Taken by [`FitnessEngine::set_telemetry`] as the engine's
    /// counter store.
    counters: Option<EngineCounters>,
}

impl EngineTelemetry {
    /// Resolve the engine's metric families from `registry` (handles
    /// are cached here; the registry lock never sits on a hot path).
    pub fn from_registry(registry: &btel::Registry, tracer: btel::Tracer) -> EngineTelemetry {
        let stage = |stage| {
            registry.histogram_with(
                "bintuner_engine_stage_seconds",
                "per-stage compile wall clock",
                "stage",
                stage,
            )
        };
        EngineTelemetry {
            tracer,
            trace_parent: AtomicU64::new(0),
            stages: Stage::NAMES.map(stage),
            miss_seconds: registry.histogram(
                "bintuner_engine_miss_seconds",
                "wall clock of one compiled-and-scored miss",
            ),
            batch_seconds: registry.histogram(
                "bintuner_engine_batch_seconds",
                "wall clock of one evaluate_batch call",
            ),
            counters: Some(EngineCounters::from_registry(registry)),
        }
    }

    /// Set the parent span id for the next batches' stage spans (`0`
    /// clears it). A farm worker calls this with the dispatch-span id
    /// from the `Work` frame so its stage spans stitch into the
    /// server's trace.
    pub fn set_trace_parent(&self, parent: u64) {
        self.trace_parent.store(parent, Ordering::Relaxed);
    }
}

/// One memoized evaluation. The modelled compile cost is *not* cached:
/// it depends on the raw flag vector (per-enabled-flag pass cost), not
/// the effect config, so it is recomputed per genome.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    fitness: f64,
    failed: bool,
}

/// How much of the pipeline a miss actually ran, decided at partition
/// time from the artifact membership model (deterministic — see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq)]
enum StageReuse {
    /// No artifact available: all three stages ran.
    Full,
    /// Optimized AST reused: lowering + machine-level stages ran.
    Ast,
    /// Lowered binary reused: only the machine-level stage ran.
    Lower,
}

impl StageReuse {
    /// `reuse` label values, indexed by the variant.
    const NAMES: [&'static str; 3] = ["full", "ast", "lower"];
}

/// The execution plan for one miss: its stage digests, the reuse
/// classification, and whether its lowered artifact is worth keeping.
#[derive(Debug, Clone, Copy)]
struct MissPlan {
    ast_digest: u128,
    lower_digest: u128,
    reuse: StageReuse,
    /// Retain the stage-2 artifact in the cache. Retention costs a deep
    /// clone of the lowered binary (the machine-level stage consumes
    /// its input), so it is only paid where it can pay off: keys
    /// already in the cache, or keys at least two misses of this batch
    /// share. A single-use lowered binary is consumed by the mir stage
    /// directly, clone-free — on large modules that clone would cost
    /// more than the rare cross-batch stage-2 hit saves.
    retain_lower: bool,
    /// The AST artifact is expected from the persistent store (the
    /// reuse classification was upgraded to [`StageReuse::Ast`] on its
    /// membership). A failed fetch recomputes — identical bytes, so the
    /// classification stands either way.
    store_ast: bool,
    /// The lowered artifact is expected from the persistent store
    /// ([`StageReuse::Lower`] across runs), same fallback contract.
    store_lower: bool,
}

/// Deterministic membership + FIFO-age model of the tier-0 artifact
/// cache. Updated *only* during partition (reservations) and batch
/// commit (evictions), both single-threaded under the cache lock, so
/// cache membership — and with it the reuse telemetry and eviction
/// sequence — is a pure function of the miss sequence, independent of
/// worker scheduling and of whether compiles run locally or on the
/// service farm.
#[derive(Default)]
struct ArtifactIndex {
    ast: HashSet<u128>,
    ast_order: VecDeque<u128>,
    lower: HashSet<(u128, u128)>,
    lower_order: VecDeque<(u128, u128)>,
}

/// The artifact *values*: filled in lazily by whichever worker first
/// compiles a member key (values are pure functions of their keys, so
/// a racy double-compute yields identical bytes and the first insert
/// wins). Keys are always a subset of the membership model; with a
/// [`MissExecutor`] installed this map stays empty — the artifacts live
/// in the clients' own engines.
#[derive(Default)]
struct ArtifactValues {
    ast: HashMap<u128, Arc<Module>>,
    lower: HashMap<(u128, u128), Arc<Binary>>,
    /// Measured stage-2 seconds for lowered artifacts this run computed
    /// fresh — the persistent store's retention currency; drained into
    /// it at batch commit.
    lower_cost: HashMap<(u128, u128), f64>,
}

/// Interior cache state (one lock: the partition phase touches all
/// levels together).
#[derive(Default)]
struct CacheState {
    /// Exact repaired-flag-vector memo (front level).
    by_flags: HashMap<Vec<bool>, CacheEntry>,
    /// Effect-config memo (back level): distinct flag vectors resolving
    /// to the same effects share one compile.
    by_effect: HashMap<EffectConfig, CacheEntry>,
    /// Tier-0 artifact membership model (see [`ArtifactIndex`]).
    artifacts: ArtifactIndex,
    /// AST digests already queued into (or known live in) the
    /// persistent artifact store — prevents re-encoding a blob every
    /// batch.
    persisted_ast: HashSet<u128>,
    /// Lowered-artifact keys already queued into the persistent store.
    persisted_lower: HashSet<(u128, u128)>,
}

/// The batch fitness engine: compiles genomes, scores them against the
/// shared `-O0` baseline with NCD, in parallel, with memoization.
///
/// Construction compiles the baseline once ([`FitnessEngine::new`]); the
/// engine is then shared immutably across the GA run — the caches are
/// behind mutexes, the counts are atomic counters, and the hot
/// compile/score path runs lock-free on worker threads apart from brief
/// artifact-cache lookups.
pub struct FitnessEngine<'a> {
    compiler: &'a Compiler,
    module: &'a Module,
    /// Stable content hash of `module` — the persistent store's key
    /// component, computed once at construction.
    module_hash: u64,
    /// Name-independent body hash of `module` — the persistent
    /// *artifact* store's key component (a renamed module keeps its
    /// artifacts even though every fitness key changes).
    body_hash: u64,
    arch: Arch,
    config: EngineConfig,
    baseline_bin: Binary,
    baseline: NcdBaseline,
    cache: Mutex<CacheState>,
    /// Tier-0 artifact values (separate lock from the bookkeeping: the
    /// partition phase never touches values, workers never touch the
    /// model).
    artifact_values: Mutex<ArtifactValues>,
    /// A private registry's handles until
    /// [`FitnessEngine::set_telemetry`] installs the exported registry's.
    counters: EngineCounters,
    /// Third fitness cache tier: the cross-run store. Consulted during
    /// batch partition (under the partition's store lock, not
    /// per-worker) and fed every fresh result; recovered with
    /// [`FitnessEngine::into_store`] for the end-of-run save.
    store: Option<Mutex<FitnessStore>>,
    /// Persistent sibling of the tier-0 artifact cache: optimized ASTs
    /// and lowered binaries from *earlier runs*, keyed by stage digests
    /// plus the module body hash. Consulted at partition time (miss
    /// classification) and on the miss path (fetch before recompute);
    /// fed fresh artifacts at batch commit when compiles run locally.
    artifact_store: Option<Mutex<ArtifactStore>>,
    /// When set, the deduplicated miss list is dispatched here (the
    /// evaluation service) instead of the local worker pool.
    executor: Option<&'a dyn MissExecutor>,
    /// Timing handles ([`FitnessEngine::set_telemetry`]); `None` is the
    /// Off-mode purity contract — no clock readings beyond the
    /// pre-instrumentation ones, no spans.
    tel: Option<EngineTelemetry>,
}

// The engine is shared by reference across scoped worker threads; keep
// that property checked at compile time. `Compiler`, `Module`,
// `NcdBaseline` are all plain data.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<FitnessEngine<'_>>();
    assert_sync::<Compiler>();
    assert_sync::<NcdBaseline>();
    assert_sync::<Module>();
};

impl<'a> FitnessEngine<'a> {
    /// Build an engine for `module`: compiles the `-O0` baseline once and
    /// pre-compresses it for NCD scoring.
    ///
    /// # Errors
    ///
    /// [`crate::TuneError::Baseline`] when the baseline itself fails to
    /// compile (an invalid module; nothing downstream can recover).
    pub fn new(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        Self::build(compiler, module, arch, config, None)
    }

    /// Build an engine backed by a persistent cross-run store
    /// (warm-start): entries for this `(module, profile, arch)` serve as
    /// a third fitness cache tier, and every fresh compile is recorded
    /// into the store. Recover it with [`FitnessEngine::into_store`] and
    /// call [`FitnessStore::save`] to persist the run's new results.
    ///
    /// # Errors
    ///
    /// See [`FitnessEngine::new`].
    pub fn with_store(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
        store: FitnessStore,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        Self::build(compiler, module, arch, config, Some(store))
    }

    fn build(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
        mut store: Option<FitnessStore>,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        // The one place the module is validated: the baseline preset
        // compile goes through the full checked `compile` path. Every
        // later miss drives the stages directly on the already-validated
        // module.
        let baseline_bin = compiler
            .compile_preset(module, minicc::OptLevel::O0, arch)
            .map_err(crate::TuneError::Baseline)?;
        let baseline = NcdBaseline::new(binrep::encode_binary(&baseline_bin));
        if let Some(store) = &mut store {
            // Record the module's shape signature so future runs on
            // *other* modules can find this one as a transfer source
            // (prior mining; unchanged features never grow the log).
            store.record_module_features(module.content_hash(), module.features());
        }
        Ok(FitnessEngine {
            compiler,
            module,
            module_hash: module.content_hash(),
            body_hash: module.body_hash(),
            arch,
            config,
            baseline_bin,
            baseline,
            cache: Mutex::new(CacheState::default()),
            artifact_values: Mutex::new(ArtifactValues::default()),
            counters: EngineCounters::from_registry(&btel::Registry::new()),
            store: store.map(Mutex::new),
            artifact_store: None,
            executor: None,
            tel: None,
        })
    }

    /// Route the miss list through `executor` (the evaluation service)
    /// instead of the local worker pool. Partition, caching, store
    /// recording and stats are unchanged — which is exactly why a
    /// service-backed run is bit-identical to an in-process one.
    pub fn set_executor(&mut self, executor: &'a dyn MissExecutor) {
        self.executor = Some(executor);
    }

    /// Install telemetry handles: per-stage wall histograms and trace
    /// spans from here on, and the engine's counters re-resolved from
    /// `tel`'s registry. Install before the first batch — counts made
    /// earlier stay in the private registry. Fitness results and every
    /// cache/store decision are unaffected — telemetry only observes.
    pub fn set_telemetry(&mut self, mut tel: EngineTelemetry) {
        if let Some(counters) = tel.counters.take() {
            self.counters = counters;
        }
        self.tel = Some(tel);
    }

    /// The installed telemetry handles, if any (the farm worker uses
    /// this to re-parent stage spans per dispatched shard).
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.tel.as_ref()
    }

    /// Attach the persistent artifact store (see the `artifact_store`
    /// field docs). Classification consults it identically on every
    /// backend; fresh artifacts are recorded back only when compiles
    /// run on the local pool (with an executor the artifact values live
    /// in the clients' own engines). Recover it with
    /// [`FitnessEngine::into_stores`] for the end-of-run save.
    pub fn set_artifact_store(&mut self, store: ArtifactStore) {
        self.artifact_store = Some(Mutex::new(store));
    }

    /// Drain the fitness results recorded into the engine's store since
    /// the last drain (the client side of the evaluation service ships
    /// these back for the server-side store; see
    /// [`FitnessStore::drain_pending_fitness`]). Empty for store-less
    /// engines.
    pub fn drain_pending_store(&self) -> Vec<(StoreKey, StoredFitness)> {
        self.store
            .as_ref()
            .map_or_else(Vec::new, |s| s.lock().unwrap().drain_pending_fitness())
    }

    /// Drain the stage artifacts queued into the engine's artifact store
    /// since the last drain — the artifact half of the service's merge
    /// barrier: a farm worker's engine carries an in-memory artifact
    /// store purely so its freshly computed artifacts accumulate
    /// somewhere drainable, and this ships them back to the server's
    /// persistent log. Empty for engines without an artifact store.
    pub fn drain_pending_artifacts(&self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        self.artifact_store
            .as_ref()
            .map_or_else(Default::default, |s| s.lock().unwrap().drain_pending())
    }

    /// The persistent-store key for an effect configuration of this
    /// engine's `(module, profile, arch)`.
    fn store_key(&self, eff: &EffectConfig) -> StoreKey {
        StoreKey::new(
            self.module_hash,
            self.compiler.profile().kind(),
            self.arch,
            eff.stable_digest(),
        )
    }

    /// Recover the persistent store (with this run's fresh results
    /// pending) for the end-of-run save.
    pub fn into_store(self) -> Option<FitnessStore> {
        self.into_stores().0
    }

    /// Recover both persistent stores — fitness and artifacts — for the
    /// end-of-run save. Save the fitness store *first*: the first save
    /// creates the directory the artifact log lives in.
    pub fn into_stores(self) -> (Option<FitnessStore>, Option<ArtifactStore>) {
        (
            self.store.map(|s| s.into_inner().unwrap()),
            self.artifact_store.map(|s| s.into_inner().unwrap()),
        )
    }

    /// The persistent-artifact key of a stage-1 digest for this
    /// engine's `(module body, compiler)`.
    fn ast_key(&self, ast_digest: u128) -> AstArtifactKey {
        AstArtifactKey {
            body_hash: self.body_hash,
            compiler: self.compiler.profile().kind().stable_id(),
            ast_digest,
        }
    }

    /// The persistent-artifact key of a stage-2 digest pair for this
    /// engine's `(module body, compiler, arch)`.
    fn lower_key(&self, ast_digest: u128, lower_digest: u128) -> LowerArtifactKey {
        LowerArtifactKey {
            body_hash: self.body_hash,
            compiler: self.compiler.profile().kind().stable_id(),
            arch: arch_tag(self.arch),
            ast_digest,
            lower_digest,
        }
    }

    /// The `-O0` baseline binary the engine scores against.
    pub fn baseline_binary(&self) -> &Binary {
        &self.baseline_bin
    }

    /// A typed read of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        self.counters.read()
    }

    /// Number of distinct flag vectors memoized so far (the exact-vector
    /// front level).
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().by_flags.len()
    }

    /// Number of optimized-AST artifacts currently cached (tier 0,
    /// stage 1) — bounded by [`EngineConfig::max_ast_artifacts`].
    pub fn ast_artifact_len(&self) -> usize {
        self.cache.lock().unwrap().artifacts.ast.len()
    }

    /// Number of lowered-binary artifacts currently cached (tier 0,
    /// stage 2) — bounded by [`EngineConfig::max_lower_artifacts`].
    pub fn lower_artifact_len(&self) -> usize {
        self.cache.lock().unwrap().artifacts.lower.len()
    }

    /// Fetch-or-compute the stage-1 artifact for `plan`'s AST digest:
    /// in-memory value first, then the persistent store, then a fresh
    /// `stage_ast` pass.
    fn artifact_ast(&self, digest: u128, eff: &EffectConfig) -> Arc<Module> {
        if let Some(m) = self.artifact_values.lock().unwrap().ast.get(&digest) {
            return m.clone();
        }
        if let Some(m) = self.store_ast(digest) {
            return m;
        }
        // Computed outside the lock: stage_ast is the expensive part and
        // a pure function of the digest's projection, so a concurrent
        // duplicate compute is wasted work at worst, never a wrong
        // value (first insert wins).
        let m = Arc::new(self.compiler.stage_ast(self.module, eff));
        self.artifact_values
            .lock()
            .unwrap()
            .ast
            .entry(digest)
            .or_insert(m)
            .clone()
    }

    /// Decode a persisted optimized-AST artifact. The blob was produced
    /// from a module with the same *body* but possibly another name, so
    /// the name is rewritten to this engine's module — the one part of
    /// the AST the stage pipeline carries through untouched. `None` on
    /// any miss, verification failure or decode error: callers
    /// recompute, bit-identically.
    fn store_ast(&self, digest: u128) -> Option<Arc<Module>> {
        let astore = self.artifact_store.as_ref()?;
        let bytes = astore.lock().unwrap().fetch_ast(&self.ast_key(digest))?;
        let mut m = minicc::codec::decode_module(&bytes).ok()?;
        m.name = self.module.name.clone();
        Some(
            self.artifact_values
                .lock()
                .unwrap()
                .ast
                .entry(digest)
                .or_insert(Arc::new(m))
                .clone(),
        )
    }

    /// Decode a persisted lowered-binary artifact ([`Self::store_ast`]
    /// contract). Retained fetches land in the in-memory tier so later
    /// misses of the same key stay off disk.
    fn store_lower(&self, plan: &MissPlan) -> Option<Arc<Binary>> {
        let astore = self.artifact_store.as_ref()?;
        let key = self.lower_key(plan.ast_digest, plan.lower_digest);
        let bytes = astore.lock().unwrap().fetch_lower(&key)?;
        let mut b = binrep::codec::decode_binary(&bytes).ok()?;
        b.name = self.module.name.clone();
        let b = Arc::new(b);
        if !plan.retain_lower {
            return Some(b);
        }
        Some(
            self.artifact_values
                .lock()
                .unwrap()
                .lower
                .entry((plan.ast_digest, plan.lower_digest))
                .or_insert(b)
                .clone(),
        )
    }

    /// Close one run of `stage` begun at `start` and return its wall
    /// seconds. With telemetry installed the wall is observed into the
    /// stage's histogram and, when tracing (`stage_parent != 0`),
    /// recorded as a span under `stage_parent`. Callers that need no
    /// wall clock in Off mode skip both the `start` read and this call.
    fn stage_done(&self, stage: Stage, stage_parent: u64, start: Instant) -> f64 {
        let secs = start.elapsed().as_secs_f64();
        if let Some(tel) = &self.tel {
            tel.stages[stage as usize].observe_seconds(secs);
            if stage_parent != 0 {
                tel.tracer
                    .record(Stage::NAMES[stage as usize], stage_parent, start);
            }
        }
        secs
    }

    /// Run the machine-level stage, observed as [`Stage::Mir`] (Off
    /// mode: a plain `stage_mir` call, no clock read).
    fn mir_timed(&self, lowered: Binary, eff: &EffectConfig, stage_parent: u64) -> Binary {
        if self.tel.is_none() {
            return self.compiler.stage_mir(lowered, eff);
        }
        let t = Instant::now();
        let bin = self.compiler.stage_mir(lowered, eff);
        self.stage_done(Stage::Mir, stage_parent, t);
        bin
    }

    /// Compile + score one miss according to its plan (run on workers).
    /// Misses are constraint-valid by partition and the module was
    /// validated at construction, so the staged pipeline cannot fail.
    fn evaluate_miss(&self, eff: &EffectConfig, plan: &MissPlan, stage_parent: u64) -> CacheEntry {
        let lower_key = (plan.ast_digest, plan.lower_digest);
        // Only retained keys can have (or deserve) a cached stage-2
        // artifact; a store-classified miss fetches across runs.
        let mut cached = if plan.retain_lower {
            self.artifact_values
                .lock()
                .unwrap()
                .lower
                .get(&lower_key)
                .cloned()
        } else {
            None
        };
        if cached.is_none() && plan.store_lower {
            cached = self.store_lower(plan);
        }
        let bin = match cached {
            // The artifact must outlive this miss: mir runs on a clone.
            Some(b) => self.mir_timed((*b).clone(), eff, stage_parent),
            None => {
                // The production phase ran every fresh AST for this
                // batch, so this is a cache fetch; the compute fallback
                // inside artifact_ast is only reachable as a
                // recompute-over-block safety valve.
                let ast = self.artifact_ast(plan.ast_digest, eff);
                let t = Instant::now();
                let lowered = self.compiler.stage_lower(&ast, eff, self.arch);
                let lower_secs = self.stage_done(Stage::Lower, stage_parent, t);
                if plan.retain_lower {
                    let mut values = self.artifact_values.lock().unwrap();
                    let b = values
                        .lower
                        .entry(lower_key)
                        .or_insert(Arc::new(lowered))
                        .clone();
                    // Record the measured stage cost — the persistent
                    // store's retention currency — for the commit-time
                    // drain.
                    values.lower_cost.entry(lower_key).or_insert(lower_secs);
                    drop(values);
                    self.mir_timed((*b).clone(), eff, stage_parent)
                } else {
                    // Single-use lowered binary: the mir stage consumes
                    // it in place, no clone, nothing retained.
                    self.mir_timed(lowered, eff, stage_parent)
                }
            }
        };
        CacheEntry {
            fitness: self.baseline.score(&binrep::encode_binary(&bin)),
            failed: false,
        }
    }

    /// Compile + score one miss with the artifact cache disabled: the
    /// full staged pipeline, nothing shared, nothing retained.
    fn evaluate_full(&self, eff: &EffectConfig, stage_parent: u64) -> CacheEntry {
        let bin = if self.tel.is_none() {
            let optimized = self.compiler.stage_ast(self.module, eff);
            let lowered = self.compiler.stage_lower(&optimized, eff, self.arch);
            self.compiler.stage_mir(lowered, eff)
        } else {
            let t = Instant::now();
            let optimized = self.compiler.stage_ast(self.module, eff);
            self.stage_done(Stage::Ast, stage_parent, t);
            let t = Instant::now();
            let lowered = self.compiler.stage_lower(&optimized, eff, self.arch);
            self.stage_done(Stage::Lower, stage_parent, t);
            self.mir_timed(lowered, eff, stage_parent)
        };
        CacheEntry {
            fitness: self.baseline.score(&binrep::encode_binary(&bin)),
            failed: false,
        }
    }
}

/// A compile-pipeline stage, as observed by
/// [`FitnessEngine::stage_done`].
#[derive(Clone, Copy)]
enum Stage {
    Check,
    Ast,
    Lower,
    Mir,
}

impl Stage {
    /// Span names and `stage` label values, indexed by the variant.
    const NAMES: [&'static str; 4] = ["check", "ast", "lower", "mir"];
}

/// Which tier resolved a genome during partition.
#[derive(Clone, Copy, PartialEq)]
enum Hit {
    /// Not a cache hit: a fresh constraint penalty that needed no
    /// compile.
    Fresh,
    /// Served from the in-run memo (exact vector or effect config).
    InRun,
    /// First served from the persistent cross-run store.
    Persistent,
}

/// Where a genome's result comes from within one batch.
enum Source {
    /// Resolved during partition: a cache hit, or a fresh constraint
    /// penalty that needed no compile.
    Ready { entry: CacheEntry, hit: Hit },
    /// To be computed: index into the batch's miss list.
    Slot(usize),
}

impl Evaluator for FitnessEngine<'_> {
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
        let batch_start = self.tel.as_ref().map(|_| Instant::now());
        let profile = self.compiler.profile();
        // Per-batch span context: the batch span's id is allocated up
        // front so stage spans can hang off it; it is recorded (closed)
        // at the end. `stage_parent == 0` exactly when tracing is off —
        // the farm worker's wire convention, reused in-process.
        let (batch_span, trace_parent, stage_parent) = match &self.tel {
            Some(t) if t.tracer.is_enabled() => {
                let parent = t.trace_parent.load(Ordering::Relaxed);
                let id = t.tracer.alloc_id();
                (id, parent, if parent != 0 { parent } else { id })
            }
            _ => (0, 0, 0),
        };

        // Resolve each genome's effect config up front (cheap, lock-free).
        // Invalid vectors get `None`: they must not share the effect cache
        // with a valid vector resolving to the same effects. This is the
        // one constraint check a genome pays — the staged miss path never
        // re-checks.
        let check_start = self.tel.as_ref().map(|_| Instant::now());
        let effects: Vec<Option<EffectConfig>> = genomes
            .iter()
            .map(|g| {
                profile
                    .constraints()
                    .check(g)
                    .is_empty()
                    .then(|| EffectConfig::from_flags(profile, g))
            })
            .collect();
        if let Some(t) = check_start {
            self.stage_done(Stage::Check, stage_parent, t);
        }

        // Partition against the cache tiers: exact flag vector first,
        // then effect config, then the persistent cross-run store. The
        // first effect config unseen by every tier becomes a "miss" to
        // compile; everything else is a hit. Each new miss is then
        // planned against the tier-0 artifact model: its stage digests
        // are classified (full / ast-reuse / lower-reuse) and reserved,
        // all under the single cache lock so the classification is
        // deterministic.
        let mut misses: Vec<(&Vec<bool>, &EffectConfig)> = Vec::new();
        let mut digests: Vec<(u128, u128)> = Vec::new();
        let mut plans: Vec<MissPlan> = Vec::new();
        let mut miss_by_eff: HashMap<&EffectConfig, usize> = HashMap::new();
        let sources: Vec<Source> = {
            let mut cache = self.cache.lock().unwrap();
            let sources: Vec<Source> = genomes
                .iter()
                .zip(&effects)
                .map(|(g, eff)| {
                    if let Some(entry) = cache.by_flags.get(g) {
                        return Source::Ready {
                            entry: *entry,
                            hit: Hit::InRun,
                        };
                    }
                    let Some(eff) = eff else {
                        // Constraint violation: penalize without compiling
                        // (the compiler would reject it anyway).
                        let entry = CacheEntry {
                            fitness: FAILED_COMPILE_PENALTY,
                            failed: true,
                        };
                        cache.by_flags.insert(g.clone(), entry);
                        return Source::Ready {
                            entry,
                            hit: Hit::Fresh,
                        };
                    };
                    if let Some(entry) = cache.by_effect.get(eff) {
                        let entry = *entry;
                        cache.by_flags.insert(g.clone(), entry);
                        return Source::Ready {
                            entry,
                            hit: Hit::InRun,
                        };
                    }
                    if let Some(store) = &self.store {
                        // Persistent tier: a hit is promoted into the
                        // in-run memo, so only this first serve counts as
                        // persistent — persistent_hits stays equal to the
                        // number of compiles warm-starting saved.
                        let persisted = store.lock().unwrap().get(&self.store_key(eff));
                        if let Some(hit) = persisted {
                            let entry = CacheEntry {
                                fitness: hit.fitness,
                                failed: hit.failed,
                            };
                            cache.by_effect.insert(eff.clone(), entry);
                            cache.by_flags.insert(g.clone(), entry);
                            return Source::Ready {
                                entry,
                                hit: Hit::Persistent,
                            };
                        }
                    }
                    if let Some(&slot) = miss_by_eff.get(eff) {
                        return Source::Slot(slot);
                    }
                    let slot = misses.len();
                    miss_by_eff.insert(eff, slot);
                    if self.config.artifact_cache {
                        let keys = StageKeys::project(eff);
                        digests.push((keys.ast.stable_digest(), keys.lower.stable_digest()));
                    }
                    misses.push((g, eff));
                    Source::Slot(slot)
                })
                .collect();

            // Plan the misses against the artifact model — a second,
            // whole-batch pass (still under the same lock, still
            // single-threaded) because the retention decision needs
            // batch-level knowledge: each miss's classification sees
            // earlier misses' artifacts as available — AST artifacts
            // are guaranteed by the phase-1 production barrier below;
            // a same-batch lowered artifact may still be in flight on
            // another worker, in which case the consumer recomputes
            // the lowering (identical bytes, classification
            // unaffected) — and a lowered artifact is reserved only
            // when a second miss will actually want it.
            if self.config.artifact_cache {
                let mut lower_mult: HashMap<(u128, u128), usize> = HashMap::new();
                for k in &digests {
                    *lower_mult.entry(*k).or_default() += 1;
                }
                // Persistent-artifact membership is part of the
                // deterministic classification input: the store's index
                // is fixed at load (pending inserts are not queryable),
                // so a warm artifact log upgrades the same misses on
                // every backend and at every worker count.
                let astore = self.artifact_store.as_ref().map(|s| s.lock().unwrap());
                let art = &mut cache.artifacts;
                let mut new_ast: HashSet<u128> = HashSet::new();
                let mut new_lower: HashSet<(u128, u128)> = HashSet::new();
                for &(ad, ld) in &digests {
                    let k = (ad, ld);
                    let mut store_ast = false;
                    let mut store_lower = false;
                    let reuse = if art.lower.contains(&k) || new_lower.contains(&k) {
                        StageReuse::Lower
                    } else if astore
                        .as_ref()
                        .is_some_and(|s| s.has_lower(&self.lower_key(ad, ld)))
                    {
                        store_lower = true;
                        StageReuse::Lower
                    } else if art.ast.contains(&ad) || new_ast.contains(&ad) {
                        StageReuse::Ast
                    } else if astore
                        .as_ref()
                        .is_some_and(|s| s.has_ast(&self.ast_key(ad)))
                    {
                        store_ast = true;
                        StageReuse::Ast
                    } else {
                        StageReuse::Full
                    };
                    // Reserve the AST key only for misses that will
                    // actually run stage 1: a Lower-classified miss
                    // never computes (or needs) the AST artifact, and a
                    // membership entry without a value would let later
                    // misses be counted as ast_reuse while physically
                    // rerunning the stage.
                    if reuse != StageReuse::Lower && !art.ast.contains(&ad) && new_ast.insert(ad) {
                        art.ast_order.push_back(ad);
                    }
                    let retain_lower = art.lower.contains(&k) || lower_mult[&k] >= 2;
                    if retain_lower && !art.lower.contains(&k) && new_lower.insert(k) {
                        art.lower_order.push_back(k);
                    }
                    plans.push(MissPlan {
                        ast_digest: ad,
                        lower_digest: ld,
                        reuse,
                        retain_lower,
                        store_ast,
                        store_lower,
                    });
                }
                art.ast.extend(new_ast);
                art.lower.extend(new_lower);
            } else {
                plans.extend((0..misses.len()).map(|_| MissPlan {
                    ast_digest: 0,
                    lower_digest: 0,
                    reuse: StageReuse::Full,
                    retain_lower: false,
                    store_ast: false,
                    store_lower: false,
                }));
            }
            sources
        };

        // Compile + score the misses: on the installed executor (the
        // evaluation service's client farm) when present, else on the
        // local worker pool in two phases. Phase 1 produces each fresh
        // stage-1 artifact exactly once, in parallel across distinct
        // AST digests; phase 2 then strides *all* misses across the
        // workers (the pre-staging scheduling), each fetching its
        // artifacts from the cache. Without the production phase, the
        // common all-late-stage generation — one AST digest shared by
        // every miss — would collapse onto a single worker; with it,
        // the serial section is only the one stage-1 pass, and the
        // dominant lower+mir work stays fully parallel.
        let mut computed: Vec<Option<(CacheEntry, f64)>> = vec![None; misses.len()];
        // Fresh stage-1 artifacts this batch produced locally, with
        // their measured wall time — the persistent store's retention
        // currency, recorded at commit. Stays empty with an executor:
        // the artifacts then live in the clients' own engines.
        let mut persist_ast: Vec<(u128, f64)> = Vec::new();
        // Phase-1 producer wall per miss slot: the representative miss
        // that produced a shared stage-1 artifact reports this
        // separately as [`Eval::ast_produce_seconds`] instead of having
        // it folded into its own `wall_seconds` (which would overstate
        // that genome's compile cost by the whole family's shared
        // work). All zeros with an executor — producer wall is then
        // inside the clients' own measured walls.
        let mut ast_wall = vec![0.0f64; misses.len()];
        if let Some(executor) = self.executor {
            let flags: Vec<Vec<bool>> = misses.iter().map(|(f, _)| (*f).clone()).collect();
            // An abort here is safe to propagate mid-batch: the misses
            // were planned and their artifact keys reserved, but no
            // result has been committed to any cache tier — reserved
            // membership without a value is the documented
            // recompute-over-block safety valve, so a later engine (or
            // none) sees consistent state.
            let results = executor.execute(&flags)?;
            assert_eq!(
                results.len(),
                misses.len(),
                "executor must return one result per miss"
            );
            for (slot, r) in results.into_iter().enumerate() {
                computed[slot] = Some((
                    CacheEntry {
                        fitness: r.fitness,
                        failed: r.failed,
                    },
                    r.wall_seconds,
                ));
            }
        } else {
            // Phase 1: one producer task per AST digest this batch
            // introduces (the representative is its first Full-classified
            // miss, which reports the artifact's wall time as its
            // `ast_produce_seconds`).
            if self.config.artifact_cache {
                let mut fresh_ast: Vec<(u128, usize)> = Vec::new();
                let mut seen: HashSet<u128> = HashSet::new();
                for (slot, plan) in plans.iter().enumerate() {
                    if plan.reuse == StageReuse::Full && seen.insert(plan.ast_digest) {
                        fresh_ast.push((plan.ast_digest, slot));
                    }
                }
                let producers = self.config.resolved_workers().min(fresh_ast.len().max(1));
                if producers <= 1 {
                    for &(digest, slot) in &fresh_ast {
                        let t = Instant::now();
                        let _ = self.artifact_ast(digest, misses[slot].1);
                        ast_wall[slot] = self.stage_done(Stage::Ast, stage_parent, t);
                    }
                } else {
                    let fresh_ref = &fresh_ast;
                    let misses_ref = &misses;
                    let walls: Vec<(usize, f64)> = std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..producers)
                            .map(|w| {
                                scope.spawn(move || {
                                    let mut part = Vec::new();
                                    let mut i = w;
                                    while i < fresh_ref.len() {
                                        let (digest, slot) = fresh_ref[i];
                                        let t = Instant::now();
                                        let _ = self.artifact_ast(digest, misses_ref[slot].1);
                                        let wall = self.stage_done(Stage::Ast, stage_parent, t);
                                        part.push((slot, wall));
                                        i += producers;
                                    }
                                    part
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("ast producer panicked"))
                            .collect()
                    });
                    for (slot, wall) in walls {
                        ast_wall[slot] = wall;
                    }
                }
                persist_ast.extend(fresh_ast.iter().map(|&(d, slot)| (d, ast_wall[slot])));
            }
            // Phase 2: every miss, strided. A miss that reaches a
            // retained-but-not-yet-filled lower artifact (its producer
            // running concurrently on another worker) recomputes the
            // lowering — wasted work at worst, never a different value,
            // and the partition-time telemetry is unaffected.
            let workers = self.config.resolved_workers().min(misses.len().max(1));
            let run_miss = |i: usize| -> (CacheEntry, f64) {
                let t = Instant::now();
                let eff = misses[i].1;
                let entry = if self.config.artifact_cache {
                    self.evaluate_miss(eff, &plans[i], stage_parent)
                } else {
                    self.evaluate_full(eff, stage_parent)
                };
                let wall = t.elapsed().as_secs_f64();
                if let Some(tel) = &self.tel {
                    tel.miss_seconds.observe_seconds(wall);
                }
                (entry, wall)
            };
            if workers <= 1 {
                for (i, out) in computed.iter_mut().enumerate() {
                    *out = Some(run_miss(i));
                }
            } else {
                let run_miss_ref = &run_miss;
                let n_misses = misses.len();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            scope.spawn(move || {
                                let mut part = Vec::new();
                                let mut i = w;
                                while i < n_misses {
                                    let (entry, wall) = run_miss_ref(i);
                                    part.push((i, entry, wall));
                                    i += workers;
                                }
                                part
                            })
                        })
                        .collect();
                    for h in handles {
                        for (i, entry, wall) in h.join().expect("engine worker panicked") {
                            computed[i] = Some((entry, wall));
                        }
                    }
                });
            }
        }

        // Memoize the fresh results at both in-run levels (including the
        // within-batch duplicate vectors that mapped to the same slot),
        // record them into the persistent store for future runs, and
        // commit the artifact model: evict oldest-reserved artifacts
        // beyond the configured bounds (deterministically — membership
        // and order were fixed at partition time).
        {
            if let Some(store) = &self.store {
                let mut store = store.lock().unwrap();
                for ((flags, eff), result) in misses.iter().zip(&computed) {
                    let (entry, _) = result.expect("every miss slot computed");
                    store.insert(
                        self.store_key(eff),
                        StoredFitness {
                            fitness: entry.fitness,
                            failed: entry.failed,
                            // The representative vector makes the record
                            // minable (per-flag priors, config transfer).
                            flags: FlagBits::from_bools(flags),
                            // Stamped by the store at insertion.
                            generation: 0,
                        },
                    );
                }
            }
            let mut cache = self.cache.lock().unwrap();
            for ((flags, eff), result) in misses.iter().zip(&computed) {
                let (entry, _) = result.expect("every miss slot computed");
                cache.by_effect.insert((*eff).clone(), entry);
                cache.by_flags.insert((*flags).clone(), entry);
            }
            for (g, src) in genomes.iter().zip(&sources) {
                if let Source::Slot(slot) = src {
                    // Representatives were inserted above; only clone the
                    // key for duplicate vectors not yet memoized.
                    if !cache.by_flags.contains_key(g) {
                        let (entry, _) = computed[*slot].expect("miss computed");
                        cache.by_flags.insert(g.clone(), entry);
                    }
                }
            }
            if self.config.artifact_cache {
                let state = &mut *cache;
                let art = &mut state.artifacts;
                let mut values = self.artifact_values.lock().unwrap();
                // Queue this batch's freshly computed artifacts into the
                // persistent store (local compiles only), before
                // eviction can drop their values. `persisted_*` keeps
                // the encode work once-per-key; the store itself applies
                // the cost floor and budget at save time.
                if let Some(astore) = &self.artifact_store {
                    let mut astore = astore.lock().unwrap();
                    for (digest, cost) in persist_ast {
                        if state.persisted_ast.insert(digest) {
                            if let Some(m) = values.ast.get(&digest) {
                                astore.insert_ast(
                                    self.ast_key(digest),
                                    cost,
                                    minicc::codec::encode_module(m),
                                );
                            }
                        }
                    }
                    let costs: Vec<((u128, u128), f64)> = values.lower_cost.drain().collect();
                    for ((ad, ld), cost) in costs {
                        if state.persisted_lower.insert((ad, ld)) {
                            if let Some(b) = values.lower.get(&(ad, ld)) {
                                astore.insert_lower(
                                    self.lower_key(ad, ld),
                                    cost,
                                    binrep::codec::encode_binary(b),
                                );
                            }
                        }
                    }
                } else {
                    values.lower_cost.clear();
                }
                while art.ast_order.len() > self.config.max_ast_artifacts {
                    let d = art.ast_order.pop_front().expect("order tracks membership");
                    art.ast.remove(&d);
                    values.ast.remove(&d);
                }
                while art.lower_order.len() > self.config.max_lower_artifacts {
                    let k = art
                        .lower_order
                        .pop_front()
                        .expect("order tracks membership");
                    art.lower.remove(&k);
                    values.lower.remove(&k);
                }
            }
        }

        // Assemble in input order. Cache hits (in-run or persistent)
        // charge the same modelled cost as a recompile (so the GA's
        // budget accounting is cache-agnostic) but report zero measured
        // wall time; within-batch duplicates pay the compile wall time
        // once, on first occurrence — which also carries the miss's
        // stage-reuse classification.
        let c = &self.counters;
        let mut first_use = vec![true; misses.len()];
        let results: Vec<Eval> = genomes
            .iter()
            .zip(sources)
            .map(|(g, src)| {
                let (entry, wall, ast_produce, hit, reuse) = match src {
                    Source::Ready { entry, hit } => {
                        if hit != Hit::InRun {
                            // A fresh constraint penalty, or a failure
                            // first served from the store — the warm
                            // analog of a fresh failed compile: count it
                            // once so cold and warm telemetry agree.
                            c.failed_compiles.add(entry.failed as u64);
                        }
                        (entry, 0.0, 0.0, hit, None)
                    }
                    Source::Slot(slot) => {
                        let (entry, wall) = computed[slot].expect("miss computed");
                        if first_use[slot] {
                            first_use[slot] = false;
                            c.failed_compiles.add(entry.failed as u64);
                            // The representative also reports any shared
                            // stage-1 production it performed for its
                            // effect family — separately, so its own
                            // wall stays truthful.
                            (
                                entry,
                                wall,
                                ast_wall[slot],
                                Hit::Fresh,
                                Some(plans[slot].reuse),
                            )
                        } else {
                            (entry, 0.0, 0.0, Hit::InRun, None)
                        }
                    }
                };
                c.hits_memo.add((hit == Hit::InRun) as u64);
                c.hits_persistent.add((hit == Hit::Persistent) as u64);
                Eval {
                    fitness: entry.fitness,
                    cost_seconds: self.compiler.simulated_compile_seconds(self.module, g),
                    wall_seconds: wall,
                    ast_produce_seconds: ast_produce,
                    cache_hit: hit == Hit::InRun,
                    persistent_hit: hit == Hit::Persistent,
                    ast_reused: reuse == Some(StageReuse::Ast),
                    lower_reused: reuse == Some(StageReuse::Lower),
                }
            })
            .collect();

        c.evaluations.add(genomes.len() as u64);
        for plan in &plans {
            c.compiles[plan.reuse as usize].inc();
            c.store_ast_hits.add(plan.store_ast as u64);
            c.store_lower_hits.add(plan.store_lower as u64);
        }
        if let (Some(tel), Some(batch_start)) = (&self.tel, batch_start) {
            tel.batch_seconds
                .observe_seconds(batch_start.elapsed().as_secs_f64());
            if batch_span != 0 {
                tel.tracer
                    .record_with_id(batch_span, "batch", trace_parent, batch_start);
            }
        }
        Ok(results)
    }
}
