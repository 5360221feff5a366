//! The traced harness: `Tuner::tune` rebuilt from the crates' public
//! seams, with a timer around each layer's calls.
//!
//! The harness runs the same sequence as the tuner — store load, farm
//! launch, `FitnessEngine` construction, `Ga::run_batched`, store save,
//! winner recompile — so every per-layer number is a slice of a real
//! tune. Every traced job is also run through `Tuner::tune` itself, and
//! the harness must reproduce its best flags, fitness bits and iteration
//! count; a harness that drifted from the program would measure something
//! else.

use crate::check::Outcome;
use crate::jobs::{Job, Target};
use binrep::Arch;
use bintuner::service::{FarmTelemetry, ServiceHandle};
use bintuner::{
    ArtifactStore, EngineConfig, EngineTelemetry, FitnessEngine, FitnessStore, ServiceConfig,
    StoreTelemetry, TunerConfig,
};
use genetic::{Eval, EvalAbort, Evaluator, Ga};
use minicc::{Compiler, CompilerKind};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer totals over a run's traced jobs.
#[derive(Default, Debug)]
pub struct Layers {
    pub jobs: u64,
    /// Traced-harness wall (replay excluded) and `Tuner::tune` wall of the
    /// same jobs.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Wall covered by a layer's own timer.
    pub attributed_s: f64,

    pub breed_s: f64,
    pub batches: u64,
    pub repair_s: f64,
    pub repair_calls: u64,

    pub baseline_s: f64,
    pub batch_s: f64,
    pub miss_s: f64,
    pub recompile_s: f64,
    /// Engine teardown: stats, baseline hand-off, cache drop.
    pub teardown_s: f64,
    pub evaluations: u64,
    pub failed_compiles: u64,
    pub compiles: u64,
    pub memo_hits: u64,
    pub persistent_hits: u64,
    pub stage_reuse: u64,

    pub check_s: f64,
    pub ast_s: f64,
    pub lower_s: f64,
    pub mir_s: f64,
    pub ast_runs: u64,
    pub lower_runs: u64,
    pub mir_runs: u64,

    pub encode_s: f64,
    pub score_s: f64,
    pub score_calls: u64,

    pub store_load_s: f64,
    pub store_save_s: f64,
    pub records_loaded: u64,
    pub records_saved: u64,
    pub shard_save_s: f64,
    pub artifact_save_s: f64,
    pub lock_skips: u64,

    pub launch_s: f64,
    pub dispatch_s: f64,
    pub dispatches: u64,
    pub shards: u64,
    pub redispatched: u64,
    pub duplicate_results: u64,
    pub clients_lost: u64,
    pub launches: u64,

    pub daemon_submit_s: f64,
    pub daemon_fetch_s: f64,
    pub daemon_job_s: f64,
    pub daemon_rejects: u64,
    pub daemon_failed_jobs: u64,
}

/// A timing [`Evaluator`] around the fitness engine. After each batch it
/// replays `encode_binary` + `NcdBaseline::score` on every miss's binary
/// (recompiled through the public `Compiler`), times the two calls, and
/// requires the replayed score to equal the engine's fitness bit for bit.
/// The replay runs outside every other timer and is subtracted from the
/// traced wall.
struct Timed<'e, 'a> {
    engine: &'e FitnessEngine<'a>,
    compiler: &'a Compiler,
    target: &'a Target,
    batch_s: Cell<f64>,
    batches: Cell<u64>,
    miss_wall_s: Cell<f64>,
    replay_s: Cell<f64>,
    encode_s: Cell<f64>,
    score_s: Cell<f64>,
    score_calls: Cell<u64>,
    mismatch: RefCell<Option<String>>,
}

impl Evaluator for Timed<'_, '_> {
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
        let t = Instant::now();
        let out = self.engine.evaluate_batch(genomes);
        self.batch_s
            .set(self.batch_s.get() + t.elapsed().as_secs_f64());
        self.batches.set(self.batches.get() + 1);
        if let Ok(evals) = &out {
            let t = Instant::now();
            self.replay(genomes, evals);
            self.replay_s
                .set(self.replay_s.get() + t.elapsed().as_secs_f64());
        }
        out
    }
}

impl Timed<'_, '_> {
    fn replay(&self, genomes: &[Vec<bool>], evals: &[Eval]) {
        let constraints = self.compiler.profile().constraints();
        for (genes, eval) in genomes.iter().zip(evals) {
            if eval.cache_hit || eval.persistent_hit || !constraints.check(genes).is_empty() {
                continue;
            }
            self.miss_wall_s
                .set(self.miss_wall_s.get() + eval.wall_seconds);
            let bin = match self.compiler.compile(&self.target.module, genes, Arch::X86) {
                Ok(bin) => bin,
                Err(e) => {
                    self.mismatch
                        .borrow_mut()
                        .get_or_insert(format!("a scored miss does not compile: {e}"));
                    continue;
                }
            };
            let t = Instant::now();
            let code = binrep::encode_binary(&bin);
            let t_score = Instant::now();
            let score = self.target.ncd.score(&code);
            let done = Instant::now();
            self.encode_s
                .set(self.encode_s.get() + (t_score - t).as_secs_f64());
            self.score_s
                .set(self.score_s.get() + (done - t_score).as_secs_f64());
            self.score_calls.set(self.score_calls.get() + 1);
            if score.to_bits() != eval.fitness.to_bits() {
                self.mismatch.borrow_mut().get_or_insert(format!(
                    "replayed score {score} differs from the engine's {}",
                    eval.fitness
                ));
            }
        }
    }
}

/// Add the time since `t` to a layer's total and to the attributed wall.
fn lap(slot: &mut f64, attributed: &mut f64, t: Instant) {
    let d = t.elapsed().as_secs_f64();
    *slot += d;
    *attributed += d;
}

fn hist_s(h: &btel::Histogram) -> f64 {
    h.sum_us() as f64 * 1e-6
}

/// Run `job` through the traced harness, adding its layer times to `acc`.
/// `store` is a persistent store directory; `farm` a service backend.
pub fn traced_tune(
    targets: &[Target],
    job: Job,
    store: Option<&Path>,
    farm: Option<&ServiceConfig>,
    acc: &mut Layers,
) -> Result<Outcome, String> {
    let target = &targets[job.target];
    let module = &target.module;
    let defaults = TunerConfig::default();
    let wall = Instant::now();
    let mut attributed = 0.0;
    let compiler = Compiler::new(CompilerKind::Gcc);
    let profile = compiler.profile();
    let registry = Arc::new(btel::Registry::new());
    let tracer = btel::Tracer::enabled(1 << 16);

    let t = Instant::now();
    let mut fitness_store = store.map(FitnessStore::load);
    if let Some(s) = &mut fitness_store {
        acc.records_loaded += s.len() as u64;
    }
    lap(&mut acc.store_load_s, &mut attributed, t);
    if let Some(s) = &mut fitness_store {
        s.set_telemetry(StoreTelemetry::from_registry(&registry));
    }

    let t = Instant::now();
    let service = farm
        .map(|cfg| {
            ServiceHandle::launch_with(
                cfg,
                CompilerKind::Gcc,
                module,
                Arch::X86,
                true,
                Some(FarmTelemetry {
                    registry: registry.clone(),
                    tracer: tracer.clone(),
                }),
            )
        })
        .transpose()
        .map_err(|e| format!("farm launch failed: {e}"))?;
    lap(&mut acc.launch_s, &mut attributed, t);
    acc.launches += service.is_some() as u64;

    let engine_config = EngineConfig {
        workers: defaults.workers,
        artifact_cache: defaults.artifact_cache,
        ..EngineConfig::default()
    };
    let t = Instant::now();
    let mut engine = match fitness_store {
        Some(s) => FitnessEngine::with_store(&compiler, module, Arch::X86, engine_config, s),
        None => FitnessEngine::new(&compiler, module, Arch::X86, engine_config),
    }
    .map_err(|e| format!("engine construction failed: {e}"))?;
    lap(&mut acc.baseline_s, &mut attributed, t);
    engine.set_telemetry(EngineTelemetry::from_registry(&registry, tracer.clone()));
    if let Some(service) = &service {
        engine.set_executor(service);
    }
    if let Some(dir) = store {
        let t = Instant::now();
        let mut artifacts = ArtifactStore::load(dir);
        lap(&mut acc.store_load_s, &mut attributed, t);
        artifacts.set_telemetry(registry.histogram(
            "bintuner_store_artifact_save_seconds",
            "Wall time of each artifact-log save (append or rewrite).",
        ));
        engine.set_artifact_store(artifacts);
    }

    let repair_s = Cell::new(0.0);
    let repair_calls = Cell::new(0u64);
    let repair = |flags: &[bool], seed: u64| {
        let t = Instant::now();
        let repaired = profile.constraints().repair(flags, seed);
        repair_s.set(repair_s.get() + t.elapsed().as_secs_f64());
        repair_calls.set(repair_calls.get() + 1);
        repaired
    };
    let evaluator = Timed {
        engine: &engine,
        compiler: &compiler,
        target,
        batch_s: Cell::new(0.0),
        batches: Cell::new(0),
        miss_wall_s: Cell::new(0.0),
        replay_s: Cell::new(0.0),
        encode_s: Cell::new(0.0),
        score_s: Cell::new(0.0),
        score_calls: Cell::new(0),
        mismatch: RefCell::new(None),
    };
    let mut ga = Ga::new(profile.n_flags(), defaults.ga.clone(), job.seed);
    let t = Instant::now();
    let run = ga.run_batched(&evaluator, repair, &defaults.termination);
    let run_s = t.elapsed().as_secs_f64();
    let (batch_s, replay_s) = (evaluator.batch_s.get(), evaluator.replay_s.get());
    let breed_s = run_s - batch_s - repair_s.get() - replay_s;
    attributed += run_s - replay_s;
    acc.breed_s += breed_s;
    acc.batch_s += batch_s;
    acc.batches += evaluator.batches.get();
    acc.repair_s += repair_s.get();
    acc.repair_calls += repair_calls.get();
    acc.encode_s += evaluator.encode_s.get();
    acc.score_s += evaluator.score_s.get();
    acc.score_calls += evaluator.score_calls.get();
    let miss_wall_s = evaluator.miss_wall_s.get();
    if let Some(m) = evaluator.mismatch.into_inner() {
        return Err(m);
    }
    let run = run.map_err(|e| format!("evaluation aborted: {e}"))?;

    let t = Instant::now();
    let stats = engine.stats();
    let baseline = engine.baseline_binary().clone();
    let (store_after, artifacts_after) = engine.into_stores();
    lap(&mut acc.teardown_s, &mut attributed, t);
    if let Some(service) = service {
        let t = Instant::now();
        let (summary, _merged) = service.finish();
        lap(&mut acc.launch_s, &mut attributed, t);
        acc.shards += summary.shards as u64;
        acc.redispatched += summary.redispatched_shards as u64;
        acc.duplicate_results += summary.duplicate_results as u64;
        acc.clients_lost += summary.clients_lost as u64;
    }
    let t = Instant::now();
    if let Some(mut s) = store_after {
        acc.records_saved += s.pending_len() as u64;
        s.save().map_err(|e| format!("store save failed: {e}"))?;
    }
    if let Some(mut a) = artifacts_after {
        a.save().map_err(|e| format!("artifact save failed: {e}"))?;
    }
    lap(&mut acc.store_save_s, &mut attributed, t);

    let t = Instant::now();
    let best_binary = compiler
        .compile(module, &run.best_genes, Arch::X86)
        .map_err(|e| format!("winner recompile failed: {e}"))?;
    lap(&mut acc.recompile_s, &mut attributed, t);
    acc.traced_wall_s += wall.elapsed().as_secs_f64() - replay_s;
    acc.attributed_s += attributed;
    acc.jobs += 1;

    acc.evaluations += stats.evaluations as u64;
    acc.failed_compiles += stats.failed_compiles as u64;
    acc.compiles += stats.compiles as u64;
    acc.memo_hits += stats.cache_hits as u64;
    acc.persistent_hits += stats.persistent_hits as u64;
    acc.stage_reuse += (stats.ast_reuse + stats.lower_reuse) as u64;

    let stage = |name| {
        registry.histogram_with(
            "bintuner_engine_stage_seconds",
            "per-stage compile wall clock",
            "stage",
            name,
        )
    };
    acc.check_s += hist_s(&stage("check"));
    if farm.is_some() {
        // Farm misses compile in the worker processes, whose stage spans
        // are stitched into this tracer over the wire.
        for span in tracer.drain() {
            let (secs, runs) = match span.name.as_str() {
                "ast" => (&mut acc.ast_s, &mut acc.ast_runs),
                "lower" => (&mut acc.lower_s, &mut acc.lower_runs),
                "mir" => (&mut acc.mir_s, &mut acc.mir_runs),
                _ => continue,
            };
            *secs += span.dur_us as f64 * 1e-6;
            *runs += 1;
        }
        acc.miss_s += miss_wall_s;
    } else {
        for (name, secs, runs) in [
            ("ast", &mut acc.ast_s, &mut acc.ast_runs),
            ("lower", &mut acc.lower_s, &mut acc.lower_runs),
            ("mir", &mut acc.mir_s, &mut acc.mir_runs),
        ] {
            let h = stage(name);
            *secs += hist_s(&h);
            *runs += h.count();
        }
        acc.miss_s += hist_s(&registry.histogram(
            "bintuner_engine_miss_seconds",
            "wall clock of one compiled-and-scored miss",
        ));
    }
    let dispatch = registry.histogram(
        "bintuner_farm_dispatch_seconds",
        "shard dispatch-to-first-result wall clock",
    );
    acc.dispatch_s += hist_s(&dispatch);
    acc.dispatches += dispatch.count();
    acc.shard_save_s += hist_s(&registry.histogram(
        "bintuner_store_shard_save_seconds",
        "Wall time of each per-shard append/rewrite during FitnessStore::save.",
    ));
    acc.artifact_save_s += hist_s(&registry.histogram(
        "bintuner_store_artifact_save_seconds",
        "Wall time of each artifact-log save (append or rewrite).",
    ));
    acc.lock_skips += registry
        .counter_value("bintuner_store_lock_skips_total", None)
        .unwrap_or(0);

    Ok(Outcome {
        job,
        best_ncd_bits: run.best_fitness.to_bits(),
        iterations: run.evaluations,
        best_flags: run.best_genes,
        best_binary: Some(best_binary),
        baseline: Some(baseline),
    })
}
