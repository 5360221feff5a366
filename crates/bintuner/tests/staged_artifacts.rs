//! Differential harness for the tier-0 stage-artifact cache.
//!
//! The artifact cache is a pure wall-clock optimization: whether a miss
//! reruns the whole pipeline or reuses a cached optimized-AST /
//! lowered-binary artifact must never change a single bit of the tuning
//! trajectory — on either evaluation backend. These tests pin that, plus
//! the accounting identities the `staged_compile` bench and the CSV
//! columns rely on, plus the eviction bound.

use bintuner::{
    Backend, EngineConfig, FitnessEngine, ServiceConfig, TransportKind, TuneResult, Tuner,
    TunerConfig,
};
use genetic::Evaluator;
use minicc::{Compiler, CompilerKind, OptLevel};
use testutil::small_tuner;

/// Everything except measured wall time and the stage-reuse telemetry
/// (which the cache setting is *supposed* to change) must be
/// bit-identical.
fn assert_same_trajectory(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best_flags, b.best_flags, "{what}: best genome");
    assert_eq!(
        a.best_ncd.to_bits(),
        b.best_ncd.to_bits(),
        "{what}: best fitness"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.stopped_by, b.stopped_by, "{what}: stop reason");
    assert_eq!(a.db.rows().len(), b.db.rows().len(), "{what}: history");
    for (x, y) in a.db.rows().iter().zip(b.db.rows()) {
        assert_eq!(x.flags, y.flags, "{what}: iteration {}", x.iteration);
        assert_eq!(
            x.ncd.to_bits(),
            y.ncd.to_bits(),
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(x.best_ncd.to_bits(), y.best_ncd.to_bits());
        assert_eq!(x.elapsed_seconds.to_bits(), y.elapsed_seconds.to_bits());
        assert_eq!(x.cache_hit, y.cache_hit, "{what}: it {}", x.iteration);
        assert_eq!(x.persistent_hit, y.persistent_hit);
        assert_eq!(x.seeded_from_prior, y.seeded_from_prior);
    }
    assert_eq!(a.engine_stats.evaluations, b.engine_stats.evaluations);
    assert_eq!(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
    assert_eq!(a.engine_stats.compiles, b.engine_stats.compiles);
    assert_eq!(
        a.engine_stats.failed_compiles,
        b.engine_stats.failed_compiles
    );
}

fn tuned(mut config: TunerConfig, artifact_cache: bool) -> TuneResult {
    config.artifact_cache = artifact_cache;
    let bench = corpus::by_name("462.libquantum").unwrap();
    Tuner::new(config).tune(&bench.module).unwrap()
}

#[test]
fn artifact_cache_on_off_is_bit_identical_in_process() {
    let on = tuned(small_tuner(90), true);
    let off = tuned(small_tuner(90), false);
    assert_same_trajectory(&on, &off, "in-process on-vs-off");

    // The cache-off run is the pre-artifact-cache engine: every miss is
    // a full pipeline run.
    assert_eq!(off.engine_stats.full_compiles, off.engine_stats.compiles);
    assert_eq!(off.engine_stats.ast_reuse + off.engine_stats.lower_reuse, 0);

    // The cache-on run must have genuinely shared stages: strictly fewer
    // full pipelines for the same compile count.
    let s = on.engine_stats;
    assert_eq!(s.compiles, s.full_compiles + s.ast_reuse + s.lower_reuse);
    assert!(
        s.full_compiles < s.compiles,
        "no stage reuse: {s:?} (full == compiles)"
    );
    assert!(s.ast_reuse + s.lower_reuse > 0, "{s:?}");
}

#[test]
fn artifact_cache_on_off_is_bit_identical_on_service_backend() {
    let service = |artifact_cache| {
        let config = TunerConfig {
            backend: Backend::Service(ServiceConfig {
                clients: 2,
                transport: TransportKind::Channel,
                ..ServiceConfig::default()
            }),
            ..small_tuner(90)
        };
        tuned(config, artifact_cache)
    };
    let on = service(true);
    let off = service(false);
    assert_same_trajectory(&on, &off, "service on-vs-off");
    // And both match the in-process runs bit-for-bit (the backend is
    // orthogonal to the artifact cache).
    let local = tuned(small_tuner(90), true);
    assert_same_trajectory(&on, &local, "service-vs-local on");
    assert_same_trajectory(&off, &tuned(small_tuner(90), false), "service-vs-local off");
    // Stage classification is partition-side, so the *logical* counters
    // agree with in-process exactly.
    assert_eq!(
        on.engine_stats.full_compiles,
        local.engine_stats.full_compiles
    );
    assert_eq!(on.engine_stats.ast_reuse, local.engine_stats.ast_reuse);
    assert_eq!(on.engine_stats.lower_reuse, local.engine_stats.lower_reuse);
    // The farm measured its own (physical) reuse: client engines carry
    // the same tier-0 cache, so with the cache on, some client compile
    // must have skipped a stage.
    let summary = on.service.expect("service summary");
    assert_eq!(
        summary.client_compiles,
        summary.client_full_compiles + summary.client_ast_reuse + summary.client_lower_reuse,
        "farm stage counters must partition farm compiles"
    );
    assert!(
        summary.client_ast_reuse + summary.client_lower_reuse > 0,
        "{summary:?}"
    );
    let off_summary = off.service.expect("service summary");
    assert_eq!(
        off_summary.client_full_compiles,
        off_summary.client_compiles
    );
}

#[test]
fn row_flags_reconcile_with_engine_counters() {
    let on = tuned(small_tuner(90), true);
    let rows = on.db.rows();
    let row_ast = rows.iter().filter(|r| r.ast_reused).count();
    let row_lower = rows.iter().filter(|r| r.lower_reused).count();
    // Stage flags mark exactly the fresh-compile representative of each
    // miss, so the row totals are the engine counters.
    assert_eq!(row_ast, on.engine_stats.ast_reuse);
    assert_eq!(row_lower, on.engine_stats.lower_reuse);
    for r in rows {
        assert!(
            !(r.ast_reused && r.lower_reused),
            "reuse levels are disjoint (iteration {})",
            r.iteration
        );
        if r.ast_reused || r.lower_reused {
            assert!(
                !r.cache_hit && !r.persistent_hit,
                "stage reuse is a property of fresh compiles (iteration {})",
                r.iteration
            );
        }
    }
    // And the CSV carries the columns.
    let csv = on.db.to_csv();
    assert!(csv
        .lines()
        .next()
        .unwrap()
        .contains("ast_reused,lower_reused"));
}

#[test]
fn eviction_bound_is_respected_and_changes_nothing() {
    // A pathologically tiny artifact cache must stay within its bounds
    // and still produce bit-identical fitness for every genome.
    let bench = corpus::by_name("473.astar").unwrap();
    let compiler = Compiler::new(CompilerKind::Gcc);
    let capped = FitnessEngine::new(
        &compiler,
        &bench.module,
        binrep::Arch::X86,
        EngineConfig {
            workers: 2,
            artifact_cache: true,
            max_ast_artifacts: 2,
            max_lower_artifacts: 2,
        },
    )
    .unwrap();
    let uncapped = FitnessEngine::new(
        &compiler,
        &bench.module,
        binrep::Arch::X86,
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    // Several generations' worth of batches over the presets (plenty of
    // distinct stage keys to overflow a 2-entry cache).
    let profile = compiler.profile();
    let batches: Vec<Vec<Vec<bool>>> = (0..4)
        .map(|i| {
            OptLevel::ALL
                .iter()
                .map(|&l| {
                    let mut f = profile.preset(l);
                    // Perturb a filler flag per round for fresh configs.
                    let idx = (i * 13 + 47) % f.len();
                    f[idx] = !f[idx];
                    profile.constraints().repair(&f, i as u64)
                })
                .collect()
        })
        .collect();
    for batch in &batches {
        let a = capped.evaluate_batch(batch).unwrap();
        let b = uncapped.evaluate_batch(batch).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        assert!(capped.ast_artifact_len() <= 2, "ast bound violated");
        assert!(capped.lower_artifact_len() <= 2, "lower bound violated");
    }
    // The capped engine evicted (i.e. it saw more keys than it may
    // keep), otherwise the bound was never exercised.
    assert!(uncapped.ast_artifact_len() > 2 || uncapped.lower_artifact_len() > 2);
}

#[test]
fn within_batch_stage_sharing_is_classified() {
    // Two presets differing only in late-pipeline flags inside ONE
    // batch: the second must be classified as a stage reuse even though
    // the artifact is produced by the same batch.
    let bench = corpus::by_name("429.mcf").unwrap();
    let compiler = Compiler::new(CompilerKind::Gcc);
    let engine = FitnessEngine::new(
        &compiler,
        &bench.module,
        binrep::Arch::X86,
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let profile = compiler.profile();
    let base = profile.preset(OptLevel::O2);
    let mut late = base.clone();
    // -freorder-functions is a pure machine-level (stage 3) flag; O2
    // already enables it, so *disabling* it changes only the mir key.
    let idx = profile.flag_index("-freorder-functions").unwrap();
    assert!(late[idx]);
    late[idx] = false;
    let evals = engine.evaluate_batch(&[base, late]).unwrap();
    assert!(!evals[0].ast_reused && !evals[0].lower_reused);
    assert!(
        evals[1].lower_reused,
        "late-stage-only sibling must reuse the lowered artifact"
    );
    let s = engine.stats();
    assert_eq!((s.full_compiles, s.ast_reuse, s.lower_reuse), (1, 0, 1));
}
