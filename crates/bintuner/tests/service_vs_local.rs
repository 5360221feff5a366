//! Differential harness for the evaluation-service backend: the sharded
//! client–server deployment (`TunerConfig::backend = Service`) must be
//! **bit-identical** to the in-process engine — same best genome, same
//! fitness bits, same full trajectory — on both transports, with cache
//! telemetry preserved, with the persistent store ending up equivalent,
//! and even when a client is killed mid-run (straggler re-dispatch must
//! absorb the loss without moving a single record).
//!
//! This is the reproduction's answer to the paper's §5 deployment: the
//! distributed shape is a pure wall-clock/scale decision, never a
//! semantics decision.

use bintuner::{
    Backend, FaultPlan, FitnessStore, ServiceConfig, TransportKind, TuneResult, Tuner, TunerConfig,
};
use testutil::{small_tuner, ScratchStore};

fn service_config(max_evals: usize, cfg: ServiceConfig) -> TunerConfig {
    TunerConfig {
        backend: Backend::Service(cfg),
        ..small_tuner(max_evals)
    }
}

/// Record-for-record equality of two tuning runs — the strongest form of
/// "the backend changed nothing". Measured `wall_seconds` is telemetry
/// and deliberately excluded (the one field wall-clock may touch).
fn assert_identical_runs(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best_flags, b.best_flags, "{what}: best genome");
    assert_eq!(
        a.best_ncd.to_bits(),
        b.best_ncd.to_bits(),
        "{what}: best fitness"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.stopped_by, b.stopped_by, "{what}: stop reason");
    assert_eq!(
        a.db.rows().len(),
        b.db.rows().len(),
        "{what}: history length"
    );
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
        assert_eq!(
            x.cache_hit, y.cache_hit,
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(
            x.persistent_hit, y.persistent_hit,
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(x.seeded_from_prior, y.seeded_from_prior);
        // Stage-reuse classification happens at partition time from the
        // deterministic artifact membership model, never from where the
        // compiles physically ran — so it is backend-independent too.
        assert_eq!(
            x.ast_reused, y.ast_reused,
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(
            x.lower_reused, y.lower_reused,
            "{what}: iteration {}",
            x.iteration
        );
    }
    // The logical engine telemetry is backend-independent too.
    assert_eq!(a.engine_stats.evaluations, b.engine_stats.evaluations);
    assert_eq!(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
    assert_eq!(
        a.engine_stats.persistent_hits,
        b.engine_stats.persistent_hits
    );
    assert_eq!(a.engine_stats.compiles, b.engine_stats.compiles);
    assert_eq!(a.engine_stats.full_compiles, b.engine_stats.full_compiles);
    assert_eq!(a.engine_stats.ast_reuse, b.engine_stats.ast_reuse);
    assert_eq!(a.engine_stats.lower_reuse, b.engine_stats.lower_reuse);
    assert_eq!(
        a.engine_stats.failed_compiles,
        b.engine_stats.failed_compiles
    );
}

/// Semantic store equality: same entries, same fitness bits, same flag
/// bitmaps, same generations. (Byte equality is not required — record
/// order inside one compaction rewrite follows map iteration order.)
fn assert_same_store(a: &std::path::Path, b: &std::path::Path) {
    let mut sa = FitnessStore::load(a);
    let mut sb = FitnessStore::load(b);
    assert_eq!(sa.len(), sb.len(), "store sizes differ");
    assert_eq!(sa.generation(), sb.generation());
    for (key, va) in sa.entries() {
        let vb = sb
            .get(&key)
            .unwrap_or_else(|| panic!("missing key {key:?}"));
        assert_eq!(va.fitness.to_bits(), vb.fitness.to_bits());
        assert_eq!(va.failed, vb.failed);
        assert_eq!(va.flags, vb.flags);
        assert_eq!(va.generation, vb.generation);
    }
}

#[test]
fn service_backend_is_bit_identical_on_both_transports() {
    let bench = corpus::by_name("462.libquantum").unwrap();
    let local = Tuner::new(small_tuner(70)).tune(&bench.module).unwrap();
    assert!(local.service.is_none());

    let channel = Tuner::new(service_config(
        70,
        ServiceConfig {
            clients: 3,
            transport: TransportKind::Channel,
            ..ServiceConfig::default()
        },
    ))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&local, &channel, "channel transport");

    let unix = Tuner::new(service_config(
        70,
        ServiceConfig {
            clients: 2,
            transport: TransportKind::Unix,
            ..ServiceConfig::default()
        },
    ))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&local, &unix, "unix transport");

    let tcp = Tuner::new(service_config(
        70,
        ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            ..ServiceConfig::default()
        },
    ))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&local, &tcp, "tcp transport");

    // The service actually ran: shards were dispatched to a live farm
    // and the farm did the compiles the engine accounted for.
    for (result, clients) in [(&channel, 3), (&unix, 2), (&tcp, 2)] {
        let summary = result.service.as_ref().expect("service telemetry");
        assert!(!summary.process_workers, "these farms are thread clients");
        assert_eq!(summary.clients, clients);
        assert_eq!(summary.clients_lost, 0);
        assert!(summary.shards > 0);
        assert!(
            summary.client_compiles >= result.engine_stats.compiles as u64,
            "farm did at least the logical compiles"
        );
        // The adaptive cost model saw every shard's wall time.
        assert!(summary.cost_observations > 0);
        assert!(!summary.shard_sizes.is_empty());
    }
}

#[test]
fn killing_one_client_mid_run_changes_nothing() {
    let bench = corpus::by_name("473.astar").unwrap();
    let local = Tuner::new(small_tuner(60)).tune(&bench.module).unwrap();
    let killed = Tuner::new(service_config(
        60,
        ServiceConfig {
            clients: 3,
            transport: TransportKind::Channel,
            fault: Some(FaultPlan::crash(1, 2)),
            ..ServiceConfig::default()
        },
    ))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&local, &killed, "kill-one-client");
    let summary = killed.service.as_ref().expect("service telemetry");
    assert_eq!(summary.clients_lost, 1, "exactly the planned death");
    // Straggler duplicates are counted once, by the farm, so they live
    // on the service read alone; the in-process run has no service.
    assert!(local.service.is_none());
}

#[test]
fn service_and_local_build_equivalent_stores_and_warm_starts() {
    let bench = corpus::by_name("429.mcf").unwrap();
    let local_store = ScratchStore::new("svc_local");
    let service_store = ScratchStore::new("svc_remote");
    let with_cache = |base: TunerConfig, path| TunerConfig {
        cache_path: Some(path),
        ..base
    };
    let svc = || {
        service_config(
            60,
            ServiceConfig {
                clients: 2,
                transport: TransportKind::Channel,
                ..ServiceConfig::default()
            },
        )
    };

    // Cold runs on each backend fill their own store.
    let cold_local = Tuner::new(with_cache(small_tuner(60), local_store.path_buf()))
        .tune(&bench.module)
        .unwrap();
    let cold_svc = Tuner::new(with_cache(svc(), service_store.path_buf()))
        .tune(&bench.module)
        .unwrap();
    assert_identical_runs(&cold_local, &cold_svc, "cold with store");
    let persist = cold_svc.persistence.as_ref().expect("persistence summary");
    assert_eq!(persist.save_error, None);
    assert!(!persist.lock_skipped);
    // The client farm shipped its local caches back, and the single
    // writable store ended up equivalent to the in-process run's.
    assert!(cold_svc.service.as_ref().unwrap().merged_records > 0);
    assert_same_store(local_store.path(), service_store.path());

    // Warm runs: the service replays the identical trajectory from
    // persistent hits, same as the in-process engine.
    let warm_local = Tuner::new(with_cache(small_tuner(60), local_store.path_buf()))
        .tune(&bench.module)
        .unwrap();
    let warm_svc = Tuner::new(with_cache(svc(), service_store.path_buf()))
        .tune(&bench.module)
        .unwrap();
    assert_identical_runs(&warm_local, &warm_svc, "warm with store");
    // Across warmth the hit telemetry legitimately differs (that is the
    // point of the store); the search itself must not.
    assert_eq!(cold_local.best_flags, warm_svc.best_flags);
    assert_eq!(cold_local.best_ncd.to_bits(), warm_svc.best_ncd.to_bits());
    assert_eq!(cold_local.iterations, warm_svc.iterations);
    assert!(warm_svc.engine_stats.persistent_hits > 0);
    assert!(warm_svc.engine_stats.compiles < cold_svc.engine_stats.compiles);
}

#[test]
fn invalid_module_fails_promptly_and_tears_the_service_down() {
    // The error path where the baseline cannot compile: every worker
    // says Hello before it builds anything, so the launch succeeds, the
    // workers die at engine construction, and the tuner's own baseline
    // compile fails the run as TuneError::Baseline — the same typed
    // error a process farm gives (tests/farm.rs). Promptly, too: the
    // dropped ServiceHandle severs every unix connection and joins
    // every client/reader thread (the test completing, repeatedly, is
    // the assertion; without the Drop teardown each iteration leaked
    // blocked threads and the socket file).
    use minicc::ast::{Expr, FuncDef, Module, Stmt};
    let mut bad = Module::new("invalid");
    // Two functions with the same name fail validation → every baseline
    // compile (server's and each client's) fails.
    bad.funcs.push(FuncDef::new(
        "main",
        vec![],
        vec![Stmt::Return(Expr::Const(1))],
    ));
    bad.funcs.push(FuncDef::new(
        "main",
        vec![],
        vec![Stmt::Return(Expr::Const(2))],
    ));
    for _ in 0..3 {
        let err = Tuner::new(service_config(
            40,
            ServiceConfig {
                clients: 2,
                transport: TransportKind::Unix,
                ..ServiceConfig::default()
            },
        ))
        .tune(&bad)
        .unwrap_err();
        assert!(matches!(err, bintuner::TuneError::Baseline(_)), "{err}");
    }
}

#[test]
fn service_launch_failure_is_a_chained_tune_error() {
    // The error type itself must chain: TuneError::Service → EvaldError
    // → io::Error, walkable via std::error::Error::source (the uniform
    // `?` contract).
    let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no socket for you");
    let err = bintuner::TuneError::Service(std::sync::Arc::new(evald::EvaldError::Io(io)));
    assert!(err.to_string().contains("evaluation service"));
    let evald_src = std::error::Error::source(&err).expect("EvaldError source");
    assert!(evald_src.to_string().contains("I/O error"));
    let io_src = std::error::Error::source(evald_src).expect("io::Error source");
    assert!(io_src.to_string().contains("no socket for you"));
    // And it still satisfies the uniform `?`-into-Box<dyn Error> shape.
    fn boxed(e: bintuner::TuneError) -> Result<(), Box<dyn std::error::Error>> {
        Err(e)?
    }
    assert!(boxed(err.clone()).is_err());
    assert_eq!(err.clone(), err);
}
