//! The btel telemetry plane end to end, and its central contract: turning
//! it on is a pure observation — `TelemetryMode::On` must leave every
//! tuning trajectory bit-identical to `Off` (the seed semantics) on every
//! backend, while the registry fills with real counts, the tracer stitches
//! worker-side stage spans across the farm wire into the server's dispatch
//! spans, and a live `tuned` daemon serves its exposition page and span
//! dump over the v2 wire.

use bintuner::daemon::{Daemon, DaemonClient, DaemonConfig};
use bintuner::{
    Backend, ProcessFarm, ServiceConfig, TransportKind, TuneResult, Tuner, TunerConfig, WorkerMode,
};
use std::path::PathBuf;
use testutil::{small_tuner, tiny_loop_module, ScratchStore};

/// The worker binary process-farm tests re-exec.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bintuner"))
}

fn with_telemetry(base: TunerConfig) -> TunerConfig {
    TunerConfig {
        telemetry: btel::TelemetryMode::On,
        ..base
    }
}

fn service(max_evals: usize, cfg: ServiceConfig) -> TunerConfig {
    TunerConfig {
        backend: Backend::Service(cfg),
        ..small_tuner(max_evals)
    }
}

/// The determinism contract from the service/farm suites, applied across
/// the telemetry switch: every record, every fitness bit, every cache
/// flag. Measured `wall_seconds` / `ast_produce_seconds` are wall-clock
/// telemetry and deliberately excluded.
fn assert_identical_runs(a: &TuneResult, b: &TuneResult, what: &str) {
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
        assert_eq!(
            x.cache_hit, y.cache_hit,
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(x.persistent_hit, y.persistent_hit);
        assert_eq!(x.ast_reused, y.ast_reused);
        assert_eq!(x.lower_reused, y.lower_reused);
    }
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
}

#[test]
fn telemetry_on_is_bit_identical_to_off_on_every_backend() {
    let bench = corpus::by_name("462.libquantum").unwrap();
    let off = Tuner::new(small_tuner(60)).tune(&bench.module).unwrap();
    assert!(off.registry.is_none(), "Off mode exports no registry");
    assert!(off.spans.is_empty(), "Off mode records no spans");

    // In-process engine with the full plane live.
    let local = Tuner::new(with_telemetry(small_tuner(60)))
        .tune(&bench.module)
        .unwrap();
    assert_identical_runs(&off, &local, "in-process, telemetry on");

    // Thread-client farm over unix sockets.
    let unix = Tuner::new(with_telemetry(service(
        60,
        ServiceConfig {
            clients: 2,
            transport: TransportKind::Unix,
            ..ServiceConfig::default()
        },
    )))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&off, &unix, "unix service, telemetry on");

    // Process farm over TCP: real address spaces, spans over the wire.
    let tcp = Tuner::new(with_telemetry(service(
        60,
        ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            workers: WorkerMode::Processes(ProcessFarm {
                worker_binary: Some(worker_binary()),
                ..ProcessFarm::default()
            }),
            ..ServiceConfig::default()
        },
    )))
    .tune(&bench.module)
    .unwrap();
    assert_identical_runs(&off, &tcp, "tcp process farm, telemetry on");

    // The registry saw the run it watched: per-tier cache counters agree
    // with the engine's own logical stats, batch spans were recorded.
    for (run, what) in [(&local, "local"), (&unix, "unix"), (&tcp, "tcp")] {
        let registry = run.registry.as_ref().expect("telemetry registry");
        assert_eq!(
            registry.counter_value("bintuner_engine_evaluations_total", None),
            Some(run.engine_stats.evaluations as u64),
            "{what}: evaluations counter"
        );
        assert_eq!(
            registry.counter_value("bintuner_engine_cache_hits_total", Some("memo")),
            Some(run.engine_stats.cache_hits as u64),
            "{what}: memo-tier hit counter"
        );
        assert!(
            registry
                .counter_value("bintuner_engine_cache_hits_total", Some("memo"))
                .unwrap()
                > 0,
            "{what}: a 10-genome population must repeat genomes"
        );
        let text = registry.render_text();
        assert!(text.contains("bintuner_engine_stage_seconds_bucket"));
        assert!(run.spans.iter().any(|s| s.name == "batch"), "{what}: spans");
    }

    // The farm's counters are the service read: each event is counted
    // once, in the registry, and `run.service` reads it back.
    for (run, what) in [(&unix, "unix"), (&tcp, "tcp")] {
        let registry = run.registry.as_ref().expect("telemetry registry");
        let service = run.service.as_ref().expect("service stats");
        let farm = |family| registry.counter_value(family, None);
        assert_eq!(
            farm("bintuner_farm_shards_total"),
            Some(service.shards as u64),
            "{what}: shards"
        );
        assert_eq!(
            farm("bintuner_farm_duplicate_results_total"),
            Some(service.duplicate_results as u64),
            "{what}: duplicate results"
        );
        assert_eq!(
            farm("bintuner_farm_clients_lost_total"),
            Some(service.clients_lost as u64),
            "{what}: clients lost"
        );
        assert_eq!(
            farm("bintuner_farm_client_compiles_total"),
            Some(service.client_compiles),
            "{what}: client compiles"
        );
        assert!(service.shards > 0 && service.client_compiles > 0, "{what}");
    }
}

#[test]
fn process_farm_trace_stitches_worker_spans_into_server_dispatch() {
    let bench = corpus::by_name("473.astar").unwrap();
    let trace_path = std::env::temp_dir().join(format!(
        "bintuner_trace_{}_stitch.jsonl",
        std::process::id()
    ));
    let run = Tuner::new(TunerConfig {
        trace_path: Some(trace_path.clone()),
        ..with_telemetry(service(
            50,
            ServiceConfig {
                clients: 2,
                transport: TransportKind::Tcp,
                workers: WorkerMode::Processes(ProcessFarm {
                    worker_binary: Some(worker_binary()),
                    ..ProcessFarm::default()
                }),
                ..ServiceConfig::default()
            },
        ))
    })
    .tune(&bench.module)
    .unwrap();

    // Server-side dispatch spans are roots recorded by the local tracer.
    let dispatch: std::collections::HashSet<u64> = run
        .spans
        .iter()
        .filter(|s| s.name == "dispatch")
        .map(|s| {
            assert_eq!(s.parent, 0, "dispatch spans are roots");
            assert!(s.id < 1 << 48, "server ids stay below every worker base");
            s.id
        })
        .collect();
    assert!(!dispatch.is_empty(), "the farm dispatched shards");

    // Worker-side stage spans crossed the TCP wire: ids carved from the
    // per-client base, parents pointing straight at a dispatch span.
    let worker_stages: Vec<_> = run
        .spans
        .iter()
        .filter(|s| s.id >= 1 << 48 && matches!(s.name.as_str(), "ast" | "lower" | "mir"))
        .collect();
    assert!(
        !worker_stages.is_empty(),
        "worker compile stages crossed the wire"
    );
    for span in worker_stages {
        assert!(
            dispatch.contains(&span.parent),
            "worker span {} ({}) must parent to a server dispatch span, got {}",
            span.id,
            span.name,
            span.parent
        );
    }

    // The JSONL sink mirrors the stitched trace line for line.
    let jsonl = std::fs::read_to_string(&trace_path).expect("trace sink written");
    assert_eq!(jsonl.lines().count(), run.spans.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("\"name\":\"dispatch\""));
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn daemon_serves_metrics_and_traces_over_the_v2_wire() {
    let store = ScratchStore::new("telemetry_daemon");
    let module = tiny_loop_module("telemetry_daemon_mod", 6);
    let daemon = Daemon::launch(DaemonConfig {
        transport: TransportKind::Unix,
        base: small_tuner(50),
        store_path: Some(store.path_buf()),
        farm: ServiceConfig {
            clients: 2,
            ..ServiceConfig::default()
        },
        queue_limit: 4,
        runners: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let job = client
        .submit("alice", &module, 0xBE1, 50, false, 0)
        .expect("submit")
        .expect("admitted");
    client
        .fetch_result(job)
        .expect("fetch")
        .expect("job completed");

    // The exposition page carries live per-tenant throughput and the
    // queue gauges, freshly drained.
    let text = client.metrics_text().expect("metrics over the wire");
    assert!(text.contains("# TYPE bintuner_daemon_queue_depth gauge"));
    assert!(text.contains("bintuner_daemon_queue_depth 0"));
    assert!(text.contains("bintuner_daemon_running 0"));
    assert!(text.contains("bintuner_daemon_jobs_total{tenant=\"alice\"} 1"));
    let compiles = daemon
        .registry()
        .counter_value("bintuner_daemon_compiles_total", Some("alice"))
        .expect("per-tenant compile counter");
    assert!(compiles > 0, "the cold job really compiled");
    assert!(text.contains(&format!(
        "bintuner_daemon_compiles_total{{tenant=\"alice\"}} {compiles}"
    )));
    assert!(text.contains("bintuner_daemon_job_seconds_count 1"));

    // And the span ring has the job's root span, served as JSONL.
    let jsonl = client.trace_dump().expect("trace dump over the wire");
    assert!(jsonl.contains("\"name\":\"job\""));
    daemon.shutdown();
}
