//! The tuning daemon end to end, over real sockets: multi-tenant job
//! multiplexing onto one shared farm must preserve the bit-identity
//! contract (every daemon job ≡ the same tune run solo), duplicate
//! submissions must be pure cache hits (zero compiles), admission
//! control must reject with types rather than block unboundedly, and —
//! the PR's reason to exist — losing every farm worker mid-batch must
//! fail *the job*, never the daemon.

use bintuner::daemon::wire::{JobState, RejectCode, WireTuneOutcome};
use bintuner::daemon::{Daemon, DaemonClient, DaemonConfig, DaemonHandle};
use bintuner::{TuneResult, Tuner, TunerConfig};
use evald::{FaultPlan, ServiceConfig, TransportKind};
use minicc::ast::Module;
use testutil::{small_tuner, tiny_loop_module, ScratchStore};

const EVALS: u64 = 60;

/// The template every daemon in this suite serves jobs from; solo
/// reference runs use the same preset so trajectories are comparable
/// bit for bit.
fn base() -> TunerConfig {
    small_tuner(EVALS as usize)
}

fn daemon_config(transport: TransportKind, store: &ScratchStore) -> DaemonConfig {
    DaemonConfig {
        transport,
        base: base(),
        store_path: Some(store.path_buf()),
        farm: ServiceConfig {
            clients: 2,
            ..ServiceConfig::default()
        },
        queue_limit: 8,
        runners: 1,
        ..DaemonConfig::default()
    }
}

/// The solo (daemon-free, store-free) run a daemon job must be
/// bit-identical to. An empty/absent store never changes a trajectory —
/// that equivalence is pinned by the persistent-cache differentials —
/// so the cold solo run is the reference for warm daemon jobs too.
fn solo(module: &Module, seed: u64) -> TuneResult {
    Tuner::new(TunerConfig { seed, ..base() })
        .tune(module)
        .expect("solo reference run")
}

fn assert_outcome_matches_solo(outcome: &WireTuneOutcome, solo: &TuneResult, what: &str) {
    assert_eq!(outcome.best_flags, solo.best_flags, "{what}: best_flags");
    assert_eq!(
        outcome.best_ncd_bits,
        solo.best_ncd.to_bits(),
        "{what}: best_ncd bits"
    );
    assert_eq!(
        outcome.iterations, solo.iterations as u64,
        "{what}: iterations"
    );
    assert_eq!(outcome.stopped_by, solo.stopped_by, "{what}: stop reason");
}

fn submit_and_fetch(
    client: &mut DaemonClient,
    tenant: &str,
    module: &Module,
    seed: u64,
) -> Result<WireTuneOutcome, String> {
    let job = client
        .submit(tenant, module, seed, EVALS, false, 0)
        .expect("submit over the wire")
        .expect("admitted");
    client.fetch_result(job).expect("fetch over the wire")
}

/// Honor the CI hook: persist the daemon's metrics exposition — the
/// page `bintuner metrics` serves — where the workflow can pick it up
/// as a build artifact.
fn export_metrics(daemon: &DaemonHandle) {
    if let Ok(path) = std::env::var("DAEMON_METRICS_OUT") {
        std::fs::write(path, daemon.registry().render_text()).expect("write metrics artifact");
    }
}

#[test]
fn duplicate_submission_is_a_pure_cache_hit_bit_identical_across_tenants() {
    let store = ScratchStore::new("daemon_dup");
    let module = tiny_loop_module("daemon_dup_mod", 6);
    let reference = solo(&module, 0x0DAE);

    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let first = submit_and_fetch(&mut client, "alice", &module, 0x0DAE).expect("first job");
    assert_outcome_matches_solo(&first, &reference, "cold daemon job vs solo");
    assert!(first.compiles > 0, "the cold job really compiled");

    // Same module, same seed, *different tenant*: every evaluation is
    // served from the shared store alice already paid for.
    let second = submit_and_fetch(&mut client, "bob", &module, 0x0DAE).expect("duplicate job");
    assert_eq!(
        second.compiles, 0,
        "a duplicate submission must be a pure cache hit"
    );
    assert!(second.persistent_hits > 0, "served from the shared store");
    assert_outcome_matches_solo(&second, &reference, "duplicate daemon job vs solo");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.submitted, 2);
    assert_eq!(snapshot.accepted, 2);
    assert_eq!(snapshot.completed, 2);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.compiles_total, first.compiles);
    assert!(snapshot.persistent_hits_total >= second.persistent_hits);
    let by_tenant: Vec<&str> = snapshot.tenants.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(by_tenant, ["alice", "bob"]);
    assert_eq!(snapshot.tenants[0].1.compiles, first.compiles);
    assert_eq!(
        snapshot.tenants[1].1.compiles, 0,
        "bob rode alice's compiles"
    );
    // The same counters reach a tenant over the wire, with per-job wall
    // time in the job histogram.
    let text = client.metrics_text().expect("metrics over the wire");
    for line in [
        "bintuner_daemon_jobs_total{tenant=\"alice\"} 1".to_string(),
        "bintuner_daemon_completed_total{tenant=\"bob\"} 1".to_string(),
        format!(
            "bintuner_daemon_compiles_total{{tenant=\"alice\"}} {}",
            first.compiles
        ),
        "bintuner_daemon_compiles_total{tenant=\"bob\"} 0".to_string(),
        format!(
            "bintuner_daemon_persistent_hits_total {}",
            snapshot.persistent_hits_total
        ),
        "bintuner_daemon_job_seconds_count 2".to_string(),
    ] {
        assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    }
    export_metrics(&daemon);
    daemon.shutdown();
}

#[test]
fn concurrent_distinct_jobs_each_match_their_solo_runs() {
    let store = ScratchStore::new("daemon_concurrent");
    let module_a = tiny_loop_module("daemon_conc_a", 5);
    let module_b = tiny_loop_module("daemon_conc_b", 7);
    let solo_a = solo(&module_a, 0xA11CE);
    let solo_b = solo(&module_b, 0xB0B);

    let daemon = Daemon::launch(DaemonConfig {
        runners: 2,
        ..daemon_config(TransportKind::Tcp, &store)
    })
    .unwrap();

    // Two tenants, two connections, both jobs in flight at once — their
    // batches interleave on the one shared farm.
    let outcomes = std::thread::scope(|scope| {
        let jobs = [("alice", &module_a, 0xA11CE_u64), ("bob", &module_b, 0xB0B)];
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(tenant, module, seed)| {
                let addr = daemon.addr().clone();
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(&addr).unwrap();
                    submit_and_fetch(&mut client, tenant, module, seed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    let a = outcomes[0].as_ref().expect("alice's job");
    let b = outcomes[1].as_ref().expect("bob's job");
    assert_outcome_matches_solo(a, &solo_a, "concurrent job A vs solo");
    assert_outcome_matches_solo(b, &solo_b, "concurrent job B vs solo");
    // Distinct modules share the store without cross-talk: neither job
    // hit the other's entries (keys carry the module hash).
    assert_eq!(a.persistent_hits, 0, "no cross-module store pollution");
    assert_eq!(b.persistent_hits, 0, "no cross-module store pollution");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.completed, 2);
    assert!(snapshot.farm_launches >= 2, "the farm swapped modules");
    daemon.shutdown();
}

#[test]
fn farm_artifacts_persist_for_the_next_job_on_the_module() {
    // The daemon's farm workers compile in their own engines, so their
    // stage artifacts reach the shared store only through the daemon's
    // own fold after each job. A second job on the same module with a
    // different seed misses most fitness keys but reuses those persisted
    // optimized ASTs — and still matches its solo run bit for bit.
    let store = ScratchStore::new("daemon_artifacts");
    let module = tiny_loop_module("daemon_artifacts_mod", 6);
    let reference = solo(&module, 0x5EED_0002);

    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();
    let first = submit_and_fetch(&mut client, "alice", &module, 0x5EED_0001).expect("first job");
    assert!(first.compiles > 0, "the first job really compiled");
    assert_eq!(first.store_ast_hits, 0, "nothing was persisted yet");

    let second = submit_and_fetch(&mut client, "alice", &module, 0x5EED_0002).expect("second job");
    assert_outcome_matches_solo(&second, &reference, "warm-artifact daemon job vs solo");
    assert!(
        second.store_ast_hits > 0,
        "the second job reused no persisted AST: the farm's artifacts never reached the store"
    );
    daemon.shutdown();
}

/// The tentpole's prerequisite, end to end over the wire: every farm
/// worker dies mid-batch; the job fails with the service error, the
/// daemon keeps serving, the store stays sound, and the *next* job on
/// the same daemon relaunches a fresh farm and succeeds bit-identically.
fn farm_loss_fails_the_job_not_the_daemon(transport: TransportKind) {
    // One store per transport: the unix and tcp variants run in parallel
    // in one process, and a shared store would let one variant's retry
    // serve the other's first job from cache, so its fault never fires.
    let store = ScratchStore::new(&format!("daemon_farm_loss_{transport:?}"));
    let module = tiny_loop_module("daemon_loss_mod", 6);
    let reference = solo(&module, 0x10E);

    let daemon = Daemon::launch(DaemonConfig {
        farm: ServiceConfig {
            // A one-client farm whose only client dies after its first
            // shard: the next dispatch finds no live clients — the
            // all-workers-dead abort, deterministically.
            clients: 1,
            ..ServiceConfig::default()
        },
        farm_fault_once: Some(FaultPlan::crash(0, 1)),
        ..daemon_config(transport, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let job = client
        .submit("alice", &module, 0x10E, EVALS, false, 0)
        .unwrap()
        .expect("admitted");
    let message = client
        .fetch_result(job)
        .expect("the daemon answered — it survived the farm loss")
        .expect_err("the job itself must fail");
    assert!(
        message.contains("evaluation service failed"),
        "the tenant sees the typed service failure, got: {message}"
    );
    let (state, _, _) = client.status(job).unwrap();
    assert_eq!(state, JobState::Failed);

    // Same daemon, same connection: the fault was consumed, so the next
    // job relaunches a healthy farm and completes — bit-identical to
    // solo, proving the shared store wasn't corrupted by the crash.
    let retry = submit_and_fetch(&mut client, "alice", &module, 0x10E).expect("retry succeeds");
    assert_outcome_matches_solo(&retry, &reference, "post-crash retry vs solo");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.completed, 1);
    assert!(snapshot.farm_failures >= 1, "the loss was counted");
    assert!(snapshot.farm_launches >= 2, "the retry got a fresh farm");
    daemon.shutdown();
}

#[test]
fn farm_loss_fails_the_job_not_the_daemon_unix() {
    farm_loss_fails_the_job_not_the_daemon(TransportKind::Unix);
}

#[test]
fn farm_loss_fails_the_job_not_the_daemon_tcp() {
    farm_loss_fails_the_job_not_the_daemon(TransportKind::Tcp);
}

#[test]
fn admission_control_rejects_with_types_not_blocking() {
    let store = ScratchStore::new("daemon_admission");
    let module = tiny_loop_module("daemon_admission_mod", 4);
    // A zero-slot queue rejects every submission — the deterministic
    // way to pin the reject type and that per-tenant accounting sees it.
    let daemon = Daemon::launch(DaemonConfig {
        queue_limit: 0,
        ..daemon_config(TransportKind::Unix, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let (code, detail) = client
        .submit("carol", &module, 1, EVALS, false, 0)
        .unwrap()
        .expect_err("a full queue rejects");
    assert_eq!(code, RejectCode::QueueFull);
    assert!(detail.contains("queue full"), "{detail}");

    // Garbage module bytes are rejected at admission too, not queued.
    // (Reusing the raw frame path the client normally hides.)
    let (state, _, _) = client.status(999).unwrap();
    assert_eq!(state, JobState::Unknown);
    assert!(!client.cancel(999).unwrap(), "nothing queued to cancel");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.submitted, 1);
    assert_eq!(snapshot.rejected, 1);
    assert_eq!(snapshot.accepted, 0);
    let carol = &snapshot.tenants[0];
    assert_eq!(carol.0, "carol");
    assert_eq!(carol.1.rejected, 1);
    daemon.shutdown();
}

#[test]
fn shutdown_is_clean_with_idle_connections_open() {
    let store = ScratchStore::new("daemon_shutdown");
    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let DaemonHandle { .. } = &daemon;
    let _idle = DaemonClient::connect(daemon.addr()).unwrap();
    // Shutdown with a connected-but-silent client must not hang —
    // returning from this test is the assertion.
    daemon.shutdown();
}
