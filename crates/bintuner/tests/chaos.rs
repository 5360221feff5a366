//! The deterministic chaos plane, end to end. Every scenario here
//! scripts a fault through [`testutil::ChaosPlan`] — a hung worker, a
//! crash loop, a straggler, a dropped frame, a poison module, a blown
//! job deadline, a cancel racing a running job — and pins the
//! supervision plane's whole contract at once:
//!
//! * **Bounded**: every scenario terminates; detection is by heartbeat
//!   or dispatch deadline, never by waiting for luck.
//! * **Typed**: what can't be absorbed fails with a typed error a
//!   tenant can act on — never a panic, never a hang.
//! * **Deterministic**: what *can* be absorbed (eviction, re-dispatch,
//!   respawn) is pure scheduling — the trajectory stays bit-identical
//!   to the clean run, down to every fitness bit.
//! * **Observable**: each recovery shows up in the telemetry plane
//!   under its `bintuner_farm_*` / `bintuner_daemon_*` family.

use bintuner::daemon::wire::{JobState, RejectCode};
use bintuner::daemon::{Daemon, DaemonClient, DaemonConfig, DaemonHandle};
use bintuner::{
    Backend, LivenessConfig, ProcessFarm, ServiceConfig, TransportKind, TuneResult, Tuner,
    TunerConfig, WorkerMode,
};
use minicc::ast::Module;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use testutil::{small_tuner, tiny_loop_module, ChaosPlan, ScratchStore};

/// The worker binary the process-farm scenarios re-exec.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bintuner"))
}

/// Liveness tuned for a test's clock: probes every 100ms, a wedged
/// client is gone after ~300ms of silence or a ~400ms blown dispatch.
/// Tightening the timers is pure scheduling — the differentials below
/// prove it changes no trajectory.
fn fast_liveness() -> LivenessConfig {
    LivenessConfig {
        heartbeat_interval_ms: 100,
        max_missed_heartbeats: 3,
        deadline_multiplier: 4.0,
        min_dispatch_deadline_ms: 400,
    }
}

fn service_config(fault: Option<ChaosPlan>) -> ServiceConfig {
    ServiceConfig {
        clients: 2,
        fault: fault.map(|p| p.fault),
        liveness: fast_liveness(),
        ..ServiceConfig::default()
    }
}

/// The determinism contract from the farm suites: trajectory included,
/// wall-clock excluded.
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
        assert_eq!(
            x.cache_hit, y.cache_hit,
            "{what}: iteration {}",
            x.iteration
        );
    }
    assert_eq!(
        a.engine_stats.evaluations, b.engine_stats.evaluations,
        "{what}: evaluations"
    );
    assert_eq!(
        a.engine_stats.compiles, b.engine_stats.compiles,
        "{what}: compiles"
    );
    assert_eq!(
        a.engine_stats.cache_hits, b.engine_stats.cache_hits,
        "{what}: cache hits"
    );
}

/// The tentpole scenario, over real sockets and real address spaces: a
/// worker *process* on the TCP farm wedges mid-run — connection open,
/// answering nothing. Only the liveness plane can tell it from a slow
/// worker; the dispatch deadline must evict it, re-dispatch its shard,
/// and leave the trajectory bit-identical — with the eviction visible
/// in the `bintuner_farm_*` counters a `bintuner metrics` page serves.
#[test]
fn hung_worker_is_evicted_end_to_end_on_the_tcp_process_farm() {
    let module = tiny_loop_module("chaos_hang_mod", 6);
    let farm = |fault: Option<ChaosPlan>| ServiceConfig {
        transport: TransportKind::Tcp,
        workers: WorkerMode::Processes(ProcessFarm {
            worker_binary: Some(worker_binary()),
            ..ProcessFarm::default()
        }),
        ..service_config(fault)
    };
    let run = |cfg: ServiceConfig, telemetry| {
        Tuner::new(TunerConfig {
            backend: Backend::Service(cfg),
            telemetry,
            ..small_tuner(50)
        })
        .tune(&module)
        .expect("a hung worker must never fail the run")
    };

    let clean = run(farm(None), btel::TelemetryMode::Off);
    let chaos = run(
        farm(Some(ChaosPlan::hang_at(1, 1))),
        btel::TelemetryMode::On,
    );
    assert_identical_runs(&clean, &chaos, "hung worker vs clean");

    let summary = chaos.service.as_ref().expect("farm-backed run");
    assert!(
        summary.evicted_clients >= 1,
        "the wedged worker must fall to the liveness plane, not luck"
    );
    let registry = chaos.registry.as_ref().expect("telemetry registry");
    assert!(
        registry
            .counter_value("bintuner_farm_evictions_total", None)
            .unwrap_or(0)
            >= 1,
        "the eviction is counted"
    );
    let text = registry.render_text();
    assert!(text.contains("bintuner_farm_evictions_total"));
    assert!(text.contains("bintuner_farm_heartbeat_misses_total"));
}

/// The differential sweep: every scripted fault the plan language can
/// express, against the same clean trajectory. Crash and hang are
/// absorbed by eviction + re-dispatch; a slow frame under the deadline
/// is just a straggler; a dropped frame is recovered by the dispatch
/// deadline. All four must be *invisible* in the results.
#[test]
fn every_chaos_scenario_matches_the_clean_trajectory_bit_for_bit() {
    let module = tiny_loop_module("chaos_diff_mod", 6);
    let run = |fault: Option<ChaosPlan>| {
        Tuner::new(TunerConfig {
            backend: Backend::Service(service_config(fault)),
            ..small_tuner(60)
        })
        .tune(&module)
        .expect("an absorbable fault must never fail the run")
    };
    let clean = run(None);
    for plan in [
        ChaosPlan::crash_at(1, 1),
        ChaosPlan::hang_at(1, 1),
        ChaosPlan::slow_frame(1, 1, 50),
        ChaosPlan::drop_frame(1, 1),
    ] {
        let chaos = run(Some(plan));
        assert_identical_runs(&clean, &chaos, plan.name);
    }
}

fn daemon_config(transport: TransportKind, store: &ScratchStore, evals: usize) -> DaemonConfig {
    DaemonConfig {
        transport,
        base: small_tuner(evals),
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

/// The exactly-once terminal rule on a quiescent daemon: every accepted
/// job sits in exactly one terminal counter, and a cancelled or expired
/// job is not also a failure.
fn assert_terminal_states_reconcile(daemon: &DaemonHandle) {
    let s = daemon.metrics_snapshot();
    assert_eq!((s.queue_depth, s.running), (0, 0), "daemon is quiescent");
    assert_eq!(s.failed, 0, "a cancelled or expired job is not a failure");
    assert_eq!(
        s.accepted,
        s.completed + s.failed + s.cancelled + s.deadline_exceeded,
        "each accepted job settles in exactly one terminal state: {s:?}"
    );
}

/// A module that kills every fresh farm is *poison*, and the daemon
/// must learn that: after `quarantine_strikes` consecutive failures the
/// module is refused up front — no relaunch, no farm churn — with the
/// typed quarantine error, while every other tenant's jobs sail through
/// on a healthy farm.
#[test]
fn poison_module_is_quarantined_and_other_tenants_are_unharmed() {
    const STRIKES: u32 = 3;
    let store = ScratchStore::new("chaos_poison");
    let poison = tiny_loop_module("chaos_poison_mod", 6);
    let healthy = tiny_loop_module("chaos_healthy_mod", 5);

    let daemon = Daemon::launch(DaemonConfig {
        farm: ServiceConfig {
            // One client, scripted to crash after its first shard: with
            // nobody left, every launch of the poison module dies the
            // all-workers-dead death.
            clients: 1,
            ..ServiceConfig::default()
        },
        farm_fault_once: Some(ChaosPlan::crash_at(0, 1).fault),
        // Exactly enough fault charges to poison `STRIKES` launches;
        // the farm is healthy again afterwards, so the quarantine —
        // not the fault — must be what blocks the fourth attempt.
        farm_fault_launches: STRIKES,
        quarantine_strikes: STRIKES,
        ..daemon_config(TransportKind::Unix, &store, 60)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let mut submit = |module: &Module, seed: u64| -> Result<_, String> {
        let job = client
            .submit("alice", module, seed, 60, false, 0)
            .expect("submit")
            .expect("admitted");
        client.fetch_result(job).expect("fetch")
    };

    for strike in 0..STRIKES {
        let message = submit(&poison, 0xBAD).expect_err("the farm dies under this module");
        assert!(
            message.contains("evaluation service failed"),
            "strike {strike}: {message}"
        );
    }
    // The fourth attempt never reaches the (now healthy) farm: the
    // strike record convicts the module before any launch.
    let message = submit(&poison, 0xBAD).expect_err("quarantined");
    assert!(
        message.contains("quarantined as poison"),
        "the tenant sees the typed quarantine, got: {message}"
    );

    // Another tenant's module is untouched by the quarantine record.
    submit(&healthy, 0x600D).expect("a healthy module tunes on the healthy farm");

    assert_eq!(
        daemon
            .registry()
            .counter_value("bintuner_daemon_quarantined_total", None),
        Some(1),
        "the quarantine is counted"
    );
    // The shared farm's supervision counters ride the same registry the
    // daemon's metrics page serves.
    let text = client.metrics_text().expect("metrics over the wire");
    assert!(text.contains("bintuner_farm_evictions_total"));
    // Honor the CI hook: persist the exposition page (quarantine and
    // farm supervision counters included) as a build artifact.
    if let Ok(path) = std::env::var("CHAOS_METRICS_OUT") {
        std::fs::write(path, &text).expect("write chaos metrics artifact");
    }
    daemon.shutdown();
}

/// Wall-clock deadlines at the daemon: an impossible deadline is a
/// typed admission reject; a too-tight deadline fails the job at the
/// first batch checkpoint with the typed state; a generous one changes
/// nothing.
#[test]
fn job_deadlines_reject_expire_and_pass_with_types() {
    let store = ScratchStore::new("chaos_deadline");
    let module = tiny_loop_module("chaos_deadline_mod", 6);
    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store, 60)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    // Beyond the 7-day cap: rejected at admission, typed, never queued.
    let week_ms = 7 * 24 * 60 * 60 * 1000;
    let (code, detail) = client
        .submit("alice", &module, 1, 60, false, week_ms + 1)
        .unwrap()
        .expect_err("an impossible deadline is rejected");
    assert_eq!(code, RejectCode::BadDeadline);
    assert!(detail.contains("deadline"), "{detail}");

    // One millisecond from admission: blown before the first batch
    // checkpoint — the job fails with the typed state, the daemon and
    // the farm shrug it off.
    let job = client
        .submit("alice", &module, 2, 60, false, 1)
        .unwrap()
        .expect("admitted");
    let message = client
        .fetch_result(job)
        .expect("the daemon answered")
        .expect_err("the deadline must fail the job");
    assert!(message.contains("deadline exceeded"), "{message}");
    let (state, _, _) = client.status(job).unwrap();
    assert_eq!(state, JobState::DeadlineExceeded);
    assert_eq!(
        daemon
            .registry()
            .counter_value("bintuner_daemon_deadline_exceeded_total", None),
        Some(1),
        "the expiry is counted"
    );

    // A generous deadline is invisible: the same submission completes.
    let job = client
        .submit("alice", &module, 2, 60, false, 600_000)
        .unwrap()
        .expect("admitted");
    client
        .fetch_result(job)
        .expect("fetch")
        .expect("a generous deadline changes nothing");
    assert_terminal_states_reconcile(&daemon);
    daemon.shutdown();
}

/// Cancellation must reach a job that is already *running*: the flag is
/// latched over the wire, the runner aborts at the next batch
/// checkpoint, and the tenant gets the typed `Cancelled` state — on
/// both stream transports.
fn cancel_reaches_a_running_job(transport: TransportKind, name: &str) {
    let store = ScratchStore::new(name);
    // A long cold job: hundreds of evaluations, every one a compile —
    // minutes of work, so the cancel always lands mid-run.
    let module = tiny_loop_module(name, 8);
    let daemon = Daemon::launch(daemon_config(transport, &store, 600)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let job = client
        .submit("alice", &module, 0xCA, 600, false, 0)
        .unwrap()
        .expect("admitted");
    let wait_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (state, _, _) = client.status(job).unwrap();
        if state == JobState::Running {
            break;
        }
        assert_eq!(state, JobState::Queued, "job went terminal before cancel");
        assert!(Instant::now() < wait_deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    assert!(
        client.cancel(job).unwrap(),
        "cancel must latch onto the running job"
    );
    let message = client
        .fetch_result(job)
        .expect("fetch")
        .expect_err("a cancelled job must not report success");
    assert!(message.contains("cancelled"), "{message}");
    let (state, _, _) = client.status(job).unwrap();
    assert_eq!(state, JobState::Cancelled);
    assert_eq!(daemon.metrics_snapshot().cancelled, 1);
    assert_terminal_states_reconcile(&daemon);
    daemon.shutdown();
}

#[test]
fn cancel_reaches_a_running_job_unix() {
    cancel_reaches_a_running_job(TransportKind::Unix, "chaos_cancel_unix");
}

#[test]
fn cancel_reaches_a_running_job_tcp() {
    cancel_reaches_a_running_job(TransportKind::Tcp, "chaos_cancel_tcp");
}
