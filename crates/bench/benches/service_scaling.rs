//! Service scaling: the sharded client–server evaluation backend
//! (`TunerConfig::backend = Service`) against the in-process engine, at
//! 1/2/4 worker clients on both transports — the deployment dimension of
//! the paper's §5 client–server implementation.
//!
//! Two things are asserted, not just printed:
//!
//! * **Bit-identity** — every service row must reproduce the in-process
//!   run's best flags and best NCD exactly (the differential suite pins
//!   the full trajectory; the bench re-checks the headline under bench
//!   budgets).
//! * **Farm accounting** — the clients' compile count must cover the
//!   engine's logical compile count (the farm really did the work).
//!
//! On a single-core host the multi-client rows measure dispatch +
//! framing overhead, not speedup — the host's parallelism is printed
//! alongside, as in the engine-scaling bench.

use bench::print_table;
use bintuner::{Backend, ServiceConfig, TransportKind, Tuner, TunerConfig};
use genetic::{GaParams, Termination};
use std::time::Instant;

fn base_config() -> TunerConfig {
    let evals = if bench::full_run() { 600 } else { 200 };
    TunerConfig {
        termination: Termination {
            max_evaluations: evals,
            min_evaluations: evals * 2 / 3,
            plateau_window: evals / 3,
            ..Default::default()
        },
        ga: GaParams {
            population: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let bench_case = corpus::by_name("462.libquantum").expect("known benchmark");
    println!(
        "service scaling on {} (host parallelism: {cores})",
        bench_case.name
    );
    if cores == 1 {
        println!("  (no parallel speedup observable on this host: 1 CPU — multi-client rows measure dispatch overhead only)");
    }

    let t = Instant::now();
    let local = Tuner::new(base_config())
        .tune(&bench_case.module)
        .expect("in-process run");
    let local_wall = t.elapsed().as_secs_f64();

    let mut rows = vec![vec![
        "in-process".to_string(),
        "-".to_string(),
        local.iterations.to_string(),
        format!("{:.3}", local.best_ncd),
        format!("{local_wall:.2}"),
        local.engine_stats.compiles.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]];
    for transport in [TransportKind::Channel, TransportKind::Unix] {
        for clients in [1usize, 2, 4] {
            let config = TunerConfig {
                backend: Backend::Service(ServiceConfig {
                    clients,
                    transport,
                    ..ServiceConfig::default()
                }),
                ..base_config()
            };
            let t = Instant::now();
            let result = Tuner::new(config)
                .tune(&bench_case.module)
                .expect("service run");
            let wall = t.elapsed().as_secs_f64();
            // The service backend is a deployment decision, never a
            // semantics decision: identical headline results required.
            assert_eq!(
                result.best_flags, local.best_flags,
                "{transport}/{clients} clients diverged from the in-process result"
            );
            assert_eq!(result.best_ncd.to_bits(), local.best_ncd.to_bits());
            let summary = result.service.expect("service telemetry");
            assert!(
                summary.client_compiles >= result.engine_stats.compiles as u64,
                "farm compiles must cover the logical compiles"
            );
            rows.push(vec![
                transport.to_string(),
                clients.to_string(),
                result.iterations.to_string(),
                format!("{:.3}", result.best_ncd),
                format!("{wall:.2}"),
                result.engine_stats.compiles.to_string(),
                summary.shards.to_string(),
                summary.redispatched_shards.to_string(),
                summary.merged_records.to_string(),
            ]);
        }
    }
    print_table(
        "Service scaling (fixed seed; identical results asserted)",
        &[
            "backend", "clients", "iters", "ncd", "wall_s", "compiles", "shards", "redisp",
            "merged",
        ],
        &rows,
    );
    println!("service backend bit-identical to in-process on every row: OK");
}
