//! Telemetry overhead: the cost of the btel plane, measured and gated.
//!
//! Two contracts, both enforced here (and in CI):
//!
//! * **Off-mode purity** — a default-config run (telemetry off) must be
//!   bit-identical to the pre-telemetry seed semantics. Pinned by running
//!   the same seed twice and against a telemetry-on run: best flags, best
//!   NCD bits, and the full iteration trajectory must agree exactly.
//! * **Bounded overhead** — with the full plane live (registry, stage
//!   histograms, span ring) the quick-corpus run must cost < 5% extra
//!   wall clock, best-of-N vs best-of-N.
//!
//! CI artifact hooks: set `BTEL_EXPOSITION_OUT` to write the final run's
//! Prometheus-style text page, `BTEL_TRACE_OUT` to write its JSONL trace.

use bintuner::{TuneResult, Tuner, TunerConfig};
use genetic::{GaParams, Termination};
use std::time::Instant;

/// Overhead gate, percent. Generous vs the typical measurement (the
/// plane is a handful of relaxed atomics per evaluation) but tight
/// enough to catch an accidental syscall or lock on the hot path.
const MAX_OVERHEAD_PCT: f64 = 5.0;

fn config(telemetry: btel::TelemetryMode) -> TunerConfig {
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
        telemetry,
        ..Default::default()
    }
}

/// Best-of-N wall clock for one configuration, returning the fastest
/// wall time and the last run's result.
fn best_of(n: usize, cfg: &TunerConfig, module: &minicc::ast::Module) -> (f64, TuneResult) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        let result = Tuner::new(cfg.clone()).tune(module).expect("tuning run");
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(result);
    }
    (best, last.expect("n >= 1"))
}

fn assert_identical(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best_flags, b.best_flags, "{what}: best genome");
    assert_eq!(
        a.best_ncd.to_bits(),
        b.best_ncd.to_bits(),
        "{what}: best fitness bits"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.db.rows().len(), b.db.rows().len(), "{what}: history");
    for (x, y) in a.db.rows().iter().zip(b.db.rows()) {
        assert_eq!(x.flags, y.flags, "{what}: iteration {}", x.iteration);
        assert_eq!(x.ncd.to_bits(), y.ncd.to_bits(), "{what}: fitness bits");
        assert_eq!(x.cache_hit, y.cache_hit, "{what}: cache telemetry");
        assert_eq!(x.persistent_hit, y.persistent_hit);
    }
}

fn main() {
    let runs = if bench::full_run() { 5 } else { 3 };
    let bench_case = corpus::by_name("462.libquantum").expect("known benchmark");
    println!(
        "telemetry overhead on {} (best of {runs}, gate {MAX_OVERHEAD_PCT}%)",
        bench_case.name
    );

    // Off-mode purity: two cold default-config runs are bit-identical
    // (the seed semantics), and stay so against the telemetry-on run.
    let off_cfg = config(btel::TelemetryMode::Off);
    let (off_wall, off) = best_of(runs, &off_cfg, &bench_case.module);
    let (repeat_wall, repeat) = best_of(1, &off_cfg, &bench_case.module);
    assert_identical(&off, &repeat, "off vs off repeat");
    assert!(off.registry.is_none(), "Off mode must export no registry");
    assert!(off.spans.is_empty(), "Off mode must record no spans");

    let (on_wall, on) = best_of(runs, &config(btel::TelemetryMode::On), &bench_case.module);
    assert_identical(&off, &on, "telemetry on vs off");

    let overhead_pct = 100.0 * (on_wall - off_wall) / off_wall;
    bench::print_table(
        "Telemetry overhead (bit-identity asserted across the switch)",
        &["mode", "wall_s", "overhead", "spans", "families"],
        &[
            vec![
                "off".to_string(),
                format!("{off_wall:.3}"),
                "-".to_string(),
                "0".to_string(),
                "0".to_string(),
            ],
            vec![
                "off (repeat)".to_string(),
                format!("{repeat_wall:.3}"),
                "-".to_string(),
                "0".to_string(),
                "0".to_string(),
            ],
            vec![
                "on".to_string(),
                format!("{on_wall:.3}"),
                format!("{overhead_pct:+.2}%"),
                on.spans.len().to_string(),
                on.registry
                    .as_ref()
                    .expect("registry")
                    .render_text()
                    .lines()
                    .filter(|l| l.starts_with("# TYPE"))
                    .count()
                    .to_string(),
            ],
        ],
    );

    // CI artifact hooks.
    let registry = on.registry.as_ref().expect("telemetry registry");
    if let Ok(path) = std::env::var("BTEL_EXPOSITION_OUT") {
        std::fs::write(&path, registry.render_text()).expect("write exposition artifact");
        println!("exposition written to {path}");
    }
    if let Ok(path) = std::env::var("BTEL_TRACE_OUT") {
        std::fs::write(&path, btel::spans_to_jsonl(&on.spans)).expect("write trace artifact");
        println!("trace written to {path}");
    }

    assert!(
        overhead_pct < MAX_OVERHEAD_PCT,
        "telemetry overhead {overhead_pct:.2}% exceeds the {MAX_OVERHEAD_PCT}% gate \
         ({on_wall:.3}s on vs {off_wall:.3}s off)"
    );
    println!("telemetry on bit-identical to off, overhead {overhead_pct:+.2}% (gate {MAX_OVERHEAD_PCT}%): OK");
}
