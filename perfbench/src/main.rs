//! perfbench: the tuning benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--worker-binary <path>] [--state-dir <dir>]
//! ```
//!
//! Runs one workload (see `workloads::Workload`) for `--seconds` of
//! closed-loop tune jobs drawn from `--seed`, checks every job's output,
//! and prints one JSON result line last on stdout. `--trace 0` reports
//! the end-to-end metrics of an untraced run; `--trace 1` reports the
//! per-layer metrics of the traced attribution run. Exits non-zero when
//! any output check fails or the workload cannot run.

mod check;
mod jobs;
mod traced;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;
use traced::Layers;
use util::{count_loc, median, put, result_json, tail, Metrics};
use workloads::{Options, Workload};

/// The crates whose line counts are reported as `loc.<crate>` (a crate
/// that no longer exists reports 0; `loc.total` counts every crate).
const CRATES: [&str; 16] = [
    "avscan",
    "bench",
    "binhunt",
    "binrep",
    "bintuner",
    "btel",
    "corpus",
    "difftools",
    "emu",
    "evald",
    "genetic",
    "lzc",
    "minicc",
    "perfmodel",
    "satz",
    "testutil",
];

/// Jobs that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--worker-binary <path>] [--state-dir <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

struct Args {
    opts: Options,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut state = PathBuf::from(".bench_state");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--worker-binary" => worker = Some(PathBuf::from(value)),
            "--state-dir" => state = PathBuf::from(value),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    Args {
        opts: Options {
            workload,
            seed: seed.unwrap_or_else(|| usage()),
            seconds: seconds.unwrap_or_else(|| usage()),
            worker,
            state,
        },
        trace: trace.unwrap_or_else(|| usage()),
    }
}

fn main() {
    let mut args = parse_args();
    // Stores, sockets and the farm's temp files all live under a per-run
    // directory inside the checkout, removed on the way out.
    args.opts.state = args.opts.state.join(std::process::id().to_string());
    let state = args.opts.state.clone();
    let code = match std::fs::create_dir_all(state.join("tmp")) {
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", state.display());
            1
        }
        Ok(()) => {
            // The farm and daemon name their sockets under the temp dir;
            // a relative path keeps them short and inside the checkout.
            std::env::set_var("TMPDIR", state.join("tmp"));
            match run(&args) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", args.opts.workload.name());
                    1
                }
            }
        }
    };
    let _ = std::fs::remove_dir_all(&state);
    std::process::exit(code);
}

fn run(args: &Args) -> Result<i32, String> {
    let opts = &args.opts;
    let mut setup_times = Vec::new();
    let mut prepared = None;
    for rep in 0..opts.workload.setup_repeats() {
        // Tear the previous repetition down before timing the next.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(workloads::setup(opts, rep)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let setup_s = median(&setup_times);

    let mut metrics = Metrics::new();
    let (attempted, failed) = if args.trace {
        let (layers, tally) = workloads::trace(opts, prepared)?;
        per_layer(&mut metrics, &layers)?;
        (tally.attempted, tally.failed)
    } else {
        let m = workloads::measure(opts, prepared)?;
        if m.job_walls.is_empty() || m.evaluations == 0 {
            return Err("no job completed".into());
        }
        let (tail_s, tail_pct) = tail(&m.job_walls, TAIL_BEYOND);
        let evals = m.evaluations as f64;
        put(&mut metrics, "evals_per_s", evals / m.wall_s, "1/s");
        put(&mut metrics, "job_s_p50", median(&m.job_walls), "s");
        put(&mut metrics, "job_s_tail", tail_s, "s");
        put(&mut metrics, "cpu_ms_per_eval", 1e3 * m.cpu_s / evals, "ms");
        put(&mut metrics, "setup_s", setup_s, "s");
        println!(
            "{}: {} jobs ({} failed, error_rate {}), {} evaluations in {:.3} s; \
             job_s_tail is p{:.0} of {} jobs; peak RSS {:.1} MiB",
            opts.workload.name(),
            m.tally.attempted,
            m.tally.failed,
            m.tally.failed as f64 / m.tally.attempted as f64,
            m.evaluations,
            m.wall_s,
            tail_pct,
            m.job_walls.len(),
            util::peak_rss_mb()
        );
        (m.tally.attempted, m.tally.failed)
    };
    for (name, m) in &metrics {
        println!("  {name:<28} {:>14.6} {}", m.value, m.unit);
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn per_layer(m: &mut Metrics, l: &Layers) -> Result<(), String> {
    put(m, "genetic.breed_s", l.breed_s, "s");
    put(m, "genetic.batches", l.batches as f64, "count");
    put(m, "satz.repair_s", l.repair_s, "s");
    put(m, "satz.repair_calls", l.repair_calls as f64, "count");

    put(m, "engine.baseline_s", l.baseline_s, "s");
    put(m, "engine.batch_s", l.batch_s, "s");
    put(m, "engine.miss_s", l.miss_s, "s");
    // Only lower and mir run inside a miss's timer (ast runs in the
    // batch's production phase, check in its partition), so they are
    // what a miss's own stages cover.
    put(
        m,
        "engine.miss_unstaged_s",
        (l.miss_s - l.lower_s - l.mir_s).max(0.0),
        "s",
    );
    put(m, "engine.recompile_s", l.recompile_s, "s");
    put(m, "engine.teardown_s", l.teardown_s, "s");
    put(m, "engine.evaluations", l.evaluations as f64, "count");
    put(
        m,
        "engine.failed_compiles",
        l.failed_compiles as f64,
        "count",
    );
    let evals = l.evaluations as f64;
    put(
        m,
        "engine.compiles_per_eval",
        ratio(l.compiles as f64, evals),
        "ratio",
    );
    put(
        m,
        "engine.memo_hit_ratio",
        ratio(l.memo_hits as f64, evals),
        "ratio",
    );
    put(
        m,
        "engine.persistent_hit_ratio",
        ratio(l.persistent_hits as f64, evals),
        "ratio",
    );
    put(
        m,
        "engine.stage_reuse_ratio",
        ratio(l.stage_reuse as f64, l.compiles as f64),
        "ratio",
    );

    put(m, "minicc.check_s", l.check_s, "s");
    put(m, "minicc.ast_s", l.ast_s, "s");
    put(m, "minicc.lower_s", l.lower_s, "s");
    put(m, "minicc.mir_s", l.mir_s, "s");
    put(m, "minicc.ast_runs", l.ast_runs as f64, "count");
    put(m, "minicc.lower_runs", l.lower_runs as f64, "count");
    put(m, "minicc.mir_runs", l.mir_runs as f64, "count");

    put(m, "binrep.encode_s", l.encode_s, "s");
    put(m, "lzc.score_s", l.score_s, "s");
    put(m, "lzc.score_calls", l.score_calls as f64, "count");
    put(
        m,
        "lzc.score_us_per_call",
        1e6 * ratio(l.score_s, l.score_calls as f64),
        "us",
    );

    put(m, "store.load_s", l.store_load_s, "s");
    put(m, "store.save_s", l.store_save_s, "s");
    put(m, "store.records_loaded", l.records_loaded as f64, "count");
    put(m, "store.records_saved", l.records_saved as f64, "count");
    put(m, "store.shard_save_s", l.shard_save_s, "s");
    put(m, "store.artifact_save_s", l.artifact_save_s, "s");
    put(m, "store.lock_skips", l.lock_skips as f64, "count");

    put(m, "evald.launch_s", l.launch_s, "s");
    put(m, "evald.dispatch_s", l.dispatch_s, "s");
    put(m, "evald.dispatches", l.dispatches as f64, "count");
    put(m, "evald.shards", l.shards as f64, "count");
    put(m, "evald.redispatched", l.redispatched as f64, "count");
    put(
        m,
        "evald.duplicate_results",
        l.duplicate_results as f64,
        "count",
    );
    put(m, "evald.clients_lost", l.clients_lost as f64, "count");
    put(m, "evald.launches", l.launches as f64, "count");
    put(
        m,
        "evald.launches_per_job",
        ratio(l.launches as f64, l.jobs as f64),
        "ratio",
    );

    put(m, "daemon.submit_s", l.daemon_submit_s, "s");
    put(m, "daemon.fetch_wait_s", l.daemon_fetch_s, "s");
    put(m, "daemon.job_s", l.daemon_job_s, "s");
    let outside = if l.daemon_job_s > 0.0 {
        l.traced_wall_s - l.daemon_job_s
    } else {
        0.0
    };
    put(m, "daemon.outside_job_s", outside, "s");
    put(m, "daemon.rejects", l.daemon_rejects as f64, "count");
    put(
        m,
        "daemon.failed_jobs",
        l.daemon_failed_jobs as f64,
        "count",
    );

    put(m, "process.peak_rss_mb", util::peak_rss_mb(), "MiB");
    put(m, "trace.jobs", l.jobs as f64, "count");
    put(m, "trace.wall_s", l.traced_wall_s, "s");
    put(
        m,
        "trace.unattributed_frac",
        ratio(l.traced_wall_s - l.attributed_s, l.traced_wall_s),
        "ratio",
    );
    put(
        m,
        "trace.overhead_frac",
        ratio(l.traced_wall_s, l.untraced_wall_s) - 1.0,
        "ratio",
    );

    let counted = loc_per_crate(Path::new("crates"))?;
    for krate in CRATES {
        let lines = counted.iter().find(|(k, _)| k == krate).map_or(0, |c| c.1);
        m.insert(
            format!("loc.{krate}"),
            util::Metric {
                value: lines as f64,
                unit: "lines",
            },
        );
    }
    let total: u64 = counted.iter().map(|c| c.1).sum();
    put(m, "loc.total", total as f64, "lines");
    Ok(())
}

/// Non-test Rust lines of every `crates/<name>/src`.
fn loc_per_crate(crates: &Path) -> Result<Vec<(String, u64)>, String> {
    let err = |e: std::io::Error| format!("counting lines under {}: {e}", crates.display());
    let mut out = Vec::new();
    for entry in std::fs::read_dir(crates).map_err(err)? {
        let dir = entry.map_err(err)?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            out.push((name, count_loc(&src).map_err(err)?));
        }
    }
    out.sort();
    Ok(out)
}
