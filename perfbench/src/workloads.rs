//! The four deployment-shape workloads: set-up, the measured phase (a
//! closed loop: each client sends its next job when the last one is
//! done), and the traced attribution run.

use crate::check::{reference, verify, Outcome, Tally};
use crate::jobs::{prepare_targets, Draw, Job, Target, ROUND, SMALL, TENANTS};
use crate::traced::{traced_tune, Layers};
use crate::util::cpu_seconds;
use bintuner::{
    Backend, Daemon, DaemonAddr, DaemonClient, DaemonConfig, DaemonHandle, ProcessFarm,
    ServiceConfig, TransportKind, Tuner, TunerConfig, WorkerMode,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The four deployment shapes, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ColdInproc,
    WarmRetune,
    FarmTune,
    Daemon2Tenant,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 4] = [ColdInproc, WarmRetune, FarmTune, Daemon2Tenant];

    pub fn name(self) -> &'static str {
        match self {
            ColdInproc => "cold_inproc",
            WarmRetune => "warm_retune",
            FarmTune => "farm_tune",
            Daemon2Tenant => "daemon_2tenant",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up repetitions per run; `setup_s` is their median. Five where
    /// a set-up takes tens of milliseconds, three where it fills a store
    /// with cold tunes.
    pub fn setup_repeats(self) -> usize {
        match self {
            WarmRetune => 3,
            _ => 5,
        }
    }

    /// Seconds one round takes on the reference host (a 2-vCPU x86-64
    /// VM). The measured phase runs a fixed number of whole rounds sized
    /// from `--seconds` by this, so a seed always measures the same jobs
    /// — however fast the host — and lasts about `--seconds` there.
    fn nominal_round_s(self) -> f64 {
        match self {
            ColdInproc => 3.0,
            WarmRetune => 0.25,
            // All sixteen pairs.
            FarmTune => 8.0,
            // One job per tenant.
            Daemon2Tenant => 1.4,
        }
    }

    /// Rounds of the measured phase's plan that a traced in-process or
    /// farm run replays: 8 cold jobs, 32 warm re-tunes (~30x cheaper
    /// each), the 16 farm pairs once. Fixed, so the traced counts repeat
    /// exactly for a given seed.
    fn traced_rounds(self) -> usize {
        match self {
            WarmRetune => 4,
            FarmTune => 1,
            _ => 2,
        }
    }
}

/// Jobs per tenant in each phase of a traced daemon run.
const TRACED_DAEMON_JOBS: usize = 3;

/// Invocation options shared by every workload.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// The same-build `bintuner` binary the process farm re-execs.
    pub worker: Option<PathBuf>,
    /// Scratch directory for stores and sockets (relative to the
    /// checkout, so socket paths stay short).
    pub state: PathBuf,
}

impl Options {
    fn draw(&self, salt: &str) -> Draw {
        Draw::new(&format!("{}/{salt}", self.workload.name()), self.seed)
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.state.join(name)
    }

    /// The process-farm shape of `farm_tune` and `daemon_2tenant`: two
    /// worker processes over Unix sockets. A missing worker binary is a
    /// hard error — these workloads never fall back to threads.
    fn farm(&self) -> Result<ServiceConfig, String> {
        let worker = self
            .worker
            .clone()
            .ok_or("no --worker-binary given; the process farm needs the bintuner binary")?;
        if !worker.is_file() {
            return Err(format!(
                "bintuner worker binary missing at {} (build it from this checkout with \
                 `cargo build --release -p bintuner`)",
                worker.display()
            ));
        }
        Ok(ServiceConfig {
            clients: 2,
            transport: TransportKind::Unix,
            workers: WorkerMode::Processes(ProcessFarm {
                worker_binary: Some(worker),
                ..ProcessFarm::default()
            }),
            ..ServiceConfig::default()
        })
    }
}

fn tuner_config(seed: u64) -> TunerConfig {
    TunerConfig {
        seed,
        ..TunerConfig::default()
    }
}

/// What a workload's set-up leaves ready for the measured phase.
pub struct Prepared {
    pub targets: Vec<Target>,
    /// The fixed job set of `warm_retune` and `farm_tune`.
    pub pairs: Vec<Job>,
    /// `warm_retune`: the cold fill results, which every warm re-tune
    /// must reproduce.
    pub references: HashMap<Job, Outcome>,
    /// `warm_retune`: the filled store, kept pristine.
    pub pristine: Option<PathBuf>,
    pub farm: Option<ServiceConfig>,
    /// `daemon_2tenant`: the running daemon.
    pub daemon: Option<DaemonHandle>,
}

/// One set-up: generate the pool and its oracles, draw the jobs, and
/// bring the deployment up (fill the store, probe the farm, launch the
/// daemon). `rep` numbers the repetition so each gets its own state.
pub fn setup(opts: &Options, rep: usize) -> Result<Prepared, String> {
    let targets = prepare_targets()?;
    let mut draw = opts.draw("pairs");
    let pairs = match opts.workload {
        // Eight pairs: each store fill is a cold tune.
        WarmRetune => (0..2).flat_map(|_| draw.fresh_round(&SMALL)).collect(),
        // Sixteen pairs, each run twice: an in-process reference then
        // serves two farm jobs.
        FarmTune => (0..4).flat_map(|_| draw.fresh_round(&SMALL)).collect(),
        ColdInproc | Daemon2Tenant => Vec::new(),
    };
    let mut prepared = Prepared {
        targets,
        pairs,
        references: HashMap::new(),
        pristine: None,
        farm: None,
        daemon: None,
    };
    match opts.workload {
        ColdInproc => {}
        WarmRetune => {
            let dir = opts.dir(&format!("fill-{rep}"));
            for &job in &prepared.pairs {
                let config = TunerConfig {
                    cache_path: Some(dir.clone()),
                    ..tuner_config(job.seed)
                };
                let r = Tuner::new(config)
                    .tune(&prepared.targets[job.target].module)
                    .map_err(|e| format!("store fill failed: {e}"))?;
                prepared
                    .references
                    .insert(job, Outcome::from_result(job, r));
            }
            prepared.pristine = Some(dir);
        }
        FarmTune => {
            let farm = opts.farm()?;
            // Probe: one launch + teardown proves the worker binary
            // handshakes with this build's wire before anything is timed.
            let probe = bintuner::service::ServiceHandle::launch(
                &farm,
                minicc::CompilerKind::Gcc,
                &prepared.targets[0].module,
                binrep::Arch::X86,
                true,
            )
            .map_err(|e| format!("farm probe launch failed: {e}"))?;
            probe.finish();
            prepared.farm = Some(farm);
        }
        Daemon2Tenant => {
            prepared.daemon = Some(launch_daemon(opts, &format!("daemon-{rep}"), false)?);
        }
    }
    Ok(prepared)
}

fn launch_daemon(opts: &Options, name: &str, telemetry: bool) -> Result<DaemonHandle, String> {
    let farm = opts.farm()?;
    let dir = opts.dir(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = TunerConfig {
        telemetry: if telemetry {
            btel::TelemetryMode::On
        } else {
            btel::TelemetryMode::Off
        },
        ..TunerConfig::default()
    };
    let handle = Daemon::launch(DaemonConfig {
        transport: TransportKind::Unix,
        unix_path: Some(dir.join("d.sock")),
        base,
        store_path: Some(dir.join("store")),
        farm,
        runners: 2,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon launch failed: {e}"))?;
    // Both tenants must be able to connect before the daemon counts as up.
    for _ in TENANTS {
        DaemonClient::connect(handle.addr()).map_err(|e| format!("daemon connect failed: {e}"))?;
    }
    Ok(handle)
}

/// Copy a store directory (flat: the store keeps no subdirectories).
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copying {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

/// The measured phase's raw results.
#[derive(Default)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub job_walls: Vec<f64>,
    pub evaluations: u64,
    pub tally: Tally,
}

/// One finished job of the closed loop.
struct Done {
    wall: f64,
    result: Result<Outcome, String>,
}

/// Run `plan` in order, one job at a time; returns the phase's wall.
fn run_plan(plan: &[Job], mut run: impl FnMut(Job) -> Result<Outcome, String>) -> (f64, Vec<Done>) {
    let start = Instant::now();
    let done = plan
        .iter()
        .map(|&job| {
            let t = Instant::now();
            let result = run(job);
            Done {
                wall: t.elapsed().as_secs_f64(),
                result,
            }
        })
        .collect();
    (start.elapsed().as_secs_f64(), done)
}

fn rounds(opts: &Options) -> usize {
    (opts.seconds / opts.workload.nominal_round_s())
        .round()
        .max(1.0) as usize
}

/// The measured phase's job list: `rounds` rounds of fresh jobs
/// (`cold_inproc`) or of the set-up's fixed job set (`warm_retune`,
/// `farm_tune`).
fn plan(opts: &Options, p: &Prepared, rounds: usize) -> Vec<Job> {
    let mut draw = opts.draw("jobs");
    (0..rounds)
        .flat_map(|_| match opts.workload {
            ColdInproc => draw.fresh_round(&ROUND),
            _ => draw.replay_round(&p.pairs),
        })
        .collect()
}

fn tune(config: TunerConfig, target: &Target, job: Job) -> Result<Outcome, String> {
    Tuner::new(config)
        .tune(&target.module)
        .map(|r| Outcome::from_result(job, r))
        .map_err(|e| format!("{} seed {:#x}: tune failed: {e}", target.name, job.seed))
}

/// The untraced measured phase (`TelemetryMode::Off` everywhere), then
/// the output checks.
pub fn measure(opts: &Options, mut p: Prepared) -> Result<Measured, String> {
    let cpu0 = cpu_seconds();
    let targets = &p.targets;
    let plan = plan(opts, &p, rounds(opts));
    let (wall_s, done) = match opts.workload {
        ColdInproc => run_plan(&plan, |job| {
            tune(tuner_config(job.seed), &targets[job.target], job)
        }),
        WarmRetune => {
            let work = opts.dir("work");
            copy_dir(p.pristine.as_ref().expect("filled store"), &work)?;
            run_plan(&plan, |job| {
                let config = TunerConfig {
                    cache_path: Some(work.clone()),
                    ..tuner_config(job.seed)
                };
                tune(config, &targets[job.target], job)
            })
        }
        FarmTune => {
            let farm = p.farm.clone().expect("farm configured");
            run_plan(&plan, |job| {
                let config = TunerConfig {
                    backend: Backend::Service(farm.clone()),
                    ..tuner_config(job.seed)
                };
                tune(config, &targets[job.target], job)
            })
        }
        Daemon2Tenant => {
            let daemon = p.daemon.take().expect("daemon launched");
            let phase = daemon_phase(opts, &daemon, targets, rounds(opts))?;
            // Shut down inside the CPU window, so the farm workers are
            // reaped and their CPU time counted.
            daemon.shutdown();
            let done = phase.jobs.into_iter().map(|j| j.done).collect();
            (phase.wall_s, done)
        }
    };
    let cpu_s = cpu_seconds() - cpu0;

    let mut m = Measured {
        wall_s,
        cpu_s,
        ..Measured::default()
    };
    let refs = references_for(opts, &mut p, &done)?;
    for d in done {
        m.job_walls.push(d.wall);
        let checked = d.result.and_then(|out| {
            m.evaluations += out.iterations as u64;
            verify(&p.targets, &out, refs.get(&out.job))
        });
        m.tally.record(checked);
    }
    Ok(m)
}

/// The in-process references a workload's jobs are matched against:
/// the store fill for `warm_retune`, a fresh `Tuner::tune` per distinct
/// job for the farm and daemon shapes, none for `cold_inproc` (which is
/// the in-process path itself).
fn references_for(
    opts: &Options,
    p: &mut Prepared,
    done: &[Done],
) -> Result<HashMap<Job, Outcome>, String> {
    let mut refs = std::mem::take(&mut p.references);
    if matches!(opts.workload, FarmTune | Daemon2Tenant) {
        for d in done {
            if let Ok(out) = &d.result {
                if let Entry::Vacant(slot) = refs.entry(out.job) {
                    slot.insert(reference(&p.targets, out.job)?);
                }
            }
        }
    }
    Ok(refs)
}

struct DaemonJob {
    done: Done,
    submit_s: f64,
    fetch_s: f64,
    rejected: bool,
}

struct DaemonPhase {
    wall_s: f64,
    jobs: Vec<DaemonJob>,
}

/// Two tenant threads, each with its own connection and its own module,
/// submitting a job and waiting for its result in a closed loop.
fn daemon_phase(
    opts: &Options,
    daemon: &DaemonHandle,
    targets: &[Target],
    jobs_per_tenant: usize,
) -> Result<DaemonPhase, String> {
    let addr: DaemonAddr = daemon.addr().clone();
    let start = Instant::now();
    let per_tenant: Vec<Result<Vec<DaemonJob>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|&(tenant, target)| {
                let addr = addr.clone();
                let mut draw = opts.draw(tenant);
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(&addr)
                        .map_err(|e| format!("{tenant}: connect failed: {e}"))?;
                    let mut jobs = Vec::new();
                    while jobs.len() < jobs_per_tenant {
                        let job = Job {
                            target,
                            seed: draw.seed(),
                        };
                        jobs.push(daemon_job(&mut client, tenant, &targets[target], job));
                    }
                    Ok(jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for tenant in per_tenant {
        jobs.extend(tenant?);
    }
    Ok(DaemonPhase { wall_s, jobs })
}

fn daemon_job(client: &mut DaemonClient, tenant: &str, target: &Target, job: Job) -> DaemonJob {
    let t = Instant::now();
    let submitted = client.submit(tenant, &target.module, job.seed, 700, false, 0);
    let submit_s = t.elapsed().as_secs_f64();
    let mut rejected = false;
    let result = match submitted {
        Err(e) => Err(format!("{tenant}: submit transport error: {e}")),
        Ok(Err((code, detail))) => {
            rejected = true;
            Err(format!("{tenant}: rejected {code:?}: {detail}"))
        }
        Ok(Ok(id)) => match client.fetch_result(id) {
            Err(e) => Err(format!("{tenant}: fetch transport error: {e}")),
            Ok(Err(msg)) => Err(format!("{tenant}: job failed: {msg}")),
            Ok(Ok(o)) => Ok(Outcome {
                job,
                best_flags: o.best_flags,
                best_ncd_bits: o.best_ncd_bits,
                iterations: o.iterations as usize,
                best_binary: None,
                baseline: None,
            }),
        },
    };
    let wall = t.elapsed().as_secs_f64();
    DaemonJob {
        done: Done { wall, result },
        submit_s,
        fetch_s: wall - submit_s,
        rejected,
    }
}

/// The traced run: every job through the program's own entry point
/// (untraced) and through the traced harness or a telemetry-on daemon,
/// with the layer totals of the traced side.
pub fn trace(opts: &Options, mut p: Prepared) -> Result<(Layers, Tally), String> {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let targets = &p.targets;
    if opts.workload == Daemon2Tenant {
        // Untraced phase on the set-up daemon, then the same jobs (same
        // seeds, a fresh store) on a daemon whose jobs run with
        // TelemetryMode::On.
        let plain = p.daemon.take().expect("daemon launched");
        let a = daemon_phase(opts, &plain, targets, TRACED_DAEMON_JOBS)?;
        plain.shutdown();
        let traced = launch_daemon(opts, "daemon-traced", true)?;
        let b = daemon_phase(opts, &traced, targets, TRACED_DAEMON_JOBS)?;
        let registry = traced.registry();
        let snapshot = traced.metrics_snapshot();
        traced.shutdown();
        daemon_layers(&mut layers, &a, &b, &registry, &snapshot);
        let done: Vec<Done> = a.jobs.into_iter().chain(b.jobs).map(|j| j.done).collect();
        let refs = references_for(opts, &mut p, &done)?;
        for d in done {
            tally.record(
                d.result
                    .and_then(|out| verify(&p.targets, &out, refs.get(&out.job))),
            );
        }
        return Ok((layers, tally));
    }

    let jobs = plan(opts, &p, opts.workload.traced_rounds());
    let work = opts.dir("work");
    let store = match &p.pristine {
        Some(pristine) => {
            copy_dir(pristine, &work)?;
            Some(work.as_path())
        }
        None => None,
    };
    let farm = p.farm.clone();
    let mut refs = std::mem::take(&mut p.references);
    for (i, job) in jobs.into_iter().enumerate() {
        let config = TunerConfig {
            cache_path: store.map(Path::to_path_buf),
            backend: farm.clone().map_or(Backend::InProcess, Backend::Service),
            ..tuner_config(job.seed)
        };
        // Whichever of a pair runs first pays for the process's colder
        // state, so the order alternates job by job.
        let untraced_run = || {
            let t = Instant::now();
            let out = tune(config.clone(), &targets[job.target], job);
            (out, t.elapsed().as_secs_f64())
        };
        let ((untraced, untraced_s), traced) = if i % 2 == 0 {
            let u = untraced_run();
            (
                u,
                traced_tune(targets, job, store, farm.as_ref(), &mut layers),
            )
        } else {
            let t = traced_tune(targets, job, store, farm.as_ref(), &mut layers);
            (untraced_run(), t)
        };
        layers.untraced_wall_s += untraced_s;
        let checked = untraced.and_then(|u| {
            let t = traced?;
            if t.fingerprint() != u.fingerprint() {
                return Err(format!(
                    "traced harness diverged from Tuner::tune on {} seed {:#x}",
                    targets[job.target].name, job.seed
                ));
            }
            if farm.is_some() {
                if let Entry::Vacant(slot) = refs.entry(job) {
                    slot.insert(reference(targets, job)?);
                }
            }
            verify(targets, &t, None)?;
            verify(targets, &u, refs.get(&job))
        });
        tally.record(checked);
    }
    Ok((layers, tally))
}

fn daemon_layers(
    l: &mut Layers,
    untraced: &DaemonPhase,
    traced: &DaemonPhase,
    registry: &btel::Registry,
    snapshot: &bintuner::daemon::metrics::MetricsSnapshot,
) {
    let latency = |p: &DaemonPhase| p.jobs.iter().map(|j| j.done.wall).sum::<f64>();
    l.jobs = traced.jobs.len() as u64;
    l.untraced_wall_s = latency(untraced);
    l.traced_wall_s = latency(traced);
    let job_s = registry.histogram(
        "bintuner_daemon_job_seconds",
        "Wall time of each job from claim to terminal state.",
    );
    l.daemon_job_s = job_s.sum_us() as f64 * 1e-6;
    l.daemon_submit_s = traced.jobs.iter().map(|j| j.submit_s).sum();
    l.daemon_fetch_s = traced.jobs.iter().map(|j| j.fetch_s).sum();
    l.attributed_s = l.daemon_job_s + l.daemon_submit_s;
    l.daemon_rejects = traced.jobs.iter().filter(|j| j.rejected).count() as u64
        + registry
            .label_values("bintuner_daemon_rejects_total")
            .iter()
            .filter_map(|t| registry.counter_value("bintuner_daemon_rejects_total", Some(t)))
            .sum::<u64>();
    l.daemon_failed_jobs = snapshot.failed;
    l.launches = snapshot.farm_launches;
    l.evaluations = traced
        .jobs
        .iter()
        .filter_map(|j| j.done.result.as_ref().ok())
        .map(|o| o.iterations as u64)
        .sum();
    let dispatch = registry.histogram(
        "bintuner_farm_dispatch_seconds",
        "shard dispatch-to-first-result wall clock",
    );
    l.dispatch_s = dispatch.sum_us() as f64 * 1e-6;
    l.dispatches = dispatch.count();
    l.redispatched = registry
        .counter_value("bintuner_farm_redispatched_total", None)
        .unwrap_or(0);
    l.clients_lost = registry
        .counter_value("bintuner_farm_clients_lost_total", None)
        .unwrap_or(0);
}
