//! Output checks: every job's result is verified from outside the tuner.

use crate::jobs::{observe, Job, Target};
use binrep::{Arch, Binary};
use bintuner::{TuneResult, Tuner, TunerConfig};
use minicc::{Compiler, CompilerKind};

/// What a job returned, whatever the deployment shape.
pub struct Outcome {
    pub job: Job,
    pub best_flags: Vec<bool>,
    pub best_ncd_bits: u64,
    pub iterations: usize,
    /// The tuned binary, when the backend hands it over (the daemon's
    /// wire result does not; its winner is recompiled here).
    pub best_binary: Option<Binary>,
    /// The baseline binary the tuner scored against, when handed over.
    pub baseline: Option<Binary>,
}

impl Outcome {
    pub fn from_result(job: Job, r: TuneResult) -> Outcome {
        Outcome {
            job,
            best_ncd_bits: r.best_ncd.to_bits(),
            iterations: r.iterations,
            best_flags: r.best_flags,
            best_binary: Some(r.best_binary),
            baseline: Some(r.baseline),
        }
    }

    /// The fields two runs of the same job must agree on bit for bit.
    pub fn fingerprint(&self) -> (&[bool], u64, usize) {
        (&self.best_flags, self.best_ncd_bits, self.iterations)
    }
}

/// The in-process reference run of `job` (default configuration).
pub fn reference(targets: &[Target], job: Job) -> Result<Outcome, String> {
    let config = TunerConfig {
        seed: job.seed,
        ..TunerConfig::default()
    };
    Tuner::new(config)
        .tune(&targets[job.target].module)
        .map(|r| Outcome::from_result(job, r))
        .map_err(|e| format!("reference tune failed: {e}"))
}

/// Verify one outcome:
/// * the baseline it scored against is the independently compiled `-O0`;
/// * `best_ncd` recomputes bit-exactly from `encode_binary` + `score` on
///   the winning binary;
/// * the winning binary behaves like `-O0` on every test input;
/// * when a reference is given, flags, NCD bits and iterations match it.
pub fn verify(
    targets: &[Target],
    out: &Outcome,
    reference: Option<&Outcome>,
) -> Result<(), String> {
    let t = &targets[out.job.target];
    let what = |msg: String| format!("{} seed {:#x}: {msg}", t.name, out.job.seed);
    if let Some(baseline) = &out.baseline {
        if binrep::encode_binary(baseline) != t.baseline_code {
            return Err(what("baseline differs from the -O0 compile".into()));
        }
    }
    let recompiled;
    let best = match &out.best_binary {
        Some(b) => b,
        None => {
            recompiled = Compiler::new(CompilerKind::Gcc)
                .compile(&t.module, &out.best_flags, Arch::X86)
                .map_err(|e| what(format!("winner does not recompile: {e}")))?;
            &recompiled
        }
    };
    let ncd = t.ncd.score(&binrep::encode_binary(best));
    if ncd.to_bits() != out.best_ncd_bits {
        return Err(what(format!(
            "best_ncd {} does not recompute (got {ncd})",
            f64::from_bits(out.best_ncd_bits)
        )));
    }
    for (inputs, want) in t.test_inputs.iter().zip(&t.oracle) {
        let got = observe(best, inputs).map_err(|e| what(format!("winner run failed: {e}")))?;
        if &got != want {
            return Err(what(format!(
                "winner output differs from -O0 on {inputs:?}"
            )));
        }
    }
    if let Some(r) = reference {
        if out.fingerprint() != r.fingerprint() {
            return Err(what(format!(
                "differs from the in-process reference: ncd {} vs {}, iterations {} vs {}",
                f64::from_bits(out.best_ncd_bits),
                f64::from_bits(r.best_ncd_bits),
                out.iterations,
                r.iterations
            )));
        }
    }
    Ok(())
}

/// Tally of checked jobs.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one job; a failure is reported on stderr.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {e}");
        }
    }
}
