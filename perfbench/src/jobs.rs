//! The seeded job draw and the per-module facts every output check needs.

use crate::util::Rng;
use binrep::Arch;
use lzc::NcdBaseline;
use minicc::ast::Module;
use minicc::{Compiler, CompilerKind, OptLevel};

/// The module pool the workloads draw from (SPEC analogs; the comments
/// give cold-tune times on a 2-vCPU x86-64 VM). The pool is fixed so that
/// every seed measures the same size mix; the seed draws the GA seeds
/// and the job order.
pub const POOL: [&str; 6] = [
    "429.mcf",         // small (~0.3 s)
    "657.xz_s",        // mid (~0.9 s)
    "445.gobmk",       // large (~1.4 s)
    "605.mcf_s",       // small (~0.33 s)
    "462.libquantum",  // small (~0.4 s)
    "648.exchange2_s", // small (~0.4 s)
];

/// One round of `cold_inproc`: small, mid, mid, large. With whole rounds,
/// half the jobs are mid-size, so the median job (and, with ~20 jobs, the
/// tail job) falls in the middle of one cluster of similar job times —
/// not on the edge between two modules' clusters, where it would jump
/// with each seed's GA trajectories.
pub const ROUND: [usize; 4] = [0, 1, 1, 2];

/// The small modules: one round of the `farm_tune` and `warm_retune`
/// pairs. Their jobs are short and similar in length, so a run holds many
/// distinct pairs (its work does not hinge on a few GA seeds) and, on the
/// farm, the wire, dispatch and launch are a large share of a job.
pub const SMALL: [usize; 4] = [0, 3, 4, 5];

/// The daemon's two tenants tune two *different* modules of similar size,
/// so the shared farm switches modules between them while their job times
/// stay one cluster.
pub const TENANTS: [(&str, usize); 2] = [("tenant-a", 0), ("tenant-b", 3)];

/// Instruction budget for one emulator run of a check.
const EMU_FUEL: u64 = 20_000_000;

/// One pool module, with the oracle its outputs are checked against.
pub struct Target {
    pub name: &'static str,
    pub module: Module,
    pub test_inputs: Vec<Vec<u32>>,
    /// Encoded `-O0` baseline, compiled here independently of the tuner.
    pub baseline_code: Vec<u8>,
    pub ncd: NcdBaseline,
    /// `-O0` emulator outputs per test input: the differential oracle.
    pub oracle: Vec<Vec<u32>>,
}

/// One tuning job: a pool module and a GA seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    pub target: usize,
    pub seed: u64,
}

/// Generate the pool and its oracles (part of every workload's set-up).
pub fn prepare_targets() -> Result<Vec<Target>, String> {
    let compiler = Compiler::new(CompilerKind::Gcc);
    let mut corpus = corpus::all_benign();
    POOL.iter()
        .map(|&name| {
            let at = corpus.iter().position(|b| b.name == name);
            let bench = corpus.swap_remove(at.ok_or(format!("{name} missing from corpus"))?);
            let o0 = compiler
                .compile_preset(&bench.module, OptLevel::O0, Arch::X86)
                .map_err(|e| format!("{name}: -O0 compile failed: {e}"))?;
            let oracle = bench
                .test_inputs
                .iter()
                .map(|inputs| observe(&o0, inputs))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{name}: -O0 run failed: {e}"))?;
            let baseline_code = binrep::encode_binary(&o0);
            Ok(Target {
                name,
                module: bench.module,
                test_inputs: bench.test_inputs,
                ncd: NcdBaseline::new(baseline_code.clone()),
                baseline_code,
                oracle,
            })
        })
        .collect()
}

/// Emulator outputs of `bin` on one input vector.
pub fn observe(bin: &binrep::Binary, inputs: &[u32]) -> Result<Vec<u32>, emu::EmuError> {
    Ok(emu::Machine::new(bin).run(&[], inputs, EMU_FUEL)?.output)
}

/// The seeded draw.
pub struct Draw {
    rng: Rng,
}

impl Draw {
    pub fn new(workload: &str, seed: u64) -> Draw {
        // Mix the workload name in, so two workloads under one seed do
        // not share GA seeds.
        let salt = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Draw {
            rng: Rng::new(seed ^ salt),
        }
    }

    /// A GA seed.
    pub fn seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// One round: each of `targets` once, in a seeded order, each with a
    /// fresh GA seed.
    pub fn fresh_round(&mut self, targets: &[usize]) -> Vec<Job> {
        let mut order = targets.to_vec();
        self.rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|target| Job {
                target,
                seed: self.seed(),
            })
            .collect()
    }

    /// One round over a fixed job set, in a seeded order.
    pub fn replay_round(&mut self, jobs: &[Job]) -> Vec<Job> {
        let mut round = jobs.to_vec();
        self.rng.shuffle(&mut round);
        round
    }
}
