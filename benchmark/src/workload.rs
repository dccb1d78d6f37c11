//! The five workloads, the op a CLI analyst runs on each, and the
//! hand-written oracles its output is checked against.

use std::collections::BTreeMap;

use driver::{AnalysisConfig, Paradigm, ResilienceConfig};
use obs::json::Json;
use perflow::{Obs, PerFlow};
use simrt::RunConfig;

/// The second run a differential paradigm compares the main run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// No paradigm of the op needs one.
    None,
    /// Same program on fewer ranks (`Paradigm::Scalability`).
    SmallRanks,
    /// Same ranks on two threads (`Paradigm::Contention`).
    TwoThreads,
}

/// Ranks of the small run (`AnalysisConfig::small_ranks`).
pub const SMALL_RANKS: u32 = 16;
/// Threads of the contention reference run, fixed by `driver::analyze`.
pub const REFERENCE_THREADS: u32 = 2;

/// One benchmark workload: a bundled program at a paper-scale shape and
/// the analyses one op runs on it.
#[derive(Debug)]
pub struct Spec {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Name `driver::workload` knows the program by.
    pub program: &'static str,
    pub ranks: u32,
    pub threads: u32,
    pub reference: Reference,
    pub paradigms: &'static [Paradigm],
    /// A `driver::run_query` query run after the paradigms.
    pub query: Option<&'static str>,
    /// Whether the op ends with a `driver::comm_analysis_session`.
    pub comm_session: bool,
    /// The tail percentile `op_ms_tail` reports: the highest that keeps
    /// at least ten samples beyond it at this workload's op count.
    pub tail_pct: f64,
    /// True for `serve_mix`: ops are jobs served by an in-process daemon.
    pub served: bool,
}

pub const TOP5_QUERY: &str = "from vertices | sort time desc nan_last | top 5 | select name, time";

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "zeusmp_scalability",
        program: "zeusmp",
        ranks: 128,
        threads: 1,
        reference: Reference::SmallRanks,
        paradigms: &[Paradigm::Scalability],
        query: None,
        comm_session: false,
        tail_pct: 70.0,
        served: false,
    },
    Spec {
        name: "cg_profile_1024",
        program: "cg",
        ranks: 1024,
        threads: 1,
        reference: Reference::None,
        paradigms: &[Paradigm::MpiProfiler, Paradigm::Hotspot],
        query: Some(TOP5_QUERY),
        comm_session: false,
        tail_pct: 80.0,
        served: false,
    },
    Spec {
        name: "lammps_causal",
        program: "lammps",
        ranks: 128,
        threads: 1,
        reference: Reference::None,
        paradigms: &[Paradigm::Causal, Paradigm::CriticalPath],
        query: None,
        comm_session: true,
        tail_pct: 80.0,
        served: false,
    },
    Spec {
        name: "vite_contention",
        program: "vite",
        ranks: 64,
        threads: 8,
        reference: Reference::TwoThreads,
        paradigms: &[Paradigm::Contention],
        query: None,
        comm_session: false,
        tail_pct: 85.0,
        served: false,
    },
    // The cold job of the served mix; see `served::JobMix` for the rest.
    Spec {
        name: "serve_mix",
        program: "cg",
        ranks: 128,
        threads: 1,
        reference: Reference::None,
        paradigms: &[Paradigm::Hotspot],
        query: None,
        comm_session: false,
        tail_pct: 98.0,
        served: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn analysis_config(&self, sim_seed: u64) -> AnalysisConfig {
        AnalysisConfig {
            ranks: self.ranks,
            small_ranks: SMALL_RANKS,
            threads: self.threads,
            seed: sim_seed,
        }
    }

    pub fn run_config(&self, sim_seed: u64) -> RunConfig {
        RunConfig::new(self.ranks)
            .with_threads(self.threads)
            .with_seed(sim_seed)
    }

    /// The reference run's configuration; a 16-rank run where the op has
    /// none, so that two-run probes have an input on every workload.
    pub fn reference_config(&self, sim_seed: u64) -> RunConfig {
        match self.reference {
            Reference::TwoThreads => RunConfig::new(self.ranks).with_threads(REFERENCE_THREADS),
            Reference::SmallRanks | Reference::None => RunConfig::new(SMALL_RANKS),
        }
        .with_seed(sim_seed)
    }

    /// Whether any paradigm of the op walks the parallel view.
    pub fn needs_parallel_view(&self) -> bool {
        self.paradigms
            .iter()
            .any(|p| !matches!(p, Paradigm::MpiProfiler | Paradigm::Hotspot))
    }
}

/// The simulation seeds a workload cycles through, derived from the
/// benchmark seed (splitmix64) so that the program sees only generated
/// inputs. How much work an op is depends on its seed (which ranks lag
/// decides how far backtracking walks: ZeusMP ops span 330–610 ms), so a
/// run draws many and its medians sit near the middle of that spread
/// whatever the benchmark seed. The cycle is short enough that seeds
/// repeat within a run, which the digest check needs. Seeds stay below
/// 2^53: the daemon reads them from JSON numbers.
pub fn sim_seeds(bench_seed: u64, workload: &str) -> [u64; 32] {
    let mut state = bench_seed ^ driver::fnv_str(workload);
    std::array::from_fn(|_| splitmix64(&mut state) >> 11)
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cold analysis exactly as `perflow-cli` performs it:
/// `driver::workload` → `PerFlow::run` → `driver::analyze` (→ `run_query`
/// / `comm_analysis_session`) → `Report::render`. Returns everything the
/// user would read.
pub fn cli_op(spec: &Spec, sim_seed: u64, obs: &Obs) -> Result<String, String> {
    run_and_analyze(spec, spec.paradigms, true, sim_seed, obs)
}

/// What the daemon's executor does for one paradigm job of this shape,
/// through the driver directly.
pub fn direct_report(spec: &Spec, paradigm: Paradigm, sim_seed: u64) -> Result<String, String> {
    run_and_analyze(spec, &[paradigm], false, sim_seed, &Obs::disabled())
}

fn run_and_analyze(
    spec: &Spec,
    paradigms: &[Paradigm],
    query_and_session: bool,
    sim_seed: u64,
    obs: &Obs,
) -> Result<String, String> {
    let prog = driver::workload(spec.program).ok_or("unknown program")?;
    let pflow = PerFlow::new();
    let cfg = spec.analysis_config(sim_seed);
    let run = pflow
        .run(&prog, &spec.run_config(sim_seed).with_obs(obs.clone()))
        .map_err(|e| format!("run failed: {e}"))?;
    let mut out = String::new();
    for &paradigm in paradigms {
        let report =
            driver::analyze(&pflow, &prog, &run, paradigm, &cfg).map_err(|e| e.to_string())?;
        out.push_str(&report.render());
    }
    if !query_and_session {
        return Ok(out);
    }
    if let Some(text) = spec.query {
        let outcome = driver::run_query(&run, text).map_err(|e| e.to_string())?;
        if !outcome.executed() {
            return Err(format!("query rejected: {}", outcome.diagnostics.summary()));
        }
        out.push_str(&outcome.render_text());
    }
    if spec.comm_session {
        let context = driver::checkpoint_context(spec.program, &cfg, &run);
        let session =
            driver::comm_analysis_session(&run, obs, &ResilienceConfig::default(), context)
                .map_err(|e| e.to_string())?;
        out.push_str(&session.report);
    }
    Ok(out)
}

/// `expected.json`: per oracle name, the strings a correct output must
/// contain (the root causes the bundled programs plant).
pub struct Oracles(BTreeMap<String, Vec<String>>);

impl Oracles {
    pub fn load(dir: &str) -> Result<Oracles, String> {
        let path = format!("{dir}/expected.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let Json::Obj(fields) = Json::parse(&text).map_err(|e| format!("{path}: {e}"))? else {
            return Err(format!("{path}: not an object"));
        };
        let mut map = BTreeMap::new();
        for (key, value) in fields {
            let Json::Arr(items) = value else {
                return Err(format!("{path}: `{key}` is not an array"));
            };
            let strings = items
                .iter()
                .map(|j| j.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{path}: `{key}` holds a non-string"))?;
            map.insert(key, strings);
        }
        Ok(Oracles(map))
    }

    /// The first expected string `output` lacks, if any. An oracle name
    /// with no entry is itself an error: nothing may go unchecked.
    pub fn check(&self, oracle: &str, output: &str) -> Result<(), String> {
        let wanted = self
            .0
            .get(oracle)
            .ok_or_else(|| format!("expected.json has no oracle `{oracle}`"))?;
        match wanted.iter().find(|w| !output.contains(w.as_str())) {
            Some(missing) => Err(format!("`{oracle}` output lacks `{missing}`")),
            None => Ok(()),
        }
    }
}

/// Outputs of ops that share a simulation seed must be byte-identical;
/// this remembers the first digest per seed and flags any other.
#[derive(Default)]
pub struct DigestLedger(BTreeMap<u64, u64>);

impl DigestLedger {
    /// The whole check of one direct op's outcome: it succeeded, names
    /// the planted root causes, and digests like its seed's first output.
    pub fn check_op(
        &mut self,
        spec: &Spec,
        oracles: &Oracles,
        sim_seed: u64,
        outcome: Result<String, String>,
    ) -> Result<(), String> {
        let output = outcome?;
        oracles.check(spec.name, &output)?;
        self.check(sim_seed, &output)
    }

    fn check(&mut self, sim_seed: u64, output: &str) -> Result<(), String> {
        let digest = driver::fnv_str(output);
        let first = *self.0.entry(sim_seed).or_insert(digest);
        if first == digest {
            Ok(())
        } else {
            Err(format!(
                "sim seed {sim_seed}: digest {digest:016x} differs from the first {first:016x}"
            ))
        }
    }
}
