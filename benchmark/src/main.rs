//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perflow-benchmark --dir benchmark --workload NAME --seed N --seconds S --trace 0|1
//! perflow-benchmark --dir benchmark [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form is one run: it prints one JSON object as the last line
//! of standard output. The second runs every workload in both modes, each
//! in a child process, prints every metric by name and checks the result
//! against `BENCHMARK.json`.

mod layers;
mod metrics;
mod selfcheck;
mod served;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{RunResult, END_TO_END};
use perflow::Obs;
use served::{Budget, Session};
use stats::{median, percentile};
use workload::{cli_op, sim_seeds, DigestLedger, Oracles, Spec};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Warm-up jobs per client of a served set-up (30 over the three rounds).
const WARMUP_JOBS_PER_CLIENT: usize = 5;
/// Traced ops at the full run length; shorter runs scale it down.
const TRACED_OPS: u32 = 10;

pub struct Args {
    pub dir: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: "benchmark".into(),
        workload: None,
        seed: 1,
        seconds: selfcheck::DEFAULT_SECONDS,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--dir" => args.dir = value()?,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--smoke" => args.seconds = 1,
            "--setup-only" => args.setup_only = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Everything between process start and the first measured op: build the
/// program model and run one warm-up op, or start the daemon and serve
/// the warm-up jobs. A served session is handed on for the measurement.
fn set_up<'a>(
    spec: &'a Spec,
    seed: u64,
    oracles: &Oracles,
    digests: &mut DigestLedger,
) -> Result<Option<Session<'a>>, String> {
    if !spec.served {
        let sim_seed = sim_seeds(seed, spec.name)[0];
        let outcome = cli_op(spec, sim_seed, &Obs::disabled());
        digests.check_op(spec, oracles, sim_seed, outcome)?;
        return Ok(None);
    }
    let mut session = Session::start(spec, seed)?;
    let mut warmup = session.run(Budget::JobsPerClient(WARMUP_JOBS_PER_CLIENT), false);
    session.verify(oracles, &mut warmup);
    match warmup.into_iter().find_map(|s| s.error) {
        Some(why) => Err(format!("warm-up job failed: {why}")),
        None => Ok(Some(session)),
    }
}

/// Wall time of one set-up in a process of its own, spawn to exit: a
/// CLI user pays process start and first-use initialisation every time.
fn timed_setup_process(args: &Args, spec: &Spec) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let begin = Instant::now();
    let status = Command::new(exe)
        .args(["--dir", &args.dir, "--workload", spec.name, "--setup-only"])
        .args(["--seed", &args.seed.to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !status.success() {
        return Err(format!("set-up process ended with {status}"));
    }
    Ok(begin.elapsed().as_secs_f64())
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// The end-to-end run, tracing off: set up, then ops in a closed loop
/// until `seconds` have passed.
fn end_to_end(args: &Args, spec: &Spec, oracles: &Oracles) -> Result<RunResult, String> {
    let setup_s = (0..SETUP_ROUNDS)
        .map(|_| timed_setup_process(args, spec))
        .collect::<Result<Vec<_>, _>>()?;
    let mut digests = DigestLedger::default();
    let session = set_up(spec, args.seed, oracles, &mut digests)?;

    let mut op_ms = Vec::new();
    let mut failures = Vec::new();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs(args.seconds);
    let wall_s = match session {
        None => {
            let seeds = sim_seeds(args.seed, spec.name);
            while Instant::now() < deadline {
                let sim_seed = seeds[op_ms.len() % seeds.len()];
                let started = Instant::now();
                let outcome = cli_op(spec, sim_seed, &Obs::disabled());
                op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                failures.extend(digests.check_op(spec, oracles, sim_seed, outcome).err());
            }
            begin.elapsed().as_secs_f64()
        }
        Some(mut session) => {
            let mut samples = session.run(Budget::Until(deadline), false);
            let wall_s = begin.elapsed().as_secs_f64();
            session.verify(oracles, &mut samples);
            let (_, daemon_failed) = session.shutdown();
            op_ms.extend(samples.iter().map(|s| s.op_ms));
            failures.extend(samples.into_iter().filter_map(|s| s.error));
            if daemon_failed > 0 && failures.is_empty() {
                failures.push(format!("daemon counted {daemon_failed} failed jobs"));
            }
            wall_s
        }
    };
    Ok(RunResult {
        attempted: op_ms.len(),
        failures,
        metrics: vec![
            ("op_ms_p50", median(&op_ms)),
            ("op_ms_tail", percentile(&op_ms, spec.tail_pct)),
            ("ops_per_s", op_ms.len() as f64 / wall_s),
            ("peak_rss_mb", peak_rss_mb()?),
            ("setup_s", median(&setup_s)),
        ],
    })
}

fn single_run(args: &Args, spec: &Spec, oracles: &Oracles) -> Result<RunResult, String> {
    let result = if args.trace {
        // A tenth of the run length in ops, at most ten: the counts of a
        // traced run depend on the argument alone, never on the clock.
        let ops = (args.seconds as u32 * TRACED_OPS)
            .div_ceil(selfcheck::DEFAULT_SECONDS as u32)
            .clamp(2, TRACED_OPS);
        let out_dir = format!("{}/out", args.dir);
        let result = layers::traced_run(spec, args.seed, ops, oracles, &out_dir)?;
        result.check_against(metrics::PER_LAYER)?;
        result
    } else {
        let result = end_to_end(args, spec, oracles)?;
        result.check_against(END_TO_END)?;
        result
    };
    for why in &result.failures {
        eprintln!("{}: failed op: {why}", spec.name);
    }
    Ok(result)
}

fn run(args: &Args) -> Result<(), String> {
    let Some(name) = &args.workload else {
        return selfcheck::run_all(args);
    };
    let spec = workload::spec(name).ok_or(format!("unknown workload {name}"))?;
    let oracles = Oracles::load(&args.dir)?;
    if args.setup_only {
        if let Some(session) = set_up(spec, args.seed, &oracles, &mut DigestLedger::default())? {
            session.shutdown();
        }
        return Ok(());
    }
    let result = single_run(args, spec, &oracles)?;
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perflow-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
