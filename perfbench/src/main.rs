//! The zkperf benchmark: four workloads through the public
//! `Workload` / `ProverBackend` path and `zkperf_serve::Server`.
//!
//! ```text
//! zkperf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--commit <id>] [--out <dir>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it records spans around calls into each layer and reports
//! the per-layer metrics, writing the spans out at exit. The last line of
//! standard output is the result as one JSON object. Run it through
//! `perfbench/run.py`, which builds it and clears the environment.

mod prover;
mod report;
mod serve;
mod spans;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use zkperf_core::StageError;

use prover::{run_traced, run_untraced, Bn254G16, Bn254Plonk, Run};
use report::{Report, END_TO_END, MIB, PER_LAYER};
use spans::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "groth16-exp-2e14",
    "plonk-exp-2e14",
    "stark-exp-2e14",
    "serve-groth16-mixed",
];

/// Constraints of the prover workloads' circuit.
const PROVER_CONSTRAINTS: usize = 1 << 14;
/// Most pool threads a run uses (fewer when the host has fewer cores).
const MAX_THREADS: usize = 2;

/// Switches that change an algorithm or a protocol parameter. The
/// benchmark measures the defaults, so it refuses to run under any.
const FORBIDDEN_ENV: [&str; 5] = [
    "ZKPERF_MEM_BUDGET",
    "ZKPERF_CHAOS",
    "ZKPERF_NO_GLV",
    "ZKPERF_NO_FAST_PAIRING",
    "ZKPERF_MSM_WINDOW",
];
const FORBIDDEN_ENV_PREFIX: &str = "ZKPERF_STARK_";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".into(),
        out: PathBuf::from("perfbench/out"),
    };
    let mut seen = [false; 4];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|e| bad(&e))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                seen[3] = true;
            }
            "--commit" => args.commit = value,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen.contains(&false) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?})",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// Refuses to measure anything but the default algorithms.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| FORBIDDEN_ENV.contains(&k.as_str()) || k.starts_with(FORBIDDEN_ENV_PREFIX))
        .collect();
    if !set.is_empty() {
        return Err(format!("unset {set:?} first: they change what is measured"));
    }
    if zkperf_trace::is_active() {
        return Err(
            "a zkperf-trace session is live; it switches kernels to traced algorithms".into(),
        );
    }
    Ok(())
}

fn run_workload(
    name: &str,
    run: &Run,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), StageError> {
    let n = PROVER_CONSTRAINTS;
    match (name, tr.on()) {
        ("groth16-exp-2e14", false) => run_untraced::<Bn254G16>(n, run, rep),
        ("plonk-exp-2e14", false) => run_untraced::<Bn254Plonk>(n, run, rep),
        ("stark-exp-2e14", false) => run_untraced::<zkperf_core::StarkBackend>(n, run, rep),
        ("groth16-exp-2e14", true) => run_traced::<Bn254G16>(n, run, tr, rep).map(drop),
        ("plonk-exp-2e14", true) => run_traced::<Bn254Plonk>(n, run, tr, rep).map(drop),
        ("stark-exp-2e14", true) => {
            run_traced::<zkperf_core::StarkBackend>(n, run, tr, rep).map(drop)
        }
        _ => serve::run(run, tr, rep),
    }
}

/// Writes the traced run's spans, span summary and metrics under `out`.
fn write_trace(args: &Args, meta: &str, tr: &Tracer, rep: &Report) -> std::io::Result<()> {
    let stem = args
        .out
        .join(format!("trace-{}-{}", args.workload, args.seed));
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = rep.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let json = format!(
        "{{\"meta\": {meta},\n\"metrics\": {{{}}},\n\"spans\": {}}}\n",
        metrics.join(", "),
        tr.spans_json()
    );
    std::fs::write(stem.with_extension("json"), json)?;
    std::fs::write(stem.with_extension("txt"), tr.summary_text())
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    zkperf_pool::set_threads(threads);
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"threads\": {threads}, \"nproc\": {nproc}, \"stark_params\": \"{}\", \
         \"serve_rate_per_s\": {}, \"serve_latency_limit_ms\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit,
        zkperf_stark::StarkParams::from_env(),
        serve::RATE_PER_S,
        serve::LATENCY_LIMIT_MS,
    );
    println!("meta {meta}");

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        scratch: args.out.clone(),
    };
    let mut tr = Tracer::new(args.trace);
    let mut rep = Report::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_workload(&args.workload, &run, &mut tr, &mut rep)
    }));
    match result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => rep.check(false, &format!("stage error: {e}")),
        Err(_) => rep.check(false, "the workload panicked"),
    }

    let correct = if args.trace {
        print!("{}", tr.summary_text());
        if let Err(e) = write_trace(&args, &meta, &tr, &rep) {
            rep.check(false, &format!("writing the trace: {e}"));
        }
        rep.finish(PER_LAYER)
    } else {
        rep.set(
            "peak_mem_mib",
            zkperf_pool::mem::peak_live_bytes() as f64 / MIB,
            1,
        );
        rep.finish(END_TO_END)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
