//! The serve workload: open-loop, seeded arrivals into one
//! `Server<Groth16Backend<Bn254>>`, timed from each job's due time.
//!
//! Load comes from this one thread: arrivals that fell due are submitted
//! between `step` calls, so a job that arrives during a long step is
//! submitted late. Its latency still counts from its due time, and the
//! lateness is reported as `serve.gen_lag_ms`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::Rng;

use zkperf_core::{ProverBackend, StageError};
use zkperf_serve::{
    prove_serial, AdmissionConfig, ArtifactCache, CacheStats, CircuitSpec, JobId, JobKind,
    JobOutcome, JobSpec, Priority, Server, ServerConfig,
};

use crate::prover::{public_input, rng, run_traced, secs, Bn254G16, Run};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, quantile, tail_q};

/// Circuit shapes (`exponentiate` constraints) and their weights.
const SHAPES: [(usize, u32); 3] = [(1 << 8, 30), (1 << 10, 8), (1 << 12, 1)];
/// Arrival rate: enough jobs in a 15 s schedule for ten beyond the p95,
/// while the server stays busy about a third of the time on a 2-core
/// host (`serve.busy_frac`). Nearer two-thirds, queueing turned host
/// jitter into run-to-run latency swings of 30-50%.
pub const RATE_PER_S: f64 = 14.0;
/// Latency limit for goodput: about twice the largest shape's service
/// time at the seed (~140 ms), above every latency seen there.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Share of arrivals that are prove jobs; the rest re-verify a proof
/// served earlier, without a deadline, so verify batches can form.
const PROVE_SHARE: f64 = 0.6;
/// Prove jobs' deadline: far above the latency limit, never impossible.
const PROVE_DEADLINE: Duration = Duration::from_secs(20);
/// Proofs per shape served before the schedule, for re-verify jobs.
const POOL_PER_SHAPE: u64 = 4;
/// Cold set-up passes per run.
const SETUP_PASSES: u64 = 5;
/// Served proofs per shape byte-compared with `prove_serial`.
const SERIAL_SAMPLES: usize = 2;

type B = Bn254G16;

fn config() -> ServerConfig {
    ServerConfig {
        // Generous limits: at the seed no job is refused.
        admission: AdmissionConfig {
            max_depth: 1 << 16,
            max_inflight_bytes: usize::MAX,
        },
        ..ServerConfig::default()
    }
}

fn spec(shape: usize, x: u64) -> CircuitSpec {
    CircuitSpec::exponentiate(SHAPES[shape].0, x)
}

/// `count` items split by `weights` in exact proportion (largest
/// remainders first), in a seeded random order.
fn stratified<T: Copy>(count: usize, weights: &[(T, u32)], r: &mut impl Rng) -> Vec<T> {
    let total: u32 = weights.iter().map(|w| w.1).sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| count as f64 * f64::from(w.1) / f64::from(total))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in order
        .iter()
        .cycle()
        .take(count - counts.iter().sum::<usize>())
    {
        counts[k] += 1;
    }
    let mut out: Vec<T> = weights
        .iter()
        .zip(counts)
        .flat_map(|(w, c)| std::iter::repeat_n(w.0, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, r.gen_range(0..i as u64 + 1) as usize);
    }
    out
}

/// A fresh cache directory under the run's scratch directory.
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(run: &Run, pass: u64) -> CacheDir {
        let dir = run
            .scratch
            .join(format!("serve-cache-{}-{pass}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheDir(dir)
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Served proof bytes of job `id`, if it was served with one.
fn served_proof(server: &Server<B>, id: JobId) -> Option<Vec<u8>> {
    match server.outcome(id) {
        Some(JobOutcome::Served { proof, .. }) if !proof.is_empty() => Some(proof.clone()),
        _ => None,
    }
}

/// Submits `jobs`, drains the queue, and returns each job's id.
fn serve_all(server: &mut Server<B>, jobs: Vec<JobSpec>, rep: &mut Report) -> Vec<JobId> {
    let ids: Vec<JobId> = jobs
        .into_iter()
        .map(|job| {
            let (id, admitted) = server.submit(job);
            rep.check(admitted.is_ok(), "set-up job admitted");
            id
        })
        .collect();
    server.run_until_drained();
    ids
}

fn prove_job(shape: usize, x: u64) -> JobSpec {
    JobSpec {
        circuit: spec(shape, x),
        kind: JobKind::Prove,
        priority: Priority::Normal,
        deadline: Some(PROVE_DEADLINE),
    }
}

fn verify_job(shape: usize, x: u64, proof: Vec<u8>, priority: Priority) -> JobSpec {
    JobSpec {
        circuit: spec(shape, x),
        kind: JobKind::Verify { proof },
        priority,
        deadline: None,
    }
}

/// One cold pass: `Server::open` on an empty cache directory, then the
/// first prove job of every shape (which builds its artifacts), then a
/// verify job of each proof. Returns the set-up time (open + first
/// proves) and the whole pass time.
fn cold_pass(
    server: &mut Option<Server<B>>,
    dir: &Path,
    run: &Run,
    rep: &mut Report,
) -> Result<(f64, f64), StageError> {
    let x = public_input(run.seed);
    let t = Instant::now();
    let s = server.insert(Server::<B>::open(dir, config())?);
    let ids = serve_all(s, (0..SHAPES.len()).map(|k| prove_job(k, x)).collect(), rep);
    let setup = secs(t);
    let verifies = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let proof = served_proof(s, id).unwrap_or_default();
            verify_job(k, x, proof, Priority::Normal)
        })
        .collect();
    for id in serve_all(s, verifies, rep) {
        let ok = matches!(
            s.outcome(id),
            Some(JobOutcome::Served {
                verified: Some(true),
                ..
            })
        );
        rep.check(ok, "cold-pass proof verifies");
    }
    Ok((setup, secs(t)))
}

struct Arrival {
    due: f64,
    shape: usize,
    spec: JobSpec,
}

/// The seeded schedule: `RATE_PER_S · seconds` arrivals with exponential
/// gaps, scaled so the last one falls due at `seconds`. The mix of kinds, shapes
/// and priorities is exact for every seed; only order, gaps and inputs
/// vary, so a seed changes the arrival pattern but not the work.
fn schedule(run: &Run, pool: &[Vec<(u64, Vec<u8>)>]) -> Vec<Arrival> {
    let mut r = rng(run.seed, 5, 0);
    let count = (RATE_PER_S * run.seconds).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..count).map(|_| -(1.0 - r.gen::<f64>()).ln()).collect();
    let scale = run.seconds / gaps.iter().sum::<f64>();
    let prove_weight = (PROVE_SHARE * 100.0).round() as u32;
    let kinds = stratified(
        count,
        &[(true, prove_weight), (false, 100 - prove_weight)],
        &mut r,
    );
    let shapes: Vec<(usize, u32)> = SHAPES.iter().enumerate().map(|(k, s)| (k, s.1)).collect();
    let shapes = stratified(count, &shapes, &mut r);
    let priorities = [
        (Priority::High, 2),
        (Priority::Normal, 6),
        (Priority::Low, 2),
    ];
    let priorities = stratified(count, &priorities, &mut r);
    let mut due = 0.0;
    (0..count)
        .map(|i| {
            due += gaps[i] * scale;
            let (shape, priority) = (shapes[i], priorities[i]);
            let spec = if kinds[i] {
                JobSpec {
                    priority,
                    ..prove_job(shape, 2 + r.gen_range(0..1_000_000))
                }
            } else {
                let (x, proof) = &pool[shape][r.gen_range(0..pool[shape].len() as u64) as usize];
                verify_job(shape, *x, proof.clone(), priority)
            };
            Arrival { due, shape, spec }
        })
        .collect()
}

/// What happened to one scheduled job.
struct Fate {
    circuit: CircuitSpec,
    shape: usize,
    prove: bool,
    due: f64,
    submitted: f64,
    started: Option<f64>,
    done: Option<f64>,
}

/// The timed open loop. Returns per-job fates and per-step service times.
struct Timed {
    fates: BTreeMap<JobId, Fate>,
    prove_service_ms: Vec<f64>,
    verify_service_ms: Vec<f64>,
    verify_batches: Vec<f64>,
    busy_s: f64,
    makespan_s: f64,
    backlog_end: usize,
}

fn open_loop(
    server: &mut Server<B>,
    arrivals: Vec<Arrival>,
    seconds: f64,
    tr: &mut Tracer,
) -> Timed {
    let mut out = Timed {
        fates: BTreeMap::new(),
        prove_service_ms: Vec::new(),
        verify_service_ms: Vec::new(),
        verify_batches: Vec::new(),
        busy_s: 0.0,
        makespan_s: 0.0,
        backlog_end: 0,
    };
    let mut pending: Vec<JobId> = Vec::new();
    let mut backlog_recorded = false;
    let mut arrivals = arrivals.into_iter().peekable();
    let t0 = Instant::now();
    loop {
        let now = secs(t0);
        while let Some(a) = arrivals.next_if(|a| a.due <= now) {
            let prove = matches!(a.spec.kind, JobKind::Prove);
            let circuit = a.spec.circuit.clone();
            let (id, _) = server.submit(a.spec);
            let submitted = secs(t0);
            let done = server.outcome(id).map(|_| submitted);
            if done.is_none() {
                pending.push(id);
            }
            out.fates.insert(
                id,
                Fate {
                    circuit,
                    shape: a.shape,
                    prove,
                    due: a.due,
                    submitted,
                    started: None,
                    done,
                },
            );
        }
        if !backlog_recorded && now >= seconds {
            out.backlog_end = server.queue_depth();
            backlog_recorded = true;
        }
        if server.queue_depth() == 0 {
            match arrivals.peek() {
                Some(next) => {
                    let wait = next.due - secs(t0);
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    continue;
                }
                None => break,
            }
        }
        let start = Instant::now();
        let started = secs(t0);
        server.step();
        let ended = secs(t0);
        out.busy_s += ended - started;
        let mut finished = Vec::new();
        pending.retain(|&id| {
            let done = server.outcome(id).is_some();
            if done {
                finished.push(id);
            }
            !done
        });
        tr.record(
            "serve.step",
            finished.first().copied().unwrap_or(0),
            start,
            Instant::now(),
        );
        let step_ms = (ended - started) * 1e3;
        let mut proves = 0;
        for id in &finished {
            if let Some(f) = out.fates.get_mut(id) {
                f.started = Some(started);
                f.done = Some(ended);
                proves += usize::from(f.prove);
            }
        }
        if proves > 0 {
            out.prove_service_ms.push(step_ms);
        } else if !finished.is_empty() {
            out.verify_service_ms.push(step_ms / finished.len() as f64);
            out.verify_batches.push(finished.len() as f64);
        }
    }
    // From the schedule's start to the last outcome (the last arrival is
    // due at `seconds`).
    out.makespan_s = out
        .fates
        .values()
        .filter_map(|f| f.done)
        .fold(0.0, f64::max);
    if !backlog_recorded {
        out.backlog_end = server.queue_depth();
    }
    out
}

fn delta(a: CacheStats, b: CacheStats) -> (u64, u64, u64) {
    (
        b.mem_hits - a.mem_hits,
        b.disk_hits - a.disk_hits,
        b.builds - a.builds,
    )
}

/// The serve workload; with tracing on, also the Groth16 ladder at the
/// largest shape and the batch-verify rung.
pub fn run(run: &Run, tr: &mut Tracer, rep: &mut Report) -> Result<(), StageError> {
    if tr.on() {
        let ladder_run = Run {
            seed: run.seed,
            seconds: run.seconds / 4.0,
            scratch: run.scratch.clone(),
        };
        let ctx = run_traced::<B>(SHAPES[SHAPES.len() - 1].0, &ladder_run, tr, rep)?;
        let k = config().verify_batch_max;
        let items = (0..k as u64)
            .map(|i| {
                let proof = B::decode_proof(&ctx.prove(100 + i)?)?;
                Ok((proof, ctx.witness.public().to_vec()))
            })
            .collect::<Result<Vec<_>, StageError>>()?;
        for r in 0..5 {
            let ok = tr.span("groth16.verify_batch", r, |_| {
                B::verify_batch(&ctx.keys, &items, &mut rng(run.seed, 6, r))
            });
            rep.check(ok == Some(true), "batch of valid proofs verifies");
        }
        rep.set(
            "groth16.verify_batch_per_proof_ms",
            tr.median_ms("groth16.verify_batch") / k as f64,
            5,
        );
    }

    // Cold passes: each opens a server on an empty cache directory. The
    // last server stays up for the schedule.
    let mut setups = Vec::new();
    let mut e2e = 0.0;
    let mut server = None;
    let mut dir = None;
    for pass in 0..SETUP_PASSES {
        let d = CacheDir::new(run, pass);
        let (setup, total) = tr.span("serve.cold_pass", pass, |_| {
            cold_pass(&mut server, &d.0, run, rep)
        })?;
        if pass == 0 {
            e2e = total;
        }
        setups.push(setup);
        dir = Some(d);
    }
    let (Some(mut server), Some(dir)) = (server, dir) else {
        unreachable!("SETUP_PASSES > 0")
    };

    // Warm-up: the proofs that re-verify jobs will check.
    let mut pool: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); SHAPES.len()];
    let xs: Vec<(usize, u64)> = (0..SHAPES.len())
        .flat_map(|k| (0..POOL_PER_SHAPE).map(move |j| (k, 2 + public_input(run.seed) + j)))
        .collect();
    let ids = serve_all(
        &mut server,
        xs.iter().map(|&(k, x)| prove_job(k, x)).collect(),
        rep,
    );
    for (&(k, x), id) in xs.iter().zip(ids) {
        let proof = served_proof(&server, id);
        rep.check(proof.is_some(), "warm-up proof served");
        pool[k].extend(proof.map(|p| (x, p)));
    }

    let arrivals = schedule(run, &pool);
    let stats0 = server.cache_stats();
    let timed = tr.span("serve.schedule", 0, |tr| {
        open_loop(&mut server, arrivals, run.seconds, tr)
    });
    let (mem_hits, disk_hits, builds) = delta(stats0, server.cache_stats());
    println!(
        "cache in the timed phase: {mem_hits} memory hits, {disk_hits} disk hits, {builds} builds"
    );
    rep.check(
        disk_hits == 0 && builds == 0,
        "no artifact builds or disk loads in the timed phase",
    );
    let errors = server.accounting_errors();
    rep.check(errors.is_empty(), &format!("server accounting: {errors:?}"));

    // Verdicts and latencies. A job that was not served correctly counts
    // as beyond any limit.
    let mut latency = Vec::new();
    let mut waits = Vec::new();
    let mut lags = Vec::new();
    let mut within = 0usize;
    let mut served: Vec<Vec<(CircuitSpec, Vec<u8>)>> = vec![Vec::new(); SHAPES.len()];
    let (mut rejected, mut late, mut failed) = (0, 0, 0);
    for (id, fate) in &timed.fates {
        let outcome = server.outcome(*id);
        let ok = match outcome {
            Some(JobOutcome::Served {
                proof, verified, ..
            }) => {
                if fate.prove {
                    served[fate.shape].push((fate.circuit.clone(), proof.clone()));
                    !proof.is_empty()
                } else {
                    *verified == Some(true)
                }
            }
            Some(JobOutcome::Rejected { .. }) => {
                rejected += 1;
                false
            }
            Some(JobOutcome::DeadlineExceeded { .. }) => {
                late += 1;
                false
            }
            _ => {
                failed += 1;
                false
            }
        };
        rep.check(ok, &format!("job {id} served correctly: {outcome:?}"));
        let ms = match (ok, fate.done) {
            (true, Some(done)) => (done - fate.due) * 1e3,
            _ => f64::INFINITY,
        };
        within += usize::from(ms <= LATENCY_LIMIT_MS);
        latency.push(ms);
        lags.push((fate.submitted - fate.due) * 1e3);
        if let Some(started) = fate.started {
            waits.push((started - fate.due) * 1e3);
        }
    }

    // Every served proof verifies; a sample matches the serial path.
    let mut cache = ArtifactCache::<B>::open(&dir.0)?;
    for (k, proofs) in served.iter().enumerate() {
        let Some((first, _)) = proofs.first() else {
            continue;
        };
        let (entry, _) = cache.load_or_build(first)?;
        for chunk in proofs.chunks(16) {
            let items = chunk
                .iter()
                .map(|(c, bytes)| {
                    let x = zkperf_ff::Field::from_u64(c.public_inputs[0]);
                    let witness = entry.circuit.generate_witness(&[x], &[])?;
                    Ok((B::decode_proof(bytes)?, witness.public().to_vec()))
                })
                .collect::<Result<Vec<_>, StageError>>();
            let ok = items.is_ok_and(|items| {
                B::verify_batch(&entry.keys, &items, &mut rng(run.seed, 7, k as u64)) == Some(true)
            });
            for _ in chunk {
                rep.check(ok, "served proof verifies");
            }
        }
        for (c, bytes) in proofs.iter().take(SERIAL_SAMPLES) {
            let serial = prove_serial(&mut cache, c);
            rep.check(
                serial.as_ref() == Ok(bytes),
                "served proof matches prove_serial",
            );
        }
    }
    drop(cache);
    drop(server);
    drop(dir);

    let n = latency.len();
    let q = if n >= 200 { 0.95 } else { tail_q(n) };
    println!(
        "schedule: {n} jobs in {:.2} s ({:.1}/s), served within {LATENCY_LIMIT_MS} ms: {within}, tail quantile {q:.2}",
        timed.makespan_s,
        n as f64 / run.seconds,
    );
    rep.set("setup_s", median(&setups), setups.len());
    rep.set("e2e_s", e2e, 1);
    rep.set(
        "prove_s",
        median(&timed.prove_service_ms) / 1e3,
        timed.prove_service_ms.len(),
    );
    rep.set(
        "verify_ms",
        median(&timed.verify_service_ms),
        timed.verify_service_ms.len(),
    );
    rep.set("serve_p50_ms", median(&latency), n);
    rep.set("serve_p95_ms", quantile(&latency, q), n);
    rep.set("goodput_per_s", within as f64 / timed.makespan_s, n);

    rep.set("serve.queue_wait_p50_ms", median(&waits), waits.len());
    rep.set(
        "serve.queue_wait_p95_ms",
        quantile(&waits, 0.95),
        waits.len(),
    );
    rep.set(
        "serve.prove_service_ms",
        median(&timed.prove_service_ms),
        timed.prove_service_ms.len(),
    );
    rep.set(
        "serve.verify_service_ms",
        median(&timed.verify_service_ms),
        timed.verify_service_ms.len(),
    );
    let batches = &timed.verify_batches;
    rep.set(
        "serve.verify_batch_size",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        batches.len(),
    );
    let lookups = (mem_hits + disk_hits + builds).max(1);
    rep.set(
        "serve.cache_hit_ratio",
        mem_hits as f64 / lookups as f64,
        lookups as usize,
    );
    rep.set("serve.busy_frac", timed.busy_s / timed.makespan_s, 1);
    rep.set("serve.backlog_end", timed.backlog_end as f64, 1);
    rep.set("serve.gen_lag_ms", quantile(&lags, 0.95), lags.len());
    rep.set("serve.rejected", f64::from(rejected), n);
    rep.set("serve.deadline_exceeded", f64::from(late), n);
    rep.set("serve.failed", f64::from(failed), n);
    Ok(())
}
