//! The three prover workloads: the paper's `y = x^e` circuit run through
//! `zkperf_core::Workload` (the cold first proof) and `ProverBackend`
//! (repeated cold setups, warm proves and verifies), plus the traced
//! per-layer ladder of each backend.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use zkperf_circuit::poseidon::poseidon_hash2;
use zkperf_circuit::{lang, library, Circuit, R1cs, Witness};
use zkperf_core::{
    Groth16Backend, KeyLoad, PlonkBackend, ProverBackend, Stage, StageError, StarkBackend, Workload,
};
use zkperf_ec::{msm, Affine, Bn254, Engine};
use zkperf_ff::{bn254::Fr, Field, Goldilocks};
use zkperf_groth16 as groth16;
use zkperf_plonk::{PlonkCircuit, Srs};
use zkperf_poly::{DensePolynomial, Radix2Domain};
use zkperf_pool::mem;
use zkperf_stark::{air, fri, merkle::MerkleTree, transcript::Transcript};

use crate::report::{Report, MIB};
use crate::spans::Tracer;
use crate::stats::{median, quantile, tail_q};

/// Cold pipelines (and so setups) per run.
const SETUPS: u64 = 3;
/// Least total time spent on set-ups in a run: cheap set-ups (the
/// STARK's is a compile) get more samples, for a steady median.
const MIN_SETUP_S: f64 = 2.0;
/// Traced setup repetitions.
const TRACED_SETUPS: u64 = 2;
/// Fewest warm proofs a run times, however slow the backend.
const MIN_WARM: usize = 3;
/// Verifications timed per warm proof.
const VERIFY_REPS: usize = 3;
/// Byte positions flipped in the tamper check.
const FLIPS: u64 = 3;

pub type Bn254G16 = Groth16Backend<Bn254>;
pub type Bn254Plonk = PlonkBackend<Bn254>;

/// Settings shared by every workload of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Directory under the checkout for files the run writes.
    pub scratch: std::path::PathBuf,
}

/// The rng of repetition `i` of stream `stream`, derived from the seed.
pub fn rng(seed: u64, stream: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream << 56) ^ i)
}

/// The circuit's public input for this seed (never 0 or 1).
pub fn public_input(seed: u64) -> u64 {
    2 + seed % 1_000_003
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a digest of proof bytes, printed so runs can be compared.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs `f` with the peak-live meter restarted and returns its peak in
/// MiB. Only the traced run resets the meter; the untraced run reads the
/// whole run's peak.
pub fn stage_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    mem::reset_peak();
    let out = f();
    (out, mem::peak_live_bytes() as f64 / MIB)
}

/// Everything a warm prove needs.
pub struct Ctx<B: ProverBackend> {
    pub seed: u64,
    pub circuit: Circuit<B::Fr>,
    pub keys: B::Keys,
    pub witness: Witness<B::Fr>,
}

impl<B: ProverBackend> Ctx<B> {
    pub fn r1cs(&self) -> &R1cs<B::Fr> {
        self.circuit.r1cs()
    }

    /// Proof `i` (prove + encode); the same `i` gives the same bytes.
    pub fn prove(&self, i: u64) -> Result<Vec<u8>, StageError> {
        let proof = B::prove(
            &self.keys,
            self.r1cs(),
            &self.witness,
            &mut rng(self.seed, 2, i),
        )?;
        Ok(B::encode_proof(&proof))
    }

    /// Decode + verify against `public`.
    pub fn verify(&self, bytes: &[u8], public: &[B::Fr]) -> Result<bool, StageError> {
        let proof = B::decode_proof(bytes)?;
        B::verify(&self.keys, self.r1cs(), &proof, public)
    }
}

/// Whether a verification outcome is a clean rejection: `Ok(false)` or a
/// typed error, never acceptance or a panic.
fn rejects<B: ProverBackend>(ctx: &Ctx<B>, bytes: &[u8], public: &[B::Fr]) -> bool {
    matches!(
        catch_unwind(AssertUnwindSafe(|| ctx.verify(bytes, public))),
        Ok(Ok(false) | Err(_))
    )
}

/// Tamper and codec checks on a valid proof.
pub fn check_proof<B: ProverBackend>(ctx: &Ctx<B>, bytes: &[u8], rep: &mut Report) {
    let public = ctx.witness.public();
    let roundtrip = B::decode_proof(bytes).map(|p| B::encode_proof(&p));
    rep.check(
        roundtrip.as_deref() == Ok(bytes),
        "encode_proof(decode_proof(bytes)) == bytes",
    );
    let mut pick = rng(ctx.seed, 3, 0);
    for k in 0..FLIPS {
        let pos = (rand::Rng::gen::<u64>(&mut pick) % bytes.len() as u64) as usize;
        let mut bad = bytes.to_vec();
        bad[pos] ^= 1 << (k % 8);
        rep.check(
            rejects(ctx, &bad, public),
            &format!("proof with byte {pos} flipped is rejected"),
        );
    }
    let mut wrong = public.to_vec();
    if let Some(last) = wrong.last_mut() {
        *last += B::Fr::one();
    }
    rep.check(
        rejects(ctx, bytes, &wrong),
        "valid proof against a wrong public input is rejected",
    );
}

/// The untraced run: three cold pipelines (compile → setup → witness →
/// prove → verify), then warm proves and verifies.
///
/// The first pipeline runs through `Workload` in a fresh process, before
/// any warm-up: the paper's execution time. The other two call
/// `ProverBackend` directly from the same setup seed, so their proofs must
/// be byte-identical; the last one's keys serve the warm phase. The three
/// proves are the warm-up and are left out of the warm medians.
pub fn run_untraced<B: ProverBackend>(
    n: usize,
    run: &Run,
    rep: &mut Report,
) -> Result<(), StageError> {
    let x = B::Fr::from_u64(public_input(run.seed));
    let src = library::exponentiate_source(n);

    let mut w = Workload::<B>::from_source(src.clone(), n, vec![x], vec![]);
    let t = Instant::now();
    w.run_stage(Stage::Compile)?;
    w.run_stage(Stage::Setup)?;
    let mut setups = vec![secs(t)];
    for stage in [Stage::Witness, Stage::Proving, Stage::Verifying] {
        w.run_stage(stage)?;
    }
    let e2e = secs(t);
    rep.check(w.verified() == Some(true), "cold proof verifies");
    drop(w);

    let mut last: Option<(Ctx<B>, Vec<u8>)> = None;
    for _ in 1..SETUPS {
        let t = Instant::now();
        let circuit = lang::compile::<B::Fr>(&src)?;
        let keys = B::setup(circuit.r1cs(), &mut rng(run.seed, 1, 0))?;
        setups.push(secs(t));
        let witness = circuit.generate_witness(&[x], &[])?;
        let ctx = Ctx::<B> {
            seed: run.seed,
            circuit,
            keys,
            witness,
        };
        let bytes = ctx.prove(0)?;
        rep.check(
            ctx.verify(&bytes, ctx.witness.public()) == Ok(true),
            "cold proof verifies",
        );
        if let Some((_, earlier)) = &last {
            rep.check(*earlier == bytes, "proof bytes identical for the same seed");
        }
        last = Some((ctx, bytes));
    }
    let Some((ctx, first)) = last else {
        unreachable!("SETUPS > 1")
    };
    while setups.iter().sum::<f64>() < MIN_SETUP_S {
        let t = Instant::now();
        let circuit = lang::compile::<B::Fr>(&src)?;
        black_box(B::setup(circuit.r1cs(), &mut rng(run.seed, 1, 0))?);
        setups.push(secs(t));
    }
    println!(
        "proof_digest {:016x} ({} bytes)",
        digest(&first),
        first.len()
    );

    let (mut prove, mut verify, mut request) = (Vec::new(), Vec::new(), Vec::new());
    let mut good = 0usize;
    let t0 = Instant::now();
    let mut i = 1;
    while prove.len() < MIN_WARM || secs(t0) < run.seconds {
        let t = Instant::now();
        let bytes = ctx.prove(i)?;
        let prove_s = secs(t);
        let mut ok = true;
        let mut first_verify_ms = 0.0;
        for k in 0..VERIFY_REPS {
            let t = Instant::now();
            ok &= ctx.verify(&bytes, ctx.witness.public()) == Ok(true);
            let v = ms(t);
            if k == 0 {
                first_verify_ms = v;
            }
            verify.push(v);
        }
        rep.check(ok, "warm proof verifies");
        good += usize::from(ok);
        prove.push(prove_s);
        request.push(prove_s * 1e3 + first_verify_ms);
        i += 1;
    }
    let elapsed = secs(t0);
    check_proof(&ctx, &first, rep);

    rep.set("setup_s", median(&setups), setups.len());
    rep.set("e2e_s", e2e, 1);
    rep.set("prove_s", median(&prove), prove.len());
    rep.set("verify_ms", median(&verify), verify.len());
    rep.set("serve_p50_ms", median(&request), request.len());
    rep.set(
        "serve_p95_ms",
        quantile(&request, tail_q(request.len())),
        request.len(),
    );
    rep.set("goodput_per_s", good as f64 / elapsed, request.len());
    Ok(())
}

/// A backend's traced ladder: which public calls make up its setup and
/// its prove, timed one span each.
pub trait Ladder: ProverBackend + Sized {
    /// Span and metric names of the stage calls.
    const SETUP: &'static str;
    const PROVE: &'static str;
    const VERIFY: &'static str;
    const PROVE_MS: &'static str;
    const VERIFY_MS: &'static str;
    const UNATTRIBUTED_MS: &'static str;

    /// `ProverBackend::setup`, split into its public calls where it has
    /// more than one.
    fn traced_setup(
        tr: &mut Tracer,
        r1cs: &R1cs<Self::Fr>,
        rng: &mut StdRng,
        r: u64,
    ) -> Result<Self::Keys, StageError> {
        tr.span(Self::SETUP, r, |_| Self::setup(r1cs, rng))
    }

    /// Setup-side rungs that are not calls of `traced_setup`.
    fn setup_rungs(_tr: &mut Tracer, _r1cs: &R1cs<Self::Fr>, _r: u64) -> Result<(), StageError> {
        Ok(())
    }

    /// Times the rungs of proof `i` with the proof's own inputs; returns
    /// their per-proof cost (each rung times its calls per proof) in ms.
    fn ladder(tr: &mut Tracer, ctx: &Ctx<Self>, i: u64) -> Result<f64, StageError>;

    /// Layer metrics read from the recorded spans.
    fn layer_metrics(
        tr: &mut Tracer,
        ctx: &Ctx<Self>,
        run: &Run,
        rep: &mut Report,
    ) -> Result<(), StageError>;
}

/// Field-op and hash rungs every workload reports.
pub fn common_rungs(tr: &mut Tracer, seed: u64, rep: &mut Report) {
    const MULS: u64 = 1 << 20;
    const HASHES: u64 = 1 << 12;
    for r in 0..5 {
        mul_chain::<Fr>(tr, "ff.bn254_mul", r, seed, MULS);
        mul_chain::<Goldilocks>(tr, "ff.goldilocks_mul", r, seed, MULS);
        let mut acc = Goldilocks::from_u64(seed);
        let v = Goldilocks::from_u64(seed ^ 0x5eed);
        tr.span("circuit.poseidon_hash2", r, |_| {
            for _ in 0..HASHES {
                acc = poseidon_hash2(black_box(acc), v);
            }
        });
        black_box(acc);
    }
    let per = |name: &str, ops: u64, scale: f64| tr.median_ms(name) * scale / ops as f64;
    rep.set("ff.bn254_mul_ns", per("ff.bn254_mul", MULS, 1e6), 5);
    rep.set(
        "ff.goldilocks_mul_ns",
        per("ff.goldilocks_mul", MULS, 1e6),
        5,
    );
    rep.set(
        "circuit.poseidon_hash2_us",
        per("circuit.poseidon_hash2", HASHES, 1e3),
        5,
    );
}

/// A dependent chain of `ops` multiplications, so each waits for the last.
fn mul_chain<F: Field>(tr: &mut Tracer, name: &'static str, r: u64, seed: u64, ops: u64) {
    let mut x = F::from_u64(seed | 3);
    let y = F::from_u64(0x2545_f491_4f6c_dd1d);
    tr.span(name, r, |_| {
        for _ in 0..ops {
            x = black_box(x) * y;
        }
    });
    black_box(x);
}

/// One pairing of the group generators.
fn pairing_rung(tr: &mut Tracer, i: u64) {
    let (p, q) = (Affine::generator(), Affine::generator());
    black_box(tr.span("ec.pairing", i, |_| {
        Bn254::pairing(black_box(&p), black_box(&q))
    }));
}

/// The traced run: setup split into its calls, then warm proofs, each
/// followed by its ladder and a verification.
pub fn run_traced<B: Ladder>(
    n: usize,
    run: &Run,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Ctx<B>, StageError> {
    let x = B::Fr::from_u64(public_input(run.seed));
    let src = library::exponentiate_source(n);
    common_rungs(tr, run.seed, rep);

    let mut setup_peak: f64 = 0.0;
    let mut last = None;
    for r in 0..TRACED_SETUPS {
        let (out, peak) = stage_peak(|| {
            tr.span("stage.setup", r, |tr| -> Result<_, StageError> {
                let circuit = tr.span("circuit.compile", r, |_| lang::compile::<B::Fr>(&src))?;
                let keys = B::traced_setup(tr, circuit.r1cs(), &mut rng(run.seed, 1, r), r)?;
                Ok((circuit, keys))
            })
        });
        setup_peak = setup_peak.max(peak);
        let (circuit, keys) = out?;
        tr.span("ladder.setup", r, |tr| {
            B::setup_rungs(tr, circuit.r1cs(), r)
        })?;
        last = Some((circuit, keys));
    }
    let Some((circuit, keys)) = last else {
        unreachable!("TRACED_SETUPS > 0")
    };
    let witness = tr.span("stage.witness", 0, |tr| {
        tr.span("circuit.witness", 0, |_| {
            circuit.generate_witness(&[x], &[])
        })
    })?;
    let ctx = Ctx::<B> {
        seed: run.seed,
        circuit,
        keys,
        witness,
    };

    let first = ctx.prove(0)?;
    rep.check(
        ctx.verify(&first, ctx.witness.public()) == Ok(true),
        "warm-up proof verifies",
    );
    let (mut bare, mut unattributed) = (Vec::new(), Vec::new());
    let mut prove_peak: f64 = 0.0;
    let t0 = Instant::now();
    let mut i = 1;
    while bare.len() < MIN_WARM || secs(t0) < run.seconds {
        // The same proof untraced and traced, for the trace overhead; the
        // order alternates so neither side always runs first.
        let bare_prove = |bare: &mut Vec<f64>| -> Result<(), StageError> {
            let t = Instant::now();
            black_box(ctx.prove(i)?);
            bare.push(ms(t));
            Ok(())
        };
        if i % 2 == 0 {
            bare_prove(&mut bare)?;
        }
        let (bytes, peak) = stage_peak(|| tr.span(B::PROVE, i, |_| ctx.prove(i)));
        let bytes = bytes?;
        if i % 2 == 1 {
            bare_prove(&mut bare)?;
        }
        prove_peak = prove_peak.max(peak);
        let rungs = tr.span("ladder.prove", i, |tr| B::ladder(tr, &ctx, i))?;
        unattributed.push(tr.total_ms(B::PROVE, i) - rungs);
        let ok = tr.span(B::VERIFY, i, |_| ctx.verify(&bytes, ctx.witness.public()));
        rep.check(ok == Ok(true), "traced proof verifies");
        i += 1;
    }
    B::layer_metrics(tr, &ctx, run, rep)?;
    let requests: Vec<f64> = tr
        .durations(B::PROVE)
        .iter()
        .zip(tr.durations(B::VERIFY))
        .map(|(p, v)| p + v)
        .collect();
    rep.set(
        "serve_p95_ms",
        quantile(&requests, tail_q(requests.len())),
        requests.len(),
    );

    let prove_ms = tr.median_ms(B::PROVE);
    let unattributed_ms = median(&unattributed);
    let overhead = prove_ms / median(&bare) - 1.0;
    rep.set(
        "circuit.compile_ms",
        tr.median_ms("circuit.compile"),
        TRACED_SETUPS as usize,
    );
    rep.set("circuit.witness_ms", tr.median_ms("circuit.witness"), 1);
    rep.set(B::PROVE_MS, prove_ms, bare.len());
    rep.set(B::VERIFY_MS, tr.median_ms(B::VERIFY), bare.len());
    rep.set(B::UNATTRIBUTED_MS, unattributed_ms, unattributed.len());
    rep.set("io.proof_bytes", first.len() as f64, 1);
    rep.set("mem.setup_peak_mib", setup_peak, TRACED_SETUPS as usize);
    rep.set("mem.prove_peak_mib", prove_peak, bare.len());
    rep.set(
        "trace.setup_s",
        tr.median_ms("stage.setup") / 1e3,
        TRACED_SETUPS as usize,
    );
    rep.set("trace.overhead_frac", overhead, bare.len());
    sum_check(tr, B::PROVE, prove_ms, unattributed_ms, overhead, rep);
    Ok(ctx)
}

/// The layers must add up: setup's calls cover the setup stage, and the
/// prove rungs do not exceed the prove stage by more than the trace
/// overhead plus a noise allowance (a negative unattributed share beyond
/// that means a rung is mis-sized or counted twice).
fn sum_check(
    tr: &Tracer,
    prove: &str,
    prove_ms: f64,
    unattributed_ms: f64,
    overhead: f64,
    rep: &mut Report,
) {
    let stage = tr.median_ms("stage.setup");
    let parts: f64 = tr
        .spans()
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| tr.spans()[p].name == "stage.setup")
        })
        .map(|s| s.ms())
        .sum::<f64>()
        / TRACED_SETUPS as f64;
    let tol = overhead.abs() + 0.10;
    let setup_ok = (stage - parts).abs() <= tol * stage;
    let prove_ok = unattributed_ms >= -tol * prove_ms;
    println!(
        "sum check: setup stage {stage:.1} ms = calls {parts:.1} ms + self {:.1} ms [{}]; \
         {prove} {prove_ms:.1} ms = rungs {:.1} ms + unattributed {unattributed_ms:.1} ms [{}] (tolerance {:.0}%)",
        stage - parts,
        if setup_ok { "ok" } else { "OFF" },
        prove_ms - unattributed_ms,
        if prove_ok { "ok" } else { "OFF" },
        tol * 100.0
    );
    rep.set("trace.sum_ok", f64::from(u8::from(setup_ok && prove_ok)), 2);
}

/// `save_keys` / `load_keys` round trip of `keys` through a file.
pub fn zkey_rungs<B: ProverBackend>(
    tr: &mut Tracer,
    keys: &B::Keys,
    dir: &Path,
    rep: &mut Report,
) -> Result<(), StageError>
where
    B::Keys: PartialEq,
{
    let path = dir.join(format!("{}.zkey", B::label()));
    for r in 0..3 {
        tr.span("io.zkey_save", r, |_| B::save_keys(&path, keys))?;
        let loaded = tr.span("io.zkey_load", r, |_| B::load_keys(&path));
        rep.check(
            matches!(&loaded, KeyLoad::Loaded(k) if k == keys),
            "zkey loads back equal",
        );
    }
    let _ = std::fs::remove_file(&path);
    rep.set("io.zkey_save_ms", tr.median_ms("io.zkey_save"), 3);
    rep.set("io.zkey_load_ms", tr.median_ms("io.zkey_load"), 3);
    Ok(())
}

/// The Groth16 prover rungs of proof `i`: QAP evaluation, quotient, the
/// four G1 MSMs and the G2 MSM, with the key's queries and this witness.
pub fn groth16_rungs(tr: &mut Tracer, ctx: &Ctx<Bn254G16>, i: u64) -> Result<f64, StageError> {
    let pk = &ctx.keys;
    let w = ctx.witness.full();
    let domain = Radix2Domain::<Fr>::new(pk.domain_size).ok_or(StageError::Prove(
        groth16::ProveError::InvalidDomain {
            size: pk.domain_size,
        },
    ))?;
    let (a, b, c) = tr.span("groth16.qap", i, |_| {
        groth16::evaluate_constraints(ctx.r1cs(), &domain, w)
    });
    let h = tr.span("groth16.h", i, |_| {
        groth16::compute_h_coefficients(&domain, a, b, c)
    });
    let private = &w[pk.num_public_wires..];
    for (bases, scalars) in [
        (&pk.a_query, w),
        (&pk.b_g1_query, w),
        (&pk.l_query, private),
        (&pk.h_query, &h[..]),
    ] {
        black_box(tr.span("ec.msm_g1", i, |_| msm(bases, scalars)));
    }
    black_box(tr.span("ec.msm_g2", i, |_| msm(&pk.b_g2_query, w)));
    let rungs = ["groth16.qap", "groth16.h", "ec.msm_g1", "ec.msm_g2"]
        .iter()
        .map(|name| tr.total_ms(name, i))
        .sum();
    // Informational: one NTT at the prover's domain size (seven run
    // inside `groth16.h`), and one pairing.
    let mut v = h;
    tr.span("poly.ntt_bn254", i, |_| domain.fft_in_place(&mut v));
    pairing_rung(tr, i);
    Ok(rungs)
}

/// Groth16 metrics shared by the prover workload and the serve ladder.
pub fn groth16_metrics(
    tr: &mut Tracer,
    ctx: &Ctx<Bn254G16>,
    run: &Run,
    rep: &mut Report,
) -> Result<(), StageError> {
    let pk = &ctx.keys;
    let points = pk.a_query.len()
        + pk.b_g1_query.len()
        + pk.l_query.len()
        + pk.h_query.len()
        + pk.b_g2_query.len();
    rep.set(
        "groth16.setup_ms",
        tr.median_ms("groth16.setup"),
        TRACED_SETUPS as usize,
    );
    rep.set(
        "groth16.contribute_ms",
        tr.median_ms("groth16.contribute"),
        TRACED_SETUPS as usize,
    );
    rep.set(
        "groth16.qap_ms",
        tr.median_ms("groth16.qap"),
        tr.durations("groth16.qap").len(),
    );
    rep.set(
        "groth16.h_ms",
        tr.median_ms("groth16.h"),
        tr.durations("groth16.h").len(),
    );
    let g1 = tr.per_id_totals("ec.msm_g1");
    rep.set("ec.msm_g1_ms", median(&g1), g1.len());
    rep.set(
        "ec.msm_g2_ms",
        tr.median_ms("ec.msm_g2"),
        tr.durations("ec.msm_g2").len(),
    );
    rep.set("ec.msm_points", points as f64, 1);
    rep.set(
        "ec.pairing_ms",
        tr.median_ms("ec.pairing"),
        tr.durations("ec.pairing").len(),
    );
    rep.set(
        "poly.ntt_bn254_ms",
        tr.median_ms("poly.ntt_bn254"),
        tr.durations("poly.ntt_bn254").len(),
    );
    zkey_rungs::<Bn254G16>(tr, pk, &run.scratch, rep)
}

impl Ladder for Bn254G16 {
    const SETUP: &'static str = "groth16.setup";
    const PROVE: &'static str = "groth16.prove";
    const VERIFY: &'static str = "groth16.verify";
    const PROVE_MS: &'static str = "groth16.prove_ms";
    const VERIFY_MS: &'static str = "groth16.verify_ms";
    const UNATTRIBUTED_MS: &'static str = "groth16.unattributed_ms";

    fn traced_setup(
        tr: &mut Tracer,
        r1cs: &R1cs<Fr>,
        rng: &mut StdRng,
        r: u64,
    ) -> Result<Self::Keys, StageError> {
        // `Groth16Backend::setup` is exactly these two calls.
        let mut pk = tr.span(Self::SETUP, r, |_| groth16::setup::<Bn254, _>(r1cs, rng))?;
        tr.span("groth16.contribute", r, |_| {
            groth16::contribute::<Bn254, _>(&mut pk, rng)
        });
        Ok(pk)
    }

    fn ladder(tr: &mut Tracer, ctx: &Ctx<Self>, i: u64) -> Result<f64, StageError> {
        groth16_rungs(tr, ctx, i)
    }

    fn layer_metrics(
        tr: &mut Tracer,
        ctx: &Ctx<Self>,
        run: &Run,
        rep: &mut Report,
    ) -> Result<(), StageError> {
        groth16_metrics(tr, ctx, run, rep)
    }
}

/// Calls per PLONK proof of each rung, read off `plonk_prove`: KZG
/// commits at degree n (three wires, z, the z(ζω) opening) and at the
/// quotient's degree about 3n (t, the batched ζ opening); size-n
/// interpolations (3 wires, z, 5 selectors, 3 σ, PI, L₁) and size-4n
/// coset transforms (15 forward, 1 inverse).
pub const PLONK_COMMITS_N: f64 = 5.0;
pub const PLONK_COMMITS_3N: f64 = 2.0;
pub const PLONK_NTTS_N: f64 = 14.0;
pub const PLONK_NTTS_4N: f64 = 16.0;

impl Ladder for Bn254Plonk {
    const SETUP: &'static str = "plonk.setup";
    const PROVE: &'static str = "plonk.prove";
    const VERIFY: &'static str = "plonk.verify";
    const PROVE_MS: &'static str = "plonk.prove_ms";
    const VERIFY_MS: &'static str = "plonk.verify_ms";
    const UNATTRIBUTED_MS: &'static str = "plonk.unattributed_ms";

    fn setup_rungs(tr: &mut Tracer, r1cs: &R1cs<Fr>, r: u64) -> Result<(), StageError> {
        let circuit = tr
            .span("plonk.arithmetize", r, |_| PlonkCircuit::from_r1cs(r1cs))
            .map_err(|e| StageError::Plonk(e.into()))?;
        let mut rng = rng(r, 4, 0);
        black_box(tr.span("plonk.srs", r, |_| {
            Srs::<Bn254>::generate(4 * circuit.n + 8, &mut rng)
        }));
        Ok(())
    }

    fn ladder(tr: &mut Tracer, ctx: &Ctx<Self>, i: u64) -> Result<f64, StageError> {
        // The key keeps its circuit private; arithmetizing again (untimed)
        // gives the same wire layout.
        let circuit =
            PlonkCircuit::from_r1cs(ctx.r1cs()).map_err(|e| StageError::Plonk(e.into()))?;
        let srs = &ctx.keys.vk().srs;
        let n = circuit.n;
        let bad = |size| {
            StageError::Plonk(zkperf_plonk::ArithmetizeError::TooManyGates { gates: size }.into())
        };
        let domain = Radix2Domain::<Fr>::new(n).ok_or_else(|| bad(n))?;
        let domain4 = Radix2Domain::<Fr>::new(4 * n).ok_or_else(|| bad(4 * n))?;
        let [a_col, _, _] = circuit.wire_columns(ctx.witness.full());
        let mut coeffs = a_col;
        tr.span("poly.ntt_bn254", i, |_| domain.ifft_in_place(&mut coeffs));
        let wire = DensePolynomial::new(coeffs.clone());
        black_box(tr.span("plonk.kzg_commit", i, |_| srs.commit(&wire)));
        let mut coset = coeffs;
        coset.resize(4 * n, Fr::zero());
        tr.span("plonk.ntt_4n", i, |_| {
            domain4.coset_fft_in_place(&mut coset)
        });
        // A polynomial of the quotient's size: the coset values read as
        // coefficients.
        coset.truncate(3 * n + 3);
        let quotient = DensePolynomial::new(coset);
        black_box(tr.span("plonk.kzg_commit_3n", i, |_| srs.commit(&quotient)));
        pairing_rung(tr, i);
        Ok(PLONK_COMMITS_N * tr.total_ms("plonk.kzg_commit", i)
            + PLONK_COMMITS_3N * tr.total_ms("plonk.kzg_commit_3n", i)
            + PLONK_NTTS_N * tr.total_ms("poly.ntt_bn254", i)
            + PLONK_NTTS_4N * tr.total_ms("plonk.ntt_4n", i))
    }

    fn layer_metrics(
        tr: &mut Tracer,
        ctx: &Ctx<Self>,
        _run: &Run,
        rep: &mut Report,
    ) -> Result<(), StageError> {
        let n = ctx.keys.vk().n;
        let reps = tr.durations("plonk.kzg_commit").len();
        rep.set(
            "plonk.arithmetize_ms",
            tr.median_ms("plonk.arithmetize"),
            TRACED_SETUPS as usize,
        );
        rep.set(
            "plonk.srs_ms",
            tr.median_ms("plonk.srs"),
            TRACED_SETUPS as usize,
        );
        rep.set(
            "plonk.kzg_commit_ms",
            tr.median_ms("plonk.kzg_commit"),
            reps,
        );
        rep.set(
            "plonk.kzg_commit_3n_ms",
            tr.median_ms("plonk.kzg_commit_3n"),
            reps,
        );
        rep.set("plonk.ntt_4n_ms", tr.median_ms("plonk.ntt_4n"), reps);
        rep.set("plonk.gates", n as f64, 1);
        rep.set("poly.ntt_bn254_ms", tr.median_ms("poly.ntt_bn254"), reps);
        rep.set("ec.pairing_ms", tr.median_ms("ec.pairing"), reps);
        let points = PLONK_COMMITS_N * n as f64 + PLONK_COMMITS_3N * (3 * n + 3) as f64;
        rep.set("ec.msm_points", points, 1);
        Ok(())
    }
}

/// Calls per STARK proof of the column low-degree extension.
pub const STARK_COLUMNS: f64 = 4.0;

impl Ladder for StarkBackend {
    const SETUP: &'static str = "stark.setup";
    const PROVE: &'static str = "stark.prove";
    const VERIFY: &'static str = "stark.verify";
    const PROVE_MS: &'static str = "stark.prove_ms";
    const VERIFY_MS: &'static str = "stark.verify_ms";
    const UNATTRIBUTED_MS: &'static str = "stark.unattributed_ms";

    fn ladder(tr: &mut Tracer, ctx: &Ctx<Self>, i: u64) -> Result<f64, StageError> {
        let params = ctx.keys;
        let cols = tr.span("stark.trace_build", i, |_| {
            air::build_trace(ctx.r1cs(), ctx.witness.full())
        })?;
        let n = cols.layout.n;
        let n_ext = n * params.blowup;
        let too_large =
            |needed| StageError::Stark(zkperf_stark::StarkError::DomainTooLarge { needed });
        let dom_h = Radix2Domain::<Goldilocks>::new(n).ok_or_else(|| too_large(n))?;
        let dom_lde = Radix2Domain::<Goldilocks>::new(n_ext).ok_or_else(|| too_large(n_ext))?;
        let extend = |column: &[Goldilocks]| {
            let mut v = column.to_vec();
            dom_h.ifft_in_place(&mut v);
            v.resize(n_ext, Goldilocks::zero());
            dom_lde.coset_fft_in_place(&mut v);
            v
        };
        let a = tr.span("poly.ntt_goldilocks", i, |_| extend(&cols.a));
        // The other columns cost the same; they are extended untimed.
        let (b, c, p) = (extend(&cols.b), extend(&cols.c), extend(&cols.p));
        // The trace tree over 4-column LDE rows and a one-column tree of
        // the same size, the quotient commitment's shape.
        black_box(tr.span("stark.merkle", i, |_| {
            let rows = MerkleTree::from_rows(n_ext, |j| vec![a[j], b[j], c[j], p[j]]);
            let single = MerkleTree::from_rows(n_ext, |j| vec![a[j]]);
            (rows.root(), single.root())
        }));
        let lde = fri::LayerDomain {
            shift: dom_lde.coset_shift(),
            omega: dom_lde.group_gen(),
            size: n_ext,
        };
        let mut transcript = Transcript::new(ctx.seed);
        black_box(tr.span("stark.fri_commit", i, |_| {
            fri::fri_commit(a, n, lde, &mut transcript)
        }));
        Ok(tr.total_ms("stark.trace_build", i)
            + STARK_COLUMNS * tr.total_ms("poly.ntt_goldilocks", i)
            + tr.total_ms("stark.merkle", i)
            + tr.total_ms("stark.fri_commit", i))
    }

    fn layer_metrics(
        tr: &mut Tracer,
        ctx: &Ctx<Self>,
        _run: &Run,
        rep: &mut Report,
    ) -> Result<(), StageError> {
        let reps = tr.durations("stark.merkle").len();
        let n_ext = (air::TraceLayout::of(ctx.r1cs()).n * ctx.keys.blowup) as f64;
        rep.set(
            "stark.trace_build_ms",
            tr.median_ms("stark.trace_build"),
            reps,
        );
        rep.set(
            "poly.ntt_goldilocks_ms",
            tr.median_ms("poly.ntt_goldilocks"),
            reps,
        );
        rep.set("stark.merkle_ms", tr.median_ms("stark.merkle"), reps);
        // Leaf sponge calls (4 + 1 per row) plus the internal nodes of the
        // two trees.
        rep.set("stark.merkle_hashes", 5.0 * n_ext + 2.0 * (n_ext - 1.0), 1);
        rep.set(
            "stark.fri_commit_ms",
            tr.median_ms("stark.fri_commit"),
            reps,
        );
        rep.set(
            "stark.soundness_bits",
            f64::from(ctx.keys.soundness_bits()),
            1,
        );
        Ok(())
    }
}
