//! Integration: proofs are byte-identical at any thread-pool size.
//!
//! The pool decomposes work purely by input size and reduces in a fixed
//! order, so setup, witness evaluation, NTT, MSM, Merkle hashing, and
//! FRI folding must produce the same bits whether they ran serially or
//! on N workers. This is the workspace-level seal on that rule: a full
//! setup→prove→serialize round at a size that clears every parallel
//! threshold, compared byte for byte across pool sizes — once for the
//! randomness-carrying Groth16 pipeline (under a pinned RNG) and once
//! for the randomness-free STARK pipeline.
//!
//! The Groth16 key and proof bytes are also pinned to CRC32 constants,
//! so every route that produces them — unbudgeted, under a memory
//! budget, and streamed through `QuerySink`/`QuerySource` at odd chunk
//! sizes — must keep reproducing the same artifacts across refactors.
//!
//! The pool size and the memory budget are process-global state, so the
//! tests serialize on one lock.

use std::sync::Mutex;

use zkperf::circuit::library;
use zkperf::ec::{Bls12_381, Bn254, CurveParams, Engine};
use zkperf::ff::{Field, Goldilocks};
use zkperf::groth16::{
    prove, prove_streamed, setup, setup_streamed, verify, ChunkedKey, MemorySink, Proof,
    ProvingKey,
};
use zkperf::io::{crc32, write_proof, write_zkey, FieldCodec};
use zkperf::pool;
use zkperf::stark::StarkParams;

/// Serializes the tests that move the global pool size or memory budget.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// 2^12 constraints clears every parallel gate in the pairing pipeline
/// (MSM ≥ 2^10 points, NTT ≥ 2^12 domain, setup/quotient ≥ 2^12 scalars,
/// constraint evaluation ≥ 2^10 rows).
const CONSTRAINTS: usize = 1 << 12;

/// 2^10 constraints at blowup 8 puts the STARK LDE at 2^13, past the
/// NTT parallel gate as well as the Merkle (64) and FRI fold (256)
/// grains.
const STARK_CONSTRAINTS: usize = 1 << 10;

fn groth16_proof_bytes() -> Vec<u8> {
    type Fr = zkperf::ff::bn254::Fr;
    let circuit = library::exponentiate::<Fr>(CONSTRAINTS);
    let mut rng = zkperf::ff::test_rng();
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
    let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(verify::<Bn254>(&pk.vk, &proof, witness.public()).unwrap());
    let mut bytes = Vec::new();
    write_proof::<Bn254>(&mut bytes, &proof).unwrap();
    bytes
}

fn stark_proof_bytes() -> Vec<u8> {
    type F = Goldilocks;
    let circuit = library::exponentiate::<F>(STARK_CONSTRAINTS);
    let witness = circuit.generate_witness(&[F::from_u64(3)], &[]).unwrap();
    let params = StarkParams {
        blowup: 8,
        num_queries: 16,
    };
    let proof = zkperf::stark::prove(circuit.r1cs(), witness.full(), &params).unwrap();
    zkperf::stark::verify(circuit.r1cs(), witness.public(), &proof, &params).unwrap();
    proof.encode()
}

#[test]
fn proofs_are_byte_identical_across_thread_counts() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // First round at the ambient pool size (ZKPERF_THREADS when
    // scripts/check.sh drives this binary), then explicit 1/2/4-thread
    // pools; every round must serialize to the same bytes.
    let groth16_baseline = groth16_proof_bytes();
    let stark_baseline = stark_proof_bytes();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        assert_eq!(
            groth16_baseline,
            groth16_proof_bytes(),
            "Groth16 proof bytes differ at {threads} thread(s)"
        );
        assert_eq!(
            stark_baseline,
            stark_proof_bytes(),
            "STARK proof bytes differ at {threads} thread(s)"
        );
    }
    pool::set_threads(1);
}

/// `(curve, constraints, crc32(write_zkey), crc32(write_proof))` for the
/// `exponentiate` circuit set up and proven from `test_rng()` with
/// witness x = 3. The constants were captured from the in-memory
/// pipeline before it was folded into the streamed one; any route that
/// changes them changed the artifacts.
const PINS: [(&str, usize, u32, u32); 4] = [
    ("bn254", 32, 0x31542eac, 0x676e30ac),
    ("bn254", CONSTRAINTS, 0xdc793b71, 0x5aa34b09),
    ("bls12_381", 32, 0xb560960f, 0x25821958),
    ("bls12_381", CONSTRAINTS, 0x1e7bdf34, 0x140a25fa),
];

/// Chunk sizes the streamed route is pinned at. Chunk 1 costs a full
/// bucket pass per point, so the streamed route runs only on the small
/// circuit.
const STREAM_CHUNKS: [usize; 2] = [1, 7];
const STREAM_MAX_CONSTRAINTS: usize = 64;

fn artifact_crcs<E: Engine>(pk: &ProvingKey<E>, proof: &Proof<E>) -> (u32, u32)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut zkey = Vec::new();
    write_zkey::<E>(&mut zkey, pk).unwrap();
    let mut bytes = Vec::new();
    write_proof::<E>(&mut bytes, proof).unwrap();
    (crc32(&zkey), crc32(&bytes))
}

/// Setup + prove through the resident entry points.
fn resident_crcs<E: Engine>(constraints: usize) -> (u32, u32)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let circuit = library::exponentiate::<E::Fr>(constraints);
    let mut rng = zkperf::ff::test_rng();
    let pk = setup::<E, _>(circuit.r1cs(), &mut rng).unwrap();
    let witness = circuit.generate_witness(&[E::Fr::from_u64(3)], &[]).unwrap();
    let proof = prove::<E, _>(&pk, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(verify::<E>(&pk.vk, &proof, witness.public()).unwrap());
    artifact_crcs(&pk, &proof)
}

/// Setup into a `MemorySink` and prove from a `ChunkedKey`, both split
/// into `chunk`-point pieces.
fn streamed_crcs<E: Engine>(constraints: usize, chunk: usize) -> (u32, u32)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let circuit = library::exponentiate::<E::Fr>(constraints);
    let mut rng = zkperf::ff::test_rng();
    let mut sink = MemorySink::<E>::new();
    setup_streamed::<E, _, _>(circuit.r1cs(), &mut rng, chunk, &mut sink).unwrap();
    let pk = sink.into_proving_key().unwrap();
    let witness = circuit.generate_witness(&[E::Fr::from_u64(3)], &[]).unwrap();
    let src = ChunkedKey::new(&pk, chunk);
    let proof = prove_streamed::<E, _, _>(&src, circuit.r1cs(), &witness, &mut rng).unwrap();
    artifact_crcs(&pk, &proof)
}

fn check_pins<E: Engine>(curve: &str, threads: usize)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    for &(_, constraints, zkey, proof) in PINS.iter().filter(|p| p.0 == curve) {
        let want = (zkey, proof);
        let at = |route: &str| format!("{curve} 2^{constraints} {route} at {threads} thread(s)");

        pool::mem::set_budget(None);
        assert_eq!(resident_crcs::<E>(constraints), want, "{}", at("unbudgeted"));

        pool::mem::set_budget(Some(1 << 16));
        let budgeted = resident_crcs::<E>(constraints);
        pool::mem::set_budget(None);
        assert_eq!(budgeted, want, "{}", at("under a 64 KiB budget"));

        if constraints <= STREAM_MAX_CONSTRAINTS {
            for chunk in STREAM_CHUNKS {
                let got = streamed_crcs::<E>(constraints, chunk);
                assert_eq!(got, want, "{}", at(&format!("streamed at chunk {chunk}")));
            }
        }
    }
}

#[test]
fn groth16_artifacts_match_their_pins_on_every_route() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let ambient = pool::current_threads();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        check_pins::<Bn254>("bn254", threads);
        check_pins::<Bls12_381>("bls12_381", threads);
    }
    pool::set_threads(ambient);
}
