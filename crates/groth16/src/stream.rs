//! Chunked key transport: the one shape in which Groth16 setup emits and
//! prove consumes the proving key.
//!
//! The proving key's query vectors are the prover's memory wall — at
//! 2^20 constraints they are hundreds of megabytes of affine points. Key
//! material therefore always moves as chunks: [`crate::setup_streamed`]
//! writes every query through a [`QuerySink`], and
//! [`crate::prove_streamed`] reads every query from a [`QuerySource`]
//! into the chunked MSM engine (`zkperf_ec::msm_stream`). There is one
//! setup body and one prove body; what varies is the transport and the
//! chunk size:
//!
//! * In memory, [`crate::setup`] streams into a [`MemorySink`] and
//!   [`crate::prove`] reads a resident key through [`ChunkedKey`], which
//!   lends slices of the key without copying. Unbudgeted, every query is
//!   one chunk. Under `ZKPERF_MEM_BUDGET` the chunk size per group comes
//!   from `zkperf_ec::tuning::stream_chunk_points`, which bounds the
//!   fixed-base and GLV/limb transients to one chunk's worth.
//! * On disk, `zkperf-io`'s streamed zkey writer and reader implement the
//!   same traits over the checksummed v2 container format, so the key is
//!   never resident in full.
//!
//! The traits live here (not in `zkperf-io`) because `zkperf-io` already
//! depends on this crate.
//!
//! # Determinism
//!
//! Every transport and chunk size produces byte-identical artifacts:
//!
//! * The chunk size never touches the RNG or the scalar side, so RNG draws
//!   and field values match exactly.
//! * Fixed-base multiplication results are affine points, and the affine
//!   representative of a group element is unique — chunking does not
//!   change bytes.
//! * The MSM engine folds per-chunk window sums into the same group
//!   element at any chunking, and proofs normalize through
//!   `batch_to_affine` before serialization.

use std::borrow::Cow;

use zkperf_ec::{tuning, Affine, CurveParams, Engine};
use zkperf_pool as pool;

use crate::key::{ProvingKey, VerifyingKey};

/// A failure in the chunk transport (disk, checksum, truncation) as
/// opposed to the proving math. Carries the byte offset of the failing
/// chunk when the transport knows it, so the error surfaces as a typed
/// artifact error with a seekable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Path of the backing artifact, when there is one.
    pub path: Option<String>,
    /// Byte offset of the failing chunk within the artifact, when known.
    pub offset: Option<u64>,
    /// What went wrong.
    pub detail: String,
}

impl StreamError {
    /// A transport-agnostic error with no location info.
    pub fn msg(detail: impl Into<String>) -> StreamError {
        StreamError { path: None, offset: None, detail: detail.into() }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{path}: ")?;
        }
        write!(f, "{}", self.detail)?;
        if let Some(off) = self.offset {
            write!(f, " (at byte offset {off})")?;
        }
        Ok(())
    }
}

impl std::error::Error for StreamError {}

/// The wire-indexed G1 query vectors of a proving key, in their canonical
/// stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum G1Query {
    /// `[uᵢ(τ)]₁` — the A query.
    A,
    /// `[vᵢ(τ)]₁` — the B query mirrored into G1.
    BG1,
    /// `[(β·uᵢ + α·vᵢ + wᵢ)/δ]₁` over the private wires.
    L,
    /// `[τⁱ·z(τ)/δ]₁` over the domain.
    H,
}

/// All G1 queries in stream order.
pub const G1_QUERIES: [G1Query; 4] = [G1Query::A, G1Query::BG1, G1Query::L, G1Query::H];

/// The shape of a streamed key: enough to derive every query length and
/// chunk count without touching point data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Total wires (length of the A/B queries in both groups).
    pub num_wires: usize,
    /// Public wires (`ic` length; `L` covers the rest).
    pub num_public_wires: usize,
    /// Evaluation-domain size (`H` length).
    pub domain_size: usize,
    /// Points per chunk every query is split into (the final chunk of a
    /// query may be shorter).
    pub chunk_points: usize,
}

impl StreamHeader {
    /// Length of one G1 query vector.
    pub fn g1_len(&self, q: G1Query) -> usize {
        match q {
            G1Query::A | G1Query::BG1 => self.num_wires,
            G1Query::L => self.num_wires - self.num_public_wires,
            G1Query::H => self.domain_size,
        }
    }

    /// Length of the G2 query vector.
    pub fn g2_len(&self) -> usize {
        self.num_wires
    }

    /// Chunks a query of `len` points splits into.
    pub fn chunks_of(&self, len: usize) -> usize {
        len.div_ceil(self.chunk_points.max(1))
    }
}

/// The small fixed points of a proving key — everything that is not a
/// wire-indexed query vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedParts<E: Engine> {
    /// `[β]₁`.
    pub beta_g1: Affine<E::G1>,
    /// `[δ]₁`.
    pub delta_g1: Affine<E::G1>,
    /// The embedded verification key (including the short `ic` vector).
    pub vk: VerifyingKey<E>,
}

/// A fallible chunk iterator over one G1 query. Resident sources lend
/// their slices (`Cow::Borrowed`); sources that decode from a file hand
/// out owned chunks.
pub type G1Chunks<'a, E> = Box<
    dyn Iterator<Item = Result<Cow<'a, [Affine<<E as Engine>::G1>]>, StreamError>> + 'a,
>;

/// A fallible chunk iterator over the G2 query, with the same borrowing
/// convention as [`G1Chunks`].
pub type G2Chunks<'a, E> = Box<
    dyn Iterator<Item = Result<Cow<'a, [Affine<<E as Engine>::G2>]>, StreamError>> + 'a,
>;

/// Read side of a chunked proving key. Implemented by the in-memory
/// [`ChunkedKey`] and by `zkperf-io`'s streamed zkey reader.
pub trait QuerySource<E: Engine> {
    /// The key's shape.
    fn header(&self) -> StreamHeader;
    /// The fixed (non-query) points.
    fn fixed(&self) -> Result<FixedParts<E>, StreamError>;
    /// Chunk iterator over one G1 query, in index order.
    fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, E>;
    /// Chunk iterator over the G2 query, in index order.
    fn g2_chunks(&self) -> G2Chunks<'_, E>;
}

/// Write side of a chunked proving key. Implemented by the in-memory
/// [`MemorySink`] and by `zkperf-io`'s streamed zkey writer.
pub trait QuerySink<E: Engine> {
    /// Announces the shape before any chunk; called exactly once.
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError>;
    /// Appends the next chunk of `q`, in index order.
    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError>;
    /// Appends the next chunk of the G2 query, in index order.
    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError>;
    /// Delivers the fixed points and finalizes the artifact.
    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError>;
}

/// Points per chunk for a query of `C` points under the active memory
/// budget: `usize::MAX` (every query is one chunk) when unbudgeted.
pub(crate) fn budget_chunk<C: CurveParams>() -> usize {
    pool::mem::budget().map_or(usize::MAX, |budget| {
        tuning::stream_chunk_points(
            budget,
            std::mem::size_of::<Affine<C>>(),
            std::mem::size_of::<C::Scalar>(),
        )
    })
}

/// [`QuerySource`] over a resident [`ProvingKey`]: lends slices of the
/// key's own vectors as chunks (`Cow::Borrowed` — wrapped, not cloned).
pub struct ChunkedKey<'a, E: Engine> {
    key: &'a ProvingKey<E>,
    g1_chunk: usize,
    g2_chunk: usize,
}

impl<'a, E: Engine> ChunkedKey<'a, E> {
    /// Wraps `key`, splitting every query into `chunk_points`-sized
    /// chunks.
    pub fn new(key: &'a ProvingKey<E>, chunk_points: usize) -> ChunkedKey<'a, E> {
        let chunk = chunk_points.max(1);
        ChunkedKey { key, g1_chunk: chunk, g2_chunk: chunk }
    }

    /// Wraps `key` the way [`crate::prove`] reads it: each query is one
    /// chunk, or, under a memory budget, the per-group chunk size the
    /// budget allows.
    pub(crate) fn resident(key: &'a ProvingKey<E>) -> ChunkedKey<'a, E> {
        ChunkedKey {
            key,
            g1_chunk: budget_chunk::<E::G1>(),
            g2_chunk: budget_chunk::<E::G2>(),
        }
    }

    fn g1_query(&self, q: G1Query) -> &'a [Affine<E::G1>] {
        match q {
            G1Query::A => &self.key.a_query,
            G1Query::BG1 => &self.key.b_g1_query,
            G1Query::L => &self.key.l_query,
            G1Query::H => &self.key.h_query,
        }
    }
}

impl<E: Engine> QuerySource<E> for ChunkedKey<'_, E> {
    fn header(&self) -> StreamHeader {
        StreamHeader {
            num_wires: self.key.a_query.len(),
            num_public_wires: self.key.num_public_wires,
            domain_size: self.key.domain_size,
            chunk_points: self.g1_chunk,
        }
    }

    fn fixed(&self) -> Result<FixedParts<E>, StreamError> {
        Ok(FixedParts {
            beta_g1: self.key.beta_g1,
            delta_g1: self.key.delta_g1,
            vk: self.key.vk.clone(),
        })
    }

    fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, E> {
        Box::new(self.g1_query(q).chunks(self.g1_chunk).map(|c| Ok(Cow::Borrowed(c))))
    }

    fn g2_chunks(&self) -> G2Chunks<'_, E> {
        Box::new(self.key.b_g2_query.chunks(self.g2_chunk).map(|c| Ok(Cow::Borrowed(c))))
    }
}

/// [`QuerySink`] that reassembles the chunks into a resident
/// [`ProvingKey`] — the sink behind [`crate::setup`].
pub struct MemorySink<E: Engine> {
    header: Option<StreamHeader>,
    a: Vec<Affine<E::G1>>,
    b_g1: Vec<Affine<E::G1>>,
    l: Vec<Affine<E::G1>>,
    h: Vec<Affine<E::G1>>,
    b_g2: Vec<Affine<E::G2>>,
    fixed: Option<FixedParts<E>>,
}

impl<E: Engine> MemorySink<E> {
    /// An empty sink.
    pub fn new() -> MemorySink<E> {
        MemorySink {
            header: None,
            a: Vec::new(),
            b_g1: Vec::new(),
            l: Vec::new(),
            h: Vec::new(),
            b_g2: Vec::new(),
            fixed: None,
        }
    }

    /// The assembled key, once `finish` has delivered the fixed parts.
    pub fn into_proving_key(self) -> Option<ProvingKey<E>> {
        let header = self.header?;
        let fixed = self.fixed?;
        Some(ProvingKey {
            vk: fixed.vk,
            beta_g1: fixed.beta_g1,
            delta_g1: fixed.delta_g1,
            a_query: self.a,
            b_g1_query: self.b_g1,
            b_g2_query: self.b_g2,
            l_query: self.l,
            h_query: self.h,
            domain_size: header.domain_size,
            num_public_wires: header.num_public_wires,
        })
    }
}

impl<E: Engine> Default for MemorySink<E> {
    fn default() -> MemorySink<E> {
        MemorySink::new()
    }
}

impl<E: Engine> QuerySink<E> for MemorySink<E> {
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError> {
        self.header = Some(*header);
        Ok(())
    }

    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError> {
        let len = self.header.map_or(0, |h| h.g1_len(q));
        let query = match q {
            G1Query::A => &mut self.a,
            G1Query::BG1 => &mut self.b_g1,
            G1Query::L => &mut self.l,
            G1Query::H => &mut self.h,
        };
        append(query, len, pts);
        Ok(())
    }

    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError> {
        let len = self.header.map_or(0, |h| h.g2_len());
        append(&mut self.b_g2, len, pts);
        Ok(())
    }

    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError> {
        self.fixed = Some(fixed.clone());
        Ok(())
    }
}

/// Appends a chunk to a query of `len` points, sizing it exactly on its
/// first chunk. Reserving per query rather than in `begin` keeps the
/// queries setup has not reached yet out of its peak working set.
fn append<T: Clone>(query: &mut Vec<T>, len: usize, pts: &[T]) {
    if query.is_empty() {
        query.reserve_exact(len);
    }
    query.extend_from_slice(pts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Proof;
    use crate::{prove, prove_streamed, qap, setup, setup_streamed, verify, ProveError, SetupError};
    use rand::Rng;
    use zkperf_circuit::library::exponentiate;
    use zkperf_circuit::Witness;
    use zkperf_ec::{msm_naive, Bn254, Projective};
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;
    use zkperf_poly::Radix2Domain;
    use zkperf_pool::mem;

    fn fixture(n: usize) -> (zkperf_circuit::Circuit<Fr>, ProvingKey<Bn254>, Witness<Fr>) {
        let circuit = exponentiate::<Fr>(n);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        (circuit, pk, w)
    }

    /// The proof `prove` must produce, computed with double-and-add MSMs
    /// over the whole resident query vectors and the same RNG draws.
    fn reference_proof<R: Rng>(
        pk: &ProvingKey<Bn254>,
        circuit: &zkperf_circuit::Circuit<Fr>,
        witness: &Witness<Fr>,
        rng: &mut R,
    ) -> Proof<Bn254> {
        let w = witness.full();
        let domain = Radix2Domain::<Fr>::new(pk.domain_size).unwrap();
        let (a, b, c) = qap::evaluate_constraints(circuit.r1cs(), &domain, w);
        let h = qap::compute_h_coefficients(&domain, a, b, c);
        let (r, s) = (Fr::random(rng), Fr::random(rng));
        let delta = pk.delta_g1.to_projective();
        let g_a = pk.vk.alpha_g1.to_projective() + msm_naive(&pk.a_query, w) + delta * r;
        let g_b = pk.vk.beta_g2.to_projective()
            + msm_naive(&pk.b_g2_query, w)
            + pk.vk.delta_g2.to_projective() * s;
        let g_b1 = pk.beta_g1.to_projective() + msm_naive(&pk.b_g1_query, w) + delta * s;
        let g_c = msm_naive(&pk.l_query, &w[pk.num_public_wires..])
            + msm_naive(&pk.h_query, &h)
            + g_a * s
            + g_b1 * r
            + (delta * (r * s)).neg();
        let affine = Projective::batch_to_affine(&[g_a, g_c]);
        Proof { a: affine[0], b: g_b.to_affine(), c: affine[1] }
    }

    #[test]
    fn streamed_setup_reproduces_resident_key() {
        let circuit = exponentiate::<Fr>(25);
        let mut rng = zkperf_ff::test_rng();
        let resident = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        for chunk in [1usize, 7, 64, 1 << 20] {
            let mut rng = zkperf_ff::test_rng();
            let mut sink = MemorySink::<Bn254>::new();
            let vk =
                setup_streamed(circuit.r1cs(), &mut rng, chunk, &mut sink).unwrap();
            let streamed = sink.into_proving_key().unwrap();
            assert_eq!(streamed, resident, "chunk = {chunk}");
            assert_eq!(vk, resident.vk, "chunk = {chunk}");
        }
    }

    #[test]
    fn streamed_prove_reproduces_resident_proof() {
        let (circuit, pk, w) = fixture(40);
        let mut rng = zkperf_ff::test_rng();
        let reference = reference_proof(&pk, &circuit, &w, &mut rng);
        assert!(verify::<Bn254>(&pk.vk, &reference, w.public()).unwrap());
        let mut rng = zkperf_ff::test_rng();
        assert_eq!(prove(&pk, circuit.r1cs(), &w, &mut rng).unwrap(), reference);
        for chunk in [1usize, 13, pk.a_query.len()] {
            let mut rng = zkperf_ff::test_rng();
            let src = ChunkedKey::new(&pk, chunk);
            let streamed =
                prove_streamed(&src, circuit.r1cs(), &w, &mut rng).unwrap();
            assert_eq!(streamed, reference, "chunk = {chunk}");
        }
    }

    #[test]
    fn resident_source_lends_slices() {
        let (_, pk, _) = fixture(40);
        for src in [ChunkedKey::new(&pk, 13), ChunkedKey::resident(&pk)] {
            for q in G1_QUERIES {
                let mut points = 0;
                for chunk in src.g1_chunks(q) {
                    let chunk = chunk.unwrap();
                    assert!(matches!(chunk, Cow::Borrowed(_)), "{q:?} chunk was copied");
                    points += chunk.len();
                }
                assert_eq!(points, src.header().g1_len(q), "{q:?}");
            }
            for chunk in src.g2_chunks() {
                assert!(matches!(chunk.unwrap(), Cow::Borrowed(_)), "G2 chunk was copied");
            }
        }
    }

    #[test]
    fn budget_gate_keeps_setup_and_prove_byte_identical() {
        // 700 constraints: every query spans several 256-point chunks, the
        // smallest chunk the budget planner hands out.
        let (circuit, _, w) = fixture(700);
        mem::set_budget(None);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let mut rng = zkperf_ff::test_rng();
        let reference = reference_proof(&pk, &circuit, &w, &mut rng);

        // Absurdly small budget: both stages must chunk and still match.
        mem::set_budget(Some(1));
        assert!(budget_chunk::<<Bn254 as Engine>::G1>() < pk.a_query.len());
        let mut rng = zkperf_ff::test_rng();
        let pk_budgeted = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let mut rng = zkperf_ff::test_rng();
        let proof_budgeted = prove(&pk_budgeted, circuit.r1cs(), &w, &mut rng).unwrap();
        mem::set_budget(None);

        assert_eq!(pk_budgeted, pk);
        assert_eq!(proof_budgeted, reference);
    }

    fn checksum_failure() -> StreamError {
        StreamError {
            path: Some("pk.zkey".into()),
            offset: Some(4096),
            detail: "section checksum mismatch".into(),
        }
    }

    fn assert_located(e: &StreamError) {
        assert_eq!(e.offset, Some(4096));
        let msg = e.to_string();
        assert!(msg.contains("pk.zkey"), "{msg}");
        assert!(msg.contains("byte offset 4096"), "{msg}");
    }

    #[test]
    fn stream_errors_propagate_with_location() {
        struct FailingSource<'a>(ChunkedKey<'a, Bn254>);
        impl QuerySource<Bn254> for FailingSource<'_> {
            fn header(&self) -> StreamHeader {
                self.0.header()
            }
            fn fixed(&self) -> Result<FixedParts<Bn254>, StreamError> {
                self.0.fixed()
            }
            fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, Bn254> {
                if matches!(q, G1Query::H) {
                    Box::new(std::iter::once(Err(checksum_failure())))
                } else {
                    self.0.g1_chunks(q)
                }
            }
            fn g2_chunks(&self) -> G2Chunks<'_, Bn254> {
                self.0.g2_chunks()
            }
        }
        let (circuit, pk, w) = fixture(40);
        let src = FailingSource(ChunkedKey::new(&pk, 8));
        let mut rng = zkperf_ff::test_rng();
        match prove_streamed(&src, circuit.r1cs(), &w, &mut rng).unwrap_err() {
            ProveError::Source(e) => assert_located(&e),
            other => panic!("expected Source error, got {other:?}"),
        }
    }

    #[test]
    fn sink_errors_propagate_with_location() {
        /// Accepts the header and the A query, then fails on the first
        /// chunk of any other query.
        struct FailingSink(MemorySink<Bn254>);
        type G1 = <Bn254 as Engine>::G1;
        type G2 = <Bn254 as Engine>::G2;
        impl QuerySink<Bn254> for FailingSink {
            fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError> {
                self.0.begin(header)
            }
            fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<G1>]) -> Result<(), StreamError> {
                match q {
                    G1Query::A => self.0.g1_chunk(q, pts),
                    _ => Err(checksum_failure()),
                }
            }
            fn g2_chunk(&mut self, _: &[Affine<G2>]) -> Result<(), StreamError> {
                Err(checksum_failure())
            }
            fn finish(&mut self, fixed: &FixedParts<Bn254>) -> Result<(), StreamError> {
                self.0.finish(fixed)
            }
        }
        let circuit = exponentiate::<Fr>(40);
        for chunk in [7usize, 1 << 20] {
            let mut sink = FailingSink(MemorySink::new());
            let mut rng = zkperf_ff::test_rng();
            match setup_streamed(circuit.r1cs(), &mut rng, chunk, &mut sink).unwrap_err() {
                SetupError::Sink(e) => assert_located(&e),
                other => panic!("expected Sink error, got {other:?}"),
            }
            // The sink never saw `finish`, so it holds no key.
            assert!(sink.0.into_proving_key().is_none());
        }
    }
}
