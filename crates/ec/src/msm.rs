//! Multi-scalar multiplication (Pippenger's bucket method).
//!
//! MSM dominates both the `setup` and `proving` stages of Groth16; its
//! bucket accumulation produces the scattered memory traffic that the
//! paper's memory analysis attributes to the proving stage.
//!
//! There is one engine, [`msm_stream`]: the bases arrive as a sequence of
//! chunks, each chunk runs the bucket pass below into per-window sums, and
//! the sums fold into one accumulator that a single window combine
//! finishes. The in-memory [`msm`] is the one-chunk case of it (plus a
//! double-and-add shortcut for tiny inputs), and the out-of-core prover
//! feeds it chunks read from disk. Each chunk layers four classic
//! optimizations on the textbook bucket method:
//!
//! * **GLV decomposition.** On curves with the cube-root endomorphism
//!   ([`CurveParams::glv_params`]), every 254-bit scalar splits into two
//!   signed ~128-bit halves and Pippenger runs over `2n` half-width
//!   scalars — roughly half the window passes for one extra field
//!   multiplication per point (`φ(x, y) = (β·x, y)`).
//! * **Signed-digit windows.** Each `c`-bit window digit is recoded into
//!   `[−(2^(c−1)−1), 2^(c−1)]` with a carry into the next window; negative
//!   digits add the negated base point. This halves the bucket count (and
//!   the per-window bucket reduction) for the same window width.
//! * **Batch-affine bucket accumulation.** Points are counting-sorted into
//!   per-bucket segments and summed with [`crate::batch_add::BatchAdder`]:
//!   shared-inversion affine additions at ~6 field multiplications each
//!   instead of ~11 for a Jacobian mixed addition.
//! * **Cache-aware window choice.** The width comes from the shared
//!   Pippenger cost model ([`crate::tuning`]) parameterized by the host's
//!   measured L2/LLC geometry, so the live bucket array stays in cache.
//!
//! Scalars are written once into one flat limb buffer
//! ([`PrimeField::write_canonical_limbs`] or the GLV half-magnitudes), and
//! windows past the scalar bit length are never visited. Chunks past the
//! parallel gate recode their rows and run their windows on the pool;
//! smaller chunks run the same closures in a plain loop.
//!
//! [`msm_naive`] keeps the unoptimized reference semantics; the
//! property-test suite cross-checks the two on both curves.

use zkperf_ff::PrimeField;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::batch_add::BatchAdder;
use crate::curve::{Affine, CurveParams, Projective};
use crate::glv::{GlvParams, HALF_LIMBS};
use crate::tuning;

/// Smallest MSM chunk worth fanning out across the pool; below this the
/// per-window task overhead exceeds the bucket work.
const PAR_MIN_MSM: usize = 1 << 10;

/// Rows per pool task in the recoding passes.
const ROW_GRAIN: usize = 512;

/// Chooses the Pippenger window width (in bits) for `n` terms of
/// `scalar_bits`-bit (possibly GLV-halved) scalars, via the shared
/// cache-aware cost model.
pub(crate) fn window_bits<C: CurveParams>(n: usize, scalar_bits: usize) -> usize {
    tuning::window_bits(n, scalar_bits, std::mem::size_of::<Affine<C>>())
}

/// Reference implementation: independent double-and-add per term.
///
/// Semantically identical to [`msm`] (same slice-length and identity/zero
/// conventions) but with none of the windowed machinery; exists so the
/// optimized kernel has something honest to be checked against.
pub fn msm_naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[C::Scalar]) -> Projective<C> {
    let n = bases.len().min(scalars.len());
    let mut acc = Projective::identity();
    for i in 0..n {
        acc += bases[i].to_projective() * scalars[i];
    }
    acc
}

/// Computes `Σ scalarsᵢ · basesᵢ`.
///
/// Scalars and bases beyond the shorter of the two slices are ignored.
/// Identity bases and zero scalars are handled (skipped) correctly.
/// Bases are assumed to lie in the prime-order subgroup — the standing
/// invariant of points whose scalar type is the subgroup order (and a
/// correctness requirement of the GLV route on cofactor > 1 curves).
///
/// # Examples
///
/// ```
/// use zkperf_ec::bn254::{G1Affine, G1Projective};
/// use zkperf_ec::msm;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// let g = G1Affine::generator();
/// let bases = vec![g; 3];
/// let scalars = vec![Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
/// let expect = G1Projective::generator() * Fr::from_u64(6);
/// assert_eq!(msm(&bases, &scalars), expect);
/// ```
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[C::Scalar]) -> Projective<C> {
    let n = bases.len().min(scalars.len());
    if n < 8 {
        // Naive double-and-add is faster at tiny sizes.
        let _g = trace::region_profile("msm");
        return msm_naive(&bases[..n], &scalars[..n]);
    }
    match msm_stream(n, [Ok::<_, std::convert::Infallible>(bases)], scalars) {
        Ok(sum) => sum,
        Err(never) => match never {},
    }
}

/// Computes `Σ scalarsᵢ · basesᵢ` with the base points arriving as a
/// sequence of chunks — the MSM engine behind [`msm`] (one chunk) and the
/// out-of-core prover (chunks read from disk). `total` is the number of
/// points the iterator will yield in aggregate: the window width is chosen
/// once from the *total* problem size, not per chunk.
///
/// Each chunk runs the signed-digit/GLV Pippenger bucket pass (through
/// `zkperf-pool` when the chunk clears the parallel gate) producing
/// per-window partial sums, which are folded into a running per-window
/// accumulator; one final window combine finishes the job. Scalars are
/// consumed positionally: chunk `k` pairs with the next `chunk.len()`
/// scalars.
///
/// Determinism contract: for a fixed chunk sequence the result is
/// bit-identical (including the projective representative) at any thread
/// count, because the per-chunk passes are and the fold order is the
/// chunk order. Across *different* chunkings the result is the same group
/// element and therefore identical after affine normalization
/// (`to_affine`), which is the form every serialized artifact uses; only
/// the internal projective representative may differ, since bucket sums
/// associate differently.
///
/// The first chunk error aborts the fold and is returned as-is. Points
/// yielded beyond `total` (or beyond the scalar count) are ignored.
pub fn msm_stream<C, T, E, I>(
    total: usize,
    chunks: I,
    scalars: &[C::Scalar],
) -> Result<Projective<C>, E>
where
    C: CurveParams,
    T: AsRef<[Affine<C>]>,
    I: IntoIterator<Item = Result<T, E>>,
{
    let _g = trace::region_profile("msm");
    let n = total.min(scalars.len());
    if n == 0 {
        return Ok(Projective::identity());
    }
    let glv = C::glv_params();
    // Window geometry fixed once from the total problem size.
    let (total_bits, c) = match glv {
        Some(g) => (g.half_bits(), window_bits::<C>(2 * n, g.half_bits())),
        None => {
            let bits = C::Scalar::modulus_bits() as usize;
            (bits, window_bits::<C>(n, bits))
        }
    };
    let num_windows = (total_bits + 1).div_ceil(c);
    let mut acc = vec![Projective::identity(); num_windows];

    let mut offset = 0usize;
    for chunk in chunks {
        let chunk = chunk?;
        if offset >= n {
            break;
        }
        let pts = chunk.as_ref();
        let take = pts.len().min(n - offset);
        if take == 0 {
            continue;
        }
        let scs = &scalars[offset..offset + take];
        let use_pool = pool::current_threads() > 1 && take >= PAR_MIN_MSM;
        let sums = window_sums(&pts[..take], scs, glv, total_bits, c, use_pool);
        for (a, s) in acc.iter_mut().zip(sums) {
            *a += s;
        }
        offset += take;
    }
    Ok(combine_windows(acc, c))
}

/// Runs `row(i, &mut buf[i·stride..(i+1)·stride])` for every row — on the
/// pool in tasks of `ROW_GRAIN` rows when `use_pool`, otherwise in a plain
/// loop. Rows only write their own slots, so both compute the same bits.
fn for_each_row<T: Send>(
    buf: &mut [T],
    stride: usize,
    use_pool: bool,
    row: impl Fn(usize, &mut [T]) + Sync,
) {
    if use_pool {
        pool::parallel_chunks_mut(buf, stride * ROW_GRAIN, |ci, rows| {
            for (j, r) in rows.chunks_mut(stride).enumerate() {
                row(ci * ROW_GRAIN + j, r);
            }
        });
    } else {
        for (i, r) in buf.chunks_mut(stride).enumerate() {
            row(i, r);
        }
    }
}

/// Per-chunk window sums at the caller-fixed window width `c`: recodes the
/// chunk's scalars into one flat limb buffer and runs the bucket pass.
///
/// Without GLV the rows are the canonical scalar limbs. With GLV every
/// scalar splits into two signed half-width components, giving a `2n`-point
/// problem `[±P_i | ±φ(P_i)]` at half the bit length; the signs are folded
/// into the points (`−k·P = k·(−P)`), so the bucket pass never sees them.
fn window_sums<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[C::Scalar],
    glv: Option<&GlvParams<C>>,
    total_bits: usize,
    c: usize,
    use_pool: bool,
) -> Vec<Projective<C>> {
    let n = bases.len();
    let Some(glv) = glv else {
        let stride = C::Scalar::NUM_LIMBS;
        let mut limbs = vec![0u64; n * stride];
        for_each_row(&mut limbs, stride, use_pool, |i, row| {
            scalars[i].write_canonical_limbs(row)
        });
        return pippenger(bases, &limbs, stride, total_bits, c, use_pool);
    };

    // Decompose every scalar once; the splits are pure per-index functions
    // of the inputs, so the parallel fill is bit-identical to a serial one.
    let mut decomposed = vec![crate::glv::DecomposedScalar::default(); n];
    for_each_row(&mut decomposed, 1, use_pool, |i, d| {
        d[0] = glv.decompose(&scalars[i])
    });
    let mut points = vec![Affine::identity(); 2 * n];
    for_each_row(&mut points, 1, use_pool, |i, p| {
        p[0] = if i < n {
            let b = bases[i];
            if decomposed[i].k1.neg {
                b.neg()
            } else {
                b
            }
        } else {
            let endo = glv.endo(&bases[i - n]);
            if decomposed[i - n].k2.neg {
                endo.neg()
            } else {
                endo
            }
        };
    });
    let mut limbs = vec![0u64; 2 * n * HALF_LIMBS];
    for_each_row(&mut limbs, HALF_LIMBS, use_pool, |i, row| {
        let half = if i < n { &decomposed[i].k1 } else { &decomposed[i - n].k2 };
        row.copy_from_slice(&half.limbs);
    });
    pippenger(&points, &limbs, HALF_LIMBS, total_bits, c, use_pool)
}

/// The Pippenger bucket pass over a prepared point array and flat unsigned
/// limb buffer (`stride` limbs per point, digits meaningful up to
/// `total_bits`). Returns the per-window bucket sums, which
/// [`msm_stream`] folds across chunks and combines once.
///
/// Two phases, each a closure over independent index-addressed slots:
///
/// 1. signed-digit recoding per point, laid out row-major
///    (`digits[i·W + w]`) so each point's cross-window carry chain stays in
///    its own row;
/// 2. one bucket accumulation per window, with private scratch buffers.
///
/// `use_pool` only decides whether the pool or a plain loop iterates the
/// rows and windows, so the result is bit-identical at any thread count.
fn pippenger<C: CurveParams>(
    points: &[Affine<C>],
    limbs: &[u64],
    stride: usize,
    total_bits: usize,
    c: usize,
    use_pool: bool,
) -> Vec<Projective<C>> {
    let n = points.len();
    // Magnitudes stay below 2^total_bits; the +1 leaves room for the final
    // signed carry.
    let num_windows = (total_bits + 1).div_ceil(c);
    let half = 1usize << (c - 1); // signed digits: buckets 1..=2^(c-1)

    // Phase 1: raw ∈ [0, 2^c] after the carry from the previous window;
    // anything above 2^(c-1) wraps negative. Identity points keep an
    // all-zero row.
    let mut digits = vec![0i32; n * num_windows];
    for_each_row(&mut digits, num_windows, use_pool, |i, row| {
        if points[i].infinity {
            return;
        }
        let window = &limbs[i * stride..(i + 1) * stride];
        let mut carry = 0usize;
        for (w, d) in row.iter_mut().enumerate() {
            let raw = extract_bits(window, w * c, c) + carry;
            *d = if raw > half {
                carry = 1;
                (raw as i64 - (1i64 << c)) as i32
            } else {
                carry = 0;
                raw as i32
            };
        }
    });

    // Phase 2: counting sort into per-bucket segments, shared-inversion
    // bucket sums, then the running-sum reduction Σ j·bucket[j].
    let window_sum = |w: usize, scratch: &mut BucketScratch<C>| {
        let digit = |i: usize| digits[i * num_windows + w];
        let BucketScratch { counts, segs, sorted, adder } = scratch;
        counts.clear();
        counts.resize(half, 0);
        for i in 0..n {
            let d = digit(i);
            trace::branch(0x3001, d != 0);
            if d != 0 {
                counts[d.unsigned_abs() as usize - 1] += 1;
            }
        }
        segs.clear();
        segs.reserve(half);
        let mut start = 0usize;
        for &count in counts.iter() {
            segs.push((start, 0));
            start += count as usize;
        }
        // Every slot below `start` is written exactly once below, so stale
        // contents from an earlier window never survive.
        if sorted.len() < start {
            sorted.resize(start, Affine::identity());
        }
        for (i, p) in points.iter().enumerate() {
            let d = digit(i);
            if d == 0 {
                continue;
            }
            let (seg_start, seg_len) = &mut segs[d.unsigned_abs() as usize - 1];
            // Scattered write into the bucket segment: the address stream
            // the memory analysis cares about.
            sorted[*seg_start + *seg_len] = if d < 0 { p.neg() } else { *p };
            *seg_len += 1;
        }
        adder.reduce_segments(&mut sorted[..start], segs);
        let mut running = Projective::identity();
        let mut sum = Projective::identity();
        for &(seg_start, seg_len) in segs.iter().rev() {
            if seg_len > 0 {
                running = running.add_mixed(&sorted[seg_start]);
            }
            sum += running;
        }
        sum
    };
    let mut window_sums = vec![Projective::identity(); num_windows];
    if use_pool {
        pool::parallel_fill(&mut window_sums, 1, |w| window_sum(w, &mut BucketScratch::default()));
    } else {
        let mut scratch = BucketScratch::default();
        for (w, slot) in window_sums.iter_mut().enumerate() {
            *slot = window_sum(w, &mut scratch);
        }
    }
    window_sums
}

/// Per-window working buffers of the bucket pass; a plain loop over the
/// windows reuses one set, pool tasks each own theirs.
struct BucketScratch<C: CurveParams> {
    counts: Vec<u32>,
    segs: Vec<(usize, usize)>,
    sorted: Vec<Affine<C>>,
    adder: BatchAdder<C>,
}

impl<C: CurveParams> Default for BucketScratch<C> {
    fn default() -> Self {
        BucketScratch {
            counts: Vec::new(),
            segs: Vec::new(),
            sorted: Vec::new(),
            adder: BatchAdder::new(),
        }
    }
}

/// Combines per-window sums from the top down: `acc = acc·2^c + window`.
fn combine_windows<C: CurveParams>(window_sums: Vec<Projective<C>>, c: usize) -> Projective<C> {
    let mut acc = Projective::identity();
    for sum in window_sums.into_iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += sum;
    }
    acc
}

/// Extracts `count` bits starting at bit `lo` from little-endian limbs.
fn extract_bits(limbs: &[u64], lo: usize, count: usize) -> usize {
    debug_assert!(count < 64);
    let limb = lo / 64;
    let off = lo % 64;
    if limb >= limbs.len() {
        return 0;
    }
    let mut v = limbs[limb] >> off;
    if off + count > 64 && limb + 1 < limbs.len() {
        v |= limbs[limb + 1] << (64 - off);
    }
    (v as usize) & ((1 << count) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Affine, G1Projective};
    use crate::FixedBaseTable;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn extract_bits_crosses_limb_boundaries() {
        let limbs = [0xffff_ffff_ffff_ffff, 0x1];
        assert_eq!(extract_bits(&limbs, 0, 4), 0xf);
        assert_eq!(extract_bits(&limbs, 60, 8), 0b0001_1111);
        assert_eq!(extract_bits(&limbs, 64, 4), 1);
        assert_eq!(extract_bits(&limbs, 128, 4), 0);
    }

    #[test]
    fn msm_empty_and_tiny() {
        assert!(msm::<crate::bn254::G1Params>(&[], &[]).is_identity());
        let g = G1Affine::generator();
        let s = [Fr::from_u64(5)];
        assert_eq!(msm(&[g], &s), G1Projective::generator() * Fr::from_u64(5));
    }

    #[test]
    fn msm_matches_naive_at_crossover_sizes() {
        let mut rng = zkperf_ff::test_rng();
        for n in [7usize, 8, 33, 100, 300] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars), "n = {n}");
        }
    }

    #[test]
    fn msm_handles_zero_scalars_and_identity_bases() {
        let mut rng = zkperf_ff::test_rng();
        let mut bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..20).map(|_| Fr::random(&mut rng)).collect();
        scalars[3] = Fr::zero();
        scalars[11] = Fr::zero();
        bases[5] = G1Affine::identity();
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    #[test]
    fn parallel_msm_is_bit_identical_to_serial() {
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let mut rng = zkperf_ff::test_rng();
        let n = PAR_MIN_MSM + 37; // past the parallel gate, odd tail
        let table = FixedBaseTable::new(&G1Projective::generator());
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[5] = Fr::zero();
        scalars[n - 1] = -Fr::one();
        let mut bases = table.mul_batch(&scalars);
        bases[9] = G1Affine::identity();

        pool::set_threads(1);
        let serial = msm(&bases, &scalars);
        pool::set_threads(4);
        let par4 = msm(&bases, &scalars);
        pool::set_threads(2);
        let par2 = msm(&bases, &scalars);
        pool::set_threads(1);
        // Affine equality is exact limb equality — bit-identity, not just
        // projective-class equality.
        assert_eq!(serial.to_affine(), par4.to_affine());
        assert_eq!(serial.to_affine(), par2.to_affine());
    }

    #[test]
    fn msm_all_zero_scalars_is_identity() {
        let mut rng = zkperf_ff::test_rng();
        for n in [1usize, 7, 8, 64] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars = vec![Fr::zero(); n];
            assert!(msm(&bases, &scalars).is_identity(), "n = {n}");
            assert!(msm_naive(&bases, &scalars).is_identity(), "n = {n}");
        }
    }

    #[test]
    fn msm_mismatched_lengths_truncate_to_shorter_side() {
        // Documented contract: both kernels operate on the common prefix.
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..12).map(|_| Fr::random(&mut rng)).collect();
        let expect = msm(&bases[..12], &scalars);
        assert_eq!(msm(&bases, &scalars), expect);
        assert_eq!(msm_naive(&bases, &scalars), expect);
        let expect = msm(&bases, &scalars[..5]);
        assert_eq!(expect, msm(&bases[..5], &scalars[..5]));
        // Degenerate: one side empty.
        assert!(msm(&bases, &[]).is_identity());
        assert!(msm::<crate::bn254::G1Params>(&[], &scalars).is_identity());
    }

    #[test]
    fn msm_straddles_small_size_breakpoints() {
        // The naive path ends at n = 8 and the window model shifts width
        // with n; check sizes bracketing the old heuristic's breakpoints.
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..257)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..257).map(|_| Fr::random(&mut rng)).collect();
        for n in [1usize, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257] {
            assert_eq!(
                msm(&bases[..n], &scalars[..n]),
                msm_naive(&bases[..n], &scalars[..n]),
                "n = {n}"
            );
        }
    }

    #[test]
    fn msm_handles_extreme_and_duplicate_scalars() {
        // -1 (all top windows saturated) exercises the signed-digit carry
        // chain through the final window; duplicate bases exercise the
        // tangent-doubling path of the batch adder.
        let mut rng = zkperf_ff::test_rng();
        let p = G1Projective::random(&mut rng).to_affine();
        let bases = vec![p; 16];
        let mut scalars = vec![-Fr::one(); 16];
        scalars[7] = Fr::one();
        scalars[8] = Fr::from_u64(u64::MAX);
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    /// msm_stream over in-memory slices split at `chunk`, compared in
    /// affine form (the bit-identity level the streaming contract claims).
    fn stream_of(bases: &[G1Affine], scalars: &[Fr], chunk: usize) -> G1Affine {
        msm_stream(
            bases.len(),
            bases.chunks(chunk).map(Ok::<_, std::convert::Infallible>),
            scalars,
        )
        .unwrap()
        .to_affine()
    }

    #[test]
    fn msm_stream_matches_in_memory_at_any_chunking() {
        let mut rng = zkperf_ff::test_rng();
        let n = 333;
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[1] = -Fr::one();
        let expect = msm(&bases, &scalars).to_affine();
        for chunk in [1usize, 7, 64, 100, n - 1, n, n + 50] {
            assert_eq!(stream_of(&bases, &scalars, chunk), expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn msm_stream_empty_and_error_paths() {
        let empty: Vec<G1Affine> = Vec::new();
        let ok: Result<Projective<crate::bn254::G1Params>, ()> =
            msm_stream(0, std::iter::empty::<Result<Vec<G1Affine>, ()>>(), &[]);
        assert!(ok.unwrap().is_identity());
        // Zero scalars: the iterator must not be required to succeed.
        let ok: Result<Projective<crate::bn254::G1Params>, ()> =
            msm_stream(4, std::iter::once(Err::<Vec<G1Affine>, ()>(())), &[]);
        assert!(ok.unwrap().is_identity());
        let _ = empty;
        // A failing chunk aborts the fold with the error.
        let g = G1Affine::generator();
        let s = vec![Fr::one(); 4];
        let chunks: Vec<Result<Vec<G1Affine>, &str>> =
            vec![Ok(vec![g, g]), Err("checksum"), Ok(vec![g, g])];
        assert_eq!(msm_stream(4, chunks, &s).unwrap_err(), "checksum");
    }

    #[test]
    fn msm_stream_truncates_like_msm() {
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..12).map(|_| Fr::random(&mut rng)).collect();
        // total > scalars: the scalar count wins, extra points ignored.
        let expect = msm(&bases, &scalars).to_affine();
        assert_eq!(stream_of(&bases, &scalars, 5), expect);
        // total < yielded points: total wins.
        let expect = msm(&bases[..10], &scalars).to_affine();
        let got = msm_stream(
            10,
            bases.chunks(3).map(Ok::<_, std::convert::Infallible>),
            &scalars,
        )
        .unwrap()
        .to_affine();
        assert_eq!(got, expect);
    }

    #[test]
    fn msm_stream_is_thread_invariant_at_fixed_chunking() {
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let mut rng = zkperf_ff::test_rng();
        let n = PAR_MIN_MSM + 11; // chunks straddle the parallel gate
        let table = FixedBaseTable::new(&G1Projective::generator());
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let bases = table.mul_batch(&scalars);
        let chunk = PAR_MIN_MSM / 2 + 3;

        pool::set_threads(1);
        let serial = stream_of(&bases, &scalars, chunk);
        pool::set_threads(4);
        let par = stream_of(&bases, &scalars, chunk);
        pool::set_threads(1);
        assert_eq!(serial, par);
        assert_eq!(serial, msm(&bases, &scalars).to_affine());
    }

    #[test]
    fn glv_msm_matches_plain_pippenger() {
        // Run the same inputs through the GLV front end and the plain
        // full-width recoding, serially and on the pool; every route must
        // agree with the naive reference.
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let mut rng = zkperf_ff::test_rng();
        let n = 64;
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[1] = -Fr::one();
        type G1 = crate::bn254::G1Params;
        let glv = G1::glv_params().expect("BN254 G1 has GLV");
        let route = |glv: Option<&GlvParams<G1>>, use_pool: bool| {
            let (bits, c) = match glv {
                Some(g) => (g.half_bits(), window_bits::<G1>(2 * n, g.half_bits())),
                None => {
                    let bits = Fr::modulus_bits() as usize;
                    (bits, window_bits::<G1>(n, bits))
                }
            };
            combine_windows(window_sums(&bases, &scalars, glv, bits, c, use_pool), c)
        };
        let naive = msm_naive(&bases, &scalars);
        pool::set_threads(2);
        for use_pool in [false, true] {
            assert_eq!(route(Some(glv), use_pool), naive, "GLV, pool = {use_pool}");
            assert_eq!(route(None, use_pool), naive, "plain, pool = {use_pool}");
        }
        pool::set_threads(1);
        assert_eq!(msm(&bases, &scalars), naive);
    }
}