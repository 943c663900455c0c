//! BLS12-381 groups and optimal-ate pairing.

use std::sync::OnceLock;

use zkperf_ff::bls12_381::{
    Fq, Fq12, Fq12Params, Fq2, Fq2Params, Fq6, Fq6Params, Fr, BLS_X, BLS_X_IS_NEGATIVE,
};
use zkperf_ff::{BigUint, Field, Frobenius, PrimeField};
use zkperf_trace as trace;

use crate::curve::{Affine, CurveParams, Projective};
use crate::pairing::{hard_exponent, miller_loop, ExtPoint};
use crate::pairing_fast::{self, G2Prepared, TwistType};

/// Marker for the BLS12-381 G1 group (`y² = x³ + 4` over `Fq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "bls12_381::G1";
    fn coeff_b() -> Fq {
        Fq::from_u64(4)
    }
    fn generator_xy() -> (Fq, Fq) {
        let fq = |s: &str| Fq::from_str_radix(s, 16).expect("valid literal");
        (
            fq("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
            fq("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
        )
    }
    fn glv_params() -> Option<&'static crate::glv::GlvParams<Self>> {
        static CELL: std::sync::OnceLock<Option<crate::glv::GlvParams<G1Params>>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| trace::untraced(crate::glv::derive::<G1Params>)).as_ref()
    }
}

/// BLS12-381 G1 in affine coordinates.
pub type G1Affine = Affine<G1Params>;
/// BLS12-381 G1 in Jacobian coordinates.
pub type G1Projective = Projective<G1Params>;

/// Marker for the BLS12-381 G2 group, the sextic M-twist
/// `y² = x³ + 4(1 + u)` over `Fq2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "bls12_381::G2";
    fn coeff_b() -> Fq2 {
        zkperf_ff::bls12_381::xi().mul_by_base(Fq::from_u64(4))
    }
    fn generator_xy() -> (Fq2, Fq2) {
        let fq = |s: &str| Fq::from_str_radix(s, 16).expect("valid literal");
        (
            Fq2::new(
                fq("024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"),
                fq("13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"),
            ),
            Fq2::new(
                fq("0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"),
                fq("0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"),
            ),
        )
    }
}

/// BLS12-381 G2 in affine coordinates.
pub type G2Affine = Affine<G2Params>;
/// BLS12-381 G2 in Jacobian coordinates.
pub type G2Projective = Projective<G2Params>;

/// Target-group values (the order-`r` subgroup of `Fq12*`).
pub type Gt = Fq12;

fn embed_fq(x: Fq) -> Fq12 {
    Fq12::from_base(Fq6::from_base(Fq2::from_base(x)))
}

/// Maps a G2 point through the M-twist isomorphism onto `E(Fq12)`:
/// `(x', y') ↦ (x'·w⁻², y'·w⁻³)` where `w⁶ = ξ`.
pub fn untwist(q: &G2Affine) -> ExtPoint<Fq12> {
    if q.infinity {
        return ExtPoint::identity();
    }
    let w = Fq12::new(Fq6::zero(), Fq6::one());
    let winv = w.inverse().expect("w != 0");
    let winv2 = winv.square();
    let winv3 = winv2 * winv;
    ExtPoint {
        x: Fq12::from_base(Fq6::from_base(q.x)) * winv2,
        y: Fq12::from_base(Fq6::from_base(q.y)) * winv3,
        infinity: false,
    }
}

/// The BLS Miller loop `f_{|x|,Q}(P)`, conjugated because the BLS parameter
/// is negative.
pub fn miller(p: &G1Affine, q: &G2Affine) -> Fq12 {
    if p.infinity || q.infinity {
        return Fq12::one();
    }
    let (xp, yp) = (embed_fq(p.x), embed_fq(p.y));
    let q12 = untwist(q);
    let s = BigUint::from_u64(BLS_X);
    let (f, _) = miller_loop(&q12, xp, yp, &s);
    if BLS_X_IS_NEGATIVE {
        f.conjugate()
    } else {
        f
    }
}

/// The hard-part exponent `(q⁴ − q² + 1)/r`.
pub fn pairing_hard_exponent() -> BigUint {
    hard_exponent(&Fq::modulus(), &Fr::modulus())
}

/// Binary digits of `|x|`, least-significant first — the BLS parameter is
/// already low-weight, so plain bits beat a NAF recoding here.
fn ate_digits() -> &'static [i8] {
    static CELL: OnceLock<Vec<i8>> = OnceLock::new();
    CELL.get_or_init(|| pairing_fast::bit_digits(BLS_X as u128))
}

/// The line-coefficient sequence of `q` for the `|x|` Miller loop (no
/// correction lines on BLS curves).
fn ate_coeffs(q: &G2Affine) -> Vec<[Fq2; 3]> {
    pairing_fast::prepare_coeffs::<G2Params>(q, TwistType::M, ate_digits(), &[])
}

fn eval_prepared(p: &G1Affine, coeffs: &[[Fq2; 3]]) -> Fq12 {
    let f = pairing_fast::eval_lines::<Fq2Params, Fq6Params, Fq12Params>(
        coeffs,
        ate_digits(),
        0,
        p.x,
        p.y,
        TwistType::M,
    );
    if BLS_X_IS_NEGATIVE {
        f.conjugate()
    } else {
        f
    }
}

/// Precomputes the Miller-loop line coefficients of a fixed G2 point so
/// that pairings against it reduce to sparse multiplications.
pub fn prepare_g2(q: &G2Affine) -> G2Prepared<G2Params> {
    G2Prepared {
        coeffs: if q.infinity { Vec::new() } else { ate_coeffs(q) },
    }
}

/// `g^x` for the (negative) BLS parameter, on cyclotomic elements.
fn pow_x(g: &Fq12) -> Fq12 {
    let t = g.cyclotomic_pow_u64(BLS_X);
    if BLS_X_IS_NEGATIVE {
        t.conjugate()
    } else {
        t
    }
}

/// Final exponentiation via the BLS addition chain with cyclotomic
/// x-power exponentiations. Agrees bit-for-bit with
/// [`crate::pairing::final_exponentiation`].
pub fn final_exponentiation_fast(f: Fq12) -> Gt {
    let _g = trace::region_profile("final_exp");
    // Easy part, identical to the reference: f^(q⁶−1)(q²+1).
    let f1 = f.conjugate() * f.inverse().expect("pairing value non-zero");
    let r = f1.frobenius(2) * f1;
    // Hard part: (q⁴ − q² + 1)/r = m·(x+q)·(x²+q²−1) + 1 with
    // m = (x−1)²/3 — exact for the BLS parameter (x ≡ 1 mod 3), and
    // pinned against the reference exponentiation in the tests. The
    // parameter is negative, so powers of x−1 = −(|x|+1) conjugate after
    // raising to |x|+1.
    let rxm1 = r.cyclotomic_pow_u64(BLS_X + 1).conjugate();
    let a = rxm1.cyclotomic_pow_u64((BLS_X + 1) / 3).conjugate();
    let b = pow_x(&a) * a.frobenius(1);
    let c = pow_x(&pow_x(&b)) * b.frobenius(2) * b.conjugate();
    c * r
}

/// The full optimal-ate pairing `e(P, Q)` on the twisted projective
/// fast path; bit-identical to the untwisted reference
/// `final_exponentiation(miller(p, q), …)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.infinity || q.infinity {
        return Fq12::one();
    }
    final_exponentiation_fast(eval_prepared(p, &ate_coeffs(q)))
}

/// `e(P₁,Q₁)·…·e(Pₙ,Qₙ)` with a single shared final exponentiation.
///
/// Mirrors the MSM length contract: when the slices have different
/// lengths, the longer one is truncated to the shorter and the extra
/// entries are ignored.
pub fn multi_pairing(ps: &[G1Affine], qs: &[G2Affine]) -> Gt {
    let mut f = Fq12::one();
    for (p, q) in ps.iter().zip(qs) {
        if !p.infinity && !q.infinity {
            f *= eval_prepared(p, &ate_coeffs(q));
        }
    }
    final_exponentiation_fast(f)
}

/// [`multi_pairing`] over points prepared with [`prepare_g2`], skipping
/// the per-pairing line computation entirely. Follows the same truncation
/// contract for mismatched lengths.
pub fn multi_pairing_prepared(ps: &[G1Affine], qs: &[&G2Prepared<G2Params>]) -> Gt {
    let mut f = Fq12::one();
    for (p, prep) in ps.iter().zip(qs) {
        if !p.infinity && !prep.coeffs.is_empty() {
            f *= eval_prepared(p, &prep.coeffs);
        }
    }
    final_exponentiation_fast(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::final_exponentiation;

    #[test]
    fn generators_are_on_curve_and_in_subgroup() {
        let g1 = G1Affine::generator();
        assert!(g1.is_on_curve());
        assert!(g1.is_in_subgroup());
        let g2 = G2Affine::generator();
        assert!(g2.is_on_curve());
        assert!(g2.is_in_subgroup());
    }

    #[test]
    fn g1_cofactor_is_nontrivial() {
        // Unlike BN254, BLS12-381 G1 has cofactor > 1: a random curve point
        // obtained by subgroup scaling is always in the subgroup, but the
        // curve order is h·r with h ≠ 1 — spot-check h·r ≠ r via the curve
        // equation count proxy: (r+1)·G = G for subgroup points.
        let g = G1Projective::generator();
        let r_plus_1 = &Fr::modulus() + &BigUint::one();
        assert_eq!(g.mul_bigint(&r_plus_1), g);
    }

    #[test]
    fn untwisted_generator_is_on_e_fq12() {
        let q = untwist(&G2Affine::generator());
        let b = embed_fq(Fq::from_u64(4));
        assert_eq!(q.y.square(), q.x.square() * q.x + b);
    }

    #[test]
    fn pairing_is_non_degenerate_and_order_r() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert!(!e.is_one());
        assert!(e.pow(&Fr::modulus()).is_one());
    }

    #[test]
    fn pairing_is_bilinear() {
        let (a, b) = (Fr::from_u64(6), Fr::from_u64(35));
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let lhs = pairing(&(g1 * a).to_affine(), &(g2 * b).to_affine());
        let rhs = pairing(&(g1 * (a * b)).to_affine(), &G2Affine::generator());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn multi_pairing_matches_product() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(2)).to_affine();
        let q1 = (g2 * Fr::from_u64(9)).to_affine();
        let p2 = (g1 * Fr::from_u64(4)).to_affine();
        let q2 = G2Affine::generator();
        assert_eq!(
            multi_pairing(&[p1, p2], &[q1, q2]),
            pairing(&p1, &q1) * pairing(&p2, &q2)
        );
    }

    #[test]
    fn multi_pairing_truncates_mismatched_lengths() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(8)).to_affine();
        let p2 = (g1 * Fr::from_u64(10)).to_affine();
        let q1 = (g2 * Fr::from_u64(12)).to_affine();
        assert_eq!(multi_pairing(&[p1, p2], &[q1]), pairing(&p1, &q1));
        assert_eq!(multi_pairing(&[p1], &[q1, q1]), pairing(&p1, &q1));
        assert!(multi_pairing(&[], &[q1]).is_one());
    }

    #[test]
    fn bls_parameter_supports_the_cube_root_chain() {
        // The final-exp chain divides (|x|+1) by 3; that must be exact.
        assert_eq!((BLS_X + 1) % 3, 0);
    }

    #[test]
    fn fast_pairing_matches_untwisted_reference_bit_for_bit() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        for (a, b) in [(1u64, 1u64), (6, 35), (41, 43)] {
            let p = (g1 * Fr::from_u64(a)).to_affine();
            let q = (g2 * Fr::from_u64(b)).to_affine();
            let fast = pairing(&p, &q);
            let reference = final_exponentiation(miller(&p, &q), &pairing_hard_exponent());
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn fast_final_exponentiation_matches_reference() {
        let mut rng = zkperf_ff::test_rng();
        let hard = pairing_hard_exponent();
        for _ in 0..2 {
            let f = Fq12::random(&mut rng);
            assert_eq!(final_exponentiation_fast(f), final_exponentiation(f, &hard));
        }
    }

    #[test]
    fn prepared_multi_pairing_matches_unprepared() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let ps = [
            (g1 * Fr::from_u64(14)).to_affine(),
            (g1 * Fr::from_u64(15)).to_affine(),
        ];
        let qs = [
            (g2 * Fr::from_u64(16)).to_affine(),
            (g2 * Fr::from_u64(17)).to_affine(),
        ];
        let prepared: Vec<_> = qs.iter().map(prepare_g2).collect();
        let refs: Vec<_> = prepared.iter().collect();
        assert_eq!(multi_pairing_prepared(&ps, &refs), multi_pairing(&ps, &qs));
    }
}
