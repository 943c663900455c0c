//! Integration: the first traced measurement in a process counts the same
//! work as every later one. One-time constant builds (Frobenius
//! coefficients, GLV parameters, twist constants, Poseidon constants) run
//! outside the trace session, so they never land in whichever stage
//! happens to trigger them. A binary of its own: only a fresh process has
//! every cache cold.

use zkperf::core::{measure_cell_backend, BackendKind, Curve, Stage};
use zkperf::machine::CpuProfile;

#[test]
fn first_traced_verify_counts_like_the_second() {
    let cpu = CpuProfile::i7_8650u();
    for (backend, curve) in [
        (BackendKind::Groth16, Curve::Bn128),
        (BackendKind::Groth16, Curve::Bls12_381),
        (BackendKind::Plonk, Curve::Bn128),
        (BackendKind::Stark, Curve::Goldilocks),
    ] {
        let verify = || {
            let ms = measure_cell_backend(backend, curve, &cpu, 64, &[Stage::Verifying]).unwrap();
            let c = &ms[0].counts;
            (c.total_uops(), c.loads, c.stores, c.branches)
        };
        let first = verify();
        assert_eq!(verify(), first, "{backend:?} on {curve:?}");
    }
}
