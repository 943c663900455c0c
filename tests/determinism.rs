//! Integration: measurements are reproducible, and tracer counts depend
//! neither on the simulated CPU (only the machine model differs between
//! CPUs) nor on the size of the thread pool.

use zkperf::core::{measure_cell, measure_cell_backend, BackendKind, Curve, Stage};
use zkperf::machine::CpuProfile;

#[test]
fn repeated_measurement_is_deterministic() {
    let cpu = CpuProfile::i7_8650u();
    let a = measure_cell(Curve::Bn128, &cpu, 64, &[Stage::Setup, Stage::Proving]).unwrap();
    let b = measure_cell(Curve::Bn128, &cpu, 64, &[Stage::Setup, Stage::Proving]).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.counts.total_uops(), y.counts.total_uops(), "{}", x.stage);
        assert_eq!(x.counts.branches, y.counts.branches);
        assert_eq!(x.machine.mispredicts, y.machine.mispredicts);
    }
}

#[test]
fn tracer_counts_do_not_depend_on_simulated_cpu() {
    let a = measure_cell(
        Curve::Bn128,
        &CpuProfile::i7_8650u(),
        64,
        &[Stage::Witness],
    )
    .unwrap();
    let b = measure_cell(
        Curve::Bn128,
        &CpuProfile::i9_13900k(),
        64,
        &[Stage::Witness],
    )
    .unwrap();
    assert_eq!(a[0].counts.total_uops(), b[0].counts.total_uops());
    assert_eq!(a[0].counts.loads, b[0].counts.loads);
    // ...while the machine-model results (cache behaviour) may differ.
    assert_eq!(a[0].machine.cpu, "i7-8650U");
    assert_eq!(b[0].machine.cpu, "i9-13900K");
}

#[test]
fn stage_measurements_carry_their_stage_regions() {
    let cpu = CpuProfile::i5_11400();
    let ms = measure_cell(Curve::Bls12_381, &cpu, 32, &Stage::ALL).unwrap();
    let find = |s: Stage| ms.iter().find(|m| m.stage == s).unwrap();
    assert!(find(Stage::Compile).region("parser").is_some());
    assert!(find(Stage::Setup).region("fixed_base_msm").is_some());
    assert!(find(Stage::Witness).region("witness_solver").is_some());
    assert!(find(Stage::Proving).region("msm").is_some());
    assert!(find(Stage::Verifying).region("miller_loop").is_some());
}

#[test]
fn traced_counts_do_not_depend_on_pool_size() {
    // A live trace session keeps the pool inline on the measuring thread,
    // so every pool task's events land in that session. Groth16 runs at
    // 1024 constraints and PLONK at 512 (its 3n-point commitments), past
    // the MSM and fixed-base pool thresholds; the STARK kernels hand any
    // size to the pool, and a traced STARK proof costs ~20x a Groth16
    // one, so 32 constraints suffice.
    let ambient = zkperf::pool::current_threads();
    let cpu = CpuProfile::i7_8650u();
    let stages = [Stage::Setup, Stage::Proving, Stage::Verifying];
    for (backend, curve, constraints) in [
        (BackendKind::Groth16, Curve::Bn128, 1024),
        (BackendKind::Plonk, Curve::Bn128, 512),
        (BackendKind::Stark, Curve::Goldilocks, 32),
    ] {
        let counts_at = |threads: usize| {
            zkperf::pool::set_threads(threads);
            let ms = measure_cell_backend(backend, curve, &cpu, constraints, &stages).unwrap();
            ms.iter()
                .map(|m| (m.stage, m.counts.total_uops(), m.counts.loads, m.counts.branches))
                .collect::<Vec<_>>()
        };
        let serial = counts_at(1);
        for threads in [2, 4] {
            assert_eq!(counts_at(threads), serial, "{backend:?} at {threads} threads");
        }
    }
    zkperf::pool::set_threads(ambient);
}
