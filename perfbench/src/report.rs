//! Metric tables, the run's correctness ledger, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics of the result line, measured untraced, reported by
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("prove_s", "s"),
    ("peak_mem_mib", "MiB"),
    ("goodput_per_s", "1/s"),
];

/// End-to-end metrics the untraced run prints but leaves out of the
/// result line, as it does `serve_p95_ms` (a traced metric) and
/// `failed_frac`. Over ten runs on a shared 2-core host their spread
/// reached 0.30 of the median or more, above the largest bound allowed
/// (0.25). `failed_frac` reads 0, which no relative bound fits; the
/// result line carries it as `failed` / `attempted`.
pub const PRINTED_ONLY: &[(&str, &str)] =
    &[("e2e_s", "s"), ("verify_ms", "ms"), ("serve_p50_ms", "ms")];

/// Per-layer metrics of the traced run. A workload reports 0 for a layer
/// it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ff.bn254_mul_ns", "ns"),
    ("ff.goldilocks_mul_ns", "ns"),
    ("circuit.compile_ms", "ms"),
    ("circuit.witness_ms", "ms"),
    ("circuit.poseidon_hash2_us", "us"),
    ("ec.msm_g1_ms", "ms"),
    ("ec.msm_g2_ms", "ms"),
    ("ec.msm_points", "count"),
    ("ec.pairing_ms", "ms"),
    ("poly.ntt_bn254_ms", "ms"),
    ("poly.ntt_goldilocks_ms", "ms"),
    ("groth16.setup_ms", "ms"),
    ("groth16.contribute_ms", "ms"),
    ("groth16.qap_ms", "ms"),
    ("groth16.h_ms", "ms"),
    ("groth16.prove_ms", "ms"),
    ("groth16.unattributed_ms", "ms"),
    ("groth16.verify_ms", "ms"),
    ("groth16.verify_batch_per_proof_ms", "ms"),
    ("plonk.arithmetize_ms", "ms"),
    ("plonk.srs_ms", "ms"),
    ("plonk.kzg_commit_ms", "ms"),
    ("plonk.kzg_commit_3n_ms", "ms"),
    ("plonk.ntt_4n_ms", "ms"),
    ("plonk.gates", "count"),
    ("plonk.prove_ms", "ms"),
    ("plonk.unattributed_ms", "ms"),
    ("plonk.verify_ms", "ms"),
    ("stark.trace_build_ms", "ms"),
    ("stark.merkle_ms", "ms"),
    ("stark.merkle_hashes", "count"),
    ("stark.fri_commit_ms", "ms"),
    ("stark.prove_ms", "ms"),
    ("stark.unattributed_ms", "ms"),
    ("stark.verify_ms", "ms"),
    ("stark.soundness_bits", "bits"),
    ("io.proof_bytes", "bytes"),
    ("io.zkey_save_ms", "ms"),
    ("io.zkey_load_ms", "ms"),
    ("mem.setup_peak_mib", "MiB"),
    ("mem.prove_peak_mib", "MiB"),
    ("serve_p95_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.prove_service_ms", "ms"),
    ("serve.verify_service_ms", "ms"),
    ("serve.verify_batch_size", "count"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.busy_frac", "fraction"),
    ("serve.backlog_end", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.failed", "count"),
    ("trace.setup_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.sum_ok", "bool"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

struct Value {
    value: f64,
    samples: usize,
}

/// Metric values plus the ledger of attempted and failed operations.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records metric `name` read from `samples` observations.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let known = |t: &[(&str, &str)]| t.iter().any(|m| m.0 == name);
        assert!(
            known(END_TO_END) || known(PER_LAYER) || known(PRINTED_ONLY),
            "metric {name} is in no table"
        );
        self.values.insert(name, Value { value, samples });
    }

    /// One correctness check or operation: counts it, and a failure with
    /// its reason.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] FAILED: {what}");
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Prints every metric of `table` as `name value unit (n=samples)`
    /// (then any other metric the run measured, marked as not in the
    /// result), then the result line: exactly the metrics of `table`.
    /// Returns whether the run was correct.
    pub fn finish(&self, table: &[(&'static str, &str)]) -> bool {
        let correct = self.failed == 0 && self.attempted > 0;
        for (name, v) in &self.values {
            if !table.iter().any(|m| m.0 == *name) {
                let unit = [END_TO_END, PER_LAYER, PRINTED_ONLY]
                    .concat()
                    .iter()
                    .find(|m| m.0 == *name)
                    .map_or("", |m| m.1);
                println!(
                    "{name:<36} {:>16.6} {unit:<8} (n={}, not in the result)",
                    v.value, v.samples
                );
            }
        }
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let (value, samples) = match self.values.get(name) {
                Some(v) => (v.value, v.samples),
                None => (0.0, 0),
            };
            println!("{name:<36} {value:>16.6} {unit:<8} (n={samples})");
            // JSON has no infinity; a failed job's latency is "beyond any
            // limit" and the run is already marked incorrect.
            let value = if value.is_finite() { value } else { 1e12 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<36} {frac:>16.6} {:<8} (n={})",
            "failed_frac", "fraction", self.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}
