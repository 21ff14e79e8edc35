//! What the two CPU proving workloads share: per-proof samples, the
//! grind-normalized end-to-end metrics, and the per-layer metrics read
//! from the program's own spans and counters.

use std::collections::BTreeMap;

use unizk_fri::{kernel_totals_from, FriConfig};
use unizk_hash::MerkleTree;
use unizk_testkit::trace::TraceReport;

use crate::metrics::Metrics;
use crate::stats::{mean, median, normalize_ns};

/// Measurements of one proof, from prove to verify.
#[derive(Clone, Copy, Debug)]
pub struct ProofSample {
    /// Host time of the prove call (the pipeline's `service_ns` when
    /// served).
    pub prove_ns: f64,
    /// Grind attempts of the proof.
    pub attempts: u64,
    /// `to_bytes` time.
    pub encode_ns: f64,
    /// `from_bytes` time.
    pub decode_ns: f64,
    /// `verify` time on the decoded proof.
    pub verify_ns: f64,
    /// Serialized size.
    pub bytes: usize,
    /// Factor to the reference host speed over this proof (see `host`).
    pub host_factor: f64,
}

/// Samples of a measured pass plus the grind cost per attempt that
/// normalizes them.
#[derive(Default)]
pub struct Samples {
    /// One entry per proof.
    pub proofs: Vec<ProofSample>,
    /// Operations attempted (a prove with its decode and verify checks).
    pub attempted: u64,
    /// Operations with any failed check.
    pub failed: u64,
}

impl Samples {
    /// Grind-normalized prove times (ns).
    pub fn normalized_ns(&self, pow_bits: usize, ns_per_attempt: f64) -> Vec<f64> {
        self.proofs
            .iter()
            .map(|p| normalize_ns(p.prove_ns, p.attempts, pow_bits, ns_per_attempt))
            .collect()
    }

    /// Grind-normalized prove times at the reference host speed (ns).
    pub fn adjusted_ns(&self, pow_bits: usize, ns_per_attempt: f64) -> Vec<f64> {
        let normalized = self.normalized_ns(pow_bits, ns_per_attempt);
        normalized
            .iter()
            .zip(&self.proofs)
            .map(|(n, p)| n * p.host_factor)
            .collect()
    }

    /// `from_bytes` plus `verify` times (ns).
    pub fn check_ns(&self) -> Vec<f64> {
        self.proofs
            .iter()
            .map(|p| p.decode_ns + p.verify_ns)
            .collect()
    }

    fn field(&self, f: impl Fn(&ProofSample) -> f64) -> Vec<f64> {
        self.proofs.iter().map(f).collect()
    }
}

/// The program's spans and counters summed over the traced proofs.
#[derive(Default)]
pub struct TraceTotals {
    /// Proofs the snapshots cover.
    pub proofs: u64,
    /// Grind attempts of those proofs.
    pub attempts: u64,
    /// Per span name (wherever it sits in the tree): total ns and count.
    named: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    kernels_ns: [u64; 5],
}

impl TraceTotals {
    /// Adds one snapshot covering `proofs` proofs with `attempts` grind
    /// attempts between them.
    pub fn add(&mut self, report: &TraceReport, proofs: u64, attempts: u64) {
        self.proofs += proofs;
        self.attempts += attempts;
        report.walk(&mut |_, node| {
            let slot = self.named.entry(node.name.clone()).or_default();
            slot.0 += node.ns;
            slot.1 += node.count;
        });
        for (name, v) in &report.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (slot, (_, d)) in self.kernels_ns.iter_mut().zip(kernel_totals_from(report)) {
            *slot += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Total ns of every span called `name`.
    pub fn span_ns(&self, name: &str) -> f64 {
        self.named.get(name).map_or(0.0, |&(ns, _)| ns as f64)
    }

    /// Milliseconds per proof spent in spans called `name`.
    pub fn per_proof_ms(&self, name: &str) -> f64 {
        self.span_ns(name) / 1e6 / self.proofs as f64
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Host unit costs measured by the traced run.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// ns per Poseidon permutation.
    pub perm_ns: f64,
    /// ns per NTT butterfly.
    pub butterfly_ns: f64,
}

/// Permutations to commit every FRI fold layer of a degree-`degree`
/// codeword: one Merkle tree per folding round over leaves holding a
/// sibling pair of quadratic-extension values (4 base elements).
pub fn fold_commit_perms(fri: &FriConfig, degree: usize) -> u64 {
    let lde = degree << fri.rate_bits;
    (0..fri.num_reduction_rounds(degree))
        .map(|round| MerkleTree::permutation_cost(&vec![4; lde >> (round + 1)]) as u64)
        .sum()
}

/// The end-to-end metrics of a CPU pass, at the reference host speed.
/// `ops_per_s` and `sim_mcycles` are workload-specific and set by the
/// caller.
pub fn end_to_end(samples: &Samples, pow_bits: usize, ns_per_attempt: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set(
        "op_ms_p50",
        median(&samples.adjusted_ns(pow_bits, ns_per_attempt)) / 1e6,
    );
    let check: Vec<f64> = samples
        .check_ns()
        .iter()
        .zip(&samples.proofs)
        .map(|(c, p)| c * p.host_factor)
        .collect();
    m.set("check_ms_p50", median(&check) / 1e6);
    let factors: Vec<f64> = samples.proofs.iter().map(|p| p.host_factor).collect();
    println!(
        "unadjusted op_ms_p50 {:.4} check_ms_p50 {:.4} (median host factor {:.4})",
        median(&samples.normalized_ns(pow_bits, ns_per_attempt)) / 1e6,
        median(&samples.check_ns()) / 1e6,
        median(&factors)
    );
    m
}

/// Per-layer metrics both CPU workloads report, from a traced pass;
/// `fold_perms` is the FRI fold-commit permutation count summed over the
/// traced proofs.
pub fn layers(
    samples: &Samples,
    totals: &TraceTotals,
    pow_bits: usize,
    ns_per_attempt: f64,
    units: UnitCosts,
    fold_perms: u64,
) -> Metrics {
    let mut m = Metrics::default();
    let proofs = totals.proofs as f64;
    m.set(
        "wire.encode_us_p50",
        median(&samples.field(|p| p.encode_ns)) / 1e3,
    );
    m.set(
        "wire.decode_us_p50",
        median(&samples.field(|p| p.decode_ns)) / 1e3,
    );
    m.set(
        "wire.proof_kb",
        mean(&samples.field(|p| p.bytes as f64)) / 1024.0,
    );
    m.set(
        "fri.grind_attempts_mean",
        mean(&samples.field(|p| p.attempts as f64)),
    );
    m.set("fri.grind_attempts_expected", (1u64 << pow_bits) as f64);
    m.set("fri.grind_ns_per_attempt", ns_per_attempt);
    m.set("fri.grind_ms", totals.per_proof_ms("fri.grind"));
    m.set("fri.commit_fold_ms", totals.per_proof_ms("fri.commit_fold"));
    m.set("fri.query_ms", totals.per_proof_ms("fri.query"));
    m.set("fri.queries", totals.counter("fri.queries") / proofs);
    m.set(
        "hash.perms_per_proof",
        (totals.counter("poseidon.permutations") - totals.attempts as f64) / proofs,
    );
    m.set(
        "merkle.leaves_per_proof",
        totals.counter("merkle.leaves") / proofs,
    );
    m.set("merkle.build_ms", totals.per_proof_ms("merkle.build"));
    m.set(
        "ntt.butterflies_per_proof",
        totals.counter("ntt.butterflies") / proofs,
    );
    for (name, ns) in ["poly", "ntt", "merkle", "other_hash", "layout"]
        .iter()
        .zip(totals.kernels_ns)
    {
        m.set(format!("kernel.{name}.ms"), ns as f64 / 1e6 / proofs);
    }
    m.set(
        "reconcile.residual.fri.commit_fold",
        residual(
            totals.span_ns("fri.commit_fold"),
            fold_perms as f64 * units.perm_ns,
        ),
    );
    m.set(
        "reconcile.residual.fri.grind",
        residual(
            totals.span_ns("fri.grind"),
            totals.attempts as f64 * ns_per_attempt,
        ),
    );
    m
}

/// `(measured − predicted) / measured`.
pub fn residual(measured_ns: f64, predicted_ns: f64) -> f64 {
    (measured_ns - predicted_ns) / measured_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_commit_perms_counts_leaves_and_nodes() {
        // Degree 16, blowup 2, stop at 8: one round over 32 values, i.e.
        // 16 four-element leaves (1 permutation each) and 15 nodes.
        let fri = FriConfig {
            rate_bits: 1,
            num_queries: 1,
            proof_of_work_bits: 1,
            final_poly_len: 8,
        };
        assert_eq!(fold_commit_perms(&fri, 16), 16 + 15);
        assert_eq!(residual(100.0, 75.0), 0.25);
    }
}
