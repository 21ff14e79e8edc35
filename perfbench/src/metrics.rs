//! The benchmark's metric catalogue and its result line.
//!
//! Every name and unit printed by a run comes from the two tables below;
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test checks that the two agree).

use std::collections::BTreeMap;

use unizk_testkit::Json;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["stark-serve", "plonk-apps", "chip-dse"];

/// End-to-end metrics: every untraced run of every workload reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("check_ms_p50", "ms"),
    ("sim_mcycles", "Mcycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of one CPU workload, named `<workload>.<metric>`.
const CPU_LAYERS: &[(&str, &str)] = &[
    ("wire.encode_us_p50", "us"),
    ("wire.decode_us_p50", "us"),
    ("wire.proof_kb", "KiB"),
    ("fri.grind_attempts_mean", "count"),
    ("fri.grind_attempts_expected", "count"),
    ("fri.grind_ns_per_attempt", "ns"),
    ("fri.grind_ms", "ms"),
    ("fri.commit_fold_ms", "ms"),
    ("fri.query_ms", "ms"),
    ("fri.queries", "count"),
    ("hash.perms_per_proof", "count"),
    ("merkle.leaves_per_proof", "count"),
    ("merkle.build_ms", "ms"),
    ("merkle.ns_per_leaf", "ns"),
    ("ntt.butterflies_per_proof", "count"),
    ("ntt.ns_per_butterfly", "ns"),
    ("kernel.poly.ms", "ms"),
    ("kernel.ntt.ms", "ms"),
    ("kernel.merkle.ms", "ms"),
    ("kernel.other_hash.ms", "ms"),
    ("kernel.layout.ms", "ms"),
    ("reconcile.residual.fri.commit_fold", "ratio"),
    ("reconcile.residual.fri.grind", "ratio"),
];

/// Per-layer metrics only the serving workload has.
const SERVE_LAYERS: &[(&str, &str)] = &[
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.worker_busy_ratio", "ratio"),
    ("serve.pool_hit_ratio", "ratio"),
    ("serve.prove_ms_p90", "ms"),
    ("serve.verify_ms_p90", "ms"),
    ("stark.prove_raw_ms_p50", "ms"),
    ("stark.trace_commit_ms", "ms"),
    ("stark.quotient_ms", "ms"),
    ("stark.quotient_commit_ms", "ms"),
    ("stark.fri_ms", "ms"),
    ("reconcile.residual.trace_commit", "ratio"),
    ("reconcile.residual.quotient_commit", "ratio"),
];

/// Per-layer metrics only the Plonky2 workload has.
const PLONK_LAYERS: &[(&str, &str)] = &[
    ("plonk.build_s", "s"),
    ("plonk.prove_raw_ms_p50", "ms"),
    ("plonk.verify_ms_p50", "ms"),
];

/// Per-layer metrics of the modeled chip, named `chip-dse.<metric>`.
const CHIP_LAYERS: &[(&str, &str)] = &[
    ("core.compile_ms", "ms"),
    ("core.sim_ms", "ms"),
    ("core.sim_ns_per_node", "ns"),
    ("sim.class.ntt.mcycles", "Mcycles"),
    ("sim.class.hash.mcycles", "Mcycles"),
    ("sim.class.poly.mcycles", "Mcycles"),
    ("sim.class.transpose.mcycles", "Mcycles"),
    ("sim.vsa_util.ntt", "ratio"),
    ("sim.vsa_util.hash", "ratio"),
    ("sim.vsa_util.poly", "ratio"),
    ("sim.paper_ratio.factorial", "ratio"),
    ("sim.paper_ratio.fibonacci", "ratio"),
    ("sim.paper_ratio.ecdsa", "ratio"),
    ("sim.paper_ratio.sha256", "ratio"),
    ("sim.paper_ratio.image_crop", "ratio"),
    ("sim.paper_ratio.mvm", "ratio"),
    ("dram.read_requests", "count"),
    ("dram.write_requests", "count"),
    ("analyze.envelope_ms", "ms"),
    ("analyze.envelope_slack", "ratio"),
    ("explore.sweep_s.plain", "s"),
    ("explore.sweep_s.pruned", "s"),
    ("explore.points_pruned_ratio", "ratio"),
    ("explore.point_ms_mean", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.chip_busy_ratio", "ratio"),
    ("fleet.queue_peak", "count"),
    ("fleet.makespan_mcycles", "Mcycles"),
];

/// Host unit costs, measured by the traced run on the main thread.
const UNIT_COSTS: &[(&str, &str)] = &[
    ("unit.field.mul_ns", "ns"),
    ("unit.hash.perm_ns", "ns"),
    ("unit.merkle.leaf_ns", "ns"),
    ("unit.merkle.node_ns", "ns"),
    ("unit.ntt.butterfly_ns", "ns"),
    ("unit.fri.grind_attempt_ns", "ns"),
    ("unit.challenger.duplex_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric a traced run reports, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let prefixed = |workload: &str, table: &[(&'static str, &'static str)]| {
        table
            .iter()
            .map(|&(name, unit)| (format!("{workload}.{name}"), unit))
            .collect::<Vec<_>>()
    };
    let mut all = Vec::new();
    all.extend(prefixed("stark-serve", SERVE_LAYERS));
    all.extend(prefixed("stark-serve", CPU_LAYERS));
    all.extend(prefixed("plonk-apps", PLONK_LAYERS));
    all.extend(prefixed("plonk-apps", CPU_LAYERS));
    all.extend(prefixed("chip-dse", CHIP_LAYERS));
    all.extend(UNIT_COSTS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// Metric values collected by a run, keyed by full name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `value` under `name` (overwriting an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records every `(name, value)` with `prefix.` prepended.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Metrics) {
        for (k, v) in other.values {
            self.values.insert(format!("{prefix}.{k}"), v);
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line, in catalogue order.
    ///
    /// # Errors
    ///
    /// Names the first catalogue entry that is missing or not finite, and
    /// any recorded value the catalogue does not list.
    pub fn to_json(&self, catalogue: &[(String, &str)]) -> Result<Json, String> {
        for name in self.values.keys() {
            if !catalogue.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut out = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((
                name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
            ));
        }
        Ok(Json::Obj(out))
    }
}

/// What one measured pass of a workload produced.
pub struct Pass {
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Per-layer metrics (empty unless the pass was traced).
    pub layers: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with a failed check.
    pub failed: u64,
}

/// The end-to-end catalogue with owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: Vec<(String, &str)>) -> Vec<(String, String)> {
        catalogue
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), owned(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn result_rejects_missing_unknown_and_non_finite_values() {
        let catalogue = vec![("a".to_string(), "ms")];
        let mut m = Metrics::default();
        assert!(m.to_json(&catalogue).is_err());
        m.set("a", f64::NAN);
        assert!(m.to_json(&catalogue).is_err());
        m.set("a", 1.5);
        assert_eq!(
            m.to_json(&catalogue).unwrap().to_string(),
            r#"{"a":{"value":1.5,"unit":"ms"}}"#
        );
        m.set("b", 1.0);
        assert!(m.to_json(&catalogue).is_err());
    }
}
