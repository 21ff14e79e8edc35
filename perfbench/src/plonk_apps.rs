//! `plonk-apps`: one-shot Plonky2 proofs of the paper's circuits at 2^11
//! rows, each decoded and verified, with intra-proof parallelism and no
//! serving layer.

use std::time::{Duration, Instant};

use unizk_core::compiler::compile_plonky2;
use unizk_core::ChipConfig;
use unizk_field::{Field, Goldilocks};
use unizk_plonk::{CircuitData, Proof};
use unizk_testkit::{trace, TestRng};
use unizk_workloads::{App, Scale};

use crate::chip_dse::simulate_checked;
use crate::cpu::{self, ProofSample, Samples, TraceTotals, UnitCosts};
use crate::host::HostSpeed;
use crate::metrics::{Metrics, Pass};
use crate::spans::Recorder;
use crate::stats::{grind_attempts, median};
use crate::units::{self, GrindCalibration};

/// The three real circuits plus ECDSA, which stands for the three
/// dimension-matched substitutes (they build the same circuit at equal
/// rows).
pub const APPS: [App; 4] = [App::Factorial, App::Fibonacci, App::Mvm, App::Ecdsa];
/// Rows of every circuit, as `log2(rows)`.
const LOG_ROWS: usize = 11;
/// Threads of the prover's own parallel helpers.
const THREADS: usize = 2;
/// Grind calibration after every proof.
const CALIBRATION: Duration = Duration::from_millis(60);

fn scale(app: App) -> Scale {
    Scale::Shrunk(app.full_log_rows() - LOG_ROWS)
}

/// The circuit inputs: MVM's 16-bit input vector is drawn from the seed;
/// the other circuits take none.
pub fn inputs(app: App, count: usize, seed: u64) -> Vec<Goldilocks> {
    let mut rng = TestRng::from_seed_and_stream(seed, app as u64);
    (0..count)
        .map(|_| Goldilocks::from_u64(rng.gen_range(0..65_536u64)))
        .collect()
}

/// The order of the circuits in round `round`, drawn from the seed.
pub fn round_order(seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..APPS.len()).collect();
    let mut rng = TestRng::from_seed_and_stream(seed, 1 << 32 | round);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

struct Circuit {
    app: App,
    data: CircuitData,
    inputs: Vec<Goldilocks>,
    /// The bytes of the run's first proof: every later proof must equal
    /// them.
    bytes: Option<Vec<u8>>,
    sim_cycles: u64,
}

/// A prepared `plonk-apps` workload.
pub struct PlonkApps {
    seed: u64,
    circuits: Vec<Circuit>,
    build_s: f64,
    rng: TestRng,
    calibration: GrindCalibration,
}

impl PlonkApps {
    /// Set-up: builds the four circuits (which also warms the twiddle
    /// cache at the LDE size), simulates each on the default chip, and
    /// takes a first grind calibration.
    ///
    /// # Errors
    ///
    /// Returns a message if a simulation fails its checks.
    pub fn setup(seed: u64) -> Result<Self, String> {
        unizk_field::set_parallelism(THREADS);
        let chip = ChipConfig::default_chip();
        let mut circuits = Vec::new();
        let mut build_s = 0.0;
        for app in APPS {
            let t = Instant::now();
            let (data, default_inputs) = app.build_circuit(scale(app));
            build_s += t.elapsed().as_secs_f64();
            let inputs = if default_inputs.is_empty() {
                default_inputs
            } else {
                inputs(app, default_inputs.len(), seed)
            };
            let graph = compile_plonky2(&app.plonky2_instance(scale(app)));
            circuits.push(Circuit {
                app,
                bytes: None,
                sim_cycles: simulate_checked(&graph, &chip)
                    .map_err(|e| format!("{}: {e}", app.id()))?
                    .total_cycles,
                data,
                inputs,
            });
        }
        let mut rng = TestRng::from_seed_and_stream(seed, u64::MAX);
        let mut calibration = GrindCalibration::default();
        calibration.sample(&mut rng, 1, CALIBRATION);
        Ok(Self {
            seed,
            circuits,
            build_s,
            rng,
            calibration,
        })
    }

    fn pow_bits(&self) -> usize {
        self.circuits[0].data.config.fri.proof_of_work_bits
    }

    /// Proves whole rounds (each circuit once, in seeded order) until
    /// `seconds` have passed, at least two rounds so that every circuit's
    /// proofs are compared with each other, checking every proof.
    pub fn measure(&mut self, seconds: f64, rec: &mut Recorder, units: Option<UnitCosts>) -> Pass {
        unizk_field::set_parallelism(THREADS);
        let traced = rec.enabled();
        let pow_bits = self.pow_bits();
        let mut samples = Samples::default();
        let mut raw_verify_ns = Vec::new();
        let mut totals = TraceTotals::default();
        let mut fold_perms = 0;
        let mut host = HostSpeed::start();

        let start = Instant::now();
        for round in 0.. {
            if round > 1 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            for i in round_order(self.seed, round) {
                let job = round * APPS.len() as u64 + i as u64;
                let circuit = &mut self.circuits[i];
                samples.attempted += 1;
                if traced {
                    trace::reset();
                }
                let (proof, prove_ns) = rec.time("plonk.prove", Some(job), || {
                    circuit.data.prove(&circuit.inputs)
                });
                let Ok(proof) = proof else {
                    samples.failed += 1;
                    continue;
                };
                let attempts = grind_attempts(proof.fri.pow_witness.as_u64());
                if traced {
                    totals.add(&trace::snapshot(), 1, attempts);
                    fold_perms +=
                        cpu::fold_commit_perms(&circuit.data.config.fri, circuit.data.rows);
                }
                let checked = check(job, circuit, &proof, rec);
                let host_factor = host.factor();
                match checked {
                    Some(mut sample) => {
                        sample.prove_ns = prove_ns;
                        sample.attempts = attempts;
                        sample.host_factor = host_factor;
                        raw_verify_ns.push(sample.verify_ns);
                        samples.proofs.push(sample);
                    }
                    None => samples.failed += 1,
                }
                self.calibration.sample(&mut self.rng, 1, CALIBRATION);
            }
        }

        let c = self.calibration.ns_per_attempt();
        let mut metrics = cpu::end_to_end(&samples, pow_bits, c);
        let normalized_total: f64 = samples.adjusted_ns(pow_bits, c).iter().sum();
        metrics.set(
            "ops_per_s",
            samples.proofs.len() as f64 / (normalized_total / 1e9),
        );
        let mean_cycles = self
            .circuits
            .iter()
            .map(|c| c.sim_cycles as f64)
            .sum::<f64>()
            / self.circuits.len() as f64;
        metrics.set("sim_mcycles", mean_cycles / 1e6);

        let mut layers = Metrics::default();
        if let Some(units) = units {
            let mut rng = TestRng::from_seed_and_stream(self.seed, 7);
            let lde_log = LOG_ROWS + self.circuits[0].data.config.fri.rate_bits;
            layers = cpu::layers(&samples, &totals, pow_bits, c, units, fold_perms);
            // Unit costs at this workload's leaf width and transform size.
            layers.set(
                "merkle.ns_per_leaf",
                units::merkle_tree_ns_per_leaf(&mut rng, App::Factorial.width()),
            );
            layers.set(
                "ntt.ns_per_butterfly",
                units::ntt_butterfly_ns(&mut rng, lde_log),
            );
            let raw: Vec<f64> = samples.proofs.iter().map(|p| p.prove_ns).collect();
            layers.set("plonk.build_s", self.build_s);
            layers.set("plonk.prove_raw_ms_p50", median(&raw) / 1e6);
            layers.set("plonk.verify_ms_p50", median(&raw_verify_ns) / 1e6);
        }
        Pass {
            metrics,
            layers,
            attempted: samples.attempted,
            failed: samples.failed,
        }
    }
}

/// Checks one proof: identical to the circuit's first proof in the run
/// (which it becomes if there is none yet), decodes, re-encodes to the
/// same bytes and verifies, and a copy with a flipped byte in the wires
/// (trace) root is rejected.
fn check(
    job: u64,
    circuit: &mut Circuit,
    proof: &Proof,
    rec: &mut Recorder,
) -> Option<ProofSample> {
    let (bytes, encode_ns) = rec.time("wire.encode", Some(job), || proof.to_bytes());
    let (decoded, decode_ns) = rec.time("wire.decode", Some(job), || Proof::from_bytes(&bytes));
    let decoded = decoded.ok()?;
    let (verified, verify_ns) =
        rec.time("plonk.verify", Some(job), || circuit.data.verify(&decoded));

    // Public-input count prefix, the inputs, then the wires root.
    let wires_root = 4 + 8 * proof.public_inputs.len();
    let mut flipped = bytes.clone();
    flipped[wires_root] ^= 1;
    let forged_rejected = match Proof::from_bytes(&flipped) {
        Ok(forged) => circuit.data.verify(&forged).is_err(),
        Err(_) => true,
    };
    let first = circuit.bytes.get_or_insert_with(|| bytes.clone());
    let ok = verified.is_ok() && forged_rejected && bytes == *first && decoded.to_bytes() == bytes;
    if !ok {
        eprintln!(
            "plonk-apps: {} proof {job} failed a check",
            circuit.app.id()
        );
    }
    ok.then_some(ProofSample {
        prove_ns: 0.0,
        attempts: 0,
        encode_ns,
        decode_ns,
        verify_ns,
        bytes: bytes.len(),
        host_factor: 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_and_order_follow_the_seed() {
        assert_eq!(inputs(App::Mvm, 8, 3), inputs(App::Mvm, 8, 3));
        assert_ne!(inputs(App::Mvm, 8, 3), inputs(App::Mvm, 8, 4));
        assert!(inputs(App::Mvm, 64, 9).iter().all(|x| x.as_u64() < 65_536));
        assert_eq!(round_order(5, 2), round_order(5, 2));
        let mut sorted = round_order(5, 2);
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let orders: Vec<Vec<usize>> = (0..8).map(|r| round_order(5, r)).collect();
        assert!(
            orders.iter().any(|o| *o != orders[0]),
            "seeded order never changes"
        );
    }

    #[test]
    fn circuits_are_built_at_2_to_the_11_rows() {
        for app in APPS {
            assert_eq!(app.log_rows(scale(app)), LOG_ROWS);
        }
    }
}
