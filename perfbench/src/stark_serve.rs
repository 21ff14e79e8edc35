//! `stark-serve`: seeded batches of small Starky jobs through
//! `serve::Pipeline`, each proof then decoded and verified on the main
//! thread.

use std::time::{Duration, Instant};

use unizk_core::compiler::{compile_starky, StarkyInstance};
use unizk_core::ChipConfig;
use unizk_field::{Field, Goldilocks, Polynomial, PrimeField64};
use unizk_fri::PolynomialBatch;
use unizk_serve::{AppKind, Job, JobSpec, Pipeline, PipelineConfig};
use unizk_stark::{
    verify, Air, CountdownAir, FibonacciAir, RangeAccumulatorAir, StarkConfig, StarkError,
    StarkProof,
};
use unizk_testkit::{trace, TestRng};

use crate::chip_dse::simulate_checked;
use crate::cpu::{self, ProofSample, Samples, TraceTotals, UnitCosts};
use crate::host::HostSpeed;
use crate::metrics::{Metrics, Pass};
use crate::spans::Recorder;
use crate::stats::{grind_attempts, median, percentile};
use crate::units::{self, GrindCalibration};

/// The stock AIRs.
const APPS: [AppKind; 3] = [
    AppKind::Fibonacci,
    AppKind::Countdown,
    AppKind::RangeAccumulator,
];
/// Trace heights, as `log2(rows)`.
const LOG_ROWS: [usize; 3] = [10, 11, 12];
/// Prover workers; with one prover thread each they fill the two cores.
const WORKERS: usize = 2;
/// Copies of every distinct spec in one batch, so every batch has the
/// same composition and only the order depends on the seed.
const COPIES: usize = 2;
/// Grind calibration per batch, on each of the two worker-like threads.
const CALIBRATION: Duration = Duration::from_millis(100);

/// The distinct job specs, in a fixed order.
pub fn specs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for app in APPS {
        for log_rows in LOG_ROWS {
            out.push(JobSpec {
                app,
                rows: 1 << log_rows,
                config: StarkConfig::standard(),
            });
        }
    }
    out
}

/// Batch `round` of the seeded stream: `COPIES` of every spec in an order
/// drawn from `(seed, round)`. Returns the jobs and each job's spec index.
pub fn batch(seed: u64, round: u64) -> (Vec<Job>, Vec<usize>) {
    let specs = specs();
    let mut order: Vec<usize> = (0..COPIES).flat_map(|_| 0..specs.len()).collect();
    let mut rng = TestRng::from_seed_and_stream(seed, round);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let jobs = order
        .iter()
        .enumerate()
        .map(|(id, &s)| Job {
            id: id as u64,
            spec: specs[s].clone(),
        })
        .collect();
    (jobs, order)
}

fn verify_spec(spec: &JobSpec, proof: &StarkProof) -> Result<(), StarkError> {
    match spec.app {
        AppKind::Fibonacci => verify(&FibonacciAir::new(spec.rows), proof, &spec.config),
        AppKind::Countdown => verify(&CountdownAir::new(spec.rows), proof, &spec.config),
        AppKind::RangeAccumulator => {
            verify(&RangeAccumulatorAir::new(spec.rows), proof, &spec.config)
        }
    }
}

/// `(width, transition constraints, trace columns)` of a spec's AIR.
fn air_shape(spec: &JobSpec) -> (usize, usize, Vec<Vec<Goldilocks>>) {
    fn shape<A: Air>(air: &A, constraints: usize) -> (usize, usize, Vec<Vec<Goldilocks>>) {
        (air.width(), constraints, air.generate_trace())
    }
    match spec.app {
        AppKind::Fibonacci => {
            let air = FibonacciAir::new(spec.rows);
            shape(&air, air.num_transition_constraints())
        }
        AppKind::Countdown => {
            let air = CountdownAir::new(spec.rows);
            shape(&air, air.num_transition_constraints())
        }
        AppKind::RangeAccumulator => {
            let air = RangeAccumulatorAir::new(spec.rows);
            shape(&air, air.num_transition_constraints())
        }
    }
}

/// Checks one served proof: it matches the one-shot reference bytes,
/// decodes, re-encodes to the same bytes and verifies, and a copy with a
/// flipped trace-root byte is rejected. Returns the timings, or `None` if
/// any check failed.
fn check(
    job: u64,
    reference: &Reference,
    proof: &StarkProof,
    rec: &mut Recorder,
) -> Option<ProofSample> {
    let (bytes, encode_ns) = rec.time("wire.encode", Some(job), || proof.to_bytes());
    let (decoded, decode_ns) =
        rec.time("wire.decode", Some(job), || StarkProof::from_bytes(&bytes));
    let decoded = decoded.ok()?;
    let (verified, verify_ns) = rec.time("stark.verify", Some(job), || {
        verify_spec(&reference.spec, &decoded)
    });

    let mut flipped = bytes.clone();
    flipped[0] ^= 1; // first byte of the trace-root digest
    let forged_rejected = match StarkProof::from_bytes(&flipped) {
        Ok(forged) => verify_spec(&reference.spec, &forged).is_err(),
        Err(_) => true,
    };
    let ok = verified.is_ok()
        && forged_rejected
        && bytes == reference.bytes
        && decoded.to_bytes() == bytes;
    ok.then(|| ProofSample {
        prove_ns: 0.0,
        attempts: grind_attempts(proof.fri.pow_witness.as_u64()),
        encode_ns,
        decode_ns,
        verify_ns,
        bytes: bytes.len(),
        host_factor: 1.0,
    })
}

/// What set-up learns about one distinct spec.
struct Reference {
    spec: JobSpec,
    /// The one-shot `JobSpec::prove(None)` proof's bytes.
    bytes: Vec<u8>,
    /// Simulated cycles of the same proof on the default chip.
    sim_cycles: u64,
}

impl Reference {
    /// Proves `spec` one-shot, verifies it, and simulates it on the
    /// default chip.
    fn new(spec: JobSpec) -> Result<Self, String> {
        let proof = spec
            .prove(None)
            .map_err(|e| format!("{}: reference prove failed: {e:?}", spec.key()))?;
        verify_spec(&spec, &proof)
            .map_err(|e| format!("{}: reference verify failed: {e:?}", spec.key()))?;
        let (width, constraints, _) = air_shape(&spec);
        let graph = compile_starky(&StarkyInstance::new(spec.rows, width, constraints));
        let sim_cycles = simulate_checked(&graph, &ChipConfig::default_chip())
            .map_err(|e| format!("{}: {e}", spec.key()))?
            .total_cycles;
        Ok(Self {
            bytes: proof.to_bytes(),
            spec,
            sim_cycles,
        })
    }
}

/// A prepared `stark-serve` workload.
pub struct StarkServe {
    seed: u64,
    refs: Vec<Reference>,
    rng: TestRng,
    calibration: GrindCalibration,
}

impl StarkServe {
    /// Set-up: the seeded workload, one one-shot reference proof per
    /// distinct spec (which also warms the twiddle cache), the simulated
    /// cycles of every spec, and a first grind calibration.
    ///
    /// # Errors
    ///
    /// Returns a message if a reference proof fails to prove or verify.
    pub fn setup(seed: u64) -> Result<Self, String> {
        unizk_field::set_parallelism(1);
        let specs = specs();
        // The references are independent one-shot proofs: prove them on
        // as many threads as the pipeline has workers.
        let refs: Vec<Result<Reference, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let mine: Vec<JobSpec> =
                        specs.iter().skip(w).step_by(WORKERS).cloned().collect();
                    scope.spawn(move || mine.into_iter().map(Reference::new).collect::<Vec<_>>())
                })
                .collect();
            let mut per_worker: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("reference prover panicked").into_iter())
                .collect();
            (0..specs.len())
                .map(|i| {
                    per_worker[i % WORKERS]
                        .next()
                        .expect("one reference per spec")
                })
                .collect()
        });
        let refs = refs.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut rng = TestRng::from_seed_and_stream(seed, u64::MAX);
        let mut calibration = GrindCalibration::default();
        calibration.sample(&mut rng, WORKERS, CALIBRATION);
        Ok(Self {
            seed,
            refs,
            rng,
            calibration,
        })
    }

    fn pow_bits(&self) -> usize {
        self.refs[0].spec.config.fri.proof_of_work_bits
    }

    /// Serves batches until `seconds` have passed (at least one batch) and
    /// checks every proof. With an enabled recorder it also reads the
    /// program's spans and counters and reports the per-layer metrics.
    pub fn measure(&mut self, seconds: f64, rec: &mut Recorder, units: Option<UnitCosts>) -> Pass {
        let traced = rec.enabled();
        let config = PipelineConfig::with_workers(WORKERS);
        let pow_bits = self.pow_bits();
        let expected = 1u64 << pow_bits;
        let mut samples = Samples::default();
        let mut sojourn_ns = Vec::new();
        // (wall ns, surplus grind attempts, host factor) per batch
        let mut batches: Vec<(f64, i64, f64)> = Vec::new();
        let (mut busy_ns, mut pool_hits, mut pool_takes) = (0u64, 0u64, 0u64);
        let mut totals = TraceTotals::default();
        let mut traced_specs: Vec<usize> = Vec::new();

        let mut host = HostSpeed::start();
        let start = Instant::now();
        for round in 0.. {
            if round > 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let (jobs, order) = batch(self.seed, round);
            let n = jobs.len() as u64;
            if traced {
                trace::reset();
            }
            rec.enter("serve.pipeline", None);
            let report = Pipeline::run(jobs, &config);
            rec.exit();
            if traced {
                let snap = worker_snapshot(n);
                let attempts: u64 = report
                    .results
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .map(|p| grind_attempts(p.fri.pow_witness.as_u64()))
                    .sum();
                totals.add(&snap, n, attempts);
                traced_specs.extend(&order);
            }

            let mut surplus = 0i64;
            let first = samples.proofs.len();
            for r in &report.results {
                let reference = &self.refs[order[r.id as usize]];
                let job = round * n + r.id;
                samples.attempted += 1;
                let checked = r
                    .outcome
                    .as_ref()
                    .ok()
                    .and_then(|p| check(job, reference, p, rec));
                match checked {
                    Some(mut sample) => {
                        sample.prove_ns = r.service_ns as f64;
                        surplus += sample.attempts as i64 - expected as i64;
                        samples.proofs.push(sample);
                        sojourn_ns.push((r.sojourn_ns - r.service_ns) as f64);
                    }
                    None => {
                        eprintln!(
                            "stark-serve: {} job {job} failed a check",
                            reference.spec.key()
                        );
                        samples.failed += 1;
                    }
                }
            }
            let host_factor = host.factor();
            for sample in &mut samples.proofs[first..] {
                sample.host_factor = host_factor;
            }
            batches.push((report.wall_ns as f64, surplus, host_factor));
            busy_ns += report.workers.iter().map(|w| w.busy_ns).sum::<u64>();
            if let Some(stats) = report.pool_stats() {
                let total = stats.total();
                pool_hits += total.hits;
                pool_takes += total.hits + total.misses;
            }
            self.calibration.sample(&mut self.rng, WORKERS, CALIBRATION);
        }

        let c = self.calibration.ns_per_attempt();
        let mut metrics = cpu::end_to_end(&samples, pow_bits, c);
        // Grind surplus is spread over the workers that ground it.
        let normalized_wall: f64 = batches
            .iter()
            .map(|&(wall, surplus, host)| (wall - surplus as f64 * c / WORKERS as f64) * host)
            .sum();
        metrics.set(
            "ops_per_s",
            samples.proofs.len() as f64 / (normalized_wall / 1e9),
        );
        let mean_cycles =
            self.refs.iter().map(|r| r.sim_cycles as f64).sum::<f64>() / self.refs.len() as f64;
        metrics.set("sim_mcycles", mean_cycles / 1e6);

        let mut layers = Metrics::default();
        if let Some(units) = units {
            let fold_perms: u64 = traced_specs
                .iter()
                .map(|&s| {
                    cpu::fold_commit_perms(&self.refs[s].spec.config.fri, self.refs[s].spec.rows)
                })
                .sum();
            let mut rng = TestRng::from_seed_and_stream(self.seed, 7);
            layers = cpu::layers(&samples, &totals, pow_bits, c, units, fold_perms);
            // Unit costs at this workload's leaf width and transform size.
            layers.set(
                "merkle.ns_per_leaf",
                units::merkle_tree_ns_per_leaf(&mut rng, 4),
            );
            layers.set(
                "ntt.ns_per_butterfly",
                units::ntt_butterfly_ns(&mut rng, 12),
            );
            let normalized = samples.normalized_ns(pow_bits, c);
            let raw: Vec<f64> = samples.proofs.iter().map(|p| p.prove_ns).collect();
            let wall: f64 = batches.iter().map(|b| b.0).sum();
            layers.set("serve.queue_wait_ms_p50", median(&sojourn_ns) / 1e6);
            layers.set(
                "serve.worker_busy_ratio",
                busy_ns as f64 / (WORKERS as f64 * wall),
            );
            layers.set("serve.pool_hit_ratio", pool_hits as f64 / pool_takes as f64);
            layers.set("serve.prove_ms_p90", percentile(&normalized, 90.0) / 1e6);
            layers.set(
                "serve.verify_ms_p90",
                percentile(&samples.check_ns(), 90.0) / 1e6,
            );
            layers.set("stark.prove_raw_ms_p50", median(&raw) / 1e6);
            for phase in ["trace_commit", "quotient", "quotient_commit", "fri"] {
                let name = format!("stark.{phase}");
                layers.set(format!("{name}_ms"), totals.per_proof_ms(&name));
            }
            let (trace_pred, quotient_pred) = self.commit_predictions(&traced_specs, units);
            layers.set(
                "reconcile.residual.trace_commit",
                cpu::residual(totals.span_ns("stark.trace_commit"), trace_pred),
            );
            layers.set(
                "reconcile.residual.quotient_commit",
                cpu::residual(totals.span_ns("stark.quotient_commit"), quotient_pred),
            );
        }
        Pass {
            metrics,
            layers,
            attempted: samples.attempted,
            failed: samples.failed,
        }
    }

    /// Predicted trace- and quotient-commit time of the traced jobs:
    /// NTT butterflies and permutations counted by committing batches of
    /// each spec's shape, times the unit costs.
    fn commit_predictions(&self, traced_specs: &[usize], units: UnitCosts) -> (f64, f64) {
        let mut rng = TestRng::from_seed_and_stream(self.seed, 11);
        let per_spec: Vec<(f64, f64)> = self
            .refs
            .iter()
            .map(|r| {
                let (_, _, columns) = air_shape(&r.spec);
                let fri = &r.spec.config.fri;
                let traced = count_work(|| {
                    PolynomialBatch::from_values(columns, fri);
                });
                let quotients = (0..r.spec.config.num_challenges)
                    .map(|_| {
                        Polynomial::from_coeffs(
                            (0..r.spec.rows)
                                .map(|_| Goldilocks::random(&mut rng))
                                .collect(),
                        )
                    })
                    .collect();
                let quotient = count_work(|| {
                    PolynomialBatch::from_coeffs(quotients, fri);
                });
                let predict =
                    |(bfly, perms): (f64, f64)| bfly * units.butterfly_ns + perms * units.perm_ns;
                (predict(traced), predict(quotient))
            })
            .collect();
        traced_specs.iter().fold((0.0, 0.0), |(t, q), &s| {
            (t + per_spec[s].0, q + per_spec[s].1)
        })
    }
}

/// `(NTT butterflies, Poseidon permutations)` the program counts while
/// running `f` on this thread.
fn count_work(f: impl FnOnce()) -> (f64, f64) {
    trace::reset();
    f();
    let snap = trace::snapshot();
    (
        snap.counter("ntt.butterflies") as f64,
        snap.counter("poseidon.permutations") as f64,
    )
}

/// A snapshot that includes every pipeline worker's spans: a worker's
/// thread-local collector merges when the thread exits, which may trail
/// the pipeline's join by a moment.
fn worker_snapshot(jobs: u64) -> trace::TraceReport {
    for _ in 0..200 {
        let snap = trace::snapshot();
        if snap.node(&["stark.prove"]).is_some_and(|n| n.count == jobs) {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    trace::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_seeded_and_balanced() {
        let keys = |seed, round| -> Vec<String> {
            batch(seed, round).0.iter().map(|j| j.spec.key()).collect()
        };
        assert_eq!(keys(1, 0), keys(1, 0));
        assert_ne!(keys(1, 0), keys(2, 0));
        assert_ne!(keys(1, 0), keys(1, 1));
        let (jobs, order) = batch(5, 3);
        assert_eq!(jobs.len(), COPIES * specs().len());
        for s in 0..specs().len() {
            assert_eq!(order.iter().filter(|&&o| o == s).count(), COPIES);
        }
        for (id, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, id as u64);
            assert_eq!(job.spec.key(), specs()[order[id]].key());
        }
    }
}
