//! The instrumented CPU baseline runner.
//!
//! Runs the real software prover on this machine, with the Table 1 kernel
//! timers. Single-threaded mode reproduces the paper's breakdown
//! methodology ("we use a single thread to simplify time breakdown"); the
//! multi-threaded mode is the Table 3 baseline.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use unizk_fri::{kernel_totals, reset_kernel_timers, KernelClass};
use unizk_plonk::Proof;

use crate::apps::{App, Scale};

/// Kernel timers and the parallelism override are process-global, so two
/// concurrent instrumented runs would corrupt each other's measurements
/// (a real hazard under `cargo test`'s default parallelism). Every
/// [`run_circuit`] serializes on this lock.
static MEASUREMENT: Mutex<()> = Mutex::new(());

/// Takes the process-wide measurement lock (recovering from a poisoned
/// lock — a panicked run leaves no state worth protecting).
pub fn measurement_lock() -> MutexGuard<'static, ()> {
    MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner())
}

/// The result of one instrumented CPU proving run.
#[derive(Clone, Debug)]
pub struct CpuRun {
    /// End-to-end proving wall time.
    pub total: Duration,
    /// Per-kernel-class times (Table 1 columns).
    pub breakdown: [(KernelClass, Duration); 5],
    /// Proof size in bytes.
    pub proof_bytes: usize,
    /// Rows actually proven.
    pub rows: usize,
}

impl CpuRun {
    /// The fraction of total time in one class.
    pub fn fraction(&self, class: KernelClass) -> f64 {
        let t = self
            .breakdown
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, d)| d.as_secs_f64())
            .unwrap_or(0.0);
        if self.total.as_secs_f64() == 0.0 {
            0.0
        } else {
            t / self.total.as_secs_f64()
        }
    }
}

/// Proves `app` at `scale` on the CPU with the given thread count
/// (`1` for Table 1 breakdowns, `0` = all cores for Table 3).
///
/// # Panics
///
/// Panics if the generated circuit fails to prove or verify — that would
/// be a bug, not a measurement.
pub fn run_cpu(app: App, scale: Scale, threads: usize) -> CpuRun {
    let (circuit, inputs) = app.build_circuit(scale);
    run_circuit(&circuit, &inputs, threads)
}

/// Proves a prebuilt circuit with kernel instrumentation.
///
/// # Panics
///
/// Panics if proving or verification fails.
pub fn run_circuit(
    circuit: &unizk_plonk::CircuitData,
    inputs: &[unizk_field::Goldilocks],
    threads: usize,
) -> CpuRun {
    let _measurement = measurement_lock();
    unizk_field::set_parallelism(threads);
    reset_kernel_timers();
    let start = Instant::now();
    let proof: Proof = circuit.prove(inputs).expect("workload circuit must prove");
    let total = start.elapsed();
    unizk_field::set_parallelism(0);

    circuit.verify(&proof).expect("workload proof must verify");
    CpuRun {
        total,
        breakdown: kernel_totals(),
        proof_bytes: proof.size_bytes(),
        rows: circuit.rows,
    }
}
