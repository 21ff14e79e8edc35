//! Table 1 kernel-breakdown checks for the instrumented CPU runner.
//!
//! The kernel timers read the process-global trace store, so any other
//! proof running in the same process while a breakdown is measured leaks
//! its kernel time into that breakdown. These tests therefore live in their
//! own integration-test binary (nothing else here proves), and hold one
//! lock for the whole run — circuit build included, since building commits
//! the constant polynomials through timed kernels too.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use unizk_fri::KernelClass;
use unizk_workloads::{run_cpu, App, Scale};

static BINARY: Mutex<()> = Mutex::new(());

#[test]
fn breakdown_accounts_for_most_of_the_time() {
    let _alone = BINARY.lock().unwrap_or_else(PoisonError::into_inner);
    // Small instance; single thread, as in Table 1.
    let run = run_cpu(App::Fibonacci, Scale::Shrunk(60), 1);
    assert!(run.total > Duration::ZERO);
    let covered: f64 = KernelClass::ALL.iter().map(|&c| run.fraction(c)).sum();
    assert!(covered > 0.80, "timers cover {covered}");
    assert!(covered <= 1.05);
}

#[test]
fn merkle_dominates_like_table1() {
    let _alone = BINARY.lock().unwrap_or_else(PoisonError::into_inner);
    let run = run_cpu(App::Fibonacci, Scale::Shrunk(60), 1);
    let merkle = run.fraction(KernelClass::MerkleTree);
    let ntt = run.fraction(KernelClass::Ntt);
    // Table 1: Merkle ≈ 60–70%, NTT ≈ 15–22%.
    assert!(merkle > 0.3, "merkle fraction {merkle}");
    assert!(merkle > ntt, "merkle {merkle} vs ntt {ntt}");
}
