//! Grind calibration and host unit costs.
//!
//! The grind's cost per attempt is measured by calling
//! [`unizk_fri::grind`] on seeded challengers, in the same process and
//! thread layout as the workload, spread across the run. The other unit
//! costs (traced run only) time one public kernel call at a time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use unizk_field::{Field, Goldilocks, PrimeField64};
use unizk_hash::{hash_no_pad, poseidon_permute, two_to_one, Challenger, MerkleTree, WIDTH};
use unizk_testkit::TestRng;

/// Grind difficulty of the calibration calls: 2^14 expected attempts keep
/// one call near 40 ms, long enough that per-call set-up is noise.
const CALIBRATION_BITS: usize = 14;

/// Accumulated grind calibration: host time and attempts over every
/// calibration call of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrindCalibration {
    ns: f64,
    attempts: u64,
}

impl GrindCalibration {
    /// Host nanoseconds per grind attempt over every sample so far.
    pub fn ns_per_attempt(&self) -> f64 {
        self.ns / self.attempts as f64
    }

    /// Runs grinds on `threads` concurrent threads (each calling
    /// `unizk_fri::grind` under the process's current parallelism) until
    /// each has spent at least `budget`, and adds what they measured.
    pub fn sample(&mut self, rng: &mut TestRng, threads: usize, budget: Duration) {
        let seeds: Vec<u64> = (0..threads).map(|_| rng.gen()).collect();
        let results: Vec<(f64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .into_iter()
                .map(|seed| scope.spawn(move || grind_for(seed, budget)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("grind calibration thread panicked"))
                .collect()
        });
        for (ns, attempts) in results {
            self.ns += ns;
            self.attempts += attempts;
        }
    }
}

/// Grinds freshly seeded transcripts until `budget` has passed; returns
/// (host ns, attempts).
fn grind_for(seed: u64, budget: Duration) -> (f64, u64) {
    let mut rng = TestRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut attempts = 0;
    while start.elapsed() < budget {
        let mut challenger = Challenger::new();
        for _ in 0..4 {
            challenger.observe(Goldilocks::random(&mut rng));
        }
        let nonce = unizk_fri::grind(&challenger, CALIBRATION_BITS);
        attempts += crate::stats::grind_attempts(nonce.as_u64());
    }
    (crate::stats::ns_since(start), attempts)
}

/// Times `iters` calls of `f` and returns ns per call (median of 5 trials).
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            crate::stats::ns_since(start) / iters as f64
        })
        .collect();
    crate::stats::median(&trials)
}

/// Host ns per Goldilocks multiplication (four independent chains, so the
/// figure is throughput, as in the prover's element-wise loops).
pub fn field_mul_ns(rng: &mut TestRng) -> f64 {
    let mut acc: [Goldilocks; 4] = std::array::from_fn(|_| Goldilocks::random(rng));
    let k = Goldilocks::random(rng);
    per_call_ns(1 << 18, || {
        for a in &mut acc {
            *a = black_box(*a * k);
        }
    }) / 4.0
}

/// Host ns per Poseidon permutation.
pub fn perm_ns(rng: &mut TestRng) -> f64 {
    let mut state = [Goldilocks::ZERO; WIDTH];
    for s in &mut state {
        *s = Goldilocks::random(rng);
    }
    per_call_ns(20_000, || poseidon_permute(black_box(&mut state)))
}

/// Host ns to hash one 8-element Merkle leaf (one permutation).
pub fn merkle_leaf_ns(rng: &mut TestRng) -> f64 {
    let leaf: Vec<Goldilocks> = (0..8).map(|_| Goldilocks::random(rng)).collect();
    per_call_ns(20_000, || {
        black_box(hash_no_pad(black_box(&leaf)));
    })
}

/// Host ns per interior Merkle node (a two-to-one compression).
pub fn merkle_node_ns(rng: &mut TestRng) -> f64 {
    let leaf: Vec<Goldilocks> = (0..8).map(|_| Goldilocks::random(rng)).collect();
    let (mut left, right) = (hash_no_pad(&leaf), hash_no_pad(&leaf[..4]));
    per_call_ns(20_000, || left = two_to_one(black_box(left), right))
}

/// Host ns per leaf of `MerkleTree::new` over 2^12 leaves of `width`
/// elements, under the process's current parallelism.
pub fn merkle_tree_ns_per_leaf(rng: &mut TestRng, width: usize) -> f64 {
    const LEAVES: usize = 1 << 12;
    let leaves: Vec<Vec<Goldilocks>> = (0..LEAVES)
        .map(|_| (0..width).map(|_| Goldilocks::random(rng)).collect())
        .collect();
    per_call_ns(1, || {
        black_box(MerkleTree::new(leaves.clone()).root());
    }) / LEAVES as f64
}

/// Host ns per radix-2 butterfly of an NTT of `2^log_n` elements, under
/// the process's current parallelism.
pub fn ntt_butterfly_ns(rng: &mut TestRng, log_n: usize) -> f64 {
    let n = 1usize << log_n;
    let mut values: Vec<Goldilocks> = (0..n).map(|_| Goldilocks::random(rng)).collect();
    let butterflies = (n / 2 * log_n) as f64;
    per_call_ns(4, || unizk_ntt::ntt_nn(black_box(&mut values))) / butterflies
}

/// Host ns per challenger duplex: observing a rate's worth of elements
/// and squeezing a challenge.
pub fn challenger_duplex_ns(rng: &mut TestRng) -> f64 {
    let mut challenger = Challenger::new();
    let x = Goldilocks::random(rng);
    per_call_ns(20_000, || {
        for _ in 0..8 {
            challenger.observe(x);
        }
        black_box(challenger.challenge());
    })
}
