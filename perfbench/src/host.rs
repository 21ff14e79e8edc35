//! Host-speed reference.
//!
//! The shared 2-vCPU VM this benchmark was written on changes speed by
//! ±20% over seconds and by up to 2× over minutes with no code change;
//! a run's median prove or verify time moves with it. A fixed integer
//! kernel that lives in this file, and so never changes with the
//! repository, is timed on both cores between the operations of a run.
//! Each operation's host time is reported at the reference speed:
//! measured × nominal ÷ the mean of the reference samples on either side
//! of it. A change to the repository's code moves the adjusted time; a
//! change in the host's speed moves the reference as well and cancels.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Threads that time the reference at once: the workloads keep both
/// cores busy.
const THREADS: usize = 2;
/// Reference time per sample.
const SAMPLE: Duration = Duration::from_millis(40);
/// Reference permutations per timing.
const CALLS: u32 = 16;
/// Nominal host ns per reference permutation: about its median on the VM
/// the benchmark was written on, so adjusted times read like measured
/// ones there.
const NOMINAL_NS: f64 = 8_000.0;

const P: u64 = 0xffff_ffff_0000_0001;

/// Goldilocks multiplication (reduction of the 128-bit product).
fn mul(a: u64, b: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    let (lo, hi) = (x as u64, (x >> 64) as u64);
    let (t0, borrow) = lo.overflowing_sub(hi >> 32);
    let t0 = if borrow {
        t0.wrapping_sub(0xffff_ffff)
    } else {
        t0
    };
    let (r, carry) = t0.overflowing_add((hi & 0xffff_ffff) * 0xffff_ffff);
    if carry {
        r.wrapping_add(0xffff_ffff)
    } else {
        r
    }
}

/// A Poseidon-shaped permutation of 12 lanes: 30 rounds of constants,
/// an x^7 S-box on every lane, and a circulant shift-and-add mix.
fn permute(state: &mut [u64; 12]) {
    for round in 0..30u64 {
        for (i, s) in state.iter_mut().enumerate() {
            let x = s.wrapping_add(round * 12 + i as u64);
            let x = if x >= P { x - P } else { x };
            let x2 = mul(x, x);
            *s = mul(mul(x2, x2), mul(x2, x));
        }
        let prev = *state;
        for (i, s) in state.iter_mut().enumerate() {
            *s = (0..12).fold(0u64, |acc, j| {
                acc.wrapping_add(prev[(i + j) % 12] << (j % 5))
            });
        }
    }
}

/// Median host ns per reference permutation over one sample, timed on
/// both cores at once.
fn sample() -> f64 {
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut state = [t as u64 + 1; 12];
                    let mut out = Vec::new();
                    let start = Instant::now();
                    while start.elapsed() < SAMPLE {
                        let t0 = Instant::now();
                        for _ in 0..CALLS {
                            permute(black_box(&mut state));
                        }
                        out.push(t0.elapsed().as_nanos() as f64 / f64::from(CALLS));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let all: Vec<f64> = per_thread.into_iter().flatten().collect();
    crate::stats::median(&all)
}

/// The factor that takes host times measured just before now to the
/// reference speed, from one sample.
pub fn factor_now() -> f64 {
    NOMINAL_NS / sample()
}

/// Reference samples taken between a run's operations.
pub struct HostSpeed {
    last: f64,
}

impl HostSpeed {
    /// Takes the sample before the first operation.
    pub fn start() -> Self {
        Self { last: sample() }
    }

    /// Takes a sample and returns the factor for the operations since the
    /// previous one: nominal ÷ the mean of the two samples.
    pub fn factor(&mut self) -> f64 {
        let now = sample();
        let factor = NOMINAL_NS / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_multiplication_is_goldilocks() {
        let p = u128::from(P);
        for (a, b) in [
            (3u64, 5u64),
            (P - 1, P - 1),
            (1 << 63, 1 << 40),
            (0x1234_5678_9abc, P - 2),
        ] {
            let expected = (u128::from(a) * u128::from(b) % p) as u64;
            assert_eq!(mul(a, b) % P, expected, "{a} * {b}");
        }
    }

    #[test]
    fn factors_are_positive_and_finite() {
        let mut host = HostSpeed::start();
        for f in [host.factor(), factor_now()] {
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
    }
}
