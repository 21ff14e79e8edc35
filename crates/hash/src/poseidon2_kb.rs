//! The Poseidon2 permutation over 16 KoalaBear elements — the hash backend
//! of the 31-bit small-field proof path.
//!
//! Small-field STARK stacks (Plonky3-style) pair a 31-bit base field with a
//! wider sponge: 16 lanes × 31 bits keeps the capacity (8 lanes ≈ 248
//! bits) comfortably above the security target even though each lane
//! carries a quarter of Goldilocks' entropy. The round structure is
//! Poseidon2's:
//!
//! * **External (full) rounds** multiply by the block-circulant matrix
//!   `M_E = circ(2·M4, M4, M4, M4)` built from the same fixed 4×4 `M4`,
//!   with an extra `M_E` applied to the input before the first round.
//! * **Internal (partial) rounds** use the `J + diag(d)` layer: one shared
//!   16-term sum plus a diagonal multiply per element.
//!
//! The S-box is `x^3` — valid over KoalaBear because
//! `gcd(3, p - 1) = 1` (`p - 1 = 2^24 · 127` and `127 ≡ 1 (mod 3)`),
//! checked by a unit test. Round counts are 4 + 4 external and 20
//! internal, in the neighbourhood of the Poseidon2 reference
//! instantiations for 31-bit fields.
//!
//! **Substitution note (see DESIGN.md):** round constants and the internal
//! diagonal are generated deterministically from a seed, like every other
//! constant set in this repository; `M4` uses the literal entries from the
//! Poseidon2 reference instantiation.

use unizk_field::{Field, KoalaBear};

use crate::sponge::SpongeBackend;

/// Sponge width in field elements.
pub const KB_WIDTH: usize = 16;
/// Absorption rate (the capacity is the other 8 lanes).
pub const KB_RATE: usize = 8;
/// Number of external (full) rounds, split evenly around the internal run.
pub const KB_FULL_ROUNDS: usize = 8;
/// Number of internal (partial) rounds.
pub const KB_PARTIAL_ROUNDS: usize = 20;

/// Deterministic constant generator — the same splitmix64 core as
/// [`crate::poseidon`], seeded independently.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed 4×4 block of the external matrix (Poseidon2's reference `M4`).
const M4: [[u64; 4]; 4] = [
    [5, 7, 1, 3],
    [4, 6, 1, 1],
    [1, 3, 5, 7],
    [1, 1, 4, 6],
];

/// All constants the KoalaBear Poseidon2 permutation needs, generated once.
#[derive(Clone, Debug)]
pub struct Poseidon2KbConstants {
    /// Per-round constant vectors for the 8 external rounds.
    pub external_constants: [[KoalaBear; KB_WIDTH]; KB_FULL_ROUNDS],
    /// Per-round constants (added to element 0) for the 20 internal rounds.
    pub internal_constants: [KoalaBear; KB_PARTIAL_ROUNDS],
    /// Dense external matrix `M_E = circ(2·M4, M4, M4, M4)` (row-major).
    pub external_mat: [[KoalaBear; KB_WIDTH]; KB_WIDTH],
    /// Internal-layer diagonal `d`: the internal matrix is `J + diag(d)`
    /// with `J` the all-ones matrix (entries in `1..=96`).
    pub internal_diag: [KoalaBear; KB_WIDTH],
}

impl Poseidon2KbConstants {
    fn generate() -> Self {
        let mut s: u64 = 0x4B42_5053_4432_3235; // "KB PSD2 25"-ish seed

        let mut external_constants = [[KoalaBear::ZERO; KB_WIDTH]; KB_FULL_ROUNDS];
        for row in external_constants.iter_mut() {
            for c in row.iter_mut() {
                *c = KoalaBear::from_u64(splitmix64(&mut s));
            }
        }
        let mut internal_constants = [KoalaBear::ZERO; KB_PARTIAL_ROUNDS];
        for c in internal_constants.iter_mut() {
            *c = KoalaBear::from_u64(splitmix64(&mut s));
        }

        let mut external_mat = [[KoalaBear::ZERO; KB_WIDTH]; KB_WIDTH];
        for (i, row) in external_mat.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                let block_scale = if i / 4 == j / 4 { 2 } else { 1 };
                *c = KoalaBear::from_u64(block_scale * M4[i % 4][j % 4]);
            }
        }

        let mut internal_diag = [KoalaBear::ZERO; KB_WIDTH];
        for d in internal_diag.iter_mut() {
            *d = KoalaBear::from_u64(splitmix64(&mut s) % 96 + 1);
        }

        Self {
            external_constants,
            internal_constants,
            external_mat,
            internal_diag,
        }
    }
}

/// The process-wide KoalaBear Poseidon2 constant set.
pub fn constants_kb() -> &'static Poseidon2KbConstants {
    use std::sync::OnceLock;
    static CONSTANTS: OnceLock<Poseidon2KbConstants> = OnceLock::new();
    CONSTANTS.get_or_init(Poseidon2KbConstants::generate)
}

/// The `x^3` S-box (a permutation since `gcd(3, p - 1) = 1`).
#[inline]
fn sbox(x: KoalaBear) -> KoalaBear {
    x.square() * x
}

fn external_matvec(cs: &Poseidon2KbConstants, state: &[KoalaBear; KB_WIDTH]) -> [KoalaBear; KB_WIDTH] {
    let mut out = [KoalaBear::ZERO; KB_WIDTH];
    for (o, row) in out.iter_mut().zip(cs.external_mat.iter()) {
        let mut acc = KoalaBear::ZERO;
        for (c, &x) in row.iter().zip(state.iter()) {
            acc += *c * x;
        }
        *o = acc;
    }
    out
}

fn external_round(cs: &Poseidon2KbConstants, state: &mut [KoalaBear; KB_WIDTH], r: usize) {
    for (x, c) in state.iter_mut().zip(cs.external_constants[r].iter()) {
        *x = sbox(*x + *c);
    }
    *state = external_matvec(cs, state);
}

/// One internal round: S-box on element 0, then the `J + diag(d)` layer —
/// the 16-term sum is shared across rows, so a partial round costs one sum
/// and one multiply per element.
fn internal_round(cs: &Poseidon2KbConstants, state: &mut [KoalaBear; KB_WIDTH], r: usize) {
    state[0] = sbox(state[0] + cs.internal_constants[r]);
    let mut sum = KoalaBear::ZERO;
    for &x in state.iter() {
        sum += x;
    }
    for (x, d) in state.iter_mut().zip(cs.internal_diag.iter()) {
        *x = sum + *d * *x;
    }
}

/// Applies the full KoalaBear Poseidon2 permutation in place.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, KoalaBear};
/// use unizk_hash::poseidon2_kb_permute;
///
/// let mut state = [KoalaBear::ZERO; 16];
/// poseidon2_kb_permute(&mut state);
/// assert_ne!(state[0], KoalaBear::ZERO);
/// ```
pub fn poseidon2_kb_permute(state: &mut [KoalaBear; KB_WIDTH]) {
    let cs = constants_kb();
    // Poseidon2 pre-mixes the input with the external matrix.
    *state = external_matvec(cs, state);
    for r in 0..KB_FULL_ROUNDS / 2 {
        external_round(cs, state, r);
    }
    for r in 0..KB_PARTIAL_ROUNDS {
        internal_round(cs, state, r);
    }
    for r in KB_FULL_ROUNDS / 2..KB_FULL_ROUNDS {
        external_round(cs, state, r);
    }
}

/// The KoalaBear Poseidon2 sponge backend — the default hasher of the
/// 31-bit proof path (`StarkConfig<KoalaBear>`).
#[derive(Clone, Copy, Debug)]
pub struct Poseidon2KbSponge;

impl SpongeBackend for Poseidon2KbSponge {
    type F = KoalaBear;
    type State = [KoalaBear; KB_WIDTH];
    const WIDTH: usize = KB_WIDTH;
    const RATE: usize = KB_RATE;
    const NAME: &'static str = "poseidon2-kb";
    const COUNTER: &'static str = "poseidon2_kb.permutations";

    fn zeroed() -> Self::State {
        [KoalaBear::ZERO; KB_WIDTH]
    }

    fn permute(state: &mut Self::State) {
        poseidon2_kb_permute(state);
    }

    // The snapshot is the raw prefix-filled state plus the pending lane.
    type Speculative = ([KoalaBear; KB_WIDTH], usize);

    fn speculative(state: &Self::State, pending: usize) -> Self::Speculative {
        (*state, pending)
    }

    fn speculative_one(spec: &Self::Speculative, x: KoalaBear) -> KoalaBear {
        let mut s = spec.0;
        s[spec.1] = x;
        poseidon2_kb_permute(&mut s);
        s[KB_RATE - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::PrimeField64;

    fn k(n: u64) -> KoalaBear {
        KoalaBear::from_u64(n)
    }

    #[test]
    fn cube_is_a_permutation() {
        // gcd(3, p - 1) = 1: p - 1 = 2^24 · 127 ≡ 1·1 ≡ 1 (mod 3).
        assert_eq!((KoalaBear::ORDER - 1) % 3, 1);
        // Injectivity spot check via the inverse exponent.
        let e_inv = {
            // Solve 3·e ≡ 1 (mod p - 1) by search over small k in
            // e = (k(p-1)+1)/3.
            let m = KoalaBear::ORDER - 1;
            (1..3u64).find_map(|i| {
                let num = i * m + 1;
                (num % 3 == 0).then_some(num / 3)
            })
            .expect("3 is invertible mod p - 1")
        };
        for n in [1u64, 2, 17, 123_456_789] {
            assert_eq!(sbox(k(n)).exp_u64(e_inv), k(n));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_sensitive() {
        let mut a = [k(3); KB_WIDTH];
        let mut b = [k(3); KB_WIDTH];
        poseidon2_kb_permute(&mut a);
        poseidon2_kb_permute(&mut b);
        assert_eq!(a, b);

        let mut c = [k(3); KB_WIDTH];
        c[5] += KoalaBear::ONE;
        poseidon2_kb_permute(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn full_diffusion() {
        let mut base = [k(42); KB_WIDTH];
        let mut flipped = base;
        flipped[KB_WIDTH - 1] += KoalaBear::ONE;
        poseidon2_kb_permute(&mut base);
        poseidon2_kb_permute(&mut flipped);
        for i in 0..KB_WIDTH {
            assert_ne!(base[i], flipped[i], "lane {i} did not diffuse");
        }
    }

    #[test]
    fn external_matrix_is_block_circulant_of_m4() {
        let cs = constants_kb();
        for i in 0..KB_WIDTH {
            for j in 0..KB_WIDTH {
                let scale = if i / 4 == j / 4 { 2 } else { 1 };
                assert_eq!(
                    u64::from(cs.external_mat[i][j].as_canonical_u32()),
                    scale * M4[i % 4][j % 4],
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn internal_diag_entries_small_and_nonzero() {
        for d in constants_kb().internal_diag {
            let v = d.as_canonical_u32();
            assert!((1..=96).contains(&v));
        }
    }
}
