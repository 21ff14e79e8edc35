//! The Poseidon permutation over 12 Goldilocks elements (paper Algorithm 1).
//!
//! Round structure (identical to Plonky2's):
//!
//! ```text
//! for r in 0..4  { FullRound(r) }        // add const, x^7, × MDS
//! PrePartialRound                        // add const vector, × pre-MDS
//! for r in 0..22 { PartialRound(r) }     // x^7 on state[0], add const, × sparse MDS
//! for r in 4..8  { FullRound(r) }
//! ```
//!
//! The sparse MDS matrix of the partial rounds decomposes into a first row
//! `u`, a first column `v`, and a diagonal `E` (paper Fig. 5b) — exactly the
//! structure UniZK's 12×3-PE partial-round mapping exploits.

use unizk_field::{Field, Goldilocks};

/// Poseidon state width in field elements.
pub const WIDTH: usize = 12;
/// Sponge rate: elements absorbed/squeezed per permutation.
pub const SPONGE_RATE: usize = 8;
/// Sponge capacity (`WIDTH - SPONGE_RATE`).
pub const SPONGE_CAPACITY: usize = WIDTH - SPONGE_RATE;
/// Number of full rounds (split 4 + 4 around the partial rounds).
pub const FULL_ROUNDS: usize = 8;
/// Number of partial rounds.
pub const PARTIAL_ROUNDS: usize = 22;

/// Deterministic constant generator (splitmix64). See the crate-level
/// substitution note: these replace Plonky2's Grain-LFSR constants while
/// preserving the permutation's structure.
const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const fn gen_field(state: &mut u64) -> Goldilocks {
    // Same reduction as `Field::from_u64` (which is not `const`).
    Goldilocks::new(splitmix64(state) % unizk_field::goldilocks::P)
}

/// Small nonzero matrix entry (< 2^7), enabling lazy-reduction
/// matrix–vector products — the structure real optimized Poseidon
/// instances (including Plonky2's "fast" partial rounds) rely on.
const fn gen_small(state: &mut u64) -> Goldilocks {
    Goldilocks::new(splitmix64(state) % 96 + 1)
}

/// All constants the permutation needs, generated once.
#[derive(Clone, Debug)]
pub struct PoseidonConstants {
    /// `RoundConst[r][i]` for the 8 full rounds.
    pub round_constants: [[Goldilocks; WIDTH]; FULL_ROUNDS],
    /// `PartialRoundConst[r]` for the 22 partial rounds.
    pub partial_round_constants: [Goldilocks; PARTIAL_ROUNDS],
    /// The constant vector added by the pre-partial round.
    pub pre_partial_constants: [Goldilocks; WIDTH],
    /// Dense MDS matrix (row-major) for full rounds.
    pub mds: [[Goldilocks; WIDTH]; WIDTH],
    /// Dense matrix for the pre-partial round.
    pub pre_mds: [[Goldilocks; WIDTH]; WIDTH],
    /// Sparse-MDS first rows `u` per partial round.
    pub sparse_u: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
    /// Sparse-MDS first columns `v` (index 0 unused) per partial round.
    pub sparse_v: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
    /// Sparse-MDS diagonals `E` (index 0 unused) per partial round.
    pub sparse_diag: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
}

impl PoseidonConstants {
    // `const` (index-based `while` loops: `for`/iterators are not usable in
    // const eval) so the whole table lands in a `static` at compile time and
    // the hot kernels read matrix entries the optimizer can treat as
    // immediates rather than opaque `OnceLock` loads.
    const fn generate() -> Self {
        let mut s: u64 = 0x556E_695A_4B32_3032; // "UniZK2025"-ish seed

        let mut round_constants = [[Goldilocks::ZERO; WIDTH]; FULL_ROUNDS];
        let mut r = 0;
        while r < FULL_ROUNDS {
            let mut i = 0;
            while i < WIDTH {
                round_constants[r][i] = gen_field(&mut s);
                i += 1;
            }
            r += 1;
        }

        let mut partial_round_constants = [Goldilocks::ZERO; PARTIAL_ROUNDS];
        let mut r = 0;
        while r < PARTIAL_ROUNDS {
            partial_round_constants[r] = gen_field(&mut s);
            r += 1;
        }

        let mut pre_partial_constants = [Goldilocks::ZERO; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            pre_partial_constants[i] = gen_field(&mut s);
            i += 1;
        }

        // Circulant MDS from a row of small nonzero entries, mirroring the
        // circulant structure real Poseidon instances use.
        let mut first_row = [Goldilocks::ZERO; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            first_row[i] = Goldilocks::new(splitmix64(&mut s) % 61 + 1);
            i += 1;
        }
        let mut mds = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            let mut j = 0;
            while j < WIDTH {
                mds[i][j] = first_row[(j + WIDTH - i) % WIDTH];
                j += 1;
            }
            i += 1;
        }

        let mut pre_mds = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            let mut j = 0;
            while j < WIDTH {
                pre_mds[i][j] = gen_small(&mut s);
                j += 1;
            }
            i += 1;
        }

        let mut sparse_u = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut sparse_v = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut sparse_diag = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut r = 0;
        while r < PARTIAL_ROUNDS {
            let mut i = 0;
            while i < WIDTH {
                sparse_u[r][i] = gen_small(&mut s);
                i += 1;
            }
            let mut i = 1;
            while i < WIDTH {
                sparse_v[r][i] = gen_small(&mut s);
                sparse_diag[r][i] = gen_small(&mut s);
                i += 1;
            }
            r += 1;
        }

        Self {
            round_constants,
            partial_round_constants,
            pre_partial_constants,
            mds,
            pre_mds,
            sparse_u,
            sparse_v,
            sparse_diag,
        }
    }
}

/// The process-wide constant set, evaluated at compile time.
static CONSTANTS: PoseidonConstants = PoseidonConstants::generate();

/// The process-wide constant set.
pub fn constants() -> &'static PoseidonConstants {
    &CONSTANTS
}

/// `x^7` over lazy residues (see [`Goldilocks::reduce128_residue`]): the
/// three intermediate products stay in `[0, 2^64)` without the final
/// canonicalizing subtraction, which every multiply in the chain would
/// otherwise pay.
#[inline]
fn sbox_residue(x: u64) -> u64 {
    // x^7 = x^4 · x^2 · x  (3 squarings/multiplies, as in hardware).
    let x2 = Goldilocks::mul_residue(x, x);
    let x4 = Goldilocks::mul_residue(x2, x2);
    Goldilocks::mul_residue(Goldilocks::mul_residue(x4, x2), x)
}

#[cfg(test)]
fn mat_mul(m: &[[Goldilocks; WIDTH]; WIDTH], state: &[Goldilocks; WIDTH]) -> [Goldilocks; WIDTH] {
    let mut out = [Goldilocks::ZERO; WIDTH];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        let mut acc = Goldilocks::ZERO;
        for (c, x) in row.iter().zip(state.iter()) {
            acc += *c * *x;
        }
        *o = acc;
    }
    out
}

/// MDS matrix–vector product over residue lanes, exploiting the small
/// matrix entries (< 2^7): twelve `u128` partial products of a `< 2^7`
/// constant and a `< 2^64` residue sum to under `2^75 < 2^96`, so each
/// output row pays one [`Goldilocks::reduce96_residue`] instead of twelve
/// modular multiplies plus a full 128-bit reduction. This is the software
/// analogue of the cheap constant multipliers the hardware MDS step enjoys.
fn mds_residue(m: &[[Goldilocks; WIDTH]; WIDTH], state: &[u64; WIDTH]) -> [u64; WIDTH] {
    let mut out = [0u64; WIDTH];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        let mut acc: u128 = 0;
        for (c, x) in row.iter().zip(state.iter()) {
            acc += u128::from(c.as_canonical_u64()) * u128::from(*x);
        }
        *o = Goldilocks::reduce96_residue(acc);
    }
    out
}

fn full_round(cs: &PoseidonConstants, state: &mut [u64; WIDTH], r: usize) {
    for (x, c) in state.iter_mut().zip(cs.round_constants[r].iter()) {
        *x = sbox_residue(Goldilocks::add_residue(*x, c.as_canonical_u64()));
    }
    *state = mds_residue(&cs.mds, state);
}

fn pre_partial_round(cs: &PoseidonConstants, state: &mut [u64; WIDTH]) {
    for (x, c) in state.iter_mut().zip(cs.pre_partial_constants.iter()) {
        *x = Goldilocks::add_residue(*x, c.as_canonical_u64());
    }
    *state = mds_residue(&cs.pre_mds, state);
}

fn partial_round(cs: &PoseidonConstants, state: &mut [u64; WIDTH], r: usize) {
    state[0] = Goldilocks::add_residue(
        sbox_residue(state[0]),
        cs.partial_round_constants[r].as_canonical_u64(),
    );

    // Sparse MDS: out[0] = u·state; out[i] = v[i]·state[0] + E[i]·state[i].
    // All entries are < 2^7, so both the 12-term dot and each two-term row
    // update stay below 2^96 and take the short reduction.
    let u = &cs.sparse_u[r];
    let v = &cs.sparse_v[r];
    let e = &cs.sparse_diag[r];
    let mut dot: u128 = 0;
    for (c, x) in u.iter().zip(state.iter()) {
        dot += u128::from(c.as_canonical_u64()) * u128::from(*x);
    }
    let s0 = state[0];
    for i in 1..WIDTH {
        let acc = u128::from(v[i].as_canonical_u64()) * u128::from(s0)
            + u128::from(e[i].as_canonical_u64()) * u128::from(state[i]);
        state[i] = Goldilocks::reduce96_residue(acc);
    }
    state[0] = Goldilocks::reduce96_residue(dot);
}

/// Applies the full Poseidon permutation in place.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::poseidon_permute;
///
/// let mut state = [Goldilocks::ZERO; 12];
/// poseidon_permute(&mut state);
/// assert_ne!(state[0], Goldilocks::ZERO); // zero state does not stay zero
/// ```
pub fn poseidon_permute(state: &mut [Goldilocks; WIDTH]) {
    let cs = constants();
    // Rounds run over lazy residues (< 2^64, possibly non-canonical) and the
    // canonicalizing subtraction is paid exactly once per lane on exit; the
    // outputs are bit-identical to a fully-reduced evaluation (pinned by the
    // KAT suite).
    let mut lanes = [0u64; WIDTH];
    for (l, x) in lanes.iter_mut().zip(state.iter()) {
        *l = x.as_canonical_u64();
    }
    for r in 0..FULL_ROUNDS / 2 {
        full_round(cs, &mut lanes, r);
    }
    pre_partial_round(cs, &mut lanes);
    for r in 0..PARTIAL_ROUNDS {
        partial_round(cs, &mut lanes, r);
    }
    for r in FULL_ROUNDS / 2..FULL_ROUNDS {
        full_round(cs, &mut lanes, r);
    }
    for (x, l) in state.iter_mut().zip(lanes.iter()) {
        *x = Goldilocks::from_residue(*l);
    }
}

/// A permutation with every input lane fixed except one, with the static
/// lanes' first-round work precomputed.
///
/// This is the shape of the FRI grind (proof-of-work) loop: thousands of
/// permutations whose inputs differ only in the nonce lane. Round 0 applies
/// the round constants and s-box to each lane independently before the MDS
/// mix, so for the 11 static lanes both steps — and their contributions to
/// every MDS output accumulator — are attempt-invariant. [`Self::new`]
/// hoists them; [`Self::permute_with`] then pays one s-box, `WIDTH`
/// constant-by-residue products, and the remaining rounds per attempt.
///
/// Output is bit-identical to [`poseidon_permute`] on the same full input
/// (pinned by `nonce_permutation_matches_full_permutation`); this is purely
/// a common-subexpression hoist, not an approximation.
#[derive(Clone, Debug)]
pub struct NoncePermutation {
    /// Per-output-row MDS accumulators over the 11 static sboxed lanes.
    /// Bound: 11 terms of `< 2^7 · 2^64`, comfortably below the `2^96`
    /// budget even after the nonce term joins.
    static_acc: [u128; WIDTH],
    /// `mds[i][lane]` for each output row `i` (canonical, `< 2^7`).
    nonce_col: [u64; WIDTH],
    /// Round-0 constant for the nonce lane.
    nonce_rc: u64,
}

impl NoncePermutation {
    /// Precomputes the static round-0 work for a permutation whose input
    /// equals `state` everywhere except index `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WIDTH`.
    pub fn new(state: &[Goldilocks; WIDTH], lane: usize) -> Self {
        assert!(lane < WIDTH, "nonce lane out of range");
        let cs = constants();
        let mut sboxed = [0u64; WIDTH];
        for (i, (x, c)) in state.iter().zip(cs.round_constants[0].iter()).enumerate() {
            if i != lane {
                sboxed[i] = sbox_residue(Goldilocks::add_residue(
                    x.as_canonical_u64(),
                    c.as_canonical_u64(),
                ));
            }
        }
        let mut static_acc = [0u128; WIDTH];
        let mut nonce_col = [0u64; WIDTH];
        for ((acc, col), row) in static_acc
            .iter_mut()
            .zip(nonce_col.iter_mut())
            .zip(cs.mds.iter())
        {
            for (j, (c, x)) in row.iter().zip(sboxed.iter()).enumerate() {
                if j != lane {
                    *acc += u128::from(c.as_canonical_u64()) * u128::from(*x);
                }
            }
            *col = row[lane].as_canonical_u64();
        }
        Self {
            static_acc,
            nonce_col,
            nonce_rc: cs.round_constants[0][lane].as_canonical_u64(),
        }
    }

    /// Runs the permutation with `x` in the nonce lane, returning the full
    /// output state.
    pub fn permute_with(&self, x: Goldilocks) -> [Goldilocks; WIDTH] {
        let cs = constants();
        let mut lanes = self.all_but_last_round(cs, x);
        full_round(cs, &mut lanes, FULL_ROUNDS - 1);
        let mut out = [Goldilocks::ZERO; WIDTH];
        for (o, l) in out.iter_mut().zip(lanes.iter()) {
            *o = Goldilocks::from_residue(*l);
        }
        out
    }

    /// Output element `row` of [`Self::permute_with`]`(x)`, computing only
    /// that row of the final round's MDS product. This is the grind's
    /// per-attempt kernel: each attempt squeezes one rate element, so the
    /// last matrix–vector product pays one row instead of twelve.
    ///
    /// # Panics
    ///
    /// Panics if `row >= WIDTH`.
    pub fn permute_with_row(&self, x: Goldilocks, row: usize) -> Goldilocks {
        assert!(row < WIDTH, "output row out of range");
        let cs = constants();
        let mut lanes = self.all_but_last_round(cs, x);
        for (l, c) in lanes.iter_mut().zip(cs.round_constants[FULL_ROUNDS - 1].iter()) {
            *l = sbox_residue(Goldilocks::add_residue(*l, c.as_canonical_u64()));
        }
        let mut acc: u128 = 0;
        for (c, l) in cs.mds[row].iter().zip(lanes.iter()) {
            acc += u128::from(c.as_canonical_u64()) * u128::from(*l);
        }
        Goldilocks::from_residue(Goldilocks::reduce96_residue(acc))
    }

    /// Round 0 from the hoisted accumulators, then every round up to (not
    /// including) the last full round.
    fn all_but_last_round(&self, cs: &PoseidonConstants, x: Goldilocks) -> [u64; WIDTH] {
        let sx = sbox_residue(Goldilocks::add_residue(x.as_canonical_u64(), self.nonce_rc));
        let mut lanes = [0u64; WIDTH];
        for ((l, acc), c) in lanes
            .iter_mut()
            .zip(self.static_acc.iter())
            .zip(self.nonce_col.iter())
        {
            *l = Goldilocks::reduce96_residue(*acc + u128::from(*c) * u128::from(sx));
        }
        for r in 1..FULL_ROUNDS / 2 {
            full_round(cs, &mut lanes, r);
        }
        pre_partial_round(cs, &mut lanes);
        for r in 0..PARTIAL_ROUNDS {
            partial_round(cs, &mut lanes, r);
        }
        for r in FULL_ROUNDS / 2..FULL_ROUNDS - 1 {
            full_round(cs, &mut lanes, r);
        }
        lanes
    }
}

/// Static operation counts of one permutation, used by the accelerator cost
/// model (`unizk-core`) and the CPU-baseline roofline estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoseidonCost {
    /// Modular multiplications per permutation.
    pub muls: usize,
    /// Modular additions per permutation.
    pub adds: usize,
}

impl PoseidonCost {
    /// Derives the counts from the round structure.
    pub const fn of_permutation() -> Self {
        // Full round: WIDTH s-boxes (4 muls each: sq, sq, mul, mul) + dense
        // mat-vec (WIDTH^2 muls, WIDTH*(WIDTH-1) adds) + WIDTH const adds.
        let full_muls = WIDTH * 4 + WIDTH * WIDTH;
        let full_adds = WIDTH + WIDTH * (WIDTH - 1);
        // Pre-partial: dense mat-vec + const adds.
        let pre_muls = WIDTH * WIDTH;
        let pre_adds = WIDTH + WIDTH * (WIDTH - 1);
        // Partial round: 1 s-box (4 muls) + 1 const add + sparse mat-vec
        // (u-dot: WIDTH muls + WIDTH-1 adds; rows: 2(WIDTH-1) muls +
        // (WIDTH-1) adds).
        let partial_muls = 4 + WIDTH + 2 * (WIDTH - 1);
        let partial_adds = 1 + (WIDTH - 1) + (WIDTH - 1);
        Self {
            muls: FULL_ROUNDS * full_muls + pre_muls + PARTIAL_ROUNDS * partial_muls,
            adds: FULL_ROUNDS * full_adds + pre_adds + PARTIAL_ROUNDS * partial_adds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical-domain s-box wrapper over the residue kernel.
    fn sbox(x: Goldilocks) -> Goldilocks {
        Goldilocks::from_residue(sbox_residue(x.as_canonical_u64()))
    }

    fn to_residues(state: &[Goldilocks; WIDTH]) -> [u64; WIDTH] {
        let mut out = [0u64; WIDTH];
        for (o, x) in out.iter_mut().zip(state.iter()) {
            *o = x.as_canonical_u64();
        }
        out
    }

    fn from_residues(lanes: &[u64; WIDTH]) -> [Goldilocks; WIDTH] {
        let mut out = [Goldilocks::ZERO; WIDTH];
        for (o, l) in out.iter_mut().zip(lanes.iter()) {
            *o = Goldilocks::from_residue(*l);
        }
        out
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut a = [Goldilocks::from_u64(3); WIDTH];
        let mut b = [Goldilocks::from_u64(3); WIDTH];
        poseidon_permute(&mut a);
        poseidon_permute(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_differs_on_different_inputs() {
        let mut a = [Goldilocks::ZERO; WIDTH];
        let mut b = [Goldilocks::ZERO; WIDTH];
        b[0] = Goldilocks::ONE;
        poseidon_permute(&mut a);
        poseidon_permute(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn single_bit_diffusion() {
        // After the permutation, flipping one input element should change
        // every output element (full diffusion).
        let mut base = [Goldilocks::from_u64(42); WIDTH];
        let mut flipped = base;
        flipped[7] += Goldilocks::ONE;
        poseidon_permute(&mut base);
        poseidon_permute(&mut flipped);
        for i in 0..WIDTH {
            assert_ne!(base[i], flipped[i], "lane {i} did not diffuse");
        }
    }

    #[test]
    fn sbox_is_x_to_the_7() {
        let x = Goldilocks::from_u64(5);
        assert_eq!(sbox(x), x.exp_u64(7));
        assert_eq!(sbox(Goldilocks::ZERO), Goldilocks::ZERO);
        assert_eq!(sbox(Goldilocks::ONE), Goldilocks::ONE);
    }

    #[test]
    fn sparse_round_matches_dense_equivalent() {
        // Build the dense matrix from (u, v, E) and check partial_round's
        // sparse evaluation agrees with a dense mat-vec.
        let cs = constants();
        let r = 5;
        let mut dense = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        dense[0] = cs.sparse_u[r];
        for (i, row) in dense.iter_mut().enumerate().skip(1) {
            row[0] = cs.sparse_v[r][i];
            row[i] = cs.sparse_diag[r][i];
        }

        let mut state = [Goldilocks::ZERO; WIDTH];
        for (i, x) in state.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(i as u64 + 1);
        }

        // Expected: apply s-box + const, then dense multiply.
        let mut expected = state;
        expected[0] = sbox(expected[0]) + cs.partial_round_constants[r];
        let expected = mat_mul(&dense, &expected);

        let mut got = to_residues(&state);
        partial_round(cs, &mut got, r);
        assert_eq!(from_residues(&got), expected);
    }

    #[test]
    fn mds_fast_path_matches_generic() {
        let cs = constants();
        let mut state = [Goldilocks::ZERO; WIDTH];
        for (i, x) in state.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(u64::MAX - i as u64); // near-p values
        }
        let fast = mds_residue(&cs.mds, &to_residues(&state));
        assert_eq!(from_residues(&fast), mat_mul(&cs.mds, &state));
    }

    #[test]
    fn residue_rounds_accept_noncanonical_lanes() {
        // Feed each round kernel a lane pinned at u64::MAX (the worst legal
        // residue) next to its canonical equivalent and check congruence.
        let cs = constants();
        let mut canonical = [Goldilocks::ZERO; WIDTH];
        for (i, x) in canonical.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(u64::MAX).mul_pow2(i); // u64::MAX ≡ MAX - p
        }
        let mut lazy = to_residues(&canonical);
        lazy[0] = u64::MAX; // ≡ canonical[0], but non-canonical form

        let mut a = to_residues(&canonical);
        let mut b = lazy;
        full_round(cs, &mut a, 0);
        full_round(cs, &mut b, 0);
        assert_eq!(from_residues(&a), from_residues(&b));

        let mut a = to_residues(&canonical);
        let mut b = lazy;
        partial_round(cs, &mut a, 3);
        partial_round(cs, &mut b, 3);
        assert_eq!(from_residues(&a), from_residues(&b));
    }

    #[test]
    fn nonce_permutation_matches_full_permutation() {
        let mut s = 0xBEEF;
        let mut base = [Goldilocks::ZERO; WIDTH];
        for x in base.iter_mut() {
            *x = gen_field(&mut s);
        }
        for lane in 0..WIDTH {
            let hoisted = NoncePermutation::new(&base, lane);
            for nonce in [0u64, 1, 42, u64::MAX] {
                let x = Goldilocks::from_u64(nonce);
                let mut full = base;
                full[lane] = x;
                poseidon_permute(&mut full);
                assert_eq!(hoisted.permute_with(x), full, "lane={lane} nonce={nonce}");
            }
        }
    }

    #[test]
    fn nonce_row_matches_permute_with() {
        let mut s = 0x40CE;
        for lane in [0, 3, SPONGE_RATE - 1] {
            let mut base = [Goldilocks::ZERO; WIDTH];
            for x in base.iter_mut() {
                *x = gen_field(&mut s);
            }
            let hoisted = NoncePermutation::new(&base, lane);
            for nonce in [0u64, 1, 42, u64::MAX, splitmix64(&mut s)] {
                let x = Goldilocks::from_u64(nonce);
                let full = hoisted.permute_with(x);
                for (row, want) in full.iter().enumerate() {
                    assert_eq!(
                        hoisted.permute_with_row(x, row),
                        *want,
                        "lane={lane} nonce={nonce} row={row}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output row out of range")]
    fn permute_with_row_rejects_bad_row() {
        let hoisted = NoncePermutation::new(&[Goldilocks::ZERO; WIDTH], 0);
        let _ = hoisted.permute_with_row(Goldilocks::ZERO, WIDTH);
    }

    #[test]
    #[should_panic(expected = "nonce lane out of range")]
    fn nonce_permutation_rejects_bad_lane() {
        let _ = NoncePermutation::new(&[Goldilocks::ZERO; WIDTH], WIDTH);
    }

    #[test]
    fn mds_is_circulant() {
        let cs = constants();
        for i in 0..WIDTH {
            for j in 0..WIDTH {
                assert_eq!(cs.mds[i][j], cs.mds[(i + 1) % WIDTH][(j + 1) % WIDTH]);
            }
        }
    }

    #[test]
    fn cost_counts_are_sane() {
        let cost = PoseidonCost::of_permutation();
        // 8 full rounds dominate: 8 * (48 + 144) = 1536 muls, plus pre and
        // partial contributions.
        assert_eq!(
            cost.muls,
            8 * (12 * 4 + 144) + 144 + 22 * (4 + 12 + 22)
        );
        assert!(cost.adds > 1000);
    }
}
