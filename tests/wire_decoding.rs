//! The proof decoders face untrusted bytes: on any input they return `Ok`
//! or `Err`, never abort, and a proof has exactly one valid encoding.
//!
//! * **Bounded pre-allocation.** A length prefix larger than the bytes left
//!   is an error, so no `Vec::with_capacity` in `FriProof`, `StarkProof` or
//!   `PlonkProof::from_bytes` can exceed the input length.
//! * **Canonical encoding.** Field limbs `>= p` and trailing bytes are
//!   rejected, so `decode(b) = Ok(p)` implies `encode(p) == b`.

use std::sync::OnceLock;

use unizk_field::{Field, Goldilocks, KoalaBear, PrimeField64};
use unizk_fri::{FriProof, WireError};
use unizk_hash::sponge::HashField;
use unizk_hash::{Digest, SpongeBackend};
use unizk_plonk::{CircuitBuilder, CircuitConfig, Proof as PlonkProof};
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig, StarkProof};
use unizk_testkit::prop::prelude::*;

/// A length prefix of 2^30, little-endian.
const HUGE_PREFIX: [u8; 4] = [0, 0, 0, 0x40];

fn fibonacci_proof<F: HashField, H: SpongeBackend<F = F>>(
    config: &StarkConfig<F, H>,
) -> StarkProof<F> {
    let air = FibonacciAir::new(256);
    let proof = prove(&air, config).expect("Fibonacci trace satisfies its AIR");
    verify(&air, &proof, config).expect("honest proof verifies");
    proof
}

fn goldilocks_stark() -> &'static StarkProof {
    static PROOF: OnceLock<StarkProof> = OnceLock::new();
    PROOF.get_or_init(|| fibonacci_proof(&StarkConfig::for_testing()))
}

fn koalabear_stark() -> &'static StarkProof<KoalaBear> {
    static PROOF: OnceLock<StarkProof<KoalaBear>> = OnceLock::new();
    PROOF.get_or_init(|| fibonacci_proof(&KbStarkConfig::for_testing_over()))
}

/// `(x0 + x1) · x2 = out` with `out` public.
fn plonk_proof() -> &'static PlonkProof {
    static PROOF: OnceLock<PlonkProof> = OnceLock::new();
    PROOF.get_or_init(|| {
        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        let x0 = b.add_input();
        let x1 = b.add_input();
        let x2 = b.add_input();
        let sum = b.add(x0, x1);
        let out = b.mul(sum, x2);
        b.register_public_input(out);
        let circuit = b.build();
        let g = Goldilocks::from_u64;
        let proof = circuit.prove(&[g(2), g(3), g(7)]).expect("satisfiable");
        circuit.verify(&proof).expect("honest proof verifies");
        proof
    })
}

/// Byte offset at which a Stark proof's FRI part starts.
fn stark_header_len<F: PrimeField64>() -> usize {
    2 * Digest::<F>::BYTES + 8
}

/// Byte offset at which a Plonk proof's FRI part starts.
fn plonk_header_len(proof: &PlonkProof) -> usize {
    4 + proof.public_inputs.len() * 8 + 3 * Digest::<Goldilocks>::BYTES
}

fn with_huge_prefix(header: &[u8]) -> Vec<u8> {
    [header, &HUGE_PREFIX].concat()
}

#[test]
fn huge_length_prefix_is_an_error_not_an_abort() {
    let too_long = WireError::LengthOutOfRange(1 << 30);
    assert_eq!(
        FriProof::<Goldilocks>::from_bytes(&HUGE_PREFIX).unwrap_err(),
        too_long
    );
    assert_eq!(
        FriProof::<KoalaBear>::from_bytes(&HUGE_PREFIX).unwrap_err(),
        too_long
    );
    assert_eq!(PlonkProof::from_bytes(&HUGE_PREFIX).unwrap_err(), too_long);
    assert!(StarkProof::<Goldilocks>::from_bytes(&HUGE_PREFIX).is_err());
    assert!(StarkProof::<KoalaBear>::from_bytes(&HUGE_PREFIX).is_err());

    // The same prefix behind a valid header.
    let gl = goldilocks_stark().to_bytes();
    let kb = koalabear_stark().to_bytes();
    let plonk = plonk_proof().to_bytes();
    let gl = with_huge_prefix(&gl[..stark_header_len::<Goldilocks>()]);
    let kb = with_huge_prefix(&kb[..stark_header_len::<KoalaBear>()]);
    let plonk = with_huge_prefix(&plonk[..plonk_header_len(plonk_proof())]);
    assert_eq!(
        StarkProof::<Goldilocks>::from_bytes(&gl).unwrap_err(),
        too_long
    );
    assert_eq!(
        StarkProof::<KoalaBear>::from_bytes(&kb).unwrap_err(),
        too_long
    );
    assert_eq!(PlonkProof::from_bytes(&plonk).unwrap_err(), too_long);
}

/// Replaces the pow witness limb `v` with `v + p`, which reduces to the
/// same element, and requires the decoder to refuse it.
fn non_canonical_limb_rejected<F: HashField>(proof: &StarkProof<F>) {
    let bytes = proof.to_bytes();
    // Bumping the witness by one always changes its lowest byte, so the
    // first differing byte is the start of its limb.
    let mut bumped = proof.clone();
    bumped.fri.pow_witness += F::ONE;
    let at = bytes
        .iter()
        .zip(bumped.to_bytes())
        .position(|(a, b)| *a != b)
        .expect("the witness is encoded");
    let lifted = proof.fri.pow_witness.as_u64() + F::ORDER;
    let mut mutated = bytes.clone();
    mutated[at..at + F::BYTES].copy_from_slice(&lifted.to_le_bytes()[..F::BYTES]);
    assert_eq!(
        StarkProof::<F>::from_bytes(&mutated).unwrap_err(),
        WireError::NonCanonical(lifted)
    );
    assert!(StarkProof::<F>::from_bytes(&bytes).is_ok());
}

#[test]
fn non_canonical_limb_is_rejected() {
    non_canonical_limb_rejected(goldilocks_stark());
    non_canonical_limb_rejected(koalabear_stark());
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut gl = goldilocks_stark().to_bytes();
    gl.extend([1, 2, 3]);
    assert_eq!(
        StarkProof::<Goldilocks>::from_bytes(&gl).unwrap_err(),
        WireError::TrailingBytes(3)
    );
    let mut kb = koalabear_stark().to_bytes();
    kb.extend([1, 2, 3]);
    assert_eq!(
        StarkProof::<KoalaBear>::from_bytes(&kb).unwrap_err(),
        WireError::TrailingBytes(3)
    );
    let mut plonk = plonk_proof().to_bytes();
    plonk.extend([1, 2, 3]);
    assert_eq!(
        PlonkProof::from_bytes(&plonk).unwrap_err(),
        WireError::TrailingBytes(3)
    );
}

/// Flips one byte of `honest` and requires the decode to be an error or
/// to re-encode to exactly the mutated bytes.
fn mutation_decodes_canonically<T>(
    honest: &[u8],
    at: usize,
    flip: u8,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> bool {
    let mut mutated = honest.to_vec();
    mutated[at] ^= flip;
    decode(&mutated).map_or(true, |p| encode(&p) == mutated)
}

prop! {
    #![cases(128)]

    fn single_byte_mutations_decode_canonically(
        victim in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let gl = goldilocks_stark().to_bytes();
        prop_assert!(mutation_decodes_canonically(
            &gl,
            victim.index(gl.len()),
            flip,
            StarkProof::<Goldilocks>::from_bytes,
            StarkProof::to_bytes,
        ));
        let kb = koalabear_stark().to_bytes();
        prop_assert!(mutation_decodes_canonically(
            &kb,
            victim.index(kb.len()),
            flip,
            StarkProof::<KoalaBear>::from_bytes,
            StarkProof::to_bytes,
        ));
        let plonk = plonk_proof().to_bytes();
        prop_assert!(mutation_decodes_canonically(
            &plonk,
            victim.index(plonk.len()),
            flip,
            PlonkProof::from_bytes,
            PlonkProof::to_bytes,
        ));
    }
}
