//! Residue number system (RNS) arithmetic — the GRNS baseline stand-in.
//!
//! The paper compares MoMA against GRNS, a GPU library that represents very large
//! integers by their residues modulo a set of machine-word-sized primes and performs
//! arithmetic independently per residue. This crate implements the same scheme:
//!
//! * [`RnsContext`] — a basis of distinct word-sized primes whose product covers the
//!   required dynamic range, with conversion to residues and CRT reconstruction;
//! * [`RnsInt`] — one large integer in residue form, with `O(#moduli)` addition,
//!   subtraction, and multiplication;
//! * [`vector`] — per-element vector operations over [`RnsInt`] values, the original
//!   (allocation-heavy) baseline of the Figure 2 BLAS comparison;
//! * [`plan`] — the planned residue engine: [`RnsPlan`] precomputes per-modulus
//!   Barrett constants and CRT data once per basis, and [`RnsMatrix`] stores whole
//!   vectors in structure-of-arrays layout so element-wise operations run
//!   per-residue-row on the simulated GPU launcher with no arbitrary-precision
//!   arithmetic on the hot path;
//! * base conversion and rescale — the RNS operations FHE pipelines chain
//!   *between* element-wise stages: [`BaseConvPlan`] precomputes the fast-base-extension tables once per
//!   basis pair and [`RnsPlan::base_convert`] runs the whole conversion as one
//!   launch of the generated all-rows kernel, while [`RescalePlan`] /
//!   [`RnsPlan::scale_and_round`] implement approximate division-by-`m_k` with
//!   rounding (the CKKS/BGV rescale primitive).
//!
//! The trade-off the paper measures is visible directly in the API: ring operations are
//! embarrassingly cheap per residue, but anything that needs the positional value —
//! comparison, reduction modulo a user modulus `q` that is not the RNS product, or
//! conversion — requires CRT reconstruction through arbitrary-precision arithmetic.
//!
//! [`RnsContext`]/[`RnsInt`] remain the readable correctness oracle; the planned
//! engine is cross-checked against them property-by-property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseconv;
pub mod plan;
pub mod vector;

pub use baseconv::{BaseConvPlan, RescaleExtendPlan, RescalePlan};
pub use plan::{RnsMatrix, RnsPlan};

use moma_bignum::{prime, BigUint};
use moma_mp::single::SingleBarrett;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Number of bits per RNS modulus. 31-bit moduli keep every product inside a `u64`
/// accumulator without overflow handling, mirroring GRNS's use of the GPU's
/// floating-point units (whose exactly-representable integer range is similar).
pub const MODULUS_BITS: u32 = 31;

/// The number of [`MODULUS_BITS`]-bit moduli [`RnsContext::with_capacity_bits`]
/// draws to cover `bits` bits of dynamic range (one spare modulus of headroom).
pub fn capacity_moduli_count(bits: u32) -> usize {
    bits.div_ceil(MODULUS_BITS - 1) as usize + 1
}

/// A basis of pairwise-distinct word-sized primes.
///
/// # Example
///
/// ```
/// use moma_bignum::BigUint;
/// use moma_rns::RnsContext;
///
/// let ctx = RnsContext::with_capacity_bits(256);
/// let x = BigUint::from_hex("123456789abcdef0123456789abcdef0").unwrap();
/// let residues = ctx.to_residues(&x);
/// assert_eq!(ctx.from_residues(&residues), x);
/// ```
#[derive(Debug, Clone)]
pub struct RnsContext {
    moduli: Vec<u64>,
    /// The basis moduli as `BigUint`s, built once so the conversion paths do not
    /// re-allocate one `BigUint` per modulus per call.
    moduli_big: Vec<BigUint>,
    product: BigUint,
    /// Precomputed CRT data: (M_i = product / m_i, y_i = M_i^{-1} mod m_i).
    crt: Vec<(BigUint, u64)>,
}

impl RnsContext {
    /// Creates a context whose dynamic range covers at least `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn with_capacity_bits(bits: u32) -> Self {
        assert!(bits > 0, "capacity must be positive");
        Self::with_moduli_count(capacity_moduli_count(bits))
    }

    /// Creates a context with exactly `count` deterministic prime moduli.
    pub fn with_moduli_count(count: usize) -> Self {
        Self::with_random_primes(count, MODULUS_BITS, 0x6e73_5f72_6e73)
    }

    /// Creates a context over `count` distinct primes of `bits` bits drawn from
    /// a seeded generator — the deterministic basis builder for fresh
    /// base-extension targets (the benches and cross-basis tests need a second
    /// basis that is not the default one).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `bits` exceeds the 60-bit single-word
    /// Barrett limit.
    pub fn with_random_primes(count: usize, bits: u32, seed: u64) -> Self {
        assert!(count > 0, "need at least one modulus");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut moduli = Vec::with_capacity(count);
        // Set-based dedup: a `moduli.contains` scan would make basis
        // construction quadratic in the modulus count.
        let mut seen = HashSet::with_capacity(count);
        while moduli.len() < count {
            let p = prime::random_prime(&mut rng, bits)
                .to_u64()
                .expect("word-sized prime fits u64");
            if seen.insert(p) {
                moduli.push(p);
            }
        }
        Self::from_moduli(moduli)
    }

    /// Creates a context over an explicit basis of pairwise-distinct primes.
    ///
    /// Unlike the deterministic constructors, the basis may mix *narrow*
    /// (≤32-bit) and *wide* moduli of up to 60 bits — the planned engine decides
    /// the narrow-Barrett dispatch per modulus at plan-build time. This is also
    /// how base-extension targets and rescale output bases are built.
    ///
    /// # Panics
    ///
    /// Panics when [`RnsContext::try_with_moduli`] refuses the basis.
    pub fn with_moduli(moduli: &[u64]) -> Self {
        Self::try_with_moduli(moduli).unwrap_or_else(|e| panic!("{e}: {moduli:?}"))
    }

    /// [`RnsContext::with_moduli`], returning why a basis is refused instead
    /// of panicking: it is empty, or contains a duplicate, a non-prime, or a
    /// modulus wider than 60 bits (the single-word Barrett limit).
    pub fn try_with_moduli(moduli: &[u64]) -> Result<Self, &'static str> {
        if moduli.is_empty() {
            return Err("need at least one modulus");
        }
        let mut seen = HashSet::with_capacity(moduli.len());
        for &m in moduli {
            if !seen.insert(m) {
                return Err("duplicate modulus");
            }
            if m >= 1 << 60 {
                return Err("modulus wider than the 60-bit single-word Barrett limit");
            }
            if !prime::is_prime_u64(m) {
                return Err("modulus is not prime (CRT reconstruction needs a prime basis)");
            }
        }
        Ok(Self::from_moduli(moduli.to_vec()))
    }

    /// Shared constructor tail: precomputes the products and CRT data for an
    /// already-validated basis.
    fn from_moduli(moduli: Vec<u64>) -> Self {
        let moduli_big: Vec<BigUint> = moduli.iter().map(|&m| BigUint::from(m)).collect();
        let mut product = BigUint::one();
        for m_big in &moduli_big {
            product = &product * m_big;
        }
        let crt = moduli
            .iter()
            .zip(&moduli_big)
            .map(|(&m, m_big)| {
                let mi = &product / m_big;
                let mi_mod = (&mi % m_big).to_u64().unwrap();
                // Word-sized modular inverse via the shared helper in `moma-mp`
                // (Fermat over a Barrett context; the moduli are primes of at
                // most 60 bits).
                let yi = SingleBarrett::new(m).inv_mod(mi_mod);
                (mi, yi)
            })
            .collect();
        RnsContext {
            moduli,
            moduli_big,
            product,
            crt,
        }
    }

    /// The same basis with the last modulus dropped — the output basis of one
    /// [`RnsContext::scale_and_round`] step.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn without_last(&self) -> Self {
        assert!(
            self.moduli.len() >= 2,
            "rescale needs at least two basis moduli"
        );
        Self::from_moduli(self.moduli[..self.moduli.len() - 1].to_vec())
    }

    /// The prime moduli of the basis.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// The product of all moduli (the dynamic range).
    pub fn product(&self) -> &BigUint {
        &self.product
    }

    /// Converts a positional integer (must be below the product) into residues.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not below the dynamic range.
    pub fn to_residues(&self, x: &BigUint) -> RnsInt {
        assert!(x < &self.product, "value exceeds the RNS dynamic range");
        RnsInt {
            residues: self
                .moduli_big
                .iter()
                .map(|m_big| (x % m_big).to_u64().unwrap())
                .collect(),
        }
    }

    /// Reconstructs the positional value via the Chinese remainder theorem.
    pub fn from_residues(&self, x: &RnsInt) -> BigUint {
        assert_eq!(x.residues.len(), self.moduli.len());
        let mut acc = BigUint::zero();
        for ((&r, &m), (mi, yi)) in x.residues.iter().zip(&self.moduli).zip(&self.crt) {
            // term = r * yi mod m, times Mi
            let t = (r as u128 * *yi as u128 % m as u128) as u64;
            acc = &acc + &(mi * &BigUint::from(t));
        }
        &acc % &self.product
    }

    /// Element-wise addition of residue vectors.
    pub fn add(&self, a: &RnsInt, b: &RnsInt) -> RnsInt {
        self.zip(a, b, |x, y, m| ((x as u128 + y as u128) % m as u128) as u64)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, a: &RnsInt, b: &RnsInt) -> RnsInt {
        self.zip(a, b, |x, y, m| {
            ((x as u128 + m as u128 - y as u128) % m as u128) as u64
        })
    }

    /// Element-wise multiplication.
    pub fn mul(&self, a: &RnsInt, b: &RnsInt) -> RnsInt {
        self.zip(a, b, |x, y, m| ((x as u128 * y as u128) % m as u128) as u64)
    }

    /// Reduces an RNS value modulo a user modulus `q` by CRT reconstruction followed by
    /// forward conversion — the expensive step that positional (MoMA-style)
    /// representations avoid.
    pub fn reduce_mod(&self, a: &RnsInt, q: &BigUint) -> RnsInt {
        let positional = self.from_residues(a);
        self.to_residues(&(&positional % q))
    }

    /// Slow-path oracle for *fast base extension*: converts `x` from this basis
    /// `B` (product `M`) into residues modulo the moduli of `dst`, through exact
    /// arbitrary-precision arithmetic.
    ///
    /// The fast conversion is the BEHZ-style approximate CRT: with
    /// pseudo-residues `x̃_r = x_r · (M/m_r)^{-1} mod m_r`, the value
    /// `Σ_r x̃_r · (M/m_r)` equals `x + α·M` for some overshoot `0 ≤ α < #B`,
    /// and the conversion returns that sum's residues in the target basis. The
    /// planned engine ([`RnsPlan::base_convert`]) computes exactly this function
    /// with machine-word arithmetic; this method is its `BigUint` oracle,
    /// bit-for-bit including the overshoot.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match this basis.
    pub fn base_convert(&self, dst: &RnsContext, x: &RnsInt) -> RnsInt {
        assert_eq!(x.residues.len(), self.moduli.len(), "value basis mismatch");
        let mut sum = BigUint::zero();
        for ((&xr, &m), (mi, yi)) in x.residues.iter().zip(&self.moduli).zip(&self.crt) {
            // x̃_r = x_r · (M/m_r)^{-1} mod m_r, then the exact product with M/m_r.
            let pseudo = (xr as u128 * *yi as u128 % m as u128) as u64;
            sum = &sum + &(mi * &BigUint::from(pseudo));
        }
        RnsInt {
            residues: dst
                .moduli_big
                .iter()
                .map(|m_big| (&sum % m_big).to_u64().unwrap())
                .collect(),
        }
    }

    /// Slow-path oracle for *approximate scaled rounding* (the CKKS/BGV rescale
    /// primitive): divides by the last basis modulus `m_k` with rounding and
    /// returns residues over the remaining basis (see
    /// [`RnsContext::without_last`]).
    ///
    /// With `c = x mod m_k` (the last residue), the result is
    /// `y = (x − c)/m_k + (c > m_k/2)` — exact division after removing the last
    /// residue, plus the rounding correction, so `|y − x/m_k| ≤ 1`. The planned
    /// engine ([`RnsPlan::scale_and_round`]) computes the same function residue-
    /// locally; this method is its `BigUint` oracle.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli or `x` does not match it.
    pub fn scale_and_round(&self, x: &RnsInt) -> RnsInt {
        assert!(
            self.moduli.len() >= 2,
            "rescale needs at least two basis moduli"
        );
        assert_eq!(x.residues.len(), self.moduli.len(), "value basis mismatch");
        let k = self.moduli.len() - 1;
        let last = self.moduli[k];
        let c = x.residues[k];
        let v = self.from_residues(x);
        // v ≡ c (mod m_k) and v ≥ c, so the subtraction is exact and the
        // quotient is an integer.
        let (mut y, rem) = (&v - &BigUint::from(c)).div_rem(&BigUint::from(last));
        debug_assert!(rem.is_zero(), "x − (x mod m_k) must divide by m_k");
        if c > last / 2 {
            y = &y + &BigUint::one();
        }
        RnsInt {
            residues: self.moduli_big[..k]
                .iter()
                .map(|m_big| (&y % m_big).to_u64().unwrap())
                .collect(),
        }
    }

    fn zip(&self, a: &RnsInt, b: &RnsInt, f: impl Fn(u64, u64, u64) -> u64) -> RnsInt {
        assert_eq!(a.residues.len(), self.moduli.len());
        assert_eq!(b.residues.len(), self.moduli.len());
        RnsInt {
            residues: a
                .residues
                .iter()
                .zip(&b.residues)
                .zip(&self.moduli)
                .map(|((&x, &y), &m)| f(x, y, m))
                .collect(),
        }
    }
}

/// One large integer in residue form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsInt {
    /// One residue per basis modulus, in basis order.
    pub residues: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_bignum::random::random_bits;

    #[test]
    fn capacity_and_basis_shape() {
        let ctx = RnsContext::with_capacity_bits(256);
        assert!(ctx.product().bits() > 256);
        assert!(ctx.moduli().len() >= 9);
        // All moduli distinct and of the right size.
        for (i, &m) in ctx.moduli().iter().enumerate() {
            assert_eq!(64 - m.leading_zeros(), MODULUS_BITS);
            assert!(!ctx.moduli()[..i].contains(&m));
        }
    }

    #[test]
    fn round_trip_random_values() {
        let ctx = RnsContext::with_capacity_bits(512);
        let mut rng = StdRng::seed_from_u64(9);
        for bits in [1u32, 64, 128, 300, 512] {
            let x = random_bits(&mut rng, bits);
            assert_eq!(ctx.from_residues(&ctx.to_residues(&x)), x, "bits {bits}");
        }
        assert_eq!(
            ctx.from_residues(&ctx.to_residues(&BigUint::zero())),
            BigUint::zero()
        );
    }

    #[test]
    fn ring_operations_match_bignum() {
        let ctx = RnsContext::with_capacity_bits(600);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let a = random_bits(&mut rng, 256);
            let b = random_bits(&mut rng, 256);
            let ra = ctx.to_residues(&a);
            let rb = ctx.to_residues(&b);
            assert_eq!(ctx.from_residues(&ctx.add(&ra, &rb)), &a + &b);
            assert_eq!(ctx.from_residues(&ctx.mul(&ra, &rb)), &a * &b);
            let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
            let diff = ctx.sub(&ctx.to_residues(hi), &ctx.to_residues(lo));
            assert_eq!(ctx.from_residues(&diff), hi - lo);
        }
    }

    #[test]
    fn reduce_mod_matches_oracle() {
        let ctx = RnsContext::with_capacity_bits(600);
        let mut rng = StdRng::seed_from_u64(11);
        let q = random_bits(&mut rng, 252);
        let a = random_bits(&mut rng, 250);
        let b = random_bits(&mut rng, 250);
        let prod = ctx.mul(&ctx.to_residues(&a), &ctx.to_residues(&b));
        let reduced = ctx.reduce_mod(&prod, &q);
        assert_eq!(ctx.from_residues(&reduced), (&a * &b) % &q);
    }

    #[test]
    #[should_panic(expected = "dynamic range")]
    fn overflow_rejected() {
        let ctx = RnsContext::with_moduli_count(2);
        let too_big = BigUint::from(1u64) << 80;
        ctx.to_residues(&too_big);
    }
}
