//! Warm-start persistence: serialize a [`Session`]'s plan caches to bytes and
//! seed a fresh session from them, skipping every prime search, twiddle-table
//! build, and CRT precomputation — the *precompute once, execute many*
//! discipline extended across process restarts.
//!
//! # Format
//!
//! The format is versioned, self-describing, and hand-rolled (no serialization
//! dependency):
//!
//! ```text
//! "MOMASNAP"            8-byte magic
//! version: u32 LE       currently 2
//! toolchain: u32 LE length + UTF-8 bytes    writer toolchain id
//! build: u32 LE length + UTF-8 bytes        writer build id
//! sections              tag: u32 LE, payload_len: u64 LE, payload bytes
//! checksum: u64 LE      FNV-1a 64 over everything before it
//! ```
//!
//! The toolchain/build identity pair is the transport-hardening gate: a
//! snapshot written by a different toolchain or crate build is rejected with
//! [`SnapshotError::IncompatibleBuild`] **before any section is read** —
//! table layout subtleties between builds can then never reach the table
//! validators, let alone the caches.
//!
//! All integers are little-endian; `BigUint`s are a limb count followed by
//! little-endian 64-bit limbs; a basis is a modulus count followed by the
//! moduli. Sections may appear in any order but at most once each; an unknown
//! tag fails closed (a newer writer's snapshot is rejected, not half-read).
//!
//! | tag | section |
//! |-----|---------|
//! | 1   | capacity-bits → basis memo |
//! | 2   | single-word NTT plans: `(q, n)` + twiddle tables + `n⁻¹` |
//! | 3   | multi-word NTT plan **keys** (`limbs`, `bits`, `n`) — tables are rebuilt on restore |
//! | 4   | RNS plans: basis + product + CRT tables |
//! | 5   | base-conversion plans: basis pair + pseudo-factor and cross tables |
//! | 6   | rescale plans: basis + dropped-modulus inverses |
//! | 7   | fused rescale-and-extend plans: basis pair + all component tables |
//! | 8   | negacyclic NTT plans: `(q, n)` + twiddle tables + `n⁻¹` + `ψ` (twist tables are rebuilt) |
//! | 9   | negacyclic ring context **keys** (`n`, moduli ladder) — contexts reassemble from the seeded caches |
//!
//! # Trust model
//!
//! A snapshot is an *accelerator*, not an authority: every table is validated
//! on load against arithmetic identities that a fresh build would satisfy by
//! construction (see [`NttPlan64::from_tables`], [`RnsPlan::from_tables`],
//! [`BaseConvPlan::from_tables`], …), and all derived values — Shoup
//! quotients, Barrett contexts, narrow-path verdicts — are recomputed, never
//! deserialized. Wrong `(q, n)`, a tampered basis, a flipped table word,
//! truncated bytes, or a version bump all fail closed with a typed
//! [`SnapshotError`]; nothing is seeded from a snapshot that fails any check.
//!
//! ```
//! use moma::Session;
//!
//! let warm = Session::default();
//! let _ = warm.ntt_default(64);
//! let _ = warm.rns_with_capacity(128);
//! let bytes = warm.snapshot();
//!
//! let fresh = Session::default();
//! let report = fresh.restore(&bytes).expect("snapshot restores");
//! assert_eq!(report.ntt_plans, 1);
//! // The restored plan serves requests without rebuilding.
//! let _ = fresh.ntt_default(64);
//! assert_eq!(fresh.stats().ntt.misses, 0);
//! ```

use crate::session::Session;
use moma_bignum::BigUint;
use moma_ntt::plan::{NttPlan64, NttRestoreError};
use moma_rns::{
    BaseConvPlan, ConvRestoreError, PlanRestoreError, RescaleExtendPlan, RescalePlan, RnsPlan,
};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// 8-byte file magic.
const MAGIC: &[u8; 8] = b"MOMASNAP";
/// Current format version.
const VERSION: u32 = 2;
/// Writer toolchain identity, embedded in (and checked against) every
/// snapshot. Derived from the workspace's pinned minimum toolchain: a snapshot
/// from a binary built under a different pin is rejected up front.
const TOOLCHAIN_ID: &str = concat!("rust-", env!("CARGO_PKG_RUST_VERSION"));
/// Writer build identity (crate version), the second half of the
/// compatibility gate.
const BUILD_ID: &str = concat!("moma-", env!("CARGO_PKG_VERSION"));

const TAG_CAPACITY: u32 = 1;
const TAG_NTT64: u32 = 2;
const TAG_NTT_MW: u32 = 3;
const TAG_RNS: u32 = 4;
const TAG_BASECONV: u32 = 5;
const TAG_RESCALE: u32 = 6;
const TAG_RESCALE_EXTEND: u32 = 7;
const TAG_NTT64_NEG: u32 = 8;
const TAG_RING: u32 = 9;

/// Why a snapshot was rejected. Every variant is fail-closed: no cache is
/// seeded from a snapshot that produces one.
#[derive(Debug)]
pub enum SnapshotError {
    /// Shorter than the fixed header + checksum.
    TooShort,
    /// The first eight bytes are not the `MOMASNAP` magic.
    BadMagic,
    /// A version this reader does not speak.
    BadVersion {
        /// The version the snapshot declared.
        found: u32,
    },
    /// The snapshot was written by a different toolchain or build. Checked
    /// immediately after the version — *before* any section or table is read —
    /// so cross-build layout subtleties can never reach the validators.
    IncompatibleBuild {
        /// Which identity mismatched: `"toolchain"` or `"build"`.
        what: &'static str,
        /// The identity this binary requires.
        expected: String,
        /// The identity the snapshot declared.
        found: String,
    },
    /// The trailing FNV-1a checksum does not match the content.
    BadChecksum,
    /// A section or field runs past the end of its payload.
    Truncated,
    /// The same section appears twice.
    DuplicateSection {
        /// The repeated section tag.
        tag: u32,
    },
    /// A tag this reader does not know (a newer writer, or corruption).
    UnknownSection {
        /// The unknown tag.
        tag: u32,
    },
    /// A structurally invalid field (impossible count, unsupported limb
    /// width, a referenced basis missing from the RNS section, …).
    Malformed(&'static str),
    /// A single-word NTT plan failed table validation.
    Ntt(NttRestoreError),
    /// An RNS plan failed CRT-table validation.
    Rns(PlanRestoreError),
    /// A conversion/rescale plan failed table validation.
    Conv(ConvRestoreError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than header + checksum"),
            SnapshotError::BadMagic => write!(f, "not a MoMA snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {VERSION})"
                )
            }
            SnapshotError::IncompatibleBuild {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "incompatible snapshot {what}: written by \"{found}\", this binary is \"{expected}\""
                )
            }
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated mid-field"),
            SnapshotError::DuplicateSection { tag } => {
                write!(f, "section {tag} appears more than once")
            }
            SnapshotError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Ntt(e) => write!(f, "NTT plan rejected: {e}"),
            SnapshotError::Rns(e) => write!(f, "RNS plan rejected: {e}"),
            SnapshotError::Conv(e) => write!(f, "conversion plan rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<NttRestoreError> for SnapshotError {
    fn from(e: NttRestoreError) -> Self {
        SnapshotError::Ntt(e)
    }
}

impl From<PlanRestoreError> for SnapshotError {
    fn from(e: PlanRestoreError) -> Self {
        SnapshotError::Rns(e)
    }
}

impl From<ConvRestoreError> for SnapshotError {
    fn from(e: ConvRestoreError) -> Self {
        SnapshotError::Conv(e)
    }
}

/// What [`Session::restore`] seeded, per cache. Entries already present in the
/// session (same key) are skipped and not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Capacity-bits → basis memo entries.
    pub capacity_entries: usize,
    /// Single-word NTT plans seeded from their tables.
    pub ntt_plans: usize,
    /// Multi-word NTT plans rebuilt from their keys.
    pub multiword_plans: usize,
    /// RNS plans seeded from their CRT tables.
    pub rns_plans: usize,
    /// Base-conversion plans seeded from their tables.
    pub baseconv_plans: usize,
    /// Rescale plans seeded from their inverse tables.
    pub rescale_plans: usize,
    /// Fused rescale-and-extend plans seeded from their component tables.
    pub rescale_extend_plans: usize,
    /// Negacyclic single-word NTT plans seeded from their tables (the `ψ`
    /// twist tables are rebuilt from the validated `ψ`, never deserialized).
    pub negacyclic_plans: usize,
    /// Negacyclic ring contexts reassembled from their `(n, ladder)` keys over
    /// the freshly seeded plan caches.
    pub ring_contexts: usize,
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u64(out, words.len() as u64);
    for &w in words {
        put_u64(out, w);
    }
}

fn put_biguint(out: &mut Vec<u8>, v: &BigUint) {
    put_words(out, v.limbs());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// FNV-1a 64 over a byte slice — the integrity trailer. Not cryptographic;
/// the arithmetic validation on load is what provides the actual safety.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A bounds-checked cursor over one section payload (or the whole stream).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A count of `min_entry_bytes`-sized entries, rejected when it could not
    /// possibly fit in the remaining payload (an attacker-controlled count
    /// must not drive a huge allocation).
    fn count(&mut self, min_entry_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if (n as u128) * (min_entry_bytes as u128) > self.remaining() as u128 {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    fn words(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn biguint(&mut self) -> Result<BigUint, SnapshotError> {
        Ok(BigUint::from_limbs_le(self.words()?))
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes in section"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Section payloads (parsed form)
// ---------------------------------------------------------------------------

struct RescaleTables {
    src: Vec<u64>,
    inv_last: Vec<u64>,
}

struct BaseConvTables {
    src: Vec<u64>,
    dst: Vec<u64>,
    inv_punctured: Vec<u64>,
    cross: Vec<u64>,
}

struct RescaleExtendTables {
    src: Vec<u64>,
    dst: Vec<u64>,
    inv_last: Vec<u64>,
    inv_punctured: Vec<u64>,
    cross: Vec<u64>,
    fused: Vec<u64>,
}

/// One parsed 64-bit NTT plan section entry: `(q, n, fwd, inv, n_inv)`.
type Ntt64Tables = (u64, usize, Vec<u64>, Vec<u64>, u64);
/// One parsed negacyclic plan entry: the cyclic tables plus `ψ`.
type Ntt64NegTables = (u64, usize, Vec<u64>, Vec<u64>, u64, u64);
/// One parsed RNS plan section entry: `(moduli, product, crt)`.
type RnsTables = (Vec<u64>, BigUint, Vec<(BigUint, u64)>);
/// A validated conversion plan keyed by its `(src, dst)` basis pair.
type KeyedPlan<P> = ((Vec<u64>, Vec<u64>), Arc<P>);

#[derive(Default)]
struct Parsed {
    capacity: Vec<(u32, Vec<u64>)>,
    ntt64: Vec<Ntt64Tables>,
    ntt_mw: Vec<(u32, u32, usize)>,
    rns: Vec<RnsTables>,
    baseconv: Vec<BaseConvTables>,
    rescale: Vec<RescaleTables>,
    rescale_extend: Vec<RescaleExtendTables>,
    ntt64_neg: Vec<Ntt64NegTables>,
    ring: Vec<(usize, Vec<u64>)>,
}

fn serialize_basis(out: &mut Vec<u8>, plan: &RnsPlan) {
    put_words(out, &plan.moduli().collect::<Vec<u64>>());
}

fn serialize_rns_plan(out: &mut Vec<u8>, plan: &RnsPlan) {
    serialize_basis(out, plan);
    put_biguint(out, plan.product());
    put_u64(out, plan.crt_tables().len() as u64);
    for (mi, yi) in plan.crt_tables() {
        put_biguint(out, mi);
        put_u64(out, *yi);
    }
}

impl Session {
    /// Serializes every published plan cache entry — single- and multi-word
    /// NTT plans, RNS plans, base-conversion/rescale/fused-chain plans, and
    /// the capacity-basis memo — into the versioned snapshot format (see the
    /// [`snapshot`](crate::snapshot) module docs). Plans still mid-build when the
    /// snapshot is taken are simply omitted. The output is deterministic:
    /// entries are sorted by key.
    pub fn snapshot(&self) -> Vec<u8> {
        let state = &self.state;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_str(&mut out, TOOLCHAIN_ID);
        put_str(&mut out, BUILD_ID);

        // Section 1: capacity memo.
        let capacity: BTreeMap<u32, Vec<u64>> =
            crate::session::lock_unpoisoned(&state.capacity_bases)
                .iter()
                .map(|(bits, moduli)| (*bits, moduli.clone()))
                .collect();
        write_section(&mut out, TAG_CAPACITY, |p| {
            put_u64(p, capacity.len() as u64);
            for (bits, moduli) in &capacity {
                put_u32(p, *bits);
                put_words(p, moduli);
            }
        });

        // Section 2: single-word NTT plans, tables and all.
        let mut ntt64 = state.ntt64.entries();
        ntt64.sort_by_key(|(key, _)| *key);
        write_section(&mut out, TAG_NTT64, |p| {
            put_u64(p, ntt64.len() as u64);
            for ((q, n), plan) in &ntt64 {
                put_u64(p, *q);
                put_u64(p, *n as u64);
                let (fwd, inv) = plan.twiddle_tables();
                put_words(p, fwd);
                put_words(p, inv);
                put_u64(p, plan.n_inv_pair().0);
            }
        });

        // Section 3: multi-word NTT plans, keys only — the tables are a pure
        // function of the key and the session's lowering configuration, and
        // type erasure (`dyn Any`) hides the limb width needed to read them
        // back generically; restore rebuilds them.
        let mut mw: Vec<(u32, u32, usize)> = state
            .ntt_mw
            .entries()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        mw.sort_unstable();
        write_section(&mut out, TAG_NTT_MW, |p| {
            put_u64(p, mw.len() as u64);
            for (limbs, bits, n) in &mw {
                put_u32(p, *limbs);
                put_u32(p, *bits);
                put_u64(p, *n as u64);
            }
        });

        // Section 4: RNS plans. Conversion plans reference bases by value, so
        // every basis any section mentions must restore from here: include the
        // shortened output bases of rescale plans alongside the cache entries.
        let mut rns: BTreeMap<Vec<u64>, Arc<RnsPlan>> = state.rns.entries().into_iter().collect();
        for (_, rp) in state.rescale.entries() {
            let out_plan = rp.output_plan();
            rns.entry(out_plan.moduli().collect())
                .or_insert_with(|| Arc::new(out_plan.clone()));
        }
        for (_, p) in state.rescale_extend.entries() {
            let out_plan = p.rescale_plan().output_plan();
            rns.entry(out_plan.moduli().collect())
                .or_insert_with(|| Arc::new(out_plan.clone()));
            rns.entry(p.dst_plan().moduli().collect())
                .or_insert_with(|| Arc::new(p.dst_plan().clone()));
        }
        for (key, bc) in state.baseconv.entries() {
            rns.entry(key.1.clone())
                .or_insert_with(|| Arc::new(bc.dst_plan().clone()));
        }
        write_section(&mut out, TAG_RNS, |p| {
            put_u64(p, rns.len() as u64);
            for plan in rns.values() {
                serialize_rns_plan(p, plan);
            }
        });

        // Section 5: base-conversion plans.
        let mut baseconv = state.baseconv.entries();
        baseconv.sort_by(|(a, _), (b, _)| a.cmp(b));
        write_section(&mut out, TAG_BASECONV, |p| {
            put_u64(p, baseconv.len() as u64);
            for ((src, dst), bc) in &baseconv {
                put_words(p, src);
                put_words(p, dst);
                let (ip, cross) = bc.conversion_tables();
                put_words(p, ip);
                put_words(p, cross);
            }
        });

        // Section 6: rescale plans.
        let mut rescale = state.rescale.entries();
        rescale.sort_by(|(a, _), (b, _)| a.cmp(b));
        write_section(&mut out, TAG_RESCALE, |p| {
            put_u64(p, rescale.len() as u64);
            for (src, rp) in &rescale {
                put_words(p, src);
                put_words(p, rp.inverse_table());
            }
        });

        // Section 7: fused rescale-and-extend plans — the component tables of
        // both halves plus the folded factors.
        let mut rescale_extend = state.rescale_extend.entries();
        rescale_extend.sort_by(|(a, _), (b, _)| a.cmp(b));
        write_section(&mut out, TAG_RESCALE_EXTEND, |p| {
            put_u64(p, rescale_extend.len() as u64);
            for ((src, dst), plan) in &rescale_extend {
                put_words(p, src);
                put_words(p, dst);
                put_words(p, plan.rescale_plan().inverse_table());
                let (ip, cross) = plan.base_conv_plan().conversion_tables();
                put_words(p, ip);
                put_words(p, cross);
                put_words(p, plan.fused_factors());
            }
        });

        // Section 8: negacyclic NTT plans — the cyclic tables plus ψ; the
        // twist tables are a pure function of ψ and are rebuilt on restore
        // after ψ itself is validated against the tables (ψ² = ω).
        let mut neg = state.ntt64_neg.entries();
        neg.sort_by_key(|(key, _)| *key);
        write_section(&mut out, TAG_NTT64_NEG, |p| {
            put_u64(p, neg.len() as u64);
            for ((q, n), plan) in &neg {
                put_u64(p, *q);
                put_u64(p, *n as u64);
                let (fwd, inv) = plan.twiddle_tables();
                put_words(p, fwd);
                put_words(p, inv);
                put_u64(p, plan.n_inv_pair().0);
                put_u64(
                    p,
                    plan.psi().expect("negacyclic cache holds negacyclic plans"),
                );
            }
        });

        // Section 9: ring context keys only — a context holds no tables of its
        // own (everything lives in the component caches above), so restore
        // reassembles it over the freshly seeded plans.
        let mut ring: Vec<(usize, Vec<u64>)> = state
            .ring
            .entries()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        ring.sort();
        write_section(&mut out, TAG_RING, |p| {
            put_u64(p, ring.len() as u64);
            for (n, moduli) in &ring {
                put_u64(p, *n as u64);
                put_words(p, moduli);
            }
        });

        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Validates `bytes` and seeds this session's plan caches from it. Every
    /// table is checked against the arithmetic identities a fresh build would
    /// satisfy; any failure — bad magic, version, checksum, truncation,
    /// tampered table — rejects the *whole* snapshot with a typed error and
    /// seeds nothing. Keys already present in the session keep their existing
    /// plans (restore never evicts).
    pub fn restore(&self, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        let parsed = parse(bytes)?;

        // Validate everything into plain values *before* touching any cache:
        // a snapshot that fails halfway must leave the session untouched.
        let mut ntt_plans: Vec<((u64, usize), Arc<NttPlan64>)> = Vec::new();
        for (q, n, fwd, inv, n_inv) in parsed.ntt64 {
            let plan = NttPlan64::from_tables(q, n, fwd, inv, n_inv)?;
            ntt_plans.push(((q, n), Arc::new(plan)));
        }

        let mut neg_plans: Vec<((u64, usize), Arc<NttPlan64>)> = Vec::new();
        for (q, n, fwd, inv, n_inv, psi) in parsed.ntt64_neg {
            let plan = NttPlan64::from_tables_negacyclic(q, n, fwd, inv, n_inv, psi)?;
            neg_plans.push(((q, n), Arc::new(plan)));
        }

        // Ring keys: validate fully here (shape, congruence, primality) so a
        // hostile key fails closed with an error instead of panicking the
        // reassembly below.
        for (n, moduli) in &parsed.ring {
            if !n.is_power_of_two() || *n < 2 || moduli.is_empty() {
                return Err(SnapshotError::Malformed("invalid ring key"));
            }
            for (i, &q) in moduli.iter().enumerate() {
                if moduli[..i].contains(&q) {
                    return Err(SnapshotError::Malformed("duplicate ring modulus"));
                }
                if !(3..1 << 60).contains(&q) || (q - 1) % (2 * *n as u64) != 0 {
                    return Err(SnapshotError::Malformed(
                        "ring modulus not ≡ 1 mod 2n in range",
                    ));
                }
                if !moma_bignum::prime::is_prime(&mut StdRng::seed_from_u64(q), &BigUint::from(q)) {
                    return Err(SnapshotError::Malformed("ring modulus not prime"));
                }
            }
        }

        let mut rns_plans: HashMap<Vec<u64>, Arc<RnsPlan>> = HashMap::new();
        for (moduli, product, crt) in parsed.rns {
            let plan = RnsPlan::from_tables(&moduli, product, crt)?;
            rns_plans.insert(moduli, Arc::new(plan));
        }
        let lookup = |basis: &[u64]| -> Result<&Arc<RnsPlan>, SnapshotError> {
            rns_plans
                .get(basis)
                .ok_or(SnapshotError::Malformed("referenced basis not in snapshot"))
        };

        let mut baseconv_plans: Vec<KeyedPlan<BaseConvPlan>> = Vec::new();
        for t in parsed.baseconv {
            let src = lookup(&t.src)?;
            let dst = lookup(&t.dst)?;
            let bc = BaseConvPlan::from_tables(src, dst, t.inv_punctured, t.cross)?;
            baseconv_plans.push(((t.src, t.dst), Arc::new(bc)));
        }

        let mut rescale_plans: Vec<(Vec<u64>, Arc<RescalePlan>)> = Vec::new();
        for t in parsed.rescale {
            let src = lookup(&t.src)?;
            if t.src.len() < 2 {
                return Err(SnapshotError::Malformed("rescale basis too small"));
            }
            let out = lookup(&t.src[..t.src.len() - 1])?;
            let rp = RescalePlan::from_tables(src, out.as_ref().clone(), t.inv_last)?;
            rescale_plans.push((t.src, Arc::new(rp)));
        }

        let mut rescale_extend_plans: Vec<KeyedPlan<RescaleExtendPlan>> = Vec::new();
        for t in parsed.rescale_extend {
            let src = lookup(&t.src)?;
            if t.src.len() < 2 {
                return Err(SnapshotError::Malformed("rescale basis too small"));
            }
            let shortened = &t.src[..t.src.len() - 1];
            let out = lookup(shortened)?;
            let dst = lookup(&t.dst)?;
            let rp = RescalePlan::from_tables(src, out.as_ref().clone(), t.inv_last)?;
            let bc = BaseConvPlan::from_tables(out, dst, t.inv_punctured, t.cross)?;
            let plan = RescaleExtendPlan::from_parts(rp, bc, t.fused)?;
            rescale_extend_plans.push(((t.src, t.dst), Arc::new(plan)));
        }

        // Multi-word keys: reject here every key `NttParams::for_paper_modulus`
        // would refuse — the rebuild below runs after the caches are seeded and
        // must not be able to panic. (The build is the expensive part being
        // warmed, so it happens only once all fallible validation has passed.)
        for &(limbs, bits, n) in &parsed.ntt_mw {
            if bits != limbs * 64
                || !n.is_power_of_two()
                || !(2..=moma_ntt::params::MAX_PAPER_TRANSFORM_SIZE).contains(&n)
            {
                return Err(SnapshotError::Malformed("invalid multi-word NTT key"));
            }
            if !matches!(limbs, 1 | 2 | 3 | 4 | 5 | 6 | 8 | 12 | 16) {
                return Err(SnapshotError::Malformed("unsupported multi-word width"));
            }
        }

        // All validation passed: seed.
        let state = &self.state;
        let mut report = RestoreReport::default();
        {
            let mut memo = crate::session::lock_unpoisoned(&state.capacity_bases);
            for (bits, moduli) in parsed.capacity {
                if let std::collections::hash_map::Entry::Vacant(e) = memo.entry(bits) {
                    e.insert(moduli);
                    report.capacity_entries += 1;
                }
            }
        }
        for (key, plan) in ntt_plans {
            report.ntt_plans += usize::from(state.ntt64.seed(key, plan));
        }
        for (moduli, plan) in rns_plans {
            report.rns_plans += usize::from(state.rns.seed(moduli, plan));
        }
        for (key, plan) in baseconv_plans {
            report.baseconv_plans += usize::from(state.baseconv.seed(key, plan));
        }
        for (key, plan) in rescale_plans {
            report.rescale_plans += usize::from(state.rescale.seed(key, plan));
        }
        for (key, plan) in rescale_extend_plans {
            report.rescale_extend_plans += usize::from(state.rescale_extend.seed(key, plan));
        }
        for (key, plan) in neg_plans {
            report.negacyclic_plans += usize::from(state.ntt64_neg.seed(key, plan));
        }
        for (limbs, bits, n) in parsed.ntt_mw {
            report.multiword_plans += usize::from(self.rebuild_multiword(limbs, bits, n));
        }
        // Rings last: reassembly draws on every cache seeded above, so a
        // snapshot's ring contexts come back without rebuilding a single
        // component plan.
        for (n, moduli) in parsed.ring {
            report.ring_contexts += usize::from(self.rebuild_ring(n, &moduli));
        }
        Ok(report)
    }

    /// Rebuilds one multi-word NTT plan from its key through the normal cache
    /// path, dispatching the runtime limb count onto the const-generic plan
    /// type. Returns `false` when the key was already cached.
    fn rebuild_multiword(&self, limbs: u32, bits: u32, n: usize) -> bool {
        let before = self.stats().ntt_multiword;
        match limbs {
            1 => drop(self.ntt_multiword::<1>(bits, n)),
            2 => drop(self.ntt_multiword::<2>(bits, n)),
            3 => drop(self.ntt_multiword::<3>(bits, n)),
            4 => drop(self.ntt_multiword::<4>(bits, n)),
            5 => drop(self.ntt_multiword::<5>(bits, n)),
            6 => drop(self.ntt_multiword::<6>(bits, n)),
            8 => drop(self.ntt_multiword::<8>(bits, n)),
            12 => drop(self.ntt_multiword::<12>(bits, n)),
            16 => drop(self.ntt_multiword::<16>(bits, n)),
            _ => unreachable!("limb widths validated before seeding"),
        }
        self.stats().ntt_multiword.misses > before.misses
    }

    /// Reassembles one ring context from its key through the normal cache
    /// path (its component plans were just seeded). Returns `false` when the
    /// key was already cached.
    fn rebuild_ring(&self, n: usize, moduli: &[u64]) -> bool {
        let before = self.stats().ring;
        drop(self.ring_context(n, moduli));
        self.stats().ring.misses > before.misses
    }
}

fn write_section(out: &mut Vec<u8>, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0); // patched below
    let start = out.len();
    fill(out);
    let len = (out.len() - start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Validates the envelope (magic, version, checksum) and parses every section
/// payload into plain tables. No arithmetic validation happens here — that is
/// the restore constructors' job.
fn parse(bytes: &[u8]) -> Result<Parsed, SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::TooShort);
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a(content) != declared {
        return Err(SnapshotError::BadChecksum);
    }
    let mut reader = Reader::new(content);
    if reader.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = reader.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    // Compatibility gate: toolchain and build identity, checked before any
    // section is parsed — a cross-build snapshot never reaches the table
    // validators.
    for (what, expected) in [("toolchain", TOOLCHAIN_ID), ("build", BUILD_ID)] {
        let len = reader.u32()? as usize;
        if len > 256 {
            return Err(SnapshotError::Malformed("oversized identity string"));
        }
        let found = reader.take(len)?;
        if found != expected.as_bytes() {
            return Err(SnapshotError::IncompatibleBuild {
                what,
                expected: expected.to_string(),
                found: String::from_utf8_lossy(found).into_owned(),
            });
        }
    }

    let mut parsed = Parsed::default();
    let mut seen: Vec<u32> = Vec::new();
    while reader.remaining() > 0 {
        let tag = reader.u32()?;
        let len = reader.u64()? as usize;
        let payload = reader.take(len)?;
        if seen.contains(&tag) {
            return Err(SnapshotError::DuplicateSection { tag });
        }
        seen.push(tag);
        let mut r = Reader::new(payload);
        match tag {
            TAG_CAPACITY => {
                let n = r.count(4 + 8)?;
                for _ in 0..n {
                    let bits = r.u32()?;
                    let moduli = r.words()?;
                    parsed.capacity.push((bits, moduli));
                }
            }
            TAG_NTT64 => {
                let n = r.count(8 * 5)?;
                for _ in 0..n {
                    let q = r.u64()?;
                    let size = r.u64()? as usize;
                    let fwd = r.words()?;
                    let inv = r.words()?;
                    let n_inv = r.u64()?;
                    parsed.ntt64.push((q, size, fwd, inv, n_inv));
                }
            }
            TAG_NTT_MW => {
                let n = r.count(4 + 4 + 8)?;
                for _ in 0..n {
                    let limbs = r.u32()?;
                    let bits = r.u32()?;
                    let size = r.u64()? as usize;
                    parsed.ntt_mw.push((limbs, bits, size));
                }
            }
            TAG_RNS => {
                let n = r.count(8 * 3)?;
                for _ in 0..n {
                    let moduli = r.words()?;
                    let product = r.biguint()?;
                    let entries = r.count(8 * 2)?;
                    let crt = (0..entries)
                        .map(|_| Ok((r.biguint()?, r.u64()?)))
                        .collect::<Result<Vec<_>, SnapshotError>>()?;
                    parsed.rns.push((moduli, product, crt));
                }
            }
            TAG_BASECONV => {
                let n = r.count(8 * 4)?;
                for _ in 0..n {
                    parsed.baseconv.push(BaseConvTables {
                        src: r.words()?,
                        dst: r.words()?,
                        inv_punctured: r.words()?,
                        cross: r.words()?,
                    });
                }
            }
            TAG_RESCALE => {
                let n = r.count(8 * 2)?;
                for _ in 0..n {
                    parsed.rescale.push(RescaleTables {
                        src: r.words()?,
                        inv_last: r.words()?,
                    });
                }
            }
            TAG_RESCALE_EXTEND => {
                let n = r.count(8 * 6)?;
                for _ in 0..n {
                    parsed.rescale_extend.push(RescaleExtendTables {
                        src: r.words()?,
                        dst: r.words()?,
                        inv_last: r.words()?,
                        inv_punctured: r.words()?,
                        cross: r.words()?,
                        fused: r.words()?,
                    });
                }
            }
            TAG_NTT64_NEG => {
                let n = r.count(8 * 6)?;
                for _ in 0..n {
                    let q = r.u64()?;
                    let size = r.u64()? as usize;
                    let fwd = r.words()?;
                    let inv = r.words()?;
                    let n_inv = r.u64()?;
                    let psi = r.u64()?;
                    parsed.ntt64_neg.push((q, size, fwd, inv, n_inv, psi));
                }
            }
            TAG_RING => {
                let n = r.count(8 * 2)?;
                for _ in 0..n {
                    let size = r.u64()? as usize;
                    let moduli = r.words()?;
                    parsed.ring.push((size, moduli));
                }
            }
            other => return Err(SnapshotError::UnknownSection { tag: other }),
        }
        r.finish()?;
    }
    Ok(parsed)
}
