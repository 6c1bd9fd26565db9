//! Warm-start persistence: serialize the *keys* of a [`Session`]'s plan caches
//! to bytes and seed a fresh session by rebuilding every plan from its key
//! through the ordinary constructors — the *precompute once, execute many*
//! discipline extended across process restarts.
//!
//! A snapshot stores what a cold build was asked for or searched for — a
//! modulus and a transform size, a basis, a basis pair, a ring's ladder — and
//! never a table. Rebuilding a plan's tables from its key is cheap (one pass
//! per table, word-size primality checks); what a cold session pays on top is
//! the search for the keys themselves (the capacity memo's prime search), and
//! that is what a snapshot skips.
//!
//! # Format
//!
//! The format is versioned, self-describing, and hand-rolled (no serialization
//! dependency):
//!
//! ```text
//! "MOMASNAP"            8-byte magic
//! version: u32 LE       currently 3 (a version-2 table snapshot is rejected)
//! toolchain: u32 LE length + UTF-8 bytes    writer toolchain id
//! build: u32 LE length + UTF-8 bytes        writer build id
//! sections              tag: u32 LE, payload_len: u64 LE, payload bytes
//! checksum: u64 LE      FNV-1a 64 over everything before it
//! ```
//!
//! The toolchain/build identity pair is checked before any section is read: a
//! snapshot written by a different toolchain or crate build is rejected with
//! [`SnapshotError::IncompatibleBuild`].
//!
//! All integers are little-endian; a basis is a modulus count followed by the
//! moduli. Every section payload is an entry count followed by its keys, in
//! ascending key order. Sections may appear in any order but at most once
//! each; an unknown tag fails closed (a newer writer's snapshot is rejected,
//! not half-read).
//!
//! | tag | section | key |
//! |-----|---------|-----|
//! | 1   | capacity-bits → basis memo | `bits: u32`, basis |
//! | 2   | single-word cyclic NTT plans | `q: u64`, `n: u64` |
//! | 3   | multi-word NTT plans | `limbs: u32`, `bits: u32`, `n: u64` |
//! | 4   | RNS plans | basis |
//! | 5   | base-conversion plans | source basis, target basis |
//! | 6   | rescale plans | source basis |
//! | 7   | fused rescale-and-extend plans | source basis, target basis |
//! | 8   | negacyclic NTT plans | `q: u64`, `n: u64` |
//! | 9   | negacyclic ring contexts | `n: u64`, moduli ladder |
//!
//! # Trust model
//!
//! A snapshot is an *accelerator*, not an authority: **a restored plan is a
//! cold build of its key.** Every key goes through the same fallible
//! constructor the panicking cold-build entry point delegates to
//! ([`NttPlan64::try_with_modulus`], [`NttPlan64::try_negacyclic`],
//! [`RnsContext::try_with_moduli`], [`BaseConvPlan::try_new`],
//! [`RescalePlan::try_new`], [`RescaleExtendPlan::try_new`]), so a tampered
//! key either fails closed with a typed [`SnapshotError`] or names another
//! valid plan, built exactly as a cold request for it would build it. There
//! are no tables to tamper with. A capacity memo entry must have the shape
//! [`RnsContext::with_capacity_bits`] gives (its modulus count, each modulus a
//! [`MODULUS_BITS`]-bit prime), and no key may ask for more than
//! [`MAX_KEY_WORDS`] words, so restore work is bounded by the snapshot.
//! Truncated bytes, a bad checksum or a version bump fail closed too; nothing
//! is seeded from a snapshot that fails any check.
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

use crate::session::{lock_unpoisoned, PlanCache, Session};
use moma_ntt::plan::NttPlan64;
use moma_rns::{
    capacity_moduli_count, BaseConvPlan, RescaleExtendPlan, RescalePlan, RnsContext, RnsPlan,
    MODULUS_BITS,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// 8-byte file magic.
const MAGIC: &[u8; 8] = b"MOMASNAP";
/// Current format version.
const VERSION: u32 = 3;
/// Writer toolchain identity, embedded in (and checked against) every
/// snapshot. Derived from the workspace's pinned minimum toolchain: a snapshot
/// from a binary built under a different pin is rejected up front.
const TOOLCHAIN_ID: &str = concat!("rust-", env!("CARGO_PKG_RUST_VERSION"));
/// Writer build identity (crate version), the second half of the
/// compatibility gate.
const BUILD_ID: &str = concat!("moma-", env!("CARGO_PKG_VERSION"));

/// The most one key may ask restore to build, as `n × words`: a transform's
/// size times its words per element, a ring's degree times its ladder length,
/// a basis's modulus count squared (the size of its CRT table). Restore runs
/// the ordinary constructors on untrusted keys, so without a cap a 24-byte key
/// could demand a 2^32-point plan. 2^22 is the largest transform size
/// `reproduce`'s Figure 3 sweep names; the ladder uses 2^12.
pub const MAX_KEY_WORDS: usize = 1 << 22;

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
    /// immediately after the version, before any section is read.
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
    /// A structurally invalid field, a key over [`MAX_KEY_WORDS`], or a key
    /// its constructor refuses; the message says which.
    Malformed(&'static str),
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
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What [`Session::restore`] seeded, per cache. Entries already present in the
/// session (same key) are skipped and not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Capacity-bits → basis memo entries.
    pub capacity_entries: usize,
    /// Single-word cyclic NTT plans.
    pub ntt_plans: usize,
    /// Multi-word NTT plans.
    pub multiword_plans: usize,
    /// RNS plans: the section's bases plus every basis another key names.
    pub rns_plans: usize,
    /// Base-conversion plans.
    pub baseconv_plans: usize,
    /// Rescale plans.
    pub rescale_plans: usize,
    /// Fused rescale-and-extend plans.
    pub rescale_extend_plans: usize,
    /// Negacyclic single-word NTT plans: the section's plans plus one per
    /// modulus of every ring key.
    pub negacyclic_plans: usize,
    /// Negacyclic ring contexts, reassembled over the seeded plan caches.
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_transform_key(out: &mut Vec<u8>, &(q, n): &(u64, usize)) {
    put_u64(out, q);
    put_u64(out, n as u64);
}

fn put_basis_pair(out: &mut Vec<u8>, (src, dst): &(Vec<u64>, Vec<u64>)) {
    put_words(out, src);
    put_words(out, dst);
}

/// Writes one section: tag, payload length, entry count, then every entry.
fn write_section<T>(
    out: &mut Vec<u8>,
    tag: u32,
    entries: &[T],
    mut put: impl FnMut(&mut Vec<u8>, &T),
) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0); // patched below
    let start = out.len();
    put_u64(out, entries.len() as u64);
    for entry in entries {
        put(out, entry);
    }
    let len = (out.len() - start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// FNV-1a 64 over a byte slice — the integrity trailer. Not cryptographic;
/// building every key through its checked constructor is what provides the
/// actual safety.
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

    /// A transform size or ring degree; one that does not fit a `usize`
    /// saturates, which the size cap then rejects.
    fn size(&mut self) -> Result<usize, SnapshotError> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    /// A count-prefixed list of entries of at least `min_entry_bytes` each.
    /// A count that could not possibly fit in the remaining payload is
    /// rejected before anything is allocated for it.
    fn list<T>(
        &mut self,
        min_entry_bytes: usize,
        mut entry: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.u64()?;
        if (n as u128) * (min_entry_bytes as u128) > self.remaining() as u128 {
            return Err(SnapshotError::Truncated);
        }
        (0..n).map(|_| entry(self)).collect()
    }

    fn words(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.list(8, Self::u64)
    }

    fn transform_key(&mut self) -> Result<(u64, usize), SnapshotError> {
        Ok((self.u64()?, self.size()?))
    }

    fn basis_pair(&mut self) -> Result<(Vec<u64>, Vec<u64>), SnapshotError> {
        Ok((self.words()?, self.words()?))
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes in section"));
        }
        Ok(())
    }
}

/// Every key a snapshot lists, section by section.
#[derive(Default)]
struct Keys {
    capacity: Vec<(u32, Vec<u64>)>,
    ntt64: Vec<(u64, usize)>,
    ntt_mw: Vec<(u32, u32, usize)>,
    rns: Vec<Vec<u64>>,
    baseconv: Vec<(Vec<u64>, Vec<u64>)>,
    rescale: Vec<Vec<u64>>,
    rescale_extend: Vec<(Vec<u64>, Vec<u64>)>,
    ntt64_neg: Vec<(u64, usize)>,
    ring: Vec<(usize, Vec<u64>)>,
}

/// Rejects a key asking for more than [`MAX_KEY_WORDS`].
fn check_size(n: usize, words: usize) -> Result<(), SnapshotError> {
    if n.saturating_mul(words) > MAX_KEY_WORDS {
        return Err(SnapshotError::Malformed("key exceeds the restore size cap"));
    }
    Ok(())
}

/// Builds `key`'s plan into `plans` with its fallible constructor, unless an
/// earlier key already did.
fn build_into<K: Hash + Eq, V>(
    plans: &mut HashMap<K, Arc<V>>,
    key: K,
    build: impl FnOnce() -> Result<V, &'static str>,
) -> Result<Arc<V>, SnapshotError> {
    Ok(match plans.entry(key) {
        Entry::Occupied(e) => Arc::clone(e.get()),
        Entry::Vacant(e) => {
            Arc::clone(e.insert(Arc::new(build().map_err(SnapshotError::Malformed)?)))
        }
    })
}

/// The RNS plan of `moduli`, built (once) into `plans`.
fn basis(
    plans: &mut HashMap<Vec<u64>, Arc<RnsPlan>>,
    moduli: &[u64],
) -> Result<Arc<RnsPlan>, SnapshotError> {
    check_size(moduli.len(), moduli.len())?;
    build_into(plans, moduli.to_vec(), || {
        RnsContext::try_with_moduli(moduli).map(|ctx| RnsPlan::new(&ctx))
    })
}

/// Publishes every plan in `plans` that `cache` lacks; returns how many.
fn seed<K: Hash + Eq + Clone, V>(cache: &PlanCache<K, V>, plans: HashMap<K, Arc<V>>) -> usize {
    plans
        .into_iter()
        .map(|(key, plan)| usize::from(cache.seed(key, plan)))
        .sum()
}

impl Session {
    /// Serializes the key of every published plan cache entry — single- and
    /// multi-word NTT plans, RNS plans, base-conversion/rescale/fused-chain
    /// plans, negacyclic plans, ring contexts — and the capacity-basis memo
    /// into the versioned snapshot format (see the
    /// [`snapshot`](crate::snapshot) module docs). Plans still mid-build when
    /// the snapshot is taken are simply omitted. The output is deterministic:
    /// entries are sorted by key.
    pub fn snapshot(&self) -> Vec<u8> {
        let state = &self.state;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_str(&mut out, TOOLCHAIN_ID);
        put_str(&mut out, BUILD_ID);

        let mut capacity: Vec<(u32, Vec<u64>)> = lock_unpoisoned(&state.capacity_bases)
            .iter()
            .map(|(bits, moduli)| (*bits, moduli.clone()))
            .collect();
        capacity.sort_unstable();
        write_section(&mut out, TAG_CAPACITY, &capacity, |p, (bits, moduli)| {
            put_u32(p, *bits);
            put_words(p, moduli);
        });
        write_section(&mut out, TAG_NTT64, &state.ntt64.keys(), put_transform_key);
        write_section(
            &mut out,
            TAG_NTT_MW,
            &state.ntt_mw.keys(),
            |p, &(limbs, bits, n)| {
                put_u32(p, limbs);
                put_u32(p, bits);
                put_u64(p, n as u64);
            },
        );
        write_section(&mut out, TAG_RNS, &state.rns.keys(), |p, m| put_words(p, m));
        write_section(
            &mut out,
            TAG_BASECONV,
            &state.baseconv.keys(),
            put_basis_pair,
        );
        write_section(&mut out, TAG_RESCALE, &state.rescale.keys(), |p, m| {
            put_words(p, m)
        });
        write_section(
            &mut out,
            TAG_RESCALE_EXTEND,
            &state.rescale_extend.keys(),
            put_basis_pair,
        );
        write_section(
            &mut out,
            TAG_NTT64_NEG,
            &state.ntt64_neg.keys(),
            put_transform_key,
        );
        write_section(&mut out, TAG_RING, &state.ring.keys(), |p, (n, moduli)| {
            put_u64(p, *n as u64);
            put_words(p, moduli);
        });

        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Validates `bytes` and seeds this session's plan caches from it: every
    /// key is built through its ordinary fallible constructor into locals, and
    /// the caches are seeded only once every key has been built. Any failure —
    /// bad magic, version, checksum, truncation, a key over the size cap or
    /// refused by its constructor — rejects the *whole* snapshot with a typed
    /// error and seeds nothing. Keys already present in the session keep their
    /// existing plans (restore never evicts).
    pub fn restore(&self, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        let keys = parse(bytes)?;
        let mut rns = HashMap::new();
        let mut ntt64 = HashMap::new();
        let mut neg = HashMap::new();
        let mut baseconv = HashMap::new();
        let mut rescale = HashMap::new();
        let mut rescale_extend = HashMap::new();

        for (bits, moduli) in &keys.capacity {
            // Exactly what `RnsContext::with_capacity_bits(bits)` could have
            // produced: anything else would serve a wrong-sized basis.
            if *bits == 0
                || moduli.len() != capacity_moduli_count(*bits)
                || moduli.iter().any(|&m| m >> (MODULUS_BITS - 1) != 1)
            {
                return Err(SnapshotError::Malformed(
                    "capacity memo entry does not have the capacity basis' shape",
                ));
            }
            basis(&mut rns, moduli)?;
        }
        for moduli in &keys.rns {
            basis(&mut rns, moduli)?;
        }
        for &(q, n) in &keys.ntt64 {
            check_size(n, 1)?;
            build_into(&mut ntt64, (q, n), || NttPlan64::try_with_modulus(q, n))?;
        }
        for &(q, n) in &keys.ntt64_neg {
            check_size(n, 1)?;
            build_into(&mut neg, (q, n), || NttPlan64::try_negacyclic(q, n))?;
        }
        for (src, dst) in &keys.baseconv {
            let (s, d) = (basis(&mut rns, src)?, basis(&mut rns, dst)?);
            build_into(&mut baseconv, (src.clone(), dst.clone()), || {
                BaseConvPlan::try_new(&s, &d)
            })?;
        }
        for src in &keys.rescale {
            let s = basis(&mut rns, src)?;
            build_into(&mut rescale, src.clone(), || RescalePlan::try_new(&s))?;
        }
        for (src, dst) in &keys.rescale_extend {
            let (s, d) = (basis(&mut rns, src)?, basis(&mut rns, dst)?);
            build_into(&mut rescale_extend, (src.clone(), dst.clone()), || {
                RescaleExtendPlan::try_new(&s, &d)
            })?;
        }
        // A ring key passes when its ladder is a basis and every modulus
        // admits the negacyclic plan; the level bases and rescale steps it
        // also needs then cannot fail, and are drawn (or built) when the
        // context is reassembled below.
        for (n, ladder) in &keys.ring {
            check_size(*n, ladder.len())?;
            basis(&mut rns, ladder)?;
            for &q in ladder {
                build_into(&mut neg, (q, *n), || NttPlan64::try_negacyclic(q, *n))?;
            }
        }
        // Multi-word keys: reject every key `NttParams::for_paper_modulus`
        // would refuse; the rebuild below runs after the caches are seeded
        // and must not be able to panic.
        for &(limbs, bits, n) in &keys.ntt_mw {
            if limbs.checked_mul(64) != Some(bits)
                || !n.is_power_of_two()
                || !(2..=moma_ntt::params::MAX_PAPER_TRANSFORM_SIZE).contains(&n)
            {
                return Err(SnapshotError::Malformed("invalid multi-word NTT key"));
            }
            if !matches!(limbs, 1 | 2 | 3 | 4 | 5 | 6 | 8 | 12 | 16) {
                return Err(SnapshotError::Malformed("unsupported multi-word width"));
            }
            check_size(n, limbs as usize)?;
        }

        // Every key passed: seed.
        let state = &self.state;
        let mut report = RestoreReport::default();
        {
            let mut memo = lock_unpoisoned(&state.capacity_bases);
            for (bits, moduli) in keys.capacity {
                if let Entry::Vacant(e) = memo.entry(bits) {
                    e.insert(moduli);
                    report.capacity_entries += 1;
                }
            }
        }
        report.ntt_plans = seed(&state.ntt64, ntt64);
        report.negacyclic_plans = seed(&state.ntt64_neg, neg);
        report.rns_plans = seed(&state.rns, rns);
        report.baseconv_plans = seed(&state.baseconv, baseconv);
        report.rescale_plans = seed(&state.rescale, rescale);
        report.rescale_extend_plans = seed(&state.rescale_extend, rescale_extend);
        for (limbs, bits, n) in keys.ntt_mw {
            report.multiword_plans += usize::from(self.rebuild_multiword(limbs, bits, n));
        }
        // Rings last: reassembly draws on every cache seeded above.
        for (n, moduli) in keys.ring {
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
    /// path. Returns `false` when the key was already cached.
    fn rebuild_ring(&self, n: usize, moduli: &[u64]) -> bool {
        let before = self.stats().ring;
        drop(self.ring_context(n, moduli));
        self.stats().ring.misses > before.misses
    }
}

/// Validates the envelope (magic, version, checksum, build identity) and
/// parses every section into its keys. No key is checked here — that is the
/// constructors' job in [`Session::restore`].
fn parse(bytes: &[u8]) -> Result<Keys, SnapshotError> {
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

    let mut keys = Keys::default();
    let mut seen: Vec<u32> = Vec::new();
    while reader.remaining() > 0 {
        let tag = reader.u32()?;
        let len = usize::try_from(reader.u64()?).unwrap_or(usize::MAX);
        let payload = reader.take(len)?;
        if seen.contains(&tag) {
            return Err(SnapshotError::DuplicateSection { tag });
        }
        seen.push(tag);
        let mut r = Reader::new(payload);
        match tag {
            TAG_CAPACITY => keys.capacity = r.list(12, |r| Ok((r.u32()?, r.words()?)))?,
            TAG_NTT64 => keys.ntt64 = r.list(16, Reader::transform_key)?,
            TAG_NTT_MW => keys.ntt_mw = r.list(16, |r| Ok((r.u32()?, r.u32()?, r.size()?)))?,
            TAG_RNS => keys.rns = r.list(8, Reader::words)?,
            TAG_BASECONV => keys.baseconv = r.list(16, Reader::basis_pair)?,
            TAG_RESCALE => keys.rescale = r.list(8, Reader::words)?,
            TAG_RESCALE_EXTEND => keys.rescale_extend = r.list(16, Reader::basis_pair)?,
            TAG_NTT64_NEG => keys.ntt64_neg = r.list(16, Reader::transform_key)?,
            TAG_RING => keys.ring = r.list(16, |r| Ok((r.size()?, r.words()?)))?,
            other => return Err(SnapshotError::UnknownSection { tag: other }),
        }
        r.finish()?;
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_bignum::BigUint;

    /// The plan caches the lifecycle tests' warm session populates: cyclic
    /// and multi-word NTT plans, a capacity basis with its conversion,
    /// rescale and fused-chain plans, and a negacyclic ring ladder.
    fn warm_session() -> Session {
        let session = Session::default();
        let _ = session.ntt_default(64);
        let _ = session.ntt(12289, 16);
        let _ = session.ntt_multiword::<2>(128, 32);
        let src = session.rns_with_capacity(160);
        let dst = session.rns(&src.moduli()[..4]);
        let v = src.encode(&[BigUint::from(12345u64)]);
        let _ = v.mul(&v).rescale_then_extend(&dst);
        let _ = v.base_convert(&dst);
        let _ = v.rescale();
        let _ = session.ring(16, &moma_ring::ladder::default_ladder(16, 3));
        session
    }

    /// A session built cold from `keys` through the public entry points.
    fn cold_build(keys: Keys) -> Session {
        let s = Session::default();
        for (bits, moduli) in keys.capacity {
            let _ = s.rns(&moduli);
            lock_unpoisoned(&s.state.capacity_bases)
                .entry(bits)
                .or_insert(moduli);
        }
        for m in &keys.rns {
            let _ = s.rns(m);
        }
        for (q, n) in keys.ntt64 {
            let _ = s.ntt(q, n);
        }
        for (q, n) in keys.ntt64_neg {
            let _ = s.ntt_negacyclic(q, n);
        }
        for (src, dst) in &keys.baseconv {
            let _ = s.rns(src).conversion_to(&s.rns(dst));
        }
        for src in &keys.rescale {
            let _ = s.rns(src).rescale_plan();
        }
        for (src, dst) in &keys.rescale_extend {
            let _ = s.rns(src).rescale_extend_to(&s.rns(dst));
        }
        for (limbs, bits, n) in keys.ntt_mw {
            s.rebuild_multiword(limbs, bits, n);
        }
        for (n, ladder) in &keys.ring {
            let _ = s.ring(*n, ladder);
        }
        s
    }

    /// Flips every byte of a real snapshot (re-sealing the checksum) and cuts
    /// it at every length (re-sealed or not). Nothing may panic, and every
    /// result is either a typed error that seeded nothing or caches equal to
    /// a cold build of the keys the bytes name.
    #[test]
    fn every_mutation_is_a_typed_error_or_a_cold_build_of_its_keys() {
        let bytes = warm_session().snapshot();
        let content = &bytes[..bytes.len() - 8];
        let empty = Session::default().snapshot();
        let seal = |mut content: Vec<u8>| {
            let checksum = fnv1a(&content);
            put_u64(&mut content, checksum);
            content
        };
        let (mut rejected, mut restored) = (0, 0);
        let mut check = |candidate: Vec<u8>| {
            let fresh = Session::default();
            match fresh.restore(&candidate) {
                Err(_) => {
                    rejected += 1;
                    assert_eq!(fresh.snapshot(), empty, "a rejected snapshot seeds nothing");
                }
                Ok(_) => {
                    restored += 1;
                    let keys = parse(&candidate).expect("restored bytes parse");
                    assert_eq!(fresh.snapshot(), cold_build(keys).snapshot());
                }
            }
        };
        for at in 0..content.len() {
            for flip in [0x01, 0xff] {
                let mut mutated = content.to_vec();
                mutated[at] ^= flip;
                check(seal(mutated));
            }
        }
        for len in 0..content.len() {
            check(seal(content[..len].to_vec()));
            check(bytes[..len].to_vec());
        }
        assert!(
            restored > 0 && rejected > restored,
            "{rejected} rejected, {restored} restored"
        );
    }
}
