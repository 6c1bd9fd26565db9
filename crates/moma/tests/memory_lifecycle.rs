//! Memory-lifecycle properties of the session runtime: allocation-free
//! steady-state serving off the shared buffer pool, and warm-start
//! snapshot/restore of every plan cache with fail-closed validation.

use moma::bignum::BigUint;
use moma::{Session, SnapshotError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_values(rng: &mut StdRng, below: &BigUint, n: usize) -> Vec<BigUint> {
    (0..n)
        .map(|_| moma::bignum::random::random_below(rng, below))
        .collect()
}

/// The acceptance property of the pooled memory lifecycle: a warm session
/// drives a long mixed workload — batched NTTs and full RNS chains — without
/// a single further pool miss, i.e. without one heap plane allocation.
#[test]
fn steady_state_serving_is_allocation_free_after_warmup() {
    let session = Session::default();
    let ntt = session.ntt_default(64);
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let mut rng = StdRng::seed_from_u64(0x57ea_d57a);
    let q = BigUint::from(ntt.modulus());

    // Warm-up: one round of every request shape the loop below issues, so
    // every plan is built and the pool holds planes for the peak concurrent
    // demand of a single request.
    let warm_values = random_values(&mut rng, src.product(), 16);
    let scalar = BigUint::from(0x5eed_f00du64);
    {
        let a = src.encode(&warm_values);
        let b = src.encode(&warm_values);
        let _ = a.mul(&b).rescale_then_extend(&dst);
        let _ = a.mul_rescale_then_extend(&b, &dst);
        let _ = a.mul_axpy(&b, &scalar, &b);
        let _ = a.add(&b).sub(&b);
        let _ = a.base_convert(&dst);
        let _ = a.rescale();
        let mut data: Vec<u64> = (0..4 * 64)
            .map(|_| {
                moma::bignum::random::random_below(&mut rng, &q)
                    .to_u64()
                    .unwrap()
            })
            .collect();
        let _ = ntt.forward_batch(&mut data);
        let _ = ntt.inverse_batch(&mut data);
    }

    // Steady state: >= 100 mixed requests, zero pool misses, zero plan-cache
    // misses, and `allocs == 0` on every stats-returning path.
    let warm = session.stats();
    for round in 0..110 {
        match round % 5 {
            0 => {
                let mut data: Vec<u64> = (0..4 * 64)
                    .map(|_| {
                        moma::bignum::random::random_below(&mut rng, &q)
                            .to_u64()
                            .unwrap()
                    })
                    .collect();
                let fwd = ntt.forward_batch(&mut data);
                assert_eq!(fwd.allocs, 0, "round {round}: NTT batch allocated");
                let inv = ntt.inverse_batch(&mut data);
                assert_eq!(inv.allocs, 0, "round {round}: NTT inverse allocated");
            }
            1 => {
                let values = random_values(&mut rng, src.product(), 16);
                let a = src.encode(&values);
                let b = a.clone();
                let (out, stats) = a.mul_with_stats(&b);
                assert_eq!(stats.allocs, 0, "round {round}: mul allocated");
                let (_, stats) = out.rescale_then_extend_with_stats(&dst);
                assert_eq!(stats.allocs, 0, "round {round}: rescale chain allocated");
            }
            2 => {
                let values = random_values(&mut rng, src.product(), 16);
                let a = src.encode(&values);
                let b = src.encode(&values);
                let (_, stats) = a.mul_rescale_then_extend_with_stats(&b, &dst);
                assert_eq!(stats.allocs, 0, "round {round}: fused chain allocated");
            }
            3 => {
                let values = random_values(&mut rng, src.product(), 16);
                let a = src.encode(&values);
                let b = src.encode(&values);
                let (_, stats) = a.mul_axpy_with_stats(&b, &scalar, &b);
                assert_eq!(stats.allocs, 0, "round {round}: mul_axpy allocated");
                let _ = a.add(&b).sub(&b);
                let _ = a.rescale();
            }
            _ => {
                let values = random_values(&mut rng, src.product(), 16);
                let a = src.encode(&values);
                let _ = a.base_convert(&dst);
                // An empty vector draws no plane, not even a minimum-class one.
                let before = session.stats().pool;
                let _ = src.encode(&[]);
                let after = session.stats().pool;
                assert_eq!(
                    (after.hits, after.misses),
                    (before.hits, before.misses),
                    "round {round}: an empty encode drew from the pool"
                );
            }
        }
    }
    let after = session.stats();
    assert_eq!(
        after.pool.misses, warm.pool.misses,
        "steady state must never miss the pool (i.e. never heap-allocate a plane)"
    );
    assert_eq!(after.ntt.misses, warm.ntt.misses, "no plan rebuilds");
    assert_eq!(after.rns.misses, warm.rns.misses);
    assert_eq!(after.rescale_extend.misses, warm.rescale_extend.misses);
    assert!(
        after.pool.hits > warm.pool.hits,
        "the loop did use the pool"
    );
}

/// Builds a session with every plan cache populated, returning it and a
/// workload to crosscheck restored plans against.
fn warm_session() -> (Session, Vec<BigUint>) {
    let session = Session::default();
    let _ = session.ntt_default(64);
    let _ = session.ntt(12289, 16);
    let _ = session.ntt_multiword::<2>(128, 32);
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let mut rng = StdRng::seed_from_u64(0x5a47);
    let values = random_values(&mut rng, src.product(), 9);
    let v = src.encode(&values);
    // Touch every chain so conversion, rescale, and fused plans all exist.
    let _ = v.mul(&v).rescale_then_extend(&dst);
    let _ = v.base_convert(&dst);
    let _ = v.rescale();
    // And a negacyclic ring ladder, so the negacyclic-plan and ring-context
    // caches (snapshot sections 8 and 9) are populated too.
    let _ = session.ring(16, &ring_ladder());
    (session, values)
}

/// The ladder the lifecycle tests put through the ring caches.
fn ring_ladder() -> Vec<u64> {
    moma::ring::default_ladder(16, 3)
}

#[test]
fn snapshot_restores_every_plan_cache_bit_for_bit() {
    let (warm, values) = warm_session();
    let bytes = warm.snapshot();

    let fresh = Session::default();
    let report = fresh.restore(&bytes).expect("snapshot restores");
    assert_eq!(report.ntt_plans, 2);
    assert_eq!(report.multiword_plans, 1);
    assert!(report.rns_plans >= 2, "source and target bases at least");
    assert!(report.baseconv_plans >= 1);
    // The explicit `rescale()` plus one per ladder step of the ring context.
    assert_eq!(report.rescale_plans, 1 + (ring_ladder().len() - 1));
    // The explicit fused chain only: the ring extends onto no other basis.
    assert_eq!(report.rescale_extend_plans, 1);
    assert_eq!(report.negacyclic_plans, ring_ladder().len());
    assert_eq!(report.ring_contexts, 1);
    assert!(report.capacity_entries >= 1);

    // Every request the warm session served is now a pure cache hit: no
    // single-word NTT or RNS-family plan is rebuilt.
    let src = fresh.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = fresh.rns(&src_moduli[..4]);
    let v = fresh_encode_crosscheck(&warm, &fresh, &values, &src);
    let _ = v.mul(&v).rescale_then_extend(&dst);
    let _ = v.base_convert(&dst);
    let _ = fresh.ntt_default(64);
    let stats = fresh.stats();
    assert_eq!(stats.ntt.misses, 0, "restored NTT plans serve all requests");
    assert_eq!(stats.rns.misses, 0, "restored RNS plans serve all requests");
    assert_eq!(stats.baseconv.misses, 0);
    assert_eq!(stats.rescale_extend.misses, 0);

    // The ring caches round-trip too: re-requesting the warm ladder is a pure
    // hit (the one recorded miss is restore's own reassembly), and the
    // restored context computes bit-for-bit what the original does.
    let misses_after_restore = (
        stats.ring.misses,
        stats.ntt_negacyclic.misses,
        stats.rescale.misses,
    );
    let ladder = ring_ladder();
    let warm_ring = warm.ring(16, &ladder);
    let fresh_ring = fresh.ring(16, &ladder);
    let after = fresh.stats();
    assert_eq!(
        (
            after.ring.misses,
            after.ntt_negacyclic.misses,
            after.rescale.misses,
        ),
        misses_after_restore,
        "restored ring caches serve requests without rebuilding"
    );
    let coeffs: Vec<BigUint> = (0..16u64).map(|i| BigUint::from(i * i + 3)).collect();
    let wa = warm_ring.encode(0, &coeffs);
    let fa = fresh_ring.encode(0, &coeffs);
    let (wp, _) = warm_ring.ladder_step(&wa, &wa);
    let (fp, _) = fresh_ring.ladder_step(&fa, &fa);
    assert_eq!(
        warm_ring.decode(&wp),
        fresh_ring.decode(&fp),
        "ring ladder crosscheck"
    );

    // Restoring the same snapshot again seeds nothing (keys all present).
    let again = fresh.restore(&bytes).expect("idempotent restore");
    assert_eq!(again.ntt_plans, 0);
    assert_eq!(again.rns_plans, 0);
    assert_eq!(again.rescale_extend_plans, 0);
    assert_eq!(again.negacyclic_plans, 0);
    assert_eq!(again.ring_contexts, 0);
}

/// A ring snapshot of the shape written before the ring's level drop became a
/// residue-local rescale: the ring key, one fused rescale-and-extend plan per
/// level pair in section 7, and an empty section 6. It must still restore —
/// the section-7 entries are seeded and simply unused, and the ring builds
/// its rescale steps from the restored level bases.
#[test]
fn ring_snapshot_of_the_rescale_extend_shape_still_restores() {
    let ladder = ring_ladder();
    let steps = ladder.len() - 1;
    let warm = Session::default();
    let warm_ring = warm.ring(16, &ladder);
    for len in 2..=ladder.len() {
        let _ = warm
            .rns(&ladder[..len])
            .rescale_extend_to(&warm.rns(&ladder[..len - 1]));
    }
    // Empty the rescale section: an old ring held no `RescalePlan`s.
    let bytes = with_section_payload(warm.snapshot(), 6, &0u64.to_le_bytes());

    let fresh = Session::default();
    let report = fresh.restore(&bytes).expect("old-shape snapshot restores");
    assert_eq!(report.ring_contexts, 1);
    assert_eq!(report.rescale_extend_plans, steps);
    assert_eq!(report.rescale_plans, 0);
    assert_eq!(report.negacyclic_plans, ladder.len());
    let stats = fresh.stats();
    assert_eq!(stats.rns.misses, 0, "every level basis was seeded");
    assert_eq!(stats.ntt_negacyclic.misses, 0);
    assert_eq!(
        stats.rescale.misses, steps as u64,
        "steps are built, not read"
    );
    assert_eq!(stats.rescale_extend.misses, 0);

    // A full ladder on the restored ring: bit-identical to the warm ring and
    // to the `BigUint` replay.
    let fresh_ring = fresh.ring(16, &ladder);
    let mut rng = StdRng::seed_from_u64(0x01d5);
    let a = random_values(&mut rng, warm_ring.product(0), 16);
    let b = random_values(&mut rng, warm_ring.product(0), 16);
    let run = |ring: &moma::RingSpace| {
        let (mut cur, _) = ring.ladder_step(&ring.encode(0, &a), &ring.encode(0, &b));
        for _ in 1..steps {
            cur = ring.ladder_step(&cur, &cur).0;
        }
        ring.decode(&cur)
    };
    let want = moma::ring::oracle::ladder_replay(&ladder, &a, &b, steps);
    assert_eq!(run(&warm_ring), want, "warm ring vs oracle");
    assert_eq!(run(&fresh_ring), want, "restored ring vs oracle");
}

/// Replaces the payload of section `tag` in a snapshot and re-seals it.
fn with_section_payload(bytes: Vec<u8>, tag: u32, payload: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let len_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    // magic(8) + version(4), then the two length-prefixed identity strings;
    // each section is tag(4) + payload length(8) + payload.
    let mut at = 12;
    for _ in 0..2 {
        at += 4 + u32_at(at) as usize;
    }
    while u32_at(at) != tag {
        at += 12 + len_at(at + 4);
    }
    let rest = at + 12 + len_at(at + 4);
    let new_len = (payload.len() as u64).to_le_bytes();
    patch_checksum([&bytes[..at + 4], &new_len, payload, &bytes[rest..]].concat())
}

/// Encodes the same values on both sessions and asserts the restored plans
/// compute bit-for-bit what the originals do — the crosscheck that a plan
/// rebuilt from its key is the plan, not merely a compatible one.
fn fresh_encode_crosscheck(
    warm: &Session,
    fresh: &Session,
    values: &[BigUint],
    fresh_src: &moma::RnsSpace,
) -> moma::RnsVec {
    let warm_src = warm.rns_with_capacity(160);
    let warm_moduli = warm_src.moduli();
    let warm_dst = warm.rns(&warm_moduli[..4]);
    let fresh_moduli = fresh_src.moduli();
    assert_eq!(warm_moduli, fresh_moduli, "identical deterministic basis");
    let fresh_dst = fresh.rns(&fresh_moduli[..4]);
    let a = warm_src.encode(values);
    let b = fresh_src.encode(values);
    assert_eq!(a.matrix(), b.matrix(), "encode crosscheck");
    let wa = a.mul(&a).rescale_then_extend(&warm_dst);
    let wb = b.mul(&b).rescale_then_extend(&fresh_dst);
    assert_eq!(wa.matrix(), wb.matrix(), "full chain crosscheck");

    // And the restored single-word NTT plan transforms identically.
    let warm_ntt = warm.ntt_default(64);
    let fresh_ntt = fresh.ntt_default(64);
    let mut rng = StdRng::seed_from_u64(9);
    let mut x: Vec<u64> = (0..64)
        .map(|_| rng.gen_range(0..warm_ntt.modulus()))
        .collect();
    let mut y = x.clone();
    warm_ntt.forward(&mut x);
    fresh_ntt.forward(&mut y);
    assert_eq!(x, y, "NTT crosscheck");
    b
}

#[test]
fn snapshot_rejects_truncation_and_tampering() {
    let (warm, _) = warm_session();
    let bytes = warm.snapshot();

    // Truncated anywhere: fail closed. (A clean 8-byte-boundary cut can only
    // ever fail the checksum; mid-field cuts fail earlier.)
    for cut in [1, 8, 11, bytes.len() / 2, bytes.len() - 1] {
        let truncated = &bytes[..cut];
        let fresh = Session::default();
        assert!(
            fresh.restore(truncated).is_err(),
            "cut at {cut} must be rejected"
        );
        assert_eq!(fresh.stats().ntt.misses, 0, "nothing was seeded");
    }

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Session::default().restore(&patch_checksum(bad)),
        Err(SnapshotError::BadMagic)
    ));

    // Version bump.
    let mut bad = bytes.clone();
    bad[8] = 0x7f;
    assert!(matches!(
        Session::default().restore(&patch_checksum(bad)),
        Err(SnapshotError::BadVersion { found: 0x7f })
    ));

    // A version-2 snapshot (the table format) is refused whole.
    let mut v2 = bytes.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        Session::default().restore(&patch_checksum(v2)),
        Err(SnapshotError::BadVersion { found: 2 })
    ));

    // Foreign toolchain identity: rejected up front. The header is
    // magic(8) + version(4) + toolchain(len:4 + bytes) + build(len:4 + bytes).
    let tlen = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut bad = bytes.clone();
    bad[16] ^= 0x20; // flip the case of the first toolchain byte
    assert!(matches!(
        Session::default().restore(&patch_checksum(bad)),
        Err(SnapshotError::IncompatibleBuild {
            what: "toolchain",
            ..
        })
    ));

    // Foreign build identity likewise.
    let mut bad = bytes.clone();
    bad[16 + tlen + 4] ^= 0x20;
    assert!(matches!(
        Session::default().restore(&patch_checksum(bad)),
        Err(SnapshotError::IncompatibleBuild { what: "build", .. })
    ));

    // Ordering: when a key is corrupted *and* the identity mismatches, the
    // identity gate fires — cross-build bytes never reach a constructor.
    let mut bad = bytes.clone();
    bad[16] ^= 0x20;
    let mid = bytes.len() / 2;
    bad[mid] ^= 0xff;
    let fresh = Session::default();
    assert!(matches!(
        fresh.restore(&patch_checksum(bad)),
        Err(SnapshotError::IncompatibleBuild {
            what: "toolchain",
            ..
        })
    ));
    assert_eq!(fresh.stats().ntt.misses, 0, "nothing was seeded");

    // A flipped content byte without a checksum patch.
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 1;
    assert!(matches!(
        Session::default().restore(&bad),
        Err(SnapshotError::BadChecksum)
    ));

    // A flipped bit *with* a correct checksum: the key checks must catch it.
    // Flip one bit every 8 bytes of the content and require most attempts to
    // fail (whichever key the bit lands in, its constructor checks it).
    let mut rejected = 0;
    for word in (12..bytes.len() - 8).step_by(8) {
        let mut bad = bytes.clone();
        bad[word] ^= 1;
        let fresh = Session::default();
        if fresh.restore(&patch_checksum(bad)).is_err() {
            rejected += 1;
            assert_eq!(
                fresh.stats().ntt.misses + fresh.stats().rns.misses,
                0,
                "a rejected snapshot must seed nothing"
            );
        }
    }
    // Not every single-bit flip is detectable: a flipped modulus can be
    // another valid prime, and a section count shrink can parse as a smaller
    // valid snapshot. But a flipped key is almost never another valid key, so
    // the overwhelming majority of flips must be rejected.
    let words = (bytes.len() - 20) / 8;
    assert!(
        rejected * 10 >= words * 8,
        "only {rejected}/{words} single-word tampers were rejected"
    );
}

#[test]
fn snapshot_rejects_wrong_key_or_basis() {
    let warm = Session::default();
    let _ = warm.ntt_default(64);
    let bytes = warm.snapshot();

    // The NTT section of this minimal snapshot is: ...tag,len,count,q,n,...
    // Retarget the key's q: a composite q ≡ 1 (mod 64) and a prime q with
    // 64 ∤ q − 1 are refused by the plan constructor, typed.
    let q = warm.ntt_default(64).modulus();
    let pos = find_word(&bytes, q).expect("q serialized");
    let retarget = |to: u64| {
        let mut bad = bytes.clone();
        bad[pos..pos + 8].copy_from_slice(&to.to_le_bytes());
        patch_checksum(bad)
    };
    for (bad_q, why) in [
        (65, "NTT modulus must be prime"),
        (
            17,
            "transform size must divide q - 1 (no primitive root of unity otherwise)",
        ),
    ] {
        let fresh = Session::default();
        match fresh.restore(&retarget(bad_q)) {
            Err(SnapshotError::Malformed(what)) => assert_eq!(what, why, "q = {bad_q}"),
            other => panic!("q = {bad_q} must be refused, got {other:?}"),
        }
        assert_eq!(fresh.stats().ntt.misses, 0, "nothing seeded");
    }
    // A different *valid* key (12289 = 3·2^12 + 1) restores as exactly the
    // plan a cold build of that key is.
    let fresh = Session::default();
    let report = fresh
        .restore(&retarget(12289))
        .expect("a valid key restores");
    assert_eq!(report.ntt_plans, 1);
    let restored = fresh.ntt(12289, 64);
    assert_eq!(fresh.stats().ntt.misses, 0, "served from the restored plan");
    let (mut a, mut b): (Vec<u64>, Vec<u64>) = ((0..64).collect(), (0..64).collect());
    restored.forward(&mut a);
    Session::default().ntt(12289, 64).forward(&mut b);
    assert_eq!(a, b, "the restored plan is the cold plan");

    // Same fail-closed behaviour for a tampered RNS basis modulus. The basis
    // is requested explicitly (no capacity memo) so the first serialized
    // occurrence of `m0` is the plan's own basis list.
    let moduli = Session::default().rns_with_capacity(96).moduli();
    let warm = Session::default();
    let src = warm.rns(&moduli);
    let m0 = src.moduli()[0];
    let bytes = warm.snapshot();
    let pos = find_word(&bytes, m0).expect("basis modulus serialized");
    let mut bad = bytes.clone();
    // Another valid-looking prime-sized odd word that is not m0.
    bad[pos..pos + 8].copy_from_slice(&(m0 ^ 2).to_le_bytes());
    let fresh = Session::default();
    assert!(fresh.restore(&patch_checksum(bad)).is_err());
    assert_eq!(fresh.stats().rns.misses, 0, "nothing seeded");

    // An unknown section tag fails closed rather than being skipped.
    let mut bad = bytes[..bytes.len() - 8].to_vec();
    bad.extend_from_slice(&99u32.to_le_bytes());
    bad.extend_from_slice(&0u64.to_le_bytes());
    bad.extend_from_slice(&[0u8; 8]); // room for the recomputed trailer
    assert!(matches!(
        Session::default().restore(&patch_checksum(bad)),
        Err(SnapshotError::UnknownSection { tag: 99 })
    ));
}

/// A multi-word key the plan constructor would refuse — `n = 2^33`, one past
/// what the evaluation moduli support — is a typed error from the validation
/// pass. It used to pass the key check and panic inside the rebuild, after
/// every other section had been seeded.
#[test]
fn snapshot_rejects_a_multiword_key_the_constructor_would_refuse() {
    let (warm, _) = warm_session();
    let key = [
        &1u64.to_le_bytes()[..],     // one entry
        &2u32.to_le_bytes(),         // limbs
        &128u32.to_le_bytes(),       // bits
        &(1u64 << 33).to_le_bytes(), // n
    ]
    .concat();
    let bytes = with_section_payload(warm.snapshot(), 3, &key);

    let fresh = Session::default();
    assert!(matches!(
        fresh.restore(&bytes),
        Err(SnapshotError::Malformed("invalid multi-word NTT key"))
    ));
    assert_eq!(fresh.stats().ntt_multiword.misses, 0, "nothing was rebuilt");
    assert_eq!(
        fresh.snapshot(),
        Session::default().snapshot(),
        "nothing was seeded in any cache"
    );
}

/// A capacity memo entry must have the shape `with_capacity_bits` gives: an
/// entry re-keyed from 96 to 4096 bits would otherwise serve a 5-modulus,
/// 154-bit basis to a caller asking for 4096 bits of dynamic range.
#[test]
fn snapshot_rejects_a_capacity_entry_of_the_wrong_shape() {
    let warm = Session::default();
    let honest = warm.rns_with_capacity(96).moduli();
    let bytes = warm.snapshot();
    // Section 1 opens the body: tag(4) + length(8) + count(8) + bits(4).
    let tlen = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let blen = u32::from_le_bytes(bytes[16 + tlen..20 + tlen].try_into().unwrap()) as usize;
    let bits_at = 20 + tlen + blen + 4 + 8 + 8;
    assert_eq!(bytes[bits_at..bits_at + 4], 96u32.to_le_bytes());
    let mut bad = bytes.clone();
    bad[bits_at..bits_at + 4].copy_from_slice(&4096u32.to_le_bytes());

    let fresh = Session::default();
    assert!(matches!(
        fresh.restore(&patch_checksum(bad)),
        Err(SnapshotError::Malformed(_))
    ));
    assert_eq!(
        fresh.snapshot(),
        Session::default().snapshot(),
        "nothing seeded"
    );
    assert_eq!(fresh.rns_with_capacity(4096).moduli().len(), 138);
    assert_eq!(fresh.rns_with_capacity(96).moduli(), honest);
}

/// No key may ask restore for more than `MAX_KEY_WORDS` (`n × words`): a
/// 2^23-point single-word plan over the paper modulus (which supports it) and
/// a two-limb plan at 2^22 points are one step over, so both are refused
/// before anything is built.
#[test]
fn snapshot_rejects_keys_over_the_size_cap() {
    use moma::snapshot::MAX_KEY_WORDS;
    let (warm, _) = warm_session();
    let q = warm.ntt_default(64).modulus();
    let ntt_key = [
        &1u64.to_le_bytes()[..],
        &q.to_le_bytes(),
        &(2 * MAX_KEY_WORDS as u64).to_le_bytes(),
    ]
    .concat();
    let multiword_key = [
        &1u64.to_le_bytes()[..],
        &2u32.to_le_bytes(),
        &128u32.to_le_bytes(),
        &(MAX_KEY_WORDS as u64).to_le_bytes(),
    ]
    .concat();
    for (tag, key) in [(2, ntt_key), (3, multiword_key)] {
        let fresh = Session::default();
        assert!(matches!(
            fresh.restore(&with_section_payload(warm.snapshot(), tag, &key)),
            Err(SnapshotError::Malformed("key exceeds the restore size cap"))
        ));
        assert_eq!(
            fresh.snapshot(),
            Session::default().snapshot(),
            "nothing seeded"
        );
    }
}

/// Recomputes the trailing FNV-1a checksum after tampering with content bytes
/// (so the key checks, not the checksum, are what reject it).
fn patch_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len() - 8;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..n] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[n..].copy_from_slice(&hash.to_le_bytes());
    bytes
}

fn find_word(bytes: &[u8], word: u64) -> Option<usize> {
    let needle = word.to_le_bytes();
    (0..bytes.len().saturating_sub(8)).find(|&i| bytes[i..i + 8] == needle)
}
