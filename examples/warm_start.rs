//! Warm start: snapshot the keys of a session's plan caches to bytes, rebuild
//! the plans from them in a fresh session, and serve with zero plan builds
//! *and* zero heap plane allocations — the precompute-once-execute-many
//! contract surviving a process restart.
//!
//! Run with: `cargo run -p moma-examples --example warm_start`

use std::time::Instant;

use moma::bignum::BigUint;
use moma::Session;

fn main() {
    // 1. A "first boot": the session builds every plan the workload needs —
    //    an NTT plan (twiddle tables), a deterministic RNS basis (prime
    //    search), and the conversion/rescale/fused-chain plans between bases.
    let boot = Instant::now();
    let warm = Session::default();
    let ntt = warm.ntt_default(1024);
    let src = warm.rns_with_capacity(256);
    let src_moduli = src.moduli();
    let dst = warm.rns(&src_moduli[..4]);
    let values: Vec<BigUint> = (1..=8u64).map(|v| BigUint::from(v * 0x1234_5678)).collect();
    let reference = src
        .encode(&values)
        .mul(&src.encode(&values))
        .rescale_then_extend(&dst);
    let cold_build = boot.elapsed();
    println!(
        "cold boot: built {} NTT + {} RNS + {} fused-chain plans in {cold_build:?}",
        warm.stats().ntt.misses,
        warm.stats().rns.misses,
        warm.stats().rescale_extend.misses,
    );

    // 2. Snapshot: the key of every cached plan (moduli, sizes, basis pairs —
    //    never a table) in a self-describing, versioned, checksummed byte
    //    format. In production this goes to a file next to the service binary.
    let bytes = warm.snapshot();
    println!("snapshot: {} bytes", bytes.len());

    // 3. "Next boot": a fresh session rebuilds every plan from its key through
    //    the ordinary constructors, skipping the searches a cold boot runs (the
    //    capacity basis' prime search). Every key is checked and nothing is
    //    seeded until all of them have been built — a corrupt or mismatched
    //    snapshot is rejected whole, and the session falls back to cold builds.
    let boot = Instant::now();
    let fresh = Session::default();
    let report = fresh.restore(&bytes).expect("snapshot restores");
    let restored = boot.elapsed();
    println!(
        "warm boot: restored {} plans in {restored:?} ({:.0}x faster)",
        report.ntt_plans
            + report.rns_plans
            + report.baseconv_plans
            + report.rescale_plans
            + report.rescale_extend_plans,
        cold_build.as_secs_f64() / restored.as_secs_f64().max(1e-9),
    );

    // 4. The restored session serves the same workload with zero plan builds,
    //    bit-for-bit identical to the first boot...
    let src = fresh.rns_with_capacity(256);
    let dst = fresh.rns(&src.moduli()[..4]);
    let replay = src
        .encode(&values)
        .mul(&src.encode(&values))
        .rescale_then_extend(&dst);
    assert_eq!(replay.matrix(), reference.matrix());
    let mut data: Vec<u64> = (0..1024).map(|i| i as u64 % ntt.modulus()).collect();
    let _ = fresh.ntt_default(1024).forward_batch(&mut data);
    assert_eq!(fresh.stats().ntt.misses, 0, "no NTT plan was rebuilt");
    assert_eq!(fresh.stats().rns.misses, 0, "no RNS plan was rebuilt");
    println!("replay: all plan-cache hits, outputs bit-identical to first boot");

    // 5. ...and, once the buffer pool is warm, without heap allocations: every
    //    plane an op needs comes from the session pool and goes back on drop.
    let before = fresh.stats().pool;
    for _ in 0..100 {
        let v = src.encode(&values);
        let (_, stats) = v.mul_with_stats(&v);
        assert_eq!(stats.allocs, 0, "steady state never heap-allocates a plane");
    }
    let after = fresh.stats().pool;
    println!(
        "steady state: 100 requests, {} pool hits, {} pool misses, 0 heap planes",
        after.hits - before.hits,
        after.misses - before.misses,
    );

    // 6. Fail closed: a tampered snapshot is rejected with a typed error and
    //    seeds nothing.
    let mut tampered = bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 1;
    let err = Session::default().restore(&tampered).unwrap_err();
    println!("tampered snapshot rejected: {err}");
}
