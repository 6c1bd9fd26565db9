//! End-to-end FHE level-ladder scenario over the negacyclic ring layer.
//!
//! Run with: `cargo run -p moma-examples --example level_ladder`
//!
//! The workload every RNS-CKKS-shaped FHE scheme runs per multiplicative
//! level: negacyclic multiply in `R_q = Z_q[X]/(X^n + 1)` (pointwise, in the
//! folded-twist NTT domain), then rescale-and-drop one modulus from the
//! ladder — in the evaluation domain too, so the running value is raised once
//! and lowered once, on the step onto the floor. This example walks that
//! ladder three ways:
//!
//! 1. **Inline** — `Session::ring` hands out a shared [`moma::RingSpace`];
//!    the full ladder (first step `a · b`, every later step squares the
//!    running value) is crosschecked bit for bit against the schoolbook
//!    `BigUint` oracle [`moma::ring::oracle::ladder_replay`].
//! 2. **Warm steady state** — the second ladder run reuses every plan and
//!    recycles every plane through the session pool: zero allocations.
//! 3. **Served** — the same traffic through `moma-serve`: a ring tenant pins
//!    the ladder once, and concurrent `LadderStep` requests for one
//!    `(tenant, level)` coalesce into a single batch over the shared context.

use moma::bignum::BigUint;
use moma::Session;
use moma_serve::{Response, ServeConfig, Server, WorkItem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Runs the full ladder to the floor level, returning the end state plus the
/// launch/allocation totals — the same shape the oracle replays.
fn run_ladder(
    space: &moma::RingSpace,
    a: &moma::RingVec,
    b: &moma::RingVec,
) -> (moma::RingVec, usize, usize) {
    let (mut cur, first) = space.ladder_step(a, b);
    let (mut launches, mut allocs) = (first.launches, first.allocs);
    for _ in 1..space.steps() {
        let (next, stats) = space.ladder_step(&cur, &cur);
        launches += stats.launches;
        allocs += stats.allocs;
        cur = next;
    }
    (cur, launches, allocs)
}

fn main() {
    // Small enough that the O(n²) schoolbook oracle replays in well under a
    // second; the committed bench row runs the same ladder at n = 4096.
    let n = 256;
    let levels = 6;
    let session = Session::default();
    let moduli = moma::ring::default_ladder(n, levels);
    let space = session.ring(n, &moduli);
    println!(
        "ring R_q = Z_q[X]/(X^{n} + 1), ladder of {} moduli ({} levels)",
        moduli.len(),
        space.steps()
    );

    let mut rng = StdRng::seed_from_u64(7);
    let coeffs = |rng: &mut StdRng| -> Vec<BigUint> {
        (0..n)
            .map(|_| moma::bignum::random::random_below(rng, space.product(0)))
            .collect()
    };
    let (a_coeffs, b_coeffs) = (coeffs(&mut rng), coeffs(&mut rng));
    let a = space.encode(0, &a_coeffs);
    let b = space.encode(0, &b_coeffs);

    // 1. Inline ladder, crosschecked bit for bit against the BigUint oracle.
    let (floor, launches, _) = run_ladder(&space, &a, &b);
    let expect = moma::ring::oracle::ladder_replay(&moduli, &a_coeffs, &b_coeffs, levels);
    assert_eq!(
        space.decode(&floor),
        expect,
        "engine ladder diverged from the oracle"
    );
    // Recycle the floor-level planes so the warm re-run finds every buffer
    // back in the pool.
    drop(floor);
    // Two raises for `a·b`, two launches per step in the evaluation domain
    // (the dropped row lowered, the survivors' corrections raised), and one
    // more on the step onto the floor, which lowers and rescales on
    // coefficients.
    assert_eq!(launches, 2 * levels + 3, "launches per ladder");
    println!(
        "ladder of {levels} levels: {launches} launches ({:.1}/level: 2 per step in the \
         evaluation domain, + 2 raises, + 1 on the step onto the floor), \
         end state matches the schoolbook oracle bit for bit",
        launches as f64 / levels as f64
    );

    // 2. Steady state: the first run stocked the pool, so a warm ladder
    // recycles every plane — zero heap allocations.
    let (_, _, warm_allocs) = run_ladder(&space, &a, &b);
    assert_eq!(
        warm_allocs, 0,
        "warm ladder must run out of the session pool"
    );
    println!("warm re-run: {warm_allocs} plane allocations (every buffer recycled)");

    // 3. The same step as served traffic: a ring tenant pins the ladder, and
    // concurrent level-0 requests coalesce into one batch.
    let server = Server::new(
        session.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            min_batch: 4,
            batch_window: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    );
    let tenant = server.register_ring_tenant(n, &moduli);
    let step_expect = moma::ring::oracle::ladder_replay(&moduli, &a_coeffs, &b_coeffs, 1);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let client = server.client();
            let (a_coeffs, b_coeffs, step_expect) = (&a_coeffs, &b_coeffs, &step_expect);
            s.spawn(move || {
                let done = client
                    .call(WorkItem::LadderStep {
                        tenant,
                        level: 0,
                        a: a_coeffs.clone(),
                        b: b_coeffs.clone(),
                    })
                    .expect("ladder step");
                let Response::Ladder(out) = done.response else {
                    unreachable!()
                };
                assert_eq!(&out, step_expect, "served step diverged from the oracle");
                println!(
                    "served level-0 step rode a batch of {} ({} launches for the batch)",
                    done.batch_size, done.batch_launches
                );
            });
        }
    });
    let stats = server.stats();
    println!(
        "server: {} requests in {} batches ({} coalesced) over one shared ring context",
        stats.completed, stats.batches, stats.coalesced_requests
    );
}
