//! `ladder_inline`: full 8-level ladders at n = 4096 through `RingSpace`, one
//! caller thread. Nearly all of its time is stage launches — `moma-ntt`'s
//! launcher on `moma-gpu` dispatch — so this is where fewer or cheaper
//! launches must show; `moma-rns` and kernel execution barely register.

use super::{
    common_layers, inline_window, median_us, paired_windows, random_values, span_parts, Traced,
    Workload,
};
use crate::metrics::Layers;
use crate::oracle;
use crate::stats::Window;
use crate::trace::{Scope, Span, Tracer};
use moma::bignum::BigUint;
use moma::{RingSpace, RingVec, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

pub const N: usize = 4096;
pub const LEVELS: usize = 8;
/// Size of the ladder replayed in full against the schoolbook oracle.
const ORACLE_N: usize = 256;
/// Coefficients checked from the definition at every level of the full-size ladder.
const SAMPLED: [usize; 4] = [0, 1, N / 2 + 3, N - 1];
/// Ladders run (and discarded) at the end of set-up, after the first.
const WARM_UP_LADDERS: usize = 2;
/// Digest of the full-size oracle's floor result for seed 1, written by `verify-full`.
const SEED1_DIGEST: &str = include_str!("../../expected/ladder_inline.seed1.digest");

pub struct LadderInline {
    seed: u64,
    session: Session,
    space: RingSpace,
    a: RingVec,
    b: RingVec,
    a_coeffs: Vec<BigUint>,
    b_coeffs: Vec<BigUint>,
    /// Digest of the first ladder's floor-level result; `verify` holds it
    /// against the references, every later ladder is held against it.
    expected: u64,
    launches_per_ladder: u64,
    cold_build: Duration,
}

/// The two level-0 operands for `seed`.
fn operands(seed: u64, space: &RingSpace) -> (Vec<BigUint>, Vec<BigUint>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_values(&mut rng, space.n(), space.product(0));
    let b = random_values(&mut rng, space.n(), space.product(0));
    (a, b)
}

/// `a·b`, then squarings down to the ladder floor: the shape
/// `ring::oracle::ladder_replay` mirrors. Returns the floor element and the
/// launches the steps reported.
fn run_ladder(space: &RingSpace, a: &RingVec, b: &RingVec) -> (RingVec, u64) {
    let (mut cur, stats) = space.ladder_step(a, b);
    let mut launches = stats.launches as u64;
    for _ in 1..space.steps() {
        let (next, stats) = space.ladder_step(&cur, &cur);
        launches += stats.launches as u64;
        cur = next;
    }
    (cur, launches)
}

/// The floor level has one modulus, so its single residue row is the result.
fn floor_digest(v: &RingVec) -> u64 {
    oracle::digest(v.elt().matrix().row(0))
}

/// The same ladder with every level split into the public calls
/// `ladder_step` is made of, a span around each.
fn run_ladder_traced(
    space: &RingSpace,
    a: &RingVec,
    b: &RingVec,
    tracer: &Tracer,
    op: u64,
) -> RingVec {
    let root = tracer.begin("ladder", None, op);
    let level = |a: &RingVec, b: Option<&RingVec>| {
        let scope = Scope {
            tracer,
            parent: tracer.begin("ladder.level", Some(root), op),
            op,
        };
        let raise = |v: &RingVec| {
            let mut raised = scope.span("ring.clone", || v.clone());
            scope.span("ring.forward_ntt", || space.forward_ntt(&mut raised));
            raised
        };
        let fa = raise(a);
        let fb = b.map(raise);
        let (mut prod, _) = scope.span("ring.mul", || space.mul(&fa, fb.as_ref().unwrap_or(&fa)));
        scope.span("ring.inverse_ntt", || space.inverse_ntt(&mut prod));
        let (next, _) = scope.span("ring.rescale", || space.rescale_to_next_level(&prod));
        drop((fa, fb, prod));
        tracer.end(scope.parent);
        next
    };
    let mut cur = level(a, Some(b));
    for _ in 1..space.steps() {
        cur = level(&cur, None);
    }
    tracer.end(root);
    cur
}

/// Replays a whole `ORACLE_N`-point ladder against the schoolbook oracle.
fn check_small_ladder(seed: u64) {
    let moduli = moma::ring::default_ladder(ORACLE_N, LEVELS);
    let space = Session::default().ring(ORACLE_N, &moduli);
    let (a, b) = operands(seed, &space);
    let (out, _) = run_ladder(&space, &space.encode(0, &a), &space.encode(0, &b));
    let expect = moma::ring::oracle::ladder_replay(&moduli, &a, &b, LEVELS);
    assert!(
        space.decode(&out) == expect,
        "n = {ORACLE_N} ladder diverged from the schoolbook oracle"
    );
}

/// Walks the full-size ladder one level at a time, checking sampled
/// coefficients of every level against the definition, and returns the floor
/// digest. Level ℓ+1 is checked on the engine's own level-ℓ output, so every
/// level's arithmetic is covered without the ~1 min full oracle.
fn check_sampled_levels(space: &RingSpace, a: &[BigUint], b: &[BigUint]) -> u64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    for level in 0..space.steps() {
        let (ea, eb) = (space.encode(level, &a), space.encode(level, &b));
        let (next, _) = space.ladder_step(&ea, &eb);
        let got = space.decode(&next);
        let expect = oracle::ladder_level_coeffs(space.moduli(), level, &a, &b, &SAMPLED);
        for (k, expect) in SAMPLED.iter().zip(expect) {
            assert!(
                got[*k] == expect,
                "level {level} coefficient {k} diverged from the BigUint definition"
            );
        }
        b.clone_from(&got);
        a = got;
    }
    oracle::digest_small(&a)
}

impl Workload for LadderInline {
    fn setup(seed: u64) -> Self {
        let started = Instant::now();
        let session = Session::default();
        let moduli = moma::ring::default_ladder(N, LEVELS);
        let space = session.ring(N, &moduli);
        let (a_coeffs, b_coeffs) = operands(seed, &space);
        let (a, b) = (space.encode(0, &a_coeffs), space.encode(0, &b_coeffs));
        let (first, launches_per_ladder) = run_ladder(&space, &a, &b);
        let cold_build = started.elapsed();
        for _ in 0..WARM_UP_LADDERS {
            run_ladder(&space, &a, &b);
        }
        LadderInline {
            seed,
            session,
            space,
            a,
            b,
            a_coeffs,
            b_coeffs,
            expected: floor_digest(&first),
            launches_per_ladder,
            cold_build,
        }
    }

    fn verify(&mut self) {
        check_small_ladder(self.seed);
        let verified = check_sampled_levels(&self.space, &self.a_coeffs, &self.b_coeffs);
        assert!(
            self.expected == verified,
            "chained ladder and level-by-level ladder disagree"
        );
        if self.seed == 1 {
            let committed = u64::from_str_radix(SEED1_DIGEST.trim(), 16)
                .expect("expected/ladder_inline.seed1.digest holds one hex digest");
            assert!(
                verified == committed,
                "seed 1 floor digest {verified:016x} differs from the full-size oracle's \
                 {committed:016x} (run `verify-full` if the ladder parameters changed)"
            );
        }
    }

    fn window(&mut self, length: Duration) -> Window {
        inline_window(length, |_| {
            let (out, _) = run_ladder(&self.space, &self.a, &self.b);
            floor_digest(&out) == self.expected
        })
    }

    fn trace(&mut self, length: Duration, layers: &mut Layers) -> (Window, Vec<Span>) {
        let session = self.session.clone();
        let tracer = Tracer::new();
        let (plain, traced, pool_allocs_per_op) = paired_windows(&session, length, |traced| {
            let out = match traced {
                Some(op) => run_ladder_traced(&self.space, &self.a, &self.b, &tracer, op),
                None => run_ladder(&self.space, &self.a, &self.b).0,
            };
            floor_digest(&out) == self.expected
        });
        let spans = tracer.into_spans();

        common_layers(
            layers,
            Traced {
                session: &session,
                cold_build: self.cold_build,
                launches_per_op: self.launches_per_ladder as f64,
                pool_allocs_per_op,
                plain: &plain,
                traced: &traced,
            },
        );

        // Per ladder, summed over its eight levels.
        let parts_over_total = span_parts(
            layers,
            &spans,
            traced.attempted,
            "ladder",
            &[
                ("ring.clone_ms", "ring.clone"),
                ("ring.raise_ms", "ring.forward_ntt"),
                ("ring.pointwise_ms", "ring.mul"),
                ("ring.lower_ms", "ring.inverse_ntt"),
                ("ring.rescale_ms", "ring.rescale"),
            ],
        );
        layers.set("ring.parts_over_total", parts_over_total);

        // One transform over the ladder's widest modulus, inline and through
        // the stage launcher: the difference is the price of stage launches.
        let ntt = session.ntt_negacyclic(self.space.moduli()[0], N);
        let mut row: Vec<u64> = self.a.elt().matrix().row(0).to_vec();
        layers.set(
            "ntt.inline_fwd_us.n4096",
            median_us(50, || ntt.forward(&mut row)),
        );
        let mut stage_launches = 0;
        layers.set(
            "ntt.launcher_fwd_us.n4096",
            median_us(50, || stage_launches = ntt.forward_batch(&mut row).launches),
        );
        layers.set("ntt.stage_launches_per_transform", stage_launches as f64);
        ring_codec_probes(layers, &self.space, &self.a_coeffs);
        (traced, spans)
    }
}

/// Encode and decode of one `n`-coefficient ring element at level 0.
pub fn ring_codec_probes(layers: &mut Layers, space: &RingSpace, coeffs: &[BigUint]) {
    let encode_us = median_us(9, || {
        std::hint::black_box(space.encode(0, coeffs));
    });
    let encoded = space.encode(0, coeffs);
    let decode_us = median_us(9, || {
        std::hint::black_box(space.decode(&encoded));
    });
    layers.set("ring.encode_ms", encode_us / 1e3);
    layers.set("ring.decode_ms", decode_us / 1e3);
}

/// `verify-full`: replays the full-size ladder for `seed` through the
/// schoolbook oracle (about a minute) and returns the engine's and the
/// oracle's floor digests.
pub fn verify_full(seed: u64) -> (u64, u64) {
    let session = Session::default();
    let moduli = moma::ring::default_ladder(N, LEVELS);
    let space = session.ring(N, &moduli);
    let (a, b) = operands(seed, &space);
    let (out, _) = run_ladder(&space, &space.encode(0, &a), &space.encode(0, &b));
    let expect = moma::ring::oracle::ladder_replay(&moduli, &a, &b, LEVELS);
    (floor_digest(&out), oracle::digest_small(&expect))
}
