//! [`RingContext`] and [`RingElt`]: the negacyclic ring `R_Q = Z_Q[X]/(X^n+1)`
//! over an RNS moduli ladder, with every hot operation riding the planned
//! engine — multi-modulus negacyclic NTTs (one block-resident launch for the
//! whole residue plane, each row transformed in place), pointwise products
//! through the RNS BLAS plan, and level drops through the residue-local
//! rescale (one launch; the result is already over the next level's basis).
//! A ladder step stays in the evaluation domain: it transforms only the
//! dropped modulus' row and the survivors' rounding corrections, `k` row
//! transforms for a `k`-modulus basis instead of the `2k` of a lower/raise
//! round trip. All working planes come from a caller-provided [`BufferPool`],
//! so a warm ladder reports zero allocations per level.

use std::sync::Arc;

use moma_bignum::BigUint;
use moma_blas::BlasOp;
use moma_gpu::launch::{launch_chunks, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_ntt::launcher::{forward_rows, inverse_rows};
use moma_ntt::NttPlan64;
use moma_rns::plan::mul_mod;
use moma_rns::{RescalePlan, RnsContext, RnsMatrix, RnsPlan};

/// Which representation a [`RingElt`]'s residue rows currently hold.
///
/// Every operation says which domain it takes and returns; [`RingContext::decode`]
/// reads either, and [`RingContext::ladder_step`] takes either and returns the
/// evaluation domain, except on the step onto the ladder floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Polynomial coefficients (the encode and coefficient-rescale domain).
    Coefficient,
    /// Negacyclic NTT evaluations (the pointwise-multiply domain, where a
    /// ladder stays between steps).
    Evaluation,
}

/// Provider hook for the plans a [`RingContext`] is assembled from. A caching
/// session implements this over its stampede-controlled caches so every ring
/// context built for the same ladder shares one set of tables; [`ColdSource`]
/// builds everything from scratch.
pub trait RingPlanSource {
    /// A negacyclic transform plan for `Z_q`, size `n`.
    fn negacyclic_plan(&self, q: u64, n: usize) -> Arc<NttPlan64>;
    /// An RNS plan over exactly `moduli` (in order).
    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan>;
    /// The rescale step dropping `src`'s last modulus.
    fn rescale_plan(&self, src: &Arc<RnsPlan>) -> Arc<RescalePlan>;
}

/// The no-cache [`RingPlanSource`]: every plan built on the spot.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColdSource;

impl RingPlanSource for ColdSource {
    fn negacyclic_plan(&self, q: u64, n: usize) -> Arc<NttPlan64> {
        Arc::new(NttPlan64::negacyclic(q, n))
    }

    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan> {
        Arc::new(RnsPlan::new(&RnsContext::with_moduli(moduli)))
    }

    fn rescale_plan(&self, src: &Arc<RnsPlan>) -> Arc<RescalePlan> {
        Arc::new(src.rescale_plan())
    }
}

/// One rung of the ladder: the RNS plan over the level's basis and the rescale
/// step that drops its last modulus, `None` at the floor.
struct RingLevel {
    rns: Arc<RnsPlan>,
    step: Option<Arc<RescalePlan>>,
}

/// A negacyclic ring over a moduli ladder `Q = q₀·…·q_L`.
///
/// Level `d` works over the basis `q₀…q_{L−d}`: level 0 is the full ladder,
/// and each [`RingContext::rescale_to_next_level`] drops the basis' last
/// modulus, so a ladder of `L + 1` moduli supports `L` multiplicative levels.
pub struct RingContext {
    n: usize,
    moduli: Vec<u64>,
    /// One negacyclic plan per ladder modulus, aligned with `moduli`.
    ntt: Vec<Arc<NttPlan64>>,
    /// `levels[d]` serves the basis `moduli[..len − d]`.
    levels: Vec<RingLevel>,
}

impl RingContext {
    /// Builds the ring cold (no caches): every plan constructed on the spot.
    pub fn new(n: usize, moduli: &[u64]) -> Self {
        Self::with_source(n, moduli, &ColdSource)
    }

    /// Builds the ring with every plan drawn from `source` — the entry point a
    /// caching session uses so rings over the same ladder share tables.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2, `moduli` is empty, any modulus
    /// fails the negacyclic-plan preconditions (prime, `q ≡ 1 mod 2n`), or
    /// `source` returns plans inconsistent with the request.
    pub fn with_source(n: usize, moduli: &[u64], source: &impl RingPlanSource) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two ≥ 2"
        );
        assert!(!moduli.is_empty(), "the moduli ladder must not be empty");
        let ntt: Vec<Arc<NttPlan64>> = moduli
            .iter()
            .map(|&q| source.negacyclic_plan(q, n))
            .collect();
        for (plan, &q) in ntt.iter().zip(moduli) {
            assert!(plan.is_negacyclic(), "plan source returned a cyclic plan");
            assert_eq!(
                plan.n, n,
                "plan source returned a mismatched transform size"
            );
            assert_eq!(plan.ring.q, q, "plan source returned a mismatched modulus");
        }
        // One level per prefix length, longest basis first.
        let levels = (1..=moduli.len())
            .rev()
            .map(|len| {
                let rns = source.rns_plan(&moduli[..len]);
                assert!(
                    rns.moduli().eq(moduli[..len].iter().copied()),
                    "plan source returned a mismatched RNS basis"
                );
                let step = (len >= 2).then(|| source.rescale_plan(&rns));
                RingLevel { rns, step }
            })
            .collect();
        RingContext {
            n,
            moduli: moduli.to_vec(),
            ntt,
            levels,
        }
    }

    /// The ring degree `n` (coefficients per element).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full moduli ladder, widest basis first.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of levels (`= moduli.len()`; the floor level has one modulus).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Number of rescale steps the ladder supports (`level_count() − 1`).
    pub fn steps(&self) -> usize {
        self.levels.len() - 1
    }

    /// The RNS basis serving `level`.
    pub fn basis(&self, level: usize) -> &[u64] {
        &self.moduli[..self.moduli.len() - level]
    }

    /// The RNS plan serving `level`.
    pub fn rns_plan(&self, level: usize) -> &Arc<RnsPlan> {
        &self.levels[level].rns
    }

    /// The dynamic range `Q` of `level`'s basis.
    pub fn product(&self, level: usize) -> &BigUint {
        self.levels[level].rns.product()
    }

    /// Encodes `n` coefficients (each `< product(level)`) into a
    /// coefficient-domain element whose residue plane comes from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n` or a value exceeds the level's range.
    pub fn encode(&self, level: usize, values: &[BigUint], pool: &BufferPool) -> RingElt {
        assert_eq!(values.len(), self.n, "expected exactly n coefficients");
        RingElt {
            level,
            domain: Domain::Coefficient,
            matrix: RnsMatrix::from_biguints_pooled(&self.levels[level].rns, values, pool),
        }
    }

    /// Decodes `elt` back to `BigUint` coefficients, in either domain. A
    /// coefficient-domain element is reconstructed as it lies; an
    /// evaluation-domain one is lowered on a copy drawn from `pool` (one
    /// launch, the copy recycled before returning), so `elt` itself is left
    /// untouched and a warm pool allocates no plane.
    pub fn decode(&self, elt: &RingElt, pool: &BufferPool) -> Vec<BigUint> {
        let rns = &self.levels[elt.level].rns;
        match elt.domain {
            Domain::Coefficient => rns.to_biguints(&elt.matrix),
            Domain::Evaluation => {
                let mut lowered = elt.clone_with_pool(pool);
                self.inverse_ntt(&mut lowered);
                let values = rns.to_biguints(&lowered.matrix);
                lowered.recycle(pool);
                values
            }
        }
    }

    /// Raises `elt` into the evaluation domain in place: one multi-modulus
    /// negacyclic forward transform over the whole residue plane — a single
    /// launch at every level, one thread block per residue row running all of
    /// that row's stages under its own modulus (the `ψ`-twist is folded into
    /// the first stage, so this is the whole raise). The rows are transformed
    /// where they lie, so unlike the other ring operations this takes no pool
    /// and `allocs` is `0`.
    ///
    /// # Panics
    ///
    /// Panics if `elt` is already in the evaluation domain.
    pub fn forward_ntt(&self, elt: &mut RingElt) -> LaunchStats {
        assert_eq!(elt.domain, Domain::Coefficient, "element already raised");
        let plans = &self.ntt[..elt.matrix.row_count()];
        let stats = forward_rows(plans, elt.matrix.plane_mut());
        elt.domain = Domain::Evaluation;
        stats
    }

    /// Lowers `elt` back to the coefficient domain in place: the inverse
    /// counterpart of [`RingContext::forward_ntt`], again one launch for the
    /// whole plane (the `ψ^{-i}` untwist rides the scaling pass).
    ///
    /// # Panics
    ///
    /// Panics if `elt` is already in the coefficient domain.
    pub fn inverse_ntt(&self, elt: &mut RingElt) -> LaunchStats {
        assert_eq!(elt.domain, Domain::Evaluation, "element already lowered");
        let plans = &self.ntt[..elt.matrix.row_count()];
        let stats = inverse_rows(plans, elt.matrix.plane_mut());
        elt.domain = Domain::Coefficient;
        stats
    }

    /// Pointwise ring multiply (both operands in the evaluation domain, same
    /// level): one fused RNS `VecMul` across all residue rows.
    ///
    /// # Panics
    ///
    /// Panics on a level or domain mismatch.
    pub fn mul(&self, a: &RingElt, b: &RingElt, pool: &BufferPool) -> (RingElt, LaunchStats) {
        assert_eq!(a.level, b.level, "ring multiply needs matching levels");
        assert_eq!(
            a.domain,
            Domain::Evaluation,
            "ring multiply is pointwise in the evaluation domain"
        );
        assert_eq!(
            b.domain,
            Domain::Evaluation,
            "ring multiply is pointwise in the evaluation domain"
        );
        let (matrix, stats) =
            self.levels[a.level]
                .rns
                .apply(BlasOp::VecMul, None, &a.matrix, &b.matrix, pool);
        (
            RingElt {
                level: a.level,
                domain: Domain::Evaluation,
                matrix,
            },
            stats,
        )
    }

    /// Coefficient-wise addition (any domain, but both operands in the same
    /// one — addition commutes with the transform).
    ///
    /// # Panics
    ///
    /// Panics on a level or domain mismatch.
    pub fn add(&self, a: &RingElt, b: &RingElt, pool: &BufferPool) -> (RingElt, LaunchStats) {
        assert_eq!(a.level, b.level, "ring add needs matching levels");
        assert_eq!(a.domain, b.domain, "ring add needs matching domains");
        let (matrix, stats) =
            self.levels[a.level]
                .rns
                .apply(BlasOp::VecAdd, None, &a.matrix, &b.matrix, pool);
        (
            RingElt {
                level: a.level,
                domain: a.domain,
                matrix,
            },
            stats,
        )
    }

    /// Drops the level's last modulus `q_k` with rounding: one residue-local
    /// launch, `y_r = (x_r − c)·q_k⁻¹ + (c > q_k/2) mod q_r` per surviving
    /// row — the rows of the next level's basis, so nothing is converted.
    ///
    /// # Panics
    ///
    /// Panics if `elt` is in the evaluation domain or already at the floor.
    pub fn rescale_to_next_level(
        &self,
        elt: &RingElt,
        pool: &BufferPool,
    ) -> (RingElt, LaunchStats) {
        assert_eq!(
            elt.domain,
            Domain::Coefficient,
            "rescale operates on coefficients"
        );
        let lvl = &self.levels[elt.level];
        let step = lvl.step.as_ref().expect("already at the ladder floor");
        let (matrix, stats) = lvl.rns.scale_and_round(step, &elt.matrix, pool);
        (
            RingElt {
                level: elt.level + 1,
                domain: Domain::Coefficient,
                matrix,
            },
            stats,
        )
    }

    /// One full ladder level: `a·b` divided by the level's last modulus with
    /// rounding, over the next level's basis. Operands may come in either
    /// domain: a coefficient-domain one is raised on a pooled copy (one
    /// launch), an evaluation-domain one is read where it lies. Passing the
    /// same element for `a` and `b` squares it with at most one raise.
    ///
    /// The product never leaves the evaluation domain. Rescale is linear, so
    /// with `c` the product's residue under the dropped modulus `q_k` and
    /// `δ = (c > q_k/2)`, every survivor row `r` is
    /// `ŷ_r = (â_r·b̂_r − NTT_r(c − δ·q_k))·q_k⁻¹ mod q_r`: one single-row
    /// launch forms and lowers the dropped row to get `c`, and one launch over
    /// the survivors builds, raises and applies the correction rows — `k` row
    /// transforms for `k` moduli. The result is in the evaluation domain and,
    /// once lowered, bit-identical to [`RingContext::rescale_to_next_level`]
    /// on the lowered product. The step onto the ladder floor is the
    /// exception: there the product is lowered (2 rows) and rescaled on
    /// coefficients, so a ladder ends in the coefficient domain.
    ///
    /// All intermediates are recycled into `pool`, so a warm pool makes the
    /// whole step allocation-free.
    ///
    /// # Panics
    ///
    /// Panics on a level mismatch or if `a` is at the ladder floor.
    pub fn ladder_step(
        &self,
        a: &RingElt,
        b: &RingElt,
        pool: &BufferPool,
    ) -> (RingElt, LaunchStats) {
        assert_eq!(a.level, b.level, "ring multiply needs matching levels");
        assert!(a.level < self.steps(), "already at the ladder floor");
        let mut stats = LaunchStats::default();
        let squaring = std::ptr::eq(a, b);
        let raised_a = self.raised_copy(a, pool, &mut stats);
        let raised_b = if squaring {
            None
        } else {
            self.raised_copy(b, pool, &mut stats)
        };
        let fa = raised_a.as_ref().unwrap_or(a);
        let fb = if squaring {
            fa
        } else {
            raised_b.as_ref().unwrap_or(b)
        };
        let (next, s) = if a.level + 1 == self.steps() {
            let (mut prod, s) = self.mul(fa, fb, pool);
            stats.accumulate(s);
            stats.accumulate(self.inverse_ntt(&mut prod));
            let rescaled = self.rescale_to_next_level(&prod, pool);
            prod.recycle(pool);
            rescaled
        } else {
            self.mul_rescale(fa, fb, pool)
        };
        stats.accumulate(s);
        for raised in [raised_a, raised_b].into_iter().flatten() {
            raised.recycle(pool);
        }
        (next, stats)
    }

    /// A raised pooled copy of `elt` if it holds coefficients, `None` if it
    /// is already in the evaluation domain.
    fn raised_copy(
        &self,
        elt: &RingElt,
        pool: &BufferPool,
        stats: &mut LaunchStats,
    ) -> Option<RingElt> {
        (elt.domain == Domain::Coefficient).then(|| {
            let mut raised = elt.clone_with_pool(pool);
            stats.accumulate(self.forward_ntt(&mut raised));
            raised
        })
    }

    /// `a·b` (both raised, same level, above the floor) rescaled onto the next
    /// level's basis without leaving the evaluation domain: the two launches
    /// [`RingContext::ladder_step`] describes. Each launch reports its thread
    /// blocks' `n/2` butterfly threads per transformed row, as the raise and
    /// lower launches do.
    fn mul_rescale(&self, a: &RingElt, b: &RingElt, pool: &BufferPool) -> (RingElt, LaunchStats) {
        let n = self.n;
        let step = self.levels[a.level]
            .step
            .as_ref()
            .expect("already at the ladder floor");
        let survivors = a.matrix.row_count() - 1;
        let dropped = &self.ntt[survivors];
        let (q_k, half) = (dropped.ring.q, dropped.ring.q / 2);

        // The dropped modulus' product row, lowered: `c`.
        let misses_before = pool.misses();
        let mut c = pool.acquire(n);
        let mut stats = launch_chunks(&mut c, n, |_, c| {
            let (ctx, narrow) = (&dropped.ring, dropped.ring.is_narrow());
            let (ar, br) = (a.matrix.row(survivors), b.matrix.row(survivors));
            for ((c, &x), &y) in c.iter_mut().zip(ar).zip(br) {
                *c = mul_mod(ctx, narrow, x, y);
            }
            dropped.inverse(c);
        });
        stats.threads = n / 2;
        stats.allocs += (pool.misses() - misses_before) as usize;

        // Every survivor row: the correction `e_r = c − δ·q_k mod q_r`, raised
        // in place, then `(â_r·b̂_r − ê_r)·q_k⁻¹`.
        let (matrix, mut s) = RnsMatrix::filled_from(pool, survivors, n, |data| {
            launch_chunks(data, n, |r, row| {
                let plan = &self.ntt[r];
                let (ctx, narrow) = (&plan.ring, plan.ring.is_narrow());
                let q_k_r = ctx.reduce_word(q_k);
                for (e, &c) in row.iter_mut().zip(&c) {
                    let c_r = ctx.reduce_word(c);
                    *e = if c > half {
                        ctx.sub_mod(c_r, q_k_r)
                    } else {
                        c_r
                    };
                }
                plan.forward(row);
                let inv = step.inverse_table()[r];
                let inv_shoup = ctx.shoup_precompute(inv);
                let (ar, br) = (a.matrix.row(r), b.matrix.row(r));
                for ((e, &x), &y) in row.iter_mut().zip(ar).zip(br) {
                    let diff = ctx.sub_mod(mul_mod(ctx, narrow, x, y), *e);
                    *e = ctx.mul_mod_shoup(diff, inv, inv_shoup);
                }
            })
        });
        s.threads = survivors * n / 2;
        stats.accumulate(s);
        pool.recycle(c);
        (
            RingElt {
                level: a.level + 1,
                domain: Domain::Evaluation,
                matrix,
            },
            stats,
        )
    }
}

/// One element of the ring at some ladder level, tracking which domain its
/// residue rows currently hold. The residue plane is pooled: hand it back with
/// [`RingElt::recycle`] when the element is done (owners with a `Drop`-based
/// lifecycle, like `moma`'s session handles, wrap this).
pub struct RingElt {
    level: usize,
    domain: Domain,
    matrix: RnsMatrix,
}

impl RingElt {
    /// The element's ladder level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The element's current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The underlying residue matrix (rows = basis moduli, cols = n).
    pub fn matrix(&self) -> &RnsMatrix {
        &self.matrix
    }

    /// A copy of this element whose residue plane comes from `pool` — the
    /// pooled twin of `Clone`, mirroring [`RnsMatrix::clone_with_pool`].
    pub fn clone_with_pool(&self, pool: &BufferPool) -> RingElt {
        RingElt {
            level: self.level,
            domain: self.domain,
            matrix: self.matrix.clone_with_pool(pool),
        }
    }

    /// Hands the residue plane back to `pool`.
    pub fn recycle(mut self, pool: &BufferPool) {
        pool.recycle(self.matrix.take_storage());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::ladder_primes;
    use crate::oracle;
    use moma_bignum::random::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_coeffs(seed: u64, ring: &RingContext, level: usize) -> Vec<BigUint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ring.n())
            .map(|_| random_below(&mut rng, ring.product(level)))
            .collect()
    }

    #[test]
    fn ring_multiply_matches_schoolbook_oracle() {
        let n = 16;
        let moduli = ladder_primes(n, &[50, 30, 45]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(1, &ring, 0);
        let b = random_coeffs(2, &ring, 0);

        let mut ea = ring.encode(0, &a, &pool);
        let mut eb = ring.encode(0, &b, &pool);
        ring.forward_ntt(&mut ea);
        ring.forward_ntt(&mut eb);
        let (mut prod, _) = ring.mul(&ea, &eb, &pool);
        ring.inverse_ntt(&mut prod);
        let got = ring.decode(&prod, &pool);

        assert_eq!(got, oracle::negacyclic_mul(ring.product(0), &a, &b));
        for e in [ea, eb, prod] {
            e.recycle(&pool);
        }
    }

    #[test]
    fn add_matches_oracle_in_both_domains() {
        let n = 8;
        let moduli = ladder_primes(n, &[40, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(3, &ring, 0);
        let b = random_coeffs(4, &ring, 0);
        let want = oracle::add(ring.product(0), &a, &b);

        // Coefficient domain.
        let ea = ring.encode(0, &a, &pool);
        let eb = ring.encode(0, &b, &pool);
        let (sum, _) = ring.add(&ea, &eb, &pool);
        assert_eq!(ring.decode(&sum, &pool), want);
        sum.recycle(&pool);

        // Evaluation domain: add commutes with the transform.
        let mut fa = ea.clone_with_pool(&pool);
        let mut fb = eb.clone_with_pool(&pool);
        ring.forward_ntt(&mut fa);
        ring.forward_ntt(&mut fb);
        let (mut fsum, _) = ring.add(&fa, &fb, &pool);
        ring.inverse_ntt(&mut fsum);
        assert_eq!(ring.decode(&fsum, &pool), want);
        for e in [ea, eb, fa, fb, fsum] {
            e.recycle(&pool);
        }
    }

    #[test]
    fn full_ladder_matches_oracle_replay() {
        let n = 8;
        let moduli = ladder_primes(n, &[50, 30, 45, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(5, &ring, 0);
        let b = random_coeffs(6, &ring, 0);

        let ea = ring.encode(0, &a, &pool);
        let eb = ring.encode(0, &b, &pool);
        let (mut cur, _) = ring.ladder_step(&ea, &eb, &pool);
        ea.recycle(&pool);
        eb.recycle(&pool);
        for _ in 1..ring.steps() {
            let (next, _) = ring.ladder_step(&cur, &cur, &pool);
            cur.recycle(&pool);
            cur = next;
        }
        assert_eq!(cur.level(), ring.steps());
        assert_eq!(ring.basis(cur.level()), &moduli[..1]);
        let got = ring.decode(&cur, &pool);
        cur.recycle(&pool);

        assert_eq!(got, oracle::ladder_replay(&moduli, &a, &b, ring.steps()));
    }

    #[test]
    fn raise_and_lower_cost_one_launch_at_every_level() {
        // The whole residue plane rides one block-resident launch: one launch
        // per raise or lower at every level, only the thread count (n/2
        // butterfly threads per row block) follows the number of live moduli.
        let n = 32;
        let moduli = ladder_primes(n, &[50, 30, 45, 30, 40]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();

        let mut cur = ring.encode(0, &random_coeffs(8, &ring, 0), &pool);
        for level in 0..ring.level_count() {
            let rows = ring.basis(level).len();
            let raised = ring.forward_ntt(&mut cur);
            assert_eq!(raised.launches, 1, "raise at level {level}");
            assert_eq!(raised.threads, rows * n / 2);
            let (mut sq, _) = ring.mul(&cur, &cur, &pool);
            let lowered = ring.inverse_ntt(&mut sq);
            assert_eq!(lowered.launches, 1, "lower at level {level}");
            assert_eq!(lowered.threads, rows * n / 2);
            cur.recycle(&pool);
            cur = if level < ring.steps() {
                let (next, _) = ring.rescale_to_next_level(&sq, &pool);
                sq.recycle(&pool);
                next
            } else {
                sq
            };
        }
        cur.recycle(&pool);
    }

    #[test]
    fn raise_and_lower_leave_a_cold_pool_untouched() {
        // The rows are transformed where they lie: the transforms take no pool
        // and report no plane allocation.
        let n = 32;
        let ring = RingContext::new(n, &ladder_primes(n, &[50, 30, 45]));
        let coeffs = random_coeffs(9, &ring, 0);
        let mut elt = ring.encode(0, &coeffs, &BufferPool::new());
        assert_eq!(ring.forward_ntt(&mut elt).allocs, 0);
        assert_eq!(ring.inverse_ntt(&mut elt).allocs, 0);
        let decoded = ring.decode(&elt, &BufferPool::new());
        assert_eq!(decoded, coeffs, "lower ∘ raise is the identity");
    }

    #[test]
    fn decoding_an_evaluation_form_element_leaves_it_untouched_and_is_allocation_free_when_warm() {
        let n = 32;
        let ring = RingContext::new(n, &ladder_primes(n, &[50, 30, 45]));
        let pool = BufferPool::new();
        let coeffs = random_coeffs(14, &ring, 0);
        let mut elt = ring.encode(0, &coeffs, &pool);
        ring.forward_ntt(&mut elt);
        let raised = elt.matrix().clone();
        assert_eq!(ring.decode(&elt, &pool), coeffs, "cold decode");
        let misses = pool.misses();
        assert_eq!(ring.decode(&elt, &pool), coeffs, "warm decode");
        assert_eq!(pool.misses(), misses, "a warm decode allocates no plane");
        assert_eq!(elt.domain(), Domain::Evaluation);
        assert_eq!(
            elt.matrix(),
            &raised,
            "decode lowers a copy, not the element"
        );
        elt.recycle(&pool);
    }

    #[test]
    fn warm_pool_ladder_is_allocation_free() {
        let n = 32;
        let moduli = ladder_primes(n, &[50, 30, 45, 30, 40]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(7, &ring, 0);

        let run = |pool: &BufferPool| -> usize {
            let ea = ring.encode(0, &a, pool);
            let mut allocs = 0;
            let (mut cur, s) = ring.ladder_step(&ea, &ea, pool);
            allocs += s.allocs;
            ea.recycle(pool);
            for _ in 1..ring.steps() {
                let (next, s) = ring.ladder_step(&cur, &cur, pool);
                allocs += s.allocs;
                cur.recycle(pool);
                cur = next;
            }
            cur.recycle(pool);
            allocs
        };

        let cold = run(&pool);
        let warm = run(&pool);
        assert!(cold > 0, "cold run must miss the empty pool");
        assert_eq!(warm, 0, "warm ladder must be allocation-free");
    }

    #[test]
    fn rescale_is_one_launch_at_every_level_and_allocation_free_when_warm() {
        let n = 32;
        let ring = RingContext::new(n, &ladder_primes(n, &[50, 30, 45, 30, 40]));
        let pool = BufferPool::new();
        for pass in ["cold", "warm"] {
            for level in 0..ring.steps() {
                let elt = ring.encode(level, &random_coeffs(10, &ring, level), &pool);
                let (out, stats) = ring.rescale_to_next_level(&elt, &pool);
                assert_eq!(stats.launches, 1, "{pass} rescale at level {level}");
                assert_eq!(stats.threads, ring.basis(level + 1).len());
                if pass == "warm" {
                    assert_eq!(stats.allocs, 0, "warm rescale at level {level}");
                }
                elt.recycle(&pool);
                out.recycle(&pool);
            }
        }
    }

    #[test]
    fn eight_level_ladder_is_nineteen_launches_and_sixty_two_row_transforms() {
        // Every launch that transforms rows reports n/2 butterfly threads per
        // row, so a step's threads count its row transforms. a·b raises both
        // level-0 operands (9 rows each, 2 launches); every step above the
        // floor is then 2 launches on a k-row basis: the dropped row lowered
        // (1 row) and the survivors' corrections raised (k − 1 rows). The
        // step onto the floor multiplies (one thread per row, 2), lowers its 2
        // rows and rescales on coefficients (one thread per survivor row, 1).
        let n = 16;
        let ring = RingContext::new(n, &crate::ladder::default_ladder(n, 8));
        assert_eq!(ring.steps(), 8);
        let pool = BufferPool::new();
        let ea = ring.encode(0, &random_coeffs(11, &ring, 0), &pool);
        let eb = ring.encode(0, &random_coeffs(12, &ring, 0), &pool);
        let (mut cur, first) = ring.ladder_step(&ea, &eb, &pool);
        assert_eq!((first.launches, first.threads), (4, (9 + 9 + 9) * n / 2));
        let (mut launches, mut transforms) = (first.launches, first.threads / (n / 2));
        for level in 1..ring.steps() {
            assert_eq!(cur.domain(), Domain::Evaluation, "between steps");
            let (next, stats) = ring.ladder_step(&cur, &cur, &pool);
            // (launches, row transforms, threads of the launches that
            // transform nothing)
            let (want_launches, want_rows, other_threads) = if level + 1 < ring.steps() {
                (2, ring.basis(level).len(), 0)
            } else {
                (3, 2, 2 + 1)
            };
            assert_eq!(stats.launches, want_launches, "launches at level {level}");
            let transformed = (stats.threads - other_threads) / (n / 2);
            assert_eq!(transformed, want_rows, "row transforms at level {level}");
            launches += stats.launches;
            transforms += transformed;
            cur.recycle(&pool);
            cur = next;
        }
        assert_eq!(cur.domain(), Domain::Coefficient, "a ladder ends lowered");
        assert_eq!(launches, 19);
        assert_eq!(transforms, 62);
        for e in [ea, eb, cur] {
            e.recycle(&pool);
        }
    }

    #[test]
    fn rescale_matches_the_oracle_at_the_edges_of_every_level() {
        // Down this ladder the dropped modulus is in turn between the
        // survivors (50 bits under a 60-bit row), below all of them (the
        // second 30-bit prime: the fold of `c` is inert), between again, and
        // above the only survivor (60 bits over 30, k = 2: the fold is live).
        let n = 16;
        let moduli = ladder_primes(n, &[30, 60, 45, 30, 50]);
        assert!(moduli[3] < moduli[0]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(13);
        for level in 0..ring.steps() {
            let basis = ring.basis(level);
            let q = ring.product(level);
            let last = BigUint::from(*basis.last().unwrap());
            let half = BigUint::from(basis.last().unwrap() / 2);
            let one = BigUint::one();
            let top_quotient = &(q / &last) - &one;
            // 0, 1, Q−1; exact multiples of the dropped modulus; and, over the
            // smallest and the largest quotient, the last residue on both
            // sides of the rounding threshold and at its maximum.
            let mut coeffs = vec![BigUint::zero(), one.clone(), q - &one];
            let t = random_below(&mut rng, &top_quotient);
            coeffs.extend([&one, &top_quotient, &t].map(|t| t * &last));
            for t in [BigUint::zero(), top_quotient] {
                let base = &t * &last;
                coeffs.extend([&half, &(&half + &one), &(&last - &one)].map(|c| &base + c));
            }
            coeffs.extend((coeffs.len()..n).map(|_| random_below(&mut rng, q)));
            assert_eq!(coeffs.len(), n);

            let want = oracle::rescale(&RnsContext::with_moduli(basis), &coeffs);
            let elt = ring.encode(level, &coeffs, &pool);
            let (out, _) = ring.rescale_to_next_level(&elt, &pool);

            // The same edges through the evaluation-domain rescale a ladder
            // step runs, as the product `coeffs · 1`.
            let mut unit = vec![BigUint::zero(); n];
            unit[0] = one.clone();
            let mut raised = elt.clone_with_pool(&pool);
            let mut raised_unit = ring.encode(level, &unit, &pool);
            ring.forward_ntt(&mut raised);
            ring.forward_ntt(&mut raised_unit);
            let (mut evaluated, _) = ring.mul_rescale(&raised, &raised_unit, &pool);
            assert_eq!(evaluated.domain(), Domain::Evaluation);
            let next = ring.basis(level + 1);
            for (r, &q_r) in next.iter().enumerate() {
                let row = evaluated.matrix().row(r);
                assert!(row.iter().all(|&y| y < q_r), "level {level}, row {r}");
            }
            assert_eq!(
                ring.decode(&evaluated, &pool),
                want,
                "level {level}, raised"
            );
            ring.inverse_ntt(&mut evaluated);

            assert_eq!(ring.decode(&out, &pool), want, "level {level}");
            // Decoding forgives a residue of `q_r`; the plane must not hold one.
            for (c, w) in want.iter().enumerate() {
                let residues = ring.rns_plan(level + 1).to_residues(w);
                assert_eq!(out.matrix().element(c), residues, "level {level}, {c}");
                assert_eq!(
                    evaluated.matrix().element(c),
                    residues,
                    "level {level}, {c}"
                );
            }
            for e in [elt, out, raised, raised_unit, evaluated] {
                e.recycle(&pool);
            }
        }
    }

    #[test]
    fn rescale_is_exact_division_when_divisible() {
        // A coefficient vector divisible by the last modulus rescales to the
        // exact quotient (the rounding term vanishes).
        let n = 4;
        let moduli = ladder_primes(n, &[40, 30, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let last = BigUint::from(moduli[2]);
        let coeffs: Vec<BigUint> = (1..=n as u64)
            .map(|i| BigUint::from(i).mod_mul(&last, ring.product(0)))
            .collect();
        let elt = ring.encode(0, &coeffs, &pool);
        let (out, _) = ring.rescale_to_next_level(&elt, &pool);
        let got = ring.decode(&out, &pool);
        let want: Vec<BigUint> = coeffs.iter().map(|c| c / &last).collect();
        assert_eq!(got, want);
        elt.recycle(&pool);
        out.recycle(&pool);
    }
}
