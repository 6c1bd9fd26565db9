//! NTT execution on the simulated GPU launcher: a stage-launched executor and
//! a block-resident one, for single-word ([`NttPlan64`]) transforms.
//!
//! The inline plan path ([`NttPlan64::forward`]) walks the butterfly stages as
//! serial host loops. The paper maps **one CUDA thread per butterfly** (§5.1);
//! this module reproduces both ways it orders the stages:
//!
//! * **Stage launches** — each stage is its own grid
//!   ([`moma_gpu::launch_indexed`], one virtual thread per butterfly), reading
//!   the plan's twiddles through [`NttPlan64::stage`]; the join at the end of
//!   each launch is the grid barrier. The data lives in a pooled `AtomicU64`
//!   plane for the duration of the transform. Within a stage every butterfly
//!   touches only its own pair of slots, so relaxed atomics are just the
//!   safe-Rust spelling of CUDA's disjoint global-memory accesses. Butterflies
//!   use the inline loop's primitives — the `u64` lazy Shoup product
//!   ([`NttWord::mul_mod_shoup_lazy`]) and fold ([`reduce_once`]) — and its
//!   `[0, 4q)` lazy reduction; a final element-parallel pass normalizes. A
//!   batch of same-size transforms rides *one* launch per stage (grid =
//!   rows × n/2): `log2 n + 1` launches whatever the row count.
//! * **Block-resident** — a whole transform stays in one thread block's shared
//!   memory and the block loops over the stages itself: one launch per
//!   transform, which is how the paper runs every size below the Figure 3a
//!   cliff and how [`moma_gpu::cost::CostModel::estimate_ntt`] prices it. Here
//!   a block is one [`moma_gpu::launch_chunks`] chunk — the row's own
//!   contiguous `&mut [u64]`, transformed in place by the plan's inline loop:
//!   plain loads and stores, no working plane, nothing allocated. It assumes
//!   the cost model's fit, `2·n·8 B ≤ shared_mem_bytes` (a 64-bit row plus its
//!   twiddles; 64 KiB at n = 4096, within all three modelled devices).
//!
//! Four entry points, one pair per executor:
//!
//! | entry point | executor | launches |
//! | --- | --- | --- |
//! | [`forward_rows`] / [`inverse_rows`]: a plan (modulus) per row — the residue plane of a ring element, `moma-ring`'s raise/lower | block-resident | 1 |
//! | [`NttPlan64::forward_batch_on_launcher`] / [`NttPlan64::inverse_batch_on_launcher`]: one plan for every row, working plane from the caller's [`BufferPool`] — `Session`'s `NttSpace` (a single transform is a one-row batch; a stand-alone caller passes `&BufferPool::new()`) | stage | `log2 n + 1` |
//!
//! Multi-word plans ([`crate::NttPlan`], the same [`crate::plan::Plan`] type on
//! a wider word) run inline only. `tests/launcher_props.rs` pins the two
//! executors bit-for-bit against each other and the inline plan. On
//! a small host the stage executor degrades to the inline loop plus per-stage
//! launch bookkeeping — the overhead `reproduce bench` records as the
//! `ntt_launcher` entry.

use crate::plan::{reduce_once, NttPlan64, NttWord, Stage64};
use moma_gpu::launch::{launch_chunks, launch_indexed, LaunchStats};
use moma_gpu::pool::BufferPool;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maps a butterfly index `t ∈ [0, n/2)` of a stage with half-length `m` to the
/// data index of its upper input; the lower input sits `m` slots later.
#[inline]
fn butterfly_base(t: usize, m: usize) -> usize {
    let log_m = m.trailing_zeros();
    ((t >> log_m) << (log_m + 1)) | (t & (m - 1))
}

/// What the threads of one launch read of one row's plan: the row's modulus
/// and the factor table (with Shoup quotients) that launch indexes — a stage's
/// twiddles, the folded twist, or the inverse's scaling factors.
#[derive(Clone, Copy)]
struct RowView<'p> {
    q: u64,
    two_q: u64,
    table: Stage64<'p>,
}

/// Refills `views` for the next launch: one entry per row, `table_of` picking
/// the table that launch needs from each row's plan. Done once per launch on
/// the calling thread, so the per-butterfly closure pays one indexed load
/// instead of a plan lookup.
fn gather_rows<'p>(
    views: &mut Vec<RowView<'p>>,
    rows: usize,
    plan_of: &impl Fn(usize) -> &'p NttPlan64,
    table_of: impl Fn(&'p NttPlan64) -> Stage64<'p>,
) {
    views.clear();
    views.extend((0..rows).map(|r| {
        let plan = plan_of(r);
        RowView {
            q: plan.ring.q,
            two_q: plan.two_q(),
            table: table_of(plan),
        }
    }));
}

/// The one stage-launched executor for [`NttPlan64`]: transforms row `r` of the
/// flat `rows × n` buffer `data` in place under `plan_of(r)` — its own modulus,
/// twiddle and Shoup tables, folded negacyclic twist and scaling factors — with
/// **one launch per butterfly stage covering every row** (grid = rows × n/2, one
/// virtual thread per butterfly) and one element-parallel normalize/scale
/// launch: `log2 n + 1` launches whatever `rows` is. A same-modulus batch is the
/// case where every row names the same plan.
///
/// The data lives in a `rows × n` plane of atomics acquired from `pool` for the
/// duration of the transform; `allocs` in the returned statistics counts that
/// plane — the pool-miss delta of the window, so a warm pool reports `0`. Inputs
/// must be reduced below their row's modulus; outputs are reduced.
///
/// # Panics
///
/// Panics if `rows` is zero, if the rows' plans disagree on the transform size
/// or mix cyclic with negacyclic transforms, or if `data.len() != rows × n`.
fn transform_rows<'p>(
    rows: usize,
    plan_of: impl Fn(usize) -> &'p NttPlan64,
    data: &mut [u64],
    forward: bool,
    pool: &BufferPool,
) -> LaunchStats {
    assert!(rows > 0, "a transform needs at least one row");
    let n = plan_of(0).n;
    let negacyclic = plan_of(0).is_negacyclic();
    for r in 1..rows {
        assert_eq!(
            plan_of(r).n,
            n,
            "every row's plan must have the same transform size (row {r})"
        );
        assert_eq!(
            plan_of(r).is_negacyclic(),
            negacyclic,
            "cyclic and negacyclic plans cannot share one stage launch (row {r})"
        );
    }
    assert_eq!(
        data.len(),
        rows * n,
        "data length must be rows × the transform size"
    );
    let half = n / 2;
    let log_half = half.trailing_zeros();
    let log_n = log_half + 1;

    let misses_before = pool.misses();
    let cells: Vec<AtomicU64> = pool.acquire_cells(data.len());
    // Every row has the same n, so the first plan's swap list permutes them all.
    let reversal = plan_of(0).bit_reversal();
    for (row, row_cells) in data.chunks_exact_mut(n).zip(cells.chunks_exact(n)) {
        reversal.apply(row);
        for (cell, &x) in row_cells.iter().zip(row.iter()) {
            cell.store(x, Ordering::Relaxed);
        }
    }

    let mut stats = LaunchStats::default();
    let mut views = Vec::with_capacity(rows);
    let mut m = 1;
    while m < n {
        // Thread t handles butterfly t % (n/2) of row t / (n/2).
        let round = if m == 1 && forward && negacyclic {
            // A negacyclic forward folds the twist into its first stage: each
            // input is multiplied by its slot's ψ^{rev(i)} factor (lazy Shoup
            // product, [0, 2q)) before the add/sub — the same launch the plain
            // stage-1 butterflies would have used, with the twist riding along.
            gather_rows(&mut views, rows, &plan_of, |plan| {
                plan.twist().expect("checked negacyclic above").forward
            });
            launch_indexed(rows * half, |t| {
                let row = t >> log_half;
                let RowView { q, two_q, table } = views[row];
                let j = 2 * (t & (half - 1));
                let i = (row << log_n) + j;
                let x = cells[i].load(Ordering::Relaxed);
                let y = cells[i + 1].load(Ordering::Relaxed);
                let t0 = u64::mul_mod_shoup_lazy(x, table.twiddles[j], table.shoup[j], q);
                let t1 = u64::mul_mod_shoup_lazy(y, table.twiddles[j + 1], table.shoup[j + 1], q);
                cells[i].store(t0 + t1, Ordering::Relaxed);
                cells[i + 1].store(t0 + two_q - t1, Ordering::Relaxed);
            })
        } else {
            gather_rows(&mut views, rows, &plan_of, |plan| plan.stage(forward, m));
            launch_indexed(rows * half, |t| {
                let row = t >> log_half;
                let RowView { q, two_q, table } = views[row];
                let bf = t & (half - 1);
                let i = (row << log_n) + butterfly_base(bf, m);
                let k = i + m;
                let j = bf & (m - 1);
                // Harvey's lazy butterfly, identical to the inline hot loop: fold
                // x into [0, 2q), take the lazy Shoup product t = w·y mod q in
                // [0, 2q), and emit x + t and x − t + 2q, both < 4q.
                let x = reduce_once(cells[i].load(Ordering::Relaxed), two_q);
                let y = cells[k].load(Ordering::Relaxed);
                let t = u64::mul_mod_shoup_lazy(y, table.twiddles[j], table.shoup[j], q);
                cells[i].store(x + t, Ordering::Relaxed);
                cells[k].store(x + two_q - t, Ordering::Relaxed);
            })
        };
        stats.accumulate(round);
        m <<= 1;
    }

    // The final pass writes `data` in place through `launch_chunks` (chunk
    // length 1, so the thread count still equals the element count): no output
    // plane is allocated.
    let pass = if forward {
        // Normalize from [0, 4q); `views` still carries every row's q and 2q
        // from the last stage.
        launch_chunks(data, 1, |i, out| {
            let RowView { q, two_q, .. } = views[i >> log_n];
            out[0] = reduce_once(reduce_once(cells[i].load(Ordering::Relaxed), two_q), q);
        })
    } else {
        // The scaling multiply doubles as the normalize pass, as in the inline
        // plan; on a negacyclic row the per-index ψ^{-i}·n^{-1} factor unfolds
        // the twist inside the same multiply.
        gather_rows(&mut views, rows, &plan_of, NttPlan64::inverse_scale);
        launch_chunks(data, 1, |i, out| {
            let RowView { q, table, .. } = views[i >> log_n];
            let j = i & (table.twiddles.len() - 1);
            let x = cells[i].load(Ordering::Relaxed);
            out[0] = reduce_once(
                u64::mul_mod_shoup_lazy(x, table.twiddles[j], table.shoup[j], q),
                q,
            );
        })
    };
    stats.accumulate(pass);

    pool.recycle_cells(cells);
    stats.allocs += (pool.misses() - misses_before) as usize;
    stats
}

/// The block-resident executor: one launch whose thread blocks are the rows.
/// `block` runs every stage of one row on that row's own `&mut [u64]`, so the
/// plane is transformed where it lies — no working copy, no atomics.
fn resident_rows<P: Borrow<NttPlan64> + Sync>(
    plans: &[P],
    data: &mut [u64],
    block: impl Fn(&NttPlan64, &mut [u64]) + Sync,
) -> LaunchStats {
    assert!(!plans.is_empty(), "a transform needs at least one row");
    let first: &NttPlan64 = plans[0].borrow();
    let n = first.n;
    for (r, plan) in plans.iter().enumerate().skip(1) {
        let plan: &NttPlan64 = plan.borrow();
        assert_eq!(
            plan.n, n,
            "every row's plan must have the same transform size (row {r})"
        );
        assert_eq!(
            plan.is_negacyclic(),
            first.is_negacyclic(),
            "cyclic and negacyclic plans cannot share one stage launch (row {r})"
        );
    }
    assert_eq!(
        data.len(),
        plans.len() * n,
        "data length must be rows × the transform size"
    );
    let mut stats = launch_chunks(data, n, |r, row| block(plans[r].borrow(), row));
    // A block is n/2 butterfly threads looping over the stages.
    stats.threads = plans.len() * n / 2;
    stats
}

/// Forward-transforms row `r` of the flat `plans.len() × n` buffer `data` in
/// place under `plans[r]` — each row its own modulus — in **one launch**: one
/// virtual thread block per row (`n/2` butterfly threads each), which keeps its
/// row resident and runs all `log2 n` stages, the folded twist and the
/// normalize pass through [`NttPlan64::forward`]. This is the raise of a ring
/// element's whole residue plane. Nothing is allocated: `allocs == 0`.
///
/// Inputs must be reduced below their row's modulus; outputs are reduced.
///
/// # Panics
///
/// Panics if `plans` is empty, if the plans disagree on the transform size or
/// mix cyclic with negacyclic transforms, or if `data.len() != plans.len() × n`.
pub fn forward_rows<P: Borrow<NttPlan64> + Sync>(plans: &[P], data: &mut [u64]) -> LaunchStats {
    resident_rows(plans, data, NttPlan64::forward)
}

/// Inverse counterpart of [`forward_rows`] (with each row's `1/n` scaling, and
/// the `ψ^{-i}` untwist on negacyclic plans, inside the same block).
///
/// # Panics
///
/// Panics under the conditions of [`forward_rows`].
pub fn inverse_rows<P: Borrow<NttPlan64> + Sync>(plans: &[P], data: &mut [u64]) -> LaunchStats {
    resident_rows(plans, data, NttPlan64::inverse)
}

impl NttPlan64 {
    /// Forward-transforms a whole batch of `data.len() / n` transforms in place,
    /// with each butterfly stage of **all** transforms dispatched as one launch
    /// (grid = batch × n/2, one virtual thread per butterfly) — the paper's
    /// batched NTT. The per-stage grid barrier is paid once per stage, not once
    /// per transform: the returned statistics report `log2 n + 1` launches
    /// however large the batch is. A single transform is a batch of one.
    ///
    /// The atomic working plane is acquired from (and returned to) `pool`; the
    /// statistics count pool *misses* in the window as allocations, so a warm
    /// pool reports `allocs == 0`. Inputs must be reduced (`< q`); outputs are
    /// reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn forward_batch_on_launcher(&self, data: &mut [u64], pool: &BufferPool) -> LaunchStats {
        self.transform_batch(data, true, pool)
    }

    /// Inverse counterpart of [`NttPlan64::forward_batch_on_launcher`] (with
    /// `1/n` scaling): one launch per butterfly stage across the whole batch,
    /// working plane from `pool`. Inputs must be reduced; outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn inverse_batch_on_launcher(&self, data: &mut [u64], pool: &BufferPool) -> LaunchStats {
        self.transform_batch(data, false, pool)
    }

    /// A same-modulus batch is the row executor with every row naming `self`.
    fn transform_batch(&self, data: &mut [u64], forward: bool, pool: &BufferPool) -> LaunchStats {
        assert!(
            !data.is_empty() && data.len() % self.n == 0,
            "data length must be a non-zero multiple of the transform size"
        );
        transform_rows(data.len() / self.n, |_| self, data, forward, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::butterfly_count;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn butterfly_index_mapping_covers_every_pair_once() {
        let n = 16;
        for m in [1usize, 2, 4, 8] {
            let mut seen = vec![0u32; n];
            for t in 0..n / 2 {
                let i = butterfly_base(t, m);
                seen[i] += 1;
                seen[i + m] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "m = {m}: {seen:?}");
        }
    }

    #[test]
    fn launcher64_matches_inline_plan() {
        let plan = NttPlan64::new(256);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(91);
        let data: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % plan.ring.q).collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        let stats = plan.forward_batch_on_launcher(&mut launched, &pool);
        assert_eq!(launched, inline, "forward must match the inline plan");
        // (n/2)·log2 n butterflies plus the n-element normalize pass.
        assert_eq!(stats.threads as u64, butterfly_count(256) + 256);
        plan.inverse(&mut inline);
        plan.inverse_batch_on_launcher(&mut launched, &pool);
        assert_eq!(launched, inline, "inverse must match the inline plan");
        assert_eq!(launched, data, "inverse ∘ forward must be the identity");
    }

    #[test]
    fn launcher64_outputs_are_fully_reduced() {
        let plan = NttPlan64::new(128);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(92);
        let mut data: Vec<u64> = (0..128).map(|_| rng.gen::<u64>() % plan.ring.q).collect();
        plan.forward_batch_on_launcher(&mut data, &pool);
        assert!(data.iter().all(|&x| x < plan.ring.q));
        plan.inverse_batch_on_launcher(&mut data, &pool);
        assert!(data.iter().all(|&x| x < plan.ring.q));
    }

    #[test]
    fn batched_launcher_matches_per_transform_launcher() {
        let n = 128;
        let batch = 5;
        let plan = NttPlan64::new(n);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(94);
        let data: Vec<u64> = (0..batch * n)
            .map(|_| rng.gen::<u64>() % plan.ring.q)
            .collect();
        let mut batched = data.clone();
        let stats = plan.forward_batch_on_launcher(&mut batched, &pool);
        // One launch per stage plus the normalize pass, independent of batch.
        assert_eq!(stats.launches, n.trailing_zeros() as usize + 1);
        assert_eq!(
            stats.threads as u64,
            batch as u64 * butterfly_count(n) + (batch * n) as u64
        );
        // One transform at a time is a one-row batch each.
        let mut single = data.clone();
        let mut single_launches = 0;
        for transform in single.chunks_exact_mut(n) {
            single_launches += plan.forward_batch_on_launcher(transform, &pool).launches;
        }
        assert_eq!(batched, single, "batched forward must match per-transform");
        assert_eq!(single_launches, batch * (n.trailing_zeros() as usize + 1));
        let inv_stats = plan.inverse_batch_on_launcher(&mut batched, &pool);
        assert_eq!(inv_stats.launches, n.trailing_zeros() as usize + 1);
        assert_eq!(
            batched, data,
            "batched inverse ∘ forward must be the identity"
        );
    }

    #[test]
    fn negacyclic_launcher_matches_inline_plan() {
        let n = 128;
        let batch = 3;
        let plan = NttPlan64::negacyclic(12289, n);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(96);
        let data: Vec<u64> = (0..batch * n)
            .map(|_| rng.gen::<u64>() % plan.ring.q)
            .collect();
        let mut launched = data.clone();
        let stats = plan.forward_batch_on_launcher(&mut launched, &pool);
        // The folded twist stage replaces the plain stage 1: still one launch
        // per stage plus the normalize pass.
        assert_eq!(stats.launches, n.trailing_zeros() as usize + 1);
        let mut inline = data.clone();
        for transform in inline.chunks_exact_mut(n) {
            plan.forward(transform);
        }
        assert_eq!(launched, inline, "negacyclic forward must match inline");
        let inv_stats = plan.inverse_batch_on_launcher(&mut launched, &pool);
        assert_eq!(inv_stats.launches, n.trailing_zeros() as usize + 1);
        assert_eq!(
            launched, data,
            "negacyclic batched inverse ∘ forward must be the identity"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of the transform size")]
    fn batched_launcher_rejects_ragged_batches() {
        let plan = NttPlan64::new(64);
        let mut data = vec![0u64; 96];
        plan.forward_batch_on_launcher(&mut data, &BufferPool::new());
    }

    #[test]
    fn pooled_batch_matches_unpooled_and_is_allocation_free_when_warm() {
        let plan = NttPlan64::new(128);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(95);
        let data: Vec<u64> = (0..3 * 128)
            .map(|_| rng.gen::<u64>() % plan.ring.q)
            .collect();
        // The inline plan touches no pool: it is the unpooled reference.
        let mut inline = data.clone();
        let mut pooled = data.clone();
        inline.chunks_exact_mut(128).for_each(|t| plan.forward(t));
        // Cold pool: the first acquire misses, and the miss is the alloc count.
        let cold = plan.forward_batch_on_launcher(&mut pooled, &pool);
        assert_eq!(pooled, inline, "pooled forward must match the inline plan");
        assert_eq!(cold.allocs, 1, "a cold pool allocates the plane once");
        let warm = plan.inverse_batch_on_launcher(&mut pooled, &pool);
        assert_eq!(
            warm.allocs, 0,
            "a warm pool serves the plane without allocating"
        );
        assert_eq!(
            pooled, data,
            "pooled inverse ∘ forward must be the identity"
        );
        // Steady state: many more rounds, zero further allocations.
        for _ in 0..5 {
            assert_eq!(plan.forward_batch_on_launcher(&mut pooled, &pool).allocs, 0);
            assert_eq!(plan.inverse_batch_on_launcher(&mut pooled, &pool).allocs, 0);
        }
        assert_eq!(pooled, data);
    }
}
