//! The six workloads and what they share: the trait the driver runs them
//! through, and the timing helpers the per-layer probes use.

pub mod ladder;
pub mod multiword;
pub mod rns_chain;
pub mod serve;

use crate::metrics::Layers;
use crate::stats::{median, Window};
use crate::trace::{self, Span};
use moma::bignum::random::random_below;
use moma::bignum::BigUint;
use moma::Session;
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// Workload names, in the order `all` runs them and `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "ladder_inline",
    "rns_chain_inline",
    "multiword_inline",
    "serve_small_steady",
    "serve_small_saturated",
    "serve_ladder_closed",
];

/// One workload. The driver sets it up several times (timing each), verifies
/// the last instance, measures windows on it, and in a traced pass asks it
/// for spans and per-layer values instead.
pub trait Workload: Sized {
    /// Everything the engine does before the first window: a fresh `Session`
    /// or `Server`, cold plan and kernel builds, operands generated from
    /// `seed` and encoded, the first operation, and a short warm-up. This is
    /// what `setup_s` times.
    fn setup(seed: u64) -> Self;

    /// Computes the references — which are the benchmark's work, not the
    /// engine's, and so are left out of `setup_s` — checks the engine against
    /// them, and keeps what the per-operation checks need. Windows come after.
    ///
    /// # Panics
    ///
    /// Panics if the engine disagrees with a reference: nothing measured
    /// after that would mean anything.
    fn verify(&mut self);

    /// Runs operations for `length`, checking every result.
    fn window(&mut self, length: Duration) -> Window;

    /// The traced pass: one plain window, one window with each operation
    /// decomposed into spans, then the probes of the layers this workload
    /// enters. Returns the traced window and its spans.
    fn trace(&mut self, length: Duration, layers: &mut Layers) -> (Window, Vec<Span>);
}

/// `n` values drawn uniformly below `bound`.
pub fn random_values(rng: &mut StdRng, n: usize, bound: &BigUint) -> Vec<BigUint> {
    (0..n).map(|_| random_below(rng, bound)).collect()
}

/// Median wall time of `f` over `reps` calls, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Runs `op` back to back on this thread for `length`, timing each call. `op`
/// gets the operation's index and returns whether its result was correct.
pub fn inline_window(length: Duration, mut op: impl FnMut(u64) -> bool) -> Window {
    let mut w = Window::default();
    let started = Instant::now();
    while started.elapsed() < length {
        let t = Instant::now();
        let correct = op(w.attempted);
        w.record(t.elapsed(), correct);
    }
    w.elapsed = started.elapsed();
    w
}

/// The traced pass of an inline workload: plain and traced operations take
/// turns for `2 × length`, so that drift on the host falls on both alike and
/// the difference between them is the tracing. `op` runs one operation, traced
/// under the given index when there is one, and returns whether its result was
/// correct. Returns the plain window, the traced window, and pool misses per
/// operation over both.
pub fn paired_windows(
    session: &Session,
    length: Duration,
    mut op: impl FnMut(Option<u64>) -> bool,
) -> (Window, Window, f64) {
    let pool_before = session.pool().stats();
    let mut windows = [Window::default(), Window::default()];
    let started = Instant::now();
    while started.elapsed() < 2 * length {
        for (w, traced) in windows.iter_mut().zip([false, true]) {
            let t = Instant::now();
            let correct = op(traced.then_some(w.attempted));
            let took = t.elapsed();
            w.record(took, correct);
            w.elapsed += took;
        }
    }
    let allocs = session.pool().stats().misses_since(&pool_before);
    let [plain, traced] = windows;
    let ops = (plain.attempted + traced.attempted) as f64;
    (plain, traced, allocs as f64 / ops)
}

/// What a traced pass hands to [`common_layers`].
pub struct Traced<'a> {
    pub session: &'a Session,
    pub cold_build: Duration,
    pub launches_per_op: f64,
    pub pool_allocs_per_op: f64,
    pub plain: &'a Window,
    pub traced: &'a Window,
}

/// The layer values every workload reports the same way: the cost of an empty
/// launch on this host, what that cost times the launch count is as a share
/// of the operation (computed, not measured), the pool, the cold build, the
/// cache hit share, the tail of the plain window, and what tracing cost.
pub fn common_layers(layers: &mut Layers, pass: Traced<'_>) {
    let Traced {
        session,
        cold_build,
        launches_per_op,
        pool_allocs_per_op,
        plain,
        traced,
    } = pass;
    let empty_launch_us = median_us(2000, || {
        std::hint::black_box(moma::gpu::launch_indexed(1, |i| {
            std::hint::black_box(i);
        }));
    });
    let op_ms = plain.percentile_ms(0.5);
    layers.set("gpu.empty_launch_us", empty_launch_us);
    layers.set("gpu.launches_per_op", launches_per_op);
    layers.set(
        "gpu.dispatch_share",
        launches_per_op * empty_launch_us / (op_ms * 1e3),
    );
    layers.set("gpu.pool_allocs_per_op", pool_allocs_per_op);
    layers.set("session.cold_build_ms", cold_build.as_secs_f64() * 1e3);
    let stats = session.stats();
    layers.set(
        "gpu.pool_resident_mb",
        stats.pool.resident_words as f64 * 8.0 / 1e6,
    );
    let caches = [
        stats.generated,
        stats.kernels,
        stats.ntt,
        stats.ntt_negacyclic,
        stats.ntt_multiword,
        stats.rns,
        stats.baseconv,
        stats.rescale,
        stats.rescale_extend,
        stats.ring,
        stats.fused,
    ];
    let hits: u64 = caches.iter().map(|c| c.hits).sum();
    let misses: u64 = caches.iter().map(|c| c.misses).sum();
    layers.set(
        "session.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("tail.op_ms_p90", plain.percentile_ms(0.9));
    layers.set(
        "trace.overhead_share",
        traced.percentile_ms(0.5) / op_ms - 1.0,
    );
}

/// Sets each `(metric, span name)` of `parts` to that span's self time per
/// operation, in milliseconds, and returns the parts' sum over the time of the
/// `root` spans.
///
/// # Panics
///
/// Panics if the parts do not account for the root within 5 %: the
/// decomposition would then be missing a call.
pub fn span_parts(
    layers: &mut Layers,
    spans: &[Span],
    ops: u64,
    root: &str,
    parts: &[(&str, &str)],
) -> f64 {
    let self_ms = trace::self_ms_by_name(spans);
    let mut parts_ms = 0.0;
    for (metric, span) in parts {
        let ms = self_ms.get(span).copied().unwrap_or(0.0) / ops as f64;
        layers.set(metric, ms);
        parts_ms += ms;
    }
    let root_ms = trace::durations_ms(spans, root).iter().sum::<f64>() / ops as f64;
    let share = parts_ms / root_ms;
    assert!(
        (share - 1.0).abs() <= 0.05,
        "the traced calls sum to {parts_ms:.3} ms of a {root_ms:.3} ms `{root}` operation"
    );
    share
}

#[cfg(test)]
mod tests {
    use super::ladder::LadderInline;
    use super::multiword::MultiwordInline;
    use super::rns_chain::RnsChainInline;
    use super::serve::ServeSmallSteady;
    use super::*;

    /// The per-layer values that are counts of work, not times.
    const COUNTS: [&str; 5] = [
        "gpu.launches_per_op",
        "gpu.pool_allocs_per_op",
        "ntt.stage_launches_per_transform",
        "ir.kernel_ops_total",
        "ir.kernel_registers_total",
    ];

    fn counts<W: Workload>(seed: u64) -> Vec<f64> {
        let mut layers = Layers::new();
        let mut workload = W::setup(seed);
        workload.verify();
        let (traced, spans) = workload.trace(Duration::from_millis(300), &mut layers);
        assert_eq!(traced.mismatched, 0);
        assert!(!spans.is_empty());
        COUNTS.iter().map(|name| layers.get(name)).collect()
    }

    #[test]
    fn count_metrics_repeat_exactly_across_two_runs_with_the_same_seed() {
        assert_eq!(counts::<LadderInline>(3), counts::<LadderInline>(3));
        assert_eq!(counts::<RnsChainInline>(3), counts::<RnsChainInline>(3));
        assert_eq!(counts::<MultiwordInline>(3), counts::<MultiwordInline>(3));
        // 1285 launches per ladder, 13 per 4096-point transform.
        assert_eq!(counts::<LadderInline>(4)[..3], [1285.0, 0.0, 13.0]);
    }

    #[test]
    fn an_open_loop_window_attempts_exactly_rate_times_length() {
        let mut steady = ServeSmallSteady::setup(3);
        steady.verify();
        let attempted: Vec<u64> = (0..2)
            .map(|_| steady.window(Duration::from_millis(200)).attempted)
            .collect();
        assert_eq!(attempted, [600, 600]);
    }
}
