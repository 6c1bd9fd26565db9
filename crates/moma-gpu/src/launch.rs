//! Data-parallel batch launcher: one virtual CUDA thread per element on a host thread
//! pool.
//!
//! The paper's BLAS kernels assign one CUDA thread per vector element and its NTT
//! kernels one thread per butterfly (§5.1). This module reproduces that model on the
//! host: the index space `0..n` is cut into one contiguous range per worker (the
//! count is [`std::thread::available_parallelism`], read once), the calling thread
//! runs the first range and `std::thread::scope` workers the others, each element
//! runs the same kernel, and the wall-clock time of the whole launch is reported.
//!
//! One entry point per launch shape:
//!
//! | entry point | one virtual thread per | output |
//! | --- | --- | --- |
//! | [`launch_indexed`] | index `i` — a side-effecting closure; NTT butterflies | the caller's own storage and synchronization |
//! | [`launch_chunks`] | `chunk_len`-sized chunk of a `&mut` slice — a residue row, a thread block | written in place |
//! | [`launch_compiled_batch`] | row of a flat row-major input batch, run through a generated [`CompiledKernel`]: its build-time native twin if the fixed set has one, else lane blocks | returned flat, element-major |
//! | [`launch_compiled_rows`] | element of a multi-output [`CompiledKernel`] over parameter planes — each a row read in place or one uniform value — run in lane blocks | written in place, one row per output |
//!
//! The two compiled shapes run the same lane-block executor and differ only in
//! layout: element-major in and out, gathered and scattered block by block
//! through the worker's scratch; or planes read where they lie and output rows
//! written where they lie, with no copy on either side. A batch launch
//! first looks the kernel's fingerprint up in the fixed set that `build.rs`
//! emitted with the rewrite system and rustc compiled (the default-config
//! modmul at 128 and 256 bits); on a match each worker runs that native
//! function over its rows instead. Kernels built at run time, such as the RNS
//! fused kernels the rows shape launches, never match. The tree interpreter
//! (`moma_ir::interp`) is the correctness oracle of both executors; the test
//! suites cross-check them against it.

use crate::native;
use moma_ir::compiled::{BlockScratch, CompiledKernel, Plane};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Statistics of one simulated launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Number of virtual threads (elements) executed.
    pub threads: usize,
    /// Number of host threads the launch kept busy at once: the contiguous
    /// ranges its index space was cut into, at most one per available core and
    /// never more than `threads` (a 2-row chunk launch on an 8-core host
    /// reports 2; a launch that fit one range reports 1).
    pub workers: usize,
    /// Number of kernel launches performed (1 for a single launch; accumulated
    /// totals count one per launch). On real hardware every launch pays a fixed
    /// dispatch + grid-barrier cost, so callers that batch work care about this
    /// number staying independent of the batch size.
    pub launches: usize,
    /// Plane-sized heap buffers (output planes, working planes) the launch
    /// path allocated. In-place entry points ([`launch_indexed`],
    /// [`launch_chunks`], [`launch_compiled_rows`]) report `0` — the caller
    /// owns the output — and ops that route their planes through a
    /// [`crate::pool::BufferPool`] report the pool-miss delta, so a warm
    /// steady state reports `0` end to end. Per-worker scratch frames —
    /// `LANE_BLOCK` lanes per temporary register and per parameter — are not
    /// plane-sized and are excluded (a thread keeps its frame across
    /// launches, so the calling thread's share allocates none in the steady
    /// state).
    pub allocs: usize,
    /// Wall-clock time of the launch.
    pub elapsed: Duration,
}

impl Default for LaunchStats {
    /// The statistics of a launch that had nothing to do: zero threads, one
    /// worker, zero launches, zero elapsed time — the identity for
    /// [`LaunchStats::accumulate`].
    fn default() -> Self {
        LaunchStats {
            threads: 0,
            workers: 1,
            launches: 0,
            allocs: 0,
            elapsed: Duration::ZERO,
        }
    }
}

impl LaunchStats {
    /// Wall-clock nanoseconds per element.
    pub fn nanos_per_element(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e9 / self.threads as f64
        }
    }

    /// Folds a subsequent (serialized) launch into this total: threads and
    /// launch counts add up, workers take the maximum, elapsed times add up.
    /// Used by callers that chain several launches into one logical operation
    /// (NTT stages with a barrier between them, one launch per residue row, …).
    pub fn accumulate(&mut self, next: LaunchStats) {
        self.threads += next.threads;
        self.workers = self.workers.max(next.workers);
        self.launches += next.launches;
        self.allocs += next.allocs;
        self.elapsed += next.elapsed;
    }
}

/// Number of host worker threads to use. Read once: `available_parallelism`
/// re-reads the cgroup files on every call, which costs more than a small
/// launch does.
fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// The dispatch every entry point shares: cuts `0..n` into one contiguous
/// range per worker (fewer when `n` is small, and none shorter than
/// `min_range` elements but the last) and runs `body(lo, hi, part)`
/// once per range, where `part = carve(lo, hi)` is that range's share of the
/// caller's output. `carve` is called on the calling thread, once per range in
/// ascending order, so it can walk a `&mut` cursor over the output. The calling
/// thread runs the first range itself and only the others are spawned: a launch
/// with a single range (one worker, or `n == 1`) never touches the scheduler.
/// Returns the number of ranges that ran — the host threads that were busy at
/// once, `0` when `n == 0` — for [`LaunchStats::workers`].
fn dispatch<P, C, B>(n: usize, min_range: usize, mut carve: C, body: B) -> usize
where
    P: Send,
    C: FnMut(usize, usize) -> P,
    B: Fn(usize, usize, P) + Sync,
{
    if n == 0 {
        return 0;
    }
    let chunk = n.div_ceil(worker_count()).max(min_range);
    let first_hi = chunk.min(n);
    let first = carve(0, first_hi);
    if first_hi == n {
        body(0, n, first);
        return 1;
    }
    std::thread::scope(|scope| {
        let mut lo = first_hi;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let part = carve(lo, hi);
            let body = &body;
            scope.spawn(move || body(lo, hi, part));
            lo = hi;
        }
        body(0, first_hi, first);
    });
    n.div_ceil(chunk)
}

/// The fewest rows a native twin runs per range. A twin costs ~7–50 ns per
/// element, so a shorter range's share of the work is about what spawning its
/// worker costs (18–25 µs on an idle 2-core host, several times that on a
/// loaded one); the bytecode executor, ~10× slower per element, splits freely.
pub(crate) const NATIVE_MIN_RANGE: usize = 8192;

/// Cuts the next `len` elements off the front of the cursor `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

thread_local! {
    /// Reusable per-thread lane-block scratch for the compiled shapes. A
    /// scratch holds no per-kernel state (it grows to the largest frame it
    /// has served), so one per thread serves every kernel that thread ever
    /// launches — the calling thread's share of a launch allocates no
    /// scratch at all in the steady state. Scoped worker threads are born
    /// fresh per launch, so theirs is built once per launch; that frame is
    /// not plane-sized and is excluded from [`LaunchStats::allocs`].
    static INLINE_BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// Runs `f` with this thread's reusable lane-block frame.
fn with_inline_block_scratch<R>(f: impl FnOnce(&mut BlockScratch) -> R) -> R {
    INLINE_BLOCK_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `kernel_fn(i)` for every `i` in `0..n` across a host thread pool and reports
/// the launch statistics.
///
/// The closure receives the element index, mirroring
/// `blockIdx.x * blockDim.x + threadIdx.x` in the generated CUDA code.
pub fn launch_indexed<F>(n: usize, kernel_fn: F) -> LaunchStats
where
    F: Fn(usize) + Sync,
{
    let start = Instant::now();
    let workers = dispatch(
        n,
        1,
        |_, _| (),
        |lo, hi, ()| {
            for i in lo..hi {
                kernel_fn(i);
            }
        },
    );
    LaunchStats {
        threads: n,
        workers,
        launches: 1,
        allocs: 0,
        elapsed: start.elapsed(),
    }
}

/// Runs one virtual thread per `chunk_len`-sized chunk of `out`, giving each
/// thread index-order mutable access to exactly its own chunk (the last chunk may
/// be shorter when the length does not divide evenly).
///
/// This is the shape for kernels whose natural unit of work is a whole row —
/// e.g. one RNS residue plane — and, with `chunk_len == 1`, for per-element maps
/// into a pre-sized output: the caller allocates the flat output once and every
/// worker writes its disjoint chunks directly, with no per-chunk collection or
/// concatenation on the launch path.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn launch_chunks<T, F>(out: &mut [T], chunk_len: usize, f: F) -> LaunchStats
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let n = out.len().div_ceil(chunk_len);
    let start = Instant::now();
    // Each worker gets one contiguous sub-slice and walks its chunks locally:
    // nothing is allocated however many chunks there are.
    let mut rest = out;
    let workers = dispatch(
        n,
        1,
        |lo, hi| {
            let len = ((hi - lo) * chunk_len).min(rest.len());
            take_front(&mut rest, len)
        },
        |lo, _, part| {
            for (k, chunk) in part.chunks_mut(chunk_len).enumerate() {
                f(lo + k, chunk);
            }
        },
    );
    LaunchStats {
        threads: n,
        workers,
        launches: 1,
        allocs: 0,
        elapsed: start.elapsed(),
    }
}

/// Executes an already-compiled kernel over a whole row-major input batch in one
/// launch: element `i`'s parameters occupy
/// `inputs[i * param_count .. (i + 1) * param_count]`, and the outputs are
/// returned flat in the same element order (`output_count` words per element).
///
/// Contiguous row ranges are split across the host workers; each worker runs
/// its range and writes its slice of the flat output directly — no
/// per-element input `Vec`, no per-element output allocation. A kernel whose
/// [`CompiledKernel::fingerprint`] matches a member of the fixed set built at
/// compile time runs as that native function, in ranges of at least 8192 rows
/// (a shorter range costs less than spawning its worker); any other runs
/// through [`CompiledKernel::run_elements`] (lane blocks on one reused frame,
/// one instruction dispatch per block). Both compute what the tree interpreter
/// computes. The one output buffer is the launch's only allocation
/// (`allocs == 1`, `0` for an empty batch).
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the kernel's parameter count,
/// or if execution fails (an invalid generated kernel or malformed inputs);
/// the message names the element range of the worker's block.
pub fn launch_compiled_batch(compiled: &CompiledKernel, inputs: &[u64]) -> (Vec<u64>, LaunchStats) {
    let p = compiled.param_count().max(1);
    assert!(
        inputs.len() % p == 0,
        "flat input length must be a multiple of the parameter count"
    );
    let n = if compiled.param_count() == 0 {
        0
    } else {
        inputs.len() / p
    };
    let oc = compiled.output_count();
    let mut out = vec![0u64; n * oc];
    let start = Instant::now();
    let twin = native::twin(compiled);
    let min_range = if twin.is_some() { NATIVE_MIN_RANGE } else { 1 };
    let mut rest: &mut [u64] = &mut out;
    let workers = dispatch(
        n,
        min_range,
        |lo, hi| take_front(&mut rest, (hi - lo) * oc),
        |lo, hi, out_slice| {
            let rows = &inputs[lo * p..hi * p];
            match twin {
                Some(run) => run(rows, out_slice),
                None => with_inline_block_scratch(|scratch| {
                    compiled
                        .run_elements(hi - lo, rows, scratch, out_slice)
                        .unwrap_or_else(|e| {
                            panic!("generated kernel failed in elements {lo}..{hi}: {e}")
                        })
                }),
            }
        },
    );
    (
        out,
        LaunchStats {
            threads: n,
            workers,
            launches: 1,
            allocs: usize::from(n > 0),
            elapsed: start.elapsed(),
        },
    )
}

/// Executes a multi-output compiled kernel over every element in a single
/// launch, writing output `j` of element `i` to `out[j * cols + i]` — the
/// row-major matrix layout a residue-plane consumer needs.
///
/// `plane(p)` says where parameter `p`'s `cols` values are: a
/// [`Plane::Row`] of `cols` values is read in place, and a
/// [`Plane::Uniform`] is one value for every element (a scalar's residue, say).
/// Each worker runs its column range through [`CompiledKernel::run_lanes`]:
/// each bytecode instruction dispatches once per block of up to
/// [`LANE_BLOCK`](moma_ir::compiled::LANE_BLOCK) elements, each block's row
/// lanes are checked where they lie, each uniform value is checked once per
/// range and broadcast once into the worker's scratch, and each output row's
/// window is written in place. Compared with running one
/// [`launch_compiled_batch`] per output row, this pays the fixed launch cost
/// **once** for all rows, reads each input element once instead of once per
/// row, and never materializes an element-major intermediate.
///
/// `out.len()` must equal `output_count() * cols`; the launch reports `cols`
/// virtual threads (one per element, each producing a full output column).
///
/// # Panics
///
/// Panics if `out.len()` is not `output_count() * cols`, if a row plane does
/// not hold `cols` values, or if execution fails on any element (an invalid
/// generated kernel or an input above its parameter's width or bound); the
/// message names the worker's element range.
pub fn launch_compiled_rows<'p, F>(
    compiled: &CompiledKernel,
    out: &mut [u64],
    cols: usize,
    plane: F,
) -> LaunchStats
where
    F: Fn(usize) -> Plane<'p> + Sync,
{
    let oc = compiled.output_count();
    assert_eq!(
        out.len(),
        oc * cols,
        "output length must be output_count() * cols"
    );
    for p in 0..compiled.param_count() {
        if let Plane::Row(row) = plane(p) {
            assert_eq!(row.len(), cols, "row plane {p} must hold cols values");
        }
    }
    let start = Instant::now();
    // `oc == 0` leaves nothing to run (and `cols == 0` nothing to chunk by).
    let elements = if oc > 0 { cols } else { 0 };
    // Every output row is carved into the same per-worker column ranges, so
    // each worker holds a disjoint `&mut` window of all rows at once.
    let mut rests: Vec<&mut [u64]> = out.chunks_mut(cols.max(1)).collect();
    let workers = dispatch(
        elements,
        1,
        |lo, hi| -> Vec<&mut [u64]> {
            rests
                .iter_mut()
                .map(|rest| take_front(rest, hi - lo))
                .collect()
        },
        |lo, hi, mut rows| {
            let range = |p| match plane(p) {
                Plane::Row(row) => Plane::Row(&row[lo..hi]),
                uniform => uniform,
            };
            with_inline_block_scratch(|scratch| {
                compiled
                    .run_lanes(hi - lo, scratch, range, &mut rows)
                    .unwrap_or_else(|e| {
                        panic!("generated kernel failed on elements {lo}..{hi}: {e}")
                    })
            })
        },
    );
    LaunchStats {
        threads: cols,
        workers,
        launches: 1,
        allocs: 0,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::{interp, KernelBuilder, Op, Ty};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let stats = launch_indexed(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.threads, 1000);
        assert!(stats.workers >= 1);
        assert!(stats.nanos_per_element() > 0.0);
    }

    #[test]
    fn empty_launch_is_fine() {
        let stats = launch_indexed(0, |_| panic!("must not run"));
        assert_eq!(stats.threads, 0);
        assert_eq!(stats.nanos_per_element(), 0.0);
    }

    #[test]
    fn workers_reports_the_ranges_that_ran() {
        let cores = worker_count();
        assert_eq!(launch_indexed(0, |_| panic!("must not run")).workers, 0);
        assert_eq!(launch_indexed(1, |_| {}).workers, 1);
        // Two blocks are two ranges wherever there is a second core to run on.
        let stats = launch_chunks(&mut [0u8; 2], 1, |_, _| {});
        assert_eq!(stats.workers, cores.min(2));
        assert!((1..=cores).contains(&launch_indexed(1000, |_| {}).workers));
    }

    #[test]
    fn chunk_launch_fills_every_chunk_in_place() {
        let mut out = vec![0u64; 1000];
        let stats = launch_chunks(&mut out, 100, |i, chunk| {
            assert_eq!(chunk.len(), 100);
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 100 + j) as u64;
            }
        });
        assert_eq!(stats.threads, 10);
        assert!(out.iter().enumerate().all(|(k, &v)| v == k as u64));
    }

    #[test]
    fn chunk_launch_handles_ragged_tail_and_empty_output() {
        let mut out = vec![0u32; 7];
        let stats = launch_chunks(&mut out, 3, |i, chunk| {
            assert_eq!(chunk.len(), if i == 2 { 1 } else { 3 });
            chunk.fill(i as u32 + 1);
        });
        assert_eq!(stats.threads, 3);
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3]);
        let mut empty: [u8; 0] = [];
        let stats = launch_chunks(&mut empty, 4, |_, _| panic!("must not run"));
        assert_eq!(stats.threads, 0);
    }

    #[test]
    fn chunk_launch_delivers_each_index_once_at_every_split() {
        // Unit chunks (the NTT normalize/scale shape) and ragged tails, over
        // lengths that land the worker boundaries everywhere — including
        // inside the short last chunk's neighbourhood. On a multi-core host
        // this is the multi-worker path (`stats.workers > 1`): each worker
        // walks its own sub-slice and must still report global indices.
        for len in 0..70usize {
            for chunk_len in [1usize, 3, 4] {
                let mut out = vec![usize::MAX; len];
                let calls = AtomicUsize::new(0);
                let stats = launch_chunks(&mut out, chunk_len, |i, chunk| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    let want = chunk_len.min(len - i * chunk_len);
                    assert_eq!(chunk.len(), want, "len {len}, chunk {chunk_len}, i {i}");
                    for slot in chunk.iter_mut() {
                        assert_eq!(*slot, usize::MAX, "slot delivered twice");
                        *slot = i;
                    }
                });
                assert_eq!(stats.threads, len.div_ceil(chunk_len));
                assert_eq!(calls.load(Ordering::Relaxed), stats.threads);
                assert!(
                    out.iter().enumerate().all(|(k, &i)| i == k / chunk_len),
                    "len {len}, chunk {chunk_len}: {out:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn chunk_launch_rejects_zero_chunks() {
        launch_chunks(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn compiled_batch_launch_matches_per_element_launch() {
        let mut kb = KernelBuilder::new("modmul");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let p = kb.output("p", Ty::UInt(64));
        kb.push(
            vec![p],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: moma_ir::Operand::Const(2_147_483_647),
                mu: moma_ir::Operand::Const(0),
                mbits: 31,
            },
        );
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();
        let n = 333; // deliberately not a multiple of any worker count
        let flat: Vec<u64> = (0..n)
            .flat_map(|i| [i as u64 * 77, i as u64 * 131 + 5])
            .collect();
        let (batch_out, stats) = launch_compiled_batch(&compiled, &flat);
        assert_eq!(stats.threads, n);
        assert_eq!(stats.launches, 1);
        assert_eq!(
            stats.allocs, 1,
            "one flat output buffer, nothing per element"
        );
        assert_eq!(batch_out.len(), n);
        for (i, (params, out)) in flat.chunks_exact(2).zip(&batch_out).enumerate() {
            let per_elt = compiled.run(params).unwrap();
            assert_eq!(per_elt.outputs, [*out], "element {i}");
        }
        let (empty, stats) = launch_compiled_batch(&compiled, &[]);
        assert!(empty.is_empty());
        assert_eq!(stats.threads, 0);
        assert_eq!(stats.allocs, 0);
    }

    #[test]
    fn rows_launch_scatters_each_output_to_its_row() {
        // Two outputs per element: sum with carry and a shifted copy — enough
        // to see the row-major scatter (out[j * cols + i]).
        let mut kb = KernelBuilder::new("pair");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let carry = kb.local("carry", Ty::Flag);
        let sum = kb.output("sum", Ty::UInt(64));
        let double = kb.output("double", Ty::UInt(64));
        kb.push(
            vec![carry, sum],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        kb.push(
            vec![double],
            Op::MulLow {
                a: a.into(),
                b: moma_ir::Operand::Const(2),
            },
        );
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();
        let cols = 333; // deliberately not a multiple of any worker count
        let a_row: Vec<u64> = (0..cols as u64).map(|i| i * 3).collect();
        let b_row: Vec<u64> = (0..cols as u64).map(|i| i + 7).collect();
        let inputs: Vec<[u64; 2]> = a_row.iter().zip(&b_row).map(|(&a, &b)| [a, b]).collect();
        let mut out = vec![0u64; 2 * cols];
        let stats = launch_compiled_rows(&compiled, &mut out, cols, |p| {
            Plane::Row(if p == 0 { &a_row } else { &b_row })
        });
        assert_eq!(stats.threads, cols);
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.allocs, 0, "rows launches write in place");
        let flat: Vec<u64> = inputs.iter().flatten().copied().collect();
        let (oracle, _) = launch_compiled_batch(&compiled, &flat);
        for i in 0..cols {
            assert_eq!(out[i], oracle[2 * i], "row 0 element {i}");
            assert_eq!(out[cols + i], oracle[2 * i + 1], "row 1 element {i}");
        }
        let mut empty: [u64; 0] = [];
        let stats = launch_compiled_rows(&compiled, &mut empty, 0, |_| Plane::Row(&[]));
        assert_eq!(stats.threads, 0);
        // A uniform second parameter: every element adds the same value.
        let stats = launch_compiled_rows(&compiled, &mut out, cols, |p| match p {
            0 => Plane::Row(&a_row),
            _ => Plane::Uniform(5),
        });
        assert_eq!(stats.threads, cols);
        for i in 0..cols {
            assert_eq!(out[i], a_row[i] + 5, "row 0 element {i}");
            assert_eq!(out[cols + i], a_row[i] * 2, "row 1 element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn rows_launch_rejects_mismatched_output_length() {
        let mut kb = KernelBuilder::new("copy");
        let a = kb.param("a", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(vec![o], Op::Copy { src: a.into() });
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();
        launch_compiled_rows(&compiled, &mut [0u64; 5], 4, |_| Plane::Uniform(0));
    }

    #[test]
    fn launch_stats_count_launches() {
        let mut total = LaunchStats::default();
        assert_eq!(total.launches, 0);
        total.accumulate(launch_indexed(8, |_| {}));
        total.accumulate(launch_indexed(8, |_| {}));
        assert_eq!(total.launches, 2);
        assert_eq!(total.threads, 16);
    }

    #[test]
    fn compiled_launch_matches_the_interpreter_oracle() {
        let mut kb = KernelBuilder::new("modmul");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let p = kb.output("p", Ty::UInt(64));
        kb.push(
            vec![p],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: q.into(),
                mu: moma_ir::Operand::Const(0),
                mbits: 31,
            },
        );
        let kernel = kb.build();
        let compiled = CompiledKernel::compile(&kernel).unwrap();
        let feed = |i: usize| [i as u64 * 77, i as u64 * 131 + 5, 2_147_483_647];
        let flat: Vec<u64> = (0..256).flat_map(feed).collect();
        let (outputs, _) = launch_compiled_batch(&compiled, &flat);
        for (i, out) in outputs.iter().enumerate() {
            let oracle = interp::run(&kernel, &feed(i)).unwrap();
            assert_eq!(oracle.outputs.len(), 1);
            assert_eq!(*out, oracle.outputs[0], "element {i}");
        }
    }
}
