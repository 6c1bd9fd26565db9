//! Reusable `u64` buffer pool for residue planes and flat launch outputs.
//!
//! The paper's thesis is precompute-once-execute-many, and the launch path
//! holds up its end — plans and kernels are cached — but on real hardware the
//! *memory* side matters just as much: steady-state serving must not touch the
//! allocator per request. [`BufferPool`] is the host-side stand-in for a device
//! memory pool: plane-sized `Vec<u64>` buffers are handed out and taken back
//! keyed by power-of-two size class, so after a warmup phase every acquire is
//! a recycled hit and the allocator is out of the hot path entirely.
//!
//! The pool is thread-safe (one mutex around the shelves; counters are
//! atomic) and deliberately simple: this is bookkeeping for a few dozen large
//! buffers per session, not a general-purpose allocator. Every acquire and
//! recycle is counted, so "steady-state is allocation-free" is a *tested
//! invariant* — callers read [`BufferPool::stats`] before and after a warm
//! workload and assert the miss counter did not move.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Smallest size class handed out: requests below this round up, so tiny
/// buffers do not fragment the shelves.
const MIN_CLASS: usize = 64;

/// Buffers retained per size class; beyond this, recycled buffers are freed
/// instead of shelved so a burst cannot pin memory forever.
const MAX_SHELF: usize = 32;

/// Monotonic pool counters (a snapshot; see [`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquires served from a shelved buffer (no heap allocation).
    pub hits: u64,
    /// Acquires that had to allocate a fresh buffer (cold start, or a size
    /// class whose shelf was empty).
    pub misses: u64,
    /// Buffers returned to a shelf by [`BufferPool::recycle`].
    pub recycled: u64,
    /// Recycled buffers dropped because their shelf was full.
    pub dropped: u64,
    /// Buffers currently shelved (a gauge, not a counter).
    pub resident_buffers: u64,
    /// Total capacity in `u64` words across all shelved buffers (a gauge).
    pub resident_words: u64,
}

impl PoolStats {
    /// Misses accumulated since `earlier` — the quantity steady-state tests
    /// assert is zero after warmup.
    pub fn misses_since(&self, earlier: &PoolStats) -> u64 {
        self.misses - earlier.misses
    }
}

/// A thread-safe pool of reusable `Vec<u64>` buffers keyed by size class.
///
/// Size classes are powers of two (minimum `MIN_CLASS` = 64 words): an acquire for any
/// length is served by a buffer whose capacity is at least the next power of
/// two, and a recycled buffer is shelved under the largest class its capacity
/// covers — so buffers flow freely between callers with different exact
/// lengths, as long as they share a class.
#[derive(Debug, Default)]
pub struct BufferPool {
    shelves: Mutex<HashMap<usize, Vec<Vec<u64>>>>,
    /// Atomic working planes (the batched NTT's in-place butterfly cells) are
    /// a distinct element type, so they get their own shelves; hits and
    /// misses feed the same counters.
    cell_shelves: Mutex<HashMap<usize, Vec<Vec<AtomicU64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

/// The size class that serves a request of `len` words: the next power of two,
/// floored at [`MIN_CLASS`].
fn class_for(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

/// The largest class a buffer of `capacity` words can serve: the previous
/// power of two (capacity itself when it is exactly a power of two).
fn shelf_for(capacity: usize) -> usize {
    if capacity.is_power_of_two() {
        capacity
    } else {
        capacity.next_power_of_two() / 2
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Hands out a zeroed buffer of exactly `len` words, reusing a shelved
    /// buffer when one of the right class is available (a *hit*: no heap
    /// allocation happens) and allocating otherwise (a *miss*). An empty
    /// request is neither: it gets an unallocated `Vec` and touches no shelf,
    /// so encoding an empty vector does not draw a `MIN_CLASS`-word buffer.
    pub fn acquire(&self, len: usize) -> Vec<u64> {
        let mut buf = self.take(len);
        buf.fill(0);
        buf
    }

    /// Hands out a buffer of exactly `len` words for a caller that writes
    /// every word before it reads one — a launch's output plane. It is served
    /// like [`BufferPool::acquire`] (hits, misses and empty requests alike),
    /// but a shelved buffer keeps its old words instead of being zero-filled.
    /// Under `debug_assertions` every word is `u64::MAX` instead, a value no
    /// residue takes, so a caller can check that its fill left none behind.
    pub fn acquire_for_overwrite(&self, len: usize) -> Vec<u64> {
        let mut buf = self.take(len);
        if cfg!(debug_assertions) {
            buf.fill(u64::MAX);
        }
        buf
    }

    /// A buffer of exactly `len` words whose contents are unspecified: a
    /// shelved one of the right class, or a fresh one. Counts the hit or miss.
    fn take(&self, len: usize) -> Vec<u64> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_for(len);
        let shelved = {
            let mut shelves = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
            shelves.get_mut(&class).and_then(Vec::pop)
        };
        let mut buf = match shelved {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        };
        // Within the reserved capacity: no reallocation.
        buf.resize(len, 0);
        buf
    }

    /// Takes a buffer back for reuse. Buffers too small to serve any class are
    /// freed; a full shelf also frees instead of growing without bound.
    pub fn recycle(&self, buf: Vec<u64>) {
        let shelf = shelf_for(buf.capacity());
        if buf.capacity() < MIN_CLASS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shelves = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = shelves.entry(shelf).or_default();
        if slot.len() >= MAX_SHELF {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hands out a zeroed `AtomicU64` working plane of exactly `len` cells —
    /// the atomic twin of [`BufferPool::acquire`], for in-place butterfly
    /// stages whose disjoint writes are spelled with relaxed atomics. Shares
    /// the hit/miss counters with the `u64` side, and the empty-request rule.
    pub fn acquire_cells(&self, len: usize) -> Vec<AtomicU64> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_for(len);
        let shelved = {
            let mut shelves = self
                .cell_shelves
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shelves.get_mut(&class).and_then(Vec::pop)
        };
        match shelved {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                // In-place re-construction within the reserved capacity: no
                // heap traffic (`AtomicU64::default()` is zero).
                buf.resize_with(len, AtomicU64::default);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let mut buf = Vec::with_capacity(class);
                buf.resize_with(len, AtomicU64::default);
                buf
            }
        }
    }

    /// Takes an `AtomicU64` working plane back for reuse (see
    /// [`BufferPool::recycle`]).
    pub fn recycle_cells(&self, buf: Vec<AtomicU64>) {
        let shelf = shelf_for(buf.capacity());
        if buf.capacity() < MIN_CLASS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shelves = self
            .cell_shelves
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = shelves.entry(shelf).or_default();
        if slot.len() >= MAX_SHELF {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Misses so far (cheap: one atomic load). Ops that route planes through
    /// the pool report `misses()` deltas as their allocation count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let (mut resident_buffers, mut resident_words) = {
            let shelves = self.shelves.lock().unwrap_or_else(PoisonError::into_inner);
            shelves
                .values()
                .flatten()
                .fold((0u64, 0u64), |(n, w), b| (n + 1, w + b.capacity() as u64))
        };
        {
            let shelves = self
                .cell_shelves
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for b in shelves.values().flatten() {
                resident_buffers += 1;
                resident_words += b.capacity() as u64;
            }
        }
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            resident_buffers,
            resident_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrite_acquires_share_the_shelves_and_keep_the_length() {
        let pool = BufferPool::new();
        assert!(pool.acquire_for_overwrite(0).is_empty());
        let buf = pool.acquire_for_overwrite(1000);
        assert_eq!((buf.len(), pool.stats().misses), (1000, 1));
        if cfg!(debug_assertions) {
            assert!(buf.iter().all(|&x| x == u64::MAX), "poisoned");
        }
        pool.recycle(buf);
        // A shorter and a longer request in the same class are both hits.
        let short = pool.acquire_for_overwrite(600);
        assert_eq!((short.len(), pool.stats().hits), (600, 1));
        pool.recycle(short);
        let long = pool.acquire_for_overwrite(1024);
        assert_eq!((long.len(), pool.stats().hits), (1024, 2));
        pool.recycle(long);
        // The zeroing entry still zeroes what the other left behind.
        assert!(pool.acquire(1000).iter().all(|&x| x == 0));
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn acquire_then_recycle_then_acquire_is_a_hit() {
        let pool = BufferPool::new();
        let buf = pool.acquire(1000);
        assert_eq!(buf.len(), 1000);
        assert!(buf.iter().all(|&x| x == 0));
        assert_eq!(pool.stats().misses, 1);
        pool.recycle(buf);
        assert_eq!(pool.stats().resident_buffers, 1);
        let again = pool.acquire(1000);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1, "the second acquire must not allocate");
        assert_eq!(again.len(), 1000);
        assert!(again.iter().all(|&x| x == 0), "reused buffers are zeroed");
    }

    #[test]
    fn different_lengths_share_a_size_class() {
        let pool = BufferPool::new();
        // 900 and 1024 both land in the 1024 class.
        pool.recycle(pool.acquire(900));
        let buf = pool.acquire(1024);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(buf.len(), 1024);
    }

    #[test]
    fn smaller_class_does_not_steal_bigger_buffers_and_vice_versa() {
        let pool = BufferPool::new();
        pool.recycle(pool.acquire(4096));
        let small = pool.acquire(100);
        assert_eq!(pool.stats().misses, 2, "a 4096 buffer serves 4096-class");
        pool.recycle(small);
        pool.recycle(pool.acquire(100));
        let stats = pool.stats();
        assert_eq!(stats.hits, 1, "the shelved small-class buffer is reused");
        assert_eq!(stats.resident_buffers, 2);
    }

    #[test]
    fn shelf_cap_frees_excess_buffers() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..MAX_SHELF + 5).map(|_| pool.acquire(256)).collect();
        for buf in bufs {
            pool.recycle(buf);
        }
        let stats = pool.stats();
        assert_eq!(stats.resident_buffers, MAX_SHELF as u64);
        assert_eq!(stats.dropped, 5);
    }

    #[test]
    fn pool_is_usable_across_threads() {
        let pool = std::sync::Arc::new(BufferPool::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..100 {
                        let buf = pool.acquire(512);
                        pool.recycle(buf);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert!(stats.misses <= 4, "at most one cold buffer per thread");
    }

    #[test]
    fn atomic_cells_recycle_and_rezero() {
        let pool = BufferPool::new();
        let cells = pool.acquire_cells(300);
        cells[7].store(99, std::sync::atomic::Ordering::Relaxed);
        pool.recycle_cells(cells);
        let again = pool.acquire_cells(300);
        assert_eq!(pool.stats().hits, 1);
        assert!(again
            .iter()
            .all(|c| c.load(std::sync::atomic::Ordering::Relaxed) == 0));
    }

    #[test]
    fn empty_acquires_take_no_buffer_and_recycle_to_nothing() {
        let pool = BufferPool::new();
        pool.recycle(pool.acquire(10));
        pool.recycle_cells(pool.acquire_cells(10));
        let before = pool.stats();
        let (words, cells) = (pool.acquire(0), pool.acquire_cells(0));
        assert_eq!((words.capacity(), cells.capacity()), (0, 0));
        assert_eq!(pool.stats(), before, "no hit, no miss, both shelves intact");
        pool.recycle(words);
        pool.recycle_cells(cells);
        let after = pool.stats();
        assert_eq!(after.recycled, before.recycled);
        assert_eq!(after.resident_buffers, before.resident_buffers);
    }

    #[test]
    fn misses_since_isolates_a_window() {
        let pool = BufferPool::new();
        pool.recycle(pool.acquire(128));
        let before = pool.stats();
        for _ in 0..10 {
            let buf = pool.acquire(128);
            pool.recycle(buf);
        }
        assert_eq!(pool.stats().misses_since(&before), 0);
    }
}
