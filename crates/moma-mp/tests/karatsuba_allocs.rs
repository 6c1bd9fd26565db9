//! A Karatsuba `ModRing::mul` allocates nothing: the recursion splits one
//! stack scratch array per level instead of building `Vec`s. A counting
//! global allocator (this binary's only test, so nothing else allocates on
//! its thread while it counts) holds the figure at zero.

use moma_mp::{ModRing, MulAlgorithm, U256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialized thread-local `Cell` without a destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn karatsuba_products_make_no_heap_allocation() {
    let q = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43");
    let ring = ModRing::with_mul_algorithm(q, MulAlgorithm::Karatsuba);
    let schoolbook = ModRing::with_mul_algorithm(q, MulAlgorithm::Schoolbook);
    let b = ring.reduce(U256::from_limbs([7, 0x9e37_79b9, u64::MAX, 1 << 40]));
    let mut x = ring.reduce(U256::from_limbs([3, 5, 0xdead_beef, 1 << 59]));
    let mut y = x;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..1000 {
        x = ring.mul(x, b);
    }
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(made, 0, "1000 Karatsuba products at L = 4 allocated");
    for _ in 0..1000 {
        y = schoolbook.mul(y, b);
    }
    assert_eq!(x, y, "the counted products are the schoolbook ones");
}
