//! Heap allocations per SLD resolution step on a catalogue-style
//! transitive closure: `requires(c47, root)` over a depth-48 `prereq`
//! chain, with the two `requires` rules of the catalogue server's policy.
//!
//! For a fixed toolchain the count is as deterministic as the step
//! count; the bound leaves headroom for other toolchains. This binary
//! holds one test so its counting allocator sees no other test's work.

use peertrust_core::prelude::*;
use peertrust_engine::Solver;
use peertrust_parser::{parse_goals, parse_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most allocations one resolution step may make, averaged over the
/// solve.
const MAX_ALLOCS_PER_STEP: f64 = 12.0;

const CHAIN_DEPTH: usize = 48;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn catalogue() -> KnowledgeBase {
    let mut src = String::from(
        "requires(C, P) <- prereq(C, P).\n\
         requires(C, P) <- prereq(C, Q), requires(Q, P).\n\
         prereq(c0, root).\n",
    );
    for n in 1..CHAIN_DEPTH {
        src.push_str(&format!("prereq(c{n}, c{}).\n", n - 1));
    }
    let mut kb: KnowledgeBase = parse_program(&src).unwrap().into_iter().collect();
    kb.freeze();
    kb
}

#[test]
fn closure_step_allocations_stay_within_budget() {
    let kb = catalogue();
    let goals = parse_goals(&format!("requires(c{}, root)", CHAIN_DEPTH - 1)).unwrap();
    let self_id = PeerId::new("Catalog");
    // Warm-up: one-time interning and lazy statics are not per-step work.
    assert_eq!(Solver::new(&kb, self_id).solve(&goals).len(), 1);

    let mut solver = Solver::new(&kb, self_id);
    let before = allocs();
    let solutions = solver.solve(&goals);
    let made = allocs() - before;
    drop(solutions);

    let steps = solver.stats().steps;
    let per_step = made as f64 / steps as f64;
    println!("{made} allocations over {steps} steps: {per_step:.2} per step");
    assert!(
        per_step <= MAX_ALLOCS_PER_STEP,
        "{per_step:.2} allocations per step ({made} over {steps} steps) exceeds {MAX_ALLOCS_PER_STEP}"
    );
}
