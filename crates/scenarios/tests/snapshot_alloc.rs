//! Heap allocations of a per-job peer-map snapshot: the copy-on-write
//! `PeerMap` shares its frozen peers, so a snapshot of a frozen map
//! allocates nothing, and a job pays only for the peers it writes.
//!
//! Both checks are a zero or an equality, so they hold on every
//! toolchain. Counts are per thread: tests running beside these on other
//! threads do not disturb them.

use peertrust_negotiation::PeerMap;
use peertrust_scenarios::serving_workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocator calls `f` makes on this thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
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

/// The frozen peer map of `zipf_serve`'s construction with `resources`
/// clients (`resources + 1` peers), and its server's id.
fn frozen_map(resources: usize) -> (PeerMap, peertrust_core::PeerId) {
    let w = serving_workload(resources, 4, 4096, 1.1, 1);
    let mut peers = w.peers;
    peers.freeze();
    (peers, w.jobs[0].responder)
}

#[test]
fn snapshots_of_a_frozen_map_allocate_nothing() {
    let (peers, _) = frozen_map(64);
    assert_eq!(peers.ids().len(), 65);
    let made = allocs_of(|| drop(peers.clone()));
    assert_eq!(made, 0, "clone and drop of a frozen 65-peer map");
}

#[test]
fn a_first_write_costs_the_same_whatever_the_map_size() {
    let first_write = |resources: usize| {
        let (peers, server) = frozen_map(resources);
        let mut snapshot = peers.clone();
        let made = allocs_of(|| {
            snapshot.get_mut(server).expect("the server is in the map");
        });
        assert!(snapshot.shares_frozen_bases_with(&peers));
        made
    };
    let (small, large) = (first_write(8), first_write(64));
    println!("first write: {small} allocator calls at 9 peers, {large} at 65");
    assert_eq!(small, large);
}
