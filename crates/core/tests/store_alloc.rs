//! Allocation guard for the replica store. A counting global allocator
//! pins three properties of its layout: sharing is a logarithmic number
//! of allocations (the slabs double), failed, stale and repeated changes
//! allocate nothing, and the store's live bytes stay within a small
//! factor of the bodies it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdso_core::{Diff, LogicalTime, ObjectId, ObjectStore, Version};

/// The paper workloads' world: 768 cells of 64 bytes.
const OBJECTS: u32 = 768;
const BODY: usize = 64;
const BODY_BYTES: usize = OBJECTS as usize * BODY;

/// Allocation calls (`alloc` and `realloc`) sharing the world may make.
/// Two doubling buffers make them all: the entries (4 → 1024 slots, 9
/// calls) and the body slab (64 → 65536 bytes, 11 calls); 20 were
/// measured. One allocation per object, 768 or more, is what the bound
/// rules out.
const SHARE_ALLOCS: usize = 32;

thread_local! {
    /// Allocation calls made on this thread.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Counts the test thread's own allocations, so the harness's other
/// threads cannot perturb a measurement.
struct Counting;

fn note(calls: usize, bytes: isize) {
    // `try_with`: thread-local storage may already be gone while a
    // thread tears down.
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning the allocation calls it made and the change in
/// live bytes.
fn counted(f: impl FnOnce()) -> (usize, isize) {
    let (calls, live) = (CALLS.with(Cell::get), LIVE.with(Cell::get));
    f();
    (CALLS.with(Cell::get) - calls, LIVE.with(Cell::get) - live)
}

fn v(tick: u64) -> Version {
    Version::new(LogicalTime::from_ticks(tick), 0)
}

/// A store holding the world, and what sharing it cost.
fn shared_world() -> (ObjectStore, usize, isize) {
    let mut bodies: Vec<Vec<u8>> = (0..OBJECTS).map(|i| vec![i as u8; BODY]).collect();
    let mut store = ObjectStore::new();
    let (calls, live) = counted(|| {
        for (i, body) in bodies.drain(..).enumerate() {
            store.share(ObjectId(i as u32), body).unwrap();
        }
    });
    (store, calls, live)
}

#[test]
fn sharing_costs_logarithmic_allocations_and_little_memory() {
    let (store, calls, live) = shared_world();
    assert_eq!(store.len(), OBJECTS as usize);
    assert!(calls <= SHARE_ALLOCS, "sharing {OBJECTS} objects made {calls} allocation calls");
    // The caller's body buffers were freed inside the window; add them
    // back to get what the store itself holds.
    let store_bytes = live + BODY_BYTES as isize;
    assert!(
        store_bytes * 2 <= BODY_BYTES as isize * 5,
        "store holds {store_bytes} bytes for {BODY_BYTES} bytes of bodies"
    );
}

#[test]
fn failed_stale_and_repeated_changes_allocate_nothing() {
    let (mut store, _, _) = shared_world();
    let out_of_bounds = Diff::single(0, vec![1]).merge(&Diff::single(BODY as u32 + 1, vec![1]));
    let remote = Diff::single(8, vec![3; 8]);
    // Nothing has changed yet, so copying any object's registered bytes
    // aside would have to allocate the second slab.
    let (calls, _) = counted(|| {
        assert!(store.write(ObjectId(0), BODY as u32, &[1], v(1)).is_err());
        assert!(store.replace(ObjectId(1), &[1; BODY + 1], v(1)).is_err());
        assert!(!store.apply_remote(ObjectId(2), &remote, Version::INITIAL).unwrap());
        assert!(!store.replace_if_newer(ObjectId(3), &[1; BODY], Version::INITIAL).unwrap());
    });
    assert_eq!(calls, 0, "failed or stale operations allocated");
    // An out-of-bounds diff's error formats a message, so here the check
    // is that nothing outlives the error.
    let (_, live) = counted(|| {
        assert!(store.apply_remote(ObjectId(4), &out_of_bounds, v(1)).is_err());
    });
    assert_eq!(live, 0, "a failed remote diff left memory behind");

    for i in 0..OBJECTS {
        store.write(ObjectId(i), 0, &[9], v(1)).unwrap();
    }
    let (calls, _) = counted(|| {
        for i in 0..OBJECTS {
            let id = ObjectId(i);
            store.write(id, 4, &[7; 4], v(2)).unwrap();
            store.replace(id, &[5; BODY], v(3)).unwrap();
            assert!(store.apply_remote(id, &remote, v(4)).unwrap());
        }
    });
    assert_eq!(calls, 0, "changing changed objects allocated");
    assert_eq!(store.initial_body(ObjectId(7)), Some(&[7u8; BODY][..]));
}
