//! Counting-allocator proof of the warm combine table.
//!
//! A static combiner keeps its hash table across the epochs of a session:
//! the first job grows the index by doubling and the entries with it, later
//! jobs find the index at its grown size and reserve the entries once. This
//! binary installs a byte-counting `#[global_allocator]` and asserts that
//! on large allocations — the table is the only thing in a word-count job
//! that makes many — and, as a control, that a *fresh* session pays the
//! first job's bill again: the saving is the kept table, not the process
//! warming up.
//!
//! The test lives alone in this binary (as in `zero_alloc.rs`): sibling
//! tests would allocate concurrently and race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mr_apps::WordCount;
use mr_core::{ContainerKind, RuntimeConfig};
use ramr::Backend;

/// Allocations below this are not the table's: per-job frames, telemetry
/// cells, emit buffers and the like.
const LARGE: usize = 32 * 1024;

struct LargeBytes;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a side effect only.
unsafe impl GlobalAlloc for LargeBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargeBytes = LargeBytes;

/// Bytes requested in large allocations while `f` runs, on any thread.
fn large_bytes_during(f: impl FnOnce()) -> u64 {
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    f();
    LARGE_BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn a_session_grows_its_combine_table_once() {
    // 34 000 distinct words, each seen twice. Built by doubling, index and
    // entries ask for about 6 MB on the way to 34 000 keys; kept, the index
    // asks for nothing and the entries for 1.4 MB, once. One reducer, so
    // that the rest is the same every time: the output vector and the
    // mapper's emit buffer (several reducers range-partition into buckets
    // whose sizes move from run to run).
    const WORDS: usize = 34_000;
    let input: Vec<String> = (0..WORDS / 5)
        .map(|i| {
            (0..10).map(|j| format!("w{}", (i * 10 + j) % WORDS)).collect::<Vec<_>>().join(" ")
        })
        .collect();
    let config = RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .num_reducers(1)
        .container(ContainerKind::Hash)
        .build()
        .unwrap();
    let session = || Backend::RamrStatic.session::<WordCount>(config.clone()).unwrap();

    let mut warm = session();
    let mut submits = [0u64; 3];
    for bytes in &mut submits {
        *bytes = large_bytes_during(|| {
            let out = warm.submit(&WordCount, &input).unwrap().output;
            assert_eq!(out.pairs.len(), WORDS);
        });
    }
    let [first, second, third] = submits;
    assert!(
        third * 2 <= first,
        "submit 3 requested {third} large bytes against submit 1's {first}: the table was rebuilt"
    );
    assert_eq!(second, third, "submits 2 and 3 run on the same kept table");

    let mut fresh = session();
    let again = large_bytes_during(|| {
        fresh.submit(&WordCount, &input).unwrap();
    });
    assert_eq!(again, first, "a fresh session's first submit pays the growth again");
}
