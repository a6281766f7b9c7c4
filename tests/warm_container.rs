//! Counting-allocator proof of the warm combine table.
//!
//! A static combiner keeps its hash table across the epochs of a session:
//! the first job grows the index by doubling and the entries with it, later
//! jobs find the index at its grown size and reserve the entries once. This
//! binary installs a byte-counting `#[global_allocator]` and asserts that
//! on large allocations — the table is the only thing in a word-count job
//! that makes many — and, as a control, that a *fresh* session pays the
//! first job's bill again: the saving is the kept table, not the process
//! warming up. The mapper keeps its emit buffer next to its write-end the
//! same way, so a warm submit never asks for a block of that size.
//!
//! The test lives alone in this binary (as in `zero_alloc.rs`): sibling
//! tests would allocate concurrently and race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mr_apps::WordCount;
use mr_core::{ContainerKind, RuntimeConfig};
use ramr::Backend;
use ramr_containers::{CompactKey, Hashed};

/// Allocations below this are not the table's: per-job frames, telemetry
/// cells and the like.
const LARGE: usize = 32 * 1024;

struct LargeBytes;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The byte size of one mapper's emit buffer, and how many allocations
/// asked for exactly that.
static EMIT_BUFFER_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static EMIT_BUFFERS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
    if size == EMIT_BUFFER_BYTES.load(Ordering::Relaxed) {
        EMIT_BUFFERS.fetch_add(1, Ordering::Relaxed);
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

/// Bytes requested in large allocations while `f` runs, on any thread, and
/// the number of those that were emit-buffer sized.
fn large_bytes_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (LARGE_BYTES.load(Ordering::Relaxed), EMIT_BUFFERS.load(Ordering::Relaxed));
    f();
    (
        LARGE_BYTES.load(Ordering::Relaxed) - before.0,
        EMIT_BUFFERS.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn a_session_grows_its_combine_table_once() {
    // 34 000 distinct words, each seen twice. Built by doubling, index and
    // entries ask for about 6 MB on the way to 34 000 keys; kept, the index
    // asks for nothing and the entries for 1.4 MB, once. One reducer, so
    // that the rest is the same every time: the output vector (several
    // reducers range-partition into buckets whose sizes move from run to
    // run). The mapper's emit buffer is allocated with the session.
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
    let emit_buffer = config.effective_emit_buffer() * size_of::<(Hashed<CompactKey>, u64)>();
    EMIT_BUFFER_BYTES.store(emit_buffer, Ordering::Relaxed);
    let session = || Backend::RamrStatic.session::<WordCount>(config.clone()).unwrap();

    let mut warm = None;
    let (_, opened) = large_bytes_during(|| warm = Some(session()));
    assert!(opened >= 1, "opening the session allocates the {emit_buffer}-byte emit buffer");
    let mut warm = warm.unwrap();
    let mut submits = [(0u64, 0u64); 3];
    for bytes in &mut submits {
        *bytes = large_bytes_during(|| {
            let out = warm.submit(&WordCount, &input).unwrap().output;
            assert_eq!(out.pairs.len(), WORDS);
        });
    }
    let [(first, _), (second, emit_buffers_2), (third, emit_buffers_3)] = submits;
    assert_eq!(
        (emit_buffers_2, emit_buffers_3),
        (0, 0),
        "submits 2 and 3 asked for a {emit_buffer}-byte emit buffer: it was not kept"
    );
    assert!(
        third * 2 <= first,
        "submit 3 requested {third} large bytes against submit 1's {first}: the table was rebuilt"
    );
    assert_eq!(second, third, "submits 2 and 3 run on the same kept table");

    let mut fresh = session();
    let (again, _) = large_bytes_during(|| {
        fresh.submit(&WordCount, &input).unwrap();
    });
    assert_eq!(again, first, "a fresh session's first submit pays the growth again");
}
