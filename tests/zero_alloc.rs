//! Counting-allocator proof of the zero-alloc emission path.
//!
//! The tentpole claim of the compact-key pipeline is that the word-count
//! map-combine hot loop performs **zero heap allocations per emitted word**
//! when keys fit `CompactKey`'s inline buffer: lower-casing writes into the
//! inline buffer, `Hashed::wrap` computes the hash without touching the
//! heap, and a pre-sized combine table neither grows nor boxes keys. This
//! binary installs a counting `#[global_allocator]` and asserts exactly
//! that — and, as a control, that the seed `String` path allocates at
//! least once per word on the same input.
//!
//! The test lives alone in this binary: a shared test binary would run
//! sibling tests concurrently and their allocations would race the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mr_apps::WordCount;
use mr_core::{Emitter, HasherKind, MapReduceJob};
use ramr_containers::{CompactKey, HashContainer, Hashed, Passthrough};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn map_combine_hot_loop_is_zero_alloc_for_inline_keys() {
    // Every word is <= INLINE_CAPACITY bytes, as in natural text.
    let input: Vec<String> = (0..256)
        .map(|i| format!("Alpha bravo-{} ChArLiE delta w{:03} mapreduce", i % 17, i % 41))
        .collect();
    let word_count: usize = input.iter().map(|l| l.split_ascii_whitespace().count()).sum();
    assert!(input
        .iter()
        .flat_map(|l| l.split_ascii_whitespace())
        .all(|w| w.len() <= CompactKey::INLINE_CAPACITY));

    // Pre-size the combine table past the unique-key count. That is how a
    // session's static combiner finds its table from its second job on: it
    // keeps the table across epochs, the index as the first job grew it and
    // the entries reserved for as many keys as it last drained.
    // `with_capacity(n)` guarantees n keys fit without growing the index or
    // reallocating the entries.
    let mut table: HashContainer<Hashed<CompactKey>, u64, Passthrough> =
        HashContainer::with_capacity_and_hasher(1024, Passthrough);

    let before = allocations();
    let mut sink = |key: CompactKey, value: u64| {
        let key = Hashed::wrap(HasherKind::Fx, key);
        table.combine_insert_hashed(key.hash(), key, value, |a, b| *a += b);
    };
    WordCount.map(&input, &mut Emitter::new(&mut sink));
    let after = allocations();

    assert!(!table.is_empty() && table.len() < 1024);
    assert_eq!(
        after - before,
        0,
        "the inline-key map-combine loop must not touch the heap \
         ({} words emitted, {} allocations observed)",
        word_count,
        after - before
    );

    // Control: the seed String path allocates at least once per word
    // (`to_ascii_lowercase`), proving the counter observes this loop.
    let mut seed_table: HashContainer<String, u64> = HashContainer::with_capacity(1024);
    let before = allocations();
    for line in &input {
        for word in line.split_ascii_whitespace() {
            seed_table.combine_insert(word.to_ascii_lowercase(), 1, |a, b| *a += b);
        }
    }
    let after = allocations();
    assert!(
        after - before >= word_count as u64,
        "the String control path should allocate per word ({} words, {} allocations)",
        word_count,
        after - before
    );
    // Both key representations fold the same words to the same counts.
    let mut seed_pairs: Vec<(String, u64)> = seed_table.into_pairs();
    let mut compact_pairs: Vec<(String, u64)> =
        table.iter().map(|(k, &v)| (k.key().as_str().to_owned(), v)).collect();
    seed_pairs.sort_unstable();
    compact_pairs.sort_unstable();
    assert_eq!(seed_pairs, compact_pairs, "the String and CompactKey paths disagree");
}
