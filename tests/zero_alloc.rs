//! Counting-allocator proof of the zero-alloc emission path.
//!
//! The tentpole claim of the compact-key pipeline is that the word-count
//! map-combine hot loop performs **zero heap allocations per emitted word**
//! when keys fit `CompactKey`'s inline buffer: lower-casing writes into the
//! inline buffer, `Hashed::wrap` computes the hash without touching the
//! heap, and a pre-sized combine table neither grows nor boxes keys. This
//! binary installs a counting `#[global_allocator]` and asserts exactly
//! that — and, as a control, that the seed `String` path allocates at
//! least once per word on the same input. The fixed-size hash container
//! gets the same proof: filled to its cap and folded into, it allocates
//! nothing after it is built.
//!
//! Both proofs run in the one test of this binary: a second test would
//! run concurrently, and its allocations — or the harness's, reporting
//! it — would race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mr_apps::WordCount;
use mr_core::{ContainerKind, Emitter, HasherKind, MapReduceJob, RuntimeError};
use ramr_containers::{CompactKey, HashContainer, Hashed, HashedJobContainer};

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
    let mut table: HashContainer<CompactKey, u64> = HashContainer::with_capacity(1024);

    let before = allocations();
    let mut sink = |key: CompactKey, value: u64| {
        let key = Hashed::wrap(HasherKind::Fx, key);
        table
            .combine_insert(key, value, |a, b| *a += b)
            .expect("an uncapped table takes every key");
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
            let key = Hashed::wrap(HasherKind::Fx, word.to_ascii_lowercase());
            seed_table.combine_insert(key, 1, |a, b| *a += b).unwrap();
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
    let mut seed_pairs: Vec<(String, u64)> =
        seed_table.into_pairs().into_iter().map(|(k, v)| (k.into_key(), v)).collect();
    let mut compact_pairs: Vec<(String, u64)> =
        table.iter().map(|(k, &v)| (k.key().as_str().to_owned(), v)).collect();
    seed_pairs.sort_unstable();
    compact_pairs.sort_unstable();
    assert_eq!(seed_pairs, compact_pairs, "the String and CompactKey paths disagree");

    fixed_hash_folds_to_its_cap_without_allocating();
}

/// A fixed-hash container folds `CAP` distinct keys and more pairs into
/// them without allocating, fresh and kept, then refuses one more key.
fn fixed_hash_folds_to_its_cap_without_allocating() {
    const CAP: usize = 300;
    let key = |i: usize| Hashed::wrap(HasherKind::Fx, CompactKey::new(&format!("w{i}")));
    let mut table =
        HashedJobContainer::for_job(&WordCount, ContainerKind::FixedHash, Some(CAP)).unwrap();
    // Two jobs: a fresh table, then the same table kept and taken over.
    for job in 0..2 {
        if job == 1 {
            let kept = table.drain_to_keep(&mut Vec::new());
            let kind = ContainerKind::FixedHash;
            table = HashedJobContainer::reusing(&WordCount, kind, Some(CAP), Some(kept)).unwrap();
        }
        // Every pair is built before the count starts; only the folds are
        // counted. Past the cap keys, more pairs fold into keys already held.
        let distinct: Vec<(Hashed<CompactKey>, u64)> = (0..CAP).map(|i| (key(i), 1)).collect();
        let mut repeats: Vec<(Hashed<CompactKey>, u64)> =
            (0..4 * CAP).map(|i| (key(i * 7 % CAP), 1)).collect();

        let before = allocations();
        for (k, v) in distinct {
            table.insert(k, v).unwrap();
        }
        table.insert_from(&mut repeats).unwrap();
        let after = allocations();

        assert_eq!(table.len(), CAP);
        assert_eq!(
            after - before,
            0,
            "job {job}: a fixed-hash container folded {CAP} keys and {} repeats \
             with {} allocations",
            4 * CAP,
            after - before
        );
    }
    let err = table.insert(key(CAP), 1).unwrap_err();
    assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: CAP, .. }), "{err}");
    assert_eq!(table.len(), CAP);
}
