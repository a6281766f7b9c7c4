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
//! A mapper whose combiner is behind folds its blocks into a spill table it
//! keeps the same way, so a warm spilling submit grows no new one.
//!
//! The tests live alone in this binary (as in `zero_alloc.rs`) and take
//! turns: sibling tests would allocate concurrently and race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mr_apps::WordCount;
use mr_core::{ContainerKind, Emitter, MapReduceJob, RuntimeConfig};
use ramr::{Backend, EngineSession};
use ramr_containers::{CompactKey, Hashed};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations below this are not the table's: per-job frames, telemetry
/// cells and the like.
const LARGE: usize = 32 * 1024;

struct LargeBytes;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The byte size of one mapper's emit buffer, and how many allocations
/// asked for exactly that.
static EMIT_BUFFER_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static EMIT_BUFFERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while the submitting thread is inside a [`Spills`] map call.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Bytes allocated on a thread while [`IN_MAP`] was set.
static IN_MAP_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
    if size == EMIT_BUFFER_BYTES.load(Ordering::Relaxed) {
        EMIT_BUFFERS.fetch_add(1, Ordering::Relaxed);
    }
    if IN_MAP.try_with(Cell::get).unwrap_or(false) {
        IN_MAP_BYTES.fetch_add(size as u64, Ordering::Relaxed);
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
    let _serial = serial();
    // 34 000 distinct words, each seen twice. Built by doubling, index and
    // entries ask for about 6 MB on the way to 34 000 keys; kept, the index
    // asks for nothing and the entries for 1.4 MB, once. One reducer, so
    // that the rest is the same every time: the output vector (several
    // reducers range-partition into buckets whose sizes move from run to
    // run). The mapper's emit buffer is allocated with the session. A
    // mapper folds a block itself only when its combiner is a full batch
    // behind or the queue has no room; here the queue and the batch both
    // hold every pair of the job, so neither can happen, the mapper never
    // grows a spill table of its own (`a_mapper_grows_its_spill_table_once`
    // covers that one), and what is counted is the combiner's table.
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
        .queue_capacity(2 * WORDS)
        .batch_size(2 * WORDS)
        .emit_buffer_size(RuntimeConfig::default().effective_emit_buffer())
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
            let (out, report) = warm.submit(&WordCount, &input).unwrap().into_parts();
            assert_eq!(out.pairs.len(), WORDS);
            assert_eq!(report.spilled, 0, "the mapper spilled: {report:?}");
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

/// Counts `(x / 4) % KEYS`: every block of 4 pairs repeats a key. Combines
/// off the submitting thread wait until the submitter's first map call has
/// returned, so the combiner of the session's one mapper — the submitter —
/// is a batch behind after one block and the rest of that call spills,
/// every key with it.
struct Spills {
    submitter: ThreadId,
    gate: AtomicBool,
}

const KEYS: u64 = 4096;

impl MapReduceJob for Spills {
    type Input = u64;
    type Key = u64;
    type Value = u64;

    fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
        let on_submitter = thread::current().id() == self.submitter;
        IN_MAP.set(on_submitter);
        for &x in task {
            emit.emit((x / 4) % KEYS, 1);
        }
        IN_MAP.set(false);
        if on_submitter {
            self.gate.store(true, Ordering::SeqCst);
        }
    }

    fn combine(&self, acc: &mut u64, v: u64) {
        if thread::current().id() != self.submitter {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !self.gate.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the mapper never folded a block itself");
                thread::yield_now();
            }
        }
        *acc += v;
    }
}

#[test]
fn a_mapper_grows_its_spill_table_once() {
    // Four tasks of 50 000 elements, each covering every key many times.
    // What the submitter allocates inside its map calls is the spill table
    // and nothing else: built by doubling in submit 1; kept, its index asks
    // for nothing and its entries for one reservation.
    let _serial = serial();
    let input: Vec<u64> = (0..200_000).collect();
    let config = RuntimeConfig::builder()
        .num_workers(1)
        .num_combiners(1)
        .task_size(50_000)
        .queue_capacity(8)
        .batch_size(4)
        .container(ContainerKind::Hash)
        .build()
        .unwrap();
    let submit = |session: &mut EngineSession<Spills>| {
        let job = Spills { submitter: thread::current().id(), gate: AtomicBool::new(false) };
        let before = IN_MAP_BYTES.load(Ordering::Relaxed);
        let (out, report) = session.submit(&job, &input).unwrap().into_parts();
        assert_eq!(out.pairs.len() as u64, KEYS);
        assert_eq!(out.pairs.iter().map(|&(_, n)| n).sum::<u64>(), input.len() as u64);
        assert!(report.spilled_per_mapper[0] > 0, "the mapper never spilled: {report:?}");
        IN_MAP_BYTES.load(Ordering::Relaxed) - before
    };
    let mut warm = Backend::RamrStatic.session(config.clone()).unwrap();
    let [first, second, third] = [(); 3].map(|()| submit(&mut warm));
    assert!(first > 0, "submit 1 built no spill table inside its map calls");
    assert_eq!(second, third, "submits 2 and 3 spill into the same kept table");
    assert!(
        third * 2 <= first,
        "submit 3 allocated {third} bytes spilling against submit 1's {first}: the spill table \
         was rebuilt"
    );
    let again = submit(&mut Backend::RamrStatic.session(config).unwrap());
    assert_eq!(again, first, "a fresh session's first spill pays the growth again");
}
