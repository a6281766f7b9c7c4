//! A lock-free, fixed-capacity single-producer/single-consumer queue.
//!
//! This is the communication substrate RAMR uses to pipeline intermediate
//! key-value pairs from each mapper to its assigned combiner (paper §III-A).
//! The paper builds on `boost::lockfree::spsc_queue`; this crate implements
//! the same Lamport-style ring buffer from scratch and layers on the paper's
//! two additions:
//!
//! * **Sleep on failed push** — a blocking push must always succeed
//!   eventually (dropping or overwriting elements would violate
//!   correctness), so a producer publishing a block into a full queue spins
//!   briefly and then *sleeps* before each retry instead of busy-waiting,
//!   freeing core resources for the co-located combiner
//!   ([`Producer::push_batch_with_backoff`]). Nothing wakes it: the only
//!   wake-up handshake is the consumer's, which the producer rings when it
//!   publishes or closes ([`Consumer::wait_any`]).
//! * **Batched reads** — the consumer drains runs of contiguous elements
//!   with a single control-variable update, reducing producer/consumer
//!   congestion on the shared indices and favouring spatial locality
//!   ([`Consumer::pop_batch`]).
//!
//! A fixed-size buffer is used instead of a dynamically resizable one
//! because of the scalability penalty of dynamic memory allocators (paper
//! §III-A, citing Hoard). The paper found a capacity of five thousand
//! elements within 2% of optimal across all test-cases.
//!
//! The queue is split at construction into a [`Producer`] and a [`Consumer`]
//! handle, enforcing the single-producer/single-consumer discipline in the
//! type system rather than by convention.
//!
//! # Example
//!
//! ```
//! use ramr_spsc::SpscQueue;
//!
//! let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
//! std::thread::spawn(move || {
//!     let mut block: Vec<u32> = (0..100).collect();
//!     tx.push_batch_with_backoff(&mut block, &Default::default());
//! });
//! let mut sum = 0u64;
//! let mut received = 0;
//! while received < 100 {
//!     received += rx.pop_batch(16, |v| sum += u64::from(v));
//! }
//! assert_eq!(sum, (0..100u64).sum());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Pads and aligns a value to its own cache line, so the atomics the two
/// queue ends write do not false-share. 128 bytes covers the adjacent-line
/// prefetcher pair on x86 and the 128-byte lines of some AArch64 parts.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// What a producer does between failed push attempts: spin `spins` times,
/// then sleep `sleep` before each retry.
///
/// Shaped like `mr_core::PushBackoff` without depending on that crate (this
/// queue is a standalone substrate), but it sleeps where `PushBackoff`
/// parks: nobody rings a producer when space frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Failed attempts spent spinning before the first sleep.
    pub spins: u32,
    /// The nap before each retry once the spins are used up.
    pub sleep: Duration,
}

impl Default for BackoffPolicy {
    /// The paper's preferred strategy: 64 spins, then sleeps of 50 µs.
    fn default() -> Self {
        BackoffPolicy { spins: 64, sleep: Duration::from_micros(50) }
    }
}

/// The consumer's wake-on-progress doorbell. The consumer *arms* it,
/// re-checks its condition and parks; the producer *rings* it after every
/// tail update and on close.
///
/// ORDERING: this is a store→load (Dekker) hand-shake, not a publication.
/// The waiter stores `waiting` and then loads `tail`; the ringer stores
/// `tail` and then loads `waiting`. Acquire/Release alone lets
/// both loads pass their own earlier store, so each side can miss the
/// other: the waiter parks on a count that already satisfies it and nobody
/// rings. A `SeqCst` fence between the store and the load on *both* sides
/// orders the two fences, and whichever comes second sees the other side's
/// store — the waiter skips the park or the ringer unparks it. (SNIPPETS.md
/// snippet 2, an atomic next to an `UnsafeCell` with the orderings commented
/// out, is this bug class.) A ring that lands after the waiter already woke
/// leaves a stale `unpark` token, which only makes the thread's next park
/// return early, this wait's or another's (a session's epoch wait): every
/// wait loop re-checks its condition.
///
/// The waiter is one thread, bound by the consumer's first `arm`. `ring`
/// reads that slot only after its `Acquire` load of `waiting` has seen
/// `arm`'s `Release` store, so our own atomic publishes it.
struct Doorbell {
    /// On its own cache line: the ringer loads it once per block published,
    /// the waiter writes it on the slow path only.
    waiting: CachePadded<AtomicBool>,
    /// The buffered count below which a ring would only buy a wake-up that
    /// parks again. Written before `waiting` (Release), read after it (Acquire).
    need: AtomicUsize,
    /// The consumer's thread, bound by its first wait.
    thread: OnceLock<Thread>,
}

impl Doorbell {
    fn new() -> Self {
        Self {
            waiting: CachePadded(AtomicBool::new(false)),
            need: AtomicUsize::new(0),
            thread: OnceLock::new(),
        }
    }

    /// Waiter, step one of `arm` → `fence(SeqCst)` → re-check → park →
    /// `disarm`.
    fn arm(&self, need: usize) {
        let bound = self.thread.get_or_init(std::thread::current);
        assert!(
            bound.id() == std::thread::current().id(),
            "a ring's consumer must wait on the thread that first waited on it"
        );
        self.need.store(need, Ordering::Relaxed);
        self.waiting.store(true, Ordering::Release);
    }

    fn disarm(&self) {
        self.waiting.store(false, Ordering::Relaxed);
    }

    /// Ringer: call right after the store that changed `count`. Costs one
    /// fence and one load when nobody waits.
    #[inline]
    fn ring(&self, count: impl FnOnce() -> usize) {
        fence(Ordering::SeqCst);
        if self.waiting.load(Ordering::Acquire)
            && count() >= self.need.load(Ordering::Relaxed)
            && self.waiting.swap(false, Ordering::Relaxed)
        {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }
}

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Monotonic count of elements ever popped. Slot = index % capacity.
    head: CachePadded<AtomicUsize>,
    /// Monotonic count of elements ever pushed.
    tail: CachePadded<AtomicUsize>,
    /// Set when the producer is dropped; lets the consumer distinguish
    /// "empty for now" from "empty forever".
    closed: AtomicBool,
    /// Rung by the producer when it publishes or closes; the consumer parks
    /// on it, always on one thread. A producer never waits, so this is the
    /// ring's one handshake.
    data: Doorbell,
}

impl<T> Inner<T> {
    /// Publishes `tail` and rings a consumer waiting for that many elements.
    #[inline]
    fn publish_tail(&self, tail: usize) {
        self.tail.store(tail, Ordering::Release);
        self.data.ring(|| tail - self.head.load(Ordering::Relaxed));
    }

    /// End of stream: always worth a wake-up, whatever the consumer needs.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.data.ring(|| usize::MAX);
    }
}

// SAFETY: `Inner` is shared between exactly one producer and one consumer
// thread. All slot accesses are ordered by acquire/release operations on
// `head`/`tail`: the producer only writes slots in `tail..head+cap` and the
// consumer only reads slots in `head..tail`, and the index updates publish
// those accesses. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any elements still in the queue. We have exclusive access
        // here (both handles are gone), so plain loads are fine.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i % self.buf.len()];
            // SAFETY: slots in head..tail hold initialized values that no
            // other code will touch again.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// A fixed-capacity SPSC queue, created via [`SpscQueue::with_capacity`] and
/// consumed by [`SpscQueue::split`].
#[derive(Debug)]
pub struct SpscQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Inner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscInner")
            .field("capacity", &self.buf.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Send> SpscQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
            (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        Self {
            inner: Arc::new(Inner {
                buf,
                head: CachePadded(AtomicUsize::new(0)),
                tail: CachePadded(AtomicUsize::new(0)),
                closed: AtomicBool::new(false),
                data: Doorbell::new(),
            }),
        }
    }

    /// Splits the queue into its producer and consumer halves.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        let producer = Producer { inner: Arc::clone(&self.inner), cached_head: 0 };
        let consumer = Consumer { inner: self.inner, cached_tail: 0 };
        (producer, consumer)
    }
}

/// The write half of an [`SpscQueue`]; owned by exactly one mapper thread.
///
/// Dropping the producer closes the queue: the consumer can then drain the
/// remaining elements and observe [`Consumer::is_closed`].
#[derive(Debug)]
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Producer-local copy of `head`, refreshed only when the queue looks
    /// full — the classic cached-cursor optimization that keeps the hot
    /// path free of cross-core cache traffic.
    cached_head: usize,
}

impl<T: Send> Producer<T> {
    /// Attempts to push without blocking.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` — handing the element back — when the queue is
    /// full.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        let cap = inner.buf.len();
        let tail = inner.tail.load(Ordering::Relaxed);
        if tail - self.cached_head == cap {
            // Looks full based on the stale cursor; refresh and re-check.
            self.cached_head = inner.head.load(Ordering::Acquire);
            if tail - self.cached_head == cap {
                return Err(value);
            }
        }
        let slot = &inner.buf[tail % cap];
        // SAFETY: slot `tail` is outside `head..tail`, so the consumer will
        // not touch it until we publish the new tail below.
        unsafe { (*slot.get()).write(value) };
        inner.publish_tail(tail + 1);
        Ok(())
    }

    /// Moves as many elements as fit out of the front of `buf` into the
    /// queue, publishing them with a **single** tail update. The written
    /// prefix is removed from `buf`; unwritten elements stay in place.
    ///
    /// This is the block-transfer primitive behind the runtime's emit
    /// buffer: a mapper accumulates emissions locally and hands whole
    /// blocks to the queue, so the consumer observes one control-variable
    /// write per block instead of per pair.
    ///
    /// Returns the number of elements written (zero when the queue is
    /// full or `buf` is empty).
    pub fn push_batch_drain(&mut self, buf: &mut Vec<T>) -> usize {
        if buf.is_empty() {
            return 0;
        }
        let (tail, free) = self.free_run(buf.len());
        let take = free.min(buf.len());
        if take == 0 {
            return 0;
        }
        let inner = &*self.inner;
        let cap = inner.buf.len();
        let start = tail % cap;
        let first = take.min(cap - start);
        let rest = buf.len() - take;
        // SAFETY: slots tail..tail+take are outside `head..tail`, so the
        // consumer will not touch them until the release store below. They
        // are the ring segments `start..start+first` and `0..take-first`,
        // both inside `inner.buf`, whose element type is layout-identical
        // to `T` (`UnsafeCell` and `MaybeUninit` are transparent). The
        // copies move `buf[..take]` out bit-wise; shifting the unwritten
        // suffix down and shrinking `buf` to it before anything can unwind
        // means no moved-out element is ever dropped by the `Vec`.
        unsafe {
            let ring = UnsafeCell::raw_get(inner.buf.as_ptr()).cast::<T>();
            let src = buf.as_mut_ptr();
            std::ptr::copy_nonoverlapping(src, ring.add(start), first);
            std::ptr::copy_nonoverlapping(src.add(first), ring, take - first);
            std::ptr::copy(src.add(take), src, rest);
            buf.set_len(rest);
        }
        inner.publish_tail(tail + take);
        take
    }

    /// Pushes **every** element of `buf`, waiting per `policy` whenever the
    /// queue is full, leaving `buf` empty: elements are published in maximal
    /// blocks, one tail update each ([`push_batch_drain`](Self::push_batch_drain)).
    /// A zero-progress attempt counts as a failure and is followed by a
    /// spin or, once `policy.spins` are used up, a `policy.sleep` nap.
    ///
    /// Returns the number of failed attempts. The spin allowance resets
    /// after every block that makes progress, so only sustained
    /// back-pressure degrades to sleeping.
    pub fn push_batch_with_backoff(&mut self, buf: &mut Vec<T>, policy: &BackoffPolicy) -> u64 {
        let (mut failures, mut spins_left) = (0u64, policy.spins);
        while !buf.is_empty() {
            if self.push_batch_drain(buf) > 0 {
                spins_left = policy.spins;
                continue;
            }
            failures += 1;
            if spins_left == 0 {
                std::thread::sleep(policy.sleep);
            } else {
                spins_left -= 1;
                std::hint::spin_loop();
            }
        }
        failures
    }

    /// Marks the queue closed **without** giving up the producer handle —
    /// the reusable form of the end-of-stream signal that dropping the
    /// producer sends.
    ///
    /// A persistent executor that keeps its pipelines across jobs calls
    /// this at the end of each job's map phase; the consumer side observes
    /// `closed` exactly as if the producer had been dropped, and a later
    /// [`Consumer::reopen`] re-arms the same queue for the next job.
    /// Idempotent; elements must not be pushed again until the queue has
    /// been reopened.
    pub fn finish(&mut self) {
        self.inner.close();
    }

    /// Whether the consumer is parked on this queue's data doorbell
    /// ([`Consumer::wait_any`]) and no ring has woken it yet — a consumer
    /// with nothing to do. One Relaxed load of the doorbell's flag: a hint
    /// for deciding where the next block goes, not a synchronisation point.
    /// It can be stale in either direction, and acting on it can never lose
    /// a wake-up — that is the doorbell's own handshake.
    #[inline]
    pub fn consumer_parked(&self) -> bool {
        self.inner.data.waiting.load(Ordering::Relaxed)
    }

    /// Returns `(tail, free)` where `free` is the run of writable slots
    /// starting at `tail`. Refreshes the cached head cursor whenever the
    /// *apparent* free space cannot satisfy `wanted` — not only when the
    /// queue looks completely full — so a batch is never truncated by a
    /// stale cursor while real space exists.
    #[inline]
    fn free_run(&mut self, wanted: usize) -> (usize, usize) {
        let inner = &*self.inner;
        let cap = inner.buf.len();
        let tail = inner.tail.load(Ordering::Relaxed);
        if cap - (tail - self.cached_head) < wanted {
            self.cached_head = inner.head.load(Ordering::Acquire);
        }
        (tail, cap - (tail - self.cached_head))
    }

    /// Number of elements currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Relaxed);
        tail - head
    }

    /// Whether the queue currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of buffered elements.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.close();
    }
}

/// The read half of an [`SpscQueue`]; owned by exactly one combiner thread.
#[derive(Debug)]
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer-local copy of `tail`, refreshed only when the queue looks
    /// empty.
    cached_tail: usize,
}

impl<T: Send> Consumer<T> {
    /// Attempts to pop one element without blocking.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let cap = inner.buf.len();
        let head = inner.head.load(Ordering::Relaxed);
        if self.cached_tail == head {
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            if self.cached_tail == head {
                return None;
            }
        }
        let slot = &inner.buf[head % cap];
        // SAFETY: slot `head` is inside `head..tail`, initialized by the
        // producer and published by its release store to `tail`.
        let value = unsafe { (*slot.get()).assume_init_read() };
        inner.head.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Pops up to `max` elements, invoking `f` on each, with a **single**
    /// head update for the whole run.
    ///
    /// This is the paper's *batched read*: the producer observes one control
    /// variable write per batch instead of per element, and the consumed
    /// elements are contiguous in the ring, favouring spatial locality.
    ///
    /// The batch is unwind-safe: if `f` panics, every element already read
    /// out of the ring (including the one `f` panicked on) counts as
    /// consumed and the head cursor still advances past it exactly once, so
    /// no value is dropped twice or resurrected. Callers may therefore wrap
    /// whole batches in `catch_unwind` instead of each element.
    ///
    /// Returns the number of elements consumed (zero when the queue was
    /// empty).
    pub fn pop_batch(&mut self, max: usize, mut f: impl FnMut(T)) -> usize {
        if max == 0 {
            return 0;
        }
        let inner = &*self.inner;
        let cap = inner.buf.len();
        let head = inner.head.load(Ordering::Relaxed);
        if self.cached_tail - head < max {
            // The stale cursor cannot satisfy a full batch; refresh once.
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            if self.cached_tail == head {
                return 0;
            }
        }
        let available = self.cached_tail - head;
        let take = available.min(max);

        let mut guard = PopGuard { inner, base: head, read: 0 };
        let mut index = head % cap;
        for i in 0..take {
            let slot = &inner.buf[index];
            // SAFETY: slots head..head+take are all initialized (published
            // by the producer's release stores) and we consume each once:
            // the guard advances `read` past this slot before `f` can
            // unwind, so an unwinding `f` cannot cause a re-read.
            let value = unsafe { (*slot.get()).assume_init_read() };
            guard.read = i + 1;
            // Wrap by compare: one division per batch, not per element.
            index += 1;
            if index == cap {
                index = 0;
            }
            f(value);
        }
        drop(guard);
        take
    }

    /// Pops exactly `max` elements only if at least `max` are available;
    /// otherwise consumes nothing and returns `false`.
    ///
    /// Used by combiners that prefer full batches while mappers are still
    /// running (partial batches are drained only after map-phase end).
    pub fn pop_batch_exact(&mut self, max: usize, f: impl FnMut(T)) -> bool {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        if self.cached_tail - head < max {
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            if self.cached_tail - head < max {
                return false;
            }
        }
        let consumed = self.pop_batch(max, f);
        debug_assert_eq!(consumed, max);
        true
    }

    /// Whether the producer has been dropped or has called
    /// [`Producer::finish`].
    ///
    /// A `true` result combined with a subsequent empty pop means no element
    /// will ever arrive again *this job* (consumers must re-check emptiness
    /// *after* observing `is_closed` to avoid racing the producer's final
    /// pushes).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Re-arms a queue that was closed with [`Producer::finish`] so the same
    /// allocation serves the next job — the "reset, not realloc" half of
    /// queue reuse in a persistent session.
    ///
    /// The ring indices are monotonic and never reset; reopening only clears
    /// the end-of-stream flag.
    ///
    /// # Contract
    ///
    /// Callers must guarantee the producer thread is **quiescent** (parked
    /// between jobs, not pushing and not about to call `finish` for the
    /// previous job) when this runs, and must publish the reopen to the
    /// producer with an external happens-before edge (the session's epoch
    /// barrier) before the producer pushes again. Calling this while the
    /// producer half has been *dropped* would resurrect a queue whose
    /// producer can never close it again; sessions keep their producers
    /// alive precisely so this cannot happen.
    pub fn reopen(&mut self) {
        self.inner.closed.store(false, Ordering::Release);
    }

    /// Parks the calling thread until one of `consumers` holds `batch`
    /// elements or is closed, or `ceiling` elapses — the consumer-side
    /// wake-on-progress wait. The producers ring when they publish the
    /// block that completes a batch and when they close, so the thread
    /// resumes when there is work, not when a timer fires; `ceiling` is the
    /// caller's cancel-poll interval. May return early; callers re-check.
    ///
    /// Pass only queues that still owe data: one that was already seen
    /// closed and drained would make every call return at once.
    ///
    /// # Panics
    ///
    /// If a consumer in `consumers` has waited before on another thread:
    /// its producer rings that thread, so a consumer waits on one thread for
    /// its whole life.
    pub fn wait_any(consumers: &[Self], batch: usize, ceiling: Duration) {
        for rx in consumers {
            rx.inner.data.arm(batch);
        }
        fence(Ordering::SeqCst);
        if !consumers.iter().any(|rx| rx.len() >= batch || rx.is_closed()) {
            std::thread::park_timeout(ceiling);
        }
        for rx in consumers {
            rx.inner.data.disarm();
        }
    }

    /// Number of elements currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Relaxed);
        tail - head
    }

    /// Whether the queue currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of buffered elements.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }
}

/// Publishes a batch's consumed prefix on both the normal and the unwind
/// path: `read` is bumped *before* each callback, and the single release
/// store of `head` happens in `Drop`.
struct PopGuard<'a, T> {
    inner: &'a Inner<T>,
    base: usize,
    read: usize,
}

impl<T> Drop for PopGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.head.store(self.base + self.read, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "queue must report full at capacity");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(3).split();
        for round in 0..10u32 {
            for i in 0..3 {
                tx.try_push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.try_pop(), Some(round * 3 + i));
            }
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
        assert!(tx.is_empty() && rx.is_empty());
        assert_eq!(tx.capacity(), 8);
        assert_eq!(rx.capacity(), 8);
        for i in 0..5 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.len(), 5);
        assert_eq!(rx.len(), 5);
        rx.try_pop().unwrap();
        assert_eq!(rx.len(), 4);
    }

    #[test]
    fn pop_batch_consumes_runs() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(16).split();
        for i in 0..10u32 {
            tx.try_push(i).unwrap();
        }
        let mut seen = Vec::new();
        assert_eq!(rx.pop_batch(4, |v| seen.push(v)), 4);
        assert_eq!(rx.pop_batch(100, |v| seen.push(v)), 6);
        assert_eq!(rx.pop_batch(4, |v| seen.push(v)), 0);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_batch_zero_max_is_noop() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        tx.try_push(1).unwrap();
        assert_eq!(rx.pop_batch(0, |_: u32| panic!("must not consume")), 0);
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn pop_batch_exact_waits_for_full_batch() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
        for i in 0..3u32 {
            tx.try_push(i).unwrap();
        }
        assert!(!rx.pop_batch_exact(4, |_| panic!("must not consume a partial batch")));
        tx.try_push(3).unwrap();
        let mut seen = Vec::new();
        assert!(rx.pop_batch_exact(4, |v| seen.push(v)));
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn close_is_observable_after_producer_drop() {
        let (tx, mut rx) = SpscQueue::<u32>::with_capacity(2).split();
        assert!(!rx.is_closed());
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn remaining_elements_survive_producer_drop() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        tx.try_push(7).unwrap();
        tx.try_push(8).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), Some(7));
        assert_eq!(rx.try_pop(), Some(8));
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn drops_queued_elements_exactly_once() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
        for _ in 0..6 {
            tx.try_push(Counted).unwrap();
        }
        assert!(rx.try_pop().is_some()); // one dropped by consumption
        drop(tx);
        drop(rx); // five dropped by Inner::drop
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = SpscQueue::<u8>::with_capacity(0);
    }

    #[test]
    fn two_thread_stress_no_loss_no_duplication() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = SpscQueue::with_capacity(128).split();
        let producer = std::thread::spawn(move || {
            let policy = BackoffPolicy { spins: 32, sleep: Duration::from_micros(10) };
            for i in 0..N {
                tx.push_batch_with_backoff(&mut vec![i], &policy);
            }
        });
        let mut expected = 0u64;
        let mut sum = 0u64;
        let mut count = 0u64;
        while count < N {
            let consumed = rx.pop_batch(64, |v| {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
                sum += v;
            });
            count += consumed as u64;
            if consumed == 0 {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn two_thread_stress_mixed_batch_sizes() {
        const N: u32 = 100_000;
        let (mut tx, mut rx) = SpscQueue::with_capacity(61).split(); // prime-ish, forces wraps
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.push_batch_with_backoff(&mut vec![i], &BackoffPolicy::default());
            }
        });
        let mut next = 0u32;
        let mut batch = 1usize;
        while next < N {
            rx.pop_batch(batch, |v| {
                assert_eq!(v, next);
                next += 1;
            });
            batch = batch % 17 + 1; // cycle through batch sizes 1..=17
        }
        producer.join().unwrap();
    }

    #[test]
    fn push_batch_on_full_queue_is_zero() {
        let (mut tx, _rx) = SpscQueue::with_capacity(2).split();
        let mut buf = vec![0, 1];
        assert_eq!(tx.push_batch_drain(&mut buf), 2);
        let mut buf = vec![2, 3];
        assert_eq!(tx.push_batch_drain(&mut buf), 0);
        assert_eq!(buf, [2, 3], "a full queue takes nothing from the buffer");
    }

    #[test]
    fn two_thread_stress_batched_producer() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = SpscQueue::with_capacity(128).split();
        let producer = std::thread::spawn(move || {
            // Blocks of 1..=97 elements, never aligned with the ring.
            let (mut next, mut len) = (0u64, 1u64);
            while next < N {
                let end = (next + len).min(N);
                tx.push_batch_with_backoff(&mut (next..end).collect(), &BackoffPolicy::default());
                next = end;
                len = len % 97 + 1;
            }
        });
        let mut expected = 0u64;
        while expected < N {
            rx.pop_batch(64, |v| {
                assert_eq!(v, expected, "FIFO order violated under batched push");
                expected += 1;
            });
        }
        producer.join().unwrap();
    }

    #[test]
    fn push_batch_drain_removes_written_prefix_only() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        tx.try_push(0).unwrap();
        let mut buf: Vec<u32> = (1..10).collect();
        assert_eq!(tx.push_batch_drain(&mut buf), 3, "only 3 slots were free");
        assert_eq!(buf, (4..10).collect::<Vec<_>>(), "unwritten suffix must stay in the buffer");
        let mut seen = Vec::new();
        rx.pop_batch(10, |v| seen.push(v));
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(tx.push_batch_drain(&mut Vec::new()), 0);
    }

    #[test]
    fn push_batch_drain_refreshes_stale_head_cursor() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
        for i in 0..6u32 {
            tx.try_push(i).unwrap();
        }
        rx.pop_batch(6, |_| {});
        let mut buf: Vec<u32> = (0..8).collect();
        assert_eq!(tx.push_batch_drain(&mut buf), 8);
        assert!(buf.is_empty());
    }

    #[test]
    fn push_batch_with_backoff_delivers_everything_and_counts_failures() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut got = Vec::new();
            while got.len() < 100 {
                rx.pop_batch(8, |v| got.push(v));
            }
            got
        });
        let mut buf: Vec<u32> = (0..100).collect();
        let failures = tx.push_batch_with_backoff(
            &mut buf,
            &BackoffPolicy { spins: 4, sleep: Duration::from_micros(100) },
        );
        assert!(buf.is_empty(), "backoff push must drain the whole buffer");
        assert!(failures > 0, "a 4-slot queue receiving 100 elements must hit full");
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn backoff_push_parks_on_a_full_queue_until_space_frees() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        let policy = BackoffPolicy { spins: 2, sleep: Duration::from_millis(1) };
        let done = Arc::new(AtomicBool::new(false));
        // Nobody drains rx yet: the pusher publishes what fits and sleeps.
        let pusher = std::thread::spawn({
            let done = Arc::clone(&done);
            move || {
                let mut buf: Vec<u32> = (0..10).collect();
                let failures = tx.push_batch_with_backoff(&mut buf, &policy);
                done.store(true, Ordering::Release);
                (buf, failures)
            }
        });
        while rx.len() < 4 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!done.load(Ordering::Acquire), "a full queue must hold the pusher back");
        // Draining frees the space the pusher's next retry takes.
        let mut got = Vec::new();
        while got.len() < 10 {
            rx.pop_batch(4, |v| got.push(v));
        }
        let (buf, failures) = pusher.join().unwrap();
        assert!(buf.is_empty());
        assert!(failures > 0);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn backoff_push_with_room_publishes_without_failures() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(16).split();
        let mut buf: Vec<u32> = (0..10).collect();
        let failures = tx.push_batch_with_backoff(&mut buf, &BackoffPolicy::default());
        assert_eq!(failures, 0);
        assert!(buf.is_empty());
        let mut got = Vec::new();
        rx.pop_batch(16, |v| got.push(v));
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_batch_survives_panicking_callback_without_double_drop() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Counted(u32);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = SpscQueue::with_capacity(8).split();
        for i in 0..6 {
            tx.try_push(Counted(i)).unwrap();
        }
        // Panic on the third element of the batch: elements 0..=2 must count
        // as consumed (head advances past them), 3..6 must stay queued.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rx.pop_batch(6, |v: Counted| {
                if v.0 == 2 {
                    panic!("combiner blew up");
                }
            });
        }));
        assert!(panicked.is_err());
        assert_eq!(rx.len(), 3, "head must advance past the consumed prefix exactly once");
        let mut rest = Vec::new();
        rx.pop_batch(8, |v| rest.push(v.0));
        assert_eq!(rest, [3, 4, 5]);
        drop((tx, rx));
        assert_eq!(DROPS.load(Ordering::SeqCst), 6, "each element must drop exactly once");
    }

    #[test]
    fn two_thread_stress_batched_push_vs_pop_batch_exact() {
        const N: u64 = 100_000;
        const BLOCK: usize = 37; // deliberately coprime with queue and pop sizes
        let (mut tx, mut rx) = SpscQueue::with_capacity(128).split();
        let producer = std::thread::spawn(move || {
            let policy = BackoffPolicy { spins: 32, sleep: Duration::from_micros(10) };
            let mut buf = Vec::with_capacity(BLOCK);
            let mut failures = 0u64;
            for i in 0..N {
                buf.push(i);
                if buf.len() == BLOCK {
                    failures += tx.push_batch_with_backoff(&mut buf, &policy);
                }
            }
            failures += tx.push_batch_with_backoff(&mut buf, &policy);
            failures
        });
        let expected = std::cell::Cell::new(0u64);
        let check = |v: u64| {
            assert_eq!(v, expected.get(), "FIFO order violated under batched push");
            expected.set(expected.get() + 1);
        };
        while expected.get() < N {
            if !rx.pop_batch_exact(64, check) {
                // Near the end only a partial batch remains.
                rx.pop_batch(64, check);
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn finish_closes_without_consuming_the_producer() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        tx.try_push(1).unwrap();
        assert!(!rx.is_closed());
        tx.finish();
        tx.finish(); // idempotent
        assert!(rx.is_closed(), "finish must look like a producer drop to the consumer");
        assert_eq!(rx.try_pop(), Some(1), "buffered elements survive finish");
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn reopen_rearms_a_finished_queue_for_the_next_job() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(3).split();
        // Several back-to-back "jobs" through one queue, wrapping the ring.
        for job in 0..5u32 {
            for i in 0..3 {
                tx.try_push(job * 3 + i).unwrap();
            }
            tx.finish();
            let mut seen = Vec::new();
            while !(rx.is_closed() && rx.is_empty()) {
                rx.pop_batch(8, |v| seen.push(v));
            }
            rx.pop_batch(8, |v| seen.push(v));
            assert_eq!(seen, (job * 3..job * 3 + 3).collect::<Vec<_>>());
            rx.reopen();
            assert!(!rx.is_closed());
            assert_eq!(rx.len(), 0);
        }
    }

    #[test]
    fn reopen_preserves_monotonic_progress_counters() {
        let (mut tx, mut rx) = SpscQueue::with_capacity(4).split();
        for _ in 0..3 {
            for i in 0..4u32 {
                tx.try_push(i).unwrap();
            }
            tx.finish();
            assert_eq!(rx.pop_batch(8, |_| {}), 4);
            rx.reopen();
            assert!(!rx.is_closed());
            assert_eq!(rx.len(), 0, "indices must not reset across reopen");
        }
    }

    #[test]
    fn consumer_parked_is_set_while_the_consumer_waits_and_cleared_by_its_ring() {
        let (mut tx, rx) = SpscQueue::<u32>::with_capacity(8).split();
        assert!(!tx.consumer_parked(), "nobody has waited yet");
        let consumer = std::thread::spawn(move || {
            let rx = [rx];
            // Needs four; only the close below can satisfy it.
            while !rx[0].is_closed() {
                Consumer::wait_any(&rx, 4, Duration::from_secs(10));
            }
        });
        while !tx.consumer_parked() {
            std::hint::spin_loop();
        }
        tx.try_push(1).unwrap(); // below the need: no ring, still parked
        assert!(tx.consumer_parked());
        tx.finish();
        consumer.join().unwrap();
        assert!(!tx.consumer_parked(), "the close rang and the consumer disarmed");
    }

    #[test]
    fn a_consumer_waits_on_the_thread_that_first_waited() {
        let (mut tx, rx) = SpscQueue::<u32>::with_capacity(8).split();
        let consumer = std::thread::spawn(move || {
            let rx = [rx];
            while rx[0].is_empty() {
                Consumer::wait_any(&rx, 1, Duration::from_secs(10));
            }
            rx
        });
        while !tx.consumer_parked() {
            std::hint::spin_loop();
        }
        tx.try_push(1).unwrap();
        let rx = consumer.join().unwrap();
        assert!(!tx.consumer_parked(), "the push rang and the consumer disarmed");

        // Moved to this thread, the consumer would park where its producer
        // never rings.
        let wait_here = || Consumer::wait_any(&rx, 1, Duration::ZERO);
        let moved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(wait_here));
        let message = *moved.expect_err("a wait on another thread").downcast::<&str>().unwrap();
        assert_eq!(message, "a ring's consumer must wait on the thread that first waited on it");
        assert!(!tx.consumer_parked(), "the refused wait armed nothing");
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Producer<u64>>();
        assert_send::<Consumer<u64>>();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Single-threaded model check: an arbitrary interleaving of pushes and
    /// (batched) pops must behave exactly like a VecDeque of the same
    /// capacity.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u16),
        PushBatch(Vec<u16>),
        Pop,
        PopBatch(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u16>().prop_map(Op::Push),
            proptest::collection::vec(any::<u16>(), 0..48).prop_map(Op::PushBatch),
            Just(Op::Pop),
            (1u8..32).prop_map(Op::PopBatch),
        ]
    }

    proptest! {
        #[test]
        fn behaves_like_bounded_deque(
            capacity in 1usize..64,
            ops in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            let (mut tx, mut rx) = SpscQueue::with_capacity(capacity).split();
            let mut model = std::collections::VecDeque::new();
            for op in ops {
                match op {
                    Op::Push(v) => {
                        let accepted = tx.try_push(v).is_ok();
                        let model_accepts = model.len() < capacity;
                        prop_assert_eq!(accepted, model_accepts);
                        if model_accepts {
                            model.push_back(v);
                        }
                    }
                    Op::PushBatch(items) => {
                        let mut buf = items.clone();
                        let written = tx.push_batch_drain(&mut buf);
                        let fits = (capacity - model.len()).min(items.len());
                        prop_assert_eq!(written, fits);
                        prop_assert_eq!(&buf[..], &items[fits..]);
                        model.extend(items[..fits].iter().copied());
                    }
                    Op::Pop => {
                        prop_assert_eq!(rx.try_pop(), model.pop_front());
                    }
                    Op::PopBatch(max) => {
                        let mut got = Vec::new();
                        let n = rx.pop_batch(max as usize, |v| got.push(v));
                        let expect: Vec<u16> =
                            model.drain(..(max as usize).min(model.len())).collect();
                        prop_assert_eq!(n, expect.len());
                        prop_assert_eq!(got, expect);
                    }
                }
                prop_assert_eq!(rx.len(), model.len());
            }
        }
    }
}
