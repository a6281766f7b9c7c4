//! The [`MapReduceJob`] trait and the [`Emitter`] handed to map functions.

use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// Marker trait bundle for intermediate keys.
///
/// Keys must be hashable (hash containers), orderable (merge phase produces
/// key-sorted output, as in Phoenix++), cloneable (keys cross the
/// mapper/combiner boundary and appear in several thread-local containers)
/// and sendable across threads.
pub trait MrKey: Eq + Hash + Ord + Clone + Send + Sync + Debug + 'static {}

impl<T> MrKey for T where T: Eq + Hash + Ord + Clone + Send + Sync + Debug + 'static {}

/// Marker trait bundle for intermediate values.
pub trait MrValue: Clone + Send + Sync + Debug + 'static {}

impl<T> MrValue for T where T: Clone + Send + Sync + Debug + 'static {}

/// Sink for intermediate key-value pairs produced by a map function.
///
/// In the Phoenix++-style baseline the emitter combines pairs directly into
/// the worker's thread-local container; in RAMR it pushes them into the
/// mapper's SPSC queue toward its assigned combiner. Map functions are
/// agnostic to the difference.
///
/// The emitter counts emissions so runtimes can report throughput statistics
/// without requiring cooperation from the job.
///
/// Emission is the hottest per-pair point in the pipeline, so sinks are
/// expected to be cheap and keys should avoid per-emit heap allocation:
/// string-keyed jobs should prefer a small-string-optimized key type (the
/// `ramr-containers` crate provides `CompactKey`, which stores short keys
/// inline and drops into `Key` unchanged). The RAMR sinks also hash each
/// key exactly once at this point and carry the hash downstream, so
/// emitting a cheap-to-hash key pays off in every later stage.
///
/// # Sink types
///
/// `S` is the sink's type. It defaults to `dyn FnMut(K, V)`, so an
/// `Emitter<'_, K, V>` — the one [`MapReduceJob::map`] takes — reaches its
/// sink through one indirect call per pair. The runtimes call
/// [`MapReduceJob::map_to`] instead, with `S` their own closure: a job that
/// overrides it gets a map loop with the sink (the key's hash, the
/// emit-buffer push or the array container's fold) inlined. That pays for
/// array-keyed maps of a few ns a pair, not for word count, whose override
/// read 9–13 % slower; see [`MapReduceJob::map_to`].
///
/// # Example
///
/// Runtimes hand a fresh emitter to each map task; outside a runtime (tests,
/// sequential references) one is built over any sink closure:
///
/// ```
/// use mr_core::Emitter;
///
/// let mut pairs = Vec::new();
/// let mut sink = |k: &'static str, v: u64| pairs.push((k, v));
/// let mut emit = Emitter::new(&mut sink);
/// emit.emit("ramr", 1);
/// emit.emit("phoenix", 1);
/// assert_eq!(emit.emitted(), 2);
/// assert_eq!(pairs, vec![("ramr", 1), ("phoenix", 1)]);
/// ```
pub struct Emitter<'a, K, V, S: ?Sized = dyn FnMut(K, V) + 'a> {
    sink: &'a mut S,
    emitted: u64,
    cancel: Option<&'a AtomicBool>,
    pairs: PhantomData<fn(K, V)>,
}

impl<K, V, S: ?Sized> Debug for Emitter<'_, K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emitter").field("emitted", &self.emitted).finish_non_exhaustive()
    }
}

impl<'a, K, V, S: ?Sized + FnMut(K, V)> Emitter<'a, K, V, S> {
    /// Creates an emitter forwarding pairs into `sink`.
    ///
    /// Runtimes construct one emitter per map task; applications only consume
    /// the emitter they are handed.
    pub fn new(sink: &'a mut S) -> Self {
        Self { sink, emitted: 0, cancel: None, pairs: PhantomData }
    }

    /// Creates an emitter that also carries the runtime's cancellation
    /// token, so cooperative long-running map functions can poll
    /// [`is_cancelled`](Self::is_cancelled) and bail out early when the
    /// watchdog (or any other supervisor) cancels the run.
    pub fn with_cancel(sink: &'a mut S, cancel: &'a AtomicBool) -> Self {
        Self { sink, emitted: 0, cancel: Some(cancel), pairs: PhantomData }
    }

    /// Emits one intermediate key-value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted += 1;
        (self.sink)(key, value);
    }

    /// Number of pairs emitted through this emitter so far.
    #[inline]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the runtime has asked this task to stop early.
    ///
    /// Always `false` for emitters built with [`new`](Self::new). Map
    /// functions are free to ignore this — cancellation is cooperative —
    /// but long-running or potentially-wedged tasks should poll it and
    /// return promptly when it flips, so the watchdog can unwind the run
    /// instead of waiting on them forever.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Runs `f` on an emitter over this one's sink re-borrowed as the sized
    /// `&mut S`, with the same cancel flag and count, and keeps what `f`
    /// emitted in this emitter's count. A job that overrides
    /// [`MapReduceJob::map_to`] serves `map` with it:
    /// `emit.reborrow(|emit| self.map_to(task, emit))`.
    pub fn reborrow<R>(&mut self, f: impl FnOnce(&mut Emitter<'_, K, V, &mut S>) -> R) -> R {
        let mut sink = &mut *self.sink;
        let mut inner = Emitter {
            sink: &mut sink,
            emitted: self.emitted,
            cancel: self.cancel,
            pairs: PhantomData,
        };
        let out = f(&mut inner);
        self.emitted = inner.emitted;
        out
    }
}

/// A shared-memory MapReduce job in the Phoenix++ / RAMR mould.
///
/// Implementations provide a `map` function over a slice of input elements
/// (one *task*, sized by [`RuntimeConfig::task_size`]), an associative and
/// commutative `combine` folding a new value into an accumulator, and
/// optionally a `reduce` that post-processes the per-key combined value.
///
/// Jobs whose key space is dense and known a priori (all paper applications
/// except Word Count) additionally implement [`key_space`] and [`key_index`]
/// so runtimes can use the fixed **array container** — the paper's default.
///
/// # Correctness contract
///
/// `combine` must be associative and commutative with respect to the order
/// values are folded: both runtimes fold values in nondeterministic
/// inter-thread order, and the differential test suite asserts that the two
/// runtimes agree, which only holds for conforming jobs. Floating-point jobs
/// get bitwise-nondeterministic but numerically stable results; tests compare
/// those with a tolerance.
///
/// # Example
///
/// A minimal word count. The same job runs unchanged on the decoupled RAMR
/// runtime and the Phoenix++-style baseline; here the map-combine contract
/// is exercised directly, the way the differential suite's sequential
/// reference does:
///
/// ```
/// use std::collections::HashMap;
/// use mr_core::{Emitter, MapReduceJob};
///
/// struct WordCount;
///
/// impl MapReduceJob for WordCount {
///     type Input = String;
///     type Key = String;
///     type Value = u64;
///
///     fn map(&self, task: &[String], emit: &mut Emitter<'_, String, u64>) {
///         for line in task {
///             for word in line.split_whitespace() {
///                 emit.emit(word.to_string(), 1);
///             }
///         }
///     }
///
///     fn combine(&self, acc: &mut u64, incoming: u64) {
///         *acc += incoming;
///     }
///
///     fn name(&self) -> &str {
///         "wordcount"
///     }
/// }
///
/// let input = vec!["map combine map".to_string(), "combine map".to_string()];
/// let mut counts: HashMap<String, u64> = HashMap::new();
/// let mut sink = |k: String, v: u64| {
///     // What both runtimes do with emitted pairs, minus the threads: fold
///     // each value into the key's accumulator with `combine`.
///     match counts.entry(k) {
///         std::collections::hash_map::Entry::Occupied(mut e) => {
///             WordCount.combine(e.get_mut(), v)
///         }
///         std::collections::hash_map::Entry::Vacant(e) => {
///             e.insert(v);
///         }
///     }
/// };
/// WordCount.map(&input, &mut Emitter::new(&mut sink));
/// assert_eq!(counts["map"], 3);
/// assert_eq!(counts["combine"], 2);
/// ```
///
/// [`RuntimeConfig::task_size`]: crate::RuntimeConfig::task_size
/// [`key_space`]: MapReduceJob::key_space
/// [`key_index`]: MapReduceJob::key_index
pub trait MapReduceJob: Sync {
    /// One element of the input collection. A map task receives a slice of
    /// these.
    type Input: Send + Sync;
    /// Intermediate key type.
    type Key: MrKey;
    /// Intermediate value type.
    type Value: MrValue;

    /// Applies the map function to one task (a slice of input elements),
    /// emitting intermediate pairs through `emit`.
    fn map(&self, task: &[Self::Input], emit: &mut Emitter<'_, Self::Key, Self::Value>);

    /// [`map`](Self::map) over a sink of a concrete type `S`: what every
    /// runtime calls, with `S` its own per-task closure.
    ///
    /// The default re-borrows the sink as `&mut dyn FnMut` in an emitter
    /// with the same cancel flag, calls `map`, and keeps the count, so a
    /// job that implements only `map` pays one indirect call per pair.
    /// A job whose map and combine cost a few ns a pair — a dense,
    /// array-keyed map such as the histogram or k-means assignment —
    /// should override `map_to` with its map body and forward `map` to it
    /// with [`Emitter::reborrow`]. Each runtime route then compiles a map
    /// loop with the sink inlined (measured on a 768-key histogram: a third
    /// off the job). A heavier map gains nothing from it: word count keeps
    /// the default, as an override read 9–13 % slower on a Zipf word
    /// count, where hashing and probing dominate and the larger inlined
    /// loop costs more than the call it saves.
    fn map_to<S: FnMut(Self::Key, Self::Value)>(
        &self,
        task: &[Self::Input],
        emit: &mut Emitter<'_, Self::Key, Self::Value, S>,
    ) {
        let mut as_dyn: Emitter<'_, Self::Key, Self::Value> = Emitter {
            sink: &mut *emit.sink,
            emitted: emit.emitted,
            cancel: emit.cancel,
            pairs: PhantomData,
        };
        self.map(task, &mut as_dyn);
        emit.emitted = as_dyn.emitted;
    }

    /// Folds `incoming` into the accumulator `acc` for the same key.
    ///
    /// Must be associative and commutative (see the trait-level contract).
    fn combine(&self, acc: &mut Self::Value, incoming: Self::Value);

    /// Reduces the fully combined value for `key` into the final value.
    ///
    /// After the map-combine phase each key holds one partial value per
    /// container that saw it; the runtime folds those with [`combine`] and
    /// then applies `reduce` once. The default is the identity, which is the
    /// common case when combiners have already done the reducers' work (the
    /// very situation the paper exploits by overlapping map with combine
    /// rather than map with reduce).
    ///
    /// [`combine`]: MapReduceJob::combine
    fn reduce(&self, key: &Self::Key, combined: Self::Value) -> Self::Value {
        let _ = key;
        combined
    }

    /// Size of the dense key space, if known a priori.
    ///
    /// Returning `Some(n)` promises that [`key_index`] maps every emitted key
    /// injectively into `0..n`, enabling the array container.
    ///
    /// [`key_index`]: MapReduceJob::key_index
    fn key_space(&self) -> Option<usize> {
        None
    }

    /// Maps a key to its dense index in `0..key_space()`.
    ///
    /// # Panics
    ///
    /// The default implementation panics; jobs returning `Some` from
    /// [`key_space`] must override it.
    ///
    /// [`key_space`]: MapReduceJob::key_space
    fn key_index(&self, key: &Self::Key) -> usize {
        let _ = key;
        unimplemented!("key_index requires a job with a declared key_space")
    }

    /// Human-readable job name used in statistics and reports.
    fn name(&self) -> &str {
        "unnamed-job"
    }

    /// Whether a map task of this job may be re-executed after a panic.
    ///
    /// Returning `true` opts the job into the fault-tolerance layer
    /// ([`RuntimeConfig::max_task_retries`] /
    /// [`RuntimeConfig::skip_poison_tasks`]): runtimes then buffer each
    /// task's emissions and publish them only on success, so a retried task
    /// contributes its pairs exactly once. A job is retry-safe when its
    /// `map` has no side effects beyond emitting (or only side effects that
    /// tolerate re-execution, like statistics counters). The default is
    /// `false`, which keeps fail-fast semantics for the job regardless of
    /// the configured retry knobs — the conservative choice for jobs with
    /// external side effects.
    ///
    /// [`RuntimeConfig::max_task_retries`]: crate::RuntimeConfig::max_task_retries
    /// [`RuntimeConfig::skip_poison_tasks`]: crate::RuntimeConfig::skip_poison_tasks
    fn is_retry_safe(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;

    impl MapReduceJob for Sum {
        type Input = u32;
        type Key = u32;
        type Value = u64;

        fn map(&self, task: &[u32], emit: &mut Emitter<'_, u32, u64>) {
            for &x in task {
                emit.emit(x % 4, u64::from(x));
            }
        }

        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc += incoming;
        }
    }

    #[test]
    fn emitter_counts_emissions() {
        let mut seen = Vec::new();
        let mut sink = |k: u32, v: u64| seen.push((k, v));
        let mut emitter: Emitter<'_, u32, u64> = Emitter::new(&mut sink);
        Sum.map(&[1, 2, 3], &mut emitter);
        assert_eq!(emitter.emitted(), 3);
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3)]);
    }

    /// Emits, for each element, the count and the cancel flag its emitter
    /// reports just before the emission; `map` only, so `map_to` is the
    /// default.
    struct Observe;

    /// [`Observe`] with `map_to` overridden and `map` forwarded to it, the
    /// shape of a job that inlines the runtimes' sink.
    struct ObserveTo;

    impl MapReduceJob for Observe {
        type Input = u32;
        type Key = u32;
        type Value = u64;

        fn map(&self, task: &[u32], emit: &mut Emitter<'_, u32, u64>) {
            for _ in task {
                emit.emit(emit.emitted() as u32, u64::from(emit.is_cancelled()));
            }
        }

        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc += incoming;
        }
    }

    impl MapReduceJob for ObserveTo {
        type Input = u32;
        type Key = u32;
        type Value = u64;

        fn map(&self, task: &[u32], emit: &mut Emitter<'_, u32, u64>) {
            emit.reborrow(|emit| self.map_to(task, emit));
        }

        fn map_to<S: FnMut(u32, u64)>(&self, task: &[u32], emit: &mut Emitter<'_, u32, u64, S>) {
            for _ in task {
                emit.emit(emit.emitted() as u32, u64::from(emit.is_cancelled()));
            }
        }

        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc += incoming;
        }
    }

    /// Runs `job` over three elements on an emitter that already counted
    /// one pair and carries a raised cancel flag, through `map_to` with a
    /// closure sink or through `map` with a `dyn` one. Returns the pairs
    /// after the first and the emitter's final count.
    fn observed<J>(job: &J, through_map: bool) -> (Vec<(u32, u64)>, u64)
    where
        J: MapReduceJob<Input = u32, Key = u32, Value = u64>,
    {
        let cancel = AtomicBool::new(true);
        let mut pairs = Vec::new();
        let mut sink = |k: u32, v: u64| pairs.push((k, v));
        let count = if through_map {
            let mut emit: Emitter<'_, u32, u64> = Emitter::with_cancel(&mut sink, &cancel);
            emit.emit(0, 0);
            job.map(&[7, 8, 9], &mut emit);
            emit.emitted()
        } else {
            let mut emit = Emitter::with_cancel(&mut sink, &cancel);
            emit.emit(0, 0);
            job.map_to(&[7, 8, 9], &mut emit);
            emit.emitted()
        };
        (pairs.split_off(1), count)
    }

    #[test]
    fn map_to_and_its_forward_keep_the_cancel_flag_and_the_count() {
        let expected = (vec![(1, 1), (2, 1), (3, 1)], 4);
        assert_eq!(observed(&Observe, false), expected, "the default map_to");
        assert_eq!(observed(&ObserveTo, true), expected, "map forwarded to map_to");
        assert_eq!(observed(&ObserveTo, false), expected, "an overridden map_to");
        assert_eq!(observed(&Observe, true), expected, "map through a dyn sink");
    }

    #[test]
    fn default_reduce_is_identity() {
        assert_eq!(Sum.reduce(&7, 42), 42);
    }

    #[test]
    fn default_key_space_is_none() {
        assert!(Sum.key_space().is_none());
    }

    #[test]
    #[should_panic(expected = "key_index requires")]
    fn default_key_index_panics() {
        let _ = Sum.key_index(&3);
    }

    #[test]
    fn emitter_debug_is_nonempty() {
        let mut sink = |_: u32, _: u64| {};
        let emitter = Emitter::new(&mut sink);
        assert!(format!("{emitter:?}").contains("Emitter"));
    }

    #[test]
    fn default_is_retry_safe_is_false() {
        assert!(!Sum.is_retry_safe(), "retry safety must be an explicit opt-in");
    }

    #[test]
    fn emitter_cancellation_is_observable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut sink = |_: u32, _: u64| {};
        assert!(!Emitter::new(&mut sink).is_cancelled(), "plain emitters never cancel");
        let cancel = AtomicBool::new(false);
        let mut sink = |_: u32, _: u64| {};
        let mut emitter = Emitter::with_cancel(&mut sink, &cancel);
        assert!(!emitter.is_cancelled());
        cancel.store(true, Ordering::Relaxed);
        assert!(emitter.is_cancelled());
        // Cancellation does not block emission: tasks may finish a tail.
        emitter.emit(1, 1);
        assert_eq!(emitter.emitted(), 1);
    }
}
