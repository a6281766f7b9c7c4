//! Lost-wakeup stress for the consumer's wake-on-progress wait.
//!
//! Every consumer wait here has a 10 s park ceiling under a 5 s hard
//! deadline, so a ring that goes missing fails the test instead of being
//! papered over by the timeout. Producers never wait: they yield while the
//! queue is full, as a runtime mapper folds instead.
//!
//! Run with `--test-threads=1` when timing matters (CI does).

use std::sync::mpsc;
use std::time::Duration;

use ramr_spsc::{Consumer, Producer, SpscQueue};

const CEILING: Duration = Duration::from_secs(10);
const DEADLINE: Duration = Duration::from_secs(5);

/// Runs `f` on its own thread and fails if it is not back within
/// [`DEADLINE`]. A thread stuck in a 10 s park is simply left behind.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    result
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: not done in {DEADLINE:?} — a wake-up went missing"))
}

/// Publishes all of `buf`, yielding whenever the queue is full.
fn push_all<T: Send>(tx: &mut Producer<T>, buf: &mut Vec<T>) {
    while !buf.is_empty() {
        if tx.push_batch_drain(buf) == 0 {
            std::thread::yield_now();
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Streams `n` integers through a `capacity`-slot queue: the producer
/// publishes `block`-sized blocks and yields whenever the queue is full, the
/// consumer pops exact `batch`es and parks whenever fewer are buffered.
fn stream(capacity: usize, batch: usize, block: usize, n: u64) {
    let (mut tx, rx) = SpscQueue::with_capacity(capacity).split();
    let producer = std::thread::spawn(move || {
        let mut buf = Vec::with_capacity(block);
        for i in 0..n {
            buf.push(i);
            if buf.len() == block {
                push_all(&mut tx, &mut buf);
            }
        }
        push_all(&mut tx, &mut buf);
        tx.finish();
        tx
    });
    let mut rx = [rx];
    let mut next = 0u64;
    let mut check = |v: u64| {
        assert_eq!(v, next, "FIFO order violated");
        next += 1;
    };
    loop {
        // Close flag first: closed-then-empty is final.
        let closed = rx[0].is_closed();
        if rx[0].pop_batch_exact(batch, &mut check) {
            continue;
        }
        if closed {
            while rx[0].pop_batch(batch, &mut check) > 0 {}
            break;
        }
        Consumer::wait_any(&rx, batch, CEILING);
    }
    assert_eq!(next, n, "elements lost");
    drop(producer.join().expect("producer panicked"));
}

#[test]
fn no_wakeup_is_lost_at_tiny_capacities_and_large_batches() {
    for capacity in [1usize, 2, 7] {
        for batch in capacity / 2 + 1..=capacity {
            for block in [3usize, 5, 11] {
                if gcd(block, capacity) != 1 || gcd(block, batch) != 1 {
                    continue;
                }
                within_deadline(&format!("capacity {capacity}, batch {batch}, block {block}"), {
                    move || stream(capacity, batch, block, 2_000)
                });
            }
        }
    }
}

#[test]
fn closing_wakes_a_parked_consumer() {
    for round in 0..200u32 {
        within_deadline("close", move || {
            let (mut tx, rx) = SpscQueue::<u32>::with_capacity(8).split();
            let (armed, go) = mpsc::channel();
            let consumer = std::thread::spawn(move || {
                armed.send(()).expect("main is listening");
                let rx = [rx];
                while !rx[0].is_closed() {
                    Consumer::wait_any(&rx, 4, CEILING);
                }
            });
            go.recv().expect("consumer started");
            // Vary how deep into its wait the consumer is when the close
            // lands; the protocol must hold at every depth.
            for _ in 0..round * 50 {
                std::hint::spin_loop();
            }
            tx.try_push(1).expect("room for one"); // below the batch: no ring owed
            if round % 2 == 0 {
                tx.finish();
            } else {
                drop(tx);
            }
            consumer.join().expect("consumer panicked");
        });
    }
}

#[test]
fn one_waiter_covers_several_queues() {
    within_deadline("multi-queue wait", || {
        let (mut quiet_tx, quiet_rx) = SpscQueue::<u32>::with_capacity(8).split();
        let (mut busy_tx, busy_rx) = SpscQueue::<u32>::with_capacity(8).split();
        let consumer = std::thread::spawn(move || {
            let mut rx = [quiet_rx, busy_rx];
            let mut got = 0;
            while got < 400 {
                if rx[1].pop_batch(4, |_| got += 1) == 0 {
                    Consumer::wait_any(&rx, 4, CEILING);
                }
            }
            assert_eq!(rx[0].try_pop(), None);
        });
        // Only the second queue ever fills a batch; its ring must reach a
        // thread that armed both.
        for block in 0..100 {
            let mut block = vec![block; 4];
            push_all(&mut busy_tx, &mut block);
        }
        consumer.join().expect("consumer panicked");
        quiet_tx.finish();
    });
}
