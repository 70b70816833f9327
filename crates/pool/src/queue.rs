//! A bounded MPMC queue (mutex + condvar, no dependencies).
//!
//! Semantics chosen for a serving frontier rather than a work pipeline:
//!
//! * **Fail-fast backpressure** — `try_push` on a full queue returns the
//!   item immediately instead of blocking the producer; the pool turns
//!   that into a typed [`crate::PoolError::Overload`].
//! * **Drain-on-close** — after `close()`, producers are refused but
//!   consumers keep popping until the queue is empty, then observe
//!   `None`. Nothing accepted is ever dropped.
//!
//! `Turns` shares the cores among consumers when there are more of them
//! than cores.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a `try_push` did not enqueue.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue held `capacity` items; the rejected item is returned.
    Full(T, usize),
    /// The queue was closed; the rejected item is returned.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. Shared via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues without blocking. On success returns the queue depth
    /// *including* the new item.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both hand the item back.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item, st.items.len()));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means "no more work, ever".
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuses further pushes and wakes every blocked consumer. Items
    /// already queued remain poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth (racy by nature; for gauges).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy; for gauges).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shares `permits` concurrent turns among a fixed set of workers, giving
/// each free turn to the least-loaded waiting worker.
///
/// A pool with more workers than cores otherwise hands each worker's CPU
/// share to the kernel. The kernel may run one worker alone on a core and
/// the rest on another, start a worker late, or preempt some workers for
/// milliseconds, and over a short batch the favoured worker serves half
/// of it. Here at most `permits` workers serve at once (the pool allows
/// one more than it has cores), a worker waiting for its turn is blocked,
/// and the next turn goes to the waiting worker that has served the
/// fewest simulated cycles (ties to the lower index), as if each worker
/// had a core of its own. A worker waits from the start and again from
/// the moment a turn ends with [`Turn::end_in_line`], so a worker the
/// kernel has not run yet keeps its place. Taking turns one request at a
/// time instead, in a fixed order, can give every worker the same kind
/// of request each time round a repeating mix.
#[derive(Debug)]
pub(crate) struct Turns {
    state: Mutex<TurnState>,
    permits: usize,
    changed: Condvar,
}

#[derive(Debug)]
struct TurnState {
    /// Turns held now.
    running: usize,
    /// Per worker: waiting for a turn.
    waiting: Vec<bool>,
    /// Per worker: simulated cycles served in ended turns.
    load: Vec<u64>,
}

impl TurnState {
    /// How many waiting workers go before `worker`: those with less load,
    /// or as much and a lower index.
    fn ahead_of(&self, worker: usize) -> usize {
        let key = (self.load[worker], worker);
        (0..self.waiting.len())
            .filter(|&w| self.waiting[w] && (self.load[w], w) < key)
            .count()
    }
}

/// One worker's turn. Dropping it ends it and gives up the worker's
/// place, as a worker that stops serving must.
#[derive(Debug)]
pub(crate) struct Turn<'a> {
    turns: &'a Turns,
    worker: usize,
    /// `Some(cycles served)` once the worker keeps its place.
    served: Option<u64>,
}

impl Turns {
    /// `workers` workers sharing at most `permits` turns (minimum 1).
    pub(crate) fn new(workers: usize, permits: usize) -> Self {
        Turns {
            state: Mutex::new(TurnState {
                running: 0,
                waiting: vec![true; workers],
                load: vec![0; workers],
            }),
            permits: permits.max(1),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TurnState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until a turn is free for `worker`: fewer than `permits`
    /// turns are held or taken by the waiting workers that go before it.
    pub(crate) fn take(&self, worker: usize) -> Turn<'_> {
        let mut st = self.lock();
        st.waiting[worker] = true;
        while st.running + st.ahead_of(worker) >= self.permits {
            st = self.changed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.waiting[worker] = false;
        st.running += 1;
        Turn {
            turns: self,
            worker,
            served: None,
        }
    }
}

impl Turn<'_> {
    /// Ends the turn, adds `cycles` to the worker's load and keeps its
    /// place: it waits for its next turn from now on.
    pub(crate) fn end_in_line(mut self, cycles: u64) {
        self.served = Some(cycles);
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut st = self.turns.lock();
        st.running -= 1;
        if let Some(cycles) = self.served {
            st.load[self.worker] += cycles;
            st.waiting[self.worker] = true;
        }
        drop(st);
        self.turns.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn turns_go_to_the_least_loaded_waiter() {
        let turns = Turns::new(3, 1);
        // Every worker waits from the start, so the lowest index goes first.
        turns.take(0).end_in_line(50);
        turns.take(1).end_in_line(30);
        turns.take(2).end_in_line(10);
        assert_eq!(turns.lock().load, vec![50, 30, 10]);
        // All three wait again: the least loaded, worker 2, goes next,
        // even when worker 0 asks first.
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let w0 = s.spawn(|| {
                turns.take(0).end_in_line(0);
                order.lock().unwrap().push(0);
            });
            let w1 = s.spawn(|| {
                let t = turns.take(1);
                order.lock().unwrap().push(1);
                t.end_in_line(100);
            });
            let t = turns.take(2);
            order.lock().unwrap().push(2);
            t.end_in_line(100);
            w0.join().unwrap();
            w1.join().unwrap();
        });
        // 2 (load 10), then 1 (30), then 0 (50): 1 and 2 now carry 130
        // and 110, so 0 pushed last.
        assert_eq!(*order.lock().unwrap(), vec![2, 1, 0]);
        assert_eq!(turns.lock().running, 0);
    }

    #[test]
    fn a_worker_that_has_not_asked_yet_keeps_its_place() {
        let turns = Turns::new(2, 1);
        turns.take(0).end_in_line(5);
        // Worker 1 waits from the start with load 0, so it goes before
        // worker 0 even though it never asked: worker 0 would block.
        assert_eq!(turns.lock().ahead_of(0), 1);
        assert_eq!(turns.lock().ahead_of(1), 0);
        turns.take(1).end_in_line(10);
        assert_eq!(turns.lock().ahead_of(0), 0);
        assert_eq!(turns.lock().ahead_of(1), 1);
    }

    #[test]
    fn no_worker_waits_while_turns_are_free() {
        // As many turns as workers: every waiting worker may start.
        let turns = Turns::new(2, 2);
        let t1 = turns.take(1);
        let t0 = turns.take(0);
        t0.end_in_line(9);
        t1.end_in_line(1);
        let (_a, _b) = (turns.take(0), turns.take(1));
        assert_eq!(turns.lock().running, 2);
    }

    #[test]
    fn a_dropped_turn_gives_up_the_place() {
        let turns = Turns::new(2, 1);
        // Worker 0 (lowest index) stops serving; worker 1 is not blocked by
        // it afterwards, although its load stays the smaller.
        drop(turns.take(0));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _turn = turns.take(1);
                panic!("holder fails");
            })
            .join()
        });
        let t = turns.take(1);
        assert_eq!(turns.lock().running, 1);
        t.end_in_line(1);
        assert_eq!(turns.lock().waiting, vec![false, true]);
    }

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item, depth)) => {
                assert_eq!(item, 3);
                assert_eq!(depth, 2);
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_terminates() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(1024));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        while q.try_push(p * 1000 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u32> = (0..4u32)
            .flat_map(|p| (0..100u32).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
