//! Offline stand-in for the `crossbeam-channel` crate (see
//! `shims/README.md`).
//!
//! Implements multi-producer **multi-consumer** channels — the property the
//! conventional engine relies on for its shared worker input queue — on top
//! of a `Mutex<VecDeque>` plus two condition variables. Disconnection
//! semantics follow crossbeam: `recv` fails once every `Sender` is dropped
//! and the queue is drained; `send` fails once every `Receiver` is dropped.
//!
//! # Waiting policy
//!
//! The real crate does not sleep the moment a channel is empty, and does
//! not enter the kernel to wake a receiver that is not asleep
//! (`Backoff::snooze` before blocking, a waker list consulted on send).
//! The stand-in follows it, with the same policy `dora-core`'s wait
//! primitive uses, so that the two engines of the A/B differ in their
//! execution model and not in how their threads wait:
//!
//! * `recv` / `recv_timeout` first poll the queue length — an atomic
//!   mirror of `queue.len()`, read **without** the mutex — then poll it
//!   again after each of [`RECV_YIELDS`] `yield_now`s, and only then block
//!   on the condition variable. `RECV_YIELDS` has the value of
//!   `dora_core::wait::WAIT_YIELDS`. There is no busy-spin phase (on a box
//!   with fewer cores than threads a spinning receiver holds the core its
//!   sender needs).
//! * `send` notifies `recv_ready`, and `recv` notifies `send_ready`, only
//!   when the count of threads blocked on that condition variable — kept
//!   under the mutex — is non-zero. A hand-off to a receiver that is busy
//!   or still polling costs no `futex_wake`.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// `yield_now` polls a receiver makes on an empty channel before it blocks.
/// Same value as `dora_core::wait::WAIT_YIELDS`: both engines wait alike.
pub const RECV_YIELDS: u32 = 32;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on `recv_ready` (or woken and not yet running).
    recv_waiters: usize,
    /// Senders blocked on `send_ready` (or woken and not yet running).
    send_waiters: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// `state.queue.len()`, stored under the mutex after every push and
    /// pop, loaded without it by polling receivers and `len()`.
    len: AtomicUsize,
    /// Signaled when a message is pushed or the last sender leaves.
    recv_ready: Condvar,
    /// Signaled when a message is popped or the last receiver leaves.
    send_ready: Condvar,
    capacity: Option<usize>,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops the head under the caller's lock, then — lock released — wakes
    /// one blocked sender if there is one. `None` leaves the lock held.
    fn pop<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
        let Some(msg) = state.queue.pop_front() else {
            return Err(state);
        };
        self.len.store(state.queue.len(), Ordering::Release);
        let wake = state.send_waiters > 0;
        drop(state);
        if wake {
            self.send_ready.notify_one();
        }
        Ok(msg)
    }
}

/// Error returned by [`Sender::send`] when all receivers are gone; carries
/// the unsent message back to the caller.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty (senders may still exist).
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed before a message arrived.
    Timeout,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

/// The sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel. Cloneable (multi-consumer).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel; `send` blocks while `capacity` messages are
/// in flight.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(capacity))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            recv_waiters: 0,
            send_waiters: 0,
        }),
        len: AtomicUsize::new(0),
        recv_ready: Condvar::new(),
        send_ready: Condvar::new(),
        capacity,
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full. Fails only
    /// when every receiver has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let chan = &*self.chan;
        let mut state = chan.lock();
        if let Some(cap) = chan.capacity {
            while state.queue.len() >= cap.max(1) && state.receivers > 0 {
                state.send_waiters += 1;
                state = chan
                    .send_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.send_waiters -= 1;
            }
        }
        if state.receivers == 0 {
            return Err(SendError(msg));
        }
        state.queue.push_back(msg);
        chan.len.store(state.queue.len(), Ordering::Release);
        // A receiver counted here is inside `wait` or on its way back to
        // re-check the queue under the lock; one that is not counted has
        // not yet looked at the queue under the lock. Either way it finds
        // this message, so nobody else needs waking.
        let wake = state.recv_waiters > 0;
        drop(state);
        if wake {
            chan.recv_ready.notify_one();
        }
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.len.load(Ordering::Acquire)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().senders += 1;
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.chan.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake receivers so they observe the disconnection.
            self.chan.recv_ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available. Fails only when
    /// the channel is empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Receives a message, giving up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Poll, yield-and-poll [`RECV_YIELDS`] times, then block (see the
    /// module docs). Without a deadline the only error is `Disconnected`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let chan = &*self.chan;
        // The length is read without the mutex: an empty poll must not
        // make a sender's unlock a contended one (a `futex_wake`).
        let poll = || {
            (chan.len.load(Ordering::Acquire) > 0)
                .then(|| chan.pop(chan.lock()).ok())
                .flatten()
        };
        if let Some(msg) = poll() {
            return Ok(msg);
        }
        for _ in 0..RECV_YIELDS {
            std::thread::yield_now();
            if let Some(msg) = poll() {
                return Ok(msg);
            }
        }
        let mut state = chan.lock();
        loop {
            state = match chan.pop(state) {
                Ok(msg) => return Ok(msg),
                Err(state) => state,
            };
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Err(RecvTimeoutError::Timeout);
            }
            state.recv_waiters += 1;
            state = match left {
                None => chan
                    .recv_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    chan.recv_ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.recv_waiters -= 1;
        }
    }

    /// Receives a message if one is immediately available.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.chan.pop(self.chan.lock()) {
            Ok(msg) => Ok(msg),
            Err(state) if state.senders == 0 => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.len.load(Ordering::Acquire)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.lock().receivers += 1;
        Receiver {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.chan.lock();
        state.receivers -= 1;
        let last = state.receivers == 0;
        drop(state);
        if last {
            // Wake blocked senders so they observe the disconnection.
            self.chan.send_ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn disconnect_on_receiver_drop() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
    }

    #[test]
    fn multi_consumer_work_sharing() {
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
    }

    /// Blocks until `n` receivers are counted as blocked on `recv_ready`:
    /// the tests below need their receivers past the yield phase, and the
    /// waiter count is exactly the state they are about.
    fn until_blocked<T>(tx: &Sender<T>, n: usize) {
        while tx.chan.lock().recv_waiters < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn two_blocked_receivers_are_both_woken_by_two_sends() {
        // `send` notifies one waiter and only when the waiter count is
        // non-zero. The lost-wakeup case for that pair: the second send
        // must not conclude "already notified" while a second receiver is
        // still asleep.
        for _ in 0..200 {
            let (tx, rx) = unbounded::<u32>();
            let receivers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.recv())
                })
                .collect();
            until_blocked(&tx, 2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let mut got: Vec<u32> = receivers
                .into_iter()
                .map(|r| r.join().unwrap().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
            assert_eq!(tx.chan.lock().recv_waiters, 0);
        }
    }

    #[test]
    fn blocked_recv_observes_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        let receiver = std::thread::spawn(move || rx.recv());
        until_blocked(&tx, 1);
        drop(tx);
        assert_eq!(receiver.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn one_recv_releases_a_sender_blocked_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2))
        };
        while tx.chan.lock().send_waiters == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rx.recv(), Ok(1));
        assert!(sender.join().unwrap().is_ok(), "the pop must notify");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!((rx.len(), tx.chan.lock().send_waiters), (0, 0));
    }

    #[test]
    fn a_polling_receiver_costs_the_sender_no_notify() {
        // A receiver that finds the message during its poll phase never
        // registers as a waiter, so `send` has nobody to notify; the
        // length mirror is what it polled.
        let (tx, rx) = unbounded();
        tx.send(5).unwrap();
        assert_eq!((tx.len(), tx.chan.lock().recv_waiters), (1, 0));
        assert_eq!(rx.recv(), Ok(5));
        assert!(rx.is_empty());
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(tx.chan.lock().recv_waiters, 0, "a timeout deregisters");
    }
}
