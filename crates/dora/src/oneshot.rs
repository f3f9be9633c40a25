//! One-shot outcome delivery: the reply half of
//! [`DoraEngine::submit`](crate::executor::DoraEngine::submit).
//!
//! Every submitted transaction needs exactly one value delivered exactly
//! once to exactly one waiter, and after the tree and the allocator that
//! hand-off is the largest thing a transaction pays for. The cell is one
//! allocation and **lock-free**: a [`WaitCell`] state word
//! (`EMPTY` / `WAITING` / `READY` / `CLOSED`) beside the value in an
//! `UnsafeCell`.
//!
//! * [`Sender::send`] writes the value and swaps `READY` into the word —
//!   and calls `unpark` only if the swap displaced a *parked* receiver's
//!   `WAITING`. A reply to a client that is still busy, or still polling,
//!   costs no syscall.
//! * [`Receiver::recv`] / [`Receiver::recv_timeout`] wait by the crate's
//!   one policy ([`crate::wait`]): poll, then a bounded number of
//!   `yield_now` polls ([`crate::wait::WAIT_YIELDS`] — under load the
//!   yield gives the core to the worker that is about to reply), and only
//!   then park. A timed-out receiver withdraws its advertisement and can
//!   receive again.
//!
//! Semantics mirror the channel subset the engine and its callers rely
//! on: a dropped-without-send sender wakes the receiver with a
//! disconnect error (an engine that dies mid-transaction must not strand
//! its client), a second send is rejected, and receiving is
//! level-triggered (a value sent before `recv` is simply taken). A value
//! that is never received is dropped with the cell, once.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wait::{WaitCell, FIRST_SIGNAL};

/// Word value: a value is waiting to be taken.
const READY: u32 = FIRST_SIGNAL;
/// Word value: nothing will ever arrive — the sender dropped without
/// sending, or the value was already taken.
const CLOSED: u32 = FIRST_SIGNAL + 1;

struct Cell<T> {
    /// `IDLE` (= empty) → `READY` → `CLOSED`, or `IDLE` → `CLOSED`; the
    /// receiver's `WAITING` comes and goes underneath.
    wait: WaitCell,
    /// Initialised exactly while the word is `READY`.
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: `value` is written by the one sender call that won the `sent`
// claim, before its `READY` release-swap, and read by the one receiver
// after an acquire load of `READY` — never concurrently
// (`wait::tests::wait_cell_interleavings`: "READY without a value" and the
// taken-exactly-once count). The value crosses threads, hence `T: Send`.
unsafe impl<T: Send> Send for Cell<T> {}
unsafe impl<T: Send> Sync for Cell<T> {}

impl<T> Drop for Cell<T> {
    fn drop(&mut self) {
        if self.wait.word() == READY {
            // SAFETY: `READY` means written and not taken; `&mut self`
            // means neither half is left to take it.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

/// Creates a connected one-shot sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let cell = Arc::new(Cell {
        wait: WaitCell::new(),
        value: UnsafeCell::new(MaybeUninit::uninit()),
    });
    let sender = Sender {
        cell: cell.clone(),
        sent: AtomicBool::new(false),
    };
    let receiver = Receiver {
        cell,
        _not_sync: PhantomData,
    };
    (sender, receiver)
}

/// The sending half: delivers at most one value.
pub struct Sender<T> {
    cell: Arc<Cell<T>>,
    /// Claimed by the first `send`. `send` takes `&self` and the engine
    /// keeps the sender in a shared transaction context, so two threads
    /// can race here; the claim decides who may write the value. It lives
    /// in the handle, not the cell: the receiver never reads it.
    sent: AtomicBool,
}

impl<T> Sender<T> {
    /// Delivers the value and wakes the receiver if it sleeps. Fails
    /// (returning the value) if something was already sent.
    pub fn send(&self, value: T) -> Result<(), T> {
        if self.sent.swap(true, Ordering::Relaxed) {
            return Err(value);
        }
        // SAFETY: this call won the `sent` claim, so it is the only writer
        // ever; the receiver reads only after it sees `READY`, which the
        // release-swap below publishes after this write
        // (`wait_cell_interleavings`, sender steps "write, swap").
        unsafe { (*self.cell.value.get()).write(value) };
        self.cell.wait.signal(READY);
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if !*self.sent.get_mut() {
            // Dropped without sending: wake the receiver with a
            // disconnect instead of stranding it.
            self.cell.wait.signal(CLOSED);
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("oneshot::Sender { .. }")
    }
}

/// Error returned by [`Receiver::recv`]: the sender dropped without
/// sending (or the value was already taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("one-shot sender dropped without delivering")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with nothing delivered.
    Timeout,
    /// The sender dropped without sending (or the value was taken).
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing delivered yet (the sender is still alive).
    Empty,
    /// The sender dropped without sending (or the value was taken).
    Disconnected,
}

/// The receiving half: yields the value once. `Send` but not `Sync`: one
/// thread receives at a time (it may hand the receiver to another).
pub struct Receiver<T> {
    cell: Arc<Cell<T>>,
    /// The cell's wait word admits one waiter at a time.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T> Receiver<T> {
    /// `Some` once the word is signalled: the value, or the disconnect.
    fn take(&self) -> Option<Result<T, RecvError>> {
        match self.cell.wait.word() {
            READY => {
                // SAFETY: the acquire load of `READY` pairs with the
                // sender's release-swap after its write, so the value is
                // initialised and visible; this receiver is the only
                // reader (`!Sync`, not `Clone`) and marks the word
                // `CLOSED` before returning, so it is read once
                // (`wait_cell_interleavings`: taken exactly once).
                let value = unsafe { (*self.cell.value.get()).assume_init_read() };
                self.cell.wait.resignal(CLOSED);
                Some(Ok(value))
            }
            CLOSED => Some(Err(RecvError)),
            _ => None,
        }
    }

    /// Yield-then-park until the word is signalled or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) {
        let wait = &self.cell.wait;
        // SAFETY: the receiver is neither `Sync` nor `Clone`, so no other
        // thread is inside `wait` on this cell.
        unsafe { wait.wait(deadline, || wait.word() >= FIRST_SIGNAL) };
    }

    /// Blocks until the value arrives (or the sender disappears).
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            if let Some(result) = self.take() {
                return result;
            }
            self.wait(None);
        }
    }

    /// Blocks until the value arrives, the sender disappears, or
    /// `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        if let Some(result) = self.take() {
            return result.map_err(|RecvError| RecvTimeoutError::Disconnected);
        }
        self.wait(Some(Instant::now() + timeout));
        match self.take() {
            Some(result) => result.map_err(|RecvError| RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    /// Takes the value if it has already arrived.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.take() {
            Some(result) => result.map_err(|RecvError| TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("oneshot::Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_once_and_only_once() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(tx.send(8), Err(8), "second send is rejected");
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn dropped_sender_wakes_a_blocked_receiver() {
        let (tx, rx) = channel::<u32>();
        let waiter = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = channel();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(3));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv(), Ok(42));
        sender.join().unwrap();
    }

    #[test]
    fn receiver_can_move_to_another_thread_between_waits() {
        // The thread that gets the receiver from `submit` need not be the
        // one that waits on it, and a timed-out wait on one thread may be
        // followed by a wait on another: the handle is published afresh
        // on every park.
        let (tx, rx) = channel();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(2)),
            Err(RecvTimeoutError::Timeout)
        );
        let waiter = std::thread::spawn(move || rx.recv());
        // Long enough for the waiter to run out of yields and park.
        std::thread::sleep(Duration::from_millis(20));
        tx.send(11).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok(11));
    }

    #[test]
    fn recv_timeout_racing_send_loses_nothing() {
        // Hammer the withdraw-vs-signal window: the receiver's timeout is
        // about as long as the sender takes to get there, so over the
        // rounds the send lands before the poll, during the yields,
        // between advertise and park, and after the timeout. Whatever
        // happens, the value arrives exactly once and never later than
        // the follow-up `recv`.
        const ROUNDS: usize = 100_000;
        let (pairs_tx, pairs_rx) = std::sync::mpsc::sync_channel::<Sender<usize>>(64);
        let sender = std::thread::spawn(move || {
            for (round, tx) in pairs_rx.into_iter().enumerate() {
                if round % 3 == 0 {
                    std::thread::yield_now();
                }
                tx.send(round).unwrap();
            }
        });
        let mut timeouts = 0;
        for round in 0..ROUNDS {
            let (tx, rx) = channel();
            pairs_tx.send(tx).unwrap();
            let got = match rx.recv_timeout(Duration::from_micros((round % 4) as u64)) {
                Ok(value) => value,
                Err(RecvTimeoutError::Timeout) => {
                    timeouts += 1;
                    rx.recv().expect("a timed-out receiver receives again")
                }
                Err(RecvTimeoutError::Disconnected) => panic!("sender never drops unsent"),
            };
            assert_eq!(got, round);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
        drop(pairs_tx);
        sender.join().unwrap();
        // Not asserted > 0: on an idle many-core box every send may win.
        let _ = timeouts;
    }

    /// Counts its drops, to show a payload is dropped exactly once
    /// whoever ends up owning it.
    #[derive(Debug)]
    struct Counted(Arc<std::sync::atomic::AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn payload_is_dropped_exactly_once_received_or_not() {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let payload = || Counted(drops.clone());

        // Sent, never received: the cell drops it, whichever half goes last.
        let (tx, rx) = channel();
        assert!(tx.send(payload()).is_ok());
        drop(rx);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "sender still holds the cell"
        );
        drop(tx);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        let (tx, rx) = channel();
        assert!(tx.send(payload()).is_ok());
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 2);

        // Received: the receiver owns it, the cell must not drop it again.
        let (tx, rx) = channel();
        assert!(tx.send(payload()).is_ok());
        let received = rx.recv().expect("sent");
        drop((tx, rx));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(received);
        assert_eq!(drops.load(Ordering::SeqCst), 3);

        // Rejected second send: handed back, dropped by the caller.
        let (tx, rx) = channel();
        assert!(tx.send(payload()).is_ok());
        let rejected = tx.send(payload()).expect_err("second send is rejected");
        drop(rejected);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        drop((tx, rx));
        assert_eq!(drops.load(Ordering::SeqCst), 5);

        // Never sent: nothing to drop.
        drop(channel::<Counted>());
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn racing_senders_deliver_exactly_one_value() {
        // `send(&self)` is reachable from several workers through the
        // shared transaction context; the claim lets exactly one write.
        for _ in 0..200 {
            let (tx, rx) = channel();
            let start = std::sync::Barrier::new(3);
            let accepted: usize = std::thread::scope(|scope| {
                let senders: Vec<_> = (0..3)
                    .map(|i| {
                        let (tx, start) = (&tx, &start);
                        scope.spawn(move || {
                            start.wait();
                            tx.send(i).is_ok() as usize
                        })
                    })
                    .collect();
                senders.into_iter().map(|s| s.join().unwrap()).sum()
            });
            assert_eq!(accepted, 1);
            assert!(rx.recv().unwrap() < 3);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
