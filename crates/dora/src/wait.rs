//! The one wait primitive: every hand-off in this crate that can block —
//! a client waiting for its reply ([`crate::oneshot`]), a partition worker
//! waiting for a message ([`crate::mailbox`]) — waits and is woken here.
//!
//! A [`WaitCell`] is a **state word** plus the single waiter's
//! [`std::thread::Thread`] handle. The policy, in one place:
//!
//! * **[`WaitCell::wait`]** polls its condition; then polls it again after
//!   each of [`WAIT_YIELDS`] `yield_now`s (on a box with more runnable
//!   threads than cores the yield hands the core straight to the thread
//!   being waited for, and the answer is there when the waiter runs next —
//!   no sleep, no wake, no syscall pair on either side); only then does it
//!   commit to a real sleep: publish the thread handle, advertise
//!   `WAITING` in the word, `SeqCst` fence, re-check the condition,
//!   `thread::park[_timeout]`. A bounded yield phase that *ends in a
//!   sleep* is the point: an idle waiter burns no CPU (the idle-burn test
//!   in `dora-workloads` holds both engines to that).
//! * **Wakers touch the kernel only if someone sleeps.** [`WaitCell::wake`]
//!   is a `SeqCst` fence and one relaxed load of the word; it calls
//!   `unpark` only when the waiter advertised. [`WaitCell::signal`] swaps
//!   an owner-defined value into the word and unparks only if the swap
//!   displaced `WAITING`.
//! * **No spin phase.** A `spin_loop` phase in front of the yields was
//!   measured and lost 10–15 % throughput on the 2-core gate box: a
//!   spinning waiter holds the core its producer needs.
//!
//! [`WAIT_YIELDS`] is the crate's only waiting constant; the
//! `crossbeam-channel` shim the conventional engine waits on carries one
//! of the same value (`RECV_YIELDS`), so both engines wait by one policy.
//!
//! # Protocol
//!
//! The word holds [`IDLE`], `WAITING`, `WAKING`, or an owner value
//! `>=` [`FIRST_SIGNAL`]. There is **one waiter at a time** (the owner
//! guarantees it: a one-shot `Receiver` is `!Sync`, a mailbox has a single
//! consumer); any number of threads may wake or signal.
//!
//! ```text
//! waiter:  IDLE ──advertise──▶ WAITING ──withdraw (ready / timed out)──▶ IDLE
//! waker:               WAITING ──claim──▶ WAKING ──unpark, release──▶ IDLE
//! signal:  any ──swap──▶ value   (unparks iff it displaced WAITING)
//! ```
//!
//! *No lost wakeup.* For a condition kept **outside** the word (the
//! mailbox's lanes) it is the store-buffer pairing: the waiter stores
//! `WAITING`, fences, loads the condition; the waker stores the
//! condition, fences, loads the word — one of the two loads sees the
//! other side's store. For a condition kept **in** the word (the one-shot
//! cell) advertise and signal are read-modify-writes of the same atomic,
//! so one is ordered before the other: the signal sees `WAITING`, or the
//! advertise fails because the signal is already there. `unpark` before
//! `park` leaves a token, so the window between advertising and parking
//! is covered too.
//!
//! *The handle slot is never read and written at once.* The waiter writes
//! it only after loading `IDLE`, and only the waiter moves the word from
//! `IDLE` to `WAITING`; a waker reads it only between its own
//! `WAITING → WAKING` claim and `WAKING → IDLE` release, a signaller only
//! after displacing `WAITING` — and the waiter refuses to advertise again
//! while the word is `WAKING` or a signal value. The `WAKING` stage exists
//! for the mailbox: without it a consumer woken by one producer could
//! re-publish its handle while a second producer is still reading it.
//!
//! `tests::wait_cell_interleavings` enumerates every two-thread schedule
//! of these steps on a model of the same word and checks exactly these
//! claims; the `unsafe` blocks below cite it.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::thread::Thread;
use std::time::Instant;

/// `yield_now` polls a waiter makes before it publishes its handle and
/// sleeps. A handful of scheduler quanta: a hand-off that completes while
/// the other side merely needs the core costs no futex call, an idle
/// waiter still goes to sleep.
pub const WAIT_YIELDS: u32 = 32;

/// Word value: nobody waits, nothing signalled.
pub const IDLE: u32 = 0;
/// Word value: the waiter published its handle and is (about to be) parked.
const WAITING: u32 = 1;
/// Word value: a waker claimed the parked waiter and is reading its handle.
const WAKING: u32 = 2;
/// Smallest word value an owner may pass to [`WaitCell::signal`].
pub const FIRST_SIGNAL: u32 = 3;

/// A state word plus the waiter's thread handle; see the module docs.
pub struct WaitCell {
    word: AtomicU32,
    thread: UnsafeCell<Option<Thread>>,
}

// SAFETY: `word` is atomic; `thread` is written by the one waiter and read
// by at most one waker, never concurrently — the word hands it back and
// forth as the module docs describe (`wait_cell_interleavings` checks the
// exclusion on every schedule). `Thread` is `Send + Sync`.
unsafe impl Send for WaitCell {}
unsafe impl Sync for WaitCell {}

impl Default for WaitCell {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitCell {
    /// An idle cell.
    pub const fn new() -> Self {
        WaitCell {
            word: AtomicU32::new(IDLE),
            thread: UnsafeCell::new(None),
        }
    }

    /// The word: [`IDLE`], a value passed to [`WaitCell::signal`], or one
    /// of the two transient waiting values (both below [`FIRST_SIGNAL`]).
    /// `Acquire`, so what a signaller wrote before signalling is visible
    /// once the value is.
    pub fn word(&self) -> u32 {
        self.word.load(Ordering::Acquire)
    }

    /// Replaces a signalled word value with another one (a one-shot cell
    /// marking its value taken). Callable only by the waiter, only while
    /// the word holds a signal value — which no other thread changes
    /// except by signalling again.
    pub fn resignal(&self, value: u32) {
        debug_assert!(value >= FIRST_SIGNAL);
        debug_assert!(self.word.load(Ordering::Relaxed) >= FIRST_SIGNAL);
        self.word.store(value, Ordering::Release);
    }

    /// Blocks the calling thread — the cell's one waiter — until `ready`
    /// holds or `deadline` passes: poll, up to [`WAIT_YIELDS`] yielding
    /// polls, then advertise and park. Returns `false` only when the
    /// deadline passed with `ready` still false; `true` means `ready`
    /// held, the word was signalled, or a waker claimed the waiter (the
    /// caller re-checks its condition, as after any condvar wait).
    ///
    /// `ready` must become true no later than the matching
    /// [`WaitCell::wake`] call or observe the value passed to
    /// [`WaitCell::signal`].
    ///
    /// # Safety
    ///
    /// At most one thread may be inside `wait` on a given cell at a time:
    /// the waiter owns the handle slot whenever the word is `IDLE`, and two
    /// waiters would write it concurrently. (Different threads may wait one
    /// after the other.)
    pub unsafe fn wait(&self, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
        if ready() {
            return true;
        }
        for _ in 0..WAIT_YIELDS {
            std::thread::yield_now();
            if ready() {
                return true;
            }
        }
        if !self.advertise() {
            return true;
        }
        // Pairs with the fence in `wake`: either the re-check below sees
        // the waker's publication or the waker's load sees `WAITING`.
        fence(Ordering::SeqCst);
        loop {
            if ready() {
                self.withdraw();
                return true;
            }
            if self.word.load(Ordering::Acquire) != WAITING {
                // Claimed by a waker or overwritten by a signal.
                return true;
            }
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        // A failed withdraw means a wake or signal won the
                        // race against the clock: not a timeout.
                        return !self.withdraw() || ready();
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        }
    }

    /// Publishes the calling thread's handle and moves `IDLE → WAITING`.
    /// `false` when the word was signalled instead.
    fn advertise(&self) -> bool {
        let mut word = self.word.load(Ordering::Acquire);
        while word == WAKING {
            // A waker that claimed the previous round is still inside
            // `unpark`; the slot is its until it releases the word.
            std::thread::yield_now();
            word = self.word.load(Ordering::Acquire);
        }
        if word != IDLE {
            return false;
        }
        // SAFETY: the word is `IDLE` and only this thread (the one waiter)
        // moves it to `WAITING`, which is the only state a waker or
        // signaller reads the slot from — so nobody reads it now
        // (`wait_cell_interleavings`: "slot read while written").
        unsafe { *self.thread.get() = Some(std::thread::current()) };
        self.word
            .compare_exchange(IDLE, WAITING, Ordering::SeqCst, Ordering::Acquire)
            .is_ok()
    }

    /// Moves `WAITING → IDLE`. `false` when a waker or signaller got there
    /// first (its `unpark` token, if still pending, makes one later `park`
    /// return early — every park here sits in a re-checking loop).
    fn withdraw(&self) -> bool {
        self.word
            .compare_exchange(WAITING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Wakes the waiter if — and only if — it advertised: a fence and one
    /// load when nobody sleeps. For conditions kept outside the word; call
    /// it *after* making the condition true.
    pub fn wake(&self) {
        // Pairs with the fence in `wait`.
        fence(Ordering::SeqCst);
        if self.word.load(Ordering::Relaxed) != WAITING
            || self
                .word
                .compare_exchange(WAITING, WAKING, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        self.unpark_published();
        // Fails only if a signal overwrote `WAKING`; the signal stands.
        let _ = self
            .word
            .compare_exchange(WAKING, IDLE, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Swaps `value` (`>=` [`FIRST_SIGNAL`]) into the word and unparks the
    /// waiter if that displaced its advertisement. The `Release` half
    /// publishes whatever the caller wrote before; the `Acquire` half makes
    /// the waiter's handle readable.
    pub fn signal(&self, value: u32) {
        debug_assert!(value >= FIRST_SIGNAL);
        if self.word.swap(value, Ordering::AcqRel) == WAITING {
            self.unpark_published();
        }
    }

    /// Unparks the thread whose handle the waiter published. Callers hold
    /// the slot: they moved the word out of `WAITING` themselves.
    fn unpark_published(&self) {
        // SAFETY: the caller's read-modify-write took the word from
        // `WAITING` (acquiring the waiter's handle store, which precedes
        // its `IDLE → WAITING` release) to `WAKING` or a signal value, and
        // the waiter does not write the slot again until it loads `IDLE`
        // (`wait_cell_interleavings`: "slot read while written").
        let thread = unsafe { (*self.thread.get()).as_ref() };
        thread
            .expect("WAITING is stored only after the handle")
            .unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// `WaitCell::wait` for tests that have one waiting thread per cell.
    fn wait(cell: &WaitCell, deadline: Option<Instant>, ready: impl FnMut() -> bool) -> bool {
        // SAFETY: each test below waits on its cell from one thread only.
        unsafe { cell.wait(deadline, ready) }
    }

    #[test]
    fn wake_without_a_waiter_leaves_the_word_idle() {
        let cell = WaitCell::new();
        cell.wake();
        assert_eq!(cell.word(), IDLE);
        cell.signal(FIRST_SIGNAL);
        assert_eq!(cell.word(), FIRST_SIGNAL);
        // A signalled cell never parks: `ready` is false, the word says go.
        assert!(wait(&cell, None, || false));
    }

    #[test]
    fn wait_times_out_then_waits_again() {
        let cell = WaitCell::new();
        let started = Instant::now();
        assert!(!wait(
            &cell,
            Some(started + Duration::from_millis(5)),
            || false
        ));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(cell.word(), IDLE, "a timed-out waiter withdraws");
        assert!(wait(&cell, Some(Instant::now()), || true));
    }

    #[test]
    fn wake_reaches_a_parked_waiter() {
        let cell = Arc::new(WaitCell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (cell, flag) = (cell.clone(), flag.clone());
            std::thread::spawn(move || wait(&cell, None, || flag.load(Ordering::Acquire)))
        };
        // Let the waiter get past its yield phase (not required for
        // correctness — the wake is level-triggered through `flag`).
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        cell.wake();
        assert!(waiter.join().unwrap());
        assert_eq!(cell.word(), IDLE);
    }

    // ---------------------------------------------------------------
    // Interleaving model
    // ---------------------------------------------------------------
    //
    // The steps of `wait` / `wake` / `signal` (and of the one-shot cell
    // built on them: write value, take value, drop) as a step machine over
    // the same word values, explored exhaustively. One step = one shared-
    // memory access of the real code, so every schedule the hardware can
    // produce under sequential consistency is some path here (the real
    // code's fences and RMWs are what make SC the right model for these
    // few locations).

    const READY: u32 = FIRST_SIGNAL;
    const CLOSED: u32 = FIRST_SIGNAL + 1;

    /// What the second thread does.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Peer {
        /// One-shot sender: write the value, `signal(READY)`.
        Send,
        /// One-shot sender dropped without sending: `signal(CLOSED)`.
        DropUnsent,
        /// Mailbox producer: publish a message (condition outside the
        /// word), then `wake()`. Two rounds, so a waiter re-advertising
        /// meets a waker still holding the previous claim.
        Produce,
    }

    /// Receiver program counter. Mirrors `WaitCell::wait` line by line.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Rx {
        /// `ready()` — the poll (the yield phase is more of the same poll).
        Poll,
        /// `advertise`: load the word (spin while `WAKING`).
        LoadWord,
        /// `advertise`: write the handle slot — first half…
        WriteSlotBegin,
        /// …second half (two steps so a concurrent read is observable).
        WriteSlotEnd,
        /// `advertise`: CAS `IDLE → WAITING`.
        Advertise,
        /// Parked loop: `ready()` re-check.
        Recheck,
        /// Parked loop: the re-check held — `withdraw`, return.
        WithdrawReady,
        /// Parked loop: load the word, return if not `WAITING`.
        CheckWord,
        /// `park` / `park_timeout`: consumes the token or blocks; with a
        /// deadline it may also time out.
        Park,
        /// Timed out: `withdraw` CAS `WAITING → IDLE`.
        Withdraw,
        /// Withdrew: the final `ready()` that decides "timed out".
        RecheckTimedOut,
        /// `wait` returned with the condition (possibly) true: the owner
        /// consumes it (one-shot: take the value; mailbox: drain).
        Consume,
        /// `wait` returned `false`; the receiver calls it again, this time
        /// without a deadline ("a timed-out receiver can `recv` again").
        TimedOut,
        Done,
    }

    /// Peer program counter. Mirrors `signal` / `wake` and their callers.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Tx {
        /// Publish: write the one-shot value / push the message.
        Publish,
        /// `signal`: swap the value in.
        Swap,
        /// `wake`: load the word (after the fence).
        LoadWord,
        /// `wake`: CAS `WAITING → WAKING`.
        Claim,
        /// Read the handle slot and `unpark` — begin…
        UnparkBegin,
        /// …end.
        UnparkEnd,
        /// `wake`: CAS `WAKING → IDLE`.
        Release,
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Model {
        peer: Peer,
        word: u32,
        /// The waiter is inside its two-step slot write.
        slot_writing: bool,
        /// A waker is inside its two-step slot read.
        slot_reading: bool,
        slot_published: bool,
        /// `unpark` token of the receiver thread.
        token: bool,
        /// One-shot: values written and not yet taken. Mailbox: messages
        /// pushed and not yet drained.
        pending: u32,
        /// Values taken by the receiver (one-shot) / drained (mailbox).
        consumed: u32,
        /// Rounds the producer has left.
        rounds: u32,
        /// Whether the receiver's current `wait` has a deadline.
        timed: bool,
        rx: Rx,
        tx: Tx,
    }

    impl Model {
        fn new(peer: Peer, timed: bool) -> Self {
            Model {
                peer,
                word: IDLE,
                slot_writing: false,
                slot_reading: false,
                slot_published: false,
                token: false,
                pending: 0,
                consumed: 0,
                rounds: if peer == Peer::Produce { 2 } else { 1 },
                timed,
                rx: Rx::Poll,
                tx: if peer == Peer::DropUnsent {
                    Tx::Swap
                } else {
                    Tx::Publish
                },
            }
        }

        /// The owner's `ready` closure.
        fn ready(&self) -> bool {
            match self.peer {
                // oneshot: `cell.word() >= FIRST_SIGNAL`
                Peer::Send | Peer::DropUnsent => self.word >= FIRST_SIGNAL,
                // mailbox: `has_pending()`
                Peer::Produce => self.pending > 0,
            }
        }

        /// Successor states of one receiver step (several when the step
        /// is non-deterministic: a park may time out or wake spuriously).
        fn step_rx(&self) -> Vec<Model> {
            let mut next = self.clone();
            match self.rx {
                Rx::Poll => {
                    next.rx = if self.ready() {
                        Rx::Consume
                    } else {
                        Rx::LoadWord
                    }
                }
                Rx::LoadWord => {
                    next.rx = match self.word {
                        WAKING => Rx::LoadWord,
                        IDLE => Rx::WriteSlotBegin,
                        _ => Rx::Consume,
                    }
                }
                Rx::WriteSlotBegin => {
                    assert!(!self.slot_reading, "slot read while written: {self:?}");
                    next.slot_writing = true;
                    next.rx = Rx::WriteSlotEnd;
                }
                Rx::WriteSlotEnd => {
                    assert!(!self.slot_reading, "slot read while written: {self:?}");
                    next.slot_writing = false;
                    next.slot_published = true;
                    next.rx = Rx::Advertise;
                }
                Rx::Advertise => {
                    if self.word == IDLE {
                        next.word = WAITING;
                        next.rx = Rx::Recheck;
                    } else {
                        next.rx = Rx::Consume;
                    }
                }
                Rx::Recheck => {
                    next.rx = if self.ready() {
                        Rx::WithdrawReady
                    } else {
                        Rx::CheckWord
                    }
                }
                Rx::WithdrawReady => {
                    // `withdraw`, result ignored.
                    if self.word == WAITING {
                        next.word = IDLE;
                    }
                    next.rx = Rx::Consume;
                }
                Rx::CheckWord => {
                    next.rx = if self.word == WAITING {
                        Rx::Park
                    } else {
                        Rx::Consume
                    }
                }
                Rx::Park => {
                    let mut out = Vec::new();
                    if self.token {
                        next.token = false;
                        next.rx = Rx::Recheck;
                        out.push(next);
                    }
                    // (Blocked without a token: no successor from this
                    // branch — that is what "parks forever" means.)
                    if self.timed {
                        let mut timeout = self.clone();
                        timeout.rx = Rx::Withdraw;
                        out.push(timeout);
                    }
                    return out;
                }
                Rx::Withdraw => {
                    if self.word == WAITING {
                        next.word = IDLE;
                        next.rx = Rx::RecheckTimedOut;
                    } else {
                        next.rx = Rx::Consume;
                    }
                }
                Rx::RecheckTimedOut => {
                    next.rx = if self.ready() {
                        Rx::Consume
                    } else {
                        Rx::TimedOut
                    }
                }
                Rx::TimedOut => {
                    next.timed = false;
                    next.rx = Rx::Poll;
                }
                Rx::Consume => match self.peer {
                    Peer::Send | Peer::DropUnsent => match self.word {
                        READY => {
                            assert_eq!(self.pending, 1, "READY without a value: {self:?}");
                            next.pending = 0;
                            next.consumed += 1;
                            next.word = CLOSED; // `resignal(CLOSED)`
                            next.rx = Rx::Done;
                        }
                        CLOSED => next.rx = Rx::Done,
                        // `wait` returned without a signal in the word:
                        // the one-shot's `recv` loop calls it again.
                        _ => next.rx = Rx::Poll,
                    },
                    Peer::Produce => {
                        next.consumed += self.pending;
                        next.pending = 0;
                        // The consumer goes back to waiting until it has
                        // seen both rounds.
                        next.rx = if next.consumed == 2 {
                            Rx::Done
                        } else {
                            Rx::Poll
                        };
                    }
                },
                Rx::Done => return Vec::new(),
            }
            vec![next]
        }

        fn step_tx(&self) -> Vec<Model> {
            let mut next = self.clone();
            match self.tx {
                Tx::Publish => {
                    next.pending += 1;
                    next.tx = if self.peer == Peer::Produce {
                        Tx::LoadWord
                    } else {
                        Tx::Swap
                    };
                }
                Tx::Swap => {
                    next.word = if self.peer == Peer::Send {
                        READY
                    } else {
                        CLOSED
                    };
                    // `signal` unparks iff it displaced `WAITING`.
                    next.tx = if self.word == WAITING {
                        Tx::UnparkBegin
                    } else {
                        Tx::Done
                    };
                }
                Tx::LoadWord => {
                    if self.word != WAITING {
                        // Nobody sleeps: `wake` returns without a syscall.
                        return vec![next.end_round()];
                    }
                    next.tx = Tx::Claim;
                }
                Tx::Claim => {
                    if self.word == WAITING {
                        next.word = WAKING;
                        next.tx = Tx::UnparkBegin;
                    } else {
                        return vec![next.end_round()];
                    }
                }
                Tx::UnparkBegin => {
                    assert!(!self.slot_writing, "slot read while written: {self:?}");
                    assert!(self.slot_published, "unpark before a handle: {self:?}");
                    next.slot_reading = true;
                    next.tx = Tx::UnparkEnd;
                }
                Tx::UnparkEnd => {
                    assert!(!self.slot_writing, "slot read while written: {self:?}");
                    next.slot_reading = false;
                    next.token = true;
                    if self.peer == Peer::Produce {
                        next.tx = Tx::Release;
                    } else {
                        next.tx = Tx::Done;
                    }
                }
                Tx::Release => {
                    if self.word == WAKING {
                        next.word = IDLE;
                    }
                    return vec![next.end_round()];
                }
                Tx::Done => return Vec::new(),
            }
            vec![next]
        }

        fn end_round(mut self) -> Model {
            self.rounds -= 1;
            self.tx = if self.rounds == 0 {
                Tx::Done
            } else {
                Tx::Publish
            };
            self
        }

        /// Checked in every state with no successor.
        fn check_final(&self) -> Result<(), String> {
            let expected = match self.peer {
                Peer::Send => (CLOSED, 1, 0),
                Peer::DropUnsent => (CLOSED, 0, 0),
                Peer::Produce => (IDLE, 2, 0),
            };
            if (self.rx, self.tx) != (Rx::Done, Tx::Done) {
                Err(format!("stuck — a thread parks forever: {self:?}"))
            } else if (self.word, self.consumed, self.pending) != expected {
                Err(format!("value lost, duplicated or left behind: {self:?}"))
            } else {
                Ok(())
            }
        }
    }

    /// Depth-first over every interleaving; returns (states, finals), or
    /// the first final state that fails its check. `break_waiter` models
    /// the bug the protocol exists to prevent: no re-check between
    /// advertising and parking.
    fn explore(start: Model, break_waiter: bool) -> Result<(usize, usize), String> {
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        let mut finals = 0;
        while let Some(state) = stack.pop() {
            if !seen.insert(state.clone()) {
                continue;
            }
            let mut successors = state.step_rx();
            if break_waiter && state.rx == Rx::Advertise {
                for next in &mut successors {
                    if next.rx == Rx::Recheck {
                        next.rx = Rx::Park;
                    }
                }
            }
            successors.extend(state.step_tx());
            // A receiver spinning on `WAKING` re-enters the same state;
            // that is progress for the waker, not a successor.
            successors.retain(|s| *s != state);
            if successors.is_empty() {
                state.check_final()?;
                finals += 1;
            }
            stack.extend(successors);
        }
        Ok((seen.len(), finals))
    }

    /// Every two-thread interleaving of the wait protocol, on a model of
    /// the same state word: receiver steps (poll, publish handle,
    /// advertise, re-check, park, timeout-withdraw) against sender steps
    /// (write, swap, unpark; drop-without-send) and against a mailbox
    /// producer (publish, fence-load, claim, unpark, release — twice).
    ///
    /// Asserted on every schedule: nobody parks forever (in particular
    /// not with a value `READY`); the handle slot is never read while it
    /// is written; a one-shot value is taken exactly once (the
    /// never-received case — receiver dropped — is the cell's `Drop`,
    /// covered by `oneshot`'s drop-counting tests); both mailbox messages
    /// are drained; a receiver whose `wait` timed out waits again and
    /// still gets the value.
    #[test]
    fn wait_cell_interleavings() {
        for peer in [Peer::Send, Peer::DropUnsent, Peer::Produce] {
            for timed in [false, true] {
                let (states, finals) = explore(Model::new(peer, timed), false)
                    .unwrap_or_else(|why| panic!("{peer:?}/{timed}: {why}"));
                assert!(finals > 0, "{peer:?}/{timed}: no schedule finished");
                assert!(states > 20, "{peer:?}/{timed}: model degenerate ({states})");
            }
        }
    }

    /// The model must be able to fail: drop the re-check after
    /// advertising and the classic lost wakeup appears.
    #[test]
    fn interleaving_model_detects_a_lost_wakeup() {
        let verdict = explore(Model::new(Peer::Produce, false), true);
        assert!(
            verdict
                .as_ref()
                .is_err_and(|why| why.contains("parks forever")),
            "the broken protocol must be caught: {verdict:?}"
        );
    }
}
